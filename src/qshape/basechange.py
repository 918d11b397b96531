"""Base change along k -> A for a finite-dimensional coefficient algebra A.

The tensor algebra carries the grading of the left factor (the right factor
must be trivially graded), extension of scalars moves modules across, and
the hom-dimension identity
dim hom(M (x) A, N (x) A) = dim hom(M, N) * dim A is checked on explicit
witnesses.  A tensor algebra memoises the scalar extension of each module
it has extended, so a witness that appears in many hom checks is extended,
and its projective cover built, once per tensor.  That is exact: the
extension is a function of the module and the tensor alone, and no code
changes a module's degrees or action after construction.
"""

from .algebra import GradedAlgebra, generating_vectors, zero_algebra
from .fields import check_same_field
from .modules import GradedModule, HomSpace


def ungrade(a):
    """The same algebra regraded to live entirely in degree 0.

    Proven (`GradedAlgebra.proven`): it keeps a's table, unit and verified
    generating set, so the unit laws, associativity and the span of right
    words in G hold as they do in a, and every degree is 0, so the grading
    holds trivially.  Only the declared idempotents are checked.
    """
    return GradedAlgebra.proven(a.field, [0] * a.dim, a.mult, a.unit, generating_vectors(a),
                                idempotents=a.idempotents, labels=a.labels,
                                radical_hint=a.radical_hint)


class TensorAlgebra:
    """Lambda (x) A with basis pairs, graded by the left factor.

    Proven (`GradedAlgebra.proven`) from the axioms of its factors.  The
    product (x (x) y)(x' (x) y') = xx' (x) yy' is associative with unit
    1 (x) 1 because both factors are, and it has degree deg x + deg x'
    since A lives in degree 0.  A stored product is the outer product of
    two nonzero vectors, so it has no zero entry.  G = G_Lambda (x) 1 union
    1 (x) G_A generates: for right words w in G_Lambda and v in G_A,
    (w (x) 1)(1 (x) v) = w (x) v is a right word in G, and the w (x) v span
    Lambda (x) A.  Only the declared idempotents e (x) g are checked.
    """

    def __init__(self, left, right):
        check_same_field(left.field, right.field)
        if not right.is_trivially_graded():
            raise ValueError("coefficient algebra must be trivially graded; see ungrade()")
        f = left.field
        self.left = left
        self.right = right
        nl, nr = left.dim, right.dim
        self.dim = nl * nr

        def idx(i, al):
            return i * nr + al

        self.idx = idx
        degrees = [left.degrees[i] for i in range(nl) for _ in range(nr)]
        # (x (x) y)(x' (x) y') = xx' (x) yy', nonzero iff both factors are
        mul = f.mul
        mult = []
        for lrow in left.mult:
            for rrow in right.mult:
                mult.append({idx(j, be): {idx(k, ga): mul(c1, c2)
                                          for k, c1 in cx.items() for ga, c2 in cy.items()}
                             for j, cx in lrow.items() for be, cy in rrow.items()})
        unit = self.pair_vec(left.unit, right.unit)
        idems = None
        if left.idempotents is not None and right.idempotents is not None:
            idems = [self.pair_vec(e, g) for e in left.idempotents
                     for g in right.idempotents]
        labels = None
        if left.labels and right.labels:
            labels = [f"{left.label_of(i)}(x){right.label_of(al)}"
                      for i in range(nl) for al in range(nr)]
        gens = [self.pair_vec(g, right.unit) for g in generating_vectors(left)]
        gens += [self.pair_vec(left.unit, g) for g in generating_vectors(right)]
        self.product = GradedAlgebra.proven(f, degrees, mult, unit, gens,
                                            idempotents=idems, labels=labels)
        # id(m) -> (m, i_star(m, self)); holding m keeps its id from being
        # reused while the memo lives, and since neither m nor its extension
        # refers back to the tensor, the memo is freed with the tensor
        self._extensions = {}

    def pair_vec(self, xvec, yvec):
        f = self.left.field
        out = {}
        for i, c1 in xvec.items():
            for al, c2 in yvec.items():
                out[self.idx(i, al)] = f.mul(c1, c2)
        return out


def i_star(m, tensor):
    """Extension of scalars: basis pairs (module basis, coefficient basis).

    The extension is memoised on the tensor, keyed by the identity of m:
    asking again for the same module returns the same module object, with
    whatever it has cached (its projective cover above all).  The result
    depends only on m and the tensor, and modules are never changed after
    construction, so the stored extension is the one a fresh call would
    build.
    """
    hit = tensor._extensions.get(id(m))
    if hit is not None:
        return hit[1]
    lam, a = tensor.left, tensor.right
    f = lam.field
    nr = a.dim

    def midx(r, al):
        return r * nr + al

    degrees = [m.degrees[r] for r in range(m.dim) for _ in range(nr)]
    cols = a._cache["cols"]  # the columns {i: b_i * b_j} of A's table
    action = []
    for i in range(lam.dim):
        for al in range(nr):
            mat = {}
            for r, base in m.action[i].items():
                for be, cy in cols[al].items():
                    mat[midx(r, be)] = {midx(s, ga): f.mul(c1, c2)
                                        for s, c1 in base.items() for ga, c2 in cy.items()}
            action.append(mat)
    ext = GradedModule(tensor.product, degrees, action)
    tensor._extensions[id(m)] = (m, ext)
    return ext


def base_change_hom_check(m, n, tensor):
    """{lhs_dim, rhs_dim, pass}: graded hom after base change vs. hom times dim A."""
    lhs = HomSpace(i_star(m, tensor), i_star(n, tensor)).dim
    rhs = HomSpace(m, n).dim * tensor.right.dim
    return {"lhs_dim": lhs, "rhs_dim": rhs, "pass": lhs == rhs}


def gamma_tensor(gamma, coefficient):
    """Gamma (x) A, for the Gamma algebra that the caller holds
    (`GammaData(lam).algebra`)."""
    if gamma.dim == 0 or coefficient.dim == 0:
        return zero_algebra(gamma.field)
    return TensorAlgebra(gamma, coefficient).product
