"""The canonical tilting module of the stable graded module category, its
stable endomorphism algebra, per-family reference algebras and
isomorphism-evidence fingerprints.

For a non-negatively graded self-injective algebra with a degree-0 part of
finite global dimension, the tilting module is the direct sum of the
degree-<=0 truncations of the shifted regular modules, one summand per
positive degree below the top.  No reference algebra goes through the hom
solver or the composition table that build Gamma: the upper triangular
algebra and the Auslander algebra of linear A_m are compiled from quivers
with relations (the latter from its Auslander-Reiten quiver with the mesh
relations), and the subcategory algebra multiplies graded slices of the
input.  Fingerprint agreement of the computed endomorphism algebra with a
reference is evidence for an isomorphism, not a proof: only invariants are
compared.
"""

from .algebra import (
    GradedAlgebra,
    QuiverPresentation,
    center_basis,
    compile_quiver,
    corners,
    degree_zero_part,
    global_dimension_bounded,
    jacobson_radical,
    primitive_idempotents,
    right_support,
    sup_degree,
    zero_algebra,
    EXCEEDS_BOUND,
)
from .errors import HypothesisViolated, NonSplitSemisimpleQuotient
from .modules import (
    direct_sum,
    is_self_injective,
    regular,
    shift,
    truncate_le,
    zero_module,
)
from .stable import StableEnd


DEFAULT_GLDIM_BOUND = 10
# the verdicts of `check_hypotheses` that must hold before T or Gamma is built
GATE = ("non_negative_grading", "self_injective", "finite_global_dimension")


def check_hypotheses(a, gldim_bound=DEFAULT_GLDIM_BOUND):
    """Verdicts for the three standing hypotheses on the input algebra."""
    nonneg = a.is_nonnegatively_graded()
    selfinj = is_self_injective(a) if nonneg else False
    gldim = global_dimension_bounded(degree_zero_part(a), gldim_bound)
    return {
        "non_negative_grading": nonneg,
        "self_injective": selfinj,
        "degree_zero_global_dimension": gldim,
        "finite_global_dimension": gldim != EXCEEDS_BOUND,
    }


def require_hypotheses(a, gldim_bound=DEFAULT_GLDIM_BOUND):
    """The verdicts of `check_hypotheses`; HypothesisViolated, carrying
    them, names the first key of GATE that fails."""
    verdicts = check_hypotheses(a, gldim_bound)
    for key in GATE:
        if not verdicts[key]:
            raise HypothesisViolated(key, verdicts)
    return verdicts


class TiltingData:
    """The direct sum T of the summands T_i = Lambda(i)_{<=0}, the offset of
    each summand's coordinates in T, and the verdicts of the gate that let
    T be built.  The summands are not kept beside T: T_i is read off T as
    its coordinates from offsets[i] up to the next offset (or T's end),
    which hold T_i's basis vectors and degrees in order."""

    def __init__(self, algebra, module, offsets, hypotheses):
        self.algebra = algebra
        self.module = module
        self.offsets = offsets
        self.hypotheses = hypotheses
        self.ell = len(offsets)

    def vertex_projectors(self):
        """(i, matrix) per summand i and vertex v: the endomorphism of the
        sum that is left multiplication by e_v on T_i and zero elsewhere.

        Left multiplication by e_v is a map of right modules that keeps
        degrees, so it passes to the truncation; it projects T_i onto the
        summand (e_v Lambda(i))_{<=0}.  By `truncate_le`, the coordinates
        of T_i are the basis vectors of degree <= i, in index order, and
        e_v b_k stays among them.  The nonzero products e_v b_k are formed
        once, for the k of `right_support`; the others are zero.
        """
        a = self.algebra
        left = []  # per e_v, {k: e_v b_k} over the nonzero products
        for e in primitive_idempotents(a):
            prods = {k: a.product(e, a.basis_vec(k)) for k in right_support(a, e)}
            left.append({k: p for k, p in prods.items() if p})
        out = []
        for i, off in enumerate(self.offsets):
            kept = [k for k in range(a.dim) if a.degrees[k] <= i]
            pos = {k: off + r for r, k in enumerate(kept)}
            for prods in left:
                out.append((i, {pos[k]: {pos[j]: c for j, c in prods[k].items()}
                                for k in kept if k in prods}))
        return out


def tilting_module(a, gldim_bound=DEFAULT_GLDIM_BOUND):
    """Direct sum of the degree-<=0 truncations of the first ell shifts.

    All three standing hypotheses are verified first, and their verdicts
    are kept as `hypotheses`; violations raise HypothesisViolated.  A top
    degree of zero yields the zero module.
    """
    verdicts = require_hypotheses(a, gldim_bound)
    ell = sup_degree(a) if a.dim else 0
    if ell < 1:
        return TiltingData(a, zero_module(a), [], verdicts)
    module, offsets = direct_sum([truncate_le(shift(regular(a), i), 0)
                                  for i in range(ell)])
    return TiltingData(a, module, offsets, verdicts)


class GammaData:
    """Stable endomorphism algebra of the tilting module, with block data.

    Gamma's primitive idempotents are known before Gamma is built: they are
    the nonzero stable classes of the vertex projectors.  The summand
    (e_v Lambda(i))_{<=0} is a quotient of an indecomposable projective, so
    it has a simple top and a local endomorphism ring; its projector's class
    is zero when the summand is projective and primitive otherwise.
    `block_idempotents[i]`, the class of the projector onto T_i, is the sum
    of the classes of its vertex projectors.  `hypotheses` are the verdicts
    of the gate that `tilting_module` runs.

    Not kept on the algebra: the caller holds Gamma and passes it to every
    later reader (base change, Gamma tensor A), so Gamma and T are freed
    when the caller drops them.
    """

    def __init__(self, a, gldim_bound=DEFAULT_GLDIM_BOUND):
        f = a.field
        self.tilting = tilting_module(a, gldim_bound)
        self.hypotheses = self.tilting.hypotheses
        projectors = self.tilting.vertex_projectors()
        self.stable_end = StableEnd(self.tilting.module, [p for _, p in projectors])
        self.algebra = self.stable_end.algebra
        self.block_idempotents = [{} for _ in range(self.tilting.ell)]
        for (i, _), e in zip(projectors, self.stable_end.idempotent_classes):
            f.axpy(self.block_idempotents[i], e, f.one())


# ---------------------------------------------------------------------------
# reference algebras
# ---------------------------------------------------------------------------

def reference_upper_triangular(m, field):
    """Upper triangular m x m matrices, as the linear A_m path algebra."""
    if m < 0:
        raise ValueError("size must be >= 0")
    if m == 0:
        return zero_algebra(field)
    vertices = [str(i) for i in range(1, m + 1)]
    arrows = [(f"a{i}", str(i), str(i + 1), 0) for i in range(1, m)]
    pres = QuiverPresentation(vertices, arrows, [], max(m, 1))
    return compile_quiver(pres, field)


def reference_auslander_linear(m, field):
    """Auslander algebra of linear A_m, compiled from its Auslander-Reiten
    quiver with the mesh relations (Auslander-Reiten-Smalo, ch. VII).

    The vertices are the intervals (i, j), 1 <= i <= j <= m, one per
    indecomposable module; the arrows (i, j) -> (i, j+1) and (i, j) ->
    (i+1, j) have degree 0.  For j < m the mesh from (i, j) to (i+1, j+1)
    makes its two paths equal; when i = j there is only one path, through
    (i, i+1), and it is zero.  A nonzero path from (i, j) ends at some
    (i', j') with i' <= j, so it has length at most m - i < m.  The bound
    is m, and as every relation has path length 2 the compiler's check
    that every path of length m is zero is exact.

    Which way the arrows point does not matter: duality makes the
    Auslander algebra of an algebra B^op the opposite of that of B, and
    kA_m is isomorphic to its opposite by reversing the vertex order, so
    the Auslander algebra of kA_m is isomorphic to its opposite.
    """
    if m < 1:
        raise ValueError("parameter must be >= 1")
    cells = [(i, j) for i in range(1, m + 1) for j in range(i, m + 1)]
    vertices = [f"{i},{j}" for i, j in cells]
    arrows = []
    for i, j in cells:
        if j < m:
            arrows.append((f"r{i},{j}", f"{i},{j}", f"{i},{j + 1}", 0))
        if i < j:
            arrows.append((f"d{i},{j}", f"{i},{j}", f"{i + 1},{j}", 0))
    relations = []
    for i, j in cells:
        if j == m:
            continue
        # words are written right-to-left
        through_right = (f"d{i},{j + 1}", f"r{i},{j}")
        if i == j:
            relations.append([(1, through_right)])
        else:
            relations.append([(1, through_right), (-1, (f"r{i + 1},{j}", f"d{i},{j}"))])
    pres = QuiverPresentation(vertices, arrows, relations, m)
    return compile_quiver(pres, field)


def reference_subcategory_algebra(a):
    """Convolution algebra on objects 0..ell-1 with morphisms the graded slices.

    Basis elements are triples (i, j, b) with 0 <= i <= j < ell and b a basis
    index of the degree-(j-i) component; products multiply matrix-style
    through the algebra.
    """
    f = a.field
    if not a.is_nonnegatively_graded():
        raise HypothesisViolated("non_negative_grading")
    ell = sup_degree(a)
    if ell < 1:
        raise ValueError("needs top degree >= 1")
    basis = []
    for i in range(ell):
        for j in range(i, ell):
            for b in a.component_indices(j - i):
                basis.append((i, j, b))
    index = {t: k for k, t in enumerate(basis)}
    n = len(basis)
    # (i, j, b) * (j, j2, b2) is (i, j2, b*b2), where b2 has degree j2 - j
    mult = []
    for i, j, b in basis:
        row = {}
        for b2, prod in a.mult[b].items():
            j2 = j + a.degrees[b2]
            if j2 < ell:
                row[index[(j, j2, b2)]] = {index[(i, j2, c)]: v for c, v in prod.items()}
        mult.append(row)
    unit = {}
    for i in range(ell):
        for c, v in a.unit.items():
            unit[index[(i, i, c)]] = v
    idems = []
    for i in range(ell):
        for e in primitive_idempotents(a):
            idems.append({index[(i, i, c)]: v for c, v in e.items()})
    labels = [f"E{i}{j}*{a.label_of(b)}" for (i, j, b) in basis]
    return GradedAlgebra(f, [0] * n, mult, unit, idempotents=idems, labels=labels)


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------

def cartan_matrix(a):
    """C[u][v] = dim e_u A e_v over the primitive idempotents."""
    basis = [a.basis_vec(m) for m in range(a.dim)]
    return tuple(tuple(len(b) for b in row) for row in corners(a, basis))


def canonical_matrix(mat):
    """Row-major lexicographic minimum of P mat P^T over permutations P.

    Positions 0, 1, ... are filled in turn.  A state is the prefix of
    vertices chosen so far and an ordered partition of the others.  The
    next position takes a vertex v of the first cell, and every cell then
    splits by mat[v][x], ascending: that is the only order of the later
    positions that can still give the least row for v, and it fixes the row
    exactly, since every later cell is constant in the row of every chosen
    vertex.  Keeping the states with the least row at each position keeps
    every prefix of a minimum, so the result is exact.  Two kinds of
    candidate are skipped, both because an automorphism of mat that fixes
    the state maps the skipped choice onto one already made: a twin of a
    vertex tried in the same cell (their swap is the automorphism), and a
    vertex of an untouched connected component of the support graph unless
    that component is the first untouched one of its isomorphism class
    (swapping the two components is).  The classes are the canonical forms
    of the components, found by recursion.
    """
    n = len(mat)
    comp, comps = [None] * n, []  # support graph components, by least vertex
    for s in range(n):
        if comp[s] is None:
            comp[s], stack, members = len(comps), [s], []
            while stack:
                x = stack.pop()
                members.append(x)
                for y in range(n):
                    if comp[y] is None and (mat[x][y] or mat[y][x]):
                        comp[y] = comp[s]
                        stack.append(y)
            comps.append(sorted(members))
    kinds = [None] if len(comps) == 1 else [
        canonical_matrix([[mat[r][c] for c in k] for r in k]) for k in comps]

    def swappable(u, v):
        return mat[u][u] == mat[v][v] and mat[u][v] == mat[v][u] and all(
            mat[u][x] == mat[v][x] and mat[x][u] == mat[x][v]
            for x in range(n) if x != u and x != v)

    twin = [next(u for u in range(v + 1) if u == v or swappable(u, v)) for v in range(n)]
    states, rows = [((), [list(range(n))])], []
    for _ in range(n):
        least, kept = None, []
        for prefix, cells in states:
            touched = {comp[p] for p in prefix}
            first = {}
            for c, kind in enumerate(kinds):
                if c not in touched:
                    first.setdefault(kind, c)
            allowed = touched.union(first.values())
            tried = set()
            for v in cells[0]:
                if comp[v] not in allowed or twin[v] in tried:
                    continue
                tried.add(twin[v])
                split = []
                for cell in [[x for x in cells[0] if x != v]] + cells[1:]:
                    parts = {}
                    for x in cell:
                        parts.setdefault(mat[v][x], []).append(x)
                    split += [parts[val] for val in sorted(parts)]
                chosen = prefix + (v,)
                row = (tuple(mat[v][p] for p in chosen)
                       + tuple(mat[v][c[0]] for c in split for _ in c))
                if least is None or row < least:
                    least, kept = row, []
                if row == least:
                    kept.append((chosen, split))
        states = kept
        rows.append(least)
    return tuple(rows)


class AlgebraFingerprint:
    """Deterministic isomorphism-evidence invariants of an algebra."""

    FIELDS = (
        "dim",
        "radical_series",
        "nilpotency",
        "center_dim",
        "num_simples",
        "block_dims",
        "commutative",
        "cartan",
    )

    def __init__(self, dim, radical_series, nilpotency, center_dim, num_simples,
                 block_dims, commutative, cartan):
        self.dim = dim
        self.radical_series = radical_series
        self.nilpotency = nilpotency
        self.center_dim = center_dim
        self.num_simples = num_simples
        self.block_dims = block_dims
        self.commutative = commutative
        self.cartan = cartan

    def as_dict(self):
        d = {k: getattr(self, k) for k in self.FIELDS}
        d["cartan"] = [list(r) for r in d["cartan"]] if d["cartan"] is not None else None
        return d


def _simples(a, rad):
    """(num_simples, block_dims, cartan) from the declared idempotents.

    With C[u][v] = dim e_u A e_v and R[u][v] = dim e_u rad e_v, both read
    off `corners`, the difference is dim e_u (A/rad) e_v.  e_u is primitive
    with a split top exactly when that is 1 for v = u; otherwise
    NonSplitSemisimpleQuotient is raised.  For such idempotents the simple tops of e_u A and e_v A are
    isomorphic exactly when the difference is nonzero, and a class of s
    isomorphic simples is one s x s matrix block of A/rad.
    """
    cartan = cartan_matrix(a)
    radical = corners(a, rad.basis)
    tops = [[c - len(r) for c, r in zip(crow, rrow)] for crow, rrow in zip(cartan, radical)]
    if any(row[u] != 1 for u, row in enumerate(tops)):
        raise NonSplitSemisimpleQuotient("a declared idempotent is not primitive with a split top")
    sizes = {}
    for row in tops:
        first = next(v for v, d in enumerate(row) if d)
        sizes[first] = sizes.get(first, 0) + 1
    return len(tops), sorted(s * s for s in sizes.values()), canonical_matrix(cartan)


def fingerprint(a):
    """Invariants of a; num_simples, block_dims and cartan come from the
    declared primitive idempotents and are None when a declares none or
    they fail the primitivity test, so they never decide a comparison."""
    rad = jacobson_radical(a)
    num_simples = blocks = cartan = None
    if a.idempotents is not None:
        try:
            num_simples, blocks, cartan = _simples(a, rad)
        except NonSplitSemisimpleQuotient:
            pass
    return AlgebraFingerprint(
        dim=a.dim,
        radical_series=list(rad.series_dims),
        nilpotency=rad.nilpotency,
        center_dim=len(center_basis(a)) if a.dim else 0,
        num_simples=num_simples,
        block_dims=blocks,
        commutative=a.is_commutative(),
        cartan=cartan,
    )


class CompareVerdict:
    def __init__(self, status, mismatch_field=None):
        self.status = status  # "match" | "mismatch" | "inconclusive"
        self.mismatch_field = mismatch_field

    def __repr__(self):
        if self.status == "mismatch":
            return f"mismatch({self.mismatch_field})"
        return self.status

    def as_dict(self):
        return {"status": self.status, "mismatch_field": self.mismatch_field}


def compare(a, b):
    """Invariant-by-invariant comparison; never asserts isomorphism.

    mismatch(field) on the first disagreeing invariant; inconclusive when a
    skippable invariant (Cartan data, block data) is unavailable on either
    side and everything else agrees.
    """
    fa = a if isinstance(a, AlgebraFingerprint) else fingerprint(a)
    fb = b if isinstance(b, AlgebraFingerprint) else fingerprint(b)
    skipped = False
    for field in AlgebraFingerprint.FIELDS:
        va, vb = getattr(fa, field), getattr(fb, field)
        if va is None or vb is None:
            skipped = True
            continue
        if va != vb:
            return CompareVerdict("mismatch", field)
    return CompareVerdict("inconclusive" if skipped else "match")
