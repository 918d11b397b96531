"""Finite windows of the category of shifted indecomposable projectives.

Objects are pairs (i, j) with i a 1-based idempotent index and j a shift in
[lo, hi], over a non-negatively graded algebra.  A degree-0 map
P_i(j) -> P_i'(j') is determined by the image of the generator e_i, which
lives in the bimodule slice e_i' . Lambda_{j'-j} . e_i, and composition is
multiplication in the algebra.  The window stores those slices and their
radical parts e_i' . R_{j'-j} . e_i, R the Jacobson radical: the
idempotent corners (`algebra.corners`) of the basis and of the radical
basis, split by degree.  It checks finiteness, local boundedness, the
identity-plus-radical splitting of endomorphism rings, radical
nilpotency, and Serre duality dimensions with a nondegenerate composition
pairing.

"Distinct objects" in the splitting property means distinct (i, j) labels;
over a basic algebra distinct labels give non-isomorphic objects, and the
whole hom slice between distinct objects lies in the radical.

Shifting every object by one is an automorphism of the category, so a hom
space, its radical part, a Serre slice and a pairing between P_i(j) and
P_i'(j') depend on the shift class (i, i', j' - j) only.  The checks run
once per class, with |j' - j| <= hi - lo, and the Serre image D(Lambda e_i)
is built once per vertex and shifted.  The window radical's powers are not
formed: its nilpotency is read off the radical layers of the algebra.
"""

from .algebra import corners, jacobson_radical, left_support, primitive_idempotents
from .errors import NotNonNegativelyGraded, NotSelfInjective
from .linalg import Echelon
from .modules import (
    GradedModule,
    Submodule,
    _slice_basis,
    dual_of_regular,
    is_self_injective,
    projective,
)


class QWindow:
    """Hom slices between shifted projectives over a finite shift range."""

    def __init__(self, a, lo, hi):
        if lo > hi:
            raise ValueError("window needs lo <= hi")
        if not a.is_nonnegatively_graded():
            raise NotNonNegativelyGraded("the window needs a non-negatively graded algebra")
        self.algebra = a
        self.lo = lo
        self.hi = hi
        self.idempotents = primitive_idempotents(a)
        self.n = len(self.idempotents)
        self.objects = [(i, j) for j in range(lo, hi + 1) for i in range(1, self.n + 1)]
        self.max_degree = max(a.degrees) if a.dim else 0

        # the Jacobson radical of a Z-graded ring is a graded ideal (Bergman,
        # On Jacobson radicals of graded rings, 1975), so its reduced basis
        # is homogeneous, and so are the rows of its corners
        basis = [a.basis_vec(m) for m in range(a.dim)]
        self._slice = _by_shift_class(a, corners(a, basis))
        self._rad_slice = _by_shift_class(a, corners(a, jacobson_radical(a).basis))

    def hom_basis(self, q, qp):
        """Basis of maps q -> qp, as generator images inside the algebra."""
        return self._slice.get((q[0], qp[0], qp[1] - q[1]), [])

    def radical_basis(self, q, qp):
        """The radical part of hom(q, qp): the slice e_i' R_d e_i of the
        Jacobson radical R.  Over a non-negative grading R holds every
        positive degree, so between distinct labels everything is radical
        (positive degree, or a degree-0 slice of R over a basic algebra)."""
        return self._rad_slice.get((q[0], qp[0], qp[1] - q[1]), [])

    def hom_dim(self, q, qp):
        return len(self.hom_basis(q, qp))

    def compose(self, x, y):
        """Composite of f = x: q -> q' with g = y: q' -> q'' is the product y x."""
        return self.algebra.product(y, x)

    def identity_of(self, q):
        return dict(self.idempotents[q[0] - 1])

    def dims_table(self):
        """{"(i,j)->(i',j')": dim hom} over the window's pairs with a
        nonzero hom.  A nonzero hom has a shift class (i, i', d) with a
        slice, and 0 <= d <= the top degree, so only the pairs that realise
        those classes are read, not every ordered pair of objects."""
        return {f"({s},{j})->({t},{j + d})": len(rows)
                for (s, t, d), rows in self._slice.items()
                for j in range(self.lo, self.hi - d + 1)}


def _by_shift_class(a, corner_bases):
    """{(s, t, d): the rows of degree d of corner (t, s)}, with 1-based s
    and t, in pivot order: the slices e_t V_d e_s of the span V whose
    corners are given.  Each row is homogeneous (`corners`), so its degree
    is that of any entry."""
    out = {}
    for t, row in enumerate(corner_bases):
        for s, rows in enumerate(row):
            for vec in rows:
                out.setdefault((s + 1, t + 1, a.degrees[next(iter(vec))]), []).append(vec)
    return out


def serre_of_object(a, i, j):
    """Serre image of P_i(j): the left slice e_i of the dual of the algebra,
    shifted by j.  The left action on the dual is (b . f)(x) = f(x b).  The
    slice's degrees and action are built once per vertex and cached on the
    algebra."""
    idems = primitive_idempotents(a)
    if not 1 <= i <= len(idems):
        raise IndexError(f"idempotent index {i} out of range 1..{len(idems)}")
    key = ("serre", i)
    if key not in a._cache:
        if not is_self_injective(a):
            raise NotSelfInjective("Serre check requested on a non-self-injective algebra")
        # the functional x -> coefficient of b_m in x e, one per m
        spans = {}
        e = idems[i - 1]
        for jj in left_support(a, e):
            for m, c in a.product(a.basis_vec(jj), e).items():
                spans.setdefault(m, {})[jj] = c
        s = Submodule(dual_of_regular(a), list(spans.values())).module
        a._cache[key] = (s.degrees, s.action)
    degrees, action = a._cache[key]
    return GradedModule(a, [d - j for d in degrees], action)


def _kernel_trivial(field, rows):
    ech = Echelon(field)
    return all(ech.insert(dict(r)) for r in rows)


def _pairing_nondegenerate(field, values):
    """values[x][v] is the pairing vector of the x-th left and the v-th right
    basis element; nondegenerate iff no nonzero combination on either side
    pairs to zero with everything."""
    left = [{(v, k): c for v, vec in enumerate(row) for k, c in vec.items()}
            for row in values]
    right = [{(x, k): c for x, row in enumerate(values) for k, c in row[v].items()}
             for v in range(len(values[0]))]
    return _kernel_trivial(field, left) and _kernel_trivial(field, right)


def check_window_properties(w, serre_check=True):
    """Report on the five structural properties of the windowed category.

    (1) hom spaces are finite dimensional, which holds for homs between
    finite-dimensional modules: the largest dimension and the number of
    object pairs with a nonzero hom are reported; (2) local boundedness:
    away from the window boundary, nonzero homs stay inside a shift band of
    width the top degree; (3) End(q) splits as the identity line plus the
    radical, and round trips through a distinct object land in the radical;
    (4) the window radical is nilpotent, reported with the algebra radical
    nilpotency; (5) dim hom(q, q') = dim hom(q', Sq) for the Serre image Sq,
    with the composition pairing into hom(q, Sq) nondegenerate on both
    sides.  Property (5) requires self-injectivity: `serre_of_object`
    raises NotSelfInjective otherwise.

    Properties 1-3 and 5 run over the shift classes (i, i', d),
    |d| <= hi - lo, not over objects.  Shifting all objects by one is an
    automorphism, so every hom, radical part, Serre slice and pairing
    between P_i(j) and P_i'(j') depends on (i, i', j' - j) only; a class
    stands for the W - |d| object pairs of the window (W = hi - lo + 1)
    that realise it, which is how `nonzero_pairs` and `pairs_checked` count
    it.  The algebra is non-negatively graded (`QWindow`), so maps never
    lower the shift and round trips through a distinct object live in
    degree 0.

    Property 4 is read off the layers W_j of `jacobson_radical`, with
    R^k = sum_{j>=k} W_j.  R is graded and no degree is negative, so
    (R^k)_d is spanned by products of k homogeneous radical elements whose
    degrees lie in [0, d].  For d <= hi - lo each such product is a
    composite of window radical maps through shifts inside the window, and
    summing over the intermediate vertices (sum e_i' = 1), the class
    (i, i'', d) of the k-th power of the window radical is the (i, i'')
    corner of (R^k)_d.  So the window radical nilpotency is 1 + the largest
    j such that W_j has a degree in [0, hi - lo] (1 if there is none), and
    it holds because `jacobson_radical` checks that R is nilpotent.
    """
    a = w.algebra
    f = a.field
    ell = w.max_degree
    width = w.hi - w.lo
    vertices = range(1, w.n + 1)
    report = {"window": [w.lo, w.hi], "objects": len(w.objects)}

    def hom(i, ip, d):
        return w.hom_basis((i, 0), (ip, d))

    def rad(i, ip, d):
        return w.radical_basis((i, 0), (ip, d))

    classes = [(d, dim) for i in vertices for ip in vertices for d in range(width + 1)
               if (dim := len(hom(i, ip, d)))]
    report["property_1"] = {
        "pass": True,
        "max_hom_dim": max((dim for _, dim in classes), default=0),
        "nonzero_pairs": sum(width + 1 - d for d, _ in classes),
    }

    # an object at least ell away from both ends sees every class |d| <= ell
    seen = [d for i in vertices for ip in vertices for d in range(ell + 1) if hom(i, ip, d)]
    worst = max(seen, default=0) if w.lo + ell <= w.hi - ell else 0
    report["property_2"] = {"pass": worst <= ell, "band_width_bound": ell,
                            "max_band_seen": worst}

    split_ok = round_ok = True
    for i in vertices:
        ech = Echelon(f)
        ech.extend(rad(i, i, 0))
        for ip in vertices:
            if ip != i:
                for x in hom(i, ip, 0):
                    for y in hom(ip, i, 0):
                        round_ok = round_ok and ech.contains(w.compose(x, y))
        split_ok = (split_ok and ech.insert(w.identity_of((i, 0)))
                    and ech.dim == len(hom(i, i, 0)))
    report["property_3"] = {"pass": split_ok and round_ok,
                            "identity_splitting": split_ok,
                            "round_trips_in_radical": round_ok}

    radical = jacobson_radical(a)
    report["property_4"] = {
        "pass": True,
        "window_radical_nilpotency": 1 + max(
            (j for j, degs in enumerate(radical.layer_degrees, 1) if min(degs) <= width),
            default=0),
        "algebra_radical_nilpotency": radical.nilpotency,
    }

    if serre_check:
        serre_ok = serre_dims_ok = True
        pairs_checked = 0
        for i in vertices:
            s = serre_of_object(a, i, 0)
            serre_dims_ok = serre_dims_ok and s.dim == projective(a, i).dim
            for ip in vertices:
                for d in range(-width, width + 1):
                    # hom(P_i(j), P_i'(j + d)) against component -d of S P_i
                    lhs = hom(i, ip, d)
                    rhs = _slice_basis(s, ip, -d)
                    if len(lhs) != len(rhs):
                        serre_ok = False
                    elif lhs:
                        pairs_checked += width + 1 - abs(d)
                        # pairing value of (f = x, g = v) is g(x) = v . x
                        values = [[s.act(v, x) for v in rhs] for x in lhs]
                        serre_ok = serre_ok and _pairing_nondegenerate(f, values)
        report["property_5"] = {
            "pass": serre_ok and serre_dims_ok,
            "pairs_checked": pairs_checked,
            "dimension_symmetry": serre_ok,
            "serre_object_dims": serre_dims_ok,
        }
    else:
        report["property_5"] = {"pass": None, "skipped": True}

    report["all_pass"] = all(
        report[f"property_{k}"]["pass"] for k in (1, 2, 3, 4)
    ) and report["property_5"]["pass"] is not False
    return report
