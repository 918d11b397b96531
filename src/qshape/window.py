"""Finite windows of the category of shifted indecomposable projectives.

Objects are pairs (i, j) with i a 1-based idempotent index and j a shift in
[lo, hi].  A degree-0 map P_i(j) -> P_i'(j') is determined by the image of
the generator e_i, which lives in the bimodule slice e_i' . Lambda_{j'-j} . e_i,
and composition is multiplication in the algebra.  The window stores those
slices and their radical parts e_i' . R_{j'-j} . e_i, R the Jacobson
radical: the idempotent corners (`algebra.corners`) of the basis and of
the radical basis, split by degree.  It checks finiteness, local
boundedness, the identity-plus-radical splitting of endomorphism rings,
radical nilpotency, and Serre duality dimensions with a nondegenerate
composition pairing.

"Distinct objects" in the splitting property means distinct (i, j) labels;
over a basic algebra distinct labels give non-isomorphic objects, and the
whole hom slice between distinct objects lies in the radical.

Shifting every object by one is an automorphism of the category, so a hom
space, its radical part, a Serre slice and a pairing between P_i(j) and
P_i'(j') depend on the shift class (i, i', j' - j) only.  The checks run
once per class, with |j' - j| <= hi - lo, and the Serre image D(Lambda e_i)
is built once per vertex and shifted.
"""

from .algebra import corners, jacobson_radical, left_support, primitive_idempotents
from .errors import NotSelfInjective
from .linalg import Echelon
from .modules import (
    Submodule,
    _slice_basis,
    dual_of_regular,
    is_self_injective,
    projective,
    shift,
)


class QWindow:
    """Hom slices between shifted projectives over a finite shift range."""

    def __init__(self, a, lo, hi):
        if lo > hi:
            raise ValueError("window needs lo <= hi")
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
        return {
            f"({q[0]},{q[1]})->({qp[0]},{qp[1]})": self.hom_dim(q, qp)
            for q in self.objects
            for qp in self.objects
            if self.hom_dim(q, qp)
        }


def _by_shift_class(a, corner_bases):
    """{(s, t, d): the rows of degree d >= 0 of corner (t, s)}, with 1-based
    s and t, in pivot order: the slices e_t V_d e_s of the span V whose
    corners are given.  Each row is homogeneous (`corners`), so its degree
    is that of any entry.  The checks take maps never to lower the shift,
    as over a non-negative grading, so rows of negative degree are left
    out."""
    out = {}
    for t, row in enumerate(corner_bases):
        for s, rows in enumerate(row):
            for vec in rows:
                d = a.degrees[next(iter(vec))]
                if d >= 0:
                    out.setdefault((s + 1, t + 1, d), []).append(vec)
    return out


def serre_of_object(a, i, j):
    """Serre image of P_i(j): the left slice e_i of the dual of the algebra,
    shifted by j.  The left action on the dual is (b . f)(x) = f(x b).  The
    slice is built once per vertex and cached on the algebra."""
    idems = primitive_idempotents(a)
    if not 1 <= i <= len(idems):
        raise IndexError(f"idempotent index {i} out of range 1..{len(idems)}")
    key = ("serre", i)
    if key not in a._cache:
        if not is_self_injective(a):
            raise NotSelfInjective("the Serre construction needs a self-injective algebra")
        # the functional x -> coefficient of b_m in x e, one per m
        spans = {}
        e = idems[i - 1]
        for jj in left_support(a, e):
            for m, c in a.product(a.basis_vec(jj), e).items():
                spans.setdefault(m, {})[jj] = c
        a._cache[key] = Submodule(dual_of_regular(a), list(spans.values())).module
    return shift(a._cache[key], j)


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

    (1) hom spaces are finite dimensional (dims tabulated); (2) local
    boundedness: away from the window boundary, nonzero homs stay inside a
    shift band of width the top degree; (3) End(q) splits as the identity
    line plus the radical, and round trips through a distinct object land in
    the radical;
    (4) the window radical is nilpotent, reported with the algebra radical
    nilpotency; (5) dim hom(q, q') = dim hom(q', Sq) for the Serre image Sq,
    with the composition pairing into hom(q, Sq) nondegenerate on both
    sides.  Property (5) requires self-injectivity.

    Properties 2-5 run over the shift classes (i, i', d), |d| <= hi - lo,
    not over objects.  Shifting all objects by one is an automorphism, so
    every hom, radical part, Serre slice and pairing between P_i(j) and
    P_i'(j') depends on (i, i', j' - j) only; a class stands for the
    W - |d| object pairs of the window (W = hi - lo + 1) that realise it,
    which is how `pairs_checked` counts it.  Maps never lower the shift, so
    a composite between two window objects passes only through shifts
    between theirs, all inside the window: the window's radical powers are
    per class too.  Round trips through a distinct object live in degree 0.
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

    dims = w.dims_table()
    report["property_1"] = {
        "pass": True,
        "max_hom_dim": max(dims.values(), default=0),
        "nonzero_pairs": len(dims),
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

    # r^{k+1}(i, i'', d) = sum over i', d' of r^k(i', i'', d - d') o r(i, i', d')
    first = {(i, ip, d): rad(i, ip, d) for i in vertices for ip in vertices
             for d in range(min(ell, width) + 1)}
    current = first = {k: b for k, b in first.items() if b}
    alg_nilp = jacobson_radical(a).nilpotency
    limit = (width + 1) * max(alg_nilp, 1) + 2
    nilp = 1
    while current and nilp <= limit:
        nxt = {}
        for (i, ip, d1), xs in first.items():
            for ipp in vertices:
                for d2 in range(width - d1 + 1):
                    ys = current.get((ip, ipp, d2))
                    if ys:
                        tgt = nxt.setdefault((i, ipp, d1 + d2), Echelon(f))
                        for x in xs:
                            for y in ys:
                                tgt.insert(w.compose(x, y))
        current = {k: e.basis() for k, e in nxt.items() if e.dim}
        nilp += 1
    report["property_4"] = {
        "pass": not current,
        "window_radical_nilpotency": nilp,
        "algebra_radical_nilpotency": alg_nilp,
    }

    if serre_check:
        if not is_self_injective(a):
            raise NotSelfInjective("Serre check requested on a non-self-injective algebra")
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
