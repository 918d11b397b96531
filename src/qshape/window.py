"""Finite windows of the category of shifted indecomposable projectives.

Objects are pairs (i, j) with i a 1-based idempotent index and j a shift in
[lo, hi].  A degree-0 map P_i(j) -> P_i'(j') is determined by the image of
the generator e_i, which lives in the bimodule slice e_i' . Lambda_{j'-j} . e_i,
and composition is multiplication in the algebra.  The window stores those
slices and their radical parts (slices of the Jacobson radical) and checks
finiteness, local boundedness, the identity-plus-radical splitting of
endomorphism rings, radical nilpotency, and Serre duality dimensions with a
nondegenerate composition pairing.

"Distinct objects" in the splitting property means distinct (i, j) labels;
over a basic algebra distinct labels give non-isomorphic objects, and the
whole hom slice between distinct objects lies in the radical.
"""

from .algebra import jacobson_radical, primitive_idempotents
from .errors import NotSelfInjective
from .linalg import Echelon, span_basis
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

        f = a.field
        rad_ech = Echelon(f)
        rad_ech.extend(jacobson_radical(a).basis)

        self._slice = {}
        self._rad_slice = {}
        for d in range(0, self.max_degree + 1):
            for src in range(1, self.n + 1):
                for tgt in range(1, self.n + 1):
                    vecs = []
                    for m in a.component_indices(d):
                        v = a.product(self.idempotents[tgt - 1],
                                      a.product(a.basis_vec(m), self.idempotents[src - 1]))
                        if v:
                            vecs.append(v)
                    basis = span_basis(f, vecs)
                    self._slice[(src, tgt, d)] = basis
                    self._rad_slice[(src, tgt, d)] = [v for v in basis if rad_ech.contains(v)]
        self._modules = {}

    def hom_basis(self, q, qp):
        """Basis of maps q -> qp, as generator images inside the algebra."""
        (i, j), (ip, jp) = q, qp
        d = jp - j
        if d < 0 or d > self.max_degree:
            return []
        return self._slice[(i, ip, d)]

    def radical_basis(self, q, qp):
        """The radical part of hom(q, qp).

        Between distinct labels everything is radical (positive degree, or a
        degree-0 slice of the Jacobson radical over a basic algebra); on an
        endomorphism ring it is the degree-0 radical slice.
        """
        (i, j), (ip, jp) = q, qp
        d = jp - j
        if d < 0 or d > self.max_degree:
            return []
        if q != qp and d > 0:
            return self._slice[(i, ip, d)]
        return self._rad_slice[(i, ip, 0)]

    def hom_dim(self, q, qp):
        return len(self.hom_basis(q, qp))

    def compose(self, x, y):
        """Composite of f = x: q -> q' with g = y: q' -> q'' is the product y x."""
        return self.algebra.product(y, x)

    def identity_of(self, q):
        return dict(self.idempotents[q[0] - 1])

    def module_of(self, q):
        if q not in self._modules:
            self._modules[q] = shift(projective(self.algebra, q[0]), q[1])
        return self._modules[q]

    def dims_table(self):
        return {
            f"({q[0]},{q[1]})->({qp[0]},{qp[1]})": self.hom_dim(q, qp)
            for q in self.objects
            for qp in self.objects
            if self.hom_dim(q, qp)
        }


def build_window(a, lo, hi):
    return QWindow(a, lo, hi)


def serre_of_object(a, i, j):
    """Serre image of P_i(j): the left slice e_i of the dual of the algebra,
    shifted by j.  The left action on the dual is (b . f)(x) = f(x b)."""
    if not is_self_injective(a):
        raise NotSelfInjective("the Serre construction needs a self-injective algebra")
    idems = primitive_idempotents(a)
    e = idems[i - 1]
    lam_star = dual_of_regular(a)
    spans = []
    for m in range(a.dim):
        row = {}
        for jj in range(a.dim):
            c = a.product(a.basis_vec(jj), e).get(m)
            if c is not None:
                row[jj] = c
        if row:
            spans.append(row)
    sub = Submodule(lam_star, spans)
    return shift(sub.module, j)


def _kernel_trivial(field, rows):
    ech = Echelon(field)
    return all(ech.insert(dict(r)) for r in rows)


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
    """
    a = w.algebra
    f = a.field
    ell = w.max_degree
    report = {"window": [w.lo, w.hi], "objects": len(w.objects)}

    dims = w.dims_table()
    report["property_1"] = {
        "pass": True,
        "max_hom_dim": max(dims.values(), default=0),
        "nonzero_pairs": len(dims),
    }

    band_ok = True
    worst = 0
    for (i, j) in w.objects:
        if j < w.lo + ell or j > w.hi - ell:
            continue
        for (ip, jp) in w.objects:
            if w.hom_dim((i, j), (ip, jp)) or w.hom_dim((ip, jp), (i, j)):
                worst = max(worst, abs(jp - j))
                if abs(jp - j) > ell:
                    band_ok = False
    report["property_2"] = {"pass": band_ok, "band_width_bound": ell,
                            "max_band_seen": worst}

    split_ok = True
    for q in w.objects:
        basis = w.hom_basis(q, q)
        radb = w.radical_basis(q, q)
        ident = w.identity_of(q)
        ech = Echelon(f)
        ech.extend(radb)
        if ech.contains(ident):
            split_ok = False
            break
        ech.insert(ident)
        if ech.dim != len(basis):
            split_ok = False
            break
    round_ok = True
    for q in w.objects:
        rad_ech = Echelon(f)
        rad_ech.extend(w.radical_basis(q, q))
        for qp in w.objects:
            if qp == q:
                continue
            for x in w.hom_basis(q, qp):
                for y in w.hom_basis(qp, q):
                    if not rad_ech.contains(w.compose(x, y)):
                        round_ok = False
    report["property_3"] = {"pass": split_ok and round_ok,
                            "identity_splitting": split_ok,
                            "round_trips_in_radical": round_ok}

    # window radical powers: r^{k+1}(q, q'') = sum_{q'} r^k(q', q'') o r(q, q')
    current = {}
    for q in w.objects:
        for qp in w.objects:
            basis = w.radical_basis(q, qp)
            if basis:
                current[(q, qp)] = basis
    alg_nilp = jacobson_radical(a).nilpotency
    limit = (w.hi - w.lo + 1) * max(alg_nilp, 1) + 2
    nilp = 1
    while current and nilp <= limit:
        nxt = {}
        for q in w.objects:
            for qmid in w.objects:
                first = w.radical_basis(q, qmid)
                if not first:
                    continue
                for qpp in w.objects:
                    later = current.get((qmid, qpp))
                    if not later:
                        continue
                    tgt = nxt.setdefault((q, qpp), Echelon(f))
                    for x in first:
                        for y in later:
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
        serre_ok = True
        pairs_checked = 0
        serre_dims_ok = True
        for q in w.objects:
            i, j = q
            sq = serre_of_object(a, i, j)
            if sq.dim != projective(a, i).dim:
                serre_dims_ok = False
            for qp in w.objects:
                ip, jp = qp
                lhs = w.hom_basis(q, qp)
                rhs = _slice_basis(sq, w.idempotents[ip - 1], -jp)
                if len(lhs) != len(rhs):
                    serre_ok = False
                    continue
                if not lhs:
                    continue
                pairs_checked += 1
                # pairing value of (f = x, g = v) is g(x) = v . x inside Sq
                left_rows = []
                for x in lhs:
                    row = {}
                    for gi, v in enumerate(rhs):
                        for k, c in sq.act(v, x).items():
                            row[(gi, k)] = c
                    left_rows.append(row)
                right_rows = []
                for v in rhs:
                    row = {}
                    for fi, x in enumerate(lhs):
                        for k, c in sq.act(v, x).items():
                            row[(fi, k)] = c
                    right_rows.append(row)
                if not (_kernel_trivial(f, left_rows) and _kernel_trivial(f, right_rows)):
                    serre_ok = False
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
