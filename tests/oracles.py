"""Independent brute-force oracles used to freeze expected values.

Everything in here is deliberately naive and self-contained: textbook dense
Gaussian elimination on lists, exhaustive enumerations over small prime
fields, and a commutant-style homomorphism solver that sets up the full
"degree-preserving and commutes with every action matrix" linear system.
None of it calls into qshape's sparse engine, so these functions stay valid
as oracles for it.  Two exceptions read qshape: `isomorphic_projectives`
reads its projective covers, whose summands are what an exact comparison
of graded projectives needs, and `submodule_by_express` keeps the earlier
construction of a submodule, by a tagged echelon of its basis, as the
reference for reading coordinates at pivots.
"""

from fractions import Fraction
from itertools import product


def naive_rref(rows):
    """Textbook reduced row echelon form on a dense list of Fraction rows."""
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, len(pivots), pivots


def naive_rref_mod(rows, p):
    """Textbook reduced row echelon form over GF(p), on lists of ints."""
    m = [[x % p for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, len(pivots), pivots


def naive_kernel(rows, ncols):
    """Right null space basis via naive_rref (over the rationals)."""
    red, rank, pivots = naive_rref(rows) if rows else ([], 0, [])
    basis = []
    piv_set = set(pivots)
    for free in range(ncols):
        if free in piv_set:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][free]
        basis.append(v)
    return basis


def gf_solutions(rows, ncols, p):
    """All solutions of A x = 0 over GF(p) by exhaustive enumeration."""
    sols = []
    for cand in product(range(p), repeat=ncols):
        if all(sum(row[j] * cand[j] for j in range(ncols)) % p == 0 for row in rows):
            sols.append(cand)
    return sols


def gf_span(vectors, p):
    """All elements of the span of integer vectors over GF(p), as a set."""
    if not vectors:
        return {()}
    n = len(vectors[0])
    out = set()
    for coeffs in product(range(p), repeat=len(vectors)):
        v = tuple(sum(c * vec[j] for c, vec in zip(coeffs, vectors)) % p for j in range(n))
        out.add(v)
    return out


def naive_hom_basis(module_m, module_n):
    """Degree-0 module maps M -> N by the full commutant linear system.

    Unknowns are all dim(M) x dim(N) matrix entries; equations force
    degree preservation (entries between unequal degrees are zero) and
    commutation with the right action of *every* algebra basis element.
    Returns a list of dense matrices (list of list of Fraction-compatible
    scalars).  Only used on small modules over QQ.
    """
    a = module_m.algebra
    f = a.field
    dm, dn = module_m.dim, module_n.dim
    nvars = dm * dn
    var = lambda r, s: r * dn + s

    rows = []
    # degree preservation
    for r in range(dm):
        for s in range(dn):
            if module_m.degrees[r] != module_n.degrees[s]:
                rows.append({var(r, s): f.one()})
    # commutation with every basis element: A^M_b F - F A^N_b = 0
    for b in range(a.dim):
        am = module_m.action[b]
        an = module_n.action[b]
        for r in range(dm):
            for s in range(dn):
                row = {}
                for m_idx, c in am[r].items():
                    row[var(m_idx, s)] = f.add(row.get(var(m_idx, s), f.zero()), c)
                for t in range(dn):
                    c = an[t].get(s)
                    if c is not None:
                        key = var(r, t)
                        row[key] = f.sub(row.get(key, f.zero()), c)
                row = {k: v for k, v in row.items() if not f.is_zero(v)}
                if row:
                    rows.append(row)

    # solve with naive dense elimination to stay independent of qshape.linalg
    dense = [[f.zero()] * nvars for _ in rows]
    for i, row in enumerate(rows):
        for j, c in row.items():
            dense[i][j] = c
    if f.char == 0:
        ker = naive_kernel(dense, nvars)
    else:
        ker = _gf_kernel_dense(dense, nvars, f.char)
    mats = []
    for v in ker:
        mats.append([[v[var(r, s)] for s in range(dn)] for r in range(dm)])
    return mats


def epi_kernel(field, epi_rows, ncols):
    """Kernel of an epi P -> M given by its rows (one per basis vector of P),
    as sparse vectors: the transposed system, one equation per coordinate of
    M in one unknown per basis vector of P, solved by dense elimination."""
    cols = sorted({s for row in epi_rows for s in row})
    dense = [[row.get(s, 0) for row in epi_rows] for s in cols]
    if field.char == 0:
        ker = naive_kernel(dense, ncols)
    else:
        ker = _gf_kernel_dense(dense, ncols, field.char)
    return [{i: field.coerce(x) for i, x in enumerate(v) if x != 0} for v in ker]


def submodule_by_express(parent, vectors):
    """(degrees, action, inclusion rows) of the submodule spanned by
    homogeneous vectors: a reduced basis per degree, in degree order, and
    each image of a basis vector solved over that basis by a tagged echelon."""
    from qshape.linalg import Echelon, apply_row

    f = parent.algebra.field
    by_deg = {}
    for v in vectors:
        if v:
            by_deg.setdefault(parent.degrees[min(v)], []).append(v)
    basis = []
    for d in sorted(by_deg):
        ech = Echelon(f)
        ech.extend(by_deg[d])
        basis.extend(ech.basis())
    coords = Echelon(f, tagged=True)
    coords.extend(basis)
    action = [[coords.express(apply_row(f, b, parent.action[bidx])) for b in basis]
              for bidx in range(parent.algebra.dim)]
    return [parent.degrees[min(b)] for b in basis], action, basis


def isomorphic_projectives(m, n):
    """Whether m and n are projective and isomorphic.

    Both must be projective, with the same multiset of cover summands
    e_i . Lambda(-d), read as (idempotent index, generator degree).  This is
    exact: a graded projective is the cover of its top, so it is determined
    up to isomorphism by that multiset.
    """
    from qshape.algebra import same_algebra
    from qshape.modules import cover_of, is_projective

    def summands(x):
        return sorted((s.idem_index, s.gen_degree) for s in cover_of(x).summands)

    return (same_algebra(m.algebra, n.algebra) and is_projective(m)
            and is_projective(n) and summands(m) == summands(n))


def _gf_kernel_dense(rows, ncols, p):
    """Dense kernel over GF(p) (textbook elimination, ints mod p)."""
    m = [[int(x) % p for x in row] for row in rows]
    nrows = len(m)
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c] % p != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] % p != 0:
                fct = m[i][c]
                m[i] = [(a - fct * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    basis = []
    piv_set = set(pivots)
    for free in range(ncols):
        if free in piv_set:
            continue
        v = [0] * ncols
        v[free] = 1
        for rr, pp in enumerate(pivots):
            v[pp] = (-m[rr][free]) % p
        basis.append(v)
    return basis


def interval_hom_dim(a, b, c, d):
    """dim Hom(M[a,b], M[c,d]) for interval representations of a linear
    A_m quiver with all arrow maps the identity.

    A nonzero map exists (and is then unique up to scalar) exactly when
    c <= a <= d <= b: naturality forces the map to be a fixed scalar on the
    overlap, zero outside it, and the boundary conditions at both ends of
    the overlap are what the inequalities encode.
    """
    return 1 if c <= a <= d <= b else 0


def auslander_linear_dim(m):
    """Total dimension of End(sum of all intervals) over linear A_m."""
    intervals = [(a, b) for a in range(1, m + 1) for b in range(a, m + 1)]
    return sum(
        interval_hom_dim(a, b, c, d)
        for (a, b) in intervals
        for (c, d) in intervals
    )


def _naive_times(field, mult, v, w):
    out = {}
    for i, a in v.items():
        for j, b in w.items():
            for k, c in mult[i][j].items():
                out[k] = field.add(out.get(k, field.zero()), field.mul(field.mul(a, b), c))
    return {k: c for k, c in out.items() if not field.is_zero(c)}


def naive_failing_triples(field, mult):
    """Every basis triple (i, j, k) with (b_i b_j) b_k != b_i (b_j b_k)."""
    n = len(mult)
    basis = [{i: field.one()} for i in range(n)]
    times = lambda v, w: _naive_times(field, mult, v, w)
    return [
        (i, j, k)
        for i in range(n) for j in range(n) for k in range(n)
        if times(times(basis[i], basis[j]), basis[k]) != times(basis[i], times(basis[j], basis[k]))
    ]


def naive_check_algebra(field, mult, unit):
    """True when the structure constants define a unital associative algebra.

    Checks both unit laws on every basis vector and associativity on all
    n^3 basis triples, multiplying out with plain dict arithmetic.
    """
    basis = [{i: field.one()} for i in range(len(mult))]
    times = lambda v, w: _naive_times(field, mult, v, w)
    if any(times(unit, b) != b or times(b, unit) != b for b in basis):
        return False
    return not naive_failing_triples(field, mult)


def _naive_rank(field, vecs, n):
    """Rank of sparse vectors of length n, by textbook dense elimination."""
    rows = [[v.get(i, field.zero()) for i in range(n)] for v in vecs]
    if not rows:
        return 0, []
    if field.char == 0:
        red, rank, _ = naive_rref(rows)
    else:
        red, rank, _ = naive_rref_mod(rows, field.char)
    return rank, [{i: x for i, x in enumerate(r) if x != 0} for r in red[:rank]]


def naive_radical_series(field, mult, basis):
    """Dims of the nonzero powers of the ideal spanned by basis, and its
    nilpotency index: each power is spanned by all products of a basis of
    the previous power with every vector of basis.  None if the powers
    stop shrinking before reaching 0."""
    n = len(mult)
    times = lambda v, w: _naive_times(field, mult, v, w)
    series = []
    rank, power = _naive_rank(field, basis, n)
    while rank:
        if series and rank == series[-1]:
            return None
        series.append(rank)
        rank, power = _naive_rank(field, [times(u, r) for u in power for r in basis], n)
    return series, len(series) + 1


def naive_cartan(field, mult, idempotents):
    """C[u][v] = dim e_u A e_v, spanned by e_u (b_m e_v) for every basis
    vector b_m, each product formed anew for every pair (u, v)."""
    n = len(mult)
    times = lambda v, w: _naive_times(field, mult, v, w)
    return tuple(
        tuple(
            _naive_rank(field, [times(eu, times({m: field.one()}, ev)) for m in range(n)], n)[0]
            for ev in idempotents
        )
        for eu in idempotents
    )
