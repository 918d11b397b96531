"""Independent brute-force oracles used to freeze expected values.

Everything in here is deliberately naive and self-contained: textbook dense
Gaussian elimination on lists, exhaustive enumerations over small prime
fields, and a commutant-style homomorphism solver that sets up the full
"degree-preserving and commutes with every action matrix" linear system.
None of it calls into qshape's sparse engine, so these functions stay valid
as oracles for it.  The exceptions read qshape: `isomorphic_projectives`
reads its projective covers, whose summands are what an exact comparison
of graded projectives needs, `submodule_by_express` keeps the earlier
construction of a submodule, by a tagged echelon of its basis, as the
reference for reading coordinates at pivots, `pairwise_compile_quiver`
keeps the earlier quiver compiler, which spans the relation ideal pair of
paths by pair of paths, as the reference for the Gröbner-basis compiler,
`per_object_window_properties` keeps the earlier window check, which works
object pair by object pair, as the reference for the shift-class check,
and `all_pairs_dims_table` the earlier hom dims table, which looks up every
ordered pair of window objects,
`all_pairs_radical` and `all_pairs_center` keep the radical and center
loops that formed every pair of products, as the reference for the ones
that form only the pairs whose supports meet a stored product,
`end_algebra` and `_interval_modules` keep the earlier Auslander
reference, the endomorphism algebra of the sum of the interval modules
through the hom solver (`interval_auslander`), as the reference for the
one compiled from the mesh quiver, `compiled_upper_triangular` keeps the
earlier upper triangular reference, the path algebra of linear A_m
compiled from its quiver, as the oracle for the one written down from
matrix units, `dense_images` keeps the earlier
`HomSpace.images`, which walks every slice vector of every summand, as the
reference for the one that reads only a map's nonzero coordinates,
`MradCover` keeps the earlier projective cover, whose tops were chosen
against an echelon of all of M.rad, as the reference for the one that
decides them against its own epi echelon,
`vec_iadd_scaled`, `vec_scale` and `module_act` keep the sparse row
operations as one field op call per entry, as the reference for the
kernels `FieldSpec` binds per field and for the fused `GradedModule.act`,
the generic shifts, truncations, restrictions and direct sums that built
T, T' and a cover's P before `projective_sum` keep their earlier
construction as its reference, and the module references at the end
(module and map checks, the maps of a direct sum, duals over the opposite
algebra, socles, general quotients and tops, injective envelopes,
cosyzygies and restriction of scalars) are built
from qshape's modules and covers, the envelopes as the second route the
stable tests check syzygies against, the quotients and tops as the
reference for qshape's truncations and simples, `factoring_by_matrices`
solves hom into the whole cover and composes matrices, as the reference
for the stable hom's factoring through the summands a source reaches,
`nonprojective_summands` decides by cover which vertex summands of the
tilting module are projective, as the reference for Gamma's degree rule,
and `negatively_graded_algebras` builds two small inputs with a negative
degree from their structure constants.  Matrices are as in
qshape: the dict {row index: nonzero row}, so a map is its nonzero rows
over the target's coordinates, keyed by source basis vector, and an
absent row is zero.
`brute_canonical_matrix` tries every permutation.
"""

from fractions import Fraction
from itertools import permutations, product


def vec_iadd_scaled(field, acc, w, c):
    """acc += c*w in place through the field's scalar ops; returns acc.

    New entries are appended in w's order, cancelled ones deleted."""
    if field.is_zero(c):
        return acc
    for i, x in w.items():
        y = acc.get(i)
        if y is None:
            acc[i] = field.mul(c, x)
            continue
        y = field.muladd(y, c, x)
        if field.is_zero(y):
            del acc[i]
        else:
            acc[i] = y
    return acc


def vec_scale(field, vec, c):
    """c*vec as a fresh dict, through the field's scalar ops."""
    if field.is_zero(c):
        return {}
    return {i: field.mul(x, c) for i, x in vec.items()}


def module_act(m, vec, alg_vec):
    """vec . (algebra element) in module m: vec is sent through the action
    matrix of each basis element b, and that image is added times c_b."""
    f = m.algebra.field
    out = {}
    for b, c in alg_vec.items():
        img = {}
        for r, x in vec.items():
            vec_iadd_scaled(f, img, m.action[b].get(r, {}), x)
        vec_iadd_scaled(f, out, img, c)
    return out


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
                for m_idx, c in am.get(r, {}).items():
                    row[var(m_idx, s)] = f.add(row.get(var(m_idx, s), f.zero()), c)
                for t in range(dn):
                    c = an.get(t, {}).get(s)
                    if c is not None:
                        key = var(r, t)
                        row[key] = f.add(row.get(key, f.zero()), f.neg(c))
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
    """Kernel of an epi P -> M given by its nonzero rows (keyed by basis
    vector of P, ncols of them), as sparse vectors: the transposed system,
    one equation per coordinate of M in one unknown per basis vector of P,
    solved by dense elimination."""
    cols = sorted({s for row in epi_rows.values() for s in row})
    dense = [[epi_rows.get(r, {}).get(s, 0) for r in range(ncols)] for s in cols]
    if field.char == 0:
        ker = naive_kernel(dense, ncols)
    else:
        ker = _gf_kernel_dense(dense, ncols, field.char)
    return [{i: field.coerce(x) for i, x in enumerate(v) if x != 0} for v in ker]


def submodule_by_express(parent, vectors):
    """(degrees, action, inclusion rows) of the submodule spanned by
    homogeneous vectors: a reduced basis per degree, in degree order, and
    each image of a basis vector solved over that basis by a tagged echelon,
    the zero images left out of the action."""
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
    action = []
    for bidx in range(parent.algebra.dim):
        mat = {}
        for j, b in enumerate(basis):
            x = coords.express(apply_row(f, b, parent.action[bidx]))
            if x != {}:
                mat[j] = x
        action.append(mat)
    return [parent.degrees[min(b)] for b in basis], action, dict(enumerate(basis))


def uncached_slice_basis(m, i, d):
    """The reduced basis of (M_d).e_i, solved afresh on every call: each
    degree-d basis vector of M acted on by the i-th idempotent, eliminated."""
    from qshape.algebra import primitive_idempotents
    from qshape.linalg import span_basis

    f = m.algebra.field
    e = primitive_idempotents(m.algebra)[i - 1]
    return span_basis(f, [m.act({r: f.one()}, e) for r in m.component_indices(d)])


class MradCover:
    """The projective cover as it was built before its tops were decided
    against the epi's own echelon: the generators are the vectors of the
    slices (M_d).e_i, each eliminated afresh, that enlarge an echelon of all
    of M.rad (`radical_submodule_span`) plus the generators before them; the
    epi rows are then eliminated in P's order in one tagged echelon, whose
    relations are the kernel and whose pivot tags are the section."""

    def __init__(self, m):
        from qshape.algebra import primitive_idempotents
        from qshape.linalg import Echelon
        from qshape.modules import CoverSummand

        a = m.algebra
        f = a.field
        span = Echelon(f)
        span.extend(radical_submodule_span(m))
        self.generators, self.summands = [], []
        for d in sorted(set(m.degrees)):
            for i in range(1, len(primitive_idempotents(a)) + 1):
                for gen in uncached_slice_basis(m, i, d):
                    if span.insert(gen):
                        self.generators.append(gen)
                        self.summands.append(CoverSummand(a, i, d))
        self.epi_rows = {}
        rank_ech = Echelon(f, tagged=True)
        images = (m.act(gen, u) for s, gen in zip(self.summands, self.generators)
                  for u in s.inclusion_rows.values())
        for r, row in enumerate(images):
            if row:
                self.epi_rows[r] = row
            rank_ech.insert(row)
        if rank_ech.dim != m.dim:
            raise ValueError("cover candidate is not surjective")
        self.kernel_rows = rank_ech.relations
        self.section_rows = {i: rank_ech.tags[i] for i in range(m.dim)}


def cover_fields(cov):
    """What two covers of one module must agree on: the generators, the
    summands as (idempotent, generator degree), the epi, kernel and
    section rows."""
    return (cov.generators, [(s.idem_index, s.gen_degree) for s in cov.summands],
            cov.epi_rows, cov.kernel_rows, cov.section_rows)


def dense_images(hom, coords):
    """Generator images of the map with these slice coordinates, walking
    every slice vector of every summand of `hom` in order; the nonzero
    ones, keyed by summand index."""
    f = hom.source.algebra.field
    images = {}
    for t, basis in enumerate(hom.slices):
        x = {}
        for sidx, bvec in enumerate(basis):
            c = coords.get(hom.offsets[t] + sidx)
            if c is not None:
                vec_iadd_scaled(f, x, bvec, c)
        if x:
            images[t] = x
    return images


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
            for k, c in mult[i].get(j, {}).items():
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


def dense_validate(field, degrees, mult, unit, generators=None):
    """The ValueError message the structure-constant checks of
    `GradedAlgebra` raise for this table, or None if it passes them.

    The checks walk the dense table, every pair (i, j) and every triple
    (b_i, b_j, g) with g in the generating set G: the stored vectors must be
    nonempty with nonzero entries in degree deg i + deg j, the unit laws
    must hold, G (the declared generators, or else the basis vectors taken
    greedily in (degree, index) order) must generate under right
    multiplication, and (b_i b_j) g = b_i (b_j g) for every such triple,
    the first failure reported at the smallest (i, j) of the first failing
    generator.  The span of right words is found by dense elimination.
    Idempotents are not checked.
    """
    n = len(degrees)
    if len(mult) != n or not all(isinstance(row, dict) and set(row) <= set(range(n))
                                 for row in mult):
        return "structure constant table has wrong shape"
    if n == 0:
        return "zero algebra cannot have a nonzero unit" if unit else None
    table = [[row.get(j) for j in range(n)] for row in mult]
    for i in range(n):
        for j in range(n):
            w = table[i][j]
            if w is None:
                continue
            if not w:
                return "structure constants must omit zeros"
            for k, c in w.items():
                if field.is_zero(c):
                    return "structure constants must omit zeros"
                if degrees[k] != degrees[i] + degrees[j]:
                    return f"grading violated: b{i}*b{j} hits degree {degrees[k]}"
    times = lambda v, w: _naive_times(field, mult, v, w)
    basis = [{i: field.one()} for i in range(n)]
    if any(times(unit, b) != b or times(b, unit) != b for b in basis):
        return "unit laws fail"

    def right_words(gens):
        rank, span = _naive_rank(field, [unit], n)
        while True:
            grown, span = _naive_rank(field, span + [times(w, g) for w in span for g in gens], n)
            if grown == rank:
                return rank, span
            rank = grown

    if generators is not None:
        gens = generators
        rank, _ = right_words(gens)
        if rank != n:
            return f"declared generators span only {rank} of {n} dimensions"
    else:
        gens = []
        for i in sorted(range(n), key=lambda i: (degrees[i], i)):
            rank, span = right_words(gens)
            if rank == n:
                break
            if _naive_rank(field, span + [basis[i]], n)[0] > rank:
                gens.append(basis[i])
    for t, g in enumerate(gens):
        for i in range(n):
            for j in range(n):
                lhs = times(table[i][j] or {}, g)
                rhs = times(basis[i], times(basis[j], g))
                if lhs != rhs:
                    return f"associativity fails at (b{i}, b{j}, generator {t})"
    return None


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


def naive_radical_power_degrees(field, mult, degrees, basis):
    """The set of degrees of each nonzero power of the nilpotent ideal
    spanned by basis, the powers formed as in `naive_radical_series`.  A
    graded span has a nonzero part in degree d exactly when one of its
    vectors has an entry of degree d."""
    n = len(mult)
    times = lambda v, w: _naive_times(field, mult, v, w)
    out = []
    rank, power = _naive_rank(field, basis, n)
    while rank and len(out) <= n:
        out.append({degrees[k] for v in power for k in v})
        rank, power = _naive_rank(field, [times(u, r) for u in power for r in basis], n)
    return out


def naive_corners(field, mult, idempotents, vectors):
    """C[u][v] = the reduced echelon rows of span{e_u (x e_v) : x in
    vectors}, each product formed anew for every pair (u, v) and reduced
    by textbook dense elimination."""
    n = len(mult)
    times = lambda v, w: _naive_times(field, mult, v, w)
    return [[_naive_rank(field, [times(eu, times(x, ev)) for x in vectors], n)[1]
             for ev in idempotents]
            for eu in idempotents]


def naive_cartan(field, mult, idempotents):
    """C[u][v] = dim e_u A e_v, spanned by e_u (b_m e_v) for every basis
    vector b_m."""
    basis = [{m: field.one()} for m in range(len(mult))]
    return tuple(tuple(len(rows) for rows in row)
                 for row in naive_corners(field, mult, idempotents, basis))


def all_pairs_radical(a):
    """(basis, V, series dims) of the radical as `jacobson_radical` found
    them before it formed only the products that supports allow: the ideal
    check forms g*r and r*g for every generator g and radical basis vector
    r, R^2 is spanned by all dim(R)^2 products, and W_{j+1} by every
    product of a basis vector of W_j with a vector of V.  The candidate is
    the span of the radical hint, or else the trace form kernel."""
    from qshape.algebra import _trace_form_radical, generating_vectors
    from qshape.errors import VerificationFailed
    from qshape.linalg import Echelon, span_basis

    f = a.field
    if a.radical_hint is not None:
        basis = span_basis(f, a.radical_hint)
    else:
        basis = _trace_form_radical(a)
    ech = Echelon(f)
    ech.extend(basis)
    for g in generating_vectors(a):
        for r in basis:
            if not ech.contains(a.product(g, r)) or not ech.contains(a.product(r, g)):
                raise VerificationFailed("radical candidate is not an ideal")
    span = Echelon(f)
    for u in basis:
        for r in basis:
            span.insert(a.product(u, r))
    gens = [r for r in basis if span.insert(r)]
    words, layer = [], gens
    while layer:
        words.append(layer)
        layer = span_basis(f, [a.product(u, v) for u in layer for v in gens])
    series, total = [], Echelon(f)
    for layer in reversed(words):
        total.extend(layer)
        series.append(total.dim)
    return basis, gens, series[::-1]


def all_pairs_center(a):
    """Basis of the center as `center_basis` found it before it skipped
    the commutators that vanish by support: for every generator g, the
    images b_m g - g b_m of all dim basis vectors."""
    from qshape.algebra import generating_vectors
    from qshape.linalg import span_basis, sparse_kernel

    f = a.field
    rows = []
    for g in generating_vectors(a):
        by_k = {}
        for m in range(a.dim):
            bm = a.basis_vec(m)
            d = vec_iadd_scaled(f, a.product(bm, g), a.product(g, bm), f.neg(f.one()))
            for k, c in d.items():
                by_k.setdefault(k, {})[m] = c
        rows.extend(by_k.values())
    return span_basis(f, sparse_kernel(f, rows, a.dim))


def pairwise_compile_quiver(pres, field):
    """The all-pairs quiver compiler that `qshape.algebra.compile_quiver`
    replaced, kept verbatim as its reference.

    The ideal is spanned pair by pair: every relation r times every path p
    ending at its source and every path q starting at its target, words
    longer than L = nilpotency_bound dropped, each product p*r*q inserted
    into an Echelon.  Basis order, verification and outputs are those of
    the compiler it replaced.
    """
    from qshape.algebra import GradedAlgebra
    from qshape.errors import VerificationFailed
    from qshape.linalg import Echelon, span_basis

    L = pres.nilpotency_bound
    arrows = pres.arrows
    arr_idx = {a[0]: i for i, a in enumerate(arrows)}
    by_source = {}
    for i, (name, src, tgt, deg) in enumerate(arrows):
        by_source.setdefault(src, []).append(i)

    # enumerate paths of length <= L; a path is (source_vertex, arrow index
    # tuple in application order)
    paths = [(v, ()) for v in pres.vertices]
    frontier = list(paths)
    for _ in range(L):
        nxt = []
        for src, word in frontier:
            end = arrows[word[-1]][2] if word else src
            for ai in by_source.get(end, []):
                nxt.append((src, word + (ai,)))
        paths.extend(nxt)
        frontier = nxt

    def path_len(p):
        return len(p[1])

    def path_target(p):
        return arrows[p[1][-1]][2] if p[1] else p[0]

    def path_degree(p):
        return sum(arrows[ai][3] for ai in p[1])

    # longer paths get smaller indices so elimination pivots prefer them and
    # the surviving basis stays on short paths
    order = sorted(paths, key=lambda p: (-path_len(p), p[0], p[1]))
    index = {p: i for i, p in enumerate(order)}

    by_target = {}
    by_source_map = {}
    for p in paths:
        by_target.setdefault(path_target(p), []).append(p)
        by_source_map.setdefault(p[0], []).append(p)

    ideal = Echelon(field)
    for rel in pres.relations:
        terms = []
        for coeff, word in rel:
            app = tuple(arr_idx[n] for n in reversed(tuple(word)))
            terms.append((field.coerce(coeff), app))
        src, tgt, _ = pres._word_data(tuple(rel[0][1]))
        min_len = min(len(app) for _, app in terms)
        for p in by_target.get(src, []):
            if path_len(p) + min_len > L:
                continue
            for q in by_source_map.get(tgt, []):
                if path_len(p) + min_len + path_len(q) > L:
                    continue
                vec = {}
                for coeff, app in terms:
                    word = p[1] + app + q[1]
                    if len(word) > L:
                        continue  # truncated away; see docstring
                    vec_iadd_scaled(field, vec, {index[(p[0], word)]: field.one()}, coeff)
                if vec:
                    ideal.insert(vec)

    # verification: every path of length exactly L lies in the ideal span
    for p in paths:
        if path_len(p) == L and ideal.reduce({index[p]: field.one()}):
            raise VerificationFailed(
                f"path of length {L} survives reduction; nilpotency_bound too small"
            )

    pivots = set(ideal.rows)
    basis_paths = [p for p in order if path_len(p) < L and index[p] not in pivots]
    basis_paths.sort(key=lambda p: (path_len(p), p[0], p[1]))
    loc = {index[p]: i for i, p in enumerate(basis_paths)}

    def reduce_to_coords(vec):
        out = {}
        for gi, c in ideal.reduce(vec).items():
            out[loc[gi]] = c
        return out

    def class_of_path(p):
        if path_len(p) >= L:
            return {}
        return reduce_to_coords({index[p]: field.one()})

    mult = [{} for _ in basis_paths]
    for i, pi in enumerate(basis_paths):
        for j, pj in enumerate(basis_paths):
            # b_i * b_j is "pj then pi": concat pj's word with pi's word
            if path_target(pj) != (pi[0]):
                continue
            word = pj[1] + pi[1]
            if len(word) >= L:
                continue
            prod = reduce_to_coords({index[(pj[0], word)]: field.one()})
            if prod:
                mult[i][j] = prod

    degrees = [path_degree(p) for p in basis_paths]

    def fmt(p):
        if not p[1]:
            return f"e_{p[0]}"
        return "*".join(arrows[ai][0] for ai in reversed(p[1]))

    labels = [fmt(p) for p in basis_paths]
    trivial = {p[0]: i for i, p in enumerate(basis_paths) if not p[1]}
    idempotents = [{trivial[v]: field.one()} for v in pres.vertices]
    unit = {}
    for e in idempotents:
        vec_iadd_scaled(field, unit, e, field.one())

    gens = [dict(e) for e in idempotents]
    for ai, (name, src, tgt, deg) in enumerate(arrows):
        gens.append(reduce_to_coords({index[(src, (ai,))]: field.one()}))

    arrow_span = []
    for p in basis_paths:
        if path_len(p) >= 1:
            arrow_span.append(class_of_path(p))
    # classes of non-basis positive-length paths are combinations of these,
    # so the span above is the whole arrow ideal
    radical_hint = span_basis(field, arrow_span)

    return GradedAlgebra(field, degrees, mult, unit, idempotents=idempotents,
                         labels=labels, generators=gens, radical_hint=radical_hint)


# The window check before it was regrouped by shift class, kept verbatim as
# the reference for `qshape.window.check_window_properties`: it loops over
# pairs and triples of window objects and rebuilds the Serre image of every
# object.  Its helpers import qshape lazily, as the other readers above do.

def _per_shift_serre_of_object(a, i, j):
    """Serre image of P_i(j): the left slice e_i of the dual of the algebra,
    shifted by j.  The left action on the dual is (b . f)(x) = f(x b)."""
    from qshape.algebra import primitive_idempotents
    from qshape.errors import NotSelfInjective
    from qshape.modules import Submodule, dual_of_regular, is_self_injective

    if not is_self_injective(a):
        raise NotSelfInjective("Serre check requested on a non-self-injective algebra")
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


def _oracle_kernel_trivial(field, rows):
    from qshape.linalg import Echelon

    ech = Echelon(field)
    return all(ech.insert(dict(r)) for r in rows)


def per_object_window_properties(w, serre_check=True):
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
    from qshape.algebra import jacobson_radical
    from qshape.linalg import Echelon
    from qshape.modules import projective

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
        serre_ok = True
        pairs_checked = 0
        serre_dims_ok = True
        for q in w.objects:
            i, j = q
            sq = _per_shift_serre_of_object(a, i, j)
            if sq.dim != projective(a, i).dim:
                serre_dims_ok = False
            for qp in w.objects:
                ip, jp = qp
                lhs = w.hom_basis(q, qp)
                rhs = uncached_slice_basis(sq, ip, -jp)
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
                if not (_oracle_kernel_trivial(f, left_rows)
                        and _oracle_kernel_trivial(f, right_rows)):
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


# ---------------------------------------------------------------------------
# module references: equality, module and map checks, sums, duals, socles,
# quotients and tops, injective envelopes, cosyzygies and restriction of
# scalars, over qshape's modules
# ---------------------------------------------------------------------------

def all_pairs_dims_table(w):
    """The window's hom dims table as it was read before it kept to the
    shift classes with a slice: every ordered pair of objects is looked
    up, and the pairs with a nonzero hom are kept."""
    return {
        f"({q[0]},{q[1]})->({qp[0]},{qp[1]})": dim
        for q in w.objects
        for qp in w.objects
        if (dim := w.hom_dim(q, qp))
    }


def sparse_matmul(field, a_rows, b_rows):
    """Row-convention product: result row r = sum_m a[r][m] * b[m], an
    absent row of b being zero, and the zero rows of the result left out."""
    out = {}
    for r, row in a_rows.items():
        acc = {}
        for m, c in row.items():
            vec_iadd_scaled(field, acc, b_rows.get(m, {}), c)
        if acc:
            out[r] = acc
    return out


def check_matrix(field, mat, nrows, ncols, what):
    """Raise ValueError unless mat is a matrix of nrows x ncols as qshape
    stores one: a dict whose keys are row indices, with no empty row and no
    stored zero or out-of-range column."""
    if not isinstance(mat, dict):
        raise ValueError(f"{what} is not a dict of rows")
    for r, row in mat.items():
        if not (isinstance(r, int) and 0 <= r < nrows):
            raise ValueError(f"{what} has a row index out of range")
        if not row:
            raise ValueError(f"{what} stores an empty row")
        for s, c in row.items():
            if not (isinstance(s, int) and 0 <= s < ncols):
                raise ValueError(f"{what} has a column index out of range")
            if field.is_zero(c):
                raise ValueError(f"{what} stores a zero entry")


def module_equal(m, n):
    """Same algebra, same degrees and the same action matrices."""
    from qshape.algebra import same_algebra

    return (same_algebra(m.algebra, n.algebra) and m.degrees == n.degrees
            and m.action == n.action)


def validate_module(m):
    """Raise ValueError unless m is a graded right module: one action matrix
    per algebra basis element, stored as `check_matrix` asks, with degrees
    kept; the unit acting as the identity; and
    act(b_i * g) = act(b_i) act(g) for every basis element b_i and every g
    of a generating set, which with linearity extends to all products."""
    from qshape.algebra import generating_vectors

    a = m.algebra
    f = a.field
    if len(m.action) != a.dim:
        raise ValueError("need one action matrix per algebra basis element")
    for b in range(a.dim):
        mat = m.action[b]
        check_matrix(f, mat, m.dim, m.dim, "action matrix")
        for r, row in mat.items():
            for s in row:
                if m.degrees[s] != m.degrees[r] + a.degrees[b]:
                    raise ValueError("action violates the grading")
    if m.dim == 0 or a.dim == 0:
        return
    ident = {r: {r: f.one()} for r in range(m.dim)}
    if m.action_of(a.unit) != ident:
        raise ValueError("unit does not act as the identity")
    for g in generating_vectors(a):
        ag = m.action_of(g)
        for i in range(a.dim):
            prod = a.product(a.basis_vec(i), g)
            if m.action_of(prod) != sparse_matmul(f, m.action[i], ag):
                raise ValueError("action is not compatible with multiplication")


def validate_map(source, target, matrix):
    """Raise ValueError unless the row matrix is a degree-0 module map
    source -> target: stored as `check_matrix` asks, degrees kept, and
    commuting with the action of every generator of the algebra."""
    from qshape.algebra import generating_vectors, same_algebra

    if not same_algebra(source.algebra, target.algebra):
        raise ValueError("map between modules over different algebras")
    f = source.algebra.field
    check_matrix(f, matrix, source.dim, target.dim, "map matrix")
    for r, row in matrix.items():
        for s in row:
            if source.degrees[r] != target.degrees[s]:
                raise ValueError("map does not preserve degrees")
    for g in generating_vectors(source.algebra):
        lhs = sparse_matmul(f, source.action_of(g), matrix)
        rhs = sparse_matmul(f, matrix, target.action_of(g))
        if lhs != rhs:
            raise ValueError("map does not commute with the action")


# The generic module constructions that built T, T' and a cover's P before
# `qshape.modules.projective_sum` read every such sum off the data of the
# e_v Lambda in one pass, kept as its reference: a block is
# truncate_le(shift(projective(a, v), j), n), and the sum is direct_sum.

def zero_module(algebra):
    from qshape.modules import GradedModule

    return GradedModule(algebra, [], [{} for _ in range(algebra.dim)])


def restrict(m, keep):
    """The module on the basis vectors `keep` of m, in increasing index
    order: each action row is m's row with the dropped columns removed.

    This is the quotient of m by the span of the dropped basis vectors, so
    the caller must know that span to be a submodule; no closure is checked.
    """
    from qshape.modules import GradedModule

    pos = {k: r for r, k in enumerate(keep)}
    action = [{pos[k]: kept for k, row in mat.items() if k in pos
               if (kept := {pos[s]: c for s, c in row.items() if s in pos})}
              for mat in m.action]
    return GradedModule(m.algebra, [m.degrees[k] for k in keep], action)


def direct_sum(summands):
    """(module, offsets) of a finite direct sum: the block-diagonal module
    and the first coordinate of each summand in it.  The inclusion of a
    summand sends its row r to row offset + r of the sum, and the
    projection onto it reads those rows back."""
    from qshape.algebra import same_algebra
    from qshape.modules import GradedModule

    if not summands:
        raise ValueError("direct_sum needs at least one summand")
    a = summands[0].algebra
    for m in summands[1:]:
        if not same_algebra(a, m.algebra):
            raise ValueError("summands live over different algebras")
    offsets = []
    total = 0
    for m in summands:
        offsets.append(total)
        total += m.dim
    degrees = [d for m in summands for d in m.degrees]
    action = []
    for bidx in range(a.dim):
        mat = {}
        for m, off in zip(summands, offsets):
            for r, row in m.action[bidx].items():
                mat[off + r] = {off + s: c for s, c in row.items()}
        action.append(mat)
    return GradedModule(a, degrees, action), offsets


def shift(m, j):
    """Regrading: the new degree-d component is the old degree-(d+j) one."""
    from qshape.modules import GradedModule

    if j == 0:
        return m
    return GradedModule(m.algebra, [d - j for d in m.degrees], m.action)


def truncate_le(m, n):
    """The quotient by components in degrees > n: the restriction of m to
    its basis vectors of degree <= n, which are its coordinates in index
    order.  The action never lowers degrees, the grading being
    non-negative, so the dropped vectors span a submodule."""
    from qshape.errors import NotNonNegativelyGraded

    if not m.algebra.is_nonnegatively_graded():
        raise NotNonNegativelyGraded("truncation needs a non-negatively graded algebra")
    return restrict(m, [i for i in range(m.dim) if m.degrees[i] <= n])


def sum_maps(summands):
    """(module, inclusions, projections) of the direct sum of summands,
    with the maps taken from its offsets: the inclusion of a summand sends
    its row r to row offset + r, and the projection reads those rows
    back and sends every other row to zero."""
    total, offsets = direct_sum(summands)
    one = total.algebra.field.one()
    inclusions, projections = [], []
    for m, off in zip(summands, offsets):
        inclusions.append({r: {off + r: one} for r in range(m.dim)})
        projections.append({off + r: {r: one} for r in range(m.dim)})
    return total, inclusions, projections


def map_rank(field, rows):
    """Rank of a row matrix."""
    from qshape.linalg import span_basis

    return len(span_basis(field, rows.values()))


def opposite(a):
    """The opposite algebra (multiplication reversed), memoized both ways."""
    from qshape.algebra import GradedAlgebra

    if "opposite" not in a._cache:
        mult = [{} for _ in a.mult]
        for i, row in enumerate(a.mult):
            for j, w in row.items():
                mult[j][i] = w
        rad = a._radical.basis if a._radical is not None else a.radical_hint
        op = GradedAlgebra(a.field, a.degrees, mult, a.unit, idempotents=a.idempotents,
                           labels=a.labels, generators=a.generators, radical_hint=rad)
        a._cache["opposite"] = op
        op._cache["opposite"] = a
    return a._cache["opposite"]


def _transpose(rows):
    out = {}
    for r, row in rows.items():
        for s, c in row.items():
            out.setdefault(s, {})[r] = c
    return out


def dual_module(m):
    """The k-dual as a right module over the opposite algebra; degrees negate."""
    from qshape.modules import GradedModule

    return GradedModule(opposite(m.algebra), [-d for d in m.degrees],
                        [_transpose(mat) for mat in m.action])


def dual_map(rows, target):
    """Dual of the map with these rows into target: the transposed matrix,
    from dual_module(target) to the dual of the source."""
    return _transpose(rows)


def socle(m):
    """(S, inclusion rows): the annihilator of the radical inside M."""
    from qshape.algebra import jacobson_radical
    from qshape.linalg import sparse_kernel
    from qshape.modules import Submodule

    rows = []
    for r in jacobson_radical(m.algebra).basis:
        # columns of the action matrix of r: one equation per target coordinate
        cols = {}
        for mm, row in m.action_of(r).items():
            for s, c in row.items():
                cols.setdefault(s, {})[mm] = c
        rows.extend(cols[s] for s in sorted(cols))
    sub = Submodule(m, sparse_kernel(m.algebra.field, rows, m.dim))
    return sub.module, sub.basis


def injective_envelope(m):
    """(I, mono rows) with I minimal injective over a self-injective algebra.

    I is the dual of the projective cover of the dual module over the
    opposite algebra; minimality is certified by the socle lying inside the
    image.
    """
    from qshape.errors import NotSelfInjective
    from qshape.linalg import Echelon
    from qshape.modules import cover_of, is_self_injective

    a = m.algebra
    if not is_self_injective(a):
        raise NotSelfInjective("injective envelopes need a self-injective algebra")
    f = a.field
    md = dual_module(m)
    cov = cover_of(md)
    # dual(M dual) -> dual(P); its source equals m in coordinates
    env = dual_module(cov.module)
    mono = dual_map(cov.epi_rows, md)
    if map_rank(f, mono) != m.dim:
        raise ValueError("envelope embedding is not injective")
    img = Echelon(f)
    img.extend(mono.values())
    for row in socle(env)[1].values():
        if not img.contains(row):
            raise ValueError("envelope is not minimal (socle escapes the image)")
    return env, mono


class QuotientModule:
    """Parent modulo a homogeneous span closed under the action (checked);
    `project` takes a parent vector to its class in quotient coordinates.
    The reference for qshape's truncations, interval modules and simples."""

    def __init__(self, parent, vectors):
        from qshape.algebra import generating_vectors
        from qshape.linalg import Echelon, apply_row
        from qshape.modules import GradedModule

        f = parent.algebra.field
        self.ech = Echelon(f)
        for v in vectors:
            if v:
                degs = {parent.degrees[i] for i in v}
                if len(degs) != 1:
                    raise ValueError("quotient span vectors must be homogeneous")
            self.ech.insert(v)
        # closed under a generating set means closed under its right words,
        # which span the algebra
        for g in generating_vectors(parent.algebra):
            for b in self.ech.basis():
                if self.ech.reduce(parent.act(b, g)):
                    raise ValueError("span is not closed under the action")
        pivots = set(self.ech.rows)
        self.kept = [i for i in range(parent.dim) if i not in pivots]
        self.pos = {g: i for i, g in enumerate(self.kept)}
        degrees = [parent.degrees[g] for g in self.kept]
        action = []
        for bidx in range(parent.algebra.dim):
            mat = {}
            for r, g in enumerate(self.kept):
                row = self.project(apply_row(f, {g: f.one()}, parent.action[bidx]))
                if row:
                    mat[r] = row
            action.append(mat)
        self.module = GradedModule(parent.algebra, degrees, action)

    def project(self, vec):
        red = self.ech.reduce(vec)
        return {self.pos[g]: c for g, c in red.items()}


def radical_submodule_span(m):
    """Spanning vectors of M . rad(algebra), from the radical's generators V.

    R is spanned by words in V and M.(v_1...v_j) lies in M.v_j, so
    M.R = sum over v in V of M.v.
    """
    from qshape.algebra import jacobson_radical

    return [row for r in jacobson_radical(m.algebra).gens for row in m.action_of(r).values()]


def top(m):
    """The semisimple quotient M / M.rad."""
    return QuotientModule(m, radical_submodule_span(m)).module


def cosyzygy_of(m):
    """Cokernel of the minimal injective envelope, cached on m."""
    if "cosyzygy" not in m._cache:
        env, mono = injective_envelope(m)
        m._cache["cosyzygy"] = QuotientModule(env, mono.values()).module
    return m._cache["cosyzygy"]


def factoring_by_matrices(m, n):
    """Reference factoring subspace: build every map of hom(m, P), for P
    the sum of every summand of the cover of n, as a matrix, compose with
    the cover epi P -> n and express the product.  Returns dim hom(m, n)
    and the reduced basis of the coefficients, over its basis_coords, of
    the maps that factor."""
    from qshape.linalg import Echelon
    from qshape.modules import HomSpace, cover_of

    hom = HomSpace(m, n)
    f = m.algebra.field
    cov = cover_of(n)
    ech = Echelon(f)
    if not n.is_zero() and not m.is_zero():
        lifted = HomSpace(m, cov.module)
        for h in lifted.basis_coords:
            c = hom.basis_coeffs(hom.coords_of_matrix(
                sparse_matmul(f, lifted.map_of(lifted.images(h)), cov.epi_rows)))
            assert c is not None
            ech.insert(c)
    return hom.dim, ech.basis()


def negatively_graded_algebras(field):
    """k[x]/x^3 with x in degree -1, built from its structure constants, and
    the path algebra of 1 -> 2 -> 3 with arrows in degrees -1 and 1."""
    from qshape.algebra import GradedAlgebra

    one = field.one()
    mult = [{j: {i + j: one} for j in range(3 - i)} for i in range(3)]
    local = GradedAlgebra(field, [0, -1, -2], mult, {0: one}, idempotents=[{0: one}])
    # basis e1, e2, e3, a, b, ab; paths compose left to right
    products = {(0, 0): 0, (1, 1): 1, (2, 2): 2, (0, 3): 3, (3, 1): 3, (1, 4): 4,
                (4, 2): 4, (3, 4): 5, (0, 5): 5, (5, 2): 5}
    mult = [{} for _ in range(6)]
    for (i, j), k in products.items():
        mult[i][j] = {k: one}
    path = GradedAlgebra(field, [0, 0, 0, -1, 1, 0], mult, {0: one, 1: one, 2: one},
                         idempotents=[{0: one}, {1: one}, {2: one}])
    return [local, path]


def i_lower(mp, tensor):
    """Restriction along b -> b (x) 1: same space, action of the left factor."""
    from qshape.modules import GradedModule

    lam = tensor.left
    action = [mp.action_of(tensor.pair_vec(lam.basis_vec(b), tensor.right.unit))
              for b in range(lam.dim)]
    return GradedModule(lam, mp.degrees, action)


def compiled_upper_triangular(m, field):
    """The path algebra of linear A_m, 1 -> 2 -> ... -> m, compiled from
    its quiver: the earlier upper triangular reference, as the oracle for
    the one written down from matrix units.  A path from s to t lies in
    e_t Lambda e_s, so it is isomorphic to T_m(k) with the vertex order
    reversed."""
    from qshape.algebra import QuiverPresentation, compile_quiver, zero_algebra

    if m == 0:
        return zero_algebra(field)
    vertices = [str(i) for i in range(1, m + 1)]
    arrows = [(f"a{i}", str(i), str(i + 1), 0) for i in range(1, m)]
    return compile_quiver(QuiverPresentation(vertices, arrows, [], m), field)


def _interval_modules(a, m):
    """All indecomposables of the linear A_m path algebra, as quotients of
    the projectives: for c <= i, drop from e_i.Lambda the paths that the
    right action of some e_j with j < c keeps (those starting at vertex j).
    In the path basis a path times e_j is the path itself or 0, so the
    rows of e_j are unit vectors or absent; e_j.Lambda.e_k is 0 for k > j,
    so the dropped paths span a submodule."""
    from qshape.modules import projective

    out = []
    for i in range(1, m + 1):
        p = projective(a, i)
        for c in range(1, i + 1):
            dropped = {r for j in range(1, c) for r in p.action_of(a.idempotents[j - 1])}
            out.append(restrict(p, [r for r in range(p.dim) if r not in dropped]))
    return out


def end_algebra(m, idempotent_maps=None):
    """Plain (non-stable) endomorphism algebra of a module.

    Products come from composition_table, which skips the pairs of basis
    maps whose composite is zero by support (see there).  When given, the
    classes of idempotent_maps (matrices of endomorphisms of m) are declared
    as its primitive idempotents."""
    from qshape.algebra import GradedAlgebra, zero_algebra
    from qshape.modules import HomSpace, composition_table

    f = m.algebra.field
    if m.is_zero():
        return zero_algebra(f)
    hom = HomSpace(m, m)
    dim = hom.dim
    images = [hom.images(c) for c in hom.basis_coords]
    mult = composition_table(f, images, [hom.map_of(x) for x in images],
                             lambda composed: hom.basis_coeffs(hom.coords_of_images(composed)))
    identity = {r: {r: f.one()} for r in range(m.dim)}
    unit = hom.basis_coeffs(hom.coords_of_matrix(identity))
    idems = None
    if idempotent_maps is not None:
        idems = [hom.basis_coeffs(hom.coords_of_matrix(p)) for p in idempotent_maps]
    return GradedAlgebra(f, [0] * dim, mult, unit, idempotents=idems)


def nonprojective_summands(a):
    """(pairs, module, offsets): the pairs (i, v), 0 <= i < top degree,
    in (i, v) order, whose vertex summand (e_v Lambda(i))_{<=0} of the
    tilting module is not projective, decided by its cover, and the direct
    sum of those summands with the offset of each."""
    from qshape.algebra import sup_degree
    from qshape.modules import is_projective, projective

    pairs, summands = [], []
    for i in range(sup_degree(a)):
        for v in range(1, len(a.idempotents) + 1):
            m = truncate_le(shift(projective(a, v), i), 0)
            if not is_projective(m):
                pairs.append((i, v))
                summands.append(m)
    return (pairs, *direct_sum(summands))


def interval_auslander(m, field):
    """Endomorphism algebra of the sum of all interval modules over linear
    A_m, through the hom solver: the earlier Auslander reference, against
    which the mesh-quiver one is checked.

    Each interval module is indecomposable with End = k, so the projectors
    onto the summands are its primitive idempotents; the projector onto a
    summand is the identity on its rows of the sum and zero elsewhere."""
    a = compiled_upper_triangular(m, field)
    intervals = _interval_modules(a, m)
    total, offsets = direct_sum(intervals)
    projectors = []
    for interval, off in zip(intervals, offsets):
        projectors.append({r: {r: field.one()} for r in range(off, off + interval.dim)})
    return end_algebra(total, projectors)


def brute_canonical_matrix(mat):
    """Lexicographic minimum over all simultaneous row/column permutations."""
    n = len(mat)
    return min(tuple(tuple(mat[p[r]][p[c]] for c in range(n)) for r in range(n))
               for p in permutations(range(n)))
