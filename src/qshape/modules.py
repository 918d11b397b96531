"""Finite-dimensional graded right modules over structure-constant algebras.

A module stores one sparse action matrix per algebra basis element, in the
row convention: (m . b) has coordinate row  m_row @ action[b].  A module
map is its row matrix in the same convention, the nonzero rows over the
target's coordinates keyed by source basis vector.  Every matrix is the
dict of its nonzero rows, as `linalg` defines matrices, so a module or a
map costs its nonzero rows and not its dimension.
All constructions (submodules, restrictions, sums, shifts, truncations,
simples, covers) produce explicit bases with homogeneous coordinates, so
equality of submodules and membership tests are canonical.  The one
quotient is `restrict`, by a span of basis vectors that the caller knows
to be a submodule: a truncation drops the degrees above a bound.  A simple
is read off the characters of Lambda/rad, which the declared idempotents
span when the algebra is basic.

A cover P -> M keeps its epi as `epi_rows`, the nonzero images in M of the
basis vectors of P, and eliminates the images once, in a tagged echelon: the rank
certifies surjectivity, and the tags of the rows that reduce to zero are a
basis of the kernel.  At full rank every coordinate of M is a pivot whose
reduced row is a unit vector, so the tag of pivot i is a preimage of the
i-th basis vector: the tags are the section, read off with no solve.
The top of a minimal cover is M/M.rad (Auslander-Reiten-Smalo, ch. I.4),
and it is decided against that same echelon, degree by degree: a slice
vector of degree d is a generator when it lies outside the span of the
images of the generators before it plus M.rad, and its images go into
the echelon at once.  Over a non-negatively graded algebra the images of
the generators of degree < d span all of M below d (graded Nakayama), so
for a radical generator v of positive degree (M.v)_d = M_{d - deg v}.v
is already in the echelon; only the rows M.v of the generators of degree
<= 0 are spanned beside it (none for the exterior and truncated
polynomial algebras; every generator when the algebra has a negative
degree).  Minimality, that the kernel lies in P.rad, is then checked
rather than implied: a kernel row reaches the top of a summand e_i.Lambda
only in the summand's generator degree, where its block must have
character chi_i = 0.  ProjectiveCover and Submodule describe how the
sum P of the cover summands and a submodule are built and kept; a syzygy
is the Submodule that the kernel rows span in P.

An algebra caches data and never a module: its product columns (the
regular module's action), the basis, degrees and action of each
e_i.Lambda, the actions of the simples and of D(Lambda), the top
characters and the self-injectivity verdict.  A module refers to its
algebra, so a cached module would make a cycle that only the collector
frees; each constructor wraps the data in a new module instead.

Hom spaces are solved through projective presentations: a degree-0 map out
of M is a choice of images for the generators of M (one slice of N per
cover summand) that kills the kernel of the cover.  Each slice (N_d).e_i
is solved once per module N and cached on it.  Every hom sets up its
presentation when it is built; one whose slices are all zero (as when M
and N share no degree) has no unknowns and builds no system.
Maps stay in these generator coordinates: composing with another map only
needs the images of the generators, and a map's matrix is built only when
a caller asks for it.  A map's generator images are the dict {summand
index: nonzero image}, as a matrix is the dict of its nonzero rows, so a
composite costs the summands its first map reaches and not the cover.
The module and map checks, the brute-force commutant solver, general
quotients, tops, duals, socles and injective envelopes live in the test
suite as independent references.
"""

from functools import cached_property

from .algebra import (
    jacobson_radical,
    primitive_idempotents,
    same_algebra,
)
from .errors import NotNonNegativelyGraded
from .linalg import (
    Echelon,
    apply_row,
    read_coords,
    sparse_kernel,
    span_basis,
)


class GradedModule:
    """A graded right module: basis degrees plus one action matrix per
    algebra basis element."""

    def __init__(self, algebra, degrees, action):
        self.algebra = algebra
        self.degrees = list(degrees)
        self.dim = len(self.degrees)
        self.action = action  # list (over algebra basis) of row-matrices
        self._cache = {}

    def act(self, vec, alg_vec):
        """vec . (algebra element), both as sparse coordinate vectors: the
        sum of (c_b x_m) . action[b][m] over the stored rows."""
        f = self.algebra.field
        axpy, mul = f.axpy, f.mul
        out = {}
        for b, c in alg_vec.items():
            mat = self.action[b]
            for m, x in vec.items():
                row = mat.get(m)
                if row is not None:
                    axpy(out, row, mul(c, x))
        return out

    def action_of(self, alg_vec):
        """Row-matrix of the right action of an algebra element."""
        axpy = self.algebra.field.axpy
        rows = {}
        for b, c in alg_vec.items():
            for r, row in self.action[b].items():
                axpy(rows.setdefault(r, {}), row, c)
        return {r: row for r, row in rows.items() if row}

    def component_indices(self, d):
        """Indices of the basis vectors of degree d, read from an index of
        the degrees built on first use; callers must not change the list."""
        index = self._cache.get("by_degree")
        if index is None:
            index = self._cache["by_degree"] = {}
            for i, deg in enumerate(self.degrees):
                index.setdefault(deg, []).append(i)
        return index.get(d, [])

    def is_zero(self):
        return self.dim == 0

    def __repr__(self):
        return f"GradedModule(dim={self.dim}, degrees={sorted(set(self.degrees))})"


def zero_module(algebra):
    return GradedModule(algebra, [], [{} for _ in range(algebra.dim)])


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def regular(a):
    """The algebra acting on itself on the right: row i of the matrix of b_j
    is b_i * b_j, so the matrix of b_j is the column {i: b_i * b_j} of the
    nonzero products, which the algebra keeps; each call wraps them in a
    new module, and no code changes a module's action after construction."""
    return GradedModule(a, a.degrees, a._cache["cols"])


class Submodule:
    """A span of homogeneous vectors, as a module plus its basis rows.

    Its basis is the span's reduced echelon basis, by degree, then pivot;
    rows of different degrees have disjoint supports, so a span vector has
    its coordinate on a row at that row's pivot.  `basis` holds those rows
    in parent coordinates, keyed by position: it is the matrix of the
    inclusion.

    Closure is checked by support: the image of a basis row b under the
    basis element k reads only the rows of action[k] at supp(b), so it is
    formed only for the k that `row_index` lists at some coordinate of
    supp(b).  Every other image is the zero vector, which lies in the span,
    and has no row in the action.
    """

    def __init__(self, parent, vectors):
        f = parent.algebra.field
        ech = Echelon(f)
        for v in vectors:
            if v and len({parent.degrees[i] for i in v}) != 1:
                raise ValueError("submodule spanning vectors must be homogeneous")
            ech.insert(v)
        pivots = sorted(ech.rows, key=lambda p: (parent.degrees[p], p))
        self.basis = {j: ech.rows[p] for j, p in enumerate(pivots)}
        pos = {p: j for j, p in enumerate(pivots)}
        live = row_index(parent.action)
        action = [{} for _ in range(parent.algebra.dim)]
        for j, b in self.basis.items():
            for k in {k for r in b for k in live.get(r, ())}:
                img = apply_row(f, b, parent.action[k])
                if ech.reduce(img):
                    raise ValueError("span is not closed under the action")
                if img:
                    action[k][j] = {pos[p]: c for p, c in img.items() if p in pos}
        degrees = [parent.degrees[p] for p in pivots]
        self.module = GradedModule(parent.algebra, degrees, action)


def row_index(matrices):
    """{r: the indices j, ascending, of the matrices with a row r}."""
    live = {}
    for j, mat in enumerate(matrices):
        for r in mat:
            live.setdefault(r, []).append(j)
    return live


def restrict(m, keep):
    """The module on the basis vectors `keep` of m, in increasing index
    order: each action row is m's row with the dropped columns removed.

    This is the quotient of m by the span of the dropped basis vectors, so
    the caller must know that span to be a submodule; no closure is checked.
    """
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
    if j == 0:
        return m
    return GradedModule(m.algebra, [d - j for d in m.degrees], m.action)


def truncate_le(m, n):
    """The quotient by components in degrees > n: the restriction of m to
    its basis vectors of degree <= n, which are its coordinates in index
    order.  The action never lowers degrees, the grading being
    non-negative, so the dropped vectors span a submodule."""
    if not m.algebra.is_nonnegatively_graded():
        raise NotNonNegativelyGraded("truncation needs a non-negatively graded algebra")
    return restrict(m, [i for i in range(m.dim) if m.degrees[i] <= n])


def projective(a, i):
    """The i-th indecomposable projective e_i . Lambda (i is 1-based)."""
    _, degrees, action = _projective_data(a, i)
    return GradedModule(a, degrees, action)


def _projective_data(a, i):
    """(basis, degrees, action) of the Submodule e_i . Lambda of the regular
    module, closure checked, cached on the algebra; `basis` holds its rows
    in algebra coordinates, keyed by position."""
    key = ("projective", i)
    if key not in a._cache:
        idems = primitive_idempotents(a)
        if not 1 <= i <= len(idems):
            raise IndexError(f"idempotent index {i} out of range 1..{len(idems)}")
        reg = regular(a)
        sub = Submodule(reg, [reg.act(idems[i - 1], a.basis_vec(j)) for j in range(a.dim)])
        a._cache[key] = (sub.basis, sub.module.degrees, sub.module.action)
    return a._cache[key]


def simple(a, i):
    """The i-th graded simple S_i, in degree 0 (i is 1-based).

    When the declared idempotents span Lambda/rad, every b is
    sum_v chi_v(b).e_v modulo rad, and b acts on the one basis vector of
    S_i by chi_i(b).  The characters come from one echelon of the radical
    and a tagged echelon of the idempotents reduced modulo it, and the
    actions of all the simples are built at once and cached on the algebra.
    The idempotents lie in degree 0 and rad is a graded ideal, so chi
    vanishes off degree 0.
    Raises ValueError when the idempotents do not span Lambda/rad, which is
    when the algebra is not basic or its simples do not split.
    """
    idems = primitive_idempotents(a)
    if not 1 <= i <= len(idems):
        raise IndexError(f"idempotent index {i} out of range 1..{len(idems)}")
    if "simples" not in a._cache:
        rad = Echelon(a.field)
        rad.extend(jacobson_radical(a).basis)
        tops = Echelon(a.field, tagged=True)
        for e in idems:
            tops.insert(rad.reduce(e))
        if rad.dim + tops.dim != a.dim:
            raise ValueError("the declared idempotents do not span Lambda/rad")
        actions = [[{} for _ in range(a.dim)] for _ in idems]
        for k in range(a.dim):
            for v, c in tops.express(rad.reduce(a.basis_vec(k))).items():
                actions[v][k] = {0: {0: c}}
        a._cache["simples"] = actions
    return GradedModule(a, [0], a._cache["simples"][i - 1])


def _slice_basis(m, i, d):
    """Basis of (M_d) . e_i, the degree-d part of M acted on by the i-th
    idempotent (i is 1-based): its reduced echelon basis, solved once and
    cached on m.  A degree that M lacks gives [] with nothing solved."""
    key = ("slice", i, d)
    if key not in m._cache:
        rows = m.component_indices(d)
        if not rows:
            return []
        f = m.algebra.field
        e = primitive_idempotents(m.algebra)[i - 1]
        m._cache[key] = span_basis(f, [m.act({r: f.one()}, e) for r in rows])
    return m._cache[key]


# ---------------------------------------------------------------------------
# projective covers and presentations
# ---------------------------------------------------------------------------

class CoverSummand:
    """One summand e_i . Lambda(-d) of a cover, with its generator in degree d
    and its top degree d + max deg(e_i.Lambda)."""

    def __init__(self, a, idem_index, gen_degree):
        self.idem_index = idem_index
        self.gen_degree = gen_degree
        # the basis of e_i.Lambda in algebra coordinates, keyed by position
        self.inclusion_rows, degrees, action = _projective_data(a, idem_index)
        self.module = GradedModule(a, [d + gen_degree for d in degrees], action)
        self.top_degree = gen_degree + max(degrees)

    def algebra_coords(self, vec):
        """View a summand element as an element of the algebra."""
        return apply_row(self.module.algebra.field, vec, self.inclusion_rows)


class ProjectiveCover:
    """Minimal projective cover of a module, with kernel and a section.

    Generators are the vectors of the idempotent slices M_d . e outside
    M.rad plus the submodule that the generators before them generate,
    decided against the tagged echelon of the epi rows as the module
    docstring describes; the rows M.v that the echelon may not span yet are
    `_radical_rows`.  The echelon's relations are `kernel_rows`, and the
    tag of each pivot of the full-rank echelon is `section_rows`.
    Minimality, ker in P.rad, is checked on the kernel rows' blocks at the
    summands' generator degrees, through the characters chi_i.

    Over a self-injective algebra each summand e_i.Lambda(-d) has a simple
    socle, which every nonzero submodule contains (Happel 1988, ch. I);
    over a non-negatively graded one it lies in the summand's `top_degree`
    d + max deg(e_i.Lambda).  `stable.StableHomSpace` reads those degrees
    to pick the summands a map out of M' can reach, and factors through
    each of them alone, composing with its epi rows by `epi_image`.

    P = sum of the summands is described by `dim` and `degrees`, read off
    the summands; summand t has the coordinates from `_offsets[t]` on.
    `module`, the block-diagonal sum, is built on each access and not
    kept: only `syzygy_of` acts on P.  The cover holds no reference to the
    module it covers, which caches the cover.

    `terms_by_summand` and `kernel_by_summand` cut the section preimages
    of the basis vectors of M and the kernel rows into summand blocks, read
    as algebra elements, and group them by summand.  A map out of M is row
    by row a sum of one generator image acted on by each term (see
    HomSpace.map_of), and a hom's system reads the kernel blocks of the
    summands with a nonzero slice only.  Both depend on the cover alone,
    so each is computed once, on first use, for every hom out of M.
    """

    def __init__(self, m):
        a = m.algebra
        f = a.field
        idems = primitive_idempotents(a)
        self.generators = []   # generators in M coords
        self.summands = []     # CoverSummand
        # epi rows: a summand basis element u (an algebra element in
        # e_i.Lambda) maps to generator . u; every image is eliminated, in
        # P's order, as its generator is chosen
        self.epi_rows = {}
        rank_ech = Echelon(f, tagged=True)
        rad_rows = _radical_rows(m)
        for d in sorted(set(m.degrees)):
            # the span a degree-d candidate is tested against: the epi
            # echelon, plus the degree-d rows M.v it may not hold yet
            top = None
            if d in rad_rows:
                top = Echelon(f)
                top.extend(row for p, row in rank_ech.rows.items() if m.degrees[p] == d)
                top.extend(rad_rows[d])
            for i in range(1, len(idems) + 1):
                for gen in _slice_basis(m, i, d):
                    if not (top.insert(gen) if top is not None else rank_ech.reduce(gen)):
                        continue
                    # gen . e_i = gen, and its other degree-d images lie in
                    # k.gen + M.rad_0, inside top
                    s = CoverSummand(a, i, d)
                    self.generators.append(gen)
                    self.summands.append(s)
                    for u in s.inclusion_rows.values():
                        row = m.act(gen, u)
                        if row:
                            self.epi_rows[rank_ech.count] = row
                        rank_ech.insert(row)
        if rank_ech.dim != m.dim:
            raise ValueError("cover candidate is not surjective")

        # P is read off its summands; the sum module is built on demand
        self._algebra = a
        self.degrees = [d for s in self.summands for d in s.module.degrees]
        self.dim = len(self.degrees)
        self._block_of = []  # P coordinate -> (summand, coordinate inside it)
        self._offsets = []   # summand -> its first P coordinate
        for k, s in enumerate(self.summands):
            self._offsets.append(len(self._block_of))
            self._block_of.extend((k, r) for r in range(s.module.dim))

        # row r is the image of P coordinate r: its relations are the kernel
        self.kernel_rows = rank_ech.relations

        # section: for each basis vector of M a preimage under the epi.  With
        # rank dim M every coordinate of M is a pivot, so the reduced row at
        # pivot i is the unit vector e_i, and its tag, a combination of the
        # epi rows, is a preimage of e_i: what express({i: 1}) would return
        self.section_rows = {i: rank_ech.tags[i] for i in range(m.dim)}
        self._check_minimal()

    def _check_minimal(self):
        """Raise ValueError unless every kernel row lies in P.rad.

        A kernel row is homogeneous, as every epi row is, and its block at a
        summand generated in another degree lies in Lambda's nonzero degrees,
        inside rad; so only the summands generated in the row's degree have
        their character read.
        """
        a = self._algebra
        f = a.field
        tops = {}  # generator degree -> per summand {P coordinate: chi}
        for s, offset in zip(self.summands, self._offsets):
            try:
                chi = _top_character(a, s.idem_index)
            except ValueError as e:
                raise ValueError(f"cover is not minimal: {e}") from e
            tops.setdefault(s.gen_degree, []).append(
                {offset + r: c for r, c in chi.items()})
        degrees = self.degrees
        for row in self.kernel_rows:
            for chi in tops.get(degrees[next(iter(row))], ()):
                acc = f.zero()
                for k, c in chi.items():
                    x = row.get(k)
                    if x is not None:
                        acc = f.muladd(acc, c, x)
                if not f.is_zero(acc):
                    raise ValueError("cover is not minimal (kernel escapes P.rad)")

    @property
    def module(self):
        """P as the direct sum of every summand, built on each access; the
        cover of the zero module has no summand, and P is zero."""
        if not self.summands:
            return zero_module(self._algebra)
        return direct_sum([s.module for s in self.summands])[0]

    def epi_image(self, t, vec):
        """The image in M of a vector of summand t, given in the summand's
        own coordinates: the epi rows at the summand's offset."""
        off = self._offsets[t]
        return apply_row(self._algebra.field, {off + r: c for r, c in vec.items()},
                         self.epi_rows)

    def _by_summand(self, rows):
        """Per summand t, the pairs (i, u), in the order of rows, of the
        (index i, vector of P) pairs whose block at t is u, nonzero and
        read as an algebra element."""
        groups = [[] for _ in self.summands]
        block_of = self._block_of
        for i, vec in rows:
            blocks = {}
            for k, c in vec.items():
                t, r = block_of[k]
                blocks.setdefault(t, {})[r] = c
            for t, block in blocks.items():
                groups[t].append((i, self.summands[t].algebra_coords(block)))
        return groups

    @cached_property
    def terms_by_summand(self):
        """Per summand t, the pairs (i, u), i ascending, of the basis
        vectors i of M whose section preimage has block u at t (cached)."""
        return self._by_summand(self.section_rows.items())

    @cached_property
    def kernel_by_summand(self):
        """Per summand t, the pairs (k, u), k ascending, of the kernel rows
        k whose block at t is u (cached)."""
        return self._by_summand(enumerate(self.kernel_rows))


def _radical_rows(m):
    """{d: the degree-d rows of M.v} over the radical generators v that the
    cover's epi echelon may not span: those of degree <= 0, or all of them
    when the algebra has a negative degree.  The radical's basis is the
    reduced echelon basis of a graded ideal, so each v is homogeneous, and
    so is each row."""
    a = m.algebra
    every = not a.is_nonnegatively_graded()
    rows = {}
    for v in jacobson_radical(a).gens:
        if every or a.degrees[next(iter(v))] <= 0:
            for row in m.action_of(v).values():
                rows.setdefault(m.degrees[next(iter(row))], []).append(row)
    return rows


def _top_character(a, i):
    """{position r in e_i.Lambda: chi_i(basis row r)}, its nonzero values:
    the functional on e_i.Lambda whose kernel is e_i.rad, read off the
    action on the simple S_i and cached on the algebra."""
    key = ("top", i)
    if key not in a._cache:
        s, one = simple(a, i), a.field.one()
        a._cache[key] = {r: x[0] for r, row in _projective_data(a, i)[0].items()
                         if (x := s.act({0: one}, row))}
    return a._cache[key]


def cover_of(m):
    if "cover" not in m._cache:
        m._cache["cover"] = ProjectiveCover(m)
    return m._cache["cover"]


def is_projective(m):
    """Projectivity via the cover: minimal epi is injective iff dims agree."""
    return cover_of(m).dim == m.dim


def kernel_degrees(cov):
    """The basis degrees of the kernel of a cover's epi, ascending, one per
    kernel row: the degree of P shared by the row's support.  They are the
    degrees of the Submodule those rows span, which orders its basis by
    degree; raises ValueError on a row that is not homogeneous."""
    degrees = []
    for row in cov.kernel_rows:
        degs = {cov.degrees[k] for k in row}
        if len(degs) != 1:
            raise ValueError("kernel rows must be homogeneous")
        degrees.extend(degs)
    return sorted(degrees)


def syzygy_of(m):
    """Kernel of the minimal cover epi, as the Submodule its kernel rows
    span in P, closure checked; not kept on m.  A caller that needs only
    its degrees reads them off the cover with `kernel_degrees`."""
    cov = cover_of(m)
    return Submodule(cov.module, cov.kernel_rows).module


# ---------------------------------------------------------------------------
# hom spaces
# ---------------------------------------------------------------------------

class HomSpace:
    """Basis of degree-0 module maps M -> N, kept in generator coordinates.

    A map is determined by the images of M's cover generators: for a summand
    with idempotent i and generator degree d, the image lives in the slice
    (N_d).e_i.  A map is stored as its coordinate vector over the
    concatenated slice bases (`basis_coords`); `images` turns coordinates
    into generator images, the dict {summand index: nonzero image} with
    ascending keys, and `coords_of_images` goes back, reading only the
    summands the dict has, so callers that compose with another map only
    need generator images.  A map's matrix, its rows over N's coordinates,
    is built only on demand, by `map_of` from the generator images;
    `coords_of_matrix` goes back, and `basis_coeffs` expresses coordinates
    over `basis_coords`.  Both read coordinates with `linalg.read_coords`:
    a slice row holds 1 at its pivot, its least index, and a basis map 1 at
    its free column, its largest one.  The slice bases are cached on N, so
    every hom into N shares them.  The cover of M and the slices are set
    up when the hom is built, whatever the degrees of M and N.
    """

    def __init__(self, source, target):
        if not same_algebra(source.algebra, target.algebra):
            raise ValueError("hom between modules over different algebras")
        self.source = source
        self.target = target
        # the presentation: the cover of M, and per cover summand the slice
        # (N_d).e_i, solved once per target and shared by every summand and
        # hom that has it
        self._cov = cover_of(source)
        self.slices = [_slice_basis(target, s.idem_index, s.gen_degree)
                       for s in self._cov.summands]
        self._pivots = [{min(bvec): pos for pos, bvec in enumerate(basis)}
                        for basis in self.slices]
        offsets = []
        total = 0
        for basis in self.slices:
            offsets.append(total)
            total += len(basis)
        self.offsets = offsets
        self.coord_dim = total
        # slice coordinate q -> (summand, slice vector), so `images` reads
        # only the coordinates a map has
        self._coord_vecs = [(t, bvec) for t, basis in enumerate(self.slices)
                            for bvec in basis]
        self.basis_coords = []
        self._free = {}  # the free column of basis map q -> q
        if not self.coord_dim:
            return  # every slice is zero: no unknowns, so no system
        f = source.algebra.field
        kernel = self._cov.kernel_by_summand

        # constraints: for each kernel vector sum_t x_t . u_t = 0, where a
        # summand with a zero slice has no unknown x_t and adds no term
        sys_rows = {}
        for t, basis in enumerate(self.slices):
            if not basis:
                continue
            off = self.offsets[t]
            for kidx, u in kernel[t]:
                for sidx, bvec in enumerate(basis):
                    w = target.act(bvec, u)
                    for coord, c in w.items():
                        key = (kidx, coord)
                        row = sys_rows.setdefault(key, {})
                        var = off + sidx
                        row[var] = f.add(row.get(var, f.zero()), c)
        sys_rows = {k: {v: c for v, c in row.items() if not f.is_zero(c)}
                    for k, row in sys_rows.items()}
        self.basis_coords = sparse_kernel(f, [r for r in sys_rows.values() if r],
                                          self.coord_dim)
        self._free = {max(c): q for q, c in enumerate(self.basis_coords)}

    @property
    def dim(self):
        return len(self.basis_coords)

    def images(self, coords):
        """{summand index t: the nonzero image (in target coordinates) of
        generator t} of a map, keys ascending.

        Only the nonzero coordinates are read; ascending coordinates run
        over the summands in order and over each slice basis in order.
        """
        axpy = self.source.algebra.field.axpy
        images = {}
        coord_vecs = self._coord_vecs
        for q in sorted(coords):
            t, bvec = coord_vecs[q]
            img = images.get(t)
            if img is None:
                img = images[t] = {}
            axpy(img, bvec, coords[q])
        return {t: img for t, img in images.items() if img}

    def coords_of_images(self, images):
        """Slice coordinates of the map sending cover generator t to
        images[t] and every generator the dict leaves out to 0; the
        coordinates follow the key order of images."""
        f = self.source.algebra.field
        coords = {}
        for t, img in images.items():
            if not img:
                continue  # a zero image has no coordinates
            expr = read_coords(f, img, self._pivots[t], self.slices[t])
            if expr is None:
                raise ValueError("generator image leaves the idempotent slice")
            coords.update((self.offsets[t] + pos, c) for pos, c in expr.items())
        return coords

    def map_of(self, images):
        """The row matrix of the map with these generator images, the dict
        that `images` gives: row i is the sum, over the cover's section
        terms (t, u) of basis vector i, of images[t] acted on by u.  Only
        the terms of the summands that images has are walked, in its key
        order, so each row sums its terms in the order of t; the nonzero
        rows are returned in increasing index order."""
        f = self.source.algebra.field
        axpy, one = f.axpy, f.one()
        act = self.target.act
        terms = self._cov.terms_by_summand
        rows = {}
        for t, img in images.items():
            for i, u in terms[t]:
                axpy(rows.setdefault(i, {}), act(img, u), one)
        return {i: rows[i] for i in sorted(rows) if rows[i]}

    def coords_of_matrix(self, matrix_rows):
        """Slice coordinates of a map given by its matrix."""
        f = self.source.algebra.field
        return self.coords_of_images({t: img for t, gen in enumerate(self._cov.generators)
                                      if (img := apply_row(f, gen, matrix_rows))})

    def basis_coeffs(self, coords):
        """Coefficients over `basis_coords` of the map with these slice
        coordinates, or None if it is not a module map."""
        return read_coords(self.source.algebra.field, coords, self._free,
                           self.basis_coords)


def composition_table(field, images, matrices, coords_of_images):
    """Structure constants of composition over a list of maps M -> M.

    images[i] are the generator images of map i, the dict {summand index:
    nonzero image} that `HomSpace.images` gives, and matrices[i] its
    matrix; row i maps j to coords_of_images of "map i, then map j", whose
    generator images are those of map i sent through the matrix of map j,
    and holds the nonzero composites only.  Sending a vector through a
    matrix reads only the rows at its nonzero coordinates, so when the
    union of the supports of map i's images misses every row of map j, the
    composite is the zero map and j is skipped without a solve: only the
    maps j that `row_index` lists at some r in that union are composed.
    That is exact for any maps; it needs no block structure,
    though for a direct sum most pairs of maps between different summands
    are skipped this way.  Only the summands that images[i] has are sent
    through the matrix, the composite keeps the nonzero results only, and
    a composite with none is zero and is not solved either.
    """
    live = row_index(matrices)
    mult = []
    for imgs in images:
        row = {}
        for j in sorted({j for x in imgs.values() for r in x for j in live.get(r, ())}):
            mat = matrices[j]
            composed = {t: y for t, x in imgs.items() if (y := apply_row(field, x, mat))}
            if composed:
                coords = coords_of_images(composed)
                if coords:
                    row[j] = coords
        mult.append(row)
    return mult


# ---------------------------------------------------------------------------
# the dual of the regular module, self-injectivity
# ---------------------------------------------------------------------------

def dual_of_regular(a):
    """The dual of the algebra as a graded right module over itself.

    (f . b)(x) = f(b x); the degree-i piece is the dual of the degree-(-i)
    component.  Row i of the matrix of b is {j: (b * b_j)_i}, a transpose
    of the nonzero products in the row of b.

    The module axioms need no check here: they follow from those of the
    algebra, which its construction has validated.  ((f . b) . c)(x) =
    f(b (c x)) = f((b c) x) = (f . (b c))(x) by associativity, and
    (f . 1)(x) = f(x) by the unit laws; the grading holds because the
    products keep degrees.  The transposed action is cached on the algebra.
    """
    if "dual_regular" not in a._cache:
        action = []
        for mult_row in a.mult:
            rows = {}
            for j, w in mult_row.items():
                for i, c in w.items():
                    rows.setdefault(i, {})[j] = c
            action.append(rows)
        a._cache["dual_regular"] = action
    return GradedModule(a, [-d for d in a.degrees], a._cache["dual_regular"])


def is_self_injective(a):
    """The regular module is injective iff its dual is projective.  The
    verdict is cached on the algebra; the dual and its cover are freed once
    it is decided."""
    if "self_injective" not in a._cache:
        a._cache["self_injective"] = a.dim == 0 or is_projective(dual_of_regular(a))
    return a._cache["self_injective"]
