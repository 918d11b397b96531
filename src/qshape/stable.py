"""The graded stable category: homs modulo projectives, stable Ext tables
and stable endomorphism algebras.

Maps factoring through an arbitrary projective are computed as maps
factoring through the projective cover of the target: any factorization
M -> P -> N lifts along the cover because P is projective and the cover is
surjective, so the factoring subspace is one image computation.  Over a
self-injective algebra each indecomposable projective e_i.Lambda is
injective with a simple socle, which every nonzero submodule contains
(Happel 1988, ch. I); over a non-negatively graded one that socle is
e_i.Lambda's top degree.  So a degree-0 map into a cover summand is 0
unless the source has the summand's socle degree: hom(M, P) is the sum of
the homs into the summands the source reaches, solved one summand at a
time, and nothing is solved when it reaches none.

Over a self-injective algebra the syzygy functor Omega is an
autoequivalence of the graded stable category, with the cosyzygy as its
inverse (Happel, Triangulated categories in the representation theory of
finite dimensional algebras, 1988, ch. I.2).  Hence stable
Hom(Omega^-i M, N) = stable Hom(M, Omega^i N), and the Ext table needs
syzygies only; cosyzygies, through injective envelopes, live in the test
suite as the independent reference the table is checked against.

Over a non-negatively graded algebra a module in degrees >= d has its
cover generators there, so its cover and its syzygy stay there too.  The
table reads each level's degrees off its parent's cover, before it takes
the level, and stops walking a tower once the level would lie wholly
above the other argument (or either is zero): every deeper entry on that
side is zero by degree.  `ExtCertificate` applies the same test to
Omega m against m, with no syzygy built, to prove that the table of a
module such as the tilting module vanishes off zero at every range; the
table of T never takes Omega T.
"""

from bisect import bisect_right

from .algebra import GradedAlgebra
from .errors import NotSelfInjective
from .linalg import Echelon
from .modules import (
    HomSpace,
    composition_table,
    cover_of,
    is_self_injective,
    kernel_degrees,
    same_algebra,
    syzygy_of,
)


class StableHomSpace:
    """hom(m, n) together with the factoring subspace and representatives.

    `factoring` is an Echelon of the maps that factor through a projective,
    as coefficient vectors over hom.basis_coords.  When hom(m, n) is 0 so
    is the subspace, and no hom into a projective is solved.  Otherwise,
    hom(m, P) being the sum of the homs into the summands of the cover P
    of n, each basis map h of hom(m, P_t), for each summand P_t that m
    reaches (see `_reachable_summands`), is composed with the epi rows of
    P_t, read in its own coordinates: the nonzero generator images of h
    followed by the epi are those of the composite, so neither a matrix
    nor a sum of summands is built.  The echelon's reduced basis does not
    depend on the order of the inserts.  Representatives are the basis
    maps at the non-pivot positions, so dim representatives + dim
    factoring = hom.dim.

    Over a self-injective, non-negatively graded algebra a summand
    e_i.Lambda(-d) is reached only when its socle degree d + max
    deg(e_i.Lambda) is a degree of m: a nonzero degree-0 map into the
    summand has a nonzero image, which contains the simple socle and so
    needs m in that degree.  Every other component of a map into P is
    zero; when m reaches no summand, nothing is solved.
    """

    def __init__(self, m, n):
        if not same_algebra(m.algebra, n.algebra):
            raise ValueError("stable hom needs a common algebra")
        f = m.algebra.field
        self.source = m
        self.target = n
        self.hom = hom = HomSpace(m, n)
        self.factoring = Echelon(f)
        if hom.dim:
            cov = cover_of(n)
            for t in _reachable_summands(m, cov):
                lifted = HomSpace(m, cov.summands[t].module)
                for c in lifted.basis_coords:
                    images = {g: y for g, x in lifted.images(c).items()
                              if (y := cov.epi_image(t, x))}
                    coeffs = hom.basis_coeffs(hom.coords_of_images(images))
                    if coeffs is None:
                        raise ValueError("factoring map escaped the hom space")
                    self.factoring.insert(coeffs)
        pivots = self.factoring.rows
        self.rep_positions = [q for q in range(hom.dim) if q not in pivots]
        self._rep_index = {q: i for i, q in enumerate(self.rep_positions)}

    @property
    def dim(self):
        return len(self.rep_positions)

    def representative_coords(self):
        """Slice coordinates (see HomSpace) of the representative maps."""
        return [self.hom.basis_coords[q] for q in self.rep_positions]

    def class_coords_of_images(self, images):
        """Coordinates over the representatives of the stable class of the
        map sending cover generator t of the source to images[t],
        {summand index: nonzero image} as HomSpace.images gives them."""
        c = self.hom.basis_coeffs(self.hom.coords_of_images(images))
        if c is None:
            raise ValueError("map is not a module map in this hom space")
        residual = self.factoring.reduce(c)
        return {self._rep_index[q]: x for q, x in residual.items()}


def _reachable_summands(m, cov):
    """The indices, ascending, of the summands of cov that a nonzero
    degree-0 map out of m can reach: by the socle argument (see
    StableHomSpace) those whose top degree is a degree of m, or every
    summand unless the algebra is self-injective and non-negatively
    graded (a verdict cached on the algebra)."""
    every = range(len(cov.summands))
    a = m.algebra
    if not (a.is_nonnegatively_graded() and is_self_injective(a)):
        return every
    degrees = set(m.degrees)
    return [t for t in every if cov.summands[t].top_degree in degrees]


def stable_ext_table(m, n, k):
    """dim of stable hom from the i-th (co)syzygy of m to n, for |i| <= k.

    The entry at i > 0 is dim stable Hom(Omega^i m, n).  The entry at -i is
    dim stable Hom(Omega^-i m, n), computed as dim stable Hom(m, Omega^i n):
    Omega is an autoequivalence of the stable category of a self-injective
    algebra, so applying it i times to both arguments preserves stable
    homs.  One loop walks the syzygy towers of both arguments, one tower
    when m is n; each level, with its cover, is freed once the loop moves
    past it, and no injective envelope is built.

    Over a non-negatively graded algebra a side stops walking as soon as
    the degrees decide every deeper entry (see `_decided`): the +i side
    once Omega^i m is decided against n, the -i side once Omega^i n is
    decided against m, both by one test when m is n.  A level's degrees
    are read off its parent's cover by `kernel_degrees`, and the level is
    taken only if they do not decide it; every later entry on that side
    is 0, with no further syzygy and no stable hom.  For the tilting
    module T that happens at Omega T, whose degrees are read off the cover
    of T that the entry at 0 built: no syzygy and no second cover, at any
    k.  Over any other algebra both towers are walked to depth k.
    """
    if k < 1:
        raise ValueError(f"Ext range must be >= 1, got {k}")
    if not is_self_injective(m.algebra):
        raise NotSelfInjective("stable Ext tables need a self-injective algebra")
    table = {0: StableHomSpace(m, n).dim}

    def walk(x, other):
        # the syzygy of x, or None once its degrees, read off the cover of
        # x, decide it and every deeper level against `other`
        return None if _decided(kernel_degrees(cover_of(x)), other) else syzygy_of(x)

    x = None if _decided(m.degrees, n) else m
    y = None if _decided(n.degrees, m) else n
    for i in range(1, k + 1):
        if x is not None:
            x = walk(x, n)
        if n is m:
            y = x
        elif y is not None:
            y = walk(y, m)
        table[i] = StableHomSpace(x, n).dim if x is not None else 0
        table[-i] = StableHomSpace(m, y).dim if y is not None else 0
    return table


def _decided(degrees, other):
    """True when the algebra is non-negatively graded and every stable hom
    from a module x with these basis degrees, or from a syzygy of x, to
    `other`, or from `other` to one of them, is zero by degree: x or
    `other` is zero, or x lies wholly above every degree of `other`.  A
    module in degrees >= d has its cover generators there, and with no
    negative degree the cover and its kernel stay there, so every syzygy
    of x lives in degrees >= min deg x; degree-0 maps between modules with
    disjoint degree supports are zero."""
    return other.algebra.is_nonnegatively_graded() and (
        not degrees or other.is_zero() or min(degrees) > max(other.degrees))


class ExtCertificate:
    """Degree certificate that stable Hom(Omega^k m, m) and stable
    Hom(m, Omega^k m) vanish for every k >= 1, over a non-negatively graded
    algebra: every entry of stable_ext_table(m, m, k) off zero, at any k.

    It holds when `_decided` decides Omega m against m: m is zero, or
    Omega m is zero or lies wholly above every degree of m, as every
    deeper syzygy then does; degree-0 maps between modules with disjoint
    degree supports are zero, hence so are both stable homs.  The table
    stops the tower of m at Omega m by the same test, read off the same
    cover, and builds neither Omega m nor its cover.

    The degrees of Omega m are read off the kernel rows of the cover of m,
    which the stable End of m builds and caches, by `kernel_degrees`, which
    checks that each row is homogeneous; no syzygy module is built.
    A zero module (or syzygy) has no degree, reported as None.
    """

    def __init__(self, m):
        degrees = kernel_degrees(cover_of(m))
        self.top_degree = max(m.degrees, default=None)
        self.syzygy_min_degree = min(degrees, default=None)
        self.holds = _decided(degrees, m)

    def as_dict(self):
        return {"tilting_max_degree": self.top_degree,
                "syzygy_min_degree": self.syzygy_min_degree}


class StableEnd:
    """The stable endomorphism algebra of a module, with class coordinates.

    Multiplication is "first map then second map" (matrix product in the
    row convention).  The unit is the class of the identity, whose
    generator images are the cover generators themselves.  Products come
    from composition_table: composed in generator coordinates (the
    generator images of the first map, sent through the matrix of the
    second, are the generator images of the composite), and skipped as
    zero when the images of the first representative avoid every nonzero
    row of the second.  A skipped pair's representatives compose to the
    zero map, whose class is zero, so the table is the same as composing
    every pair; for the Gamma of truncated_polynomial 16 (dim 120) 680 of
    the 14,400 pairs are composed.  Each representative's nonzero generator
    images are read once, and its matrix is built from them.

    `offsets`, when given, are the first coordinates of the blocks of m as
    a direct sum, each with a local stable End; the class of each block's
    projector, which sends each cover generator to its coordinates in the
    block, is declared, in order.  A zero class (a projective block) raises.
    """

    def __init__(self, m, offsets=None):
        f = m.algebra.field
        self.module = m
        self.stable = StableHomSpace(m, m)
        hom = self.stable.hom
        images = [hom.images(c) for c in self.stable.representative_coords()]
        reps = [hom.map_of(x) for x in images]
        dim = len(reps)
        mult = composition_table(f, images, reps, self.stable.class_coords_of_images)
        generators = cover_of(m).generators
        idems = None
        if offsets is not None:
            blocks = [{} for _ in offsets]
            for t, gen in enumerate(generators):
                for k, c in gen.items():
                    blocks[bisect_right(offsets, k) - 1].setdefault(t, {})[k] = c
            idems = [self.stable.class_coords_of_images(b) for b in blocks]
            if not all(idems):
                raise ValueError("a block is projective: its stable class is zero")
        if m.is_zero() or dim == 0:
            self.algebra = GradedAlgebra(f, [], [], {}, idempotents=idems)
        else:
            unit = self.stable.class_coords_of_images(dict(enumerate(generators)))
            self.algebra = GradedAlgebra(f, [0] * dim, mult, unit, idempotents=idems)
