"""Stable homs, syzygies, Ext tables and stable endomorphism algebras."""

import functools
import gc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import qshape.modules
import qshape.stable
from qshape.algebra import QuiverPresentation, builtin, compile_quiver, primitive_idempotents
from qshape.errors import NotSelfInjective
from qshape.fields import QQ, FieldSpec
from qshape.modules import (
    composition_table,
    cover_of,
    direct_sum,
    HomSpace,
    Submodule,
    regular,
    shift,
    simple,
    syzygy_of as syzygy,
    truncate_le,
    zero_module,
)
from qshape.stable import (
    ExtCertificate,
    StableEnd,
    StableHomSpace,
    stable_ext_table,
)
from qshape.tilting import GammaData, tilting_module

import oracles
from oracles import (
    cosyzygy_of as cosyzygy,
    end_algebra,
    factoring_by_matrices,
    negatively_graded_algebras,
    sparse_matmul,
)


def stable_end_algebra(m):
    return StableEnd(m).algebra


def trunc(n, field=QQ):
    return builtin("truncated_polynomial", n, field)


def factoring_span(m, n):
    """hom(m, n) and the reduced basis of the coefficients, over its
    basis_coords, of the maps that factor through a projective."""
    sh = StableHomSpace(m, n)
    return sh.hom, sh.factoring.basis()


class TestFactoring:
    def test_projective_target_everything_factors(self):
        a = trunc(2)
        m = simple(a, 1)
        hom, coeffs = factoring_span(m, regular(a))
        assert len(coeffs) == hom.dim

    def test_projective_source_everything_factors(self):
        a = trunc(2)
        hom, coeffs = factoring_span(regular(a), simple(a, 1))
        assert hom.dim == 1
        assert len(coeffs) == 1

    def test_simple_to_simple_over_dual_numbers(self):
        a = trunc(2)
        s = simple(a, 1)
        hom, coeffs = factoring_span(s, s)
        assert hom.dim == 1
        assert coeffs == []  # hom(S, regular) = 0, so nothing factors


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("family", ["exterior", "preprojective_A"])
def test_factoring_coordinates_match_matrix_path(family, char):
    a = builtin(family, 3, FieldSpec(char))
    t = tilting_module(a).module
    # T + Lambda: its maps to T split into factoring and non-factoring parts
    sources = [t, regular(a), direct_sum([t, regular(a)])[0]]
    x = y = t
    for _ in range(2):
        x, y = syzygy(x), cosyzygy(y)
        sources += [x, y]
    seen_zero = seen_partial = False
    for m in sources:
        for n in (t, syzygy(t), simple(a, 1)):
            hom, coeffs = factoring_span(m, n)
            assert (hom.dim, coeffs) == factoring_by_matrices(m, n)
            seen_zero |= hom.dim == 0
            seen_partial |= 0 < len(coeffs) < hom.dim
    # both the zero short-circuit and a proper factoring subspace are covered
    assert seen_zero and seen_partial


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("family,n", [("truncated_polynomial", 3), ("truncated_polynomial", 6),
                                      ("exterior", 2), ("exterior", 3),
                                      ("preprojective_A", 2), ("preprojective_A", 3)])
def test_socle_skip_matches_solving_hom_into_the_cover(family, n, char):
    a = builtin(family, n, FieldSpec(char))
    t = tilting_module(a).module
    sources = [t, syzygy(t), syzygy(syzygy(t)), cosyzygy(t), regular(a), simple(a, 1),
               shift(simple(a, 1), -1), direct_sum([t, regular(a)])[0]]
    # factoring_by_matrices solves hom(m, P) whenever m and the target are
    # nonzero; the factoring echelon fixes the representatives, its non-pivots
    for m in sources:
        for target in (t, syzygy(t), simple(a, 1), regular(a)):
            hom, coeffs = factoring_span(m, target)
            assert (hom.dim, coeffs) == factoring_by_matrices(m, target)


def two_arrow_quiver(field):
    """2 -> 1 in degree 1 and 3 -> 1 in degree 2: e_1.Lambda has the socle
    span(a, b), in degrees 1 and 2, and the algebra is not self-injective."""
    return compile_quiver(QuiverPresentation(
        ["1", "2", "3"], [("a", "2", "1", 1), ("b", "3", "1", 2)], [], 2), field)


@pytest.mark.parametrize("char", [0, 32003])
def test_socle_skip_needs_self_injectivity(char):
    # into e_1.Lambda, generated in degree 0 with its top degree 2, the
    # simple S_2 in degree 1 maps onto a: the degrees alone would skip it
    a = two_arrow_quiver(FieldSpec(char))
    p1, s2 = qshape.modules.projective(a, 1), shift(simple(a, 2), -1)
    assert max(cover_of(p1).summands[0].module.degrees) == 2 and s2.degrees == [1]
    sh = StableHomSpace(s2, p1)
    assert sh.hom.dim == 1 and sh.dim == 0
    assert sh.factoring.basis() == factoring_by_matrices(s2, p1)[1]


def built_from(monkeypatch):
    """Patch the HomSpace that StableHomSpace solves with to record the
    target module of every hom it solves, hom(m, n) itself first."""
    real = qshape.stable.HomSpace
    built = []

    def spy(source, target):
        built.append(target)
        return real(source, target)

    monkeypatch.setattr(qshape.stable, "HomSpace", spy)
    return built


def solved_into(built, cov):
    """The indices, in solving order, of the summands of cov whose modules
    the homs recorded after the first one, hom(m, n), solve into; a hom
    into any module but a summand of cov fails the lookup."""
    index = {id(s.module): t for t, s in enumerate(cov.summands)}
    return [index[id(target)] for target in built[1:]]


def socle_reached(m, cov):
    """The summands of cov whose top degree, read off the summand module,
    is a degree of m."""
    return [t for t, s in enumerate(cov.summands) if max(s.module.degrees) in m.degrees]


@pytest.mark.parametrize("char", [0, 32003])
def test_socle_degrees_decide_whether_hom_into_the_cover_is_solved(monkeypatch, char):
    # T of truncated_polynomial and exterior lives in degrees <= 0 and its
    # cover's socles above 0, so it reaches no summand and nothing is
    # solved; T of preprojective_A 3 reaches 3 of its 6 summands, and a hom
    # is solved into each of those
    for family, n, reached in (("truncated_polynomial", 6, 0), ("exterior", 3, 0),
                               ("preprojective_A", 3, 3)):
        t = tilting_module(builtin(family, n, FieldSpec(char))).module
        cov = cover_of(t)
        with monkeypatch.context() as patch:
            built = built_from(patch)
            sh = StableHomSpace(t, t)
        assert sh.hom.dim > 0
        assert built[0] is t
        assert solved_into(built, cov) == socle_reached(t, cov)
        assert len(built) - 1 == reached < len(cov.summands)
        assert bool(sh.factoring.dim) == bool(reached)
        assert sh.factoring.basis() == factoring_by_matrices(t, t)[1]


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("family,n", [("preprojective_A", 3), ("preprojective_A", 4),
                                      ("preprojective_A", 5), ("exterior", 3),
                                      ("truncated_polynomial", 6)])
def test_reachable_summands_factor_as_the_whole_cover(monkeypatch, family, n, char):
    # the factoring subspace through the summands T and its syzygies
    # reach, one summand at a time, is the one through the whole cover
    a = builtin(family, n, FieldSpec(char))
    t = tilting_module(a).module
    omega = syzygy(t)
    sources = [t, omega, cosyzygy(t), regular(a), simple(a, 1)]
    built = built_from(monkeypatch)
    for m in sources:
        for target in (t, omega):
            del built[:]
            hom, coeffs = factoring_span(m, target)
            if hom.dim:
                assert solved_into(built, cover_of(target)) == \
                    socle_reached(m, cover_of(target))
            assert (hom.dim, coeffs) == factoring_by_matrices(m, target)


@pytest.mark.parametrize("char", [0, 32003])
def test_tilting_module_of_preprojective_a4_reaches_half_its_cover(monkeypatch, char):
    # T of preprojective_A 4 reaches 6 of its 12 cover summands, of dim 30
    # of P's 60
    t = tilting_module(builtin("preprojective_A", 4, FieldSpec(char))).module
    cov = cover_of(t)
    built = built_from(monkeypatch)
    sh = StableHomSpace(t, t)
    ts = solved_into(built, cov)
    assert (len(ts), len(cov.summands)) == (6, 12)
    assert (sum(cov.summands[k].module.dim for k in ts), cov.dim) == (30, 60)
    assert sh.factoring.basis() == factoring_by_matrices(t, t)[1]


@pytest.mark.parametrize("char", [0, 32003])
def test_a_factoring_map_that_is_no_module_map_is_refused(monkeypatch, char):
    # the homs into the cover summands are given every slice vector as a
    # basis map, module map or not: sent through the epi, one of them
    # leaves hom(Omega T, Omega T), and the factoring subspace refuses it
    omega = syzygy(tilting_module(builtin("preprojective_A", 3, FieldSpec(char))).module)
    one = omega.algebra.field.one()

    def loose(m, n):
        hom = HomSpace(m, n)
        if n is not omega:
            hom.basis_coords = [{q: one} for q in range(hom.coord_dim)]
        return hom

    assert StableHomSpace(omega, omega).dim
    monkeypatch.setattr(qshape.stable, "HomSpace", loose)
    with pytest.raises(ValueError, match="factoring map escaped the hom space"):
        StableHomSpace(omega, omega)


@pytest.mark.parametrize("char", [0, 32003])
def test_every_summand_is_reachable_off_self_injective_non_negative(monkeypatch, char):
    # S_2(-1) reaches no socle degree of e_1.Lambda's cover over the two
    # arrow quiver, which is not self-injective, nor any over k[x]/x^3
    # with x in degree -1, which is not non-negatively graded: both factor
    # through every summand, as the reference does
    f = FieldSpec(char)
    a = two_arrow_quiver(f)
    local = negatively_graded_algebras(f)[0]
    assert not local.is_nonnegatively_graded()
    s = simple(local, 1)
    cases = [(shift(simple(a, 2), -1), qshape.modules.projective(a, 1))]
    # the socle x^2 of k[x]/x^3 lies in its lowest degree, -2: S(2) in
    # degree -2 maps into it, though Lambda's top degree is 0
    cases += [(x, y) for x in (s, shift(s, 1), shift(s, 2), regular(local), syzygy(s))
              for y in (s, shift(s, -1), regular(local), syzygy(shift(s, 1)))]
    built = built_from(monkeypatch)
    reached_less = set()
    for m, n in cases:
        del built[:]
        hom, coeffs = factoring_span(m, n)
        cov = cover_of(n)
        if hom.dim:
            assert solved_into(built, cov) == list(range(len(cov.summands)))
            if socle_reached(m, cov) != solved_into(built, cov):
                reached_less.add(m.algebra)
        assert (hom.dim, coeffs) == factoring_by_matrices(m, n)
    # the degrees alone would have left a summand out, over each algebra
    assert reached_less == {a, local}


class TestStableHom:
    def test_vanishes_on_projectives(self):
        a = builtin("preprojective_A", 2, QQ)
        assert StableHomSpace(regular(a), simple(a, 1)).dim == 0
        assert StableHomSpace(simple(a, 1), regular(a)).dim == 0

    def test_simple_stable_end_is_line(self):
        a = trunc(2)
        s = simple(a, 1)
        sh = StableHomSpace(s, s)
        assert sh.hom.dim == 1
        assert sh.dim == 1

    def test_semisimple_algebra_everything_vanishes(self):
        a = builtin("preprojective_A", 1, QQ)
        assert StableHomSpace(regular(a), regular(a)).dim == 0


class TestSyzygyCosyzygy:
    def test_syzygy_of_projective_zero(self):
        a = builtin("exterior", 2, QQ)
        assert syzygy(regular(a)).dim == 0

    def test_syzygy_of_simple_dual_numbers(self):
        a = trunc(2)
        s = syzygy(simple(a, 1))
        assert s.dim == 1
        assert s.degrees == [1]

    def test_cosyzygy_requires_self_injective(self):
        pres = QuiverPresentation(["1", "2"], [("a", "1", "2", 0)], [], 2)
        a = compile_quiver(pres, QQ)
        with pytest.raises(NotSelfInjective):
            cosyzygy(simple(a, 1))

    def test_cosyzygy_undoes_syzygy_stably(self):
        a = builtin("exterior", 2, QQ)
        for m in (simple(a, 1), truncate_le(shift(regular(a), 1), 0)):
            back = cosyzygy(syzygy(m))
            assert stable_end_algebra(back).dim == stable_end_algebra(m).dim

    def test_dimension_shift_adjunction(self):
        a = builtin("exterior", 2, QQ)
        t1 = truncate_le(shift(regular(a), 1), 0)
        samples = [(simple(a, 1), t1), (t1, simple(a, 1)), (t1, t1)]
        for m, n in samples:
            assert StableHomSpace(syzygy(m), n).dim == StableHomSpace(m, cosyzygy(n)).dim


class TestExtTable:
    def test_projective_all_zero(self):
        a = trunc(3)
        table = stable_ext_table(regular(a), regular(a), 3)
        assert all(v == 0 for v in table.values())

    def test_simple_over_dual_numbers_vanishes_off_zero(self):
        # syzygies of the graded simple land in shifted degrees, so only the
        # i = 0 entry survives (the N = 2 tilting vanishing)
        a = trunc(2)
        s = simple(a, 1)
        table = stable_ext_table(s, s, 3)
        assert table == {0: 1, 1: 0, 2: 0, 3: 0, -1: 0, -2: 0, -3: 0}

    def test_requires_self_injective(self):
        pres = QuiverPresentation(["1", "2"], [("a", "1", "2", 0)], [], 2)
        a = compile_quiver(pres, QQ)
        with pytest.raises(NotSelfInjective):
            stable_ext_table(simple(a, 1), simple(a, 1), 2)

    @pytest.mark.parametrize("k", [0, -1])
    def test_range_below_one_is_refused(self, k):
        s = simple(trunc(2), 1)
        with pytest.raises(ValueError, match=f"Ext range must be >= 1, got {k}"):
            stable_ext_table(s, s, k)


class TestStableEnd:
    def test_projective_gives_zero_algebra(self):
        a = trunc(3)
        assert stable_end_algebra(regular(a)).dim == 0

    def test_simple_over_dual_numbers_gives_base_field(self):
        a = trunc(2)
        g = stable_end_algebra(simple(a, 1))
        assert g.dim == 1
        assert g.is_commutative()

    def test_composition_associative_and_unital(self):
        # construction revalidates associativity and unit laws exactly, so
        # survival is the assertion
        a = builtin("exterior", 2, QQ)
        m = truncate_le(shift(regular(a), 1), 0)
        s, _ = direct_sum([m, simple(a, 1)])
        g = stable_end_algebra(s)
        assert g.dim >= 1


def counted_compositions(monkeypatch, module):
    """Patch module's composition_table to record each pair it composes."""
    calls = []

    def patched(field, images, matrices, coords_of_images):
        def counted(composed):
            calls.append(composed)
            return coords_of_images(composed)
        return composition_table(field, images, matrices, counted)

    monkeypatch.setattr(module, "composition_table", patched)
    return calls


def test_composition_table_sends_only_nonzero_images_through_a_matrix(monkeypatch):
    # on the Gamma of truncated_polynomial 16, each composed pair (i, j)
    # sends the nonzero generator images of map i, and only those, through
    # the matrix of map j, one apply_row each; the table is the one that
    # sends every image through
    real_apply = qshape.modules.apply_row
    sent, tables = [], []
    inside = [False]

    def spy_apply(field, vec, rows):
        if inside[0]:
            sent.append(vec)
        return real_apply(field, vec, rows)

    def spy_table(field, images, matrices, coords_of_images):
        def coords(composed):
            inside[0] = False
            try:
                return coords_of_images(composed)
            finally:
                inside[0] = True
        inside[0] = True
        try:
            table = composition_table(field, images, matrices, coords)
        finally:
            inside[0] = False
        tables.append((images, matrices, coords_of_images, table))
        return table

    monkeypatch.setattr(qshape.modules, "apply_row", spy_apply)
    monkeypatch.setattr(qshape.stable, "composition_table", spy_table)
    gamma = GammaData(builtin("truncated_polynomial", 16, QQ))
    summands = len(cover_of(gamma.tilting.module).summands)
    (images, matrices, coords_of_images, table), = tables
    expected, reference = [], []
    for imgs in images:
        # the images are keyed by summand in order, and a zero one is left out
        assert list(imgs) == sorted(imgs) and all(imgs.values())
        rows = set().union(*imgs.values())
        composed = [j for j, mat in enumerate(matrices) if any(r in mat for r in rows)]
        expected += [x for j in composed for x in imgs.values()]
        ref = {}
        for j in composed:
            c = coords_of_images({t: y for t, x in imgs.items()
                                  if (y := real_apply(QQ, x, matrices[j]))})
            if c:
                ref[j] = c
        reference.append(ref)
    assert len(table) == 120
    # some map sends a generator to zero: fewer images than summands
    assert any(len(imgs) < summands for imgs in images)
    assert all(sent) and sent == expected
    assert table == reference


def crosses_summands(rows, block):
    """Whether a matrix has an entry from one summand into another."""
    return any(block[r] != block[s] for r, row in rows.items() for s in row)


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("family,n", [("exterior", 3), ("preprojective_A", 3),
                                      ("truncated_polynomial", 6)])
def test_composition_tables_match_all_pairs(monkeypatch, family, n, char):
    # every pair composed as full matrices is the reference; the tables of
    # StableEnd and the oracle end_algebra, which skip pairs by support,
    # must equal it
    f = FieldSpec(char)
    a = builtin(family, n, f)
    td = tilting_module(a)
    t, lam = td.module, regular(a)
    omega = syzygy(t)
    # summand i of T is its coordinates from offsets[i] up to the next offset
    dims = [e - o for o, e in zip(td.offsets, td.offsets[1:] + [t.dim])]
    cases = [
        (t, dims),
        (direct_sum([t, lam])[0], dims + [lam.dim]),
        (direct_sum([omega, t])[0], [omega.dim] + dims),
    ]
    stable_calls = counted_compositions(monkeypatch, qshape.stable)
    # the oracle reads composition_table from qshape.modules when called
    end_calls = counted_compositions(monkeypatch, qshape.modules)
    skipped = cross_composed = False
    for m, dims in cases:
        block = [b for b, d in enumerate(dims) for _ in range(d)]
        del stable_calls[:], end_calls[:]
        se = StableEnd(m)
        hom = se.stable.hom
        reps = [hom.map_of(hom.images(c)) for c in se.stable.representative_coords()]
        dim = len(reps)
        for i in range(dim):
            for j in range(dim):
                product = se.stable.class_coords_of_matrix(sparse_matmul(f, reps[i], reps[j]))
                assert se.algebra.mult[i].get(j, {}) == product
                cross_composed |= bool(product) and crosses_summands(reps[i], block)
        skipped |= len(stable_calls) < dim * dim

        e = end_algebra(m)
        hom = HomSpace(m, m)
        basis = [hom.map_of(hom.images(c)) for c in hom.basis_coords]
        for i in range(hom.dim):
            for j in range(hom.dim):
                product = sparse_matmul(f, basis[i], basis[j])
                assert e.mult[i].get(j, {}) == hom.basis_coeffs(hom.coords_of_matrix(product))
        assert len(end_calls) < hom.dim * hom.dim
    # some pair is skipped, and some nonzero product has a first factor
    # from one summand into another: the skip is by support, not by block
    assert skipped and cross_composed


def cosyzygy_entry(m, n, i):
    """The Ext table entry at i by the cosyzygy formula: dim stable
    Hom(m, Omega^-i n) for i >= 0, dim stable Hom(Omega^i m, n) for i < 0."""
    for _ in range(abs(i)):
        if i > 0:
            n = cosyzygy(n)
        else:
            m = cosyzygy(m)
    return StableHomSpace(m, n).dim


class TestSecondRoute:
    def test_negative_entries_match_cosyzygies_of_source(self):
        # the table reads the entry at -i off syzygies of the target; the
        # cosyzygies of the source, through injective envelopes, are the
        # independent reference
        a = builtin("exterior", 2, QQ)
        m = truncate_le(shift(regular(a), 1), 0)
        n = simple(a, 1)
        table = stable_ext_table(m, n, 3)
        for i in range(1, 4):
            assert table[-i] == cosyzygy_entry(m, n, -i)


POOL = [("exterior", 2), ("exterior", 3), ("preprojective_A", 3),
        ("truncated_polynomial", 4)]


@functools.lru_cache(maxsize=None)
def pool_witnesses(family, n, char):
    """Simples shifted by 0, +-1, +-2, Lambda(1)_{<=0} and T, over one
    algebra; cached so that their syzygy and cosyzygy towers are shared."""
    a = builtin(family, n, FieldSpec(char))
    out = [shift(simple(a, v), j) for v in range(1, len(primitive_idempotents(a)) + 1)
           for j in (0, 1, -1, 2, -2)]
    out.append(truncate_le(shift(regular(a), 1), 0))
    out.append(tilting_module(a).module)
    return out


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(POOL), st.sampled_from([0, 32003]), st.data())
def test_ext_table_matches_cosyzygy_formula(algebra, char, data):
    witnesses = pool_witnesses(*algebra, char)
    m = data.draw(st.sampled_from(witnesses))
    n = data.draw(st.sampled_from(witnesses))
    table = stable_ext_table(m, n, 3)
    for i in range(-3, 4):
        assert table[i] == cosyzygy_entry(m, n, i)


@pytest.mark.parametrize("char", [0, 32003])
def test_pool_reaches_nonzero_negative_entries(char):
    # the property test above must see nonzero entries at negative i, not
    # only zeros: S(-2) against S(2) over exterior 3 is 3 at -2, and S1
    # against S3 over preprojective_A 3 is 1 at -1
    ext = pool_witnesses("exterior", 3, char)
    assert stable_ext_table(ext[4], ext[3], 3)[-2] == 3
    pre = pool_witnesses("preprojective_A", 3, char)
    assert stable_ext_table(pre[0], pre[10], 3)[-1] == 1


def test_sides_that_stop_apart_match_cosyzygies(monkeypatch):
    # T against S(-2) over exterior 3: S(-2), in degree 2, lies above T, so
    # the -i side stops at once; Omega T and Omega^2 T reach degree 2, and
    # the +i side stops at Omega^3 T, past the nonzero entry at 2, whose
    # degrees are read off the cover of Omega^2 T without taking it
    ext = pool_witnesses("exterior", 3, 0)
    m, n = ext[-1], ext[4]
    walked = []

    def recording_syzygy(x):
        walked.append(x)
        return syzygy(x)

    monkeypatch.setattr(qshape.stable, "syzygy_of", recording_syzygy)
    table = stable_ext_table(m, n, 5)
    monkeypatch.undo()
    assert len(walked) == 2 and walked[0] is m
    assert table[2] == 17
    for i in range(-5, 6):
        assert table[i] == cosyzygy_entry(m, n, i)


def test_a_zero_argument_walks_no_tower(monkeypatch):
    # a stable hom from or into the zero module is zero at every depth
    def refuse(x):
        raise AssertionError("the Ext table took a syzygy")

    a = builtin("exterior", 3, QQ)
    s, z = simple(a, 1), zero_module(a)
    monkeypatch.setattr(qshape.stable, "syzygy_of", refuse)
    assert stable_ext_table(s, z, 5) == {i: 0 for i in range(-5, 6)}
    assert stable_ext_table(z, s, 5) == {i: 0 for i in range(-5, 6)}


@pytest.mark.parametrize("char", [0, 32003])
def test_a_negative_degree_walks_the_tower(char):
    # over k[x]/x^3 with x in degree -1 syzygies move down: S lies above
    # S(3), in degree -3, yet Omega^2 S = S(3), so no side stops by degree
    a = negatively_graded_algebras(FieldSpec(char))[0]
    s = simple(a, 1)
    n = shift(s, 3)
    table = stable_ext_table(s, n, 4)
    assert table[2] == 1
    for i in range(-4, 5):
        assert table[i] == cosyzygy_entry(s, n, i)


def test_ext_table_builds_no_envelope(monkeypatch):
    # a cosyzygy is the cokernel of an envelope; the table takes no quotient,
    # neither the general one of the oracles nor a coordinate restriction
    def refuse(*args):
        raise AssertionError("the Ext table built a quotient module")

    a = builtin("exterior", 3, QQ)
    t = tilting_module(a).module
    monkeypatch.setattr(oracles, "QuotientModule", refuse)
    monkeypatch.setattr(qshape.modules, "restrict", refuse)
    assert stable_ext_table(t, t, 3) == {i: 0 if i else 12 for i in range(-3, 4)}


def test_ext_table_covers_no_last_syzygy(monkeypatch):
    # T lives in degrees <= 0, and Omega T, read off the cover of T that
    # the entry at 0 builds, in degrees >= 1: the tower stops at Omega T,
    # so no syzygy is covered or acted on, at any depth
    for k in (3, 50):
        a = builtin("exterior", 3, QQ)
        t = tilting_module(a).module
        covered, built = [], []
        init = qshape.modules.ProjectiveCover.__init__

        def recording_init(self, m):
            covered.append(m)
            init(self, m)

        def counting(parent, vectors):
            built.append(parent.dim)
            return Submodule(parent, vectors)

        monkeypatch.setattr(qshape.modules.ProjectiveCover, "__init__", recording_init)
        monkeypatch.setattr(qshape.modules, "Submodule", counting)
        assert stable_ext_table(t, t, k) == {i: 0 if i else 12 for i in range(-k, k + 1)}
        monkeypatch.undo()
        assert len(covered) == 1 and covered[0] is t
        assert built == []


class TestFreedWhenDropped:
    """With the cycle collector off, what a caller drops is freed by
    reference counting alone: no cache keeps it alive."""

    @pytest.fixture(autouse=True)
    def no_cycle_collector(self):
        gc.disable()
        yield
        gc.enable()

    # S(-2) against S(2) over exterior 3, 3 at -2: S(-2) lies above S(2),
    # so the +i side walks no tower, and the -i side walks the tower of
    # S(2) until Omega^5 S(2), in degrees 3..5, lies above S(-2)
    TABLE = {i: 3 if i == -2 else 0 for i in range(-8, 9)}

    @staticmethod
    def walked_pair():
        w = pool_witnesses("exterior", 3, 0)
        m, n = w[4], w[3]
        cover_of(m)
        cover_of(n)
        return m, n

    def test_ext_table_syzygies(self, monkeypatch):
        m, n = self.walked_pair()
        refs = []

        def recording_syzygy(x):
            out = syzygy(x)
            refs.append(weakref.ref(out))
            return out

        monkeypatch.setattr(qshape.stable, "syzygy_of", recording_syzygy)
        assert stable_ext_table(m, n, 8) == self.TABLE
        # Omega^1..Omega^4 of S(2), and none of S(-2); each freed once passed
        assert len(refs) == 4
        assert all(r() is None for r in refs)

    def test_ext_table_builds_no_action_for_the_deepest_syzygy(self, monkeypatch):
        # Omega^1..Omega^4 S(2) are taken; Omega^5 S(2), which stops the
        # walk, is read for its degrees off the cover of Omega^4 S(2) only
        m, n = self.walked_pair()
        built = []

        def counting(parent, vectors):
            built.append(parent.dim)
            return Submodule(parent, vectors)

        monkeypatch.setattr(qshape.modules, "Submodule", counting)
        assert stable_ext_table(m, n, 8) == self.TABLE
        assert len(built) == 4

    def test_gamma_and_tilting_module(self):
        a = builtin("exterior", 3, QQ)
        g = GammaData(a)
        refs = [weakref.ref(g), weakref.ref(g.tilting.module), weakref.ref(g.algebra)]
        del g
        assert a.dim == 8  # the algebra is alive, and nothing on it keeps Gamma
        assert all(r() is None for r in refs)

    def test_cover_sum_module(self):
        t = tilting_module(builtin("exterior", 3, QQ)).module
        ref = weakref.ref(cover_of(t).module)
        assert ref() is None


CERTIFIED = ([("truncated_polynomial", n) for n in range(3, 7)]
             + [("preprojective_A", n) for n in range(1, 5)]
             + [("exterior", n) for n in range(2, 4)])


class TestExtCertificate:
    @pytest.mark.parametrize("char", [0, 32003])
    @pytest.mark.parametrize("family, n", CERTIFIED)
    def test_certificate_agrees_with_the_computed_table(self, family, n, char):
        gamma = GammaData(builtin(family, n, FieldSpec(char)))
        t = gamma.tilting.module
        cert = ExtCertificate(t)
        assert cert.holds
        # the table stops its tower by the certificate's own degree
        # argument; cosyzygies through injective envelopes are the
        # independent reference
        assert {i: cosyzygy_entry(t, t, i) for i in range(-3, 4)} == {
            i: 0 if i else gamma.algebra.dim for i in range(-3, 4)}
        # the certificate reads the degrees of Omega T off the cover's kernel
        assert cert.syzygy_min_degree == min(syzygy(t).degrees, default=None)
        # the inductive step of the proof: Omega^k T stays in degrees >= 1
        m = t
        for _ in range(3):
            m = syzygy(m)
            assert all(d >= 1 for d in m.degrees)

    @pytest.mark.parametrize("char", [0, 32003])
    def test_certificate_holds_on_shifted_tilting_modules(self, char):
        # the certificate is the table's own degree test, which a shift
        # does not change: T(-1) reaches degree 1 and its syzygy starts at
        # 2, T(1) stops at -1 and its syzygy starts at 0; the independent
        # reference finds both tables zero off zero
        t = tilting_module(builtin("exterior", 3, FieldSpec(char))).module
        for j, report in ((-1, {"tilting_max_degree": 1, "syzygy_min_degree": 2}),
                          (1, {"tilting_max_degree": -1, "syzygy_min_degree": 0})):
            m = shift(t, j)
            cert = ExtCertificate(m)
            assert cert.as_dict() == report
            assert cert.holds
            assert all(cosyzygy_entry(m, m, i) == 0 for i in range(-3, 4) if i)

    def test_certificate_fails_where_the_table_is_nonzero(self):
        # over the dual numbers Omega S = S(-1), so S + S(-1) has Ext^1
        # against itself, and its degrees reach 1
        a = trunc(2)
        s = simple(a, 1)
        m, _ = direct_sum([s, shift(s, -1)])
        assert not ExtCertificate(m).holds
        assert stable_ext_table(m, m, 1)[1] > 0
