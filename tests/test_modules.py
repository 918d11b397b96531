"""Graded modules: constructors, homs, covers, duals, envelopes."""

import gc
import weakref
from itertools import product

import pytest

from qshape.algebra import (
    GradedAlgebra,
    QuiverPresentation,
    builtin,
    compile_quiver,
    degree_zero_part,
    jacobson_radical,
    primitive_idempotents,
)
from qshape.errors import NotSelfInjective
from qshape.fields import FieldSpec, QQ
from qshape.linalg import Echelon, apply_row
from qshape.modules import (
    HomSpace,
    ProjectiveCover,
    Submodule,
    cover_of,
    direct_sum,
    dual_of_regular,
    is_projective,
    is_self_injective,
    kernel_degrees,
    projective,
    regular,
    shift,
    simple,
    syzygy_of,
    truncate_le,
    zero_module,
)

from oracles import (
    MradCover,
    check_matrix,
    cosyzygy_of,
    cover_fields,
    dense_images,
    dual_module,
    epi_kernel,
    injective_envelope,
    isomorphic_projectives,
    map_rank,
    module_act,
    module_equal,
    naive_hom_basis,
    negatively_graded_algebras,
    QuotientModule,
    radical_submodule_span,
    socle,
    sparse_matmul,
    submodule_by_express,
    sum_maps,
    top,
    uncached_slice_basis,
    validate_map,
    validate_module,
    vec_iadd_scaled,
)

GF = FieldSpec(32003)
BUILTINS = ([("truncated_polynomial", n) for n in (2, 3, 6, 10)]
            + [("preprojective_A", n) for n in (1, 2, 3, 4)]
            + [("exterior", n) for n in (1, 2, 3)])


def trunc(n, field=QQ):
    return builtin("truncated_polynomial", n, field)


def truncate_ge(m, n):
    """The submodule of M in degrees >= n."""
    one = m.algebra.field.one()
    return Submodule(m, [{i: one} for i in range(m.dim) if m.degrees[i] >= n]).module


def enriched_hom_dims(m, n):
    """dim hom(M, N(i)) for every shift i at which M and N(i) share a degree."""
    if m.is_zero() or n.is_zero():
        return {}
    lo = min(n.degrees) - max(m.degrees)
    hi = max(n.degrees) - min(m.degrees)
    return {i: HomSpace(m, shift(n, i)).dim for i in range(lo, hi + 1)}


def linear_a2(field=QQ):
    return compile_quiver(
        QuiverPresentation(["1", "2"], [("a", "1", "2", 0)], [], 2), field
    )


class TestConstructors:
    def test_regular_local_projective_is_everything(self):
        a = trunc(3)
        assert module_equal(projective(a, 1), regular(a)) or projective(a, 1).dim == a.dim

    def test_preprojective_a2_slices(self):
        a = builtin("preprojective_A", 2, QQ)
        p1 = projective(a, 1)
        s1 = simple(a, 1)
        assert p1.dim == 2
        assert s1.dim == 1

    def test_simples_concentrated_in_degree_zero(self):
        for fam, par in (("truncated_polynomial", 3), ("preprojective_A", 3), ("exterior", 2)):
            a = builtin(fam, par, QQ)
            for i in range(1, len(a.idempotents) + 1):
                assert set(simple(a, i).degrees) <= {0}


class TestShift:
    def test_shift_zero_is_identity(self):
        m = regular(trunc(3))
        assert shift(m, 0) is m

    def test_shift_additive(self):
        m = regular(trunc(3))
        assert module_equal(shift(shift(m, 1), 2), shift(m, 3))

    def test_shift_regular_degrees(self):
        m = shift(regular(trunc(3)), 1)
        assert sorted(m.degrees) == [-1, 0, 1]


class TestTruncation:
    def test_simple_from_regular(self):
        a = trunc(2)
        t = truncate_le(regular(a), 0)
        assert t.dim == 1
        assert module_equal(t, simple(a, 1))

    def test_shift_then_truncate(self):
        t = truncate_le(shift(regular(trunc(3)), 1), 0)
        assert t.dim == 2
        assert sorted(t.degrees) == [-1, 0]

    def test_dimension_bookkeeping(self):
        m = regular(builtin("exterior", 2, QQ))
        for n in (-1, 0, 1, 2, 5):
            le = truncate_le(m, n)
            ge = truncate_ge(m, n + 1)
            assert le.dim + ge.dim == m.dim

    @pytest.mark.parametrize("char", [0, 32003])
    @pytest.mark.parametrize("family,n", BUILTINS)
    def test_restriction_matches_the_general_quotient(self, family, n, char):
        # the kept basis vectors, in index order, are the quotient's
        # coordinates, and each action row is the parent's with the
        # dropped columns removed
        a = builtin(family, n, FieldSpec(char))
        one = a.field.one()
        top_degree = max(a.degrees)
        for i in range(top_degree + 2):
            m = shift(regular(a), i)
            for cut in range(-i - 1, top_degree - i + 1):
                drop = [{r: one} for r in range(m.dim) if m.degrees[r] > cut]
                assert module_equal(truncate_le(m, cut), QuotientModule(m, drop).module)


class TestHom:
    def test_hom_from_regular_counts_degree_zero(self):
        for fam, par in (("truncated_polynomial", 3), ("preprojective_A", 2)):
            a = builtin(fam, par, QQ)
            for target in (regular(a), simple(a, 1)):
                h = HomSpace(regular(a), target)
                assert h.dim == sum(1 for d in target.degrees if d == 0)

    def test_simple_to_regular_vanishes(self):
        a = trunc(2)
        assert HomSpace(simple(a, 1), regular(a)).dim == 0

    def test_hom_from_projective_is_slice(self):
        a = builtin("preprojective_A", 3, QQ)
        for i in range(1, 4):
            p = projective(a, i)
            n = regular(a)
            h = HomSpace(p, n)
            # oracle: dim (N e_i)_0 by direct slice computation
            e = a.idempotents[i - 1]
            ech = Echelon(QQ)
            for j in range(n.dim):
                if n.degrees[j] == 0:
                    ech.insert(n.act({j: QQ.one()}, e))
            assert h.dim == ech.dim

    def test_matches_naive_commutant_oracle(self):
        a = builtin("preprojective_A", 2, QQ)
        mods = [regular(a), projective(a, 1), simple(a, 2),
                shift(projective(a, 2), 1)]
        for m in mods:
            for n in mods:
                expected = len(naive_hom_basis(m, n))
                assert HomSpace(m, n).dim == expected

    def test_naive_oracle_on_exterior(self):
        a = builtin("exterior", 2, QQ)
        t = truncate_le(shift(regular(a), 1), 0)
        for m, n in ((t, t), (t, regular(a)), (regular(a), t)):
            assert HomSpace(m, n).dim == len(naive_hom_basis(m, n))

    def test_basis_maps_are_valid(self):
        a = builtin("preprojective_A", 2, QQ)
        m = shift(projective(a, 2), 1)
        n = regular(a)
        hom = HomSpace(m, n)
        for c in hom.basis_coords:
            validate_map(m, n, hom.map_of(hom.images(c)))  # raises on a bad map

    def test_hom_enriched_of_regular(self):
        a = trunc(2)
        dims = {i: d for i, d in enriched_hom_dims(regular(a), regular(a)).items() if d}
        assert dims == {0: 1, 1: 1}

    def test_disjoint_degree_supports_give_zero(self):
        a = trunc(2)
        m = shift(regular(a), 10)
        assert HomSpace(m, regular(a)).dim == 0
        # the enriched table recovers the total dim at the overlapping shifts
        assert sum(enriched_hom_dims(m, regular(a)).values()) == a.dim

    def test_shift_invariance(self):
        a = builtin("exterior", 2, QQ)
        m = truncate_le(shift(regular(a), 1), 0)
        n = regular(a)
        for j in (-2, 1, 3):
            assert HomSpace(m, n).dim == HomSpace(shift(m, j), shift(n, j)).dim


def rescaled(a):
    """The same algebra on the basis (k + 2).b_k, whose characters of
    Lambda/rad take values other than 0 and 1."""
    f = a.field
    s = [f.from_int(k + 2) for k in range(a.dim)]
    inv = [f.inv(x) for x in s]
    move = lambda v: {k: f.mul(c, inv[k]) for k, c in v.items()}
    mult = [{j: {k: f.mul(f.mul(f.mul(s[i], s[j]), c), inv[k]) for k, c in w.items()}
             for j, w in row.items()} for i, row in enumerate(a.mult)]
    return GradedAlgebra(f, a.degrees, mult, move(a.unit),
                         idempotents=[move(e) for e in a.idempotents],
                         radical_hint=[move(v) for v in a.radical_hint])


class TestTopSocle:
    def test_top_of_projective_is_simple(self):
        # the simples read off the characters of Lambda/rad are the tops of
        # the projectives, over the algebra, over its degree-0 part and on a
        # rescaled basis
        for (family, n), field in product(BUILTINS, (QQ, GF)):
            a = builtin(family, n, field)
            for b in (a, degree_zero_part(a), rescaled(a)):
                for i in range(1, len(primitive_idempotents(b)) + 1):
                    assert module_equal(top(projective(b, i)), simple(b, i))

    def test_socle_of_truncated_regular(self):
        n = 4
        m = regular(trunc(n))
        s, _ = socle(m)
        assert s.dim == 1
        assert s.degrees == [n - 1]

    def test_top_of_semisimple_is_itself(self):
        a = builtin("preprojective_A", 2, QQ)
        s = simple(a, 1)
        assert top(s).dim == s.dim


class TestCovers:
    def test_cover_of_projective_is_iso(self):
        a = builtin("exterior", 2, QQ)
        cov = cover_of(regular(a))
        assert cov.module.dim == a.dim == map_rank(QQ, cov.epi_rows)

    def test_cover_of_simple(self):
        a = builtin("preprojective_A", 2, QQ)
        cov = cover_of(simple(a, 1))
        assert cov.module.dim == projective(a, 1).dim
        assert map_rank(QQ, cov.epi_rows) == simple(a, 1).dim

    def test_cover_of_truncated_shift(self):
        a = trunc(3)
        m = truncate_le(shift(regular(a), 1), 0)
        p = cover_of(m).module
        assert module_equal(p, shift(regular(a), 1))
        assert p.dim - m.dim == 1  # kernel dim 1

    def test_syzygy_of_projective_is_zero(self):
        a = trunc(3)
        assert syzygy_of(regular(a)).dim == 0

    def test_syzygy_of_simple_over_dual_numbers(self):
        a = trunc(2)
        s = syzygy_of(simple(a, 1))
        assert s.dim == 1
        assert s.degrees == [1]


def syzygy_witnesses(a):
    """T, its syzygy, the simples and the regular module."""
    from qshape.tilting import tilting_module

    t = tilting_module(a).module
    return ([t, syzygy_of(t)]
            + [simple(a, i) for i in range(1, len(primitive_idempotents(a)) + 1)]
            + [regular(a)])


def fresh_copy(m):
    """m as a new module with no cache, so a test may alter its cover."""
    from qshape.modules import GradedModule

    return GradedModule(m.algebra, m.degrees, m.action)


def count_submodules(monkeypatch):
    """Record each Submodule that qshape.modules builds from now on."""
    import qshape.modules

    built = []

    def counting(parent, vectors):
        built.append(parent.dim)
        return Submodule(parent, vectors)

    monkeypatch.setattr(qshape.modules, "Submodule", counting)
    return built


class TestLazySyzygy:
    @pytest.mark.parametrize("char", [0, 32003])
    @pytest.mark.parametrize("family,n", BUILTINS)
    def test_equals_the_eager_submodule(self, family, n, char):
        # syzygy_of is the Submodule the kernel rows span, and the degrees
        # that kernel_degrees reads off the cover, which the Ext walk
        # decides on, are its degrees
        a = builtin(family, n, FieldSpec(char))
        for m in syzygy_witnesses(a):
            cov = cover_of(m)
            eager = Submodule(cov.module, cov.kernel_rows).module
            omega = syzygy_of(m)
            assert (omega.dim, omega.degrees) == (eager.dim, eager.degrees)
            assert omega.degrees == kernel_degrees(cov)
            assert module_equal(omega, eager)
            assert cover_of(m) is cov

    def test_non_homogeneous_kernel_row_raises_at_syzygy_of(self):
        a = trunc(3)
        m = fresh_copy(simple(a, 1))
        cov = cover_of(m)
        one = a.field.one()
        cov.kernel_rows = [{cov.degrees.index(1): one, cov.degrees.index(2): one}]
        with pytest.raises(ValueError, match="homogeneous"):
            syzygy_of(m)

    def test_span_not_closed_raises_on_first_read(self):
        # x spans no submodule of k[x]/x^3: the closure check fails when
        # the syzygy is taken
        a = trunc(3)
        m = fresh_copy(simple(a, 1))
        cov = cover_of(m)
        cov.kernel_rows = [{cov.degrees.index(1): a.field.one()}]
        with pytest.raises(ValueError, match="span is not closed under the action"):
            syzygy_of(m)

    def test_global_dimension_builds_bound_actions(self, monkeypatch):
        # the loop stops at the syzygy at depth bound, which is not
        # projective, before it takes the next one
        from qshape.algebra import EXCEEDS_BOUND, global_dimension_bounded

        pres = QuiverPresentation(["v"], [("x", "v", "v", 0)], [[(1, ("x", "x"))]], 2)
        a = compile_quiver(pres, QQ)
        projective(a, 1)
        built = count_submodules(monkeypatch)
        assert global_dimension_bounded(a, 4) == EXCEEDS_BOUND
        assert len(built) == 4


class TestDuality:
    def test_dual_preserves_dim_negates_degrees(self):
        a = builtin("preprojective_A", 2, QQ)
        m = projective(a, 1)
        d = dual_module(m)
        assert d.dim == m.dim
        assert sorted(d.degrees) == sorted(-x for x in m.degrees)

    def test_double_dual_identity(self):
        a = builtin("preprojective_A", 2, QQ)
        m = projective(a, 2)
        assert module_equal(dual_module(dual_module(m)), m)

    def test_dual_of_regular_degrees(self):
        d = dual_of_regular(trunc(2))
        assert sorted(d.degrees) == [-1, 0]

    def test_dual_of_regular_is_shifted_regular_for_truncated(self):
        for n in (2, 3, 4):
            a = trunc(n)
            lam_star = dual_of_regular(a)
            assert isomorphic_projectives(lam_star, shift(regular(a), n - 1))
            assert not isomorphic_projectives(lam_star, shift(regular(a), n - 2))

    def test_dual_of_regular_projective_for_preprojective(self):
        a = builtin("preprojective_A", 2, QQ)
        m = dual_of_regular(a)
        assert m.dim == 4
        assert is_projective(m)


class TestSelfInjectivity:
    def test_families_are_self_injective(self):
        for fam, par in (
            ("truncated_polynomial", 2),
            ("truncated_polynomial", 5),
            ("exterior", 2),
            ("exterior", 3),
            ("preprojective_A", 2),
            ("preprojective_A", 3),
        ):
            assert is_self_injective(builtin(fam, par, QQ))

    def test_linear_quiver_is_not(self):
        assert not is_self_injective(linear_a2())

    def test_projectivity_matches_dual_projectivity(self):
        a = builtin("exterior", 2, QQ)
        for m in (regular(a), simple(a, 1)):
            assert is_projective(m) == is_projective(dual_module(m))


class TestEnvelopes:
    def test_envelope_of_projective_injective(self):
        a = trunc(3)
        env, mono = injective_envelope(regular(a))
        assert env.dim == a.dim == map_rank(QQ, mono)

    def test_envelope_of_simple_over_dual_numbers(self):
        a = trunc(2)
        env, mono = injective_envelope(simple(a, 1))
        assert env.dim == 2
        s, _ = socle(env)
        assert s.degrees == [0]

    def test_envelope_of_zero(self):
        a = trunc(2)
        env, mono = injective_envelope(zero_module(a))
        assert env.dim == 0

    def test_requires_self_injective(self):
        a = linear_a2()
        with pytest.raises(NotSelfInjective):
            injective_envelope(simple(a, 1))

    def test_cosyzygy_of_simple(self):
        a = trunc(2)
        c = cosyzygy_of(simple(a, 1))
        assert c.dim == 1


class TestDirectSum:
    def test_block_dims(self):
        a = trunc(3)
        m, incs, prjs = sum_maps([regular(a), simple(a, 1)])
        assert m.dim == 4
        assert sparse_matmul(QQ, incs[0], prjs[0]) == {
            r: {r: QQ.one()} for r in range(a.dim)}
        assert sparse_matmul(QQ, incs[0], prjs[1]) == {}


def test_projectivity_independent_of_field():
    for field in (QQ, GF):
        a = builtin("exterior", 2, field)
        assert is_self_injective(a)
        assert not is_projective(simple(a, 1))


class TestEdgeCases:
    def test_zero_module_is_projective(self):
        a = trunc(2)
        assert is_projective(zero_module(a))

    def test_enriched_hom_of_simples_over_local(self):
        a = trunc(3)
        s = simple(a, 1)
        assert enriched_hom_dims(s, s) == {0: 1}

    def test_dual_of_regular_semisimple_is_regular(self):
        a = builtin("preprojective_A", 1, QQ)
        assert isomorphic_projectives(dual_of_regular(a), regular(a))


class TestFastPathsValidate:
    def test_dual_module_axioms(self):
        a = builtin("preprojective_A", 2, QQ)
        validate_module(dual_module(projective(a, 1)))

    def test_syzygy_module_axioms(self):
        a = builtin("exterior", 2, QQ)
        validate_module(syzygy_of(simple(a, 1)))


COVER_CASES = [(family, n, char)
               for family, n in (("exterior", 3), ("preprojective_A", 3),
                                 ("truncated_polynomial", 5))
               for char in (0, 32003)]


def cover_witnesses(a):
    """T, its first two syzygies, shifted simples, Lambda(1)_{<=0} and the
    extension of T to Lambda (x) k[x]/x^2."""
    from qshape.basechange import TensorAlgebra, i_star, ungrade
    from qshape.tilting import tilting_module

    t = tilting_module(a).module
    dual_numbers = ungrade(builtin("truncated_polynomial", 2, a.field))
    simples = [shift(simple(a, i), j)
               for i in range(1, len(primitive_idempotents(a)) + 1) for j in (-1, 2)]
    return ([t, syzygy_of(t), syzygy_of(syzygy_of(t))] + simples
            + [truncate_le(shift(regular(a), 1), 0),
               i_star(t, TensorAlgebra(a, dual_numbers))])


class TestInternalRoundtrips:
    def test_hom_basis_expresses_as_unit_vectors(self):
        a = builtin("preprojective_A", 2, QQ)
        m = shift(projective(a, 2), 1)
        h = HomSpace(m, regular(a))
        for q, c in enumerate(h.basis_coords):
            coeffs = h.basis_coeffs(h.coords_of_matrix(h.map_of(h.images(c))))
            assert coeffs == {q: QQ.one()}

    @pytest.mark.parametrize("family,n,char", COVER_CASES)
    def test_cover_section_is_a_section(self, family, n, char):
        # the section rows are the tags of the epi's echelon
        a = builtin(family, n, FieldSpec(char))
        for m in cover_witnesses(a):
            f = m.algebra.field
            cov = cover_of(m)
            composite = sparse_matmul(f, cov.section_rows, cov.epi_rows)
            assert composite == {r: {r: f.one()} for r in range(m.dim)}

    def test_envelope_mono_is_a_module_map(self):
        a = builtin("exterior", 2, QQ)
        env, mono = injective_envelope(simple(a, 1))
        validate_map(simple(a, 1), env, mono)

    def test_cover_epi_is_a_module_map(self):
        a = builtin("preprojective_A", 3, QQ)
        t = truncate_le(shift(regular(a), 1), 0)
        cov = cover_of(t)
        validate_map(cov.module, t, cov.epi_rows)


def map_by_projecting_the_section(hom, coords):
    """Reference map_of: project the section row of every basis vector onto
    each cover summand and read the block as an algebra element, per map."""
    cov = cover_of(hom.source)
    f = hom.source.algebra.field
    projections = sum_maps([s.module for s in cov.summands])[2] if cov.summands else []
    images = hom.images(coords)
    rows = {}
    for i, sec in cov.section_rows.items():
        out = {}
        for t, prj in enumerate(projections):
            blk = apply_row(f, sec, prj)
            if blk:
                u = cov.summands[t].algebra_coords(blk)
                vec_iadd_scaled(f, out, hom.target.act(images.get(t, {}), u), f.one())
        if out:
            rows[i] = out
    return rows


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("family,n", [("exterior", 3), ("preprojective_A", 3),
                                      ("truncated_polynomial", 6)])
def test_map_of_matches_projecting_the_section(family, n, char):
    from qshape.tilting import tilting_module

    a = builtin(family, n, FieldSpec(char))
    t = tilting_module(a).module
    modules = [t, syzygy_of(t), cosyzygy_of(t), regular(a), simple(a, 1),
               direct_sum([t, regular(a)])[0]]
    maps = 0
    for m in modules:
        for target in (t, m, simple(a, 1)):
            hom = HomSpace(m, target)
            for c in hom.basis_coords:
                assert hom.map_of(hom.images(c)) == map_by_projecting_the_section(hom, c)
                maps += 1
    assert maps


def projected_blocks(cov, vec):
    """The nonzero blocks of a vector of P, as (summand index, algebra
    element) pairs in summand order, read through the projections of the
    sum of the summands."""
    f = cov.summands[0].module.algebra.field
    blocks = []
    for t, prj in enumerate(sum_maps([s.module for s in cov.summands])[2]):
        blk = apply_row(f, vec, prj)
        if blk:
            blocks.append((t, cov.summands[t].algebra_coords(blk)))
    return blocks


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("family,n", [("exterior", 3), ("preprojective_A", 3)])
def test_map_of_walks_the_terms_by_summand_in_order(family, n, char):
    # the terms grouped by summand are the section terms, and the rows come
    # in increasing index order, each summing its terms in summand order,
    # as walking every section term of every row does; the kernel rows are
    # grouped by summand the same way
    from qshape.tilting import tilting_module

    a = builtin(family, n, FieldSpec(char))
    t = tilting_module(a).module
    for m in (t, syzygy_of(t), direct_sum([t, regular(a)])[0]):
        cov = cover_of(m)
        for groups, rows in ((cov.terms_by_summand, cov.section_rows),
                             (cov.kernel_by_summand, dict(enumerate(cov.kernel_rows)))):
            by_row = {i: [] for i in rows}
            for k, group in enumerate(groups):
                assert [i for i, _ in group] == sorted({i for i, _ in group})
                for i, u in group:
                    by_row[i].append((k, u))
            assert by_row == {i: projected_blocks(cov, vec) for i, vec in rows.items()}
        for target in (t, m):
            hom = HomSpace(m, target)
            for c in hom.basis_coords:
                ours, ref = hom.map_of(hom.images(c)), map_by_projecting_the_section(hom, c)
                assert [(i, list(r.items())) for i, r in ours.items()] == \
                    [(i, list(r.items())) for i, r in ref.items()]


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("family,n", [("exterior", 3), ("preprojective_A", 3)])
def test_cover_module_is_the_direct_sum_of_its_summands(family, n, char):
    # the cover's P is the sum of its summands, and the inclusions and
    # projections read off the sum's offsets split it
    from qshape.tilting import tilting_module

    a = builtin(family, n, FieldSpec(char))
    t = tilting_module(a).module
    for m in (t, syzygy_of(t), regular(a), simple(a, 1)):
        cov = cover_of(m)
        summands = [s.module for s in cov.summands]
        total, incs, prjs = sum_maps(summands)
        assert (cov.dim, cov.degrees) == (cov.module.dim, cov.module.degrees)
        assert module_equal(cov.module, total)
        for i, (inc, s) in enumerate(zip(incs, summands)):
            validate_map(s, total, inc)
            validate_map(total, s, prjs[i])
            for j, prj in enumerate(prjs):
                back = sparse_matmul(a.field, inc, prj)
                if i == j:
                    assert back == {r: {r: a.field.one()} for r in range(s.dim)}
                else:
                    assert back == {}


class TestCoverLifetime:
    def test_cached_cover_does_not_keep_its_module_alive(self):
        # the module caches its cover; were the cover to refer back to the
        # module, only the cyclic collector could free either
        a = builtin("exterior", 2, QQ)
        gc.collect()
        gc.disable()
        try:
            m = truncate_le(shift(regular(a), 1), 0)
            cov = cover_of(m)
            syzygy_of(m)
            assert HomSpace(m, m).dim > 0
            ref = weakref.ref(m)
            del m
            assert ref() is None
            assert cov.module.dim > 0
        finally:
            gc.enable()


@pytest.mark.parametrize("family,n,char", COVER_CASES)
def test_cover_kernel_matches_the_transposed_system(family, n, char):
    a = builtin(family, n, FieldSpec(char))
    f = a.field
    for m in cover_witnesses(a):
        cov = cover_of(m)
        ref = epi_kernel(f, cov.epi_rows, cov.module.dim)
        assert len(cov.kernel_rows) == len(ref) == cov.module.dim - m.dim
        own, span = Echelon(f), Echelon(f)
        own.extend(cov.kernel_rows)
        span.extend(ref)
        assert own.dim == len(ref)
        assert all(span.contains(k) for k in cov.kernel_rows)
        assert module_equal(syzygy_of(m), Submodule(cov.module, ref).module)


@pytest.mark.parametrize("family,n,char", COVER_CASES)
def test_cached_slices_match_a_fresh_solve(family, n, char):
    # each slice (M_d).e_i is solved once per module and then read back
    from qshape.modules import _slice_basis
    from qshape.tilting import tilting_module

    a = builtin(family, n, FieldSpec(char))
    t = tilting_module(a).module
    for m in (t, syzygy_of(t)):
        for i in range(1, len(primitive_idempotents(a)) + 1):
            for d in sorted(set(m.degrees)):
                basis = _slice_basis(m, i, d)
                assert basis == uncached_slice_basis(m, i, d)
                assert _slice_basis(m, i, d) is basis


@pytest.mark.parametrize("family,n,char", COVER_CASES)
def test_component_indices_are_the_linear_scan(family, n, char):
    # the degree index answers every degree as a scan of the degree list
    # does, absent degrees included, and the slice of an absent degree is
    # empty with nothing solved or cached
    from qshape.modules import _slice_basis
    from qshape.tilting import tilting_module

    a = builtin(family, n, FieldSpec(char))
    t = tilting_module(a).module
    for m in (t, syzygy_of(t), shift(dual_of_regular(a), 2), zero_module(a)):
        present = set(m.degrees)
        for d in range(min(present, default=0) - 2, max(present, default=0) + 3):
            assert m.component_indices(d) == [k for k, deg in enumerate(m.degrees) if deg == d]
            if d not in present:
                assert _slice_basis(m, 1, d) == []
                assert ("slice", 1, d) not in m._cache


@pytest.mark.parametrize("char", [0, 32003])
def test_homs_out_of_one_source_split_each_kernel_row_once(monkeypatch, char):
    # the kernel rows are cut into summand blocks once per cover, however
    # many homs out of its module build a system: two homs into different
    # targets, then a stable End that solves homs into cover summands too
    from qshape.stable import StableHomSpace
    from qshape.tilting import tilting_module

    a = builtin("preprojective_A", 3, FieldSpec(char))
    t = tilting_module(a).module
    real = ProjectiveCover._by_summand
    split = []

    def spy(cov, rows):
        rows = list(rows)
        split.extend(id(vec) for _, vec in rows)
        return real(cov, rows)

    monkeypatch.setattr(ProjectiveCover, "_by_summand", spy)
    homs = [HomSpace(t, t), HomSpace(t, regular(a)), StableHomSpace(t, t).hom]
    assert all(hom.dim for hom in homs)
    kernel = [id(row) for row in cover_of(t).kernel_rows]
    assert kernel
    assert sorted(i for i in split if i in set(kernel)) == sorted(kernel)


@pytest.mark.parametrize("family,n,char", COVER_CASES)
def test_homs_into_one_target_agree(family, n, char):
    # a second hom into the same target reads the cached slices; a copy of
    # the target with no cache solves them afresh
    from qshape.modules import GradedModule
    from qshape.tilting import tilting_module

    a = builtin(family, n, FieldSpec(char))
    t = tilting_module(a).module
    one = a.field.one()
    for m in (t, syzygy_of(t), regular(a), simple(a, 1)):
        for target in (t, regular(a)):
            first, second = HomSpace(m, target), HomSpace(m, target)
            fresh = HomSpace(m, GradedModule(a, target.degrees, target.action))
            assert first.basis_coords == second.basis_coords == fresh.basis_coords
            for q, c in enumerate(second.basis_coords):
                rows = second.map_of(second.images(c))
                assert second.basis_coeffs(second.coords_of_matrix(rows)) == {q: one}


def witness_homs(a):
    ws = cover_witnesses(a)
    return [HomSpace(m, n) for m in ws for n in ws if m.algebra is n.algebra]


def sample_coords(hom):
    """Each basis map, their sum (keys ascending and descending), and a map
    with every slice coordinate set."""
    f = hom.source.algebra.field
    total = {}
    for c in hom.basis_coords:
        vec_iadd_scaled(f, total, c, f.one())
    descending = dict(sorted(total.items(), reverse=True))
    full = {q: f.from_int(q + 2) for q in range(hom.coord_dim)}
    return list(hom.basis_coords) + [total, descending, full, {}]


@pytest.mark.parametrize("family,n,char", COVER_CASES)
def test_images_read_only_the_nonzero_coordinates(family, n, char):
    # equal key order too: the eliminations that read the images pick their
    # pivots in that order
    a = builtin(family, n, FieldSpec(char))
    for hom in witness_homs(a):
        for c in sample_coords(hom):
            got, ref = hom.images(c), dense_images(hom, c)
            assert got == ref
            assert [(t, list(x)) for t, x in got.items()] == \
                [(t, list(x)) for t, x in ref.items()]


@pytest.mark.parametrize("family,n,char", COVER_CASES)
def test_coords_of_images_skips_zero_images(family, n, char):
    # a zero or absent image adds no coordinate: the images with zeros left
    # out, the same with every summand padded by an explicit zero, and the
    # coordinates they were read from all agree
    a = builtin(family, n, FieldSpec(char))
    zero_images = 0
    for hom in witness_homs(a):
        for c in sample_coords(hom):
            images = hom.images(c)
            assert all(images.values())
            zero_images += len(hom.slices) - len(images)
            padded = {t: images.get(t, {}) for t in range(len(hom.slices))}
            assert hom.coords_of_images(images) == hom.coords_of_images(padded) == c
            for t in range(len(hom.slices)):
                assert hom.coords_of_images({t: {}}) == {}
                # each image adds the coordinates of its own slice only
                block = range(hom.offsets[t], hom.offsets[t] + len(hom.slices[t]))
                assert hom.coords_of_images({t: images.get(t, {})}) == \
                    {q: x for q, x in c.items() if q in block}
    assert zero_images


def tagged_echelon(field, vecs):
    ech = Echelon(field, tagged=True)
    ech.extend(vecs)
    return ech


def slice_coords_by_express(hom, images):
    """Slice coordinates of these generator images through a tagged echelon
    of each slice basis, or None when an image leaves its slice."""
    f = hom.source.algebra.field
    coords = {}
    for t, img in images.items():
        expr = tagged_echelon(f, hom.slices[t]).express(img)
        if expr is None:
            return None
        coords.update((hom.offsets[t] + pos, x) for pos, x in expr.items())
    return coords


def near_slice_images(hom):
    """(t, image) pairs just outside each nonzero slice: its first basis
    vector plus a unit vector at a non-pivot column of the slice's support,
    or at a coordinate of another degree, so the entries at the pivots are
    a slice vector's and the rest is not; at most three per summand."""
    f = hom.source.algebra.field
    one = f.one()
    degrees = hom.target.degrees
    for t, (basis, s) in enumerate(zip(hom.slices, hom._cov.summands)):
        if not basis:
            continue
        pivots = {min(b) for b in basis}
        support = sorted({k for b in basis for k in b} - pivots)
        other = [j for j, d in enumerate(degrees) if d != s.gen_degree][:1]
        for j in (support[:2] + other):
            yield t, vec_iadd_scaled(f, dict(basis[0]), {j: one}, one)


@pytest.mark.parametrize("family,n,char", COVER_CASES)
def test_coords_and_coeffs_match_tagged_echelon_oracle(family, n, char):
    # slice coordinates and basis coefficients are read off reduced rows;
    # a tagged echelon of the same rows expresses them by elimination, and
    # rejects what leaves the span
    a = builtin(family, n, FieldSpec(char))
    f = a.field
    rejected = near = 0
    for hom in witness_homs(a):
        basis_ech = tagged_echelon(f, hom.basis_coords)
        for c in sample_coords(hom):
            images = hom.images(c)
            assert hom.coords_of_images(images) == slice_coords_by_express(hom, images)
            expected = basis_ech.express(c)
            assert hom.basis_coeffs(c) == expected
            rejected += expected is None
        for t, img in near_slice_images(hom):
            assert slice_coords_by_express(hom, {t: img}) is None
            with pytest.raises(ValueError, match="leaves the idempotent slice"):
                hom.coords_of_images({t: img})
            near += 1
    assert rejected and near


@pytest.mark.parametrize("family,n,char", COVER_CASES)
def test_coordinates_off_the_hom_are_not_a_module_map(family, n, char):
    # a slice coordinate vector that the hom's basis does not span is no
    # module map: basis_coeffs says so, and the stable class of its images
    # is refused
    from qshape.stable import StableHomSpace

    a = builtin(family, n, FieldSpec(char))
    one = a.field.one()
    checked = 0
    for hom in witness_homs(a):
        if hom.coord_dim == hom.dim:
            continue
        basis_ech = tagged_echelon(a.field, hom.basis_coords)
        q = next(q for q in range(hom.coord_dim) if not basis_ech.contains({q: one}))
        assert hom.basis_coeffs({q: one}) is None
        stable = StableHomSpace(hom.source, hom.target)
        with pytest.raises(ValueError, match="map is not a module map"):
            stable._class_coords({q: one})
        with pytest.raises(ValueError, match="map is not a module map"):
            stable.class_coords_of_images(hom.images({q: one}))
        checked += 1
    assert checked


@pytest.mark.parametrize("family,n,char", COVER_CASES)
def test_coords_of_images_rejects_an_image_outside_its_slice(family, n, char):
    a = builtin(family, n, FieldSpec(char))
    one = a.field.one()
    checked = 0
    for hom in witness_homs(a):
        target = hom.target
        for t, s in enumerate(hom._cov.summands):
            # a target basis vector of another degree is outside (N_d).e_i
            off = [j for j, d in enumerate(target.degrees) if d != s.gen_degree]
            if not off:
                continue
            with pytest.raises(ValueError, match="leaves the idempotent slice"):
                hom.coords_of_images({t: {off[0]: one}})
            checked += 1
    assert checked


@pytest.mark.parametrize("char", [0, 32003])
def test_zero_by_degree_hom_is_zero(char):
    # Lambda(-10) and Lambda share no degree, so every slice (N_d).e_i of a
    # generator degree d is zero: the hom is 0 and its slices are empty
    a = builtin("exterior", 2, FieldSpec(char))
    f = a.field
    hom = HomSpace(shift(regular(a), 10), regular(a))
    assert hom.dim == 0
    assert hom.coords_of_matrix({}) == {}
    assert hom.map_of({}) == {}
    assert hom.coord_dim == 0
    with pytest.raises(ValueError, match="leaves the idempotent slice"):
        hom.coords_of_images({0: {0: f.one()}})


@pytest.mark.parametrize("family,n,char", COVER_CASES)
def test_radical_span_from_generators_is_the_whole_radical_span(family, n, char):
    # M.rad from the radical's generators V equals M.rad from its whole
    # basis, and V spans the radical modulo its square
    a = builtin(family, n, FieldSpec(char))
    f = a.field
    rad = jacobson_radical(a)
    square = Echelon(f)
    square.extend(a.product(u, v) for u in rad.basis for v in rad.basis)
    assert len(rad.gens) == len(rad.basis) - square.dim
    square.extend(rad.gens)
    assert square.dim == len(rad.basis)
    for m in cover_witnesses(a):
        r = jacobson_radical(m.algebra)
        ours, whole = Echelon(f), Echelon(f)
        ours.extend(radical_submodule_span(m))
        whole.extend(row for x in r.basis for row in m.action_of(x).values())
        assert ours.basis() == whole.basis()


@pytest.mark.parametrize("char", [0, 32003])
def test_fresh_cover_eliminates_once(monkeypatch, char):
    # the kernel comes from the epi's own echelon: no second kernel solve;
    # and the only radical rows a cover forms are the rows M.v of the
    # radical generators v of degree <= 0, which that echelon does not span
    import qshape.modules as modules
    from qshape.basechange import TensorAlgebra, i_star, ungrade

    def no_kernel_solve(*args):
        raise AssertionError("a cover solved a second system for its kernel")

    real_action_of = modules.GradedModule.action_of
    acted = []

    def recorded_action_of(self, alg_vec):
        acted.append((self, alg_vec))
        return real_action_of(self, alg_vec)

    def degree_zero_gens(alg):
        return [v for v in jacobson_radical(alg).gens if alg.degrees[min(v)] <= 0]

    f = FieldSpec(char)
    coefficients = ungrade(builtin("preprojective_A", 2, f))
    for family, n in (("exterior", 3), ("preprojective_A", 3), ("truncated_polynomial", 5)):
        a = builtin(family, n, f)
        tensor = TensorAlgebra(a, coefficients)
        # preprojective_A puts one arrow of each pair in degree 0; the
        # ungraded coefficients put theirs there too
        assert bool(degree_zero_gens(a)) == (family == "preprojective_A")
        assert degree_zero_gens(tensor.product)
        for module, explicit in ((truncate_le(shift(regular(a), 1), 0), degree_zero_gens(a)),
                                 (i_star(regular(a), tensor), degree_zero_gens(tensor.product))):
            with monkeypatch.context() as patch:
                patch.setattr(modules, "sparse_kernel", no_kernel_solve)
                patch.setattr(modules.GradedModule, "action_of", recorded_action_of)
                for _ in range(2):  # the module, then its syzygy
                    acted.clear()
                    modules.cover_of(module)
                    assert all(x is module for x, _ in acted)
                    assert [v for _, v in acted] == explicit
                    module = syzygy_of(module)


def cover_comparison_modules(a):
    """T, its syzygies to the third, the simples, the projectives, the
    regular module and the dual of the regular module."""
    from qshape.tilting import tilting_module

    t = tilting_module(a).module
    tower = [t]
    for _ in range(3):
        tower.append(syzygy_of(tower[-1]))
    idems = range(1, len(primitive_idempotents(a)) + 1)
    return (tower + [simple(a, i) for i in idems] + [projective(a, i) for i in idems]
            + [regular(a), dual_of_regular(a)])


def assert_covers_match_the_mrad_cover(modules):
    for m in modules:
        assert cover_fields(ProjectiveCover(m)) == cover_fields(MradCover(m))


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("family,n", BUILTINS)
def test_cover_matches_the_mrad_cover(family, n, char):
    # tops decided against the epi echelon give the cover that an echelon
    # of all of M.rad gives, field for field
    assert_covers_match_the_mrad_cover(cover_comparison_modules(builtin(family, n, FieldSpec(char))))


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("family,n", [("truncated_polynomial", 3), ("exterior", 2),
                                      ("preprojective_A", 2), ("preprojective_A", 3)])
def test_cover_over_a_tensor_matches_the_mrad_cover(family, n, char):
    # Lambda (x) A with A ungraded has radical generators in degree 0,
    # whose rows M.v the cover spans beside its epi echelon
    from qshape.basechange import TensorAlgebra, i_star, ungrade
    from qshape.tilting import tilting_module

    f = FieldSpec(char)
    a = builtin(family, n, f)
    tensor = TensorAlgebra(a, ungrade(builtin("preprojective_A", 2, f)))
    t = tilting_module(a).module
    extended = [i_star(t, tensor), i_star(regular(a), tensor)]
    assert_covers_match_the_mrad_cover(extended + [syzygy_of(x) for x in extended])


@pytest.mark.parametrize("char", [0, 32003])
def test_cover_over_a_negatively_graded_algebra_matches_the_mrad_cover(char):
    # with a negative degree every radical generator's rows are spanned
    for a in negatively_graded_algebras(FieldSpec(char)):
        assert not a.is_nonnegatively_graded()
        idems = range(1, len(primitive_idempotents(a)) + 1)
        simples = [shift(simple(a, i), j) for i in idems for j in (-1, 0, 2)]
        modules = (simples + [syzygy_of(x) for x in simples]
                   + [regular(a), dual_of_regular(a),
                      direct_sum([regular(a), shift(dual_of_regular(a), 1)] + simples)[0]])
        assert any(cover_of(x).kernel_rows for x in modules)
        assert_covers_match_the_mrad_cover(modules)


@pytest.mark.parametrize("char", [0, 32003])
def test_a_redundant_generator_fails_the_minimality_check(monkeypatch, char):
    # an echelon that once calls a dependent candidate independent makes the
    # cover take one generator too many: its epi is still onto, and only the
    # kernel-in-P.rad check sees it
    import qshape.modules as modules

    class OnceFooled(Echelon):
        fooled = False

        def reduce(self, vec):
            res = super().reduce(vec)
            if not res and self.tagged and not OnceFooled.fooled:
                OnceFooled.fooled = True
                return dict(vec)
            return res

    for family, n in (("truncated_polynomial", 3), ("exterior", 2)):
        a = builtin(family, n, FieldSpec(char))
        reg = regular(a)
        assert cover_of(reg).dim == reg.dim  # warms the radical and the simples
        fresh = modules.GradedModule(a, reg.degrees, reg.action)
        OnceFooled.fooled = False
        with monkeypatch.context() as patch:
            patch.setattr(modules, "Echelon", OnceFooled)
            with pytest.raises(ValueError, match="cover is not minimal"):
                ProjectiveCover(fresh)
        assert OnceFooled.fooled
        assert cover_fields(ProjectiveCover(fresh)) == cover_fields(MradCover(fresh))


@pytest.mark.parametrize("char", [0, 32003])
def test_submodule_builds_no_tagged_echelon(monkeypatch, char):
    import qshape.modules as modules
    from qshape.tilting import tilting_module

    class Untagged(Echelon):
        def __init__(self, field, tagged=False):
            assert not tagged, "Submodule built a tagged echelon"
            super().__init__(field)

    a = builtin("exterior", 3, FieldSpec(char))
    t = tilting_module(a).module
    cov = cover_of(t)
    reg = regular(a)
    monkeypatch.setattr(modules, "Echelon", Untagged)
    assert Submodule(cov.module, cov.kernel_rows).module.dim == cov.module.dim - t.dim
    assert truncate_ge(t, 1).dim == sum(1 for d in t.degrees if d >= 1)
    e = primitive_idempotents(a)[0]
    spanning = [reg.act(e, a.basis_vec(j)) for j in range(a.dim)]
    assert module_equal(Submodule(reg, spanning).module, projective(a, 1))


@pytest.mark.parametrize("family,n,char", COVER_CASES)
def test_submodule_coordinates_match_the_tagged_echelon(family, n, char):
    from qshape.tilting import tilting_module

    # the dense change of basis gives idempotents and action rows with many
    # entries, so a span row meets many live rows of the action
    from test_algebra import unitriangular_changed

    base = builtin(family, n, FieldSpec(char))
    cases = []
    for a in (base, unitriangular_changed(base)):
        one = a.field.one()
        t = tilting_module(a).module
        reg = regular(a)
        for m in (t, syzygy_of(t)):
            cov = cover_of(m)
            cases.append((cov.module, cov.kernel_rows))
        for e in primitive_idempotents(a):
            cases.append((reg, [reg.act(e, a.basis_vec(j)) for j in range(a.dim)]))
        for d in sorted(set(t.degrees)):
            cases.append((t, [{i: one} for i in range(t.dim) if t.degrees[i] >= d]))
    for parent, vectors in cases:
        sub = Submodule(parent, vectors)
        degrees, action, basis = submodule_by_express(parent, vectors)
        assert sub.module.degrees == degrees
        assert sub.module.action == action
        assert sub.basis == basis


def matrix_units(field):
    """M_2(k) on the matrix units e11, e12, e21, e22, in degree 0, with e11
    and e22 declared as its primitive idempotents: a non-basic algebra."""
    one = field.one()
    mult = [{} for _ in range(4)]
    for i in range(2):
        for j in range(2):
            for k in range(2):
                mult[2 * i + j][2 * j + k] = {2 * i + k: one}
    return GradedAlgebra(field, [0] * 4, mult, {0: one, 3: one},
                         idempotents=[{0: one}, {3: one}])


class TestCoverAndSubmoduleChecks:
    @pytest.mark.parametrize("char", [0, 32003])
    def test_non_basic_covers_are_not_minimal(self, char):
        # e11.M_2(k) is simple of dim 2, so each declared summand brings a
        # top of dim 2 where M/M.rad needs 1 per slice
        a = matrix_units(FieldSpec(char))
        for m in (regular(a), projective(a, 1)):
            with pytest.raises(ValueError, match="cover is not minimal"):
                cover_of(m)

    @pytest.mark.parametrize("char", [0, 32003])
    def test_non_basic_algebras_have_no_simples_from_characters(self, char):
        # e11 and e22 span 2 of the 4 dimensions of M_2(k)/rad = M_2(k)
        a = matrix_units(FieldSpec(char))
        with pytest.raises(ValueError, match="do not span Lambda/rad"):
            simple(a, 1)

    def test_span_not_closed_under_the_action(self):
        a = trunc(3)
        x = next(i for i, d in enumerate(a.degrees) if d == 1)
        with pytest.raises(ValueError, match="span is not closed under the action"):
            Submodule(regular(a), [{x: a.field.one()}])

    def test_span_escaping_through_one_live_row(self):
        # in S + k[x]/x^3, the span of s + 1 and x^2: the one image that
        # leaves the span is (s + 1) . x = x, read off row 1 of the action
        # of x, at a coordinate that is not the least of its support
        a = trunc(3)
        f = a.field
        parent = direct_sum([simple(a, 1), regular(a)])[0]
        power = {deg: 1 + i for i, deg in enumerate(a.degrees)}  # x^deg in parent
        x = a.degrees.index(1)
        span = [{0: f.one(), power[0]: f.one()}, {power[2]: f.one()}]
        ech = Echelon(f)
        ech.extend(span)
        escaping = [(j, k) for j, b in enumerate(span) for k in range(a.dim)
                    if not ech.contains(apply_row(f, b, parent.action[k]))]
        assert escaping == [(0, x)]
        assert [r for r in span[0] if r in parent.action[x]] == [power[0]]
        with pytest.raises(ValueError, match="span is not closed under the action"):
            Submodule(parent, span)
        assert Submodule(parent, span + [{power[1]: f.one()}]).module.dim == 3

    def test_quotient_span_not_closed_under_the_action(self):
        # x spans no submodule of k[x]/x^3: x . x = x^2 is outside its span
        a = trunc(3)
        x = next(i for i, d in enumerate(a.degrees) if d == 1)
        with pytest.raises(ValueError, match="span is not closed under the action"):
            QuotientModule(regular(a), [{x: a.field.one()}])


def test_maps_are_row_matrices():
    # a module map is its row matrix: no map class in the package, homs
    # hand out the dict of their nonzero rows, and truncations and simples
    # are plain modules
    import os

    from qshape.modules import GradedModule

    pkg = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "qshape")
    naming = [name for name in sorted(os.listdir(pkg)) if name.endswith(".py")
              and "GradedMap" in open(os.path.join(pkg, name)).read()]
    assert naming == []
    a = builtin("exterior", 2, QQ)
    m = truncate_le(shift(regular(a), 1), 0)
    assert type(m) is GradedModule
    assert type(simple(a, 1)) is GradedModule
    hom = HomSpace(m, m)
    assert hom.dim
    for c in hom.basis_coords:
        rows = hom.map_of(hom.images(c))
        assert type(rows) is dict and rows and set(rows) <= set(range(m.dim))
        assert all(type(row) is dict and row for row in rows.values())


def moved_entry(m):
    """m with one entry of one action matrix moved to an empty cell of its
    row: preferably in the matrix of a basis element of positive degree and
    to a column of the same degree, so that only the product checks can
    see it; failing that, to any empty cell."""
    from qshape.modules import GradedModule

    def cells():
        for b, mat in enumerate(m.action):
            for r, row in mat.items():
                for s in row:
                    for t in range(m.dim):
                        if t not in row:
                            keeps = m.degrees[t] == m.degrees[s] and m.algebra.degrees[b] > 0
                            yield not keeps, b, r, s, t

    _, b, r, s, t = min(cells())
    row = dict(m.action[b][r])
    row[t] = row.pop(s)
    action = [dict(mat) for mat in m.action]
    action[b][r] = row
    return GradedModule(m.algebra, m.degrees, action)


@pytest.mark.parametrize("family,n,char", COVER_CASES)
def test_validate_module_accepts_constructed_modules(family, n, char):
    # the dual of the regular module is built unchecked: its action is the
    # transpose of the algebra's validated structure constants
    from qshape.basechange import TensorAlgebra, i_star, ungrade
    from qshape.cli import _witnesses
    from qshape.tilting import reference_upper_triangular, tilting_module

    f = FieldSpec(char)
    a = builtin(family, n, f)
    t = tilting_module(a).module
    modules = [dual_of_regular(a), regular(a), t, syzygy_of(t)]
    for i in range(1, len(primitive_idempotents(a)) + 1):
        modules += [projective(a, i), simple(a, i)]
    witnesses = list(_witnesses(a, t).values())
    for coeff in (builtin("preprojective_A", 1, f),
                  ungrade(builtin("truncated_polynomial", 2, f)),
                  reference_upper_triangular(2, f)):
        tensor = TensorAlgebra(a, coeff)
        modules += [i_star(w, tensor) for w in witnesses]
    for m in modules:
        validate_module(m)
    with pytest.raises(ValueError):
        validate_module(moved_entry(dual_of_regular(a)))


def assert_dict_of_nonzero_rows(field, mat, nrows, ncols):
    """mat is stored as the dict of its nonzero rows, and sending vectors
    through it reads those rows as the oracle does: the unit vectors, and
    one vector with every coordinate nonzero."""
    check_matrix(field, mat, nrows, ncols, "matrix")
    full = {r: field.from_int(r + 1) for r in range(nrows)}
    for vec in [{r: field.one()} for r in range(nrows)] + [full]:
        assert apply_row(field, vec, mat) == sparse_matmul(field, {0: vec}, mat).get(0, {})


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("family,n", [("truncated_polynomial", 6), ("preprojective_A", 4),
                                      ("exterior", 3)])
def test_every_matrix_is_the_dict_of_its_nonzero_rows(family, n, char):
    # module actions, hom representatives, vertex projectors and cover epis
    # keep only their nonzero rows, keyed by row index; act and apply_row
    # read an absent row as zero, as the oracles do
    from qshape.basechange import TensorAlgebra, i_star
    from qshape.tilting import GammaData, reference_upper_triangular

    f = FieldSpec(char)
    a = builtin(family, n, f)
    gamma = GammaData(a)
    tilting = gamma.tilting
    t = tilting.module
    modules = [regular(a), projective(a, 1), simple(a, 1), truncate_le(shift(regular(a), 1), 0),
               direct_sum([t, regular(a)])[0], syzygy_of(t), dual_of_regular(a),
               i_star(t, TensorAlgebra(a, reference_upper_triangular(2, f)))]
    for m in modules:
        alg = m.algebra
        full = {r: f.from_int(r + 1) for r in range(m.dim)}
        generic = {b: f.from_int(b + 2) for b in range(alg.dim)}
        for b, mat in enumerate(m.action):
            assert_dict_of_nonzero_rows(f, mat, m.dim, m.dim)
            assert m.act(full, {b: f.one()}) == module_act(m, full, {b: f.one()})
        assert m.act(full, generic) == module_act(m, full, generic)
    hom = gamma.stable_end.stable.hom
    maps = [(t, t, hom.map_of(hom.images(c)))
            for c in gamma.stable_end.stable.representative_coords()]
    maps += [(t, t, p) for _, p in tilting.vertex_projectors()]
    cov = cover_of(t)
    maps.append((cov.module, t, cov.epi_rows))
    assert len(maps) > 1
    for source, target, mat in maps:
        assert_dict_of_nonzero_rows(f, mat, source.dim, target.dim)
        validate_map(source, target, mat)
