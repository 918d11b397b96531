"""Tensor algebras, scalar extension/restriction, hom base change."""

import gc
import weakref

import pytest

from qshape.algebra import builtin
from qshape.basechange import (
    TensorAlgebra,
    base_change_hom_check,
    gamma_tensor,
    i_star,
    ungrade,
)
from qshape.fields import QQ, FieldSpec
from qshape.modules import (
    GradedModule,
    HomSpace,
    cover_of,
    is_projective,
    regular,
    simple,
)
from qshape.tilting import (
    GammaData,
    reference_upper_triangular,
    tilting_module,
)

from oracles import i_lower, module_equal, validate_module


def trunc(n, field=QQ):
    return builtin("truncated_polynomial", n, field)


def dual_numbers_ungraded(field=QQ):
    return ungrade(trunc(2, field))


def base_field_algebra(field=QQ):
    return builtin("preprojective_A", 1, field)


class TestTensorAlgebra:
    def test_tensor_with_base_field_is_identity_like(self):
        lam = trunc(2)
        t = TensorAlgebra(lam, base_field_algebra())
        assert t.product.dim == lam.dim
        assert t.product.degrees == lam.degrees

    def test_upper_triangular_with_dual_numbers(self):
        t = TensorAlgebra(reference_upper_triangular(2, QQ), dual_numbers_ungraded())
        assert t.product.dim == 6

    def test_grading_from_left_factor(self):
        t = TensorAlgebra(trunc(2), dual_numbers_ungraded())
        assert t.product.dim == 4
        assert max(t.product.degrees) == 1

    def test_right_factor_must_be_trivially_graded(self):
        with pytest.raises(ValueError):
            TensorAlgebra(trunc(2), trunc(2))

    def test_idempotent_count_multiplies(self):
        lam = builtin("preprojective_A", 2, QQ)
        a = reference_upper_triangular(2, QQ)
        t = TensorAlgebra(lam, a)
        assert len(t.product.idempotents) == 4


class TestScalars:
    def test_i_star_with_base_field(self):
        lam = trunc(2)
        t = TensorAlgebra(lam, base_field_algebra())
        m = simple(lam, 1)
        assert module_equal(i_star(m, t), m) or i_star(m, t).dim == m.dim

    def test_i_star_of_regular_is_regular(self):
        lam = trunc(2)
        t = TensorAlgebra(lam, dual_numbers_ungraded())
        assert module_equal(i_star(regular(lam), t), regular(t.product))

    def test_restriction_of_extension_multiplies_dim(self):
        lam = builtin("preprojective_A", 2, QQ)
        a = dual_numbers_ungraded()
        t = TensorAlgebra(lam, a)
        m = simple(lam, 1)
        down = i_lower(i_star(m, t), t)
        assert down.dim == m.dim * a.dim
        # restriction of the extension of a projective stays projective
        assert is_projective(i_lower(i_star(regular(lam), t), t))


class TestHomBaseChange:
    def test_regular_pair(self):
        lam = trunc(2)
        for a in (base_field_algebra(), dual_numbers_ungraded()):
            t = TensorAlgebra(lam, a)
            res = base_change_hom_check(regular(lam), regular(lam), t)
            assert res["pass"]
            deg0 = sum(1 for d in lam.degrees if d == 0)
            assert res["lhs_dim"] == deg0 * a.dim

    def test_tilting_against_regular(self):
        lam = trunc(2)
        t = TensorAlgebra(lam, dual_numbers_ungraded())
        tilt = tilting_module(lam).module
        res = base_change_hom_check(tilt, regular(lam), t)
        assert res["pass"]

    def test_full_witness_grid_small(self):
        lam = builtin("preprojective_A", 2, QQ)
        mods = [regular(lam), simple(lam, 1), simple(lam, 2),
                tilting_module(lam).module]
        t = TensorAlgebra(lam, dual_numbers_ungraded())
        for m in mods:
            for n in mods:
                assert base_change_hom_check(m, n, t)["pass"]


class TestGammaTensor:
    def test_truncated_cubic_times_dual_numbers(self):
        g = gamma_tensor(GammaData(trunc(3)).algebra,
                         dual_numbers_ungraded())
        assert g.dim == 6  # 3 * 2, the 2x2 upper triangular over A

    def test_base_field_coefficients(self):
        g = gamma_tensor(GammaData(trunc(3)).algebra,
                         base_field_algebra())
        assert g.dim == 3

    def test_preprojective_two_gives_coefficients(self):
        gamma = GammaData(builtin("preprojective_A", 2, QQ)).algebra
        for a in (dual_numbers_ungraded(), reference_upper_triangular(2, QQ)):
            g = gamma_tensor(gamma, a)
            assert g.dim == a.dim


class TestProjectiveRestrictionMore:
    def test_matches_projectivity_of_the_input(self):
        # the restriction of the extension of M is M^(dim A), projective
        # exactly when M is
        lam = builtin("preprojective_A", 2, QQ)
        t = TensorAlgebra(lam, dual_numbers_ungraded())
        from qshape.modules import projective

        for m, expected in (
            (regular(lam), True),
            (projective(lam, 1), True),
            (simple(lam, 1), False),
            (simple(lam, 2), False),
        ):
            assert is_projective(i_lower(i_star(m, t), t)) is expected


class TestConstructedModulesValidate:
    def test_extension_satisfies_module_axioms(self):
        lam = builtin("preprojective_A", 2, QQ)
        t = TensorAlgebra(lam, dual_numbers_ungraded())
        validate_module(i_star(simple(lam, 1), t))  # raises on a bad action

    def test_restriction_satisfies_module_axioms(self):
        lam = trunc(2)
        t = TensorAlgebra(lam, dual_numbers_ungraded())
        validate_module(i_lower(i_star(regular(lam), t), t))


def basechange_witnesses(lam):
    """The witnesses `qshape basechange` checks: Λ, its projectives and
    simples, and the tilting module T."""
    from qshape.modules import projective

    out = [regular(lam)]
    for i in range(1, len(lam.idempotents) + 1):
        out += [projective(lam, i), simple(lam, i)]
    out.append(tilting_module(lam).module)
    return out


class TestExtensionMemo:
    @pytest.mark.parametrize("field", [QQ, FieldSpec(32003)], ids=["QQ", "GF32003"])
    def test_memoised_extension_equals_a_fresh_one(self, field):
        lam = builtin("preprojective_A", 2, field)
        t = TensorAlgebra(lam, dual_numbers_ungraded(field))
        witnesses = basechange_witnesses(lam)
        assert len(witnesses) == 6
        for m in witnesses:
            ext = i_star(m, t)
            assert i_star(m, t) is ext
            fresh = i_star(m, TensorAlgebra(lam, dual_numbers_ungraded(field)))
            assert fresh is not ext
            assert module_equal(ext, fresh)
        # equal modules that are distinct objects get extensions of their own
        copy = GradedModule(lam, regular(lam).degrees, regular(lam).action)
        assert i_star(copy, t) is not i_star(regular(lam), t)
        assert module_equal(i_star(copy, t), i_star(regular(lam), t))

    def test_tensor_frees_its_extensions_and_their_covers(self):
        # the witness outlives the tensor; it must not keep the tensor, nor
        # the tensor's extensions, alive
        lam = builtin("preprojective_A", 2, QQ)
        witness = regular(lam)
        gc.collect()
        gc.disable()
        try:
            t = TensorAlgebra(lam, dual_numbers_ungraded())
            ext = i_star(witness, t)
            other = i_star(simple(lam, 1), t)
            cov = cover_of(ext)
            assert HomSpace(ext, other).dim > 0
            refs = [weakref.ref(x) for x in (t, ext, other, cov)]
            del t, ext, other, cov
            assert [r() for r in refs] == [None] * 4
        finally:
            gc.enable()
