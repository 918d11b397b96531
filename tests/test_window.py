"""Windows of shifted projectives and their structural properties."""

import json

import pytest

import qshape.modules
import qshape.window
from qshape.algebra import (
    GradedAlgebra,
    QuiverPresentation,
    builtin,
    compile_quiver,
    jacobson_radical,
)
from qshape.errors import NotNonNegativelyGraded, NotSelfInjective
from qshape.fields import QQ, FieldSpec
from qshape.modules import HomSpace, dual_of_regular, projective, regular, shift
from qshape.window import QWindow, check_window_properties, serre_of_object

from oracles import isomorphic_projectives, per_object_window_properties


def trunc(n, field=QQ):
    return builtin("truncated_polynomial", n, field)


class TestBuildWindow:
    def test_dual_numbers_slices(self):
        w = QWindow(trunc(2), 0, 1)
        assert w.hom_dim((1, 0), (1, 1)) == 1
        assert w.hom_dim((1, 1), (1, 0)) == 0

    def test_window_dims_equal_graded_components(self):
        a = builtin("exterior", 2, QQ)
        w = QWindow(a, -2, 2)
        comp = {d: sum(1 for x in a.degrees if x == d) for d in set(a.degrees)}
        for j in range(-2, 3):
            for jp in range(-2, 3):
                assert w.hom_dim((1, j), (1, jp)) == comp.get(jp - j, 0)

    def test_slice_sum_over_idempotents(self):
        a = builtin("preprojective_A", 3, QQ)
        w = QWindow(a, 0, 2)
        comp = {d: sum(1 for x in a.degrees if x == d) for d in set(a.degrees)}
        for d in (0, 1, 2):
            total = sum(
                w.hom_dim((i, 0), (ip, d)) for i in (1, 2, 3) for ip in (1, 2, 3)
            )
            assert total == comp.get(d, 0)

    def test_dims_match_hom_graded_on_samples(self):
        # dual route: slice dims against the presentation-based solver
        a = builtin("preprojective_A", 2, QQ)
        w = QWindow(a, -1, 1)
        for q in ((1, 0), (2, -1), (1, 1)):
            for qp in ((1, 0), (2, 0), (2, 1)):
                direct = HomSpace(shift(projective(a, q[0]), q[1]),
                                    shift(projective(a, qp[0]), qp[1])).dim
                assert w.hom_dim(q, qp) == direct

    def test_composition_against_map_composition(self):
        a = trunc(3)
        w = QWindow(a, 0, 2)
        x = w.hom_basis((1, 0), (1, 1))[0]
        y = w.hom_basis((1, 1), (1, 2))[0]
        z = w.compose(x, y)
        assert z  # x then y is x*x, nonzero in k[x]/x^3


class TestSerre:
    def test_local_algebra_serre_is_shifted_dual(self):
        a = trunc(3)
        s = serre_of_object(a, 1, 0)
        assert s.dim == a.dim
        assert isomorphic_projectives(s, shift(regular(a), a.dim - 1))

    def test_serre_dim_matches_projective(self):
        a = builtin("preprojective_A", 3, QQ)
        for i in (1, 2, 3):
            assert serre_of_object(a, i, 0).dim == projective(a, i).dim

    def test_serre_needs_self_injective(self):
        pres = QuiverPresentation(["1", "2"], [("a", "1", "2", 0)], [], 2)
        a = compile_quiver(pres, QQ)
        with pytest.raises(NotSelfInjective, match="Serre check requested"):
            serre_of_object(a, 1, 0)

    @pytest.mark.parametrize("i", [0, -1, 4])
    def test_serre_index_out_of_range(self, i):
        # negative indices must not wrap around to the last vertices
        a = builtin("preprojective_A", 3, QQ)
        with pytest.raises(IndexError, match=r"out of range 1\.\.3"):
            serre_of_object(a, i, 0)


class TestProperties:
    def test_dual_numbers_window(self):
        rep = check_window_properties(QWindow(trunc(2), -3, 3))
        assert rep["all_pass"]
        assert rep["property_4"]["window_radical_nilpotency"] == 2
        # dim Q(P(0), P(1)) = 1 with S P(0) = P(1): part of property 5
        assert rep["property_5"]["pass"]

    def test_truncated_nilpotency_equals_n(self):
        for n in (2, 3, 4):
            rep = check_window_properties(QWindow(trunc(n), -5, 5))
            assert rep["property_4"]["window_radical_nilpotency"] == n
            assert rep["property_4"]["algebra_radical_nilpotency"] == n

    def test_preprojective_window(self):
        a = builtin("preprojective_A", 3, QQ)
        rep = check_window_properties(QWindow(a, -3, 3))
        assert rep["all_pass"]
        assert rep["property_2"]["max_band_seen"] <= 2

    def test_semisimple_off_diagonal_vanishes(self):
        a = builtin("preprojective_A", 1, QQ)
        w = QWindow(a, -2, 2)
        for j in range(-2, 3):
            for jp in range(-2, 3):
                if j != jp:
                    assert w.hom_dim((1, j), (1, jp)) == 0
        rep = check_window_properties(w)
        assert rep["all_pass"]
        assert rep["property_4"]["window_radical_nilpotency"] == 1

    @pytest.mark.parametrize("char", [0, 32003])
    def test_radical_not_spanned_by_slice_rows(self, char):
        # k[x]/x^2 in degree 0 on the basis c0 = 1, c1 = 1 + x, idempotent
        # c0: the radical is the line of c1 - c0, and the reduced rows of
        # the slice, c0 and c1, hold no radical vector
        f = FieldSpec(char)
        one = f.one()
        mult = [{0: {0: one}, 1: {1: one}},
                {0: {1: one}, 1: {0: f.neg(one), 1: f.from_int(2)}}]
        a = GradedAlgebra(f, [0, 0], mult, {0: one}, idempotents=[{0: one}])
        w = QWindow(a, 0, 0)
        assert w.hom_basis((1, 0), (1, 0)) == [{0: one}, {1: one}]
        assert w.radical_basis((1, 0), (1, 0)) == [{0: one, 1: f.neg(one)}]
        rep = check_window_properties(w)
        assert rep["property_3"]["identity_splitting"] and rep["property_3"]["pass"]
        assert rep["all_pass"]

    def test_serre_skippable(self):
        pres = QuiverPresentation(["1", "2"], [("a", "1", "2", 0)], [], 2)
        a = compile_quiver(pres, QQ)
        rep = check_window_properties(QWindow(a, -1, 1), serre_check=False)
        assert rep["property_5"]["pass"] is None
        with pytest.raises(NotSelfInjective):
            check_window_properties(QWindow(a, -1, 1), serre_check=True)

    def test_negative_degree_is_rejected(self):
        # basis 1, x, y, yx with x in degree -1, y in degree 1 and
        # x^2 = y^2 = xy = 0: yx is a degree-0 radical vector of R^2 that
        # only factors through the negative degree, so the window's own
        # radical powers (maps never lower the shift) would stop at r^2 = 0,
        # where the layers W_1 = <x, y> and W_2 = <yx> give 3
        one = QQ.one()
        mult = [{0: {0: one}, 1: {1: one}, 2: {2: one}, 3: {3: one}},
                {0: {1: one}},
                {0: {2: one}, 1: {3: one}},
                {0: {3: one}}]
        a = GradedAlgebra(QQ, [0, -1, 1, 0], mult, {0: one}, idempotents=[{0: one}])
        rad = jacobson_radical(a)
        assert rad.layer_degrees == [{-1, 1}, {0}]
        assert rad.nilpotency == 3
        with pytest.raises(NotNonNegativelyGraded):
            QWindow(a, -1, 1)

    @pytest.mark.parametrize("name,expected", [
        ("truncated_polynomial 5", 0), ("exterior 3", 0), ("preprojective_A 1", 0),
        ("preprojective_A 3", 0), ("preprojective_A 4", 0), ("two-cycle", 2)])
    def test_only_round_trips_compose(self, name, expected, monkeypatch):
        # property 1 tallies the classes with no hom table, and property 4
        # reads the radical layers: the one product left is property 3's
        # round trip through a distinct vertex in degree 0, none over one
        # vertex or where no degree-0 arrow has a degree-0 way back; the
        # two-cycle 1 -a-> 2 -b-> 1 in degree 0 with ab = ba = 0 has two
        if name == "two-cycle":
            pres = QuiverPresentation(["1", "2"], [("a", "1", "2", 0), ("b", "2", "1", 0)],
                                      [[(1, ("a", "b"))], [(1, ("b", "a"))]], 2)
            a = compile_quiver(pres, QQ)
        else:
            family, n = name.split()
            a = builtin(family, int(n), QQ)
        w = QWindow(a, -3, 3)
        composed = []
        compose = QWindow.compose

        def counting_compose(self, x, y):
            composed.append((x, y))
            return compose(self, x, y)

        def no_table(self):
            raise AssertionError("dims_table called")

        monkeypatch.setattr(QWindow, "compose", counting_compose)
        monkeypatch.setattr(QWindow, "dims_table", no_table)
        assert check_window_properties(w)["all_pass"]
        vertices = range(1, w.n + 1)
        round_trips = sum(w.hom_dim((i, 0), (ip, 0)) * w.hom_dim((ip, 0), (i, 0))
                          for i in vertices for ip in vertices if ip != i)
        assert len(composed) == round_trips == expected


class TestSerreLocalStructure:
    def test_local_serre_equals_shifted_dual(self):
        from qshape.modules import dual_of_regular

        a = builtin("exterior", 2, QQ)
        for j in (-1, 0, 2):
            s = serre_of_object(a, 1, j)
            d = shift(dual_of_regular(a), j)
            assert s.dim == d.dim
            assert sorted(s.degrees) == sorted(d.degrees)
            assert isomorphic_projectives(s, d)


class TestNilpotencyInvariant:
    def test_window_nilpotency_matches_algebra_when_wide(self):
        from qshape.algebra import jacobson_radical

        for fam, par in (("preprojective_A", 3), ("exterior", 2)):
            a = builtin(fam, par, QQ)
            rep = check_window_properties(QWindow(a, -6, 6), serre_check=False)
            assert (rep["property_4"]["window_radical_nilpotency"]
                    == jacobson_radical(a).nilpotency)


class TestPairingMachinery:
    def test_kernel_trivial_detects_degenerate_rows(self):
        from qshape.window import _kernel_trivial

        f = QQ
        assert _kernel_trivial(f, [{(0, 0): f.one()}, {(1, 0): f.one()}])
        assert not _kernel_trivial(f, [{(0, 0): f.one()}, {}])
        assert not _kernel_trivial(
            f, [{(0, 0): f.one()}, {(0, 0): QQ.coerce(2)}]
        )


ORACLE_ALGEBRAS = [
    ("truncated_polynomial", 1), ("truncated_polynomial", 2), ("truncated_polynomial", 5),
    ("preprojective_A", 1), ("preprojective_A", 2), ("preprojective_A", 3),
    ("preprojective_A", 4), ("exterior", 2), ("exterior", 3),
]
# lo = hi, windows narrower and wider than twice the top degree, off-centre
ORACLE_WINDOWS = [(0, 0), (-1, 1), (0, 3), (-3, 3), (-6, 6), (2, 9), (-2, 1)]


def as_json(report):
    return json.dumps(report, sort_keys=True)


class TestShiftClassesAgainstPerObjectCheck:
    @pytest.mark.parametrize("char", [0, 32003])
    @pytest.mark.parametrize("family,parameter", ORACLE_ALGEBRAS)
    def test_reports_equal(self, family, parameter, char):
        a = builtin(family, parameter, FieldSpec(char))
        for lo, hi in ORACLE_WINDOWS:
            w = QWindow(a, lo, hi)
            assert as_json(check_window_properties(w)) == as_json(
                per_object_window_properties(w)), (lo, hi)

    def test_non_self_injective_quiver(self):
        pres = QuiverPresentation(["1", "2"], [("a", "1", "2", 0)], [], 2)
        a = compile_quiver(pres, QQ)
        for lo, hi in ORACLE_WINDOWS:
            w = QWindow(a, lo, hi)
            assert as_json(check_window_properties(w, serre_check=False)) == as_json(
                per_object_window_properties(w, serre_check=False)), (lo, hi)
            with pytest.raises(NotSelfInjective):
                check_window_properties(w, serre_check=True)
            with pytest.raises(NotSelfInjective):
                per_object_window_properties(w, serre_check=True)

    @pytest.mark.parametrize("family,parameter",
                             [("truncated_polynomial", n) for n in range(6, 16)]
                             + [("exterior", 4), ("preprojective_A", 5)])
    @pytest.mark.parametrize("char", [0, 32003])
    def test_reports_equal_on_larger_algebras(self, family, parameter, char):
        a = builtin(family, parameter, FieldSpec(char))
        for lo, hi in ((-1, 1), (0, 2), (-3, 4)):
            w = QWindow(a, lo, hi)
            assert as_json(check_window_properties(w, serre_check=False)) == as_json(
                per_object_window_properties(w, serre_check=False)), (lo, hi)

    def test_one_serre_submodule_per_vertex(self, monkeypatch):
        # the window builds a Submodule only for the Serre slices
        a = builtin("preprojective_A", 3, QQ)
        built = []

        class CountingSubmodule(qshape.modules.Submodule):
            def __init__(self, parent, vectors):
                built.append(len(vectors))
                super().__init__(parent, vectors)

        monkeypatch.setattr(qshape.window, "Submodule", CountingSubmodule)
        check_window_properties(QWindow(a, -3, 3))
        check_window_properties(QWindow(a, 0, 5))
        assert len(built) == 3
