"""Exact linear algebra: frozen oracle values and algebraic properties."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qshape.fields import FieldSpec, QQ
from qshape.linalg import (
    Matrix,
    kernel_basis,
    rref,
    span_basis,
    subspace_ops,
    vec_from_list,
    vec_to_list,
)

from oracles import gf_span, gf_solutions, naive_rref, naive_rref_mod

GF5 = FieldSpec(5)


def dense(field, entries):
    return Matrix(field, entries)


class TestFieldSpec:
    def test_characteristic_must_be_prime(self):
        with pytest.raises(ValueError):
            FieldSpec(4)
        with pytest.raises(ValueError):
            FieldSpec(2**31)
        assert FieldSpec(2).char == 2
        assert FieldSpec(32003).char == 32003

    def test_canonical_forms(self):
        assert QQ.coerce("2/4") == Fraction(1, 2)
        assert GF5.coerce(7) == 2
        assert GF5.coerce("1/2") == 3  # 2 * 3 = 6 = 1 mod 5
        with pytest.raises(TypeError):
            QQ.coerce(0.5)

    def test_to_str(self):
        assert QQ.to_str(Fraction(3)) == "3"
        assert QQ.to_str(Fraction(-3, 4)) == "-3/4"
        assert GF5.to_str(GF5.coerce(-1)) == "4"


class TestRref:
    def test_identity_fixed(self):
        m = dense(QQ, [[1, 0], [0, 1]])
        red, rank, pivots = rref(m)
        assert red == m
        assert rank == 2
        assert pivots == [0, 1]

    def test_zero_matrix(self):
        m = dense(QQ, [[0, 0, 0]] * 3)
        red, rank, pivots = rref(m)
        assert red == m
        assert rank == 0
        assert pivots == []

    def test_rank_one_frozen(self):
        # hand row-reduction: R2 <- R2 - 2*R1 annihilates the second row
        m = dense(QQ, [[1, 2], [2, 4]])
        red, rank, _ = rref(m)
        assert red == dense(QQ, [[1, 2], [0, 0]])
        assert rank == 1

    def test_matches_naive_oracle(self):
        rows = [[1, 2, 3], [4, 5, 6], [7, 8, 10]]
        expect, rank, pivots = naive_rref(rows)
        red, got_rank, got_pivots = rref(dense(QQ, rows))
        assert [list(r) for r in red.entries] == expect
        assert (got_rank, got_pivots) == (rank, pivots)

    def test_mixed_field_is_usage_error(self):
        u = dense(QQ, [[1]])
        v = dense(GF5, [[1]])
        from qshape.linalg import check_matrix_fields

        with pytest.raises(ValueError):
            check_matrix_fields(u, v)


class TestKernel:
    def test_identity_has_no_kernel(self):
        assert kernel_basis(dense(QQ, [[1, 0], [0, 1]])) == []

    def test_zero_2x3(self):
        basis = kernel_basis(dense(QQ, [[0, 0, 0], [0, 0, 0]]))
        assert len(basis) == 3

    def test_gf5_line_matches_enumeration(self):
        m = dense(GF5, [[1, 1]])
        basis = kernel_basis(m)
        assert len(basis) == 1
        # enumeration oracle: all of GF(5)^2 with a + b = 0
        expected = set(gf_solutions([[1, 1]], 2, 5))
        spanned = gf_span([[int(x) for x in b] for b in basis], 5)
        assert spanned == expected

    def test_rank_nullity(self):
        m = dense(QQ, [[1, 2, 3], [2, 4, 6]])
        _, rank, _ = rref(m)
        assert rank + len(kernel_basis(m)) == m.cols


class TestSubspaces:
    def test_equal_subspaces(self):
        u = [[1, 0], [0, 1]]
        ops = subspace_ops(QQ, u, u)
        assert len(ops.intersection_basis) == 2
        assert ops.quotient_dimension == 0

    def test_transverse_lines(self):
        ops = subspace_ops(QQ, [[1, 0]], [[0, 1]])
        assert len(ops.sum_basis) == 2
        assert ops.intersection_basis == []

    def test_intersection_frozen(self):
        # U = span(e1+e2, e2) is all of k^2, so U meets span(e1) in a line;
        # membership system solved by hand: e1 = (e1+e2) - e2.
        ops = subspace_ops(QQ, [[1, 1], [0, 1]], [[1, 0]])
        assert len(ops.intersection_basis) == 1
        assert ops.in_u([1, 0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            subspace_ops(QQ, [[1, 0]], [[1, 0, 0]])


small_entries = st.integers(min_value=-6, max_value=6)


def matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(small_entries, min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    )


@settings(max_examples=60, deadline=None)
@given(matrices(), st.sampled_from([0, 5, 32003]))
def test_rref_idempotent_and_rank_nullity(rows, char):
    field = FieldSpec(char)
    m = Matrix(field, rows)
    red, rank, pivots = rref(m)
    again, rank2, pivots2 = rref(red)
    assert again == red
    assert (rank2, pivots2) == (rank, pivots)
    assert rank + len(kernel_basis(m)) == m.cols


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(small_entries, min_size=n, max_size=n), min_size=0, max_size=3),
            st.lists(st.lists(small_entries, min_size=n, max_size=n), min_size=0, max_size=3),
        )
    ),
    st.sampled_from([0, 5]),
)
def test_grassmann_identity(uv, char):
    u, v = uv
    field = FieldSpec(char)
    ops = subspace_ops(field, u, v, ambient=len(u[0]) if u else (len(v[0]) if v else 1))
    dim_u = len(ops.u_basis)
    dim_v = len(ops.v_basis)
    assert dim_u + dim_v == len(ops.sum_basis) + len(ops.intersection_basis)
    for vec in ops.intersection_basis:
        assert ops.in_u(vec) and ops.in_v(vec)


@settings(max_examples=40, deadline=None)
@given(matrices(3), st.sampled_from([0, 5]))
def test_kernel_vectors_annihilate(rows, char):
    field = FieldSpec(char)
    m = Matrix(field, rows)
    for v in kernel_basis(m):
        for row in m.entries:
            acc = field.zero()
            for a, b in zip(row, v):
                acc = field.add(acc, field.mul(a, b))
            assert field.is_zero(acc)


def test_span_basis_canonical():
    f = QQ
    b1 = span_basis(f, [vec_from_list(f, [2, 4]), vec_from_list(f, [1, 2])])
    b2 = span_basis(f, [vec_from_list(f, [1, 2])])
    assert b1 == b2


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.lists(small_entries, min_size=4, max_size=4), min_size=1, max_size=6),
    st.sampled_from([0, 5]),
)
def test_tagged_echelon_tracks_combinations(vectors, char):
    from qshape.linalg import Echelon, vec_add_scaled

    field = FieldSpec(char)
    ech = Echelon(field, tagged=True)
    originals = [vec_from_list(field, v) for v in vectors]
    for v in originals:
        ech.insert(v)
    # every stored row must be the combination of inputs its tag claims
    for pivot, row in ech.rows.items():
        claimed = {}
        for j, c in ech.tags[pivot].items():
            claimed = vec_add_scaled(field, claimed, originals[j], c)
        assert claimed == row
    # and express() must reproduce any input vector exactly
    for target in originals:
        coeffs = ech.express(target)
        assert coeffs is not None
        rebuilt = {}
        for j, c in coeffs.items():
            rebuilt = vec_add_scaled(field, rebuilt, originals[j], c)
        assert rebuilt == target


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.lists(small_entries, min_size=3, max_size=3), min_size=1, max_size=7),
    st.sampled_from([0, 5]),
)
def test_tagged_echelon_relations_are_a_basis_of_the_relations(vectors, char):
    # one relation per insert that reduced to zero: each one sums the
    # inserted vectors to zero, and they are independent, so with
    # rank + #relations = #inserts they span every linear relation
    from qshape.linalg import Echelon, vec_add_scaled

    field = FieldSpec(char)
    ech = Echelon(field, tagged=True)
    originals = [vec_from_list(field, v) for v in vectors]
    for v in originals:
        ech.insert(v)
    assert ech.dim + len(ech.relations) == len(originals)
    for rel in ech.relations:
        total = {}
        for j, c in rel.items():
            total = vec_add_scaled(field, total, originals[j], c)
        assert total == {}
    assert len(span_basis(field, ech.relations)) == len(ech.relations)


sparse_entries = st.one_of(st.just(0), small_entries)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(sparse_entries, min_size=n, max_size=n), min_size=1, max_size=6),
            st.lists(st.lists(sparse_entries, min_size=n, max_size=n), min_size=0, max_size=3),
        )
    ).flatmap(
        lambda vp: st.tuples(st.just(vp[0]), st.just(vp[1]), st.permutations(range(len(vp[0]))))
    ),
    st.sampled_from([0, 32003]),
)
def test_echelon_reduce_and_express_match_naive_rref(vectors_probes_order, char):
    # inserts arrive in arbitrary pivot order; reduce() must still give the
    # remainder against the canonical reduced echelon basis, and express()
    # must write span members as combinations of the inserted vectors
    from qshape.linalg import Echelon

    vectors, probes, order = vectors_probes_order
    field = FieldSpec(char)
    n = len(vectors[0])
    inserted = [vectors[i] for i in order]
    ech = Echelon(field, tagged=True)
    for v in inserted:
        ech.insert(vec_from_list(field, v))

    if char == 0:
        red, rank, pivots = naive_rref(inserted)
    else:
        red, rank, pivots = naive_rref_mod(inserted, char)
    red = [[field.coerce(x) for x in row] for row in red[:rank]]
    assert ech.pivots() == pivots
    assert [vec_to_list(field, row, n) for row in ech.basis()] == red

    for t in probes + vectors:
        t = [field.coerce(x) for x in t]
        expected = list(t)
        for p, row in zip(pivots, red):
            c = t[p]
            expected = [field.sub(x, field.mul(c, y)) for x, y in zip(expected, row)]
        vec = vec_from_list(field, t)
        assert vec_to_list(field, ech.reduce(vec), n) == expected
        coeffs = ech.express(vec)
        if any(not field.is_zero(x) for x in expected):
            assert coeffs is None
        else:
            rebuilt = [field.zero()] * n
            for j, c in coeffs.items():
                rebuilt = [field.add(x, field.mul(c, field.coerce(y)))
                           for x, y in zip(rebuilt, inserted[j])]
            assert rebuilt == t


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 8).flatmap(
        lambda n: st.lists(st.lists(sparse_entries, min_size=n, max_size=n),
                           min_size=1, max_size=10)
    ),
    st.sampled_from([0, 32003]),
)
def test_echelon_holders_match_rows(vectors, char):
    # the column index must equal the one recomputed from the rows after
    # every insert: exactly the non-pivot columns, each with the pivots of
    # the rows that hold it
    from qshape.linalg import Echelon

    field = FieldSpec(char)
    ech = Echelon(field)
    for v in vectors:
        ech.insert(vec_from_list(field, v))
        expected = {}
        for p, row in ech.rows.items():
            assert row[p] == field.one()
            for k in row:
                if k != p:
                    expected.setdefault(k, set()).add(p)
        assert ech.holders == expected
        assert not set(ech.holders) & set(ech.rows)
