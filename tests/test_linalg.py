"""Exact linear algebra: frozen oracle values and algebraic properties."""

from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from qshape.fields import FieldSpec, QQ, check_same_field
from qshape.linalg import Echelon, apply_row, read_coords, span_basis, sparse_kernel
from qshape.modules import GradedModule

from oracles import (
    gf_span,
    gf_solutions,
    module_act,
    naive_kernel,
    naive_rref,
    naive_rref_mod,
    vec_iadd_scaled,
    vec_scale,
)

GF5 = FieldSpec(5)


def vec_from_list(field, entries):
    """Sparse vector of a dense list of scalars."""
    vec = {i: field.coerce(x) for i, x in enumerate(entries)}
    return {i: x for i, x in vec.items() if not field.is_zero(x)}


def vec_to_list(field, vec, length):
    out = [field.zero()] * length
    for i, x in vec.items():
        out[i] = x
    return out


def rref(field, rows):
    """(reduced rows, rank, pivots) of a dense matrix through an Echelon,
    zero rows kept so the shape is the input's."""
    ncols = len(rows[0])
    ech = Echelon(field)
    ech.extend(vec_from_list(field, r) for r in rows)
    red = [vec_to_list(field, b, ncols) for b in ech.basis()]
    red += [[field.zero()] * ncols for _ in range(len(rows) - ech.dim)]
    return red, ech.dim, ech.pivots()


def kernel(field, rows):
    """sparse_kernel of a dense matrix, as dense vectors."""
    ncols = len(rows[0])
    sparse = [vec_from_list(field, r) for r in rows]
    return [vec_to_list(field, v, ncols) for v in sparse_kernel(field, sparse, ncols)]


def coerced(field, rows):
    return [[field.coerce(x) for x in r] for r in rows]


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
        # over QQ an integral value is an int, anything else a Fraction
        half = QQ.inv(2)
        assert type(half) is Fraction and half == Fraction(1, 2)
        assert type(QQ.inv(-1)) is int and QQ.inv(-1) == -1
        assert type(QQ.coerce("4/2")) is int and QQ.coerce("4/2") == 2
        assert type(QQ.coerce("2/4")) is Fraction
        assert all(type(x) is int for x in (QQ.zero(), QQ.one(), QQ.from_int(-7)))
        with pytest.raises(ZeroDivisionError):
            QQ.inv(0)
        with pytest.raises(ZeroDivisionError):
            GF5.inv(0)

    def test_to_str(self):
        assert QQ.to_str(Fraction(3)) == "3"
        assert QQ.to_str(Fraction(-3, 4)) == "-3/4"
        assert GF5.to_str(GF5.coerce(-1)) == "4"


class TestRref:
    def test_identity_fixed(self):
        m = [[1, 0], [0, 1]]
        red, rank, pivots = rref(QQ, m)
        assert red == coerced(QQ, m)
        assert rank == 2
        assert pivots == [0, 1]

    def test_zero_matrix(self):
        m = [[0, 0, 0]] * 3
        red, rank, pivots = rref(QQ, m)
        assert red == coerced(QQ, m)
        assert rank == 0
        assert pivots == []

    def test_rank_one_frozen(self):
        # hand row-reduction: R2 <- R2 - 2*R1 annihilates the second row
        red, rank, _ = rref(QQ, [[1, 2], [2, 4]])
        assert red == coerced(QQ, [[1, 2], [0, 0]])
        assert rank == 1

    def test_matches_naive_oracle(self):
        rows = [[1, 2, 3], [4, 5, 6], [7, 8, 10]]
        expect, rank, pivots = naive_rref(rows)
        red, got_rank, got_pivots = rref(QQ, rows)
        assert red == expect
        assert (got_rank, got_pivots) == (rank, pivots)

    def test_mixed_field_is_usage_error(self):
        with pytest.raises(ValueError):
            check_same_field(QQ, GF5)


class TestKernel:
    def test_identity_has_no_kernel(self):
        assert kernel(QQ, [[1, 0], [0, 1]]) == []

    def test_zero_2x3(self):
        basis = kernel(QQ, [[0, 0, 0], [0, 0, 0]])
        assert len(basis) == 3

    def test_gf5_line_matches_enumeration(self):
        basis = kernel(GF5, [[1, 1]])
        assert len(basis) == 1
        # enumeration oracle: all of GF(5)^2 with a + b = 0
        expected = set(gf_solutions([[1, 1]], 2, 5))
        spanned = gf_span([[int(x) for x in b] for b in basis], 5)
        assert spanned == expected

    def test_rank_nullity(self):
        m = [[1, 2, 3], [2, 4, 6]]
        _, rank, _ = rref(QQ, m)
        assert rank + len(kernel(QQ, m)) == 3


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
    # the reduced rows are those of the textbook elimination, and reducing
    # them again changes nothing
    field = FieldSpec(char)
    red, rank, pivots = rref(field, rows)
    expect, naive_rank, naive_pivots = (naive_rref(rows) if char == 0
                                        else naive_rref_mod(rows, char))
    assert red == coerced(field, expect)
    assert (rank, pivots) == (naive_rank, naive_pivots)
    again, rank2, pivots2 = rref(field, red)
    assert again == red
    assert (rank2, pivots2) == (rank, pivots)
    assert rank + len(kernel(field, rows)) == len(rows[0])


@settings(max_examples=40, deadline=None)
@given(matrices(3), st.sampled_from([0, 5]))
def test_kernel_vectors_annihilate(rows, char):
    field = FieldSpec(char)
    for v in kernel(field, rows):
        for row in coerced(field, rows):
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
    from qshape.linalg import Echelon

    field = FieldSpec(char)
    ech = Echelon(field, tagged=True)
    originals = [vec_from_list(field, v) for v in vectors]
    for v in originals:
        ech.insert(v)
    # every stored row must be the combination of inputs its tag claims
    for pivot, row in ech.rows.items():
        claimed = {}
        for j, c in ech.tags[pivot].items():
            field.axpy(claimed, originals[j], c)
        assert claimed == row
    # and express() must reproduce any input vector exactly
    for target in originals:
        coeffs = ech.express(target)
        assert coeffs is not None
        rebuilt = {}
        for j, c in coeffs.items():
            field.axpy(rebuilt, originals[j], c)
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
    from qshape.linalg import Echelon

    field = FieldSpec(char)
    ech = Echelon(field, tagged=True)
    originals = [vec_from_list(field, v) for v in vectors]
    for v in originals:
        ech.insert(v)
    assert ech.dim + len(ech.relations) == len(originals)
    for rel in ech.relations:
        total = {}
        for j, c in rel.items():
            field.axpy(total, originals[j], c)
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
            expected = [field.add(x, field.neg(field.mul(c, y))) for x, y in zip(expected, row)]
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
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(sparse_entries, min_size=n, max_size=n), min_size=1, max_size=6),
            st.lists(st.lists(sparse_entries, min_size=n, max_size=n), min_size=1, max_size=4),
        )
    ),
    st.sampled_from([0, 32003]),
)
def test_read_coords_match_express(vectors_probes, char):
    # a reduced echelon basis read at its pivots (each row's least index),
    # and a kernel basis read at its free columns (each vector's largest
    # index), give what a tagged echelon of the same rows expresses: the
    # coordinates of a span member, None off the span
    vectors, probes = vectors_probes
    field = FieldSpec(char)
    n = len(vectors[0])
    rows = span_basis(field, [vec_from_list(field, v) for v in vectors])
    kernel = sparse_kernel(field, rows, n)
    for basis, index in ((rows, {min(v): q for q, v in enumerate(rows)}),
                         (kernel, {max(v): q for q, v in enumerate(kernel)})):
        assert len(index) == len(basis)
        ech = Echelon(field, tagged=True)
        ech.extend(basis)
        members = [apply_row(field, vec_from_list(field, p[:len(basis)]), dict(enumerate(basis)))
                   for p in probes]
        for vec in members + [vec_from_list(field, p) for p in probes]:
            assert read_coords(field, vec, index, basis) == ech.express(vec)


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


def is_canonical_qq(x):
    """The QQ scalar contract: an int, or a Fraction that is not integral."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


qq_values = st.one_of(st.integers(-30, 30),
                      st.fractions(min_value=-30, max_value=30, max_denominator=12))


@settings(max_examples=200, deadline=None)
@given(qq_values, qq_values, qq_values)
def test_qq_ops_return_canonical_values_equal_to_fraction_arithmetic(x, y, z):
    a, b, c = QQ.coerce(x), QQ.coerce(y), QQ.coerce(z)
    fa, fb, fc = Fraction(x), Fraction(y), Fraction(z)
    results = [
        (a, fa), (QQ.coerce(str(fa)), fa),
        (QQ.add(a, b), fa + fb), (QQ.mul(a, b), fa * fb),
        (QQ.muladd(a, b, c), fa + fb * fc), (QQ.neg(a), -fa),
    ]
    if fb != 0:
        results += [(QQ.inv(b), 1 / fb)]
    for got, want in results:
        assert is_canonical_qq(got)
        assert got == want


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(st.lists(st.one_of(st.just(0), qq_values), min_size=n, max_size=n),
                           min_size=1, max_size=6)
    )
)
def test_qq_elimination_stores_canonical_values(rows):
    # every row, tag, relation and kernel vector keeps the scalar contract
    # and equals what textbook Fraction elimination gives
    n = len(rows[0])
    originals = [vec_from_list(QQ, r) for r in rows]
    ech = Echelon(QQ, tagged=True)
    for v in originals:
        ech.insert(v)
    kern = sparse_kernel(QQ, originals, n)
    stored = [x for vecs in (ech.rows.values(), ech.tags.values(), ech.relations, kern)
              for vec in vecs for x in vec.values()]
    assert all(is_canonical_qq(x) for x in stored)

    red, rank, _ = naive_rref(rows)
    assert [vec_to_list(QQ, row, n) for row in ech.basis()] == red[:rank]
    assert [vec_to_list(QQ, v, n) for v in kern] == naive_kernel(rows, n)

    def combine(coeffs):
        out = [Fraction(0)] * n
        for j, c in coeffs.items():
            out = [o + Fraction(c) * Fraction(x) for o, x in zip(out, rows[j])]
        return out

    for p, row in ech.rows.items():
        assert combine(ech.tags[p]) == vec_to_list(QQ, row, n)
    for rel in ech.relations:
        assert combine(rel) == [0] * n


# ---------------------------------------------------------------------------
# the bound kernels against the one-op-per-entry oracle
# ---------------------------------------------------------------------------

KERNEL_CHARS = [0, 5, 32003]


def kernel_scalars(field):
    """Scalars of the field in canonical form, small enough over QQ and
    near 0 and -1 over GF(32003) that sums often cancel."""
    if field.char == 0:
        return st.one_of(st.integers(-4, 4),
                         st.fractions(min_value=-4, max_value=4, max_denominator=4),
                         ).map(field.coerce)
    p = field.char
    return st.one_of(st.integers(0, min(p - 1, 4)), st.integers(max(0, p - 4), p - 1),
                     st.integers(0, p - 1))


def sparse_vectors(field, keys, max_size):
    return st.dictionaries(keys, kernel_scalars(field).filter(lambda x: x != 0),
                           max_size=max_size)


def entries(vec):
    """The items of a vector in key order, with the type of each scalar."""
    return [(i, type(x), x) for i, x in vec.items()]


def keeps_scalar_contract(field, vec):
    if field.char == 0:
        return all(is_canonical_qq(x) and x != 0 for x in vec.values())
    return all(x in range(1, field.char) for x in vec.values())


@st.composite
def axpy_cases(draw):
    """(field, acc, w, c), where some shared entries are set to cancel."""
    field = FieldSpec(draw(st.sampled_from(KERNEL_CHARS)))
    keys = st.integers(0, 7)
    acc = draw(sparse_vectors(field, keys, 6))
    w = draw(sparse_vectors(field, keys, 6))
    c = draw(kernel_scalars(field))
    if c != 0:
        for i in [i for i in w if i in acc]:
            if draw(st.booleans()):
                acc[i] = field.neg(field.mul(c, w[i]))
    return field, acc, w, c


@settings(max_examples=200, deadline=None)
@given(axpy_cases())
def test_axpy_and_scale_match_the_oracle(case):
    # axpy updates acc in place and returns it, with the oracle's values
    # and key order: new entries appended in w's order, cancelled ones
    # deleted; c = 0 leaves acc as it was.  scale builds a fresh c * w
    field, acc, w, c = case
    want = vec_iadd_scaled(field, dict(acc), w, c)
    mine = dict(acc)
    got = field.axpy(mine, w, c)
    assert got is mine
    assert entries(got) == entries(want)
    assert keeps_scalar_contract(field, got)
    if c == 0:
        assert entries(got) == entries(acc)
    scaled = field.scale(w, c)
    assert scaled is not w
    assert entries(scaled) == entries(vec_scale(field, w, c))
    assert keeps_scalar_contract(field, scaled)


@st.composite
def action_cases(draw):
    """(field, dim, action, vec, alg_vec): action matrices of nb basis
    elements on a dim-dimensional space, each the dict of its nonzero rows
    with some rows absent, and two sparse vectors."""
    field = FieldSpec(draw(st.sampled_from(KERNEL_CHARS)))
    dim, nb = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    rows = sparse_vectors(field, st.integers(0, dim - 1), 3)
    action = []
    for _ in range(nb):
        drawn = {r: draw(rows) for r in range(dim)}
        action.append({r: row for r, row in drawn.items() if row})
    vec = draw(sparse_vectors(field, st.integers(0, dim - 1), dim))
    alg_vec = draw(sparse_vectors(field, st.integers(0, nb - 1), nb))
    return field, dim, action, vec, alg_vec


@settings(max_examples=100, deadline=None)
@given(action_cases())
def test_apply_row_act_and_action_of_match_the_oracle(case):
    # act sums (c_b x_m) . action[b][m] directly; the oracle sends vec
    # through each matrix first.  Only act does only the field's ops, so a
    # stub algebra carrying the field is enough
    field, dim, action, vec, alg_vec = case
    m = GradedModule(SimpleNamespace(field=field), [0] * dim, action)
    want_row = {}
    for r, x in vec.items():
        vec_iadd_scaled(field, want_row, action[0].get(r, {}), x)
    want_rows = {}
    for b, c in alg_vec.items():
        for r, row in action[b].items():
            vec_iadd_scaled(field, want_rows.setdefault(r, {}), row, c)
    got_row = apply_row(field, vec, action[0])
    got_act = m.act(vec, alg_vec)
    got_rows = m.action_of(alg_vec)
    assert got_row == want_row
    assert got_act == module_act(m, vec, alg_vec)
    assert got_rows == {r: row for r, row in want_rows.items() if row}
    for got in [got_row, got_act, *got_rows.values()]:
        assert keeps_scalar_contract(field, got)


@pytest.mark.parametrize("char", KERNEL_CHARS)
def test_echelon_holds_no_alias_of_an_inserted_vector(char):
    # a unit pivot is not rescaled, so the stored row must still be a copy:
    # changing the inserted vector or tag afterwards changes nothing stored
    field = FieldSpec(char)
    for tagged in (False, True):
        ech = Echelon(field, tagged=tagged)
        first = {1: field.one(), 3: field.from_int(2)}
        second = {0: field.one(), 1: field.from_int(4)}  # reduced by first
        third = {2: field.one(), 4: field.from_int(3)}  # nothing to reduce
        tag = {7: field.one()} if tagged else None
        ech.insert(first)
        ech.insert(second, tag)
        ech.insert(third)
        rows = {p: dict(row) for p, row in ech.rows.items()}
        tags = {p: dict(t) for p, t in ech.tags.items()} if tagged else None
        for v in (first, second, third) + ((tag,) if tagged else ()):
            v[min(v)] = field.from_int(2)
            v[9] = field.one()
        assert ech.rows == rows
        assert ech.tags == tags
