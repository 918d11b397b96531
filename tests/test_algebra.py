"""Quiver compilation, builtin families, radicals and idempotents."""

import copy
import time

import pytest
from hypothesis import given, settings, strategies as st

import qshape.algebra
from qshape.algebra import (
    EXCEEDS_BOUND,
    GradedAlgebra,
    QuiverPresentation,
    builtin,
    center_basis,
    compile_quiver,
    corners,
    degree_zero_part,
    generating_vectors,
    global_dimension_bounded,
    jacobson_radical,
    left_support,
    primitive_idempotents,
    product_pairs,
    right_support,
    sup_degree,
    zero_algebra,
)
from qshape.errors import (
    NonHomogeneousRelation,
    UnknownFamily,
    UnsupportedCharacteristic,
    VerificationFailed,
)
from qshape.basechange import TensorAlgebra, gamma_tensor, ungrade
from qshape.fields import FieldSpec, QQ
from qshape.tilting import (
    GammaData,
    cartan_matrix,
    compare,
    fingerprint,
    reference_auslander_linear,
    reference_subcategory_algebra,
    reference_upper_triangular,
)
from qshape.window import QWindow

from oracles import (
    all_pairs_center,
    all_pairs_radical,
    dense_validate,
    interval_auslander,
    naive_cartan,
    naive_check_algebra,
    naive_corners,
    naive_failing_triples,
    naive_radical_power_degrees,
    naive_radical_series,
    opposite,
    pairwise_compile_quiver,
    vec_iadd_scaled,
)

GF = FieldSpec(32003)


def loop_algebra(n, field=QQ):
    return builtin("truncated_polynomial", n, field)


class TestCompileQuiver:
    def test_truncated_polynomial_monomials(self):
        # monomial basis 1, x, ..., x^{N-1}
        for n in (1, 2, 3, 5):
            a = loop_algebra(n)
            assert a.dim == n
            assert sorted(a.degrees) == list(range(n))

    def test_nilpotency_bound_too_small(self):
        pres = QuiverPresentation(["v"], [("x", "v", "v", 1)], [[(1, ("x",) * 4)]], 3)
        with pytest.raises(VerificationFailed):
            compile_quiver(pres, QQ)

    def test_large_nilpotency_bound_stops_at_the_last_normal_word(self):
        # k[x]/x^2 has no normal word of length 2, so none longer: the
        # words stop growing there, not at the bound
        pres = QuiverPresentation(["v"], [("x", "v", "v", 1)], [[(1, ("x", "x"))]], 10 ** 8)
        start = time.perf_counter()
        a = compile_quiver(pres, QQ)
        assert time.perf_counter() - start < 5
        assert a.dim == 2 and sorted(a.degrees) == [0, 1]

    def test_non_homogeneous_relation(self):
        pres_args = (
            ["v"],
            [("x", "v", "v", 1), ("y", "v", "v", 3)],
            [[(1, ("x", "x")), (1, ("y",))]],
            4,
        )
        with pytest.raises(NonHomogeneousRelation):
            QuiverPresentation(*pres_args)

    def test_non_composable_relation(self):
        with pytest.raises(NonHomogeneousRelation):
            QuiverPresentation(
                ["1", "2"],
                [("a", "1", "2", 0)],
                [[(1, ("a", "a"))]],
                3,
            )

    def test_preprojective_a2_hand_enumeration(self):
        # paths of length < 2: e1, e2, a1, b1; both length-2 loops die
        a = builtin("preprojective_A", 2, QQ)
        assert a.dim == 4
        assert sorted(a.degrees) == [0, 0, 0, 1]
        assert len(a.idempotents) == 2

    def test_preprojective_a3_hand_enumeration(self):
        # hand count: 3 verts + 4 arrows + classes a2*a1, b1*b2, [a1*b1]=[b2*a2]
        a = builtin("preprojective_A", 3, QQ)
        assert a.dim == 10
        comps = {d: sum(1 for x in a.degrees if x == d) for d in set(a.degrees)}
        assert comps == {0: 6, 1: 3, 2: 1}

    def test_preprojective_degree_zero_is_path_algebra(self):
        # relations live in degree >= 1, so the degree-0 part is the linear
        # path algebra with n(n+1)/2 paths
        for n in (2, 3, 4):
            a = builtin("preprojective_A", n, QQ)
            assert sum(1 for d in a.degrees if d == 0) == n * (n + 1) // 2

    def test_exterior_dims(self):
        for n in (1, 2, 3):
            a = builtin("exterior", n, QQ)
            assert a.dim == 2**n
            comps = {d: sum(1 for x in a.degrees if x == d) for d in set(a.degrees)}
            binom = [1]
            for _ in range(n):
                binom = [a_ + b_ for a_, b_ in zip(binom + [0], [0] + binom)]
            assert comps == {d: binom[d] for d in range(n + 1)}

    def test_unknown_family(self):
        with pytest.raises(UnknownFamily):
            builtin("nope", 2, QQ)

    def test_preprojective_a1_is_base_field(self):
        a = builtin("preprojective_A", 1, QQ)
        assert a.dim == 1
        assert a.degrees == [0]
        assert sup_degree(a) == 0


def compiled(compiler, pres, field):
    """The seven attributes a quiver compile produces, or the error it raised."""
    try:
        a = compiler(pres, field)
    except (VerificationFailed, ValueError) as e:
        return type(e), str(e)
    return (a.degrees, a.mult, a.unit, a.idempotents, a.labels, a.generators,
            a.radical_hint)


def builtin_presentation(monkeypatch, family, n):
    """The presentation `builtin` hands to `compile_quiver`."""
    seen = []
    monkeypatch.setattr(qshape.algebra, "compile_quiver",
                        lambda pres, field: seen.append(pres))
    builtin(family, n, QQ)
    monkeypatch.undo()
    return seen[0]


def cyclic_nakayama(n, length):
    """The cyclic quiver on n vertices, arrows in degree 1, modulo all paths
    of the given length."""
    arrows = [(f"a{i}", str(i), str((i + 1) % n), 1) for i in range(n)]
    relations = [[(1, tuple(f"a{(s + k) % n}" for k in reversed(range(length))))]
                 for s in range(n)]
    return QuiverPresentation([str(i) for i in range(n)], arrows, relations, length)


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("family, n", [("truncated_polynomial", n) for n in range(1, 17)]
                         + [("preprojective_A", n) for n in range(1, 7)]
                         + [("exterior", n) for n in range(1, 5)]
                         + [("cyclic_nakayama", n) for n in ((3, 4), (4, 4), (2, 6))])
def test_groebner_compiler_matches_pairwise_compiler_on_builtins(monkeypatch, family, n, char):
    if family == "cyclic_nakayama":
        pres = cyclic_nakayama(*n)
    else:
        pres = builtin_presentation(monkeypatch, family, n)
    field = FieldSpec(char)
    assert compiled(compile_quiver, pres, field) == compiled(pairwise_compile_quiver, pres, field)


@st.composite
def small_presentations(draw):
    """1-3 vertices, at most 4 arrows of degree 0-2, bound L <= 5, and up to
    4 relations, each 1-3 terms over paths of length <= L + 1 with one
    source, target and degree (so path lengths may differ), sometimes
    followed by every path of length L."""
    vertices = [str(v) for v in range(draw(st.integers(1, 3)))]
    arrows = [(f"a{i}", draw(st.sampled_from(vertices)), draw(st.sampled_from(vertices)),
               draw(st.integers(0, 2)))
              for i in range(draw(st.integers(0, 4)))]
    bound = draw(st.integers(1, 5))
    groups = {}  # (source, target, degree) -> right-to-left words
    frontier = [((), v, v, 0) for v in vertices]
    for _ in range(bound + 1):
        frontier = [((name,) + word, src, tgt, deg + d)
                    for word, src, end, deg in frontier
                    for name, s, tgt, d in arrows if s == end]
        for word, src, tgt, deg in frontier:
            groups.setdefault((src, tgt, deg), []).append(word)
    relations = []
    if groups:
        for _ in range(draw(st.integers(0, 4))):
            words = groups[draw(st.sampled_from(sorted(groups)))]
            terms = draw(st.lists(st.sampled_from(words), min_size=1, max_size=3))
            relations.append([(draw(st.integers(-2, 2)), w) for w in terms])
    if draw(st.booleans()):
        # the paths of length L as monomial relations, so the bound holds and
        # the whole algebra gets compared, not only the error
        relations += [[(1, w)] for ws in groups.values() for w in ws if len(w) == bound]
    return QuiverPresentation(vertices, arrows, relations, bound)


@settings(max_examples=80, deadline=None)
@given(small_presentations(), st.sampled_from([0, 32003]), st.data())
def test_groebner_compiler_matches_pairwise_compiler(pres, char, data):
    # both compilers give the normal words and normal forms of the truncated
    # relation ideal under one admissible order, so they agree, errors
    # included, and the order of the relations and of their terms does not
    # matter
    field = FieldSpec(char)
    expected = compiled(pairwise_compile_quiver, pres, field)
    assert compiled(compile_quiver, pres, field) == expected
    relations = [data.draw(st.permutations(rel)) for rel in pres.relations]
    shuffled = QuiverPresentation(pres.vertices, pres.arrows,
                                  data.draw(st.permutations(relations)),
                                  pres.nilpotency_bound)
    assert compiled(compile_quiver, shuffled, field) == expected


MIXED_LENGTH_CASES = {
    # a0 + a0*a0 times a0 is a0*a0 once a0^3 is truncated, so a0 = -a0*a0
    # lies in the ideal; only the truncation overlap of the leading word
    # a0*a0 with the paths of length L + 1 = 3 finds it
    "truncation-overlap": ((["0"], [("a0", "0", "0", 0), ("a1", "0", "0", 1)],
                            [[(1, ("a0",)), (1, ("a0", "a0"))], [(1, ("a1",))]], 2),
                           ["e_0"]),
    # a times (b + b*a) is a-then-b once a*a-then-b is truncated; it is
    # found through the overlap of the leading words a*a and a-then-b,
    # whose overlap word has length L + 1
    "overlap-past-the-bound": ((["0"], [("a", "0", "0", 0), ("b", "0", "0", 1)],
                                [[(1, ("a", "a"))], [(1, ("b",)), (1, ("b", "a"))]], 2),
                               ["e_0", "a"]),
    # every path of length L = 2 contains a leading word, but a0*a0
    # reduces to -a1, so a path of length L survives
    "survivor": ((["0"], [("a0", "0", "0", 1), ("a1", "0", "0", 2)],
                  [[(1, ("a1",)), (1, ("a0", "a0"))]], 2),
                 VerificationFailed),
}


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("case", list(MIXED_LENGTH_CASES))
def test_mixed_length_presentations(case, char):
    args, expected = MIXED_LENGTH_CASES[case]
    pres = QuiverPresentation(*args)
    field = FieldSpec(char)
    got = compiled(compile_quiver, pres, field)
    assert got == compiled(pairwise_compile_quiver, pres, field)
    assert got[0] is expected if expected is VerificationFailed else got[4] == expected


def test_exterior_5_compiles():
    a = builtin("exterior", 5, GF)
    assert a.dim == 32
    assert sorted(a.degrees) == sorted(bin(m).count("1") for m in range(32))


@pytest.mark.parametrize("n", [6, 7])
def test_exterior_6_and_7_compile(n):
    a = builtin("exterior", n, GF)
    assert a.dim == 2**n
    assert sorted(a.degrees) == sorted(bin(m).count("1") for m in range(2**n))


@pytest.mark.parametrize("n", [7, 8])
def test_preprojective_7_and_8_compile(n):
    a = builtin("preprojective_A", n, QQ)
    assert a.dim == n * (n + 1) * (n + 2) // 6
    assert sum(1 for d in a.degrees if d == 0) == n * (n + 1) // 2


class TestSupDegree:
    def test_truncated(self):
        for n in (1, 2, 4):
            assert sup_degree(loop_algebra(n)) == n - 1

    def test_exterior(self):
        assert sup_degree(builtin("exterior", 3, QQ)) == 3

    def test_preprojective(self):
        assert sup_degree(builtin("preprojective_A", 3, QQ)) == 2

    def test_zero_algebra_rejected(self):
        with pytest.raises(ValueError):
            sup_degree(zero_algebra(QQ))


def k_times_k(field=QQ):
    one = field.one()
    mult = [{0: {0: one}}, {1: {1: one}}]
    return GradedAlgebra(field, [0, 0], mult, {0: one, 1: one},
                         idempotents=[{0: one}, {1: one}])


class TestRadical:
    def test_truncated_polynomial(self):
        a = loop_algebra(2)
        rad = jacobson_radical(a)
        assert rad.series_dims == [1]
        assert rad.nilpotency == 2

    def test_semisimple_product(self):
        rad = jacobson_radical(k_times_k())
        assert rad.series_dims == []
        assert rad.nilpotency == 1

    def test_preprojective_a2(self):
        a = builtin("preprojective_A", 2, QQ)
        rad = jacobson_radical(a)
        assert rad.series_dims == [2]
        assert rad.nilpotency == 2

    def test_trace_form_agrees_with_arrow_ideal(self):
        # the compiled algebra carries the arrow ideal hint; the constructor
        # cross-checks it against the trace form when the characteristic
        # permits, so survival of these calls is the assertion
        for fam, par in (("truncated_polynomial", 4), ("preprojective_A", 3), ("exterior", 2)):
            for field in (QQ, GF):
                jacobson_radical(builtin(fam, par, field))

    def test_small_characteristic_without_hint(self):
        f2 = FieldSpec(2)
        one = f2.one()
        mult = [{0: {0: one}, 1: {1: one}}, {0: {1: one}}]
        a = GradedAlgebra(f2, [0, 0], mult, {0: one})
        with pytest.raises(UnsupportedCharacteristic):
            jacobson_radical(a)

    def test_nilpotency_of_truncated_equals_n(self):
        for n in (2, 3, 5):
            assert jacobson_radical(loop_algebra(n)).nilpotency == n

    @pytest.mark.parametrize("char", [0, 32003])
    @pytest.mark.parametrize("family,n", [("truncated_polynomial", 1),
                                          ("truncated_polynomial", 2),
                                          ("truncated_polynomial", 7),
                                          ("exterior", 1), ("exterior", 4)])
    def test_layer_j_sits_in_degree_j(self, family, n, char):
        # both families are generated in degree 1, so the words of length j
        # in V span the radical's part in degree j
        rad = jacobson_radical(builtin(family, n, FieldSpec(char)))
        assert rad.layer_degrees == [{j} for j in range(1, rad.nilpotency)]

    def test_layer_degrees_of_the_semisimple_and_the_zero_algebra(self):
        assert jacobson_radical(k_times_k()).layer_degrees == []
        assert jacobson_radical(zero_algebra(QQ)).layer_degrees == []

    def test_non_nilpotent_ideal_hint_is_rejected(self):
        # k x k[x]/x^2 with basis e, f, x (unit e + f) over GF(3), so the
        # hint is not checked against the trace form.  span(e, x) is a
        # two-sided ideal but not nilpotent (e^2 = e); its square span(e)
        # leaves V = {x}, whose words die at x^2 = 0 without reaching e
        f3 = FieldSpec(3)
        one = f3.one()
        mult = [{0: {0: one}}, {1: {1: one}, 2: {2: one}}, {1: {2: one}}]
        a = GradedAlgebra(f3, [0, 0, 0], mult, {0: one, 1: one},
                          radical_hint=[{0: one}, {2: one}])
        assert naive_radical_series(f3, mult, a.radical_hint) is None
        with pytest.raises(VerificationFailed, match="not nilpotent"):
            jacobson_radical(a)

    @staticmethod
    def linear_a3_with_hint(field, label):
        """The path algebra of 1 -a-> 2 -b-> 3 with the span of one basis
        vector as its radical hint."""
        pres = QuiverPresentation(["1", "2", "3"], [("a", "1", "2", 0), ("b", "2", "3", 0)],
                                  [], 3)
        base = compile_quiver(pres, field)
        hint = [base.basis_vec(base.labels.index(label))]
        return GradedAlgebra(field, base.degrees, base.mult, base.unit,
                             idempotents=base.idempotents, generators=base.generators,
                             radical_hint=hint)

    def test_hint_that_is_not_an_ideal_is_rejected(self):
        # over GF(2) the characteristic is below the dimension 6, so the
        # trace form is not consulted; b*a lies outside span(a)
        a = self.linear_a3_with_hint(FieldSpec(2), "a")
        with pytest.raises(VerificationFailed, match="radical candidate is not an ideal"):
            jacobson_radical(a)

    def test_hint_that_misses_the_trace_form_radical_is_rejected(self):
        a = self.linear_a3_with_hint(QQ, "a")
        with pytest.raises(VerificationFailed,
                           match="arrow-ideal radical disagrees with trace form"):
            jacobson_radical(a)


_RADICAL_INSTANCES = {}


def _radical_instance(name, char):
    """A builtin ("family n") or the Gamma of one ("Gamma family n")."""
    if (name, char) not in _RADICAL_INSTANCES:
        family, n = name.removeprefix("Gamma ").split()
        a = builtin(family, int(n), FieldSpec(char))
        if name.startswith("Gamma "):
            a = GammaData(a).algebra
        _RADICAL_INSTANCES[name, char] = a
    return _RADICAL_INSTANCES[name, char]


def relabelled(a, perm):
    """The same algebra with basis vector i renamed perm[i]."""
    n = a.dim
    move = lambda v: {perm[i]: c for i, c in v.items()}
    degrees = [None] * n
    mult = [{} for _ in range(n)]
    for i, row in enumerate(a.mult):
        degrees[perm[i]] = a.degrees[i]
        for j, w in row.items():
            mult[perm[i]][perm[j]] = move(w)
    hint = [move(v) for v in a.radical_hint] if a.radical_hint is not None else None
    idems = [move(e) for e in a.idempotents] if a.idempotents is not None else None
    return GradedAlgebra(a.field, degrees, mult, move(a.unit), idempotents=idems,
                         radical_hint=hint)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([f"{g}{fam}" for g in ("", "Gamma ")
                     for fam in ("truncated_polynomial 6", "preprojective_A 3", "exterior 3")]),
    st.sampled_from([0, 32003]),
    st.data(),
)
def test_radical_series_matches_all_products(name, char, data):
    # relabelling the basis changes the radical basis and so the words in V;
    # the series must still be the one all products of powers give
    base = _radical_instance(name, char)
    a = relabelled(base, data.draw(st.permutations(range(base.dim))))
    rad, base_rad = jacobson_radical(a), jacobson_radical(base)
    assert naive_radical_series(a.field, a.mult, rad.basis) == (rad.series_dims, rad.nilpotency)
    assert (rad.series_dims, rad.nilpotency) == (base_rad.series_dims, base_rad.nilpotency)


def _reference_instance(kind, char):
    f = FieldSpec(char)
    if kind == "upper_triangular":
        return reference_upper_triangular(4, f)
    if kind == "auslander":
        # no quiver behind it: no radical hint, idempotents as class vectors
        return interval_auslander(3, f)
    if kind == "auslander_mesh":
        return reference_auslander_linear(3, f)
    return reference_subcategory_algebra(builtin("exterior", 3, f))


_PAIR_INSTANCES = [f"{g}{fam}" for g in ("", "Gamma ")
                   for fam in ("truncated_polynomial 6", "preprojective_A 3",
                               "preprojective_A 4", "exterior 3")]


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("name", _PAIR_INSTANCES + ["upper_triangular", "auslander",
                                                    "auslander_mesh", "subcategory"])
def test_support_pairs_give_the_all_pairs_radical_and_center(name, char):
    # forming only the products whose supports meet a stored product must
    # give the same radical basis, V, series and center basis as all pairs
    if name in ("upper_triangular", "auslander", "auslander_mesh", "subcategory"):
        a = _reference_instance(name, char)
    else:
        a = _radical_instance(name, char)
    rad = jacobson_radical(a)
    assert (rad.basis, rad.gens, rad.series_dims) == all_pairs_radical(a)
    assert center_basis(a) == all_pairs_center(a)


def unitriangular_changed(a):
    """The same algebra on the basis b'_k = b_k + sum of c_kl b_l over the
    later l of the degree of k, every c_kl nonzero: a unitriangular change
    inside each degree, so most basis vectors, idempotents and hint vectors
    have many entries where `relabelled` and `rescaled` keep one."""
    f = a.field
    new = {}  # b'_k in the old coordinates
    for d in sorted(set(a.degrees)):
        ks = a.component_indices(d)
        for pos, k in enumerate(ks):
            new[k] = {k: f.one(), **{l: f.from_int(1 + (3 * k + l) % 4) for l in ks[pos + 1:]}}

    def to_new(vec):
        # b'_k leads with b_k and is otherwise later in the same degree, so
        # the coefficient of the smallest old index left is the next one
        rest, out = dict(vec), {}
        while rest:
            k = min(rest)
            out[k] = rest[k]
            vec_iadd_scaled(f, rest, new[k], f.neg(out[k]))
        return out

    mult = []
    for i in range(a.dim):
        row = {}
        for j in range(a.dim):
            w = to_new(a.product(new[i], new[j]))
            if w:
                row[j] = w
        mult.append(row)
    move = lambda vecs: [to_new(v) for v in vecs] if vecs is not None else None
    return GradedAlgebra(f, a.degrees, mult, to_new(a.unit), idempotents=move(a.idempotents),
                         generators=move(a.generators), radical_hint=move(a.radical_hint))


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("name", ["preprojective_A 3", "Gamma exterior 3"])
def test_product_pairs_are_the_pairs_whose_supports_meet(name, char):
    # from either side: fewer us than vs walks rows, more walks columns
    a = unitriangular_changed(_radical_instance(name, char))
    basis = [a.basis_vec(m) for m in range(a.dim)]
    rad = jacobson_radical(a).basis
    for us, vs in ((a.idempotents, basis), (basis, a.idempotents), (rad, rad),
                   (rad[:3], basis[::2]), (basis[::2], rad[:3]), ([], basis)):
        meet = [(s, t) for s, u in enumerate(us) for t, v in enumerate(vs)
                if any(j in a.mult[i] for i in u for j in v)]
        assert product_pairs(a, us, vs) == meet
        assert all(not a.product(u, v) for s, u in enumerate(us) for t, v in enumerate(vs)
                   if (s, t) not in meet)
    # one vector g against the basis, read off the table: b_m * g and g * b_m
    for g in a.idempotents + rad[:3]:
        assert left_support(a, g) == [m for m in range(a.dim)
                                      if any(j in a.mult[m] for j in g)]
        assert right_support(a, g) == [m for m in range(a.dim)
                                       if any(m in a.mult[i] for i in g)]


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("name", _PAIR_INSTANCES)
def test_dense_change_of_basis_keeps_every_invariant(name, char):
    base = _radical_instance(name, char)
    a = unitriangular_changed(base)
    assert len(a.idempotents) == 1 or any(len(e) > 1 for e in a.idempotents)
    rad = jacobson_radical(a)
    assert naive_radical_series(a.field, a.mult, rad.basis) == (rad.series_dims, rad.nilpotency)
    assert rad.series_dims == jacobson_radical(base).series_dims
    assert (rad.basis, rad.gens, rad.series_dims) == all_pairs_radical(a)
    assert cartan_matrix(a) == naive_cartan(a.field, a.mult, a.idempotents) == cartan_matrix(base)
    assert center_basis(a) == all_pairs_center(a)
    assert len(center_basis(a)) == len(center_basis(base))
    w, w_base = QWindow(a, -1, 1), QWindow(base, -1, 1)
    for q in w.objects:
        for qp in w.objects:
            assert w.hom_dim(q, qp) == w_base.hom_dim(q, qp)
            assert len(w.radical_basis(q, qp)) == len(w_base.radical_basis(q, qp))


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("name", _PAIR_INSTANCES)
def test_layer_degrees_give_the_degrees_of_each_radical_power(name, char):
    # R^k = sum_{j>=k} W_j with every W_j graded, so the degrees of R^k are
    # those of the layers from k on; preprojective_A has degree-0 arrows,
    # so its layers hold several degrees
    a = unitriangular_changed(_radical_instance(name, char))
    rad = jacobson_radical(a)
    layers = rad.layer_degrees
    assert len(layers) == rad.nilpotency - 1
    assert naive_radical_power_degrees(a.field, a.mult, a.degrees, rad.basis) == [
        set().union(*layers[k:]) for k in range(len(layers))]


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("name", _PAIR_INSTANCES)
def test_corners_are_the_naive_corners_of_the_basis_and_the_radical(name, char):
    # the one corner routine gives the reduced rows of every e_u x e_v span
    # exactly, with homogeneous rows, for the basis (Cartan matrix, window
    # slices) and the radical basis (radical corners, window radicals)
    a = unitriangular_changed(_radical_instance(name, char))
    f, idems = a.field, a.idempotents
    for vectors in ([a.basis_vec(m) for m in range(a.dim)], jacobson_radical(a).basis):
        got = corners(a, vectors)
        assert got == naive_corners(f, a.mult, idems, vectors)
        assert all(len({a.degrees[k] for k in vec}) == 1
                   for row in got for rows in row for vec in rows)
    # the radical is the direct sum of its corners
    assert sum(len(rows) for row in got for rows in row) == len(jacobson_radical(a).basis)


def test_fingerprint_forms_only_the_products_supports_allow(monkeypatch):
    # on the dim-120 Gamma of truncated_polynomial 16, 455 of the 105^2
    # products of radical basis vectors are nonzero; all pairs in the
    # radical, the center and the Cartan corners would form 31,845
    g = GammaData(builtin("truncated_polynomial", 16, QQ)).algebra
    calls = []
    product = GradedAlgebra.product

    def counted(self, v, w):
        calls.append(None)
        return product(self, v, w)

    monkeypatch.setattr(GradedAlgebra, "product", counted)
    fp = fingerprint(g)
    assert fp.radical_series == [n * (n + 1) // 2 for n in range(14, 0, -1)]
    assert len(calls) <= 5000


def test_validation_forms_only_the_products_supports_allow(monkeypatch):
    # validating the dim-120 Gamma of truncated_polynomial 16 (28 greedy
    # generators) applies a right-multiplication table to 1,490 vectors;
    # every stored product and every word against every table would be
    # 22,400
    g = GammaData(builtin("truncated_polynomial", 16, QQ)).algebra
    calls = []
    apply_row = qshape.algebra.apply_row

    def counted(field, vec, rows):
        calls.append(None)
        return apply_row(field, vec, rows)

    monkeypatch.setattr(qshape.algebra, "apply_row", counted)
    rebuilt = GradedAlgebra(g.field, g.degrees, g.mult, g.unit, g.idempotents)
    assert len(rebuilt._cache["gens"]) == 28
    assert len(calls) <= 2000


class TestIdempotents:
    def test_local_algebra(self):
        a = loop_algebra(3)
        idems = primitive_idempotents(a)
        assert len(idems) == 1
        assert idems[0] == a.unit

    def test_quiver_vertices(self):
        a = builtin("preprojective_A", 3, QQ)
        assert len(primitive_idempotents(a)) == 3


class TestDegreeZeroAndOpposite:
    def test_degree_zero_of_preprojective(self):
        a = builtin("preprojective_A", 3, QQ)
        part = degree_zero_part(a)
        assert part.dim == 6
        assert part.is_trivially_graded()
        assert len(part.idempotents) == 3
        assert degree_zero_part(a) is part

    def test_opposite_involution(self):
        a = builtin("preprojective_A", 2, QQ)
        assert opposite(opposite(a)) is a

    def test_opposite_multiplication(self):
        a = builtin("preprojective_A", 2, QQ)
        op = opposite(a)
        for i in range(a.dim):
            for j in range(a.dim):
                assert op.mult[i].get(j) == a.mult[j].get(i)


class TestGlobalDimension:
    def test_base_field(self):
        a = builtin("preprojective_A", 1, QQ)
        assert global_dimension_bounded(a, 10) == 0

    def test_linear_quiver(self):
        pres = QuiverPresentation(["1", "2"], [("a", "1", "2", 0)], [], 2)
        a = compile_quiver(pres, QQ)
        assert global_dimension_bounded(a, 10) == 1

    def test_dual_numbers_exceed_any_bound(self):
        pres = QuiverPresentation(["v"], [("x", "v", "v", 0)], [[(1, ("x", "x"))]], 2)
        a = compile_quiver(pres, QQ)
        assert global_dimension_bounded(a, 4) == EXCEEDS_BOUND

    def test_negative_bound_is_rejected(self):
        a = builtin("preprojective_A", 1, QQ)
        with pytest.raises(ValueError, match="bound must be >= 0"):
            global_dimension_bounded(a, -1)
        assert global_dimension_bounded(a, 0) == 0

    def test_coefficient_rings_of_preprojective(self):
        for n in (2, 3, 4):
            part = degree_zero_part(builtin("preprojective_A", n, QQ))
            assert global_dimension_bounded(part, 10) == 1


class TestCenter:
    def test_commutative_algebra_is_its_center(self):
        a = loop_algebra(3)
        assert len(center_basis(a)) == 3

    def test_preprojective_center_smaller(self):
        a = builtin("preprojective_A", 2, QQ)
        assert len(center_basis(a)) < a.dim


class TestNonBasicIdempotents:
    def _matrix_algebra(self, field):
        # 2x2 matrix units e11, e12, e21, e22 as structure constants, with
        # e11 and e22 declared
        one = field.one()
        units = {(1, 1): 0, (1, 2): 1, (2, 1): 2, (2, 2): 3}
        mult = [{} for _ in range(4)]
        for (a, b), i in units.items():
            for (c, d), j in units.items():
                if b == c:
                    mult[i][j] = {units[(a, d)]: one}
        return GradedAlgebra(field, [0] * 4, mult, {0: one, 3: one},
                             idempotents=[{0: one}, {3: one}])

    def test_full_matrix_block_splits(self):
        for field in (QQ, GF):
            fp = fingerprint(self._matrix_algebra(field))
            assert fp.num_simples == 2
            # e_u M_2(k) e_v is spanned by the one matrix unit e_uv
            assert fp.cartan == ((1, 1), (1, 1))

    def test_block_dims_report_the_square(self):
        for field in (QQ, GF):
            assert fingerprint(self._matrix_algebra(field)).block_dims == [4]


class TestComputedIdempotentsForGraded:
    def test_graded_algebra_without_declared_idempotents(self):
        # nothing searches for idempotents: the lookup raises, and the
        # invariants built on them are unavailable, never guessed
        base = builtin("preprojective_A", 2, QQ)
        stripped = GradedAlgebra(base.field, base.degrees, base.mult, base.unit,
                                 radical_hint=base.radical_hint)
        with pytest.raises(ValueError, match="declares no primitive idempotents"):
            primitive_idempotents(stripped)
        fp = fingerprint(stripped)
        assert (fp.num_simples, fp.block_dims, fp.cartan) == (None, None, None)
        assert compare(stripped, base).status == "inconclusive"


class TestMeshRewriting:
    def test_product_rewrites_to_kept_class(self):
        # in the A_3 case the two length-2 loop paths at the middle vertex
        # are identified; the product of the arrow classes must land on the
        # surviving basis class with coefficient 1
        a = builtin("preprojective_A", 3, QQ)
        by_label = {a.labels[i]: i for i in range(a.dim)}
        b2 = a.basis_vec(by_label["b2"])
        a2 = a.basis_vec(by_label["a2"])
        loop = a.product(b2, a2)  # apply a2, then b2
        assert len(loop) == 1
        ((idx, coeff),) = loop.items()
        assert a.labels[idx] in ("b2*a2", "a1*b1")
        assert QQ.to_str(coeff) == "1"
        # and the other expression of the same mesh class agrees
        a1 = a.basis_vec(by_label["a1"])
        b1 = a.basis_vec(by_label["b1"])
        assert a.product(a1, b1) == loop

    def test_killed_loops_vanish(self):
        a = builtin("preprojective_A", 3, QQ)
        by_label = {a.labels[i]: i for i in range(a.dim)}
        b1 = a.basis_vec(by_label["b1"])
        a1 = a.basis_vec(by_label["a1"])
        assert a.product(b1, a1) == {}  # relation at the first vertex
        a2 = a.basis_vec(by_label["a2"])
        b2 = a.basis_vec(by_label["b2"])
        assert a.product(a2, b2) == {}  # relation at the last vertex


class TestGeneratingSet:
    def test_declared_generators_must_generate(self):
        # the unit alone generates only the scalars: trusting it made the
        # commutant of {1}, the whole algebra, pass for the center
        a = reference_upper_triangular(3, QQ)
        with pytest.raises(ValueError, match="span only 1 of 6"):
            GradedAlgebra(a.field, a.degrees, a.mult, a.unit, generators=[a.unit])

    def test_greedy_set_takes_basis_vectors_in_degree_order(self):
        a = loop_algebra(4)
        b = GradedAlgebra(a.field, a.degrees, a.mult, a.unit)
        assert generating_vectors(b) == [b.basis_vec(1)]  # x; its powers span
        assert generating_vectors(a) == a.generators

    def test_only_failing_triple_outside_declared_generators(self):
        # 1, x, y in degree 1, z in degree 2, w in degree 3, with
        # xx = z, xz = zx = zy = w and every other product of positive
        # elements zero: (xx)y = w but x(xy) = 0, and every other triple
        # associates.  Right words in {1, x} miss y, so trusting that set
        # would accept the table.
        for field in (QQ, GF):
            one = field.one()
            mult = [{} for _ in range(5)]
            for i in range(5):
                mult[0][i] = mult[i][0] = {i: one}
            mult[1][1] = {3: one}
            mult[1][3] = mult[3][1] = mult[3][2] = {4: one}
            unit = {0: one}
            assert naive_failing_triples(field, mult) == [(1, 1, 2)]
            assert not naive_check_algebra(field, mult, unit)
            with pytest.raises(ValueError, match="span only 4 of 5"):
                GradedAlgebra(field, [0, 1, 1, 2, 3], mult, unit,
                              generators=[unit, {1: one}])
            with pytest.raises(ValueError, match="associativity"):
                GradedAlgebra(field, [0, 1, 1, 2, 3], mult, unit)


_PERTURBATION_BASES = {
    "truncated_polynomial 4": lambda f: builtin("truncated_polynomial", 4, f),
    "exterior 2": lambda f: builtin("exterior", 2, f),
    "preprojective_A 3": lambda f: builtin("preprojective_A", 3, f),
    "upper_triangular 3": lambda f: reference_upper_triangular(3, f),
    "truncated_polynomial 2 (x) preprojective_A 2": lambda f: TensorAlgebra(
        builtin("truncated_polynomial", 2, f), ungrade(builtin("preprojective_A", 2, f))
    ).product,
    # sparse tables with many idempotents, where most products of a
    # generator's right-multiplication table are zero by support
    "upper_triangular 6": lambda f: reference_upper_triangular(6, f),
    "auslander 3": lambda f: reference_auslander_linear(3, f),
    # no declared generators: the greedy generating set
    "Gamma of truncated_polynomial 6": lambda f: GammaData(
        builtin("truncated_polynomial", 6, f)).algebra,
    "degree_zero_part of preprojective_A 4": lambda f: degree_zero_part(
        builtin("preprojective_A", 4, f)),
}
_PERTURBED = {}


def _perturbation_base(name, char):
    """The algebra, its stored entries (i, j, k), its stored products (i, j)
    and every (i, j, k) with deg k = deg i + deg j outside the stored
    entries."""
    if (name, char) not in _PERTURBED:
        a = _PERTURBATION_BASES[name](FieldSpec(char))
        entries = [(i, j, k) for i, row in enumerate(a.mult)
                   for j, w in row.items() for k in w]
        products = [(i, j) for i, row in enumerate(a.mult) for j in row]
        slots = [(i, j, k) for i in range(a.dim) for j in range(a.dim)
                 for k in range(a.dim) if a.degrees[k] == a.degrees[i] + a.degrees[j]
                 and k not in a.mult[i].get(j, {})]
        _PERTURBED[name, char] = (a, {"scalar": entries, "term": slots, "delete": products})
    return _PERTURBED[name, char]


def validation_error(*args, **kwargs):
    """The ValueError message of GradedAlgebra(*args, **kwargs), or None."""
    try:
        GradedAlgebra(*args, **kwargs)
    except ValueError as e:
        return str(e)
    return None


@settings(max_examples=270, deadline=None)
@given(
    st.sampled_from(sorted(_PERTURBATION_BASES)),
    st.sampled_from([0, 32003]),
    st.data(),
)
def test_validation_rejects_exactly_what_the_oracle_rejects(name, char, data):
    # one product is perturbed within the grading: a stored scalar changed
    # (to zero: dropped), a term added, or the whole product deleted, and a
    # product that becomes zero is dropped from its row.  The column-wise
    # check against the generating set must raise what the dense check of
    # every (b_i, b_j, g) raises, and accept exactly the tables that the
    # exhaustive check of all triples accepts
    a, choices = _perturbation_base(name, char)
    field = a.field
    kind = data.draw(st.sampled_from([kind for kind in choices if choices[kind]]))
    mult = copy.deepcopy(a.mult)
    if kind == "delete":
        i, j = data.draw(st.sampled_from(choices[kind]))
        del mult[i][j]
    else:
        i, j, k = data.draw(st.sampled_from(choices[kind]))
        value = field.from_int(data.draw(st.integers(-3, 3).filter(
            lambda x: kind == "scalar" or x != 0)))
        w = mult[i].setdefault(j, {})
        w.pop(k, None)
        if not field.is_zero(value):
            w[k] = value
        if not w:
            del mult[i][j]
    expected = dense_validate(field, a.degrees, mult, a.unit)
    assert validation_error(field, a.degrees, mult, a.unit) == expected
    assert (expected is None) == naive_check_algebra(field, mult, a.unit)
    if a.generators is not None:
        assert (validation_error(field, a.degrees, mult, a.unit, generators=a.generators)
                == dense_validate(field, a.degrees, mult, a.unit, a.generators))


def broken_table(case, field):
    """(degrees, rows) of a table with one fault.  The associativity case is
    1, x, y in degree 1, z in degree 2, w in degree 3 with xx = z and
    xz = zx = zy = w: (xx)y = w but x(xy) = 0, and the greedy generators
    are x, then y.  The two cases after it are 1, x, y in degree 1, u, z in
    degree 2 and w in degree 3, each failing only at (x, x, y) with y the
    greedy generator 1, whose right-multiplication table is nonzero only in
    the rows of 1 and one other basis vector:
    - "(b_i b_j)g only": xx = u + z and zy = w, so (xx)y = w through the
      last coordinate of supp(xx), while xy = 0;
    - "b_i(b_j g) only": xx = u, xy = z and xz = w, so supp(xx) misses the
      rows of xy = z and (xx)y = 0, while x(xy) = w.
    The others break k[x]/x^3 on 1, x, x^2; "one-sided unit" drops
    x^2 * 1, so 1 * x^2 = x^2 but x^2 * 1 = 0, at a basis element outside
    the support of the unit."""
    one = field.one()
    if case == "associativity":
        mult = [{i: {i: one} for i in range(5)}] + [{0: {i: one}} for i in range(1, 5)]
        mult[1][1] = {3: one}
        mult[1][3] = mult[3][1] = mult[3][2] = {4: one}
        return [0, 1, 1, 2, 3], mult
    if case.startswith("associativity, "):
        mult = [{i: {i: one} for i in range(6)}] + [{0: {i: one}} for i in range(1, 6)]
        if case.endswith("(b_i b_j)g only"):
            mult[1][1] = {3: one, 4: one}
            mult[4][2] = {5: one}
        else:
            mult[1][1] = {3: one}
            mult[1][2] = {4: one}
            mult[1][4] = {5: one}
        return [0, 1, 1, 2, 2, 3], mult
    mult = [{0: {0: one}, 1: {1: one}, 2: {2: one}}, {0: {1: one}, 1: {2: one}}, {0: {2: one}}]
    if case == "grading":
        mult[1][1] = {1: one}
    elif case == "zero scalar":
        mult[1][1] = {2: field.zero()}
    elif case == "empty vector":
        mult[1][2] = {}  # x * x^2 = 0, stored
    elif case == "one-sided unit":
        del mult[2][0]
    else:  # a row in the dense format
        mult[2] = [{2: one}, {}, {}]
    return [0, 1, 2], mult


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("case, expected", [
    ("associativity", "associativity fails at (b1, b1, generator 1)"),
    ("associativity, (b_i b_j)g only", "associativity fails at (b1, b1, generator 1)"),
    ("associativity, b_i(b_j g) only", "associativity fails at (b1, b1, generator 1)"),
    ("grading", "grading violated: b1*b1 hits degree 1"),
    ("zero scalar", "structure constants must omit zeros"),
    ("empty vector", "structure constants must omit zeros"),
    ("one-sided unit", "unit laws fail"),
    ("dense row", "structure constant table has wrong shape"),
])
def test_validation_rejects_pinned_tables(case, expected, char):
    field = FieldSpec(char)
    degrees, mult = broken_table(case, field)
    unit = {0: field.one()}
    if case.startswith("associativity, "):
        assert naive_failing_triples(field, mult) == [(1, 1, 2)]
    if case == "one-sided unit":
        assert not naive_check_algebra(field, mult, unit)
    assert dense_validate(field, degrees, mult, unit) == expected
    assert validation_error(field, degrees, mult, unit) == expected


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("extra", [3, -1])
def test_validation_rejects_a_unit_off_the_basis(extra, char):
    # the unit laws read the table at supp(u), so a coordinate of u that
    # names no basis vector must fail them rather than be skipped
    field = FieldSpec(char)
    a = loop_algebra(3, field)
    unit = {**a.unit, extra: field.one()}
    assert validation_error(field, a.degrees, a.mult, a.unit) is None
    assert validation_error(field, a.degrees, a.mult, unit) == "unit laws fail"


_CONSTRUCTED = {
    "compile_quiver": lambda f: builtin("preprojective_A", 3, f),
    "degree_zero_part": lambda f: degree_zero_part(builtin("preprojective_A", 3, f)),
    "StableEnd": lambda f: GammaData(builtin("exterior", 2, f)).algebra,
    # the oracle End of the interval modules: no quiver behind it, so no
    # radical hint, and idempotents given as class vectors
    "end_algebra": lambda f: interval_auslander(3, f),
    "reference_auslander_linear": lambda f: reference_auslander_linear(3, f),
    "reference_subcategory_algebra": lambda f: reference_subcategory_algebra(
        builtin("preprojective_A", 2, f)),
    "TensorAlgebra": lambda f: TensorAlgebra(
        builtin("exterior", 2, f), ungrade(builtin("preprojective_A", 2, f))).product,
    "gamma_tensor": lambda f: gamma_tensor(
        GammaData(builtin("truncated_polynomial", 4, f)).algebra,
        ungrade(builtin("preprojective_A", 2, f))),
    "ungrade": lambda f: ungrade(builtin("truncated_polynomial", 3, f)),
}


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("constructor", list(_CONSTRUCTED))
def test_constructors_store_only_nonzero_products(constructor, char):
    # every row maps j to a nonempty b_i * b_j, and the products are what
    # the dense checks accept
    a = _CONSTRUCTED[constructor](FieldSpec(char))
    assert a.dim > 1
    assert all(w for row in a.mult for w in row.values())
    for i in range(a.dim):
        for j in range(a.dim):
            assert a.product(a.basis_vec(i), a.basis_vec(j)) == a.mult[i].get(j, {})
    assert dense_validate(a.field, a.degrees, a.mult, a.unit, a.generators) is None
