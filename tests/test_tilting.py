"""Tilting module, its stable endomorphism algebra, references, fingerprints."""

import gc

import pytest
from hypothesis import given, settings, strategies as st

from qshape.algebra import (
    QuiverPresentation,
    builtin,
    compile_quiver,
    jacobson_radical,
    primitive_idempotents,
    sup_degree,
    zero_algebra,
)
from qshape.errors import HypothesisViolated
from qshape.fields import FieldSpec, QQ
from qshape.modules import (
    GradedModule,
    _projective_data,
    projective,
    regular,
)
from qshape.tilting import (
    GATE,
    GammaData,
    canonical_matrix,
    cartan_matrix,
    check_hypotheses,
    compare,
    fingerprint,
    reference_auslander_linear,
    reference_subcategory_algebra,
    reference_upper_triangular,
    tilting_module,
)

from oracles import (
    QuotientModule,
    _interval_modules,
    auslander_linear_dim,
    brute_canonical_matrix,
    compiled_upper_triangular,
    end_algebra,
    interval_auslander,
    map_rank,
    module_equal,
    naive_cartan,
    nonprojective_summands,
    opposite,
    restrict,
    shift,
    socle,
    truncate_le,
    validate_map,
    vec_iadd_scaled,
)

GF = FieldSpec(32003)


def trunc(n, field=QQ):
    return builtin("truncated_polynomial", n, field)


class TestTiltingModule:
    def test_dual_numbers_gives_simple(self):
        td = tilting_module(trunc(2))
        assert td.module.dim == 1
        assert td.blocks == [(1, 0, 0)]

    def test_truncated_cubic_dims(self):
        # one vertex: a block per shift
        td = tilting_module(trunc(3))
        assert td.blocks == [(1, 0, 0), (1, 1, 0)]
        assert [e - o for o, e in zip(td.offsets, td.offsets[1:] + [td.module.dim])] == [1, 2]
        assert td.module.dim == 3

    def test_semisimple_gives_zero(self):
        td = tilting_module(builtin("preprojective_A", 1, QQ))
        assert td.module.dim == 0
        assert td.blocks == td.offsets == []

    def test_dimension_bookkeeping(self):
        # dim T = sum over i < ell of the partial sums of component dims
        for fam, par in (("exterior", 3), ("preprojective_A", 3)):
            a = builtin(fam, par, QQ)
            td = tilting_module(a)
            comp = {}
            for d in a.degrees:
                comp[d] = comp.get(d, 0) + 1
            expected = sum(sum(comp.get(d, 0) for d in range(i + 1))
                           for i in range(sup_degree(a)))
            assert td.module.dim == expected

    def test_hypothesis_gate(self):
        pres = QuiverPresentation(["1", "2"], [("a", "1", "2", 0)], [], 2)
        a = compile_quiver(pres, QQ)
        with pytest.raises(HypothesisViolated) as exc:
            tilting_module(a)
        assert exc.value.which == "self_injective"

    def test_zero_algebra_passes_the_gate(self):
        # global_dimension_bounded decides the zero algebra on its own
        a = zero_algebra(QQ)
        assert check_hypotheses(a) == {
            "non_negative_grading": True, "self_injective": True,
            "degree_zero_global_dimension": 0, "finite_global_dimension": True}

    def test_gate_verdicts_are_carried(self):
        # T and Gamma keep the verdicts of the gate that let them be built,
        # and a failed gate carries them on the error, naming the first
        # key of GATE that fails
        a = trunc(3)
        assert tilting_module(a).hypotheses == check_hypotheses(a)
        assert GammaData(a).hypotheses == check_hypotheses(a)
        pp3 = builtin("preprojective_A", 3, QQ)
        with pytest.raises(HypothesisViolated) as exc:
            tilting_module(pp3, gldim_bound=0)
        verdicts = exc.value.verdicts
        assert verdicts == check_hypotheses(pp3, 0)
        assert exc.value.which == next(k for k in GATE if not verdicts[k])
        assert exc.value.which == "finite_global_dimension"
        assert str(exc.value) == "hypothesis violated: finite_global_dimension"


BUILTINS = ([("truncated_polynomial", n) for n in (2, 3, 6, 10)]
            + [("preprojective_A", n) for n in (1, 2, 3, 4)]
            + [("exterior", n) for n in (1, 2, 3)])


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("family,n", BUILTINS)
def test_blocks_of_each_shift_map_onto_the_truncated_regular_module(family, n, char):
    # the blocks (v, i, 0) of T, in (i, v) order, are T's coordinates from
    # each offset up to the next, or T's end; those with shift i are a run,
    # and the inclusion rows of each e_v Lambda send their sum bijectively
    # onto T_i = Lambda(i)_{<=0} by a module map
    a = builtin(family, n, FieldSpec(char))
    f = a.field
    td = tilting_module(a)
    ell = sup_degree(a) if a.dim else 0
    vertices = range(1, len(primitive_idempotents(a)) + 1)
    assert td.blocks == [(v, i, 0) for i in range(ell) for v in vertices]
    ends = td.offsets[1:] + [td.module.dim]
    for i in range(ell):
        run = [(v, off, end) for (v, j, _), off, end in zip(td.blocks, td.offsets, ends)
               if j == i]
        start, stop = run[0][1], run[-1][2]
        source = restrict(td.module, range(start, stop))
        target = truncate_le(shift(regular(a), i), 0)
        pos = {b: k for k, b in enumerate(b for b in range(a.dim) if a.degrees[b] <= i)}
        matrix = {}
        for v, off, end in run:
            inclusion = _projective_data(a, v)[0]
            kept = [r for r, d in enumerate(projective(a, v).degrees) if d <= i]
            assert len(kept) == end - off
            for k, r in enumerate(kept):
                matrix[off - start + k] = {pos[b]: c for b, c in inclusion[r].items()}
        validate_map(source, target, matrix)
        assert source.dim == target.dim == map_rank(f, matrix)


@pytest.mark.parametrize("family,n", [("preprojective_A", 3), ("exterior", 3),
                                      ("truncated_polynomial", 6)])
def test_tilting_module_keeps_no_summand_beside_t(family, n):
    # the blocks are read off the data of each e_v Lambda, and no summand
    # module is built: T is the only module over the algebra that
    # tilting_module leaves alive
    a = builtin(family, n, QQ)
    td = tilting_module(a)
    gc.collect()
    live = [x for x in gc.get_objects() if isinstance(x, GradedModule) and x.algebra is a]
    assert len(live) == 1 and live[0] is td.module


class TestGamma:
    def test_truncated_family_dims(self):
        # upper-triangular count (N-1)N/2
        for n in (2, 3, 4):
            g = GammaData(trunc(n))
            assert g.algebra.dim == n * (n - 1) // 2

    def test_preprojective_family(self):
        assert GammaData(builtin("preprojective_A", 1, QQ)).algebra.dim == 0
        g2 = GammaData(builtin("preprojective_A", 2, QQ))
        assert g2.algebra.dim == 1  # the base field
        g3 = GammaData(builtin("preprojective_A", 3, QQ))
        assert g3.algebra.dim == 5  # kA_3/J^2: 3 vertices + 2 arrows

    def test_exterior_family_dims(self):
        for n, expect in ((1, 1), (2, 4)):
            g = GammaData(builtin("exterior", n, QQ))
            assert g.algebra.dim == expect

    def test_block_idempotents(self):
        g = GammaData(trunc(4))
        assert len(g.block_idempotents) == 3  # ell blocks; validated on build


def projective_socles(a):
    """The sorted pairs (dim P, dim soc P) over the indecomposable
    projectives P = e_u A."""
    return sorted((p.dim, socle(p)[0].dim)
                  for p in (projective(a, u) for u in range(1, len(a.idempotents) + 1)))


class TestReferences:
    def test_upper_triangular_dims(self):
        assert reference_upper_triangular(0, QQ).dim == 0
        assert reference_upper_triangular(1, QQ).dim == 1
        a = reference_upper_triangular(2, QQ)
        assert a.dim == 3
        assert jacobson_radical(a).series_dims == [1]

    def test_auslander_m1(self):
        assert reference_auslander_linear(1, QQ).dim == 1

    def test_auslander_m2_matches_kA3_mod_radsq(self):
        a = reference_auslander_linear(2, QQ)
        assert a.dim == 5
        assert a.dim == auslander_linear_dim(2)

    def test_auslander_m3_oracle(self):
        # frozen from the interval-hom counting oracle
        assert auslander_linear_dim(3) == 15
        assert reference_auslander_linear(3, QQ).dim == 15

    @pytest.mark.parametrize("char", [0, 32003])
    @pytest.mark.parametrize("m", range(1, 7))
    def test_interval_modules_match_the_kill_row_quotient(self, m, char):
        # each interval module drops from e_i.Lambda the paths kept by e_j,
        # j < c: the restriction equals the quotient by the span of the
        # rows of those e_j, closure checked
        a = compiled_upper_triangular(m, FieldSpec(char))
        expected = []
        for i in range(1, m + 1):
            p = projective(a, i)
            for c in range(1, i + 1):
                kill = [row for j in range(1, c)
                        for row in p.action_of(a.idempotents[j - 1]).values()]
                expected.append(QuotientModule(p, kill).module)
        intervals = _interval_modules(a, m)
        assert len(intervals) == len(expected) == m * (m + 1) // 2
        assert all(module_equal(x, y) for x, y in zip(intervals, expected))

    @pytest.mark.parametrize("char", [0, 32003])
    @pytest.mark.parametrize("m", range(1, 7))
    def test_mesh_quiver_matches_the_interval_endomorphisms(self, m, char):
        # the mesh-quiver presentation and the End of the sum of the
        # interval modules, through the hom solver and composition table,
        # must agree on every invariant, canonical Cartan form included
        field = FieldSpec(char)
        mesh = reference_auslander_linear(m, field)
        ends = interval_auslander(m, field)
        assert mesh.dim == ends.dim == auslander_linear_dim(m)
        fm, fe = fingerprint(mesh), fingerprint(ends)
        assert fm.cartan is not None
        assert fm.as_dict() == fe.as_dict()
        assert compare(mesh, ends).status == "match"
        # the fingerprint cannot tell a commutative square from one with a
        # path killed; the socles of the projectives on both sides can
        assert projective_socles(mesh) == projective_socles(ends)
        assert projective_socles(opposite(mesh)) == projective_socles(opposite(ends))

    def test_subcategory_dims(self):
        assert reference_subcategory_algebra(trunc(4)).dim == 6
        assert reference_subcategory_algebra(builtin("exterior", 2, QQ)).dim == 4
        assert reference_subcategory_algebra(builtin("exterior", 3, QQ)).dim == 12


class TestFingerprintCompare:
    def test_truncated_matches_upper_triangular(self):
        for n in (2, 3, 4):
            g = GammaData(trunc(n)).algebra
            ref = reference_upper_triangular(n - 1, QQ)
            assert compare(g, ref).status == "match"

    def test_upper_triangular_cartan_is_all_ones_triangle(self):
        for m in (1, 2, 3):
            a = reference_upper_triangular(m, QQ)
            expect = tuple(
                tuple(1 if c >= r else 0 for c in range(m)) for r in range(m)
            )
            assert canonical_matrix(cartan_matrix(a)) == canonical_matrix(expect)

    def test_mismatch_on_dim(self):
        k = builtin("preprojective_A", 1, QQ)
        v = compare(k, reference_upper_triangular(2, QQ))
        assert v.status == "mismatch"
        assert v.mismatch_field == "dim"

    def test_transpose_of_triangular_pattern_canonicalizes_equal(self):
        mat = ((1, 1), (0, 1))
        tr = ((1, 0), (1, 1))
        assert canonical_matrix(mat) == canonical_matrix(tr)

    def test_exterior_matches_subcategory(self):
        for n in (1, 2):
            a = builtin("exterior", n, QQ)
            g = GammaData(a).algebra
            if n == 1:
                ref = reference_upper_triangular(1, QQ)  # single object, hom = k
            else:
                ref = reference_subcategory_algebra(a)
            assert compare(g, ref).status == "match"

    def test_preprojective_matches_auslander(self):
        g = GammaData(builtin("preprojective_A", 3, QQ)).algebra
        ref = reference_auslander_linear(2, QQ)
        assert compare(g, ref).status == "match"

    @pytest.mark.parametrize("char", [0, 32003])
    def test_preprojective_5_matches_auslander_4(self, char):
        # Gamma has 10 simples, past what a search over all orders of the
        # simples could afford
        field = FieldSpec(char)
        g = GammaData(builtin("preprojective_A", 5, field)).algebra
        assert compare(g, reference_auslander_linear(4, field)).status == "match"

    def test_zero_algebras_match(self):
        g = GammaData(builtin("preprojective_A", 1, QQ)).algebra
        assert compare(g, reference_upper_triangular(0, QQ)).status == "match"

    def test_fingerprint_deterministic(self):
        a = reference_auslander_linear(2, QQ)
        assert fingerprint(a).as_dict() == fingerprint(a).as_dict()


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("family,n", [("truncated_polynomial", 6), ("preprojective_A", 3),
                                      ("exterior", 3)])
def test_cartan_matrix_matches_pairwise_products(family, n, char):
    a = builtin(family, n, FieldSpec(char))
    for alg in (a, GammaData(a).algebra):
        idems = primitive_idempotents(alg)
        assert cartan_matrix(alg) == naive_cartan(alg.field, alg.mult, idems)


def square(n, entries):
    """n x n integer matrices with entries drawn from `entries`."""
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)


def blown_up(n):
    """Matrices whose vertices are copies of the vertices of a smaller one:
    copies of one vertex have equal rows and columns, so they are twins."""
    return st.integers(1, max(n, 1)).flatmap(lambda k: st.tuples(
        square(k, st.integers(0, 2)),
        st.lists(st.integers(0, k - 1), min_size=n, max_size=n),
    )).map(lambda bi: [[bi[0][a][b] for b in bi[1]] for a in bi[1]])


def repeated_blocks(n):
    """Block-diagonal copies of one block, optionally joined by a constant
    off-diagonal value: components (or modules) that are all isomorphic."""
    return st.integers(1, max(n, 1)).flatmap(lambda k: st.tuples(
        square(k, st.integers(0, 2)), st.integers(0, 1))).map(
        lambda bj: [[bj[0][r % len(bj[0])][c % len(bj[0])]
                     if r // len(bj[0]) == c // len(bj[0]) else bj[1]
                     for c in range(n - n % len(bj[0]))]
                    for r in range(n - n % len(bj[0]))])


def matrices(max_n):
    return st.integers(0, max_n).flatmap(lambda n: st.one_of(
        square(n, st.integers(0, 3)),
        square(n, st.sampled_from([0, 0, 0, 1, 2])),
        blown_up(n),
        repeated_blocks(n),
    ))


@settings(max_examples=300, deadline=None)
@given(matrices(6))
def test_canonical_matrix_is_the_brute_force_minimum(mat):
    assert canonical_matrix(mat) == brute_canonical_matrix(mat)


@settings(max_examples=200, deadline=None)
@given(matrices(12).flatmap(lambda m: st.tuples(st.just(m), st.permutations(range(len(m))))))
def test_canonical_matrix_is_permutation_invariant(mat_perm):
    mat, p = mat_perm
    permuted = [[mat[p[r]][p[c]] for c in range(len(mat))] for r in range(len(mat))]
    canon = canonical_matrix(mat)
    assert canonical_matrix(permuted) == canon
    # the form is a fixed point and a simultaneous permutation of mat
    assert canonical_matrix(canon) == canon
    assert sorted(x for row in canon for x in row) == sorted(x for row in mat for x in row)


class TestEndAlgebra:
    def test_end_of_regular_is_opposite_sized(self):
        a = trunc(3)
        from qshape.modules import regular

        e = end_algebra(regular(a))
        assert e.dim == 1  # degree-0 endomorphisms only


class TestGammaIdempotents:
    def test_gamma_of_truncated_cubic_has_two_primitives(self):
        g = GammaData(trunc(3)).algebra
        assert len(primitive_idempotents(g)) == 2


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("family,n", [("preprojective_A", n) for n in range(3, 6)]
                         + [("exterior", 3), ("truncated_polynomial", 5)])
def test_gamma_idempotents_are_the_nonprojective_vertex_summands(family, n, char):
    # the degree rule agrees with the cover on every (i, v); Gamma declares
    # one nonzero idempotent per non-projective (e_v Lambda(i))_{<=0}, the
    # class of its block projector; the classes for each i sum to
    # block_idempotents[i], and those sum to the unit
    a = builtin(family, n, FieldSpec(char))
    f = a.field
    ell = sup_degree(a)
    pairs, blocks, offsets = nonprojective_summands(a)
    assert pairs == [(i, v) for i in range(ell) for v in range(1, len(a.idempotents) + 1)
                     if i < max(projective(a, v).degrees)]
    gamma = GammaData(a)
    assert module_equal(blocks, gamma.stable_end.module)
    stable = gamma.stable_end.stable
    idems = gamma.algebra.idempotents
    assert len(idems) == len(pairs) and all(idems)
    for e, off, end in zip(idems, offsets, offsets[1:] + [blocks.dim]):
        projector = {r: {r: f.one()} for r in range(off, end)}
        assert e == stable.class_coords_of_images(
            stable.hom.images(stable.hom.coords_of_matrix(projector)))
    sums = [{} for _ in range(ell)]
    for (i, _), e in zip(pairs, idems):
        vec_iadd_scaled(f, sums[i], e, f.one())
    assert sums == gamma.block_idempotents
    total = {}
    for e in gamma.block_idempotents:
        vec_iadd_scaled(f, total, e, f.one())
    assert total == gamma.algebra.unit


class TestInconclusiveCompare:
    def test_nonsplit_semisimple_gives_inconclusive(self):
        # QQ[x]/(x^2+1): semisimple but not split over the rationals; its
        # unit is primitive but e(A/rad)e is 2-dimensional, so the block data
        # is unavailable and only the overlapping invariants count
        from qshape.algebra import GradedAlgebra

        one = QQ.one()
        mult = [{0: {0: one}, 1: {1: one}}, {0: {1: one}, 1: {0: QQ.coerce(-1)}}]
        gauss = GradedAlgebra(QQ, [0, 0], mult, {0: one}, idempotents=[{0: one}])
        other_mult = [{0: {0: one}, 1: {1: one}}, {0: {1: one}, 1: {0: QQ.coerce(-2)}}]
        other = GradedAlgebra(QQ, [0, 0], other_mult, {0: one}, idempotents=[{0: one}])
        v = compare(gauss, other)
        assert v.status == "inconclusive"
        f = fingerprint(gauss)
        assert f.block_dims is None and f.cartan is None
        assert f.dim == 2 and f.commutative

    @pytest.mark.parametrize("char", [0, 32003])
    def test_non_primitive_declared_idempotents_give_inconclusive(self, char):
        # k x k with only its unit declared: e(A/rad)e = A is 2-dimensional,
        # so the declared set fails the primitivity test
        from qshape.algebra import GradedAlgebra

        field = FieldSpec(char)
        one = field.one()
        mult = [{0: {0: one}}, {1: {1: one}}]
        unit = {0: one, 1: one}
        lumped = GradedAlgebra(field, [0, 0], mult, unit, idempotents=[unit])
        split = GradedAlgebra(field, [0, 0], mult, unit, idempotents=[{0: one}, {1: one}])
        f = fingerprint(lumped)
        assert (f.num_simples, f.block_dims, f.cartan) == (None, None, None)
        assert fingerprint(split).block_dims == [1, 1]
        assert compare(lumped, split).status == "inconclusive"


class TestDirectPresentationTriangulation:
    def test_gamma3_matches_directly_presented_radical_square_zero(self):
        # kA_3 with its length-2 path killed, written down by hand as a
        # quiver algebra: a third route beside the mesh-quiver reference
        # and the End of the interval modules
        pres = QuiverPresentation(
            ["1", "2", "3"],
            [("a", "1", "2", 0), ("b", "2", "3", 0)],
            [[(1, ("b", "a"))]],
            2,
        )
        direct = compile_quiver(pres, QQ)
        assert direct.dim == 5
        g = GammaData(builtin("preprojective_A", 3, QQ)).algebra
        assert compare(g, direct).status == "match"
        assert compare(reference_auslander_linear(2, QQ), direct).status == "match"
        assert compare(interval_auslander(2, QQ), direct).status == "match"
