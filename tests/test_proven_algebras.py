"""The algebras built by `GradedAlgebra.proven`, checked in full.

A construction whose docstring proves the algebra axioms and that its
declared generating set spans (the tensor algebra, `ungrade`, the matrix
units of the upper triangular reference and the subcategory reference)
skips `_validate` at run time.  Here each output is rebuilt through the
validating constructor with the same table, unit, generating set and
idempotents, which runs the grading, unit, associativity and span checks,
over the builtins at small sizes, the mixed-degree quiver of
`test_quiver_report_digests`, the tensor pairs that `verify` and the base
change tests use and upper_triangular:m for m = 0..20, in both fields.  A
fault in one of these constructions fails here, not in a run.
"""

import pytest

from qshape.algebra import (
    GradedAlgebra,
    QuiverPresentation,
    builtin,
    compile_quiver,
    generating_vectors,
    jacobson_radical,
)
from qshape.basechange import TensorAlgebra, gamma_tensor, ungrade
from qshape.fields import FieldSpec
from qshape.tilting import (
    GammaData,
    fingerprint,
    reference_subcategory_algebra,
    reference_upper_triangular,
)

from oracles import compiled_upper_triangular
from test_quiver_report_digests import QUIVER

FIELDS = [0, 32003]
BUILTINS = ([("truncated_polynomial", n) for n in (1, 2, 3, 5)]
            + [("preprojective_A", n) for n in (1, 2, 3, 4)]
            + [("exterior", n) for n in (1, 2, 3, 4)])


def mixed_quiver(field):
    """The quiver 1 -a-> 2 -b-> 3 -c-> 1, arrows in degrees 0, 1 and 2,
    with every path of length 2 killed."""
    arrows = [(ar["name"], ar["from"], ar["to"], ar["degree"]) for ar in QUIVER["arrows"]]
    relations = [[(t["coeff"], tuple(t["path"])) for t in rel] for rel in QUIVER["relations"]]
    pres = QuiverPresentation(QUIVER["vertices"], arrows, relations, QUIVER["nilpotency_bound"])
    return compile_quiver(pres, field)


def inputs(field):
    """(name, algebra) of every validated input on the grid."""
    out = [(f"{fam} {n}", builtin(fam, n, field)) for fam, n in BUILTINS]
    return out + [("mixed quiver", mixed_quiver(field))]


def coefficients(field):
    """The coefficient algebras of `verify`'s base change and a larger one."""
    return [
        ("base_field", builtin("preprojective_A", 1, field)),
        ("dual_numbers", ungrade(builtin("truncated_polynomial", 2, field))),
        ("upper_triangular_2", reference_upper_triangular(2, field)),
        ("ungraded preprojective_A 2", ungrade(builtin("preprojective_A", 2, field))),
        ("ungraded mixed quiver", ungrade(mixed_quiver(field))),
    ]


def revalidated(a):
    """a rebuilt through the validating constructor."""
    return GradedAlgebra(a.field, a.degrees, a.mult, a.unit, idempotents=a.idempotents,
                         labels=a.labels, generators=generating_vectors(a),
                         radical_hint=a.radical_hint)


def assert_proven_correctly(a):
    b = revalidated(a)
    assert b._cache["cols"] == a._cache["cols"]
    assert generating_vectors(b) == generating_vectors(a)
    if a.radical_hint is not None:
        jacobson_radical(b)  # the hint against the trace form


def constructions(field):
    """(name, proven algebra) over the grid."""
    out = []
    for name, a in inputs(field):
        out.append((f"ungrade({name})", ungrade(a)))
        if a.is_nonnegatively_graded() and max(a.degrees) >= 1:
            out.append((f"subcategory({name})", reference_subcategory_algebra(a)))
        for cname, coeff in coefficients(field):
            out.append((f"{name} (x) {cname}", TensorAlgebra(a, coeff).product))
    for fam, n in (("truncated_polynomial", 3), ("preprojective_A", 3), ("exterior", 2)):
        gamma = GammaData(builtin(fam, n, field)).algebra
        for cname, coeff in coefficients(field):
            out.append((f"Gamma({fam} {n}) (x) {cname}", gamma_tensor(gamma, coeff)))
    return out


@pytest.mark.parametrize("char", FIELDS)
def test_constructions_pass_full_validation(char):
    built = constructions(FieldSpec(char))
    # 13 inputs ungraded, 11 of them with a subcategory reference (not the
    # two that live in degree 0), 13 + 3 Gammas tensored with 5 coefficients
    assert len(built) == 13 + 11 + 16 * 5
    for name, a in built:
        try:
            assert_proven_correctly(a)
        except ValueError as e:
            pytest.fail(f"{name}: {e}")


@pytest.mark.parametrize("char", FIELDS)
@pytest.mark.parametrize("m", range(21))
def test_upper_triangular_passes_full_validation(m, char):
    a = reference_upper_triangular(m, FieldSpec(char))
    assert a.dim == m * (m + 1) // 2
    assert_proven_correctly(a)


@pytest.mark.parametrize("char", FIELDS)
@pytest.mark.parametrize("m", range(21))
def test_upper_triangular_has_the_fingerprint_of_the_compiled_path_algebra(m, char):
    field = FieldSpec(char)
    units = fingerprint(reference_upper_triangular(m, field)).as_dict()
    assert units == fingerprint(compiled_upper_triangular(m, field)).as_dict()
    assert units["num_simples"] == m


@pytest.mark.parametrize("char", FIELDS)
def test_constructions_skip_validation(char, monkeypatch):
    # the proven constructions must not walk the axioms at run time
    field = FieldSpec(char)
    a, gamma = builtin("exterior", 3, field), GammaData(builtin("preprojective_A", 3, field))
    coeff = builtin("preprojective_A", 2, field)

    def refuse(self):
        raise AssertionError("_validate called")

    monkeypatch.setattr(GradedAlgebra, "_validate", refuse)
    ungraded = ungrade(coeff)
    TensorAlgebra(a, ungraded)
    gamma_tensor(gamma.algebra, ungraded)
    reference_upper_triangular(5, field)
    reference_subcategory_algebra(a)


@pytest.mark.parametrize("char", FIELDS)
def test_proven_checks_the_declared_idempotents(char):
    a = reference_upper_triangular(3, FieldSpec(char))
    bad = [dict(e) for e in a.idempotents]
    bad[0] = dict(bad[1])
    with pytest.raises(ValueError, match="not orthogonal"):
        GradedAlgebra.proven(a.field, a.degrees, a.mult, a.unit, a.generators,
                             idempotents=bad)
    with pytest.raises(ValueError, match="do not sum to the unit"):
        GradedAlgebra.proven(a.field, a.degrees, a.mult, a.unit, a.generators,
                             idempotents=a.idempotents[1:])


@pytest.mark.parametrize("char", FIELDS)
def test_subcategory_refuses_a_non_homogeneous_generator(char):
    # 1, x + x^2 generate k[x]/x^3, since (x + x^2)^2 = x^2, but x + x^2
    # mixes degrees 1 and 2, so its lifts (i, i + deg g, g) are undefined
    field = FieldSpec(char)
    a = builtin("truncated_polynomial", 3, field)
    one = field.one()
    b = GradedAlgebra(field, a.degrees, a.mult, a.unit, idempotents=a.idempotents,
                      generators=[a.unit, {1: one, 2: one}])
    with pytest.raises(ValueError, match="not homogeneous"):
        reference_subcategory_algebra(b)
