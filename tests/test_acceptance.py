"""Acceptance criteria, one test per criterion, exact equality throughout.

Each test prints a single "ACCEPTANCE n (<name>): PASS|FAIL" line.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the lines as they happen.
Criterion 8 reruns the verdict computations of criteria 1-6 over GF(32003)
and demands structurally identical results, so everything here is built
from plain comparable data.
"""

from qshape.algebra import (
    EXCEEDS_BOUND,
    QuiverPresentation,
    builtin,
    compile_quiver,
    degree_zero_part,
    global_dimension_bounded,
)
from qshape.basechange import TensorAlgebra, base_change_hom_check, gamma_tensor, ungrade
from qshape.fields import FieldSpec
from qshape.modules import is_self_injective, projective, regular, simple
from qshape.stable import stable_ext_table
from qshape.tilting import (
    GammaData,
    canonical_matrix,
    cartan_matrix,
    compare,
    reference_auslander_linear,
    reference_subcategory_algebra,
    reference_upper_triangular,
    tilting_module,
)
from qshape.window import QWindow, check_window_properties

from oracles import auslander_linear_dim

RATIONALS = FieldSpec(0)
MODULAR = FieldSpec(32003)

INSTANCES = (
    [("truncated_polynomial", n) for n in range(2, 7)]
    + [("preprojective_A", n) for n in range(1, 5)]
    + [("exterior", n) for n in range(1, 4)]
)

_cache = {}


def algebra_of(field, fam, par):
    key = ("alg", field.char, fam, par)
    if key not in _cache:
        _cache[key] = builtin(fam, par, field)
    return _cache[key]


def tilting_of(field, fam, par):
    key = ("tilting", field.char, fam, par)
    if key not in _cache:
        _cache[key] = tilting_module(algebra_of(field, fam, par)).module
    return _cache[key]


def gamma_of(field, fam, par):
    key = ("gamma", field.char, fam, par)
    if key not in _cache:
        _cache[key] = GammaData(algebra_of(field, fam, par))
    return _cache[key]


def record(number, name, ok):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    return ok


# ---------------------------------------------------------------------------
# criterion computations, pure data out (reused by criterion 8)
# ---------------------------------------------------------------------------

def criterion_1_data(field):
    out = {}
    for n in range(2, 7):
        g = gamma_of(field, "truncated_polynomial", n).algebra
        ref = reference_upper_triangular(n - 1, field)
        ones_triangle = tuple(
            tuple(1 if c >= r else 0 for c in range(n - 1)) for r in range(n - 1)
        )
        out[n] = {
            "dim": g.dim,
            "dim_expected": n * (n - 1) // 2,
            "verdict": compare(g, ref).status,
            "cartan_is_ones_triangle":
                canonical_matrix(cartan_matrix(g)) == canonical_matrix(ones_triangle),
        }
    return out


def criterion_2_data(field):
    out = {}
    g1 = gamma_of(field, "preprojective_A", 1)
    out[1] = {
        "tilting_dim": tilting_of(field, "preprojective_A", 1).dim,
        "gamma_dim": g1.algebra.dim,
        "verdict": compare(g1.algebra, reference_upper_triangular(0, field)).status,
    }
    g2 = gamma_of(field, "preprojective_A", 2)
    out[2] = {
        "gamma_dim": g2.algebra.dim,
        "verdict": compare(g2.algebra, reference_upper_triangular(1, field)).status,
    }
    g3 = gamma_of(field, "preprojective_A", 3)
    out[3] = {
        "gamma_dim": g3.algebra.dim,
        "dim_expected": 5,
        "verdict": compare(g3.algebra, reference_auslander_linear(2, field)).status,
    }
    g4 = gamma_of(field, "preprojective_A", 4)
    ref4 = reference_auslander_linear(3, field)
    out[4] = {
        "gamma_dim": g4.algebra.dim,
        "reference_dim": ref4.dim,
        "reference_dim_oracle": auslander_linear_dim(3),
        "verdict": compare(g4.algebra, ref4).status,
    }
    return out


def criterion_3_data(field):
    expected_dims = {1: 1, 2: 4, 3: 12}
    out = {}
    for n in range(1, 4):
        a = algebra_of(field, "exterior", n)
        g = gamma_of(field, "exterior", n).algebra
        ref = reference_subcategory_algebra(a)
        out[n] = {
            "gamma_dim": g.dim,
            "dim_expected": expected_dims[n],
            "reference_dim": ref.dim,
            "verdict": compare(g, ref).status,
        }
    return out


def criterion_4_data(field):
    out = {}
    for fam, par in INSTANCES:
        g = gamma_of(field, fam, par)
        t = tilting_of(field, fam, par)
        table = stable_ext_table(t, t, 5)
        out[f"{fam}:{par}"] = {
            "off_zero_all_vanish": all(v == 0 for i, v in table.items() if i != 0),
            "zero_entry": table[0],
            "gamma_dim": g.algebra.dim,
        }
    return out


def criterion_5_data(field):
    out = {}
    for fam, par in INSTANCES:
        a = algebra_of(field, fam, par)
        rep = check_window_properties(QWindow(a, -6, 6), serre_check=True)
        entry = {
            "all_pass": rep["all_pass"],
            "serre_symmetry": rep["property_5"]["dimension_symmetry"],
            "window_radical_nilpotency": rep["property_4"]["window_radical_nilpotency"],
        }
        if fam == "truncated_polynomial":
            entry["nilpotency_expected"] = par
        out[f"{fam}:{par}"] = entry
    return out


def criterion_6_data(field):
    out = {}
    for fam, par in (("truncated_polynomial", 3), ("preprojective_A", 2)):
        a = algebra_of(field, fam, par)
        g = gamma_of(field, fam, par)
        witnesses = [("regular", regular(a))]
        for i in range(1, len(a.idempotents) + 1):
            witnesses.append((f"projective_{i}", projective(a, i)))
            witnesses.append((f"simple_{i}", simple(a, i)))
        witnesses.append(("tilting", tilting_of(field, fam, par)))
        coefficients = [
            ("base_field", algebra_of(field, "preprojective_A", 1)),
            ("dual_numbers", ungrade(algebra_of(field, "truncated_polynomial", 2))),
            ("upper_triangular_2", reference_upper_triangular(2, field)),
        ]
        all_pass = True
        for _, coeff in coefficients:
            tensor = TensorAlgebra(a, coeff)
            for _, m in witnesses:
                for _, n in witnesses:
                    if not base_change_hom_check(m, n, tensor)["pass"]:
                        all_pass = False
        gt_dims = {}
        for cname, coeff in coefficients:
            gt = gamma_tensor(g.algebra, coeff)
            gt_dims[cname] = {
                "dim": gt.dim,
                "expected": g.algebra.dim * coeff.dim,
            }
        out[f"{fam}:{par}"] = {"hom_checks_pass": all_pass, "gamma_tensor": gt_dims}
    return out


def _criteria_1_to_6(field):
    return {
        1: criterion_1_data(field),
        2: criterion_2_data(field),
        3: criterion_3_data(field),
        4: criterion_4_data(field),
        5: criterion_5_data(field),
        6: criterion_6_data(field),
    }


def verdicts_of(field):
    key = ("verdicts", field.char)
    if key not in _cache:
        _cache[key] = _criteria_1_to_6(field)
    return _cache[key]


# ---------------------------------------------------------------------------
# the eight criteria
# ---------------------------------------------------------------------------

def test_criterion_1_truncated_polynomial_family():
    data = verdicts_of(RATIONALS)[1]
    ok = all(
        d["dim"] == d["dim_expected"] and d["verdict"] == "match"
        and d["cartan_is_ones_triangle"]
        for d in data.values()
    )
    assert record(1, "N-complex family vs upper triangular", ok), data


def test_criterion_2_preprojective_family():
    data = verdicts_of(RATIONALS)[2]
    ok = (
        data[1]["tilting_dim"] == 0
        and data[1]["gamma_dim"] == 0
        and data[1]["verdict"] == "match"
        and data[2]["gamma_dim"] == 1
        and data[2]["verdict"] == "match"
        and data[3]["gamma_dim"] == 5
        and data[3]["verdict"] == "match"
        and data[4]["reference_dim"] == data[4]["reference_dim_oracle"] == 15
        and data[4]["gamma_dim"] == 15
        and data[4]["verdict"] == "match"
    )
    assert record(2, "preprojective family vs Auslander algebras", ok), data


def test_criterion_3_exterior_family():
    data = verdicts_of(RATIONALS)[3]
    ok = all(
        d["gamma_dim"] == d["dim_expected"] == d["reference_dim"]
        and d["verdict"] == "match"
        for d in data.values()
    )
    assert record(3, "exterior family vs slice convolution algebra", ok), data


def test_criterion_4_tilting_vanishing():
    data = verdicts_of(RATIONALS)[4]
    ok = all(
        d["off_zero_all_vanish"] and d["zero_entry"] == d["gamma_dim"]
        for d in data.values()
    )
    assert record(4, "stable Ext of the tilting module vanishes off zero", ok), data


def test_criterion_5_window_properties():
    data = verdicts_of(RATIONALS)[5]
    ok = all(d["all_pass"] and d["serre_symmetry"] for d in data.values())
    ok = ok and all(
        d["window_radical_nilpotency"] == d["nilpotency_expected"]
        for d in data.values()
        if "nilpotency_expected" in d
    )
    assert record(5, "windowed category properties incl. Serre symmetry", ok), data


def test_criterion_6_base_change():
    data = verdicts_of(RATIONALS)[6]
    ok = all(
        d["hom_checks_pass"]
        and all(v["dim"] == v["expected"] for v in d["gamma_tensor"].values())
        for d in data.values()
    )
    assert record(6, "hom base change and tensored endomorphism algebra", ok), data


def test_criterion_7_hypothesis_gate():
    linear_a2 = compile_quiver(
        QuiverPresentation(["1", "2"], [("a", "1", "2", 0)], [], 2), RATIONALS
    )
    rejects = not is_self_injective(linear_a2)
    accepts = all(
        is_self_injective(algebra_of(RATIONALS, fam, par)) for fam, par in INSTANCES
    )
    gldim_base_field = global_dimension_bounded(
        degree_zero_part(algebra_of(RATIONALS, "truncated_polynomial", 3)), 10
    )
    gldim_paths = {
        n: global_dimension_bounded(
            degree_zero_part(algebra_of(RATIONALS, "preprojective_A", n)), 10
        )
        for n in (2, 3, 4)
    }
    dual_numbers_deg0 = compile_quiver(
        QuiverPresentation(["v"], [("x", "v", "v", 0)], [[(1, ("x", "x"))]], 2),
        RATIONALS,
    )
    gldim_dual = global_dimension_bounded(dual_numbers_deg0, 10)
    ok = (
        rejects
        and accepts
        and gldim_base_field == 0
        and all(v == 1 for v in gldim_paths.values())
        and gldim_dual == EXCEEDS_BOUND
    )
    assert record(7, "hypothesis gate", ok), (rejects, accepts, gldim_base_field,
                                              gldim_paths, gldim_dual)


def test_criterion_8_field_independence():
    rational = verdicts_of(RATIONALS)
    modular = verdicts_of(MODULAR)
    ok = rational == modular
    if not ok:
        for k in rational:
            if rational[k] != modular[k]:
                print(f"  criterion {k} differs:")
                print(f"    QQ:        {rational[k]}")
                print(f"    GF(32003): {modular[k]}")
    assert record(8, "identical verdicts over QQ and GF(32003)", ok)
