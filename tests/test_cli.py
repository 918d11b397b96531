"""CLI end-to-end: reports, exit codes, determinism."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import qshape.cli
from qshape.cli import _dumps, main
from qshape.fields import FieldSpec


def write_builtin(tmp_path, family, parameter, char=0, name="alg.json"):
    path = tmp_path / name
    path.write_text(json.dumps({
        "field": {"char": char},
        "builtin": {"family": family, "parameter": parameter},
    }))
    return str(path)


def write_quiver_a2(tmp_path, name="a2.json"):
    path = tmp_path / name
    path.write_text(json.dumps({
        "field": {"char": 0},
        "quiver": {
            "vertices": ["1", "2"],
            "arrows": [{"name": "a", "from": "1", "to": "2", "degree": 0}],
            "relations": [],
            "nilpotency_bound": 2,
        },
    }))
    return str(path)


def write_preprojective_quiver(tmp_path, name="pp2.json"):
    path = tmp_path / name
    path.write_text(json.dumps({
        "field": {"char": 0},
        "quiver": {
            "vertices": ["1", "2"],
            "arrows": [
                {"name": "a", "from": "1", "to": "2", "degree": 0},
                {"name": "b", "from": "2", "to": "1", "degree": 1},
            ],
            "relations": [
                [{"coeff": 1, "path": ["b", "a"]}],
                [{"coeff": 1, "path": ["a", "b"]}],
            ],
            "nilpotency_bound": 2,
        },
    }))
    return str(path)


def write_cyclic_nakayama(tmp_path, n, length, char):
    """The cyclic quiver on n vertices, arrows in degree 1, modulo all paths
    of the given length."""
    arrows = [{"name": f"a{i}", "from": str(i), "to": str((i + 1) % n), "degree": 1}
              for i in range(n)]
    relations = [[{"coeff": 1, "path": [f"a{(s + k) % n}" for k in reversed(range(length))]}]
                 for s in range(n)]
    path = tmp_path / f"nakayama-{n}-{length}-{char}.json"
    path.write_text(json.dumps({
        "field": {"char": char},
        "quiver": {"vertices": [str(i) for i in range(n)], "arrows": arrows,
                   "relations": relations, "nilpotency_bound": length},
    }))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestCheck:
    def test_truncated_all_pass(self, tmp_path, capsys):
        code, rep = run(capsys, ["check", write_builtin(tmp_path, "truncated_polynomial", 4)])
        assert code == 0
        assert rep["hypotheses"]["top_degree"] == 3
        assert rep["hypotheses"]["self_injective"] is True

    def test_linear_quiver_fails_self_injectivity(self, tmp_path, capsys):
        code, rep = run(capsys, ["check", write_quiver_a2(tmp_path)])
        assert code == 3
        assert rep["hypotheses"]["self_injective"] is False

    def test_exterior_passes(self, tmp_path, capsys):
        code, rep = run(capsys, ["check", write_builtin(tmp_path, "exterior", 3)])
        assert code == 0
        assert rep["hypotheses"]["top_degree"] == 3

    def test_parse_error_missing_file(self, tmp_path, capsys):
        code, rep = run(capsys, ["check", str(tmp_path / "missing.json")])
        assert code == 2
        assert "error" in rep

    def test_parse_error_bad_schema(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"field": {"char": 0}}))
        code, rep = run(capsys, ["check", str(p)])
        assert code == 2

    def test_quiver_compiles_like_builtin(self, tmp_path, capsys):
        code, rep = run(capsys, ["check", write_preprojective_quiver(tmp_path)])
        assert code == 0
        assert rep["dim"] == 4


class TestGamma:
    def test_truncated_compare_auto(self, tmp_path, capsys):
        code, rep = run(capsys, ["gamma", write_builtin(tmp_path, "truncated_polynomial", 5)])
        assert code == 0
        assert rep["comparison"]["reference"] == "upper_triangular:4"
        assert rep["comparison"]["verdict"]["status"] == "match"
        assert rep["gamma"]["dim"] == 10

    def test_preprojective_compare_auto(self, tmp_path, capsys):
        code, rep = run(capsys, ["gamma", write_builtin(tmp_path, "preprojective_A", 3)])
        assert code == 0
        assert rep["comparison"]["reference"] == "auslander:2"
        assert rep["comparison"]["verdict"]["status"] == "match"

    def test_exterior_compare_subcategory(self, tmp_path, capsys):
        code, rep = run(capsys, [
            "gamma", write_builtin(tmp_path, "exterior", 2), "--compare", "subcategory",
        ])
        assert code == 0
        assert rep["gamma"]["dim"] == 4
        assert rep["comparison"]["verdict"]["status"] == "match"

    def test_mismatch_exits_4(self, tmp_path, capsys):
        code, rep = run(capsys, [
            "gamma", write_builtin(tmp_path, "truncated_polynomial", 3),
            "--compare", "upper_triangular:4",
        ])
        assert code == 4
        assert rep["comparison"]["verdict"]["status"] == "mismatch"

    def test_compare_none(self, tmp_path, capsys):
        code, rep = run(capsys, [
            "gamma", write_builtin(tmp_path, "truncated_polynomial", 3),
            "--compare", "none",
        ])
        assert code == 0
        assert rep["comparison"]["verdict"] is None

    def test_hypothesis_failure_exits_3(self, tmp_path, capsys):
        code, rep = run(capsys, ["gamma", write_quiver_a2(tmp_path)])
        assert code == 3

    @pytest.mark.parametrize("char", [0, 32003])
    @pytest.mark.parametrize("n,length", [pytest.param(3, 4, id="3"), pytest.param(4, 4, id="4"),
                                          pytest.param(2, 6, id="2-6")])
    def test_cyclic_nakayama_matches_subcategory(self, tmp_path, capsys, n, length, char):
        # Gamma is T_{N-1}(k)^n for paths of length N = `length`: n isomorphic
        # blocks of N-1 simples each, whose Cartan matrix only a
        # permutation-invariant canonical form matches
        code, rep = run(capsys, ["gamma", write_cyclic_nakayama(tmp_path, n, length, char),
                                 "--compare", "subcategory"])
        assert code == 0
        assert rep["fingerprint"]["num_simples"] == (length - 1) * n
        assert rep["comparison"]["verdict"]["status"] == "match"


class TestExt:
    def test_truncated_vanishing(self, tmp_path, capsys):
        code, rep = run(capsys, [
            "ext", write_builtin(tmp_path, "truncated_polynomial", 3), "--range", "5",
        ])
        assert code == 0
        assert rep["ext_table"]["0"] == 3
        assert all(v == 0 for k, v in rep["ext_table"].items() if k != "0")

    def test_nonzero_entry_off_zero_exits_5(self, tmp_path, capsys, monkeypatch):
        # the degree certificate makes the tilting module's table vanish off
        # zero, so only a patched table reaches this exit
        import qshape.cli

        def table(m, n, k):
            return {i: 3 if i == 0 else int(i == 2) for i in range(-k, k + 1)}

        monkeypatch.setattr(qshape.cli, "stable_ext_table", table)
        code, rep = run(capsys, [
            "ext", write_builtin(tmp_path, "truncated_polynomial", 3), "--range", "2",
        ])
        assert code == 5
        assert rep["ext_table"] == {"-1": 0, "-2": 0, "0": 3, "1": 0, "2": 1}
        assert rep["vanishes_off_zero"] is False


class TestWindow:
    def test_dual_numbers_window(self, tmp_path, capsys):
        code, rep = run(capsys, [
            "window", write_builtin(tmp_path, "truncated_polynomial", 2),
            "--lo", "-3", "--hi", "3", "--serre",
        ])
        assert code == 0
        props = rep["properties"]
        assert props["all_pass"]
        assert props["property_4"]["window_radical_nilpotency"] == 2


class TestBasechange:
    def test_truncated_with_dual_numbers(self, tmp_path, capsys):
        lam = write_builtin(tmp_path, "truncated_polynomial", 3, name="lam.json")
        coeff = write_builtin(tmp_path, "truncated_polynomial", 2, name="coeff.json")
        code, rep = run(capsys, ["basechange", lam, "--with", coeff])
        assert code == 0
        assert rep["coefficient_regraded"] is True
        assert rep["all_hom_checks_pass"] is True
        assert rep["gamma_tensor"] == {"dim": 6, "expected_dim": 6, "pass": True}

    def test_field_mismatch(self, tmp_path, capsys):
        lam = write_builtin(tmp_path, "truncated_polynomial", 3, name="l2.json")
        coeff = write_builtin(tmp_path, "truncated_polynomial", 2, char=5, name="c2.json")
        code, rep = run(capsys, ["basechange", lam, "--with", coeff])
        assert code == 2


class TestVerify:
    def test_preprojective_one(self, capsys):
        code, rep = run(capsys, ["verify", "preprojective_A", "1"])
        assert code == 0
        assert rep["rationals"]["gamma_dim"] == 0
        assert rep["field_independent"] is True

    def test_truncated_three(self, capsys):
        code, rep = run(capsys, ["verify", "truncated_polynomial", "3"])
        assert code == 0
        assert rep["rationals"]["gamma_dim"] == 3
        assert rep["rationals"]["base_change_pass"] is True

    def test_unknown_family_exits_2(self, capsys):
        code, rep = run(capsys, ["verify", "nope", "2"])
        assert code == 2

    def test_reports_the_ext_certificate(self, capsys):
        code, rep = run(capsys, ["verify", "preprojective_A", "1"])
        assert rep["gf_32003"]["ext_certificate"] == {
            "tilting_max_degree": None, "syzygy_min_degree": None}
        code, rep = run(capsys, ["verify", "truncated_polynomial", "3"])
        for key in ("rationals", "gf_32003"):
            assert rep[key]["ext_certificate"] == {
                "tilting_max_degree": 0, "syzygy_min_degree": 1}
            assert rep[key]["ext_vanishes_off_zero"] is True
            assert rep[key]["ext_zero_entry_is_gamma_dim"] is True

    def test_computes_no_ext_table(self, capsys, monkeypatch):
        import qshape.cli
        import qshape.stable

        def refuse(*args):
            raise AssertionError("verify computed a stable Ext table")

        monkeypatch.setattr(qshape.cli, "stable_ext_table", refuse)
        monkeypatch.setattr(qshape.stable, "stable_ext_table", refuse)
        monkeypatch.setattr(qshape.stable, "syzygy_of", refuse)
        code, rep = run(capsys, ["verify", "exterior", "3"])
        assert code == 0

    def test_frees_the_first_field_before_the_second(self, capsys, monkeypatch):
        # nothing the QQ field builds is in a reference cycle, so it is gone
        # before the GF(32003) field is built, with the collector off
        import gc
        import weakref

        import qshape.cli

        built = []
        alive_at_second_field = []
        builtin = qshape.cli.builtin

        def spy(family, parameter, field):
            if built:
                alive_at_second_field.append(built[0]() is not None)
            a = builtin(family, parameter, field)
            built.append(weakref.ref(a))
            return a

        monkeypatch.setattr(qshape.cli, "builtin", spy)
        gc.disable()
        try:
            code, rep = run(capsys, ["verify", "exterior", "2"])
        finally:
            gc.enable()
        assert code == 0
        assert alive_at_second_field == [False]

    def test_failed_certificate_is_an_internal_error(self, capsys, monkeypatch):
        # the gates make the certificate hold; should it fail all the same,
        # verify stops with exit 1 naming the command, not 0 and not 5
        import qshape.stable

        real_init = qshape.stable.ExtCertificate.__init__

        def failing(self, m):
            real_init(self, m)
            self.holds = False

        monkeypatch.setattr(qshape.stable.ExtCertificate, "__init__", failing)
        code, rep = run(capsys, ["verify", "truncated_polynomial", "3"])
        assert code == 1
        assert rep["command"] == "verify"
        assert "Ext degree certificate fails" in rep["error"]


class TestWorkDoneOnce:
    def test_gamma_fingerprints_each_algebra_once(self, tmp_path, capsys, monkeypatch):
        import qshape.cli
        import qshape.tilting

        calls = []
        original = qshape.tilting.fingerprint

        def counted(a):
            calls.append(a)
            return original(a)

        monkeypatch.setattr(qshape.cli, "fingerprint", counted)
        monkeypatch.setattr(qshape.tilting, "fingerprint", counted)
        code, rep = run(capsys, ["gamma", write_builtin(tmp_path, "truncated_polynomial", 4)])
        assert code == 0
        assert rep["comparison"]["verdict"]["status"] == "match"
        assert len(calls) == 2  # Gamma and the reference, once each

    def gamma_builds(self, monkeypatch):
        import qshape.cli
        from qshape.tilting import DEFAULT_GLDIM_BOUND, GammaData

        builds = []

        class Counted(GammaData):
            def __init__(self, a, gldim_bound=DEFAULT_GLDIM_BOUND):
                builds.append(a)
                super().__init__(a, gldim_bound)

        monkeypatch.setattr(qshape.cli, "GammaData", Counted)
        return builds

    def test_basechange_builds_gamma_once(self, tmp_path, capsys, monkeypatch):
        builds = self.gamma_builds(monkeypatch)
        lam = write_builtin(tmp_path, "truncated_polynomial", 3, name="lam.json")
        coeff = write_builtin(tmp_path, "truncated_polynomial", 2, name="coeff.json")
        code, rep = run(capsys, ["basechange", lam, "--with", coeff])
        assert code == 0 and rep["gamma_tensor"]["pass"]
        assert len(builds) == 1

    @pytest.mark.parametrize("char", [0, 32003])
    def test_basechange_extends_each_witness_once(self, tmp_path, capsys, monkeypatch,
                                                  char):
        # 6 witnesses (regular, 2 projectives, 2 simples, T) give 36 hom
        # checks; each used to extend both modules and cover the source anew
        import qshape.basechange
        import qshape.modules

        lam = write_builtin(tmp_path, "preprojective_A", 2, char, name="lam.json")
        coeff = write_builtin(tmp_path, "truncated_polynomial", 2, char, name="coeff.json")
        argv = ["basechange", lam, "--with", coeff]

        # the report as computed with a fresh extension (and so a fresh
        # cover) per use: each extension goes through a tensor of its own
        original_i_star = qshape.basechange.i_star

        def fresh_i_star(m, tensor):
            return original_i_star(m, qshape.basechange.TensorAlgebra(tensor.left, tensor.right))

        monkeypatch.setattr(qshape.basechange, "i_star", fresh_i_star)
        main(argv)
        expected = capsys.readouterr().out
        monkeypatch.undo()

        products = []
        extensions = []
        covered = []
        tensor_init = qshape.basechange.TensorAlgebra.__init__
        cover_init = qshape.modules.ProjectiveCover.__init__
        module_class = qshape.basechange.GradedModule

        def spy_tensor(self, left, right):
            tensor_init(self, left, right)
            products.append(self.product)

        def spy_module(algebra, degrees, action):
            extensions.append(algebra)
            return module_class(algebra, degrees, action)

        def spy_cover(self, m):
            covered.append(m.algebra)
            cover_init(self, m)

        monkeypatch.setattr(qshape.basechange.TensorAlgebra, "__init__", spy_tensor)
        monkeypatch.setattr(qshape.basechange, "GradedModule", spy_module)
        monkeypatch.setattr(qshape.modules.ProjectiveCover, "__init__", spy_cover)
        code = main(argv)
        out = capsys.readouterr().out
        rep = json.loads(out)
        assert code == 0 and rep["all_hom_checks_pass"]
        assert len(rep["hom_checks"]) == 36
        assert out == expected
        hom_product = products[0]  # the tensor of the hom checks, built first
        assert sum(1 for alg in extensions if alg is hom_product) == 6
        assert 0 < sum(1 for alg in covered if alg is hom_product) <= 6

    def test_basechange_hom_checks_build_no_cover_sum_module(self, tmp_path, capsys,
                                                            monkeypatch):
        # a hom solve reads the cover's summands, kernel and section only:
        # no cover in the hom-check loop builds its sum module P, which only
        # `ProjectiveCover.module` builds
        import qshape.cli
        import qshape.modules

        lam = write_builtin(tmp_path, "preprojective_A", 3, name="lam.json")
        coeff = write_builtin(tmp_path, "preprojective_A", 2, name="coeff.json")
        in_loop = []
        sums = []
        covers = []
        real_check = qshape.cli.base_change_hom_check
        real_module = qshape.modules.ProjectiveCover.module.fget
        real_cover = qshape.modules.cover_of

        def spy_check(m, n, tensor):
            in_loop.append(True)
            try:
                return real_check(m, n, tensor)
            finally:
                in_loop.pop()

        def spy_module(cov):
            if in_loop:
                sums.append(cov)
            return real_module(cov)

        def spy_cover(m):
            cov = real_cover(m)
            if in_loop:
                covers.append(cov)
            return cov

        monkeypatch.setattr(qshape.cli, "base_change_hom_check", spy_check)
        monkeypatch.setattr(qshape.modules.ProjectiveCover, "module", property(spy_module))
        monkeypatch.setattr(qshape.modules, "cover_of", spy_cover)
        code, rep = run(capsys, ["basechange", lam, "--with", coeff])
        assert code == 0 and rep["all_hom_checks_pass"]
        assert covers and sums == []

    @pytest.mark.parametrize("argv, calls", [
        (["check"], 1), (["tilt"], 1), (["gamma"], 1), (["ext"], 1),
        (["window", "--lo", "-1", "--hi", "1"], 1), (["basechange", "--with"], 1),
        (["verify", "truncated_polynomial", "3"], 2),
    ])
    def test_hypotheses_are_checked_once_per_field(self, tmp_path, capsys, monkeypatch,
                                                   argv, calls):
        # the gate that builds T or Gamma is the only check of the
        # hypotheses, and the report shows its verdicts
        import qshape.tilting

        counted = []
        original = qshape.tilting.check_hypotheses

        def spy(*args):
            counted.append(args)
            return original(*args)

        monkeypatch.setattr(qshape.tilting, "check_hypotheses", spy)
        monkeypatch.setattr(qshape.cli, "check_hypotheses", spy)
        if argv[0] != "verify":
            f = write_builtin(tmp_path, "truncated_polynomial", 3)
            argv = [argv[0], f] + argv[1:] + ([f] if argv[-1] == "--with" else [])
        code, rep = run(capsys, argv)
        assert code == 0
        assert len(counted) == calls
        fields = [rep["rationals"], rep["gf_32003"]] if argv[0] == "verify" else [rep]
        assert all(field["hypotheses"]["self_injective"] is True for field in fields)

    def test_verify_builds_gamma_once_per_field(self, capsys, monkeypatch):
        # truncated_polynomial 3 runs the base-change loop over three
        # coefficient algebras, each needing Gamma tensor A
        builds = self.gamma_builds(monkeypatch)
        code, rep = run(capsys, ["verify", "truncated_polynomial", "3"])
        assert code == 0 and rep["rationals"]["base_change_pass"]
        assert len(builds) == 2


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path, capsys):
        f = write_builtin(tmp_path, "truncated_polynomial", 4)
        main(["gamma", f])
        first = capsys.readouterr().out
        main(["gamma", f])
        second = capsys.readouterr().out
        assert first == second

    def test_seed_recorded(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QSHAPE_SEED", "7")
        f = write_builtin(tmp_path, "truncated_polynomial", 2)
        code, rep = run(capsys, ["check", f])
        assert rep["seed"] == 7

    def test_closed_stdout_exits_quietly(self, tmp_path):
        # the reader takes the head of a report far longer than a pipe's
        # buffer and closes the pipe, as `| head -c 600` does; the command
        # drops the rest of its report and exits with its own code
        f = write_builtin(tmp_path, "truncated_polynomial", 12)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen([sys.executable, "-m", "qshape.cli", "gamma", f], env=env,
                                bufsize=0, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        head = proc.stdout.read(600)  # one read of at most 600 bytes
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=300) == 0
        assert head.startswith(b"{") and stderr == b""

    def test_reports_do_not_depend_on_the_hash_seed(self, tmp_path):
        # string hashes change with PYTHONHASHSEED, so a report that follows
        # the order of a set or dict of names would change with it; the
        # preprojective algebra of A_3 with named vertices and arrows
        path = tmp_path / "named.json"
        path.write_text(json.dumps({
            "field": {"char": 0},
            "quiver": {
                "vertices": ["west", "centre", "east"],
                "arrows": [
                    {"name": "w2c", "from": "west", "to": "centre", "degree": 0},
                    {"name": "c2w", "from": "centre", "to": "west", "degree": 1},
                    {"name": "c2e", "from": "centre", "to": "east", "degree": 0},
                    {"name": "e2c", "from": "east", "to": "centre", "degree": 1},
                ],
                "relations": [
                    [{"coeff": 1, "path": ["c2w", "w2c"]}],
                    [{"coeff": 1, "path": ["c2e", "e2c"]}],
                    [{"coeff": 1, "path": ["e2c", "c2e"]},
                     {"coeff": -1, "path": ["w2c", "c2w"]}],
                ],
                "nilpotency_bound": 6,
            },
        }))
        src = str(Path(__file__).resolve().parents[1] / "src")
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        for argv in (["gamma"], ["ext", "--range", "2"], ["window", "--lo", "-2", "--hi", "2"]):
            runs = []
            for hash_seed in ("0", "1"):
                env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=pythonpath)
                runs.append(subprocess.run(
                    [sys.executable, "-m", "qshape.cli", argv[0], str(path), *argv[1:]],
                    env=env, capture_output=True, check=False))
            assert runs[0].stdout and json.loads(runs[0].stdout)["command"] == argv[0]
            assert (runs[0].returncode, runs[0].stdout) == (runs[1].returncode, runs[1].stdout)


def stdlib_dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2)


WRITER_EDGE_CASES = [
    {}, [], {"a": {}}, {"a": []}, [[], {}], [[[]]], {"a": {"b": {}}},
    {"10": 1, "2": 2, "1": 3},
    {10: "x", 2: "y", -1: "z"},
    {True: 1, 0: 2, 3: 3},
    {None: "null key"},
    {False: None},
    [0, -1, -(10 ** 40), 10 ** 40, True, False, None],
    "",
    "caf\u00e9 \u03b3 \U0001d53d",
    "quote \" backslash \\ slash /",
    "".join(map(chr, range(32))) + "\x7f",
    {"\u00e9": ["\u2028", "\ud800"]},
    (1, (2, [])),
    {"f": 0.5, "g": [1e300, -0.0]},
    7,
    None,
]


def random_report(rng, depth=0):
    """A nested value of the types a report holds, with odd strings and keys."""
    alphabet = "ab10\"\\/\n\t\x00\x1f\u00e9\u20ac\U0001f600 "
    kind = rng.randrange(8 if depth < 4 else 4)
    if kind == 0:
        return "".join(rng.choice(alphabet) for _ in range(rng.randrange(6)))
    if kind == 1:
        return rng.choice([0, 1, -1, rng.randrange(-10 ** 30, 10 ** 30)])
    if kind == 2:
        return rng.choice([True, False, None])
    if kind == 3:
        return rng.randrange(-5, 5) / 4
    if kind == 4:
        return [random_report(rng, depth + 1) for _ in range(rng.randrange(4))]
    if kind == 5:
        # int keys sort as numbers; bools are ints to json too
        keys = {rng.choice([rng.randrange(-20, 20), True, False]) for _ in range(rng.randrange(4))}
    else:
        keys = {"".join(rng.choice(alphabet) for _ in range(rng.randrange(4)))
                for _ in range(rng.randrange(5))}
    return {k: random_report(rng, depth + 1) for k in keys}


class TestReportWriter:
    @pytest.mark.parametrize("obj", WRITER_EDGE_CASES)
    def test_matches_json_on_edge_cases(self, obj):
        assert _dumps(obj) == stdlib_dumps(obj)

    @pytest.mark.parametrize("obj", [{(1, 2): 0}, {"a": 1, 2: 0}, {"a": {1, 2}}, object()])
    def test_rejects_what_json_rejects(self, obj):
        with pytest.raises(TypeError):
            stdlib_dumps(obj)
        with pytest.raises(TypeError):
            _dumps(obj)

    def test_matches_json_on_random_values(self):
        rng = random.Random(20240601)
        for _ in range(400):
            obj = random_report(rng)
            assert _dumps(obj) == stdlib_dumps(obj)

    @pytest.mark.parametrize("char", [0, 32003])
    def test_matches_json_on_a_gamma_report(self, tmp_path, capsys, monkeypatch, char):
        reports = []
        real_emit = qshape.cli._emit

        def spy(report):
            reports.append(report)
            real_emit(report)

        monkeypatch.setattr(qshape.cli, "_emit", spy)
        code = main(["gamma", write_builtin(tmp_path, "truncated_polynomial", 16, char)])
        assert code == 0
        (report,) = reports
        assert report["gamma"]["dim"] == 120
        text = stdlib_dumps(report)
        assert _dumps(report) == text
        assert capsys.readouterr().out == text + "\n"

    def test_non_integer_seed_is_an_indented_parse_error(self, tmp_path, capsys,
                                                         monkeypatch):
        monkeypatch.setenv("QSHAPE_SEED", "seven")
        code = main(["check", write_builtin(tmp_path, "truncated_polynomial", 2)])
        out = capsys.readouterr().out
        assert code == 2
        assert json.loads(out) == {"error": "QSHAPE_SEED must be an integer"}
        assert out == stdlib_dumps(json.loads(out)) + "\n"


class TestWindowEdge:
    def test_serre_on_non_self_injective_exits_3(self, tmp_path, capsys):
        code, rep = run(capsys, [
            "window", write_quiver_a2(tmp_path), "--lo", "-1", "--hi", "1", "--serre",
        ])
        assert code == 3
        assert rep["hypotheses"]["self_injective"] is False
        assert rep["error"] == "Serre check requested on a non-self-injective algebra"

    def test_no_serre_on_non_self_injective_reports(self, tmp_path, capsys):
        code, rep = run(capsys, [
            "window", write_quiver_a2(tmp_path), "--lo", "-1", "--hi", "1", "--no-serre",
        ])
        assert code == 0
        assert rep["properties"]["property_5"]["pass"] is None


class TestBadFlagValues:
    def test_ext_range_zero_is_parse_error(self, tmp_path, capsys):
        f = write_builtin(tmp_path, "truncated_polynomial", 3)
        code, rep = run(capsys, ["ext", f, "--range", "0"])
        assert code == 2
        assert "error" in rep

    def test_window_lo_above_hi_is_parse_error(self, tmp_path, capsys):
        f = write_builtin(tmp_path, "truncated_polynomial", 3)
        code, rep = run(capsys, ["window", f, "--lo", "2", "--hi", "1"])
        assert code == 2
        assert "error" in rep

    @pytest.mark.parametrize("command,extra", [
        ("check", []), ("tilt", []), ("gamma", []), ("ext", ["--range", "2"]),
        ("window", ["--lo", "0", "--hi", "1"]), ("basechange", ["--with", None])])
    def test_negative_gldim_bound_is_parse_error(self, tmp_path, capsys, command, extra):
        # the degree-0 part of k[x]/x^3 is k, of global dimension 0: a
        # negative bound would report it infinite
        f = write_builtin(tmp_path, "truncated_polynomial", 3)
        argv = [command, f, "--gldim-bound", "-1"] + [x or f for x in extra]
        code, rep = run(capsys, argv)
        assert code == 2
        assert "--gldim-bound" in rep["error"]
        code, rep = run(capsys, ["check", f, "--gldim-bound", "0"])
        assert code == 0
        assert rep["hypotheses"]["degree_zero_global_dimension"] == 0

    def test_verify_parameter_zero_is_parse_error(self, capsys):
        code, rep = run(capsys, ["verify", "preprojective_A", "0"])
        assert code == 2
        assert "error" in rep

    def test_internal_value_error_exits_1_naming_the_command(self, tmp_path, capsys,
                                                             monkeypatch):
        # a failed internal invariant is not a parse error
        import qshape.cli

        def broken(*args):
            raise ValueError("cover is not minimal (kernel escapes P.rad)")

        monkeypatch.setattr(qshape.cli, "stable_ext_table", broken)
        f = write_builtin(tmp_path, "truncated_polynomial", 3)
        code, rep = run(capsys, ["ext", f, "--range", "2"])
        assert code == 1
        assert rep["command"] == "ext"
        assert "cover is not minimal" in rep["error"]

    @pytest.mark.parametrize("command,extra,dim", [("gamma", [], 10),
                                                   ("basechange", ["--with", None], 25)])
    def test_domain_error_after_parsing_names_the_command(self, tmp_path, capsys,
                                                          command, extra, dim):
        # truncated_polynomial 5 over GF(2) parses and passes the gate, and
        # its radical has no method in characteristic 2 <= dim: a domain
        # error, exit 2, reported with the command like an internal error
        f = write_builtin(tmp_path, "truncated_polynomial", 5, char=2)
        code, rep = run(capsys, [command, f] + [x or f for x in extra])
        assert code == 2
        assert list(rep) == ["command", "error"]
        assert rep == {"command": command,
                       "error": "UnsupportedCharacteristic: characteristic 2 "
                                f"<= dim {dim} and no quiver origin"}

    def test_bad_compare_spec(self, tmp_path, capsys):
        f = write_builtin(tmp_path, "truncated_polynomial", 3)
        code, rep = run(capsys, ["gamma", f, "--compare", "upper_triangular:x"])
        assert code == 2

    def test_upper_triangular_size_below_zero(self, tmp_path, capsys):
        f = write_builtin(tmp_path, "truncated_polynomial", 3)
        code, rep = run(capsys, ["gamma", f, "--compare", "upper_triangular:-1"])
        assert code == 2

    def test_auslander_parameter_below_one(self, tmp_path, capsys):
        f = write_builtin(tmp_path, "preprojective_A", 3)
        code, rep = run(capsys, ["gamma", f, "--compare", "auslander:0"])
        assert code == 2
        assert rep == {"error": "bad --compare spec 'auslander:0': parameter must be >= 1"}

    def test_subcategory_on_degree_zero_algebra(self, tmp_path, capsys):
        f = write_builtin(tmp_path, "preprojective_A", 1)
        code, rep = run(capsys, ["gamma", f, "--compare", "subcategory"])
        assert code == 2


class TestIntegerFields:
    # int() would read 1.5 as 1, true as 1 and "3" as 3, an algebra the
    # file did not describe; every integer field of an algebra file refuses
    # all three
    @pytest.mark.parametrize("value", [1.5, True, "3"])
    @pytest.mark.parametrize("key", ["char", "parameter", "degree", "nilpotency_bound"])
    def test_float_or_bool_is_parse_error(self, tmp_path, capsys, key, value):
        if key in ("char", "parameter"):
            data = json.loads(Path(write_builtin(tmp_path, "truncated_polynomial", 3)).read_text())
            (data["field"] if key == "char" else data["builtin"])[key] = value
        else:
            data = json.loads(Path(write_preprojective_quiver(tmp_path)).read_text())
            quiver = data["quiver"]
            (quiver["arrows"][1] if key == "degree" else quiver)[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, rep = run(capsys, ["check", str(path)])
        assert code == 2
        assert rep["error"].endswith(f"expected an integer, got {json.dumps(value)}")


class TestCoefficientStrings:
    # Fraction(str) would read "1.5" as 3/2, "2e1" as 20, "1_0" as 10 and
    # " 1 " as 1; a coefficient string is an integer or "p/q", nothing else
    @staticmethod
    def check_with_coeff(tmp_path, capsys, char, coeff):
        data = json.loads(Path(write_preprojective_quiver(tmp_path)).read_text())
        data["field"]["char"] = char
        data["quiver"]["relations"][0][0]["coeff"] = coeff
        path = tmp_path / "coeff.json"
        path.write_text(json.dumps(data))
        return run(capsys, ["check", str(path)])

    @pytest.mark.parametrize("char", [0, 32003])
    @pytest.mark.parametrize("text", ["1.5", "2e1", "1_0", " 1 ", "1/", "/2", "3/-2", "٣"])
    def test_a_string_that_is_not_p_over_q_is_a_parse_error(self, tmp_path, capsys,
                                                             char, text):
        code, rep = self.check_with_coeff(tmp_path, capsys, char, text)
        assert code == 2
        assert rep["error"].endswith(f"cannot coerce {text!r} into {FieldSpec(char)}")

    @pytest.mark.parametrize("char", [0, 32003])
    def test_signed_p_over_q_reads_as_the_integer_coefficient(self, tmp_path, capsys, char):
        # -2/6 is a unit, so the relation ba = 0 is the same either way
        code, rep = self.check_with_coeff(tmp_path, capsys, char, "-2/6")
        assert code == 0
        del rep["input_sha256"]
        code1, rep1 = self.check_with_coeff(tmp_path, capsys, char, 1)
        del rep1["input_sha256"]
        assert (code1, rep1) == (code, rep)
        f = FieldSpec(char)
        assert f.coerce("-2/6") == f.mul(f.neg(f.one()), f.inv(f.from_int(3)))
        assert f.coerce("+4") == f.from_int(4)


class TestNoReferenceCycles:
    @pytest.mark.parametrize("argv", [
        ["check", "LAM"], ["tilt", "LAM"], ["gamma", "LAM"], ["ext", "LAM", "--range", "2"],
        ["window", "LAM", "--lo", "-1", "--hi", "1"], ["basechange", "LAM", "--with", "COEFF"],
        ["verify", "exterior", "2"]], ids=lambda argv: argv[0])
    def test_a_command_frees_everything_by_reference_counting(self, tmp_path, capsys, argv):
        # an algebra caches data and never a module, so no qshape object is
        # in a reference cycle: with the collector off, what a command built
        # is freed as it returns, and a collection finds none of it
        import gc

        files = {"LAM": write_builtin(tmp_path, "preprojective_A", 3, name="lam.json"),
                 "COEFF": write_builtin(tmp_path, "preprojective_A", 2, name="coeff.json")}
        argv = [files.get(arg, arg) for arg in argv]
        gc.collect()
        gc.garbage.clear()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            code, _ = run(capsys, argv)
            gc.collect()
            cyclic = sorted({type(x).__qualname__ for x in gc.garbage
                             if type(x).__module__.startswith("qshape")})
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert code == 0
        assert cyclic == []


class TestParseErrorsSayWhatIsWrong:
    @pytest.mark.parametrize("top", [[], 3, "builtin", None])
    def test_top_level_must_be_an_object(self, tmp_path, capsys, top):
        path = tmp_path / "top.json"
        path.write_text(json.dumps(top))
        code, rep = run(capsys, ["check", str(path)])
        assert code == 2
        assert rep == {"error": "algebra file must hold a JSON object"}

    @pytest.mark.parametrize("where,key", [
        ("builtin", "family"), ("builtin", "parameter"),
        ("quiver", "vertices"), ("quiver", "arrows"), ("quiver", "relations"),
        ("quiver", "nilpotency_bound"),
        ("arrow", "name"), ("arrow", "from"), ("arrow", "to"), ("arrow", "degree"),
        ("term", "coeff"), ("term", "path")])
    def test_a_missing_key_is_named(self, tmp_path, capsys, where, key):
        if where == "builtin":
            data = json.loads(Path(write_builtin(tmp_path, "truncated_polynomial", 3)).read_text())
            del data["builtin"][key]
        else:
            data = json.loads(Path(write_preprojective_quiver(tmp_path)).read_text())
            quiver = data["quiver"]
            holder = {"quiver": quiver, "arrow": quiver["arrows"][1],
                      "term": quiver["relations"][0][0]}[where]
            del holder[key]
        path = tmp_path / "missing.json"
        path.write_text(json.dumps(data))
        code, rep = run(capsys, ["check", str(path)])
        assert code == 2
        assert rep == {"error": f"missing key '{key}'"}

    @pytest.mark.parametrize("key, value", [
        ("vertices", "12"), ("vertices", {"1": 0, "2": 1}),
        ("path", "ba"), ("path", {"b": 0, "a": 1}),
        ("arrows", ""), ("relations", {})])
    def test_a_list_must_be_a_json_array(self, tmp_path, capsys, key, value):
        # iterated, the string "ba" and the object {"b": .., "a": ..} both
        # read as the path ["b", "a"]: the file would be accepted as
        # describing an algebra it does not spell out; an empty string or
        # object would read as no arrows or no relations
        data = json.loads(Path(write_preprojective_quiver(tmp_path)).read_text())
        quiver = data["quiver"]
        (quiver["relations"][0][0] if key == "path" else quiver)[key] = value
        path = tmp_path / "not_an_array.json"
        path.write_text(json.dumps(data))
        code, rep = run(capsys, ["check", str(path)])
        assert code == 2
        assert rep == {"error": f"key '{key}' must hold a JSON array, got {json.dumps(value)}"}


class TestFractionCoefficients:
    @pytest.mark.parametrize("char, coeff", [(0, "1/0"), (7, "1/7")])
    def test_zero_denominator_is_parse_error(self, tmp_path, capsys, char, coeff):
        # over GF(7), 7 is zero: neither coefficient names a scalar
        data = json.loads(Path(write_preprojective_quiver(tmp_path)).read_text())
        data["field"]["char"] = char
        data["quiver"]["relations"][0][0]["coeff"] = coeff
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(data))
        code, rep = run(capsys, ["check", str(path)])
        assert code == 2
        assert rep["error"].startswith("bad algebra description: zero denominator")

    def test_quiver_relation_with_rational_coefficient(self, tmp_path, capsys):
        # scaling a relation by a unit changes nothing; "1/2 b a" cuts the
        # same ideal as "b a"
        p = tmp_path / "frac.json"
        p.write_text(json.dumps({
            "field": {"char": 0},
            "quiver": {
                "vertices": ["1", "2"],
                "arrows": [
                    {"name": "a", "from": "1", "to": "2", "degree": 0},
                    {"name": "b", "from": "2", "to": "1", "degree": 1},
                ],
                "relations": [
                    [{"coeff": "1/2", "path": ["b", "a"]}],
                    [{"coeff": 1, "path": ["a", "b"]}],
                ],
                "nilpotency_bound": 2,
            },
        }))
        code, rep = run(capsys, ["check", str(p)])
        assert code == 0
        assert rep["dim"] == 4
