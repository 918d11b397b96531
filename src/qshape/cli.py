"""Command-line front end: JSON algebra descriptions in, JSON reports out.

Subcommands: check, tilt, gamma, ext, window, basechange, verify.
Exit codes: 0 all checks pass, 1 a structural property or lemma check
failed, or an internal invariant check failed (the error names the
command), 2 parse/compile error, 3 hypothesis failure, 4 comparison
mismatch, 5 nonzero stable Ext off degree zero (from `ext` only, and not
reached once the gate passes: the table of T stops its tower at Omega T,
where the degrees decide every entry off zero as 0; `verify` proves the
same vanishing from a degree certificate, see ExtCertificate).

Algebra file schema (UTF-8 JSON)::

    {"field": {"char": 0},
     "builtin": {"family": "truncated_polynomial", "parameter": 4}}

or::

    {"field": {"char": 0},
     "quiver": {"vertices": ["1", "2"],
                "arrows": [{"name": "a", "from": "1", "to": "2", "degree": 0},
                           {"name": "b", "from": "2", "to": "1", "degree": 1}],
                "relations": [[{"coeff": 1, "path": ["b", "a"]}],
                              [{"coeff": 1, "path": ["a", "b"]}]],
                "nilpotency_bound": 2}}

A relation is a list of terms; each term multiplies a coefficient (integer
or "p/q" string) with a path written right-to-left, so ["b", "a"] is "apply
a, then b".  Rationals are printed as "p/q" strings, prime-field scalars as
least non-negative residues.  QSHAPE_SEED overrides --seed.
"""

import argparse
import hashlib
import json
import os
import sys
from json.encoder import encode_basestring_ascii

from . import __version__
from .algebra import (
    QuiverPresentation,
    builtin,
    compile_quiver,
    primitive_idempotents,
    sup_degree,
)
from .basechange import TensorAlgebra, base_change_hom_check, gamma_tensor, ungrade
from .errors import HypothesisViolated, NotSelfInjective, QShapeError
from .fields import FieldSpec
from .modules import projective, regular, simple
from .stable import ExtCertificate, stable_ext_table
from .tilting import (
    DEFAULT_GLDIM_BOUND,
    GATE,
    GammaData,
    check_hypotheses,
    compare,
    fingerprint,
    reference_auslander_linear,
    reference_subcategory_algebra,
    reference_upper_triangular,
    tilting_module,
)
from .window import QWindow, check_window_properties

EXIT_OK = 0
EXIT_FAILED_CHECK = 1
EXIT_PARSE = 2
EXIT_HYPOTHESIS = 3
EXIT_COMPARISON = 4
EXIT_EXT_NONZERO = 5


class ParseError(Exception):
    pass


def _json_int(value):
    """value, for an integer field of an algebra file, when it is a JSON
    integer.  Anything else is refused (ValueError): int() would truncate
    1.5 to 1, read true as 1 and " 3_0 " as 30, and so describe an algebra
    the file did not."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer, got {json.dumps(value)}")
    return value


def _json_array(obj, key):
    """obj[key] for a key that must hold a JSON array; ParseError naming it."""
    value = _required(obj, key)
    if not isinstance(value, list):
        raise ParseError(f"key {key!r} must hold a JSON array, got {json.dumps(value)}")
    return value


def _required(obj, key):
    """obj[key] for a key that an algebra file must give; ParseError
    naming the key when it is missing."""
    try:
        return obj[key]
    except KeyError:
        raise ParseError(f"missing key {key!r}") from None


def _load_algebra_file(path):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}")
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ParseError(f"invalid JSON in {path}: {e}")
    digest = hashlib.sha256(raw).hexdigest()
    if not isinstance(data, dict):
        raise ParseError("algebra file must hold a JSON object")
    try:
        field = FieldSpec(_json_int(data.get("field", {}).get("char", 0)))
    except (TypeError, ValueError, AttributeError) as e:
        raise ParseError(f"bad field spec: {e}")
    if ("builtin" in data) == ("quiver" in data):
        raise ParseError("file must contain exactly one of 'builtin' or 'quiver'")
    try:
        if "builtin" in data:
            b = data["builtin"]
            parameter = _json_int(_required(b, "parameter"))
            family = _required(b, "family")
            a = builtin(family, parameter, field)
            echo = {"builtin": {"family": family, "parameter": parameter}}
        else:
            q = data["quiver"]
            arrows = [(_required(ar, "name"), _required(ar, "from"), _required(ar, "to"),
                       _json_int(_required(ar, "degree")))
                      for ar in _json_array(q, "arrows")]
            relations = [
                [(_required(term, "coeff"), tuple(_json_array(term, "path"))) for term in rel]
                for rel in _json_array(q, "relations")
            ]
            vertices = _json_array(q, "vertices")
            pres = QuiverPresentation(vertices, arrows, relations,
                                      _json_int(_required(q, "nilpotency_bound")))
            a = compile_quiver(pres, field)
            echo = {"quiver": {"vertices": list(vertices),
                               "arrows": len(arrows),
                               "relations": len(relations)}}
    except QShapeError as e:
        raise ParseError(f"{type(e).__name__}: {e}")
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"bad algebra description: {e}")
    return a, field, echo, digest


def _vec_json(field, vec):
    return {str(k): field.to_str(c) for k, c in sorted(vec.items())}


def _algebra_json(a):
    # the table lists every slot; the absent products share one empty dict
    empty = {}
    mult = []
    for row in a.mult:
        out = [empty] * a.dim
        for j, w in row.items():
            out[j] = _vec_json(a.field, w)
        mult.append(out)
    return {
        "dim": a.dim,
        "degrees": list(a.degrees),
        "labels": list(a.labels) if a.labels else None,
        "unit": _vec_json(a.field, a.unit),
        "mult": mult,
    }


def _envelope(command, field, echo, digest, seed):
    return {
        "command": command,
        "version": __version__,
        "seed": seed,
        "field": {"char": field.char},
        "input": echo,
        "input_sha256": digest,
    }


def _dumps(obj, indent=""):
    """json.dumps(obj, sort_keys=True, indent=2), byte for byte.

    The stdlib encodes with `indent` in pure Python, one generator per
    container; this recursion writes the same text for the types a report
    holds and hands any other value (a float, or one json rejects) to
    json.dumps.  Dict items are sorted as json sorts them, by the original
    keys, and non-str keys are converted as json converts them.  Dicts come
    first: most values of a report are the empty slots of a table.
    """
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        items = []
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                if key is not None and not isinstance(key, (int, float)):
                    raise TypeError("keys must be str, int, float, bool or None, "
                                    f"not {key.__class__.__name__}")
                key = json.dumps(key)
            items.append(f"{encode_basestring_ascii(key)}: {_dumps(value, inner)}")
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        items = [_dumps(x, inner) for x in obj]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    return json.dumps(obj)


def _emit(report):
    """Print the report; if the reader has closed stdout, point stdout at
    the null device, so that neither this print nor the final flush at
    exit fails, and let the command return its own exit code."""
    try:
        print(_dumps(report), flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _hypothesis_block(a, verdicts):
    """The hypothesis verdicts as reported: those given, and a's top degree."""
    block = dict(verdicts)
    block["top_degree"] = sup_degree(a) if a.dim else None
    return block


def _gated(report, a, gldim_bound, build):
    """build(a, gldim_bound), a construction behind the hypothesis gate,
    with the gate's verdicts reported.  When the gate fails, the report
    gets the verdicts and the error and is emitted, and None is returned:
    the command then exits with EXIT_HYPOTHESIS."""
    try:
        built = build(a, gldim_bound)
    except HypothesisViolated as e:
        report["hypotheses"] = _hypothesis_block(a, e.verdicts)
        report["error"] = str(e)
        _emit(report)
        return None
    report["hypotheses"] = _hypothesis_block(a, built.hypotheses)
    return built


def cmd_check(args, seed):
    a, field, echo, digest = _load_algebra_file(args.file)
    report = _envelope("check", field, echo, digest, seed)
    verdicts = check_hypotheses(a, args.gldim_bound)
    report["hypotheses"] = _hypothesis_block(a, verdicts)
    report["dim"] = a.dim
    _emit(report)
    return EXIT_OK if all(verdicts[k] for k in GATE) else EXIT_HYPOTHESIS


def cmd_tilt(args, seed):
    a, field, echo, digest = _load_algebra_file(args.file)
    report = _envelope("tilt", field, echo, digest, seed)
    td = _gated(report, a, args.gldim_bound, tilting_module)
    if td is None:
        return EXIT_HYPOTHESIS
    # summand i is T's coordinates from offsets[i] up to the next offset
    spans = list(zip(td.offsets, td.offsets[1:] + [td.module.dim]))
    report["tilting"] = {
        "summand_count": td.ell,
        "summand_dims": [end - off for off, end in spans],
        "summand_degrees": [sorted(set(td.module.degrees[off:end])) for off, end in spans],
        "total_dim": td.module.dim,
    }
    _emit(report)
    return EXIT_OK


def _auto_reference(echo):
    """The --compare spec that `auto` stands for; None for a quiver."""
    b = echo.get("builtin")
    if not b:
        return None
    fam, par = b["family"], b["parameter"]
    if fam == "truncated_polynomial":
        return f"upper_triangular:{par - 1}"
    if fam == "preprojective_A":
        return f"auslander:{par - 1}" if par > 1 else "upper_triangular:0"
    if fam == "exterior":
        return "subcategory"
    return None


def _resolve_reference(spec_str, echo, a):
    if spec_str == "auto":
        spec_str = _auto_reference(echo)
    if spec_str in (None, "none"):
        return None, None
    try:
        if spec_str == "subcategory":
            return "subcategory", reference_subcategory_algebra(a)
        name, _, param = spec_str.partition(":")
        if name == "upper_triangular":
            return spec_str, reference_upper_triangular(int(param), a.field)
        if name == "auslander":
            return spec_str, reference_auslander_linear(int(param), a.field)
    except (ValueError, TypeError) as e:
        raise ParseError(f"bad --compare spec {spec_str!r}: {e}")
    raise ParseError(f"unknown --compare spec {spec_str!r}")


def cmd_gamma(args, seed):
    a, field, echo, digest = _load_algebra_file(args.file)
    report = _envelope("gamma", field, echo, digest, seed)
    gamma = _gated(report, a, args.gldim_bound, GammaData)
    if gamma is None:
        return EXIT_HYPOTHESIS
    g = gamma.algebra
    report["gamma"] = _algebra_json(g)
    report["gamma"]["block_idempotents"] = [_vec_json(field, e)
                                            for e in gamma.block_idempotents]
    fp = fingerprint(g)
    report["fingerprint"] = fp.as_dict()
    ref_name, ref = _resolve_reference(args.compare, echo, a)
    if ref is None:
        report["comparison"] = {"reference": None, "verdict": None}
        _emit(report)
        return EXIT_OK
    ref_fp = fingerprint(ref)
    verdict = compare(fp, ref_fp)
    report["comparison"] = {
        "reference": ref_name,
        "reference_fingerprint": ref_fp.as_dict(),
        "verdict": verdict.as_dict(),
    }
    _emit(report)
    return EXIT_OK if verdict.status != "mismatch" else EXIT_COMPARISON


def cmd_ext(args, seed):
    if args.range < 1:
        raise ParseError(f"--range must be >= 1, got {args.range}")
    a, field, echo, digest = _load_algebra_file(args.file)
    report = _envelope("ext", field, echo, digest, seed)
    td = _gated(report, a, args.gldim_bound, tilting_module)
    if td is None:
        return EXIT_HYPOTHESIS
    table = stable_ext_table(td.module, td.module, args.range)
    report["ext_table"] = {str(i): table[i] for i in sorted(table)}
    off_zero = [i for i, v in table.items() if i != 0 and v]
    report["vanishes_off_zero"] = not off_zero
    _emit(report)
    return EXIT_OK if not off_zero else EXIT_EXT_NONZERO


def cmd_window(args, seed):
    if args.lo > args.hi:
        raise ParseError(f"--lo {args.lo} exceeds --hi {args.hi}")
    a, field, echo, digest = _load_algebra_file(args.file)
    report = _envelope("window", field, echo, digest, seed)
    report["hypotheses"] = _hypothesis_block(a, check_hypotheses(a, args.gldim_bound))
    w = QWindow(a, args.lo, args.hi)
    try:
        rep = check_window_properties(w, serre_check=args.serre)
    except NotSelfInjective as e:
        report["error"] = str(e)
        _emit(report)
        return EXIT_HYPOTHESIS
    report["properties"] = rep
    report["hom_dims"] = w.dims_table()
    _emit(report)
    return EXIT_OK if rep["all_pass"] else EXIT_FAILED_CHECK


def _witnesses(a, tilting):
    """The base-change witnesses by name: the regular module, each
    projective and simple, and the tilting module."""
    witnesses = {"regular": regular(a)}
    for i in range(1, len(primitive_idempotents(a)) + 1):
        witnesses[f"projective_{i}"] = projective(a, i)
        witnesses[f"simple_{i}"] = simple(a, i)
    witnesses["tilting"] = tilting
    return witnesses


def _base_change(a, witnesses, coeff, gamma):
    """(checks, gamma_tensor block) of base change along coeff: the hom
    check of every ordered pair of `_witnesses` (shared by every coeff),
    by "m|n" name in sorted order, and dim Gamma (x) A against dim Gamma * dim A."""
    tensor = TensorAlgebra(a, coeff)
    witnesses = sorted(witnesses.items())
    checks = {f"{name_m}|{name_n}": base_change_hom_check(m, n, tensor)
              for name_m, m in witnesses for name_n, n in witnesses}
    dim = gamma_tensor(gamma.algebra, coeff).dim
    expected = gamma.algebra.dim * coeff.dim
    return checks, {"dim": dim, "expected_dim": expected, "pass": dim == expected}


def cmd_basechange(args, seed):
    a, field, echo, digest = _load_algebra_file(args.file)
    a2, field2, echo2, digest2 = _load_algebra_file(getattr(args, "with"))
    report = _envelope("basechange", field, echo, digest, seed)
    report["coefficient_input"] = echo2
    report["coefficient_sha256"] = digest2
    if field != field2:
        report["error"] = "base and coefficient algebras use different fields"
        _emit(report)
        return EXIT_PARSE
    coeff = a2 if a2.is_trivially_graded() else ungrade(a2)
    report["coefficient_regraded"] = not a2.is_trivially_graded()
    gamma = _gated(report, a, args.gldim_bound, GammaData)
    if gamma is None:
        return EXIT_HYPOTHESIS
    checks, gt = _base_change(a, _witnesses(a, gamma.tilting.module), coeff, gamma)
    all_pass = all(res["pass"] for res in checks.values())
    report["hom_checks"] = checks
    report["all_hom_checks_pass"] = all_pass
    report["gamma_tensor"] = gt
    _emit(report)
    return EXIT_OK if all_pass and gt["pass"] else EXIT_FAILED_CHECK


def _verify_one_field(family, parameter, field):
    """Per-instance acceptance subset for one field; returns (verdicts, code)."""
    a = builtin(family, parameter, field)
    try:
        gamma = GammaData(a)
    except HypothesisViolated as e:
        return {"hypotheses": {k: e.verdicts[k] for k in GATE}}, EXIT_HYPOTHESIS
    verdicts = {"hypotheses": {k: gamma.hypotheses[k] for k in GATE}}
    echo = {"builtin": {"family": family, "parameter": parameter}}
    ref_name, ref = _resolve_reference("auto", echo, a)
    cmp_verdict = compare(gamma.algebra, ref)
    verdicts["gamma_dim"] = gamma.algebra.dim
    verdicts["comparison"] = {"reference": ref_name, "verdict": cmp_verdict.as_dict()}

    cert = ExtCertificate(gamma.tilting.module)
    if not cert.holds:
        raise ValueError(f"Ext degree certificate fails: {cert.as_dict()}")
    verdicts["ext_certificate"] = cert.as_dict()
    verdicts["ext_vanishes_off_zero"] = cert.holds
    verdicts["ext_zero_entry_is_gamma_dim"] = (
        gamma.stable_end.stable.dim == gamma.algebra.dim)

    wrep = check_window_properties(QWindow(a, -6, 6), serre_check=True)
    verdicts["window_all_pass"] = wrep["all_pass"]

    if (family, parameter) in (("truncated_polynomial", 3), ("preprojective_A", 2)):
        coeffs = {
            "base_field": builtin("preprojective_A", 1, field),
            "dual_numbers": ungrade(builtin("truncated_polynomial", 2, field)),
            "upper_triangular_2": reference_upper_triangular(2, field),
        }
        witnesses = _witnesses(a, gamma.tilting.module)
        bc_pass = True
        for coeff in coeffs.values():
            checks, gt = _base_change(a, witnesses, coeff, gamma)
            bc_pass = bc_pass and gt["pass"] and all(r["pass"] for r in checks.values())
        verdicts["base_change_pass"] = bc_pass

    code = EXIT_OK
    if cmp_verdict.status == "mismatch":
        code = EXIT_COMPARISON
    elif not (verdicts["ext_zero_entry_is_gamma_dim"] and verdicts["window_all_pass"]
              and verdicts.get("base_change_pass", True)):
        code = EXIT_FAILED_CHECK
    return verdicts, code


def cmd_verify(args, seed):
    if args.parameter < 1:
        raise ParseError(f"parameter must be >= 1, got {args.parameter}")
    echo = {"builtin": {"family": args.family, "parameter": args.parameter}}
    digest = hashlib.sha256(
        json.dumps(echo, sort_keys=True).encode("utf-8")
    ).hexdigest()
    report = _envelope("verify", FieldSpec(0), echo, digest, seed)
    try:
        rational, code_q = _verify_one_field(args.family, args.parameter, FieldSpec(0))
        modular, code_p = _verify_one_field(args.family, args.parameter, FieldSpec(32003))
    except QShapeError as e:
        report["error"] = f"{type(e).__name__}: {e}"
        _emit(report)
        return EXIT_PARSE
    report["rationals"] = rational
    report["gf_32003"] = modular
    agree = rational == modular
    report["field_independent"] = agree
    _emit(report)
    if code_q != EXIT_OK:
        return code_q
    if code_p != EXIT_OK:
        return code_p
    return EXIT_OK if agree else EXIT_FAILED_CHECK


def build_parser():
    p = argparse.ArgumentParser(prog="qshape", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seed", type=int, default=0,
                   help="echoed in every report; no computation reads it "
                        "(QSHAPE_SEED overrides)")
    sub = p.add_subparsers(dest="command", required=True)

    def with_file(sp):
        sp.add_argument("file", help="algebra description JSON file")
        sp.add_argument("--gldim-bound", type=int, default=DEFAULT_GLDIM_BOUND)

    sp = sub.add_parser("check", help="verify the standing hypotheses")
    with_file(sp)
    sp = sub.add_parser("tilt", help="construct the tilting module")
    with_file(sp)
    sp = sub.add_parser("gamma", help="stable endomorphism algebra of the tilting module")
    with_file(sp)
    sp.add_argument("--compare", default="auto",
                    help="auto|upper_triangular:m|auslander:m|subcategory|none")
    sp = sub.add_parser("ext", help="stable Ext table of the tilting module")
    with_file(sp)
    sp.add_argument("--range", type=int, default=5)
    sp = sub.add_parser("window", help="check the shifted-projective category window")
    with_file(sp)
    sp.add_argument("--lo", type=int, required=True)
    sp.add_argument("--hi", type=int, required=True)
    serre = sp.add_mutually_exclusive_group()
    serre.add_argument("--serre", dest="serre", action="store_true", default=True)
    serre.add_argument("--no-serre", dest="serre", action="store_false")
    sp = sub.add_parser("basechange", help="hom base-change checks against a coefficient algebra")
    with_file(sp)
    sp.add_argument("--with", required=True, help="coefficient algebra JSON file")
    sp = sub.add_parser("verify", help="run the acceptance subset for a builtin instance")
    sp.add_argument("family")
    sp.add_argument("parameter", type=int)
    return p


COMMANDS = {
    "check": cmd_check,
    "tilt": cmd_tilt,
    "gamma": cmd_gamma,
    "ext": cmd_ext,
    "window": cmd_window,
    "basechange": cmd_basechange,
    "verify": cmd_verify,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    seed = args.seed
    env_seed = os.environ.get("QSHAPE_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            _emit({"error": "QSHAPE_SEED must be an integer"})
            return EXIT_PARSE
    try:
        # every file command takes the bound; a negative one bounds nothing
        if getattr(args, "gldim_bound", 0) < 0:
            raise ParseError(f"--gldim-bound must be >= 0, got {args.gldim_bound}")
        return COMMANDS[args.command](args, seed)
    except ParseError as e:
        _emit({"error": str(e)})
        return EXIT_PARSE
    except QShapeError as e:
        _emit({"command": args.command, "error": f"{type(e).__name__}: {e}"})
        return EXIT_PARSE
    except ValueError as e:
        _emit({"command": args.command, "error": f"ValueError: {e}"})
        return EXIT_FAILED_CHECK


if __name__ == "__main__":
    sys.exit(main())
