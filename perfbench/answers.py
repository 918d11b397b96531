"""Known answers for every job, from closed forms independent of qshape.

For the three families (truncated polynomial k[x]/x^N, type-A
preprojective algebra on n vertices, exterior algebra on n generators):

- dim Lambda is N, n(n+1)(n+2)/6 or 2^n;
- dim Gamma, the stable endomorphism algebra of the tilting module, is
  N(N-1)/2 (upper triangular (N-1)x(N-1) matrices), C(n+2, 4) (Auslander
  algebra of linear A_{n-1}) or sum_{d<n} (n-d) C(n, d) (slice convolution
  algebra);
- Gamma matches its reference, the stable Ext of T vanishes off degree 0
  with Ext_0 = dim Gamma, the window properties hold, base change passes
  with dim(Gamma (x) A) = dim Gamma * dim A, QQ and GF(p) agree, and the
  exit code is 0.
"""

from math import comb


def dim_lambda(family, n):
    if family == "truncated_polynomial":
        return n
    if family == "preprojective_A":
        return n * (n + 1) * (n + 2) // 6
    if family == "exterior":
        return 2 ** n
    raise ValueError(family)


def dim_gamma(family, n):
    if family == "truncated_polynomial":
        return n * (n - 1) // 2
    if family == "preprojective_A":
        return comb(n + 2, 4)
    if family == "exterior":
        return sum((n - d) * comb(n, d) for d in range(n))
    raise ValueError(family)


HYPOTHESES = ("non_negative_grading", "self_injective", "finite_global_dimension")
# verify runs base change only on these two instances
VERIFY_BASE_CHANGE = {("truncated_polynomial", 3), ("preprojective_A", 2)}


def _expect(problems, ok, what):
    if not ok:
        problems.append(what)


def _check_check(rep, fam, n, problems):
    _expect(problems, rep.get("dim") == dim_lambda(fam, n),
            f"dim Lambda {rep.get('dim')} != {dim_lambda(fam, n)}")
    hyp = rep.get("hypotheses", {})
    _expect(problems, all(hyp.get(k) is True for k in HYPOTHESES), "hypotheses fail")


def _check_gamma(rep, fam, n, problems):
    dim = rep.get("gamma", {}).get("dim")
    _expect(problems, dim == dim_gamma(fam, n), f"dim Gamma {dim} != {dim_gamma(fam, n)}")
    verdict = rep.get("comparison", {}).get("verdict") or {}
    status = verdict.get("status")
    _expect(problems, status == "match",
            f"verdict {status}({verdict.get('mismatch_field')}) != match")


def _check_ext(rep, fam, n, k, problems):
    table = rep.get("ext_table", {})
    want = {str(i): (dim_gamma(fam, n) if i == 0 else 0) for i in range(-k, k + 1)}
    _expect(problems, table == want, f"Ext table {table} != {want}")


def _check_basechange(rep, fam, n, coeff, problems):
    checks = rep.get("hom_checks", {})
    bad = [k for k, c in checks.items() if not (c["pass"] and c["lhs_dim"] == c["rhs_dim"])]
    _expect(problems, checks and not bad and rep.get("all_hom_checks_pass") is True,
            f"hom checks fail: {bad}")
    want = dim_gamma(fam, n) * dim_lambda(*coeff)
    got = rep.get("gamma_tensor", {})
    _expect(problems, got.get("dim") == want and got.get("pass") is True,
            f"dim Gamma(x)A {got.get('dim')} != {want}")


def _check_verify(rep, fam, n, problems):
    for key in ("rationals", "gf_32003"):
        v = rep.get(key)
        if not isinstance(v, dict):
            problems.append(f"{key}: missing")
            continue
        _expect(problems, all(v.get("hypotheses", {}).get(h) is True for h in HYPOTHESES),
                f"{key}: hypotheses fail")
        _expect(problems, v.get("gamma_dim") == dim_gamma(fam, n),
                f"{key}: dim Gamma {v.get('gamma_dim')} != {dim_gamma(fam, n)}")
        verdict = v.get("comparison", {}).get("verdict") or {}
        _expect(problems, verdict.get("status") == "match",
                f"{key}: verdict {verdict.get('status')}({verdict.get('mismatch_field')})"
                " != match")
        _expect(problems, v.get("ext_vanishes_off_zero") is True,
                f"{key}: Ext nonzero off degree 0")
        _expect(problems, v.get("ext_zero_entry_is_gamma_dim") is True,
                f"{key}: Ext_0 != dim Gamma")
        _expect(problems, v.get("window_all_pass") is True, f"{key}: window fails")
        if (fam, n) in VERIFY_BASE_CHANGE:
            _expect(problems, v.get("base_change_pass") is True, f"{key}: base change fails")
    _expect(problems, rep.get("field_independent") is True, "QQ and GF(p) disagree")


def check_job(job, code, report):
    """Problems with one job's outcome; an empty list means it is right."""
    problems = []
    if report is None:
        return ["no parseable report"]
    if "error" in report:
        problems.append(f"error: {report['error']}")
    fam, n = job.inputs[0]
    if job.field is not None and report.get("field", {}).get("char") != job.field:
        problems.append("report is for another field")
    if job.command == "check":
        _check_check(report, fam, n, problems)
    elif job.command == "gamma":
        _check_gamma(report, fam, n, problems)
    elif job.command == "ext":
        _check_ext(report, fam, n, int(job.extra[job.extra.index("--range") + 1]), problems)
    elif job.command == "basechange":
        _check_basechange(report, fam, n, job.inputs[1], problems)
    elif job.command == "verify":
        _check_verify(report, fam, n, problems)
    if code != 0:
        problems.append(f"exit code {code}")
    return problems


# report keys whose values must not depend on the field
FIELD_FREE = {
    "check": ("dim", "hypotheses"),
    "gamma": ("fingerprint", "comparison"),
    "ext": ("ext_table", "vanishes_off_zero"),
    "basechange": ("hom_checks", "all_hom_checks_pass", "gamma_tensor"),
}


def field_free(job, report):
    """The part of a report that QQ and GF(p) must agree on."""
    out = {k: report.get(k) for k in FIELD_FREE[job.command]}
    if job.command == "gamma":
        out["dim"] = report.get("gamma", {}).get("dim")
    return out
