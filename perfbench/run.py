"""qshape benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload verify|ext-deep|gamma-wide|basechange|all \
        --seed N --seconds S --trace 0|1

Every pass of a workload runs in its own fresh interpreter (perfbench/child.py),
one at a time, with no threads.  With --trace 0 it runs passes until S seconds
of jobs are measured, plus set-up probes, and reports the end-to-end metrics.
With --trace 1 it runs one untraced and one traced pass and reports the
per-layer metrics.  Every job is checked against its known answer
(answers.py); the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  A readable summary goes to stderr.
Metric names, units and directions are read from BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from answers import check_job, field_free  # noqa: E402
from workloads import WORKLOADS, jobs_for  # noqa: E402

SETUP_PROBES = 3          # set-up-only interpreters per run, besides the passes
DEADLINE_S = 170.0        # the whole run, children included
MAX_PASSES = 50


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise BenchError(f"cannot read {path}: {e}")
    return spec


class Runner:
    """Spawns children for one workload run and keeps to the deadline."""

    def __init__(self, workload, seed, workdir, deadline):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.pop("QSHAPE_SEED", None)      # qshape's own seed keeps its default
        self.env["PYTHONHASHSEED"] = "0"       # same set iteration order every run
        self.count = 0

    def child(self, mode, *extra):
        """Run one child; returns (its result, set-up seconds)."""
        self.count += 1
        sub = os.path.join(self.workdir, f"{mode}-{self.count}")
        os.makedirs(sub, exist_ok=True)
        result_path = os.path.join(sub, "result.json")
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode, "--workdir", sub,
               "--result", result_path, *extra]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before a child could start")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, stdin=subprocess.DEVNULL,
                                  stdout=sys.stderr, stderr=sys.stderr, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} child exceeded the deadline")
        if proc.returncode != 0:
            raise BenchError(f"{mode} child exited with {proc.returncode}")
        try:
            with open(result_path) as fh:
                result = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise BenchError(f"{mode} child left no result: {e}")
        return result, result["ready"] - spawned


def parse_report(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None


def check_pass(jobs, outcomes):
    """Known-answer problems per job name for one pass."""
    problems = {}
    reports = {}
    for job, out in zip(jobs, outcomes):
        report = parse_report(out["stdout"])
        reports[job.name] = report
        found = check_job(job, out["code"], report)
        if out["error"]:
            found.append("raised: " + out["error"].strip().splitlines()[-1])
        problems[job.name] = found
    # the GF(p) job of each file-input pair must agree with its QQ twin
    by_key = {}
    for job in jobs:
        if job.field is not None:
            by_key.setdefault((job.command, tuple(job.inputs), tuple(job.extra)), []).append(job)
    for pair in by_key.values():
        qq, gf = sorted(pair, key=lambda j: j.field)
        rq, rg = reports[qq.name], reports[gf.name]
        if rq is not None and rg is not None and field_free(qq, rq) != field_free(gf, rg):
            problems[gf.name].append("report differs from QQ")
    return problems


def digests(outcomes):
    return {o["name"]: hashlib.sha256(o["stdout"].encode()).hexdigest() for o in outcomes}


class Tally:
    """Jobs attempted and failed across every pass of a run."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.attempted = 0
        self.failed = 0
        self.failures = {}    # job name -> problems seen
        self.inconsistent = []
        self.first_digests = None

    def add(self, outcomes, label):
        """Check one pass; its stdout must match the first pass byte for byte."""
        problems = check_pass(self.jobs, outcomes)
        self.attempted += len(outcomes)
        for name, found in problems.items():
            if found:
                self.failed += 1
                self.failures.setdefault(name, found)
        d = digests(outcomes)
        if self.first_digests is None:
            self.first_digests = d
        for name, digest in d.items():
            if digest != self.first_digests[name]:
                self.inconsistent.append(f"{name}: stdout of the {label} pass differs")


def pass_times(outcomes, key="seconds"):
    """Total and slowest job time of one pass."""
    times = [o[key] for o in outcomes]
    return sum(times), max(times)


def run_untraced(runner, tally, seconds):
    setups = []
    for _ in range(SETUP_PROBES):
        _, setup = runner.child("setup")
        setups.append(setup)
    walls, refs, ref_maxes, rss = [], [], [], []
    measured = 0.0
    started = time.monotonic()
    while len(walls) < MAX_PASSES:
        result, setup = runner.child("run", "--calibrate")
        setups.append(setup)
        tally.add(result["jobs"], f"untraced #{len(walls) + 1}")
        walls.append(pass_times(result["jobs"]))
        ref, ref_max = pass_times(result["jobs"], "ref_seconds")
        refs.append(ref)
        ref_maxes.append(ref_max)
        rss.append(result["rss_kb"] / 1024.0)
        measured += walls[-1][0]
        if measured >= seconds:
            break
        # never start a pass that cannot finish before the deadline
        per_pass = (time.monotonic() - started) / len(walls)
        if time.monotonic() + 1.5 * per_pass > runner.deadline - 5:
            break
    return {
        "setup_s": statistics.median(setups),
        "wall_ref_s": statistics.median(refs),
        "job_max_ref_s": statistics.median(ref_maxes),
        "peak_rss_mb": statistics.median(rss),
        "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
    }, {"passes": len(walls), "setup_samples": len(setups),
        "wall_s": statistics.median(w for w, _ in walls),
        "job_max_s": statistics.median(m for _, m in walls)}


def run_traced(runner, tally):
    from tracer import analyse

    plain, _ = runner.child("run")
    tally.add(plain["jobs"], "untraced")
    traced, _ = runner.child("trace")
    tally.add(traced["jobs"], "traced")
    with open(traced["trace_file"]) as fh:
        doc = json.load(fh)
    metrics, jobs = analyse(doc)
    plain_wall, _ = pass_times(plain["jobs"])
    traced_wall, _ = pass_times(traced["jobs"])
    plain_ref, _ = pass_times(plain["jobs"], "ref_seconds")
    traced_ref, _ = pass_times(traced["jobs"], "ref_seconds")
    # in reference seconds, so that host drift between the two passes cancels
    metrics["trace.overhead_s"] = traced_ref - plain_ref
    for j in jobs:
        if abs(j["self_sum_s"] - j["traced_s"]) > 1e-6 * max(1.0, j["traced_s"]):
            tally.inconsistent.append(
                f"{j['name']}: self times sum to {j['self_sum_s']:.6f} s, "
                f"job took {j['traced_s']:.6f} s")
    return metrics, {"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
                     "untraced_ref_s": plain_ref, "traced_ref_s": traced_ref,
                     "trace_file": os.path.relpath(traced["trace_file"], ROOT),
                     "jobs": jobs}


def run_workload(spec, workload, seed, seconds, trace, deadline):
    jobs = jobs_for(workload, seed)
    workdir = os.path.join(HERE, ".out", f"{workload}-s{seed}-t{trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    runner = Runner(workload, seed, workdir, deadline)
    tally = Tally(jobs)
    if trace:
        values, info = run_traced(runner, tally)
        wanted = spec["per_layer"]
    else:
        values, info = run_untraced(runner, tally, seconds)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    line = {"correct": tally.failed == 0 and not tally.inconsistent,
            "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    summarize(workload, seed, trace, line, tally, info)
    with open(os.path.join(workdir, "summary.json"), "w") as fh:
        json.dump({"result": line, "failures": tally.failures,
                   "inconsistent": tally.inconsistent, "info": info}, fh, indent=1)
    return line


def summarize(workload, seed, trace, line, tally, info):
    out = sys.stderr
    mode = "traced (per-layer)" if trace else "untraced (end-to-end)"
    print(f"== {workload}  seed {seed}  {mode}", file=out)
    for key, val in info.items():
        if key != "jobs":
            print(f"   {key}: {val}", file=out)
    for name, m in line["metrics"].items():
        print(f"   {name:32s} {m['value']:>14.6g} {m['unit']}", file=out)
    ratio = line["failed"] / line["attempted"]
    print(f"   failed_ratio {ratio:.4f} ({line['failed']} of {line['attempted']} jobs)",
          file=out)
    for name, found in tally.failures.items():
        print(f"   FAILED {name}: {'; '.join(found)}", file=out)
    for msg in tally.inconsistent:
        print(f"   INCONSISTENT {msg}", file=out)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="seconds of jobs to measure (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    start = time.monotonic()
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "qshape", "__init__.py")):
            raise BenchError(f"no qshape sources under {os.path.join(ROOT, 'src')}")
        spec = load_spec()
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        if args.workload != "all":
            line = run_workload(spec, args.workload, args.seed, seconds, args.trace,
                                start + DEADLINE_S)
        else:
            # one workload after another, each with the full deadline
            lines = {w: run_workload(spec, w, args.seed, seconds, args.trace,
                                     time.monotonic() + DEADLINE_S) for w in WORKLOADS}
            line = {"correct": all(v["correct"] for v in lines.values()),
                     "attempted": sum(v["attempted"] for v in lines.values()),
                     "failed": sum(v["failed"] for v in lines.values()),
                     "metrics": {f"{w}.{k}": m for w, v in lines.items()
                                 for k, m in v["metrics"].items()}}
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
