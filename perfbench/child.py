"""One fresh interpreter for one pass of a workload.

    python3 perfbench/child.py --workload W --seed N --mode setup|run|trace \
        --workdir DIR --result FILE

Imports qshape from the checkout's `src`, writes the workload's inputs and
records when that set-up finished (`time.monotonic`, comparable with the
parent's clock).  `setup` mode stops there.  `run` calls `qshape.cli.main`
in-process for every job, capturing its stdout; `trace` does the same with
the layer wrappers installed and writes the spans to DIR/trace.json.  The
machine's speed is sampled between jobs, and with --calibrate also during
them (calibrate.py), to give each job a reference time.  The result file
holds every job's exit code, seconds, reference seconds and stdout.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--calibrate", action="store_true")
    args = p.parse_args()

    sys.path.insert(0, SRC)
    import qshape.cli as cli

    if os.path.dirname(os.path.abspath(cli.__file__)) != os.path.join(SRC, "qshape"):
        sys.exit(f"qshape imported from {cli.__file__}, not from {SRC}")
    from calibrate import Sampler
    from workloads import jobs_for, write_inputs

    jobs = jobs_for(args.workload, args.seed)
    paths = write_inputs(args.workload, args.seed, jobs, os.path.join(args.workdir, "inputs"))
    ready = time.monotonic()
    result = {"ready": ready, "jobs": []}

    if args.mode != "setup":
        tracer = None
        if args.mode == "trace":
            from tracer import Tracer, install

            tracer = Tracer()
            install(tracer)
        sampler = Sampler()
        # the timer would interrupt traced spans, so tracing samples between jobs only
        with sampler if args.calibrate else contextlib.nullcontext():
            for job in jobs:
                # each CLI call is a process of its own for a user: the
                # previous job's cyclic garbage is not this job's cost
                gc.collect()
                sampler.bracket()
                result["jobs"].append(run_job(cli, job, paths, tracer))
            sampler.bracket()
        for out in result["jobs"]:
            out["ref_seconds"], out["kernel_seconds"] = sampler.reference_seconds(
                out["start"], out["start"] + out["seconds"])
        if tracer is not None:
            result["trace_file"] = os.path.join(args.workdir, "trace.json")
            tracer.dump(result["trace_file"])
        result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    with open(args.result, "w") as fh:
        json.dump(result, fh)


def run_job(cli, job, paths, tracer):
    argv = job.argv(paths)
    buf = io.StringIO()
    error = None
    code = None
    start = time.perf_counter()
    if tracer is not None:
        tracer.begin_job(job.name, job.field)
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except Exception:
        # a crash is an outcome of the job: record it and go on
        error = traceback.format_exc()
    if tracer is not None:
        tracer.end_job()
    seconds = time.perf_counter() - start
    return {"name": job.name, "field": job.field, "code": code, "start": start,
            "seconds": seconds, "stdout": buf.getvalue(), "error": error}


if __name__ == "__main__":
    main()
