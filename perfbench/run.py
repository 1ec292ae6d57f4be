"""wgconvect benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload cavity_ramp --seed 1 --seconds 30 \
        --trace 0

Run from the root of a source tree; the package is imported from its
`src/` directory.  A run first starts the set-up probe a few times (each a
fresh process) for `setup_s`, then builds the workload in this process and
measures as many whole rounds as fit in --seconds, at least one.  With
--trace 0 it prints the end-to-end metrics; with --trace 1 it wraps the
public functions of each module (see spans.py) and prints the per-layer
metrics instead.  Every round's outputs are checked; the last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`, and the exit code is 0 only if every check passed.  Run
records, span files and the files the workloads write go to
`.perfbench_out/` in the source tree.  See perfbench/README.md.
"""

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {"setup_s": "s", "command_s": "s", "solve_s": "s",
                    "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "report_s": "s",
    "problems.build_s": "s", "mesh.build_s": "s",
    "linsys.setup_s": "s", "linsys.setup_calls": "count",
    "forms.static_s": "s",
    "linsys.assemble_s": "s", "linsys.assemble_calls": "count",
    "forms.convection_s": "s",
    "linsys.factor_s": "s", "linsys.factorizations": "count",
    "linsys.lu_fill_nnz": "count",
    "linsys.solve_s": "s", "linsys.solve_calls": "count",
    "solver.iterations": "count", "solver.self_s": "s",
    "postproc.norms_s": "s", "postproc.norm_calls": "count",
    "postproc.divergence_s": "s", "postproc.divergence_calls": "count",
    "postproc.report_s": "s",
    "postproc.export_s": "s", "postproc.export_bytes": "bytes",
    "trace.command_s": "s",
}
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")


def parse_args(argv, names):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(names))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def probe_setup(spec):
    """Set-up samples: launch to end of set-up of fresh processes."""
    samples = []
    for _ in range(spec["probes"]):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), json.dumps(spec)],
            capture_output=True, text=True, timeout=170, check=True)
        samples.append(float(done.stdout.split()[-1]) - t0)
    return samples


def main(argv=None, workloads=None, outdir=None):
    """Run one workload; returns the exit code.  `workloads` and `outdir`
    replace the built-in workload table and output directory (the smoke
    test runs tiny workloads this way)."""
    if not (SRC / "wgconvect" / "__init__.py").is_file():
        print("error: no wgconvect package under %s; run from the root of "
              "a source tree" % SRC, file=sys.stderr)
        return 2
    # one BLAS thread, fixed before numpy loads; the probes inherit it.
    # SuperLU factors on one thread anyway, and a second BLAS thread only
    # made the solve times spread more when other processes share the cores
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cases
    import spans

    workloads = workloads or cases.WORKLOADS
    args = parse_args(argv, workloads)
    spec = workloads[args.workload]
    outdir = Path(outdir or ROOT / ".perfbench_out")
    work_dir = outdir / args.workload
    work_dir.mkdir(parents=True, exist_ok=True)

    setup_samples = probe_setup(spec)
    tally = cases.Tally()
    rng = random.Random(args.seed)
    tracer = spans.Tracer() if args.trace else None
    restore = spans.install(tracer) if tracer else None
    rounds = []
    try:
        ctx = cases.setup(spec)
        start = time.perf_counter()
        while True:
            if tracer:
                tracer.run = "round-%d" % len(rounds)
            r = cases.run_round(spec, ctx, rng, str(work_dir), tally, tracer)
            if r is None:
                break
            rounds.append(r)
            tally.check(r.digest == rounds[0].digest,
                        "round %d digest %s differs from round 0"
                        % (len(rounds) - 1, r.digest))
            elapsed = time.perf_counter() - start
            if elapsed / len(rounds) * (len(rounds) + 1) > args.seconds:
                break
    finally:
        if restore:
            restore()

    correct = tally.failed == 0 and bool(rounds)
    metrics = {}
    if rounds:
        # the fastest sample: on a shared host the speed alternates
        # between a fast mode and one up to 1.7x slower in phases of
        # seconds, and a median follows the share of slow phases
        # (see README.md)
        command_s = min(r.command_s for r in rounds)
        if tracer:
            values = spans.layer_metrics(tracer.spans)
            values["report_s"] = min(s for r in rounds
                                     for s in r.report_samples)
            values["trace.command_s"] = command_s
            units = PER_LAYER_UNITS
        else:
            values = {
                "setup_s": statistics.median(setup_samples),
                "command_s": command_s,
                "solve_s": min(r.solve_s for r in rounds),
                "peak_rss_mb":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                    / 1024.0,
            }
            units = END_TO_END_UNITS
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in units.items()}

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "blas_threads": 1,
              "rounds": len(rounds),
              "setup_samples": setup_samples,
              "solve_samples": [r.solve_s for r in rounds],
              "report_samples": [s for r in rounds for s in r.report_samples],
              "iterations": [r.iterations for r in rounds],
              "digest": rounds[0].digest if rounds else None,
              "attempted": tally.attempted, "failed": tally.failed,
              "failures": tally.failures, "metrics": metrics}
    with open(outdir / (tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer:
        tracer.write(outdir / (tag + ".spans.jsonl"))

    print("workload %s, seed %d, trace %d: %d round(s), %d set-up probe(s), "
          "1 BLAS thread" % (args.workload, args.seed, args.trace,
                            len(rounds), len(setup_samples)))
    if rounds:
        print("Picard iterations per round: %d" % rounds[0].iterations)
        print("solution digest: %s" % rounds[0].digest)
    print("operations: attempted %d, failed %d"
          % (tally.attempted, tally.failed))
    for what in tally.failures:
        print("FAILED: %s" % what)
    for name, m in metrics.items():
        print("%-26s %.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
