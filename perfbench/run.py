#!/usr/bin/env python3
"""Benchmark for the bosonloop CLI: end-to-end metrics, or a traced per-layer run.

    python3 perfbench/run.py --workload stab_mc --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all

Each workload (see workloads.py) is a fixed pass of CLI calls made from the
seed, run in this process through `bosonloop.cli.main` by a single client
in a closed loop: one warm-up pass, then timed passes until `--seconds`
have passed.  In-process caches fill during the warm-up, so the figures are
steady-state per-call costs; import cost is setup_s.  Every call's output is
checked; a call that raises, exits non-zero or fails its check counts as
failed.

`--trace 0` reports the end-to-end metrics named in BENCHMARK.json:
  wall_s       time of one pass: each CLI call's median over the timed
               passes, summed over the pass's calls
  setup_s      median over fresh interpreters of import bosonloop.cli + load_config
  peak_rss_mb  ru_maxrss of this process, which ran the workload
Both times are scaled to a nominal machine speed (reference.py): between
the calls of every pass the run times a fixed reference kernel for about a
tenth of the calls' time, and scales the pass's call times by the nominal
over the fastest kernel time; each setup interpreter times the kernel itself
after its import.  Raw times and kernel times go to the result file.
`--trace 1` alternates untraced and traced passes and reports the per-layer
metrics (tracer.py): self time per module, per-function times and counts,
kernel sizes computed from argument shapes, and the tracing overhead, with
times scaled the same way as wall_s.

BLAS is pinned to one thread (set before numpy loads) so that figures are
steady on a small shared machine; the run environment is written next to
every result in perfbench/out/ and printed before the final JSON line.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_RUNS = 3
REF_SHARE = 0.1   # reference-kernel time between calls, as a share of call time
# a fresh interpreter times its import and config load, then the reference
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "from bosonloop.cli import load_config\n"
    "load_config(sys.argv[1])\n"
    "elapsed = time.perf_counter() - t0\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from reference import Reference, scale\n"
    "print(repr(elapsed), repr(scale([Reference()()])))\n"
)


def git_commit():
    """HEAD of the checkout, read from .git without running git; None outside git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(args) -> dict:
    import numpy
    import scipy

    from workloads import CLI_THREADS

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "cli_threads": CLI_THREADS,
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_pass(workload, cli, ref) -> tuple:
    """All calls of one pass, with reference-kernel runs between the calls
    taking about REF_SHARE of the calls' time.

    Returns (per-call times, failed calls, reference-kernel times).
    """
    times, refs = [], []
    failed = 0
    for i, argv in enumerate(workload.calls):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:
            code = None
            traceback.print_exc()
        times.append(time.perf_counter() - t0)
        try:
            ok = code == 0 and workload.check(i)
        except (OSError, ValueError, KeyError, IndexError):
            traceback.print_exc()
            ok = False
        if not ok:
            print(f"call {i} failed: exit {code}, argv {argv}", file=sys.stderr)
            failed += 1
        while sum(refs) < REF_SHARE * sum(times):
            refs.append(ref())
    return times, failed, refs


def measure_setup(config) -> list:
    """(raw seconds, scale to nominal) of each fresh-interpreter setup."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    runs = []
    for i in range(SETUP_RUNS + 1):   # the first run warms the file cache
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, config, str(BENCH)],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        if i:
            runs.append(tuple(float(x) for x in proc.stdout.split()))
    return runs


def measure(workload, cli, seconds) -> dict:
    from reference import Reference, scale

    ref = Reference()
    setup = measure_setup(workload.config)
    _, failed, _ = run_pass(workload, cli, ref)   # warm-up, checked but not timed
    passes, raw, refs = [], [], []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        times, bad, pass_refs = run_pass(workload, cli, ref)
        passes.append([t * scale(pass_refs) for t in times])
        raw.append(sum(times))
        refs.append(pass_refs)
        failed += bad
    metrics = {
        # each call's median over passes, summed over the pass
        "wall_s": sum(statistics.median(call) for call in zip(*passes)),
        "setup_s": statistics.median(t * k for t, k in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {"metrics": metrics, "attempted": (len(passes) + 1) * len(workload.calls),
            "failed": failed, "accounting_ok": True, "raw_passes_s": raw,
            "reference_s": refs, "setup_runs": setup}


def measure_traced(workload, cli, seconds, spans_path) -> dict:
    from reference import Reference, scale
    from tracer import Tracer

    tracer = Tracer()
    ref = Reference()
    untraced, traced, summaries = [], [], []
    _, failed, _ = run_pass(workload, cli, ref)   # warm-up, checked but not timed
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        times, bad, refs = run_pass(workload, cli, ref)
        untraced.append(sum(times) * scale(refs))
        since = tracer.start_pass()
        with tracer.patched():
            times, tbad, refs = run_pass(workload, cli, ref)
        summary = tracer.summary(sum(times), since, workload.samples_per_pass)
        k = scale(refs)
        summary["metrics"] = {name: v * k if name.endswith("_s") else v
                              for name, v in summary["metrics"].items()}
        summary["metrics"]["trace.traced_wall_s"] = sum(times) * k
        summaries.append(summary)
        traced.append(sum(times))
        failed += bad + tbad
    metrics = {name: statistics.median(s["metrics"][name] for s in summaries)
               for name in summaries[0]["metrics"]}
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - metrics["trace.untraced_wall_s"]
    tracer.dump(spans_path, {"workload": workload.name,
                             "passes": [s["accounted_s"] for s in summaries]})
    return {"metrics": metrics, "attempted": (2 * len(traced) + 1) * len(workload.calls),
            "failed": failed, "accounting_ok": all(s["accounting_ok"] for s in summaries),
            "raw_passes_s": traced}


def run_workload(args) -> int:
    if not (SRC / "bosonloop" / "cli.py").is_file():
        print(f"no bosonloop sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from bosonloop import cli

    from tracer import COMPUTED
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} "
              "or all", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        workload = WORKLOADS[args.workload](work)
        workload.prepare(args.seed)
        if args.trace:
            result = measure_traced(workload, cli, args.seconds, OUT / f"spans-{tag}.json")
        else:
            result = measure(workload, cli, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
               for m in wanted}
    correct = result["failed"] == 0 and result["accounting_ok"]
    env = environment(args)
    record = {"environment": env, "correct": correct, "computed": list(COMPUTED),
              "fail_frac": result["failed"] / result["attempted"],
              **{k: v for k, v in result.items() if k != "metrics"},
              "metrics": metrics}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    for name, m in metrics.items():
        label = " (computed)" if name in COMPUTED else ""
        print(f"{args.workload:14s} {name:32s} {m['value']!r} {m['unit']}{label}")
    print(f"{args.workload:14s} {'fail_frac':32s} {record['fail_frac']!r} "
          f"({result['failed']} of {result['attempted']} calls)")
    print(json.dumps({"environment": env}))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process, one after another."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
