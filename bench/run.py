"""povmquad benchmark: one closed-loop client calling the CLI in-process.

Usage:
  python3 bench/run.py --workload {construct,certify,simulate} --seed N
                       --seconds S --trace {0,1} [--smoke]

Run from anywhere inside a checkout of the repository; povmquad is imported
from the checkout's ``src/``. Each request goes through
``povmquad.cli.main(argv)`` with stdout and stderr captured, one request at
a time, and every output is checked. The last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0``
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
traced replay of a fixed request set. Details, workloads and the
metric-to-workload map: bench/README.md.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("construct", "certify", "simulate")
# One client in one process: a single BLAS thread keeps runs steady on a
# small shared host (must be <= nproc).
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
TAIL_BEYOND = 10  # op_tail_s: highest percentile with this many samples beyond


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, one set-up: checks the harness, measures nothing")
    return p.parse_args(argv)


def unit(name: str) -> str:
    if name.startswith("ops_per_s") or name.endswith("ops_per_s_delta"):
        return "1/s"
    if name == "peak_rss_mb":
        return "MB"
    for suffix, u in (("_s", "s"), ("_bytes", "B"), ("_frac", "frac")):
        if name.endswith(suffix):
            return u
    return "count"


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "host": platform.node(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "git_sha": git_sha(),
        "seed": seed,
    }


def set_up(args, work: Path) -> list[float]:
    """Generate the inputs in fresh processes; return each one's wall time."""
    cmd = [sys.executable, str(BENCH / "setup_inputs.py"), args.workload,
           str(args.seed), str(work)] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
        # A blocking wait: Popen.wait(timeout) polls in steps of up to 50 ms,
        # which would quantize the measured time.
        killer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
            if proc.poll() is None:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
        times.append(perf_counter() - t0)
        if code != 0:
            raise subprocess.CalledProcessError(code, cmd)
    return times


def execute(cli, workloads, req, tracer=None):
    """Run one request; return (latency of its CLI calls, failure or None)."""
    latency = 0.0
    for argv, check in req["steps"]:
        out = io.StringIO()
        t0 = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                if tracer is None:
                    code = cli.main(argv)
                else:
                    code = tracer.call("cli", cli.main, argv)
        except Exception as exc:  # the defect being measured: record, go on
            latency += perf_counter() - t0
            return latency, f"{argv[0]}: uncaught {type(exc).__name__}: {exc}"
        latency += perf_counter() - t0
        error = workloads.check_step(check, code, out.getvalue())
        if error is not None:
            return latency, f"{argv[0]}: {error}"
    return latency, None


def run_requests(cli, workloads, reqs, results, tracer=None):
    """Send requests one after another; append (label, latency, failure or None)."""
    for req in reqs:
        if tracer is not None:
            tracer.begin_request(len(results))
        latency, error = execute(cli, workloads, req, tracer)
        results.append((req["label"], latency, error))


def split_checks(results):
    """(well-formed results, malformed-input results).

    The malformed inputs probe the known defects: a failure there is the
    defect being measured, reported as malformed_ok_frac, not a failed
    operation of the workload.
    """
    good = [r for r in results if not r[0].startswith("malformed")]
    bad = [r for r in results if r[0].startswith("malformed")]
    return good, bad


def summarize(elapsed, results):
    lat = sorted(r[1] for r in results)
    n = len(lat)
    k = max(0, n - 1 - TAIL_BEYOND)
    return {
        "ops_per_s": n / elapsed,
        "op_p50_s": statistics.median(lat),
        "op_tail_s": lat[k],
        "tail_percentile": 100.0 * (k + 1) / n,
        "samples": n,
    }


def by_label(results):
    groups = {}
    for label, latency, _ in results:
        groups.setdefault(label, []).append(latency)
    return {
        label: {"count": len(v), "median_s": statistics.median(v), "total_s": sum(v)}
        for label, v in sorted(groups.items())
    }


def run_end_to_end(args, cli, workloads, round_of, setup_times):
    """Warm-up round 0 untimed, then whole rounds 1, 2, ... for --seconds.

    Round 0 holds the once-per-run requests (large sizes, malformed
    inputs) and one ordinary round. Only whole rounds are timed, so every
    run measures the same blocks of request shapes.
    """
    warm = []
    run_requests(cli, workloads, round_of(0), warm)
    timed = []
    rounds = 0
    start = perf_counter()
    while perf_counter() - start < args.seconds:
        rounds += 1
        run_requests(cli, workloads, round_of(rounds), timed)
    elapsed = perf_counter() - start
    s = summarize(elapsed, timed)
    good, bad = split_checks(warm + timed)
    bad_failed = sum(1 for r in bad if r[2] is not None)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": s["ops_per_s"],
        "op_p50_s": s["op_p50_s"],
        "op_tail_s": s["op_tail_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "malformed_ok_frac": 1.0 - bad_failed / len(bad),
    }
    print(f"timed {rounds} rounds, {s['samples']} requests in {elapsed:.3f} s")
    print(f"op_tail_s is p{s['tail_percentile']:.1f} of {s['samples']} samples "
          f"({min(TAIL_BEYOND, s['samples'] - 1)} beyond)")
    print(f"malformed inputs: {bad_failed} of {len(bad)} fail (known defects)")
    info = {
        "setup_times_s": setup_times,
        "timed_rounds": rounds,
        "elapsed_s": elapsed,
        "samples": s["samples"],
        "tail_percentile": s["tail_percentile"],
        "malformed_failed": bad_failed,
        "malformed": len(bad),
        "warmup_by_label": by_label(warm),
        "by_label": by_label(timed),
        "timed_latencies_s": [[label, latency] for label, latency, _ in timed],
    }
    return good, bad, metrics, info


def run_traced(args, cli, workloads, round_of, spans):
    """Replay one fixed request set untraced, then traced.

    A fixed set makes the counts repeat exactly for a seed; the difference
    in ops_per_s between the two passes is the tracing overhead.
    """
    rounds = 1 if args.smoke else workloads.TRACE_ROUNDS[args.workload]
    fixed = [req for r in range(rounds) for req in round_of(r)]
    plain = []
    t0 = perf_counter()
    run_requests(cli, workloads, fixed, plain)
    plain_ops = len(fixed) / (perf_counter() - t0)
    tracer = spans.Tracer()
    tracer.install()
    results = []
    try:
        t0 = perf_counter()
        run_requests(cli, workloads, fixed, results, tracer)
        traced_ops = len(fixed) / (perf_counter() - t0)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["cli.requests"] = len(results)
    # Every failed check, the known defects on malformed inputs included.
    metrics["cli.failed"] = sum(1 for r in results if r[2] is not None)
    metrics["trace.ops_per_s_delta"] = traced_ops - plain_ops
    tracer.dump(OUT / f"spans-{run_name(args)}.jsonl")
    labels = [r[0] for r in results]
    label_times = tracer.self_times_by(lambda i: labels[i])
    info = {
        "untraced_ops_per_s": plain_ops,
        "traced_ops_per_s": traced_ops,
        "missing_wraps": tracer.missing,
        "self_s_by_label": {
            label: dict(times.most_common()) for label, times in sorted(label_times.items())
        },
    }
    print(f"tracing overhead: {traced_ops:.4g} traced vs {plain_ops:.4g} untraced ops/s")
    for label, times in sorted(label_times.items()):
        top = ", ".join(f"{k} {v:.3g}" for k, v in times.most_common(3))
        print(f"self time [{label}]: {top}")
    if tracer.missing:
        print("not traced (absent): " + ", ".join(tracer.missing))
    good, bad = split_checks(plain + results)
    return good, bad, metrics, info


def run_name(args) -> str:
    smoke = "-smoke" if args.smoke else ""
    return f"{args.workload}-s{args.seed}-t{args.trace}{smoke}"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "povmquad" / "cli.py").is_file():
        print(f"run.py: no povmquad sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(SRC), str(BENCH)]

    work = OUT / f"work-{run_name(args)}"
    OUT.mkdir(exist_ok=True)
    try:
        setup_times = set_up(args, work)
    except subprocess.CalledProcessError as exc:
        print(f"run.py: set-up failed: {exc}", file=sys.stderr)
        return 1

    import povmquad.cli as cli
    import spans
    import workloads

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"run.py: povmquad imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    manifest = json.loads((work / "manifest.json").read_text())
    env = environment(args.seed)
    print("env " + json.dumps(env))

    def round_of(r):
        return workloads.round_requests(args.workload, args.seed, work, manifest, r)

    if args.trace == 0:
        good, bad, metrics, info = run_end_to_end(args, cli, workloads, round_of, setup_times)
    else:
        good, bad, metrics, info = run_traced(args, cli, workloads, round_of, spans)
    shutil.rmtree(work, ignore_errors=True)

    for label, _, error in bad:
        if error is not None:
            print(f"known defect [{label}]: {error}")
    failed = [(label, error) for label, _, error in good if error is not None]
    for label, error in failed:
        print(f"failed [{label}]: {error}")
    record = {"env": env, "args": vars(args), "metrics": metrics, **info}
    (OUT / f"result-{run_name(args)}.json").write_text(json.dumps(record, indent=1) + "\n")
    line = {
        # Operations are the well-formed requests, each checked; the
        # malformed-input probes are reported by malformed_ok_frac.
        "correct": not failed,
        "attempted": len(good),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
