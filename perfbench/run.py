"""Benchmark of the ptliouville library: one workload per run, closed loop.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {certify,verify,scan} --seed N \
        --seconds S --trace {0,1}

The run builds its inputs from the seed, sets up (imports, input generation,
a warm-up on small inputs), then runs items one at a time, in whole rounds,
for about S seconds, checking every output.  With --trace 0 it reports the
end-to-end metrics; with --trace 1 it wraps the library's layer calls and
reports per-layer metrics instead.  Human-readable lines come first; the
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The full result, with the machine description and, when
traced, every span, is written under .perfbench_out/ in the checkout.
"""

import os
import sys
import time

SETUP_START = time.perf_counter()

# Pin the BLAS thread count before numpy is imported.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# Set-up is timed this many times per run (this process plus fresh
# interpreters) and reported as the median.
SETUP_SAMPLES = 5
SETUP_CHILD_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_s": "s",
    "item_tail_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("certify", "verify", "scan"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up seconds and exit (used for the set-up samples)")
    args = parser.parse_args()
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def import_library():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "ptliouville" / "__init__.py").is_file():
        raise ImportError(f"no ptliouville package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import ptliouville
    import workloads

    if Path(ptliouville.__file__).resolve().parent != SRC / "ptliouville":
        raise ImportError(f"ptliouville resolved to {ptliouville.__file__}, not under {SRC}")
    return workloads


def set_up(workloads, name: str, seed: int):
    """Generate the inputs and warm up on small ones; returns (workload, rounds, warm-up failures)."""
    workload = workloads.WORKLOADS[name]
    rounds = workload.make_rounds(seed)
    failures = []
    for inp in workload.warmup_round(seed):
        failures += workload.check(inp, workload.run_item(inp))
    return workload, rounds, failures


def setup_samples(args, first: float) -> list:
    samples = [first]
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "1", "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_CHILD_TIMEOUT_S, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def run_timed(workload, rounds, seconds: float, tracer=None):
    """Closed loop over whole rounds until the next round would end past `seconds`.

    Returns the item times, the timed wall time, the failures as
    (item id, message) pairs and the throughput of each round.
    """
    times, failures, round_rates = [], [], []
    start = time.perf_counter()
    done = 0
    while True:
        round_start = time.perf_counter()
        for inp in rounds[done % len(rounds)]:
            item_id = len(times)
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = workload.run_item(inp)
                else:
                    with tracer.item(item_id):
                        out = workload.run_item(inp)
                times.append(time.perf_counter() - t0)
                problems = workload.check(inp, out)
            except Exception:  # an item that raises counts as failed; keep measuring
                times.append(time.perf_counter() - t0)
                problems = [traceback.format_exc()]
            failures += [(item_id, p) for p in problems]
        done += 1
        now = time.perf_counter()
        round_rates.append(len(rounds[(done - 1) % len(rounds)]) / (now - round_start))
        elapsed = now - start
        if elapsed + elapsed / done > seconds:
            return times, elapsed, failures, round_rates


def tail(times: list) -> tuple:
    """Value at the highest percentile with at least ten items beyond it.

    With ten items or fewer no percentile qualifies; the slowest item is
    reported and the summary line says so.
    """
    ordered = sorted(times)
    if len(ordered) <= 10:
        return ordered[-1], 100.0, 0
    rank = len(ordered) - 11
    return ordered[rank], 100.0 * (rank + 1) / len(ordered), 10


def git_commit():
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


def machine() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip()
                       for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "ptliouville").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": NPROC,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def main() -> int:
    args = parse_args()
    try:
        workloads = import_library()
    except ImportError as exc:
        print(f"error: cannot import the library: {exc}", file=sys.stderr)
        return 2
    workload, rounds, warmup_failures = set_up(workloads, args.workload, args.seed)
    setup_first = time.perf_counter() - SETUP_START
    if args.setup_only:
        print(repr(setup_first))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        with tracer.installed(workloads):
            times, elapsed, failures, round_rates = run_timed(workload, rounds, args.seconds, tracer)
    else:
        times, elapsed, failures, round_rates = run_timed(workload, rounds, args.seconds)
    failures = [("warm-up", p) for p in warmup_failures] + failures
    for where, problem in failures:
        print(f"FAILED item {where}: {problem}", file=sys.stderr)

    attempted = len(times)
    failed = len({where for where, _ in failures if where != "warm-up"})
    notes = {"items": attempted, "rounds_items": len(rounds[0]), "timed_s": elapsed,
             "failed_frac": failed / attempted, "items_per_s_overall": attempted / elapsed,
             "round_items_per_s": round_rates}
    if args.trace:
        values = tracing.layer_metrics(tracer.spans, len(rounds[0]))
        units = tracing.UNITS
    else:
        tail_value, tail_pct, beyond = tail(times)
        samples = setup_samples(args, setup_first)
        values = {
            "setup_s": statistics.median(samples),
            "items_per_s": statistics.median(round_rates),
            "item_p50_s": statistics.median(times),
            "item_tail_s": tail_value,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
        notes.update(setup_samples_s=samples, tail_percentile=tail_pct, items_beyond_tail=beyond)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    info = machine()
    print(f"machine: {json.dumps(info)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} items in {elapsed:.3f} s, {failed} failed (failed_frac {failed / attempted:g})")
    if args.trace:
        in_items = sum(times)
        print(f"traced wall {elapsed:.3f} s: {in_items:.3f} s in items (layer self times plus "
              f"perfbench.unattributed_s), {elapsed - in_items:.3f} s checking outputs between items")
    else:
        print(f"item_tail_s is p{notes['tail_percentile']:.2f} of {attempted} items "
              f"({notes['items_beyond_tail']} beyond it)")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")

    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": info, "notes": notes, "metrics": metrics,
              "item_times_s": times, "failures": failures}
    if tracer is not None:
        record["spans"] = [
            {"name": s.name, "parent": s.parent, "item": s.item, "start": s.start,
             "end": s.end, **s.attrs} for s in tracer.spans
        ]
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record))

    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
