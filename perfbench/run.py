"""Benchmark of the primefrob CLI: four workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from its
``src/``.  With ``--trace 0`` every job runs untraced and the end-to-end
metrics are reported.  With ``--trace 1`` traced and untraced jobs
alternate: the traced ones give the per-layer metrics, and the untraced ones
the end-to-end figures printed beside them and ``trace.overhead_ratio``.
Every output is checked; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--smoke`` shrinks
the batch inputs for the benchmark's own test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from jobs import in_fork, run_job
from tracing import LAYER_UNITS, LayerTotals, job_sums
from workloads import DEFAULT_SEED, WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
ENV_PINNED = ("PRIMEFROB_SIEVE_LIMIT", "PRIMEFROB_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "items/s",
    "item_ms_p50": "ms",
    "item_ms_p90": "ms",
    "peak_rss_mib": "MiB",
}


def measure_setup(samples: int) -> list[float]:
    """Wall time of fresh interpreters that import primefrob.cli and exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    times = []
    for _ in range(samples):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import primefrob.cli"], env=env, check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return times


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


class Outputs:
    """Distinct outputs of a run with how often each occurred; checked once
    each after the timed loop, so checking costs no time between jobs."""

    def __init__(self):
        self.seen: dict[str, list] = {}

    def add(self, job, result) -> None:
        digest = hashlib.sha256()
        for part in (repr(job.argv), str(result.code), result.stdout, *sorted(result.files.items())):
            digest.update(repr(part).encode())
        entry = self.seen.setdefault(digest.hexdigest(), [job, result.code, result.stdout, result.files, 0])
        entry[4] += 1

    def check(self, workload) -> tuple[int, int]:
        attempted = failed = 0
        for job, code, stdout, files, count in self.seen.values():
            ok = workload.check(job, code, stdout, files)
            attempted += count * job.items
            failed += count * (job.items - ok)
        return attempted, failed


def end_to_end(workload, setup: list[float], jobs: list) -> tuple[dict, dict]:
    """Metric values and the sample counts behind them."""
    walls = [r.wall_s for _, r in jobs]
    per_item_ms = [1000 * r.wall_s / job.items for job, r in jobs]
    if workload.name == "requests":
        # the closed loop's throughput: requests over the time spent in them
        items_per_s = sum(job.items for job, _ in jobs) / sum(walls)
    else:
        items_per_s = statistics.median(job.items / r.wall_s for job, r in jobs)
    values = {
        "setup_s": statistics.median(setup),
        "items_per_s": items_per_s,
        "item_ms_p50": statistics.median(per_item_ms),
        "item_ms_p90": p90(per_item_ms),
        "peak_rss_mib": statistics.median(r.rss_mib for _, r in jobs),
    }
    samples = {name: len(jobs) for name in values}
    samples["setup_s"] = len(setup)
    return values, samples


def machine_record() -> str:
    import numpy

    lines = sum(len(p.read_text().splitlines()) for p in (SRC / "primefrob").glob("*.py"))
    return (f"machine: nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
            f"arch={platform.machine()} python={platform.python_version()} "
            f"numpy={numpy.__version__} src_primefrob_lines={lines}")


def run(args) -> dict:
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return _run(args, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def _run(args, workdir: str) -> dict:
    setup = measure_setup(2 if args.smoke else 7)
    sys.path.insert(0, str(SRC))
    import primefrob.cli  # noqa: F401  (imported once, inherited by every job)

    workload = WORKLOADS[args.workload](args.seed, args.smoke, workdir)
    inputs = "smoke" if args.smoke else "paper" if args.seed == DEFAULT_SEED else "band"
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} inputs={inputs}")
    print(machine_record())

    outputs, untraced, traced_walls, layers, missing = Outputs(), [], [], LayerTotals(), set()
    start = perf_counter()
    i = 0
    # traced and untraced rounds alternate; a round is one job, or one deck
    # of requests so that both see the same mix
    while i < (1 + args.trace) * workload.round or perf_counter() - start < args.seconds:
        job = workload.next_job(i)
        if i == 0:
            print(f"first job: primefrob {' '.join(job.argv)} ({job.items} items)")
        traced = bool(args.trace) and (i // workload.round) % 2 == 1
        result = run_job(job.argv, workdir, job.files, traced=traced, run_id=i)
        outputs.add(job, result)
        if traced:
            traced_walls.append(result.wall_s)
            size = len(result.stdout.encode()) + sum(len(t.encode()) for t in result.files.values())
            sums = in_fork(os.path.join(workdir, "sums.json"), job_sums,
                           workdir, result.pid, result.wall_s, workload.workers)
            layers.add(sums, size)
            missing.update(result.missing)
        else:
            result.files = None  # keep the benchmark process small
            untraced.append((job, result))
        i += 1

    attempted, failed = outputs.check(workload)
    values, samples = end_to_end(workload, setup, untraced)
    for name, value in values.items():
        print(f"{name:<16}{value:>16.6f} {END_TO_END_UNITS[name]:<8} from {samples[name]} samples")
    print(f"{'fail_ratio':<16}{failed / attempted:>16.6f} {'ratio':<8} {failed} of {attempted} items")

    metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    if args.trace:
        overhead = statistics.median(traced_walls) / statistics.median(r.wall_s for _, r in untraced) - 1
        print(f"traced jobs: {layers.jobs}; self time per span from the span files:")
        print("\n".join(layers.self_time_table()))
        if missing:
            print(f"not wrapped (absent in this version): {', '.join(sorted(missing))}")
        metrics = {name: {"value": v, "unit": LAYER_UNITS[name]}
                   for name, v in layers.metrics(overhead).items()}
        for name, m in metrics.items():
            print(f"{name:<30}{m['value']:>18.6f} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's test")
    args = parser.parse_args(argv)
    if not (SRC / "primefrob" / "cli.py").is_file():
        print(f"perfbench: no primefrob sources under {SRC}", file=sys.stderr)
        return 2
    for name in ENV_PINNED:
        os.environ.pop(name, None)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
