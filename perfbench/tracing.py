"""Spans around the public entry points of each primefrob module, and the
per-layer metrics computed from them.

``Tracer.install`` runs inside a forked job process only.  It replaces each
target with a wrapper wherever callers look it up: on the class for methods,
and on every primefrob module that holds the function under some name.  Pool
workers forked from the job inherit the wrappers.  Spans stay in memory and
each process writes its own span file when it exits.  Private helpers are
not wrapped; their time sits in the self time of their public caller.
"""

from __future__ import annotations

import functools
import glob
import marshal
import os
import sys
from collections import defaultdict
from time import perf_counter


def _rounds(args, result):
    # tail_frobenius starts from B = 4 p_n + 2n and doubles B per retry
    start = 4 * result.p_n + 2 * result.n
    return (result.truncation // start).bit_length()


# (module, attribute path, span name, attribute recorded on the span)
TARGETS = (
    ("primes", "PrimeTable.__init__", "primes.sieve", lambda a, r: a[0].limit + 1),
    ("semigroup", "IncrementalApery.add", "semigroup.fold", lambda a, r: a[0].multiplicity),
    ("semigroup", "IncrementalApery.frobenius", "semigroup.frobenius_read", None),
    ("semigroup", "IncrementalApery.profile", "semigroup.profile", None),
    ("semigroup", "apery_set", "semigroup.apery", None),
    ("semigroup", "atoms", "semigroup.atoms", None),
    ("intervals", "ratio_scan", "intervals.scan", lambda a, r: len(r)),
    ("intervals", "build_interval_semigroup", "intervals.build", None),
    ("wilf", "sp_row", "wilf.sp_row", None),
    ("wilf", "density", "wilf.density", None),
    ("goldbach", "tail_frobenius", "goldbach.tail", _rounds),
    ("goldbach", "ternary_decomp", "goldbach.decomp", None),
    ("goldbach", "decompose_m", "goldbach.decomp", None),
    ("goldbach", "DecompCertificate.validate", "goldbach.validate", None),
    ("cli", "main", "cli.main", None),
)


class Tracer:
    """Span recorder for one job process and the pool workers it forks.

    A span is [name, pid, id, parent pid, parent id, start, end, run id,
    attribute].  Ids are per process, so (pid, id) names a span uniquely.
    """

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.pid = os.getpid()
        self.next_id = 0
        self.stack: list[tuple[int, int]] = []
        self.spans: list[list] = []
        self.missing: list[str] = []

    def after_fork(self) -> None:
        """In a pool worker: keep the open stack, so the worker's top spans
        point at the job span that forked it, and drop the job's spans."""
        self.pid = os.getpid()
        self.spans = []

    def wrap(self, name: str, fn, attr):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.next_id += 1
            sid = (self.pid, self.next_id)
            parent = self.stack[-1] if self.stack else (None, None)
            self.stack.append(sid)
            t0 = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                self.stack.pop()
                try:
                    value = attr(args, result) if attr else None
                except (AttributeError, TypeError, IndexError):
                    value = None
                self.spans.append([name, *sid, *parent, t0, t1, self.run_id, value])

        return traced

    def install(self) -> None:
        modules = {k[len("primefrob."):]: m for k, m in list(sys.modules.items())
                   if k.startswith("primefrob.") and m is not None}
        for mod_name, path, span, attr in TARGETS:
            owner = modules.get(mod_name)
            *cls_path, fn_name = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, fn_name, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{path}")
                continue
            traced = self.wrap(span, fn, attr)
            if cls_path:
                setattr(owner, fn_name, traced)
                continue
            for module in modules.values():
                for name, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, name, traced)


# Per-layer metrics: name -> unit.  Values are per job (per request for the
# requests workload) unless the name is a ratio or a rate.
LAYER_UNITS = {
    "semigroup.fold_s": "s",
    "semigroup.folds": "count",
    "semigroup.fold_cells": "count",
    "semigroup.cells_per_s": "cells/s",
    "semigroup.apery_s": "s",
    "semigroup.apery_calls": "count",
    "semigroup.frobenius_reads": "count",
    "semigroup.frobenius_read_s": "s",
    "semigroup.atoms_s": "s",
    "intervals.scan_self_s": "s",
    "intervals.grid_points": "count",
    "intervals.build_self_s": "s",
    "intervals.builds": "count",
    "wilf.sp_self_s": "s",
    "wilf.rows": "count",
    "wilf.density_s": "s",
    "goldbach.tail_self_s": "s",
    "goldbach.tail_calls": "count",
    "goldbach.tail_rounds_per_call": "rounds",
    "goldbach.folds_per_tail": "folds",
    "goldbach.decomp_s": "s",
    "goldbach.validate_s": "s",
    "goldbach.certs": "count",
    "pool.busy_ratio": "ratio",
    "primes.sieve_s": "s",
    "primes.sieve_builds": "count",
    "primes.sieve_entries": "count",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


def _covered(lo: float, hi: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def job_sums(directory: str, job_pid: int, wall_s: float, workers: int) -> dict[str, float]:
    """Sums over the span files one traced job left in ``directory``, keyed
    ``<kind>:<span name>`` (kinds: count, incl, self, attr) plus a few
    cross-span figures.  Self time is the span's duration minus the part of
    it covered by its children, pool workers' spans included."""
    spans = []
    for path in glob.glob(os.path.join(directory, "spans-*.marshal")):
        with open(path, "rb") as fh:
            spans.extend(marshal.load(fh))
    names = {(s[1], s[2]): s[0] for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[(s[3], s[4])].append((s[5], s[6]))
    sums = defaultdict(float)
    busy = 0.0
    for name, pid, sid, ppid, psid, t0, t1, _run, attr in spans:
        sums["count:" + name] += 1
        sums["incl:" + name] += t1 - t0
        sums["self:" + name] += t1 - t0 - _covered(t0, t1, children[(pid, sid)])
        if attr is not None:
            sums["attr:" + name] += attr
        parent = names.get((ppid, psid))
        if name == "semigroup.fold" and parent == "goldbach.tail":
            sums["folds_in_tail"] += 1
        if name == "goldbach.decomp" and parent != "goldbach.decomp":
            sums["outer_decomps"] += 1
            sums["outer_decomp_s"] += t1 - t0
        if pid != job_pid and ppid != pid:
            busy += t1 - t0  # a top span of a pool worker
    if busy:
        sums["worker_busy"] += busy
        sums["worker_capacity"] += workers * wall_s
    return dict(sums)


class LayerTotals:
    """Sums over the traced jobs of one run."""

    def __init__(self):
        self.jobs = 0
        self.sums = defaultdict(float)

    def add(self, sums: dict[str, float], output_bytes: int) -> None:
        self.jobs += 1
        self.sums["output_bytes"] += output_bytes
        for key, value in sums.items():
            self.sums[key] += value

    def self_time_table(self) -> list[str]:
        spans = sorted((k[len("count:"):] for k in self.sums if k.startswith("count:")),
                       key=lambda n: -self.sums["self:" + n])
        lines = [f"  {'span':<26}{'calls/job':>12}{'incl s/job':>13}{'self s/job':>13}"]
        for name in spans:
            count, incl, own = (self.sums[f"{k}:{name}"] / self.jobs for k in ("count", "incl", "self"))
            lines.append(f"  {name:<26}{count:>12.1f}{incl:>13.6f}{own:>13.6f}")
        return lines

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        s = self.sums
        per_job = 1.0 / max(self.jobs, 1)

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        return {
            "semigroup.fold_s": s["incl:semigroup.fold"] * per_job,
            "semigroup.folds": s["count:semigroup.fold"] * per_job,
            "semigroup.fold_cells": s["attr:semigroup.fold"] * per_job,
            "semigroup.cells_per_s": ratio(s["attr:semigroup.fold"], s["incl:semigroup.fold"]),
            "semigroup.apery_s": s["incl:semigroup.apery"] * per_job,
            "semigroup.apery_calls": s["count:semigroup.apery"] * per_job,
            "semigroup.frobenius_reads": s["count:semigroup.frobenius_read"] * per_job,
            "semigroup.frobenius_read_s": s["incl:semigroup.frobenius_read"] * per_job,
            "semigroup.atoms_s": s["incl:semigroup.atoms"] * per_job,
            "intervals.scan_self_s": s["self:intervals.scan"] * per_job,
            "intervals.grid_points": s["attr:intervals.scan"] * per_job,
            "intervals.build_self_s": s["self:intervals.build"] * per_job,
            "intervals.builds": s["count:intervals.build"] * per_job,
            "wilf.sp_self_s": s["self:wilf.sp_row"] * per_job,
            "wilf.rows": s["count:wilf.sp_row"] * per_job,
            "wilf.density_s": s["incl:wilf.density"] * per_job,
            "goldbach.tail_self_s": s["self:goldbach.tail"] * per_job,
            "goldbach.tail_calls": s["count:goldbach.tail"] * per_job,
            "goldbach.tail_rounds_per_call": ratio(s["attr:goldbach.tail"], s["count:goldbach.tail"]),
            "goldbach.folds_per_tail": ratio(s["folds_in_tail"], s["count:goldbach.tail"]),
            "goldbach.decomp_s": s["outer_decomp_s"] * per_job,
            "goldbach.validate_s": s["incl:goldbach.validate"] * per_job,
            "goldbach.certs": s["outer_decomps"] * per_job,
            "pool.busy_ratio": ratio(s["worker_busy"], s["worker_capacity"]),
            "primes.sieve_s": s["incl:primes.sieve"] * per_job,
            "primes.sieve_builds": s["count:primes.sieve"] * per_job,
            "primes.sieve_entries": s["attr:primes.sieve"] * per_job,
            "cli.self_s": s["self:cli.main"] * per_job,
            "cli.output_bytes": s["output_bytes"] * per_job,
            "trace.overhead_ratio": overhead_ratio,
        }
