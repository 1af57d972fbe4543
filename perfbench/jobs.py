"""Run one CLI invocation in a process forked from the benchmark.

The benchmark process has imported ``primefrob.cli`` once; every job is a
fork of it that calls ``primefrob.cli.main(argv)`` with stdout and stderr
sent to files, then exits with main's return value.  So no state survives
from one job to the next, as between shell commands, and the interpreter
start-up the shell would pay is measured apart, as ``setup_s``.

Each process of a job writes its peak RSS, and when traced its spans, to
files when it exits.  The job process writes after ``main`` returns; a pool
worker forked by multiprocessing writes from a multiprocessing finalizer,
which runs when the worker leaves its loop.
"""

from __future__ import annotations

import glob
import json
import marshal
import multiprocessing.util
import os
import resource
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

from tracing import Tracer

KIB_PER_MIB = 1024


@dataclass
class JobResult:
    code: int
    wall_s: float
    rss_mib: float  # job process peak plus each pool worker's peak
    stdout: str
    files: dict[str, str]
    pid: int
    missing: list[str] = field(default_factory=list)  # trace targets absent from the program


class _ProcessReport:
    """Writes ``rss-<pid>.json`` and, when traced, ``spans-<pid>.marshal``
    (marshal, several times faster to write than JSON, and read back only
    by the benchmark itself)."""

    def __init__(self, directory: str, tracer: Tracer | None):
        self.directory = directory
        self.tracer = tracer

    def write(self) -> None:
        pid = os.getpid()
        record = {"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
        if self.tracer is not None:
            record["missing"] = self.tracer.missing
            with open(os.path.join(self.directory, f"spans-{pid}.marshal"), "wb") as fh:
                marshal.dump(self.tracer.spans, fh)
        with open(os.path.join(self.directory, f"rss-{pid}.json"), "w") as fh:
            json.dump(record, fh)


def _worker_started(report: _ProcessReport) -> None:
    if report.tracer is not None:
        report.tracer.after_fork()
    multiprocessing.util.Finalize(None, report.write, exitpriority=0)


def _child(argv, directory: str, traced: bool, run_id: int) -> None:
    code = 70
    try:
        for fd, name in ((1, "stdout"), (2, "stderr")):
            out = os.open(os.path.join(directory, name), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            os.dup2(out, fd)
            os.close(out)
        sys.stdout = open(1, "w", closefd=False)
        sys.stderr = open(2, "w", closefd=False)
        from primefrob import cli

        tracer = Tracer(run_id) if traced else None
        report = _ProcessReport(directory, tracer)
        multiprocessing.util.register_after_fork(report, _worker_started)
        if tracer is not None:
            tracer.install()
        code = cli.main(list(argv)) or 0
        sys.stdout.flush()
        report.write()
    except BaseException:
        traceback.print_exc()
        code = 70
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)


def run_job(argv, directory: str, files=(), traced: bool = False, run_id: int = 0) -> JobResult:
    """Fork, run the CLI on ``argv`` in the child and wait for it."""
    reports = [p for pattern in ("rss-*.json", "spans-*.marshal")
               for p in glob.glob(os.path.join(directory, pattern))]
    for stale in reports + list(files):
        if os.path.exists(stale):
            os.unlink(stale)
    sys.stdout.flush()
    sys.stderr.flush()
    t0 = perf_counter()
    pid = os.fork()
    if pid == 0:
        _child(argv, directory, traced, run_id)
    _, status, usage = os.wait4(pid, 0)
    wall = perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)

    job_kb, worker_kb, missing = 0, 0, []
    for path in glob.glob(os.path.join(directory, "rss-*.json")):
        with open(path) as fh:
            record = json.load(fh)
        if path.endswith(f"rss-{pid}.json"):
            job_kb = record["maxrss_kb"]
            missing = record.get("missing", [])
        else:
            worker_kb += record["maxrss_kb"]
    # Without worker reports (no pool, or one that does not fork from the
    # job) the kernel's figure, the largest peak in the job's tree, is used.
    rss_kb = job_kb + worker_kb if worker_kb else usage.ru_maxrss

    outputs = {}
    for path in files:
        if os.path.exists(path):
            with open(path) as fh:
                outputs[path] = fh.read()
    with open(os.path.join(directory, "stdout")) as fh:
        stdout = fh.read()
    return JobResult(code, wall, rss_kb / KIB_PER_MIB, stdout, outputs, pid, missing)


def in_fork(result_path: str, fn, *args):
    """``fn(*args)`` computed in a forked process and passed back as JSON.

    Every job forks from the benchmark process, so whatever it allocates
    would show in each later job's peak RSS; work on large data, such as a
    job's span files, runs here instead.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            with open(result_path, "w") as fh:
                json.dump(fn(*args), fh)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"{fn.__name__} failed in its forked process")
    with open(result_path) as fh:
        return json.load(fh)
