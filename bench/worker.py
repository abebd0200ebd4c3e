"""One benchmark worker: set up one workload, then run timed passes over it.

bench/run.py starts a fresh worker per workload, so that peak memory and
anything a RecursionError leaves behind stay with that workload.  The
worker is a closed loop with one client: it runs the jobs one after
another, with no threads.  It writes its result, spans included, as JSON.

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1 \
        --src SRC --workdir DIR --result FILE [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time

import workloads
from tracing import Tracer
from workloads import Deadline, Outcome

# Address-space cap, so that a runaway job fails on its own instead of
# taking memory from the rest of the machine.
MEMORY_LIMIT = 3 * 1024 ** 3


def _alarm(signum, frame):
    raise Deadline()


def run_job(job, deadline_s: float, tracer: Tracer | None, phase: str) -> dict:
    """Run one job under its deadline; every failure becomes a status."""
    if tracer is not None:
        tracer.begin_job(phase, job.id)
    error = None
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline_s)
        try:
            outcome = job.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Deadline:
        outcome = Outcome("deadline")
    except RecursionError:
        outcome = Outcome("recursion")
    except (Exception, SystemExit) as exc:  # a job must not end the pass
        outcome = Outcome("error")
        error = repr(exc)[:200]
    end = time.perf_counter()
    if tracer is not None:
        tracer.end_job()
    row = {"id": job.id, "status": outcome.status, "start": start, "end": end,
           "latency_s": end - start,
           "fingerprint": outcome.fingerprint, "stdout_digest": outcome.stdout_digest}
    if error is not None:
        row["error"] = error
    return row


def run_pass(wl, tracer: Tracer | None, index: int) -> dict:
    phase = f"pass{index}"
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        jobs = [run_job(job, wl.deadline_s, tracer, phase) for job in wl.jobs]
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"phase": phase, "traced": tracer is not None, "wall_s": wall, "jobs": jobs}


def run_passes(wl, seconds: float, tracer: Tracer | None) -> tuple[list[dict], float]:
    """Rounds of passes (untraced, then traced when tracing) until the next
    round would end after `seconds`; always at least one round.

    Also returns the peak RSS in MB after set-up and the first pass.  Later
    passes repeat the same work; the allocator's high-water mark still creeps
    up over them, and how many fit in `seconds` varies with machine speed.
    """
    kinds = (None, tracer) if tracer is not None else (None,)
    passes: list[dict] = []
    begin = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for kind in kinds:
            passes.append(run_pass(wl, kind, len(passes)))
            if len(passes) == 1:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        now = time.perf_counter()
        if (now - begin) + (now - round_start) > seconds:
            return passes, peak_rss_mb


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
    signal.signal(signal.SIGALRM, _alarm)
    tracer = Tracer() if args.trace else None

    start = time.perf_counter()
    fl = workloads.import_library(args.src)
    if tracer is not None:
        tracer.install()
        tracer.begin_job("setup", "setup")
    try:
        wl = workloads.FACTORIES[args.workload](fl, args.seed, args.workdir)
    finally:
        if tracer is not None:
            tracer.end_job()
            tracer.uninstall()
    result: dict = {"setup_start": start, "setup_end": time.perf_counter()}

    if not args.setup_only:
        result["passes"], result["peak_rss_mb"] = run_passes(wl, args.seconds, tracer)
        result["deadline_s"] = wl.deadline_s
        result["meta"] = wl.meta
        if tracer is not None:
            result["spans"] = [[s.name, s.phase, s.job, s.parent, s.start, s.end, s.nodes,
                                s.returned, s.summary] for s in tracer.spans]
            result["untraced"] = tracer.missing
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
