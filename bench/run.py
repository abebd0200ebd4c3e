"""fulkerson-lab benchmark.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Runs workload W (see bench/README.md) in fresh worker processes while a
speed probe runs beside them, checks every job's result, and prints a JSON
report followed, on the last line, by one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 they are the per-layer ones from a
traced run.  Exits 2 without a result when the checkout has no
src/fulkerson_lab.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from probe import SpeedScale
from tracing import Span, aggregate
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 5  # set-up is measured in this many fresh processes
TIME_LIMIT_S = 170.0  # the whole run, worker processes included
WRONG_ANSWERS = ("outcome", "invalid")


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    pos = (len(sorted_values) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def quartiles(values: list[float]) -> dict:
    q1, _q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "samples": values}


def revision() -> str:
    """The checkout's git revision, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


# -- processes -------------------------------------------------------------------

def run_worker(args, workdir: str, deadline: float, setup_only: bool) -> dict:
    fd, result = tempfile.mkstemp(suffix=".json", dir=workdir)
    os.close(fd)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--src", str(ROOT / "src"),
           "--workdir", workdir, "--result", result]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    env.pop("FULKERSON_LAB_BUDGET", None)
    subprocess.run(cmd, check=True, env=env, stdout=sys.stderr,
                   timeout=max(1.0, deadline - time.monotonic()))
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def measure(args, workdir: str) -> tuple[list[dict], SpeedScale]:
    """Set-up samples, then the measuring worker, with the probe running beside them."""
    deadline = time.monotonic() + TIME_LIMIT_S
    samples_path = os.path.join(workdir, "probe.txt")
    # Children inherit the pin: the workers and the probe share one CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    probe = subprocess.Popen([sys.executable, str(BENCH / "probe.py"), samples_path])
    try:
        results = [run_worker(args, workdir, deadline, True)
                   for _ in range(0 if args.trace else SETUP_SAMPLES - 1)]
        results.append(run_worker(args, workdir, deadline, False))
    finally:
        probe.terminate()
        probe.wait()
    return results, SpeedScale(samples_path)


# -- metrics ---------------------------------------------------------------------

def scale_times(result: dict, scale: SpeedScale) -> None:
    """Add reference-speed times: `scaled_s` to every job, `scaled_wall_s`
    to every pass.  A job that hit its deadline is charged the deadline."""
    for p in result["passes"]:
        for j in p["jobs"]:
            j["scaled_s"] = (j["latency_s"] if j["status"] == "deadline"
                             else scale.scaled(j["start"], j["end"]))
        p["scaled_wall_s"] = sum(j["scaled_s"] for j in p["jobs"])


def job_latencies(passes: list[dict]) -> dict[str, float]:
    """Each job's median scaled latency across the given passes."""
    per_job: dict[str, list[float]] = {}
    for p in passes:
        for j in p["jobs"]:
            per_job.setdefault(j["id"], []).append(j["scaled_s"])
    return {job: statistics.median(v) for job, v in per_job.items()}


def certs_differing(jobs: list[dict], golden: dict[str, str]) -> list[str]:
    return [j["id"] for j in jobs
            if j["stdout_digest"] is not None and golden.get(j["id"]) != j["stdout_digest"]]


def end_to_end(result: dict, setup_s: list[float]) -> dict[str, tuple[float, str]]:
    plain = [p for p in result["passes"] if not p["traced"]]
    latencies = sorted(job_latencies(plain).values())
    runs = [j for p in plain for j in p["jobs"]]
    return {
        "wall_s": (statistics.median(p["scaled_wall_s"] for p in plain), "s"),
        "job_p50_ms": (1000 * percentile(latencies, 50), "ms"),
        "job_p95_ms": (1000 * percentile(latencies, 95), "ms"),
        "ok_frac": (sum(j["status"] == "ok" for j in runs) / len(runs), "frac"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setup_s), "s"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def scaled_spans(result: dict, scale: SpeedScale) -> list[Span]:
    """The worker's spans at reference speed: less the probe's own time in
    them, stretched by their job's speed factor.  Spans of a job that hit
    its deadline stay unscaled, as the job's charge does."""
    factors = {("setup", "setup"): scale.factor(result["setup_start"], result["setup_end"])}
    for p in result["passes"]:
        for j in p["jobs"]:
            if j["status"] != "deadline":
                factors[(p["phase"], j["id"])] = scale.factor(j["start"], j["end"])
    spans = []
    for row in result["spans"]:
        s = Span(*row)
        factor = factors.get((s.phase, s.job))
        if s.end is not None and factor is not None:
            busy = scale.probe_time(s.start, s.end)
            s.end = s.start + max(0.0, s.end - s.start - busy) * factor
        spans.append(s)
    return spans


def layer_metrics(spans: list[Span], phase: str) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over the traced set-up plus one traced pass."""
    agg = aggregate(spans, {"setup", phase})

    def pick(*names: str) -> list:
        return [agg[n] for n in names if n in agg]

    def total(*names: str) -> float:
        return sum(a.total_s for a in pick(*names))

    def self_s(*names: str) -> float:
        return sum(a.self_s for a in pick(*names))

    def calls(*names: str) -> int:
        return sum(a.calls for a in pick(*names))

    pm = [s for a in pick("matchcolor.enumerate_perfect_matchings") for s in a.summaries]
    c3 = pick("matchcolor.three_edge_coloring")
    c3_found = [s for a in c3 for s in a.summaries]
    cover = ("fulkerson.find_fulkerson_covering", "fulkerson.enumerate_fulkerson_coverings")
    find = ("ffamily.find_ffamily", "ffamily.enumerate_ffamilies")
    find_nodes = sum(a.nodes for a in pick(*find))
    t2 = pick("ffamily.dot_preserve_type2")
    cyclic = "graph_core.cyclic_edge_connectivity_at_least"
    return {
        "matchcolor.pm_enum_s": (total("matchcolor.enumerate_perfect_matchings"), "s"),
        "matchcolor.pm_enum_matchings": (sum(s[0] for s in pm), "count"),
        "matchcolor.pm_enum_truncated": (sum(s[1] for s in pm), "count"),
        "matchcolor.find_pm_s": (total("matchcolor.find_perfect_matching"), "s"),
        "matchcolor.find_pm_calls": (calls("matchcolor.find_perfect_matching"), "count"),
        "matchcolor.color3_s": (total("matchcolor.three_edge_coloring"), "s"),
        "matchcolor.color3_nodes": (sum(a.nodes for a in c3), "count"),
        "matchcolor.color3_found_ratio": (_ratio(sum(c3_found), len(c3_found)), "ratio"),
        "matchcolor.split_s": (total("matchcolor.split_and_suppress"), "s"),
        "matchcolor.color5_s": (total("matchcolor.five_edge_coloring"), "s"),
        "fulkerson.cover_self_s": (self_s(*cover), "s"),
        "fulkerson.cover_nodes": (sum(a.self_nodes for a in pick(*cover)), "count"),
        "fulkerson.fr_triple_self_s": (self_s("fulkerson.find_fr_triple"), "s"),
        "fulkerson.lift_s": (total("fulkerson.fr_triple_from_matchings"), "s"),
        "fulkerson.verify_s": (total("fulkerson.verify_covering"), "s"),
        "ffamily.find_self_s": (self_s(*find), "s"),
        "ffamily.find_nodes": (find_nodes, "count"),
        "ffamily.nodes_per_s": (_ratio(find_nodes, sum(a.budget_s for a in pick(*find))),
                                "1/s"),
        "ffamily.verify_self_s": (self_s("ffamily.verify_ffamily"), "s"),
        "ffamily.transport_self_s": (self_s("ffamily.dot_preserve_type1",
                                            "ffamily.dot_preserve_type2"), "s"),
        "ffamily.type2_attempts": (sum(a.calls for a in t2), "count"),
        "ffamily.type2_success_ratio": (_ratio(sum(a.returned for a in t2),
                                               sum(a.calls for a in t2)), "ratio"),
        "ffamily.assemble_s": (total("ffamily.covering_from_ffamily"), "s"),
        "graph_core.cyclic_conn_s": (total(cyclic), "s"),
        "graph_core.cyclic_conn_calls": (calls(cyclic), "count"),
        "graph_core.bridgeless_s": (total("graph_core.is_bridgeless"), "s"),
        "generators.dot_product_s": (total("generators.dot_product"), "s"),
        "generators.dot_product_calls": (calls("generators.dot_product"), "count"),
        "generators.build_s": (total("generators.petersen", "generators.flower_snark",
                                     "generators.goldberg",
                                     "generators.doubled_matching_cycle"), "s"),
        "cli.parse_s": (total("cli.parse_graph_file", "cli.parse_certificate"), "s"),
        "cli.write_s": (total("cli.write_graph_file", "cli.write_certificate"), "s"),
    }


def self_times(spans: list[Span], phase: str) -> dict[str, float]:
    """Self time per span name within one pass, largest first."""
    agg = aggregate(spans, {phase})
    return dict(sorted(((n, a.self_s) for n, a in agg.items()), key=lambda kv: -kv[1]))


def per_layer(result: dict, scale: SpeedScale, golden: dict[str, str],
              untraced_wall_s: float) -> tuple[dict, dict]:
    """Per-layer metrics (medians over traced passes) and the trace report."""
    spans = scaled_spans(result, scale)
    traced = [p for p in result["passes"] if p["traced"]]
    per_pass = []
    for p in traced:
        m = layer_metrics(spans, p["phase"])
        m["cli.certs_differing"] = (len(certs_differing(p["jobs"], golden)), "count")
        per_pass.append(m)
    metrics = {name: (statistics.median(m[name][0] for m in per_pass), unit)
               for name, (_v, unit) in per_pass[0].items()}
    traced_wall = statistics.median(p["scaled_wall_s"] for p in traced)
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall_s, "s")
    first = traced[0]
    selfs = self_times(spans, first["phase"])
    report = {"spans": len(spans), "untraced_names": result["untraced"],
              "traced_wall_s": traced_wall, "pass": first["phase"],
              "pass_scaled_wall_s": first["scaled_wall_s"],
              "self_sum_s": sum(selfs.values()), "self_s": selfs}
    return metrics, report


def summarize(args, results: list[dict], scale: SpeedScale) -> tuple[dict, dict]:
    """The printed report and the final result line."""
    golden = json.loads((BENCH / "golden.json").read_text())
    result = results[-1]
    scale_times(result, scale)
    setup_raw = [r["setup_end"] - r["setup_start"] for r in results]
    setup_s = [scale.scaled(r["setup_start"], r["setup_end"]) for r in results]
    passes = result["passes"]
    plain = [p for p in passes if not p["traced"]]
    runs = [j for p in passes for j in p["jobs"]]
    failed = [j for j in runs if j["status"] != "ok"]
    by_reason: dict[str, list[str]] = {}
    for j in failed:
        ids = by_reason.setdefault(j["status"], [])
        if j["id"] not in ids:
            ids.append(j["id"])
    # Every pass, traced or not, must return the same objects.
    returned: dict[str, set[str]] = {}
    statuses: dict[str, set[str]] = {}
    for j in runs:
        statuses.setdefault(j["id"], set()).add(j["status"])
        if j["status"] == "ok":
            returned.setdefault(j["id"], set()).add(j["fingerprint"])
    unstable = sorted(job for job, prints in returned.items() if len(prints) > 1)
    correct = not unstable and not any(j["status"] in WRONG_ANSWERS for j in runs)

    latencies = job_latencies(plain)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "revision": revision(), "src_lines": src_lines(),
        "deadline_s": result["deadline_s"], "meta": result["meta"],
        "passes": {"untraced": len(plain), "traced": len(passes) - len(plain)},
        "wall_s": quartiles([p["scaled_wall_s"] for p in plain]),
        "raw_wall_s": quartiles([p["wall_s"] for p in plain]),
        "job_latency_samples": len(latencies),
        "failures": {"count": len(failed), "attempted": len(runs), "by_reason": by_reason},
        "unstable_results": unstable,
        "jobs": [{"id": job, "status": "/".join(sorted(statuses[job])),
                  "median_ms": round(1000 * latencies[job], 3)} for job in latencies],
        "setup_s": quartiles(setup_s),
        "raw_setup_s": quartiles(setup_raw),
        "cli": {"differing_from_golden": certs_differing(plain[0]["jobs"], golden),
                "stdout_sha256": {j["id"]: j["stdout_digest"] for j in plain[0]["jobs"]
                                  if j["stdout_digest"] is not None}},
    }
    if args.trace:
        metrics, report["trace"] = per_layer(result, scale, golden,
                                             report["wall_s"]["median"])
    else:
        metrics = end_to_end(result, setup_s)
    final = {"correct": correct, "attempted": len(runs), "failed": len(failed),
             "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return report, final


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="fulkerson-lab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "fulkerson_lab" / "__init__.py").is_file():
        print(f"error: no fulkerson_lab package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        results, scale = measure(args, workdir)
        report, final = summarize(args, results, scale)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: worker failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    print(json.dumps(report, indent=1))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
