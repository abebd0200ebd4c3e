"""Tests for the benchmark's own code (the library has its own suite).

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import random
import shutil
import signal
import subprocess
import sys
import time
from argparse import Namespace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import probe  # noqa: E402
import randgraph  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def fl():
    return workloads.import_library(str(ROOT / "src"))


@pytest.fixture(autouse=True)
def deadline_handler():
    previous = signal.signal(signal.SIGALRM, worker._alarm)
    yield
    signal.signal(signal.SIGALRM, previous)


def _small(name, fl, workdir):
    """A few seconds' worth of each workload, on small inputs."""
    if name == "snark-search":
        return workloads.snark_search(fl, 0, workdir, graphs={"J5": fl.flower_snark(5),
                                                              "G3": fl.goldberg(3)},
                                      triples=("J5",))
    if name == "family-pipeline":
        return workloads.family_pipeline(
            fl, 0, workdir, chains={"composite26": (1, 26)},
            ffamily_graphs=[("J5", fl.flower_snark(5), workloads.NODE_LIMIT, False)],
            expansion=False)
    if name == "random-batch":
        return workloads.random_batch(fl, 5, workdir, orders=(12, 16), per_order=3)
    return workloads.scale_ladder(fl, 0, workdir, dmc_sizes=(20,), flower_pm=(5,),
                                  flower_cyclic=(5,), color_orders=(12,))


def _uniform_scale(tmp_path, start, end) -> probe.SpeedScale:
    """A probe record of a machine running steadily at the reference speed."""
    path = tmp_path / "probe.txt"
    steps = int((end - start) / 0.01) + 10
    path.write_text("".join(f"{start - 0.05 + 0.01 * i} {probe.REFERENCE_S}\n"
                            for i in range(steps)))
    return probe.SpeedScale(str(path))


def _summarize(tmp_path, name, passes, trace=0, spans=()):
    jobs = [j for p in passes for j in p["jobs"]]
    result = {"setup_start": jobs[0]["start"], "setup_end": jobs[0]["start"],
              "passes": passes, "peak_rss_mb": 1.0, "deadline_s": 1.0, "meta": {},
              "spans": [[s.name, s.phase, s.job, s.parent, s.start, s.end, s.nodes,
                         s.returned, s.summary] for s in spans],
              "untraced": []}
    scale = _uniform_scale(tmp_path, jobs[0]["start"], jobs[-1]["end"])
    args = Namespace(workload=name, seed=0, seconds=1, trace=trace)
    return run.summarize(args, [result], scale)


def test_same_seed_gives_byte_identical_graphs():
    def batch(seed):
        rng = random.Random(seed)
        return "".join(randgraph.graph_text(n, randgraph.random_cubic_edges(n, rng))
                       for n in (12, 20, 32, 100))

    assert batch(7) == batch(7)
    assert batch(7) != batch(8)


def test_generated_graphs_are_simple_connected_bridgeless_and_cubic(fl):
    rng = random.Random(3)
    for n in (12, 16, 32, 60):
        edges = randgraph.random_cubic_edges(n, rng)
        assert len(set(edges)) == len(edges) == 3 * n // 2
        assert all(u < v for u, v in edges)
        g = fl.CubicGraph(n, edges)  # raises unless every degree is 3
        assert fl.is_connected(g) and fl.is_bridgeless(g)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_and_untraced_passes_return_identical_results(fl, tmp_path, name):
    wl = _small(name, fl, str(tmp_path))
    originals = {fn: getattr(fl, fn) for fn in ("find_fulkerson_covering", "verify_ffamily")}
    plain = worker.run_pass(wl, None, 0)
    tracer = Tracer()
    traced = worker.run_pass(wl, tracer, 1)

    def key(p):
        return [(j["id"], j["status"], j["fingerprint"], j["stdout_digest"]) for j in p["jobs"]]

    assert all(j["status"] == "ok" for j in plain["jobs"]), plain["jobs"]
    assert key(plain) == key(traced)
    assert tracer.spans and not tracer.missing
    assert all(getattr(fl, fn) is f for fn, f in originals.items())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_span_self_times_add_up_to_the_traced_pass(fl, tmp_path, name):
    wl = _small(name, fl, str(tmp_path))
    plain = worker.run_pass(wl, None, 0)
    tracer = Tracer()
    traced = worker.run_pass(wl, tracer, 1)
    report, final = _summarize(tmp_path, name, [plain, traced], trace=1, spans=tracer.spans)
    selfs = report["trace"]["self_s"]
    assert "job" in selfs and len(selfs) > 1
    assert abs(report["trace"]["self_sum_s"] - traced["wall_s"]) <= 0.1 * traced["wall_s"]
    per_layer = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(final["metrics"]) == per_layer


def test_a_job_past_its_deadline_counts_as_failed(fl, tmp_path):
    def spin():
        while True:  # a library-style handler must not swallow the deadline
            try:
                raise fl.GraphError("retry")
            except (fl.TransportError, fl.GraphError):
                time.sleep(0.001)

    def quick():
        return workloads.Outcome("ok", "x")

    wl = workloads.Workload("test", 0.05, [workloads.Job("quick", quick),
                                           workloads.Job("spin", spin)], {})
    p = worker.run_pass(wl, None, 0)
    assert [j["status"] for j in p["jobs"]] == ["ok", "deadline"]
    report, final = _summarize(tmp_path, "random-batch", [p])
    assert (final["attempted"], final["failed"], final["correct"]) == (2, 1, True)
    assert final["metrics"]["ok_frac"]["value"] == 0.5
    assert report["failures"]["by_reason"] == {"deadline": ["spin"]}
    end_to_end = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    assert set(final["metrics"]) == end_to_end


def test_a_rejected_certificate_makes_the_run_incorrect(tmp_path):
    wl = workloads.Workload("test", 1.0, [workloads.Job("bad", lambda: workloads.Outcome("invalid"))], {})
    _report, final = _summarize(tmp_path, "random-batch", [worker.run_pass(wl, None, 0)])
    assert (final["correct"], final["failed"]) == (False, 1)


def test_speed_scale_is_the_mean_reference_ratio_over_an_interval(tmp_path):
    path = tmp_path / "probe.txt"
    path.write_text("".join(f"{0.01 * i} {probe.REFERENCE_S * (1 if i < 200 else 2)}\n"
                            for i in range(400)))
    scale = probe.SpeedScale(str(path))
    assert scale.factor(0.2, 1.8) == pytest.approx(1.0)
    assert scale.factor(2.2, 3.8) == pytest.approx(0.5)
    assert scale.factor(1.0, 3.0) == pytest.approx(0.75, abs=0.01)


def test_a_checkout_without_the_library_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "random-batch",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
