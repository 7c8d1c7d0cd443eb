"""Tests of the benchmark itself: inputs, oracle, span arithmetic, polling.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import os
import time

import pytest

from perfbench import oracle, run, spans, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


# -- seeded inputs ---------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_order(workload):
    for index in range(3):
        first = workloads.image_order(workload, 7, index, workers=2)
        again = workloads.image_order(workload, 7, index, workers=2)
        assert first == again
        assert sorted(first) == sorted(workloads.PROFILES_OF[workload])
    orders = {tuple(workloads.image_order(workload, seed, 0, workers=2))
              for seed in range(20)}
    assert len(orders) > 1


def test_cold_scan_ends_with_its_heaviest_image():
    for seed in range(10):
        order = workloads.image_order("cold-scan", seed, 0)
        assert order[-1] == workloads.COLD_LAST


def test_straggler_cycles_through_batch_positions():
    workers = 2
    for seed in range(10):
        for index in range(3):
            order = workloads.image_order("fleet-service", seed, index,
                                          workers)
            position = order.index(workloads.STRAGGLER) // workers
            assert position == index % 3


def test_straggler_rotation_keeps_batches():
    keys = ["a", "b", "hikvision", "c", "d", "e"]
    for index in range(3):
        order = workloads.place_straggler(keys, 2, index)
        assert order.index("hikvision") // 2 == index
        assert {frozenset(order[i:i + 2]) for i in range(0, 6, 2)} == \
            {frozenset(keys[i:i + 2]) for i in range(0, 6, 2)}


def test_uneven_batches_are_left_alone():
    keys = ["a", "hikvision", "b", "c", "d"]
    assert workloads.place_straggler(keys, 2, 1) == keys


@pytest.fixture(scope="module")
def dir645(tmp_path_factory):
    """A small packed dir645 image, its manifest row and a cold report."""
    from repro.corpus.profiles import build_firmware

    out_dir = str(tmp_path_factory.mktemp("images"))
    built = build_firmware("dir645", scale=0.05)
    item = workloads._pack(built, "dir645", out_dir)
    with open(item["path"], "rb") as handle:
        blob = handle.read()
    report = workloads._scan_blob(blob, item).to_dict()
    return built, item, blob, report


def test_same_build_packs_to_same_bytes(dir645, tmp_path):
    from repro.corpus.profiles import build_firmware

    _built, _item, blob, _report = dir645
    again = workloads._pack(build_firmware("dir645", scale=0.05), "dir645",
                            str(tmp_path))
    with open(again["path"], "rb") as handle:
        assert handle.read() == blob


# -- oracle ----------------------------------------------------------------------


def test_oracle_accepts_the_real_report(dir645):
    _built, item, _blob, report = dir645
    assert any(not t["vulnerable"] for t in item["truth"])
    assert oracle.check_ground_truth("dir645", report, item["truth"]) == []


def test_oracle_rejects_a_decoy_finding(dir645):
    _built, item, _blob, report = dir645
    decoy = next(t for t in item["truth"] if not t["vulnerable"])
    doctored = dict(report, vulnerable_paths=report["vulnerable_paths"] + [
        {"function": decoy["function"], "sink_addr": decoy["low"],
         "sanitized": False}])
    violations = oracle.check_ground_truth("dir645", doctored, item["truth"])
    assert len(violations) == 1 and decoy["function"] in violations[0]


def test_oracle_rejects_a_missing_planted_bug(dir645):
    _built, item, _blob, report = dir645
    planted = next(t for t in item["truth"] if t["vulnerable"])
    doctored = dict(report, vulnerable_paths=[
        f for f in report["vulnerable_paths"]
        if not planted["low"] <= f["sink_addr"] < planted["high"]])
    violations = oracle.check_ground_truth("dir645", doctored, item["truth"])
    assert any(planted["function"] in v for v in violations)


def test_oracle_ignores_sanitized_paths(dir645):
    _built, item, _blob, report = dir645
    planted = next(t for t in item["truth"] if t["vulnerable"])
    doctored = dict(report, vulnerable_paths=[
        dict(f, sanitized=True) for f in report["vulnerable_paths"]])
    violations = oracle.check_ground_truth("dir645", doctored, item["truth"])
    assert any(planted["function"] in v for v in violations)


def test_oracle_identity_and_delta_checks():
    assert oracle.check_same("x", ["a", "a"]) == []
    assert oracle.check_same("x", ["a", "b"])
    fixed = {"findings": {"fixed": [{"function": "h"}, {"function": "h"}],
                          "new": []}}
    assert oracle.check_delta("x", fixed, "h") == []
    assert oracle.check_delta("x", fixed, "other")
    new = {"findings": {"fixed": [{"function": "h"}],
                        "new": [{"function": "g"}]}}
    assert oracle.check_delta("x", new, "h")


# -- spans -----------------------------------------------------------------------


def _span(span_id, name, parent, start, end, image=None):
    return spans.Span(span_id, name, parent, image, start, end)


def test_self_time_of_nested_spans():
    recorded = [
        _span(0, "image", None, 0.0, 10.0, "a"),
        _span(1, "cfg.build", 0, 1.0, 4.0, "a"),
        _span(2, "increment.fingerprint", 1, 2.0, 3.0, "a"),
        _span(3, "detector.detect", 0, 5.0, 9.0, "a"),
        _span(4, "dataflow.stage", 3, 5.5, 8.0, "a"),
        _span(5, "interproc.run", 4, 6.0, 7.0, "a"),
    ]
    selves = spans.self_times(recorded)
    assert selves == pytest.approx(
        {0: 3.0, 1: 2.0, 2: 1.0, 3: 1.5, 4: 1.5, 5: 1.0})
    layers = spans.layer_seconds(recorded)
    assert layers == pytest.approx({
        "cfg.build_s": 2.0, "increment.fingerprint_s": 1.0,
        "detector.s": 1.5, "interproc.s": 2.5})
    wall = 12.0
    untraced = spans.untraced_seconds(recorded, wall)
    assert untraced == pytest.approx(5.0)
    assert sum(layers.values()) + untraced == pytest.approx(wall)


def test_overlapping_children_are_counted_once():
    recorded = [
        _span(0, "workerpool.run", None, 0.0, 10.0),
        _span(1, "store.publish", 0, 2.0, 6.0),
        _span(2, "queue.claim", 0, 4.0, 8.0),
    ]
    assert spans.self_times(recorded)[0] == pytest.approx(4.0)
    assert spans.union_length([(0, 1), (0.5, 2), (3, 4)]) == \
        pytest.approx(3.0)


def test_layer_seconds_per_image():
    recorded = [
        _span(0, "image", None, 0.0, 2.0, "a"),
        _span(1, "loader.load", 0, 0.0, 1.0, "a"),
        _span(2, "image", None, 2.0, 5.0, "b"),
        _span(3, "loader.load", 2, 2.0, 4.0, "b"),
    ]
    assert spans.layer_seconds(recorded, image="b") == {"loader.load_s": 2.0}


class _Target:
    def outer(self, inner):
        return inner()


def test_tracer_wraps_nests_and_uninstalls():
    tracer = spans.Tracer()
    original = _Target.outer
    tracer.wrap(_Target, "outer", "cfg.build",
                measure=lambda result: {"result": result})
    with tracer.span("image", image="img"):
        with tracer.span("report"):
            value = _Target().outer(lambda: 42)
    tracer.uninstall()
    assert value == 42
    assert _Target.outer is original
    image, report, wrapped = tracer.spans
    assert (report.parent, wrapped.parent) == (image.id, report.id)
    assert {s.image for s in tracer.spans} == {"img"}
    assert wrapped.attrs == {"result": 42}
    assert image.start <= report.start <= wrapped.start <= wrapped.end


def test_every_instrumented_call_exists():
    tracer = spans.install(spans.Tracer())
    try:
        assert len(tracer._patches) == len(spans.INSTRUMENTED)
    finally:
        tracer.uninstall()
    assert all(name in spans.LAYER_OF or name == "pipeline.execute_job"
               for _m, _p, name, _f in spans.INSTRUMENTED)


# -- polling ---------------------------------------------------------------------


class _StubDaemon:
    def __init__(self, states):
        self.states = states
        self.polls = 0

    def job_status(self, job_id):
        self.polls += 1
        return {"job_id": job_id, "state": self.states[job_id]}


def test_poll_stops_on_dead_letter():
    daemon = _StubDaemon({1: "done", 2: "dead"})
    rows = workloads.wait_for_jobs(daemon, [1, 2], timeout=5, interval=0.01)
    assert {job: row["state"] for job, row in rows.items()} == \
        {1: "done", 2: "dead"}
    assert daemon.polls == 2


def test_poll_gives_up_on_a_stuck_job():
    daemon = _StubDaemon({1: "running"})
    start = time.perf_counter()
    with pytest.raises(TimeoutError):
        workloads.wait_for_jobs(daemon, [1], timeout=0.1, interval=0.01)
    assert time.perf_counter() - start < 2.0


def test_poll_ends_when_a_real_job_dead_letters(tmp_path):
    from repro.service.daemon import AnalysisDaemon
    from repro.service.queue import job_spec

    garbage = tmp_path / "garbage.bin"
    garbage.write_bytes(b"not firmware" * 64)
    daemon = AnalysisDaemon(str(tmp_path / "q.db"), workers=1,
                            max_attempts=1, retries=0)
    try:
        job = daemon.submit(job_spec("firmware", path=str(garbage)))
        daemon.start()
        rows = workloads.wait_for_jobs(daemon, [job["job_id"]], timeout=60,
                                       interval=0.02)
    finally:
        daemon.stop()
    assert rows[job["job_id"]]["state"] == "dead"


# -- the contract ----------------------------------------------------------------


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)
    setup_bound = next(m["bound"] for m in spec["end_to_end"]
                       if m["name"] == "setup_s")
    assert setup_bound == max(m["bound"] for m in spec["end_to_end"])
