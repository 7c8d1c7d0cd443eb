"""The repository's benchmark: three workloads, end-to-end and per-layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold-scan --seed 1 --seconds 8 \\
        --trace 0

A run sets its inputs up ``SETUPS`` times, each in a fresh interpreter,
and between set-ups runs timed passes -- each in a fresh interpreter
too -- until ``--seconds`` of passes are measured (at least
``MIN_PASSES``).  Every image output goes through the correctness
oracle (:mod:`perfbench.oracle`).  The last line on stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``; with ``--trace 1`` one
untraced and one traced pass give the per-layer metrics and the
tracing overhead.  Per-image rows, the host record and any spans are
written to ``.perfbench/results/``.

Why each workload was chosen is recorded in :mod:`perfbench.workloads`.
"""

import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import oracle, workloads  # noqa: E402

SETUPS = 3
# A fleet-service run cycles the straggler through every batch position.
MIN_PASSES = {"cold-scan": 1, "fleet-service": 6, "rescan": 2}
# No pass starts after this many seconds; every step is killed by
# ``RUN_LIMIT_S`` so a run always ends within three minutes.
LAST_PASS_START_S = 110.0
RUN_LIMIT_S = 170.0

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
    ("latency_p50_s", "s"), ("latency_max_s", "s"),
    ("peak_rss_mb", "MB"), ("cache_mb", "MB"),
)

PER_LAYER = (
    ("corpus.build_s", "s"), ("firmware.extract_s", "s"),
    ("firmware.nodes", "count"), ("loader.load_s", "s"),
    ("cfg.build_s", "s"), ("cfg.blocks", "count"),
    ("cfg.lift_blocks", "count"), ("symexec.s", "s"),
    ("symexec.functions", "count"), ("symexec.fn_max_s", "s"),
    ("symexec.truncated", "count"), ("alias.types_s", "s"),
    ("alias.s", "s"), ("structure.s", "s"),
    ("structure.resolved", "count"), ("interproc.s", "s"),
    ("detector.s", "s"), ("detector.sinks", "count"),
    ("detector.vulnerabilities", "count"), ("report.s", "s"),
    ("cache.get_s", "s"), ("cache.flush_s", "s"), ("cache.hits", "count"),
    ("cache.misses", "count"), ("cache.bytes_per_summary", "bytes"),
    ("increment.fingerprint_s", "s"), ("increment.reuse_ratio", "ratio"),
    ("workerpool.exec_s", "s"), ("workerpool.busy_share", "ratio"),
    ("workerpool.idle_s", "s"), ("queue.submit_ms", "ms"),
    ("queue.wait_p50_s", "s"), ("queue.wait_max_s", "s"),
    ("store.publish_s", "s"), ("store.db_kb", "kB"),
    ("trace.overhead", "ratio"), ("trace.untraced_share", "ratio"),
)

MB = 1024.0 * 1024.0


class Run:
    """Starts the child steps of one run inside its work directory."""

    def __init__(self, workload, work_dir):
        self.workload = workload
        self.work_dir = work_dir
        self.started = time.perf_counter()
        self._steps = 0

    def step(self, request):
        """Run one child step; returns (its result, its result path)."""
        self._steps += 1
        stem = os.path.join(self.work_dir, "step-%02d" % self._steps)
        with open(stem + "-request.json", "w") as handle:
            json.dump(dict(request, workload=self.workload), handle)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [ROOT, os.path.join(ROOT, "src")]
            + [p for p in [env.get("PYTHONPATH")] if p])
        remaining = RUN_LIMIT_S - (time.perf_counter() - self.started)
        subprocess.run(
            [sys.executable, "-m", "perfbench.child",
             stem + "-request.json", stem + "-result.json"],
            cwd=ROOT, env=env, check=True, timeout=max(remaining, 1.0),
        )
        with open(stem + "-result.json") as handle:
            return json.load(handle), stem + "-result.json"

    def setup(self):
        """Build the inputs afresh; every set-up writes the same paths,
        so findings (which name the image path) match across passes."""
        out_dir = os.path.join(self.work_dir, "inputs")
        return self.step({"kind": "setup", "out_dir": out_dir})

    def timed_pass(self, manifest_path, index, order, traced):
        pass_dir = os.path.join(self.work_dir, "pass-%d-%d"
                                % (index, int(traced)))
        result, _path = self.step({
            "kind": "pass", "manifest": manifest_path,
            "pass_dir": pass_dir, "order": order, "traced": traced,
        })
        return result

    def elapsed(self):
        return time.perf_counter() - self.started


def end_to_end_metrics(setups, passes):
    latencies = [[row["latency_s"] for row in p["images"]] for p in passes]
    return {
        "setup_s": (median([s["setup_s"] for s in setups])
                    + median([p["prep_s"] for p in passes])),
        "wall_s": median([p["wall_s"] for p in passes]),
        "cpu_s": median([p["cpu_s"] for p in passes]),
        "latency_p50_s": median([median(l) for l in latencies]),
        "latency_max_s": median([max(l) for l in latencies]),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in passes]),
        "cache_mb": median([p["cache_bytes"] / MB for p in passes]),
    }


def layer_metrics(workload, manifest, untraced, traced):
    """Every per-layer metric; layers a workload never enters read 0."""
    values = {name: 0.0 for name, _unit in PER_LAYER}
    values["corpus.build_s"] = manifest["corpus_build_s"]
    summary = traced["traced"]
    rows = [row for row in traced["images"] if "layers" in row]
    if workload == "fleet-service":
        # Worker-side layers as the program reports them per job.
        for row in rows:
            for name, value in row["layers"].items():
                values[name] += value
        capacity = traced["workers"] * traced["wall_s"]
        busy = sum(row["exec_s"] for row in rows)
        waits = [row["queue_wait_s"] for row in traced["images"]]
        values.update({
            "workerpool.exec_s": busy,
            "workerpool.busy_share": busy / capacity,
            "workerpool.idle_s": capacity - busy,
            "queue.submit_ms": summary["queue.submit_ms"],
            "queue.wait_p50_s": median(waits),
            "queue.wait_max_s": max(waits),
            "store.publish_s": summary["layers"].get("store.publish_s", 0.0),
            "store.db_kb": traced["db_bytes"] / 1024.0,
        })
    else:
        for name, value in summary["layers"].items():
            if name in values:
                values[name] = value
        for name in ("firmware.nodes", "cfg.blocks", "cfg.lift_blocks",
                     "symexec.functions", "symexec.fn_max_s",
                     "symexec.truncated", "structure.resolved",
                     "detector.sinks", "detector.vulnerabilities"):
            values[name] = summary[name]
    hits = sum(row.get("cache", {}).get("summary_hits", 0) for row in rows)
    misses = sum(row.get("cache", {}).get("summary_misses", 0)
                 for row in rows)
    values["cache.hits"] = hits
    values["cache.misses"] = misses
    if hits + misses:
        values["increment.reuse_ratio"] = hits / (hits + misses)
    # Summaries held: fleet-index records (rescan), else one per miss.
    stored = traced.get("summaries") or misses
    if stored:
        values["cache.bytes_per_summary"] = traced["summary_bytes"] / stored
    values["trace.overhead"] = traced["wall_s"] / untraced["wall_s"]
    values["trace.untraced_share"] = summary["untraced_s"] / traced["wall_s"]
    return values


def checked_rows(manifest, passes):
    """Every output the oracle judged: pass images, and for rescan the
    old releases scanned during set-up."""
    return [row for result in passes for row in result["images"]] + [
        item["old"] for item in manifest["images"] if "old" in item]


def check_outputs(manifest, passes, cross_shas):
    """Oracle verdicts across passes; returns (attempted, failed)."""
    by_image = {}
    for result in passes:
        for row in result["images"]:
            by_image.setdefault(row["image"], []).append(row)
    for image, rows in by_image.items():
        shas = [row["findings_sha256"] for row in rows]
        key = image.split(":")[0]
        if key in cross_shas:
            shas.append(cross_shas[key])
        rows[-1]["violations"] += oracle.check_same(image, shas)
    rows = checked_rows(manifest, passes)
    return len(rows), sum(1 for row in rows if row["violations"])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no src/repro under %s" % ROOT, file=sys.stderr)
        return 2

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    bench_dir = os.path.join(ROOT, ".perfbench")
    work_dir = os.path.join(bench_dir, "work", "%s-%d" % (tag, os.getpid()))
    os.makedirs(work_dir)
    run = Run(args.workload, work_dir)
    try:
        workers = workloads.nproc()

        def order(index):
            return workloads.image_order(args.workload, args.seed, index,
                                         workers)

        setups, passes = [], []
        if args.trace:
            manifest, manifest_path = run.setup()
            setups.append(manifest)
            passes = [run.timed_pass(manifest_path, 0, order(0), False),
                      run.timed_pass(manifest_path, 0, order(0), True)]
        else:
            # Set-ups and passes alternate, so the passes sample the
            # host over the whole run rather than one stretch of it.
            measured = 0.0
            for index in range(SETUPS):
                manifest, manifest_path = run.setup()
                setups.append(manifest)
                share = (index + 1) / SETUPS
                while (len(passes) < math.ceil(
                        MIN_PASSES[args.workload] * share)
                       or measured < args.seconds * share):
                    if passes and run.elapsed() > LAST_PASS_START_S:
                        break
                    passes.append(run.timed_pass(
                        manifest_path, len(passes), order(len(passes)),
                        False))
                    measured += passes[-1]["wall_s"]
        cross_shas = {}
        if args.workload == "fleet-service":
            # The same images through the cold in-process path.
            cross_shas, _path = run.step({
                "kind": "cross-check", "manifest": manifest_path,
                "keys": list(workloads.COLD_PROFILES),
            })
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted, failed = check_outputs(manifest, passes, cross_shas)
    if args.trace:
        values = layer_metrics(args.workload, manifest, *passes)
        units = PER_LAYER
    else:
        values = end_to_end_metrics(setups, passes)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units}

    host = {
        "nproc": workers, "python": platform.python_version(),
        "platform": platform.platform(), "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
    }
    record = {
        "host": host, "metrics": metrics, "attempted": attempted,
        "failed": failed,
        "setups": [{k: s[k] for k in ("setup_s", "corpus_build_s")}
                   for s in setups],
        "passes": passes,
        "latency_samples_per_pass": len(passes[0]["images"]),
    }
    results_dir = os.path.join(bench_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, tag + ".json"), "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    for row in checked_rows(manifest, passes):
        for violation in row["violations"]:
            print("oracle: %s" % violation, file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
