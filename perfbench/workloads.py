"""The benchmark's workloads: seeded inputs, set-up, and one timed pass.

Why each workload was chosen:

* ``cold-scan`` -- ROADMAP's reference run: no shards, no caches, one
  process.  Five packed images are scanned one after another from the
  blob through extract, load, ``build_cfg``, ``analyze_functions``,
  ``run_dataflow``, ``detect`` and the report.  Every cache miss costs
  this much.  Symexec dominates; it never touches the pool, queue or
  caches, so changes there should leave it unchanged.
* ``fleet-service`` -- the only workload that runs the queue, dispatch,
  the warm worker pool, result IPC, cache writes and the sqlite publish.
  One client submits all six images (hikvision, the straggler,
  included) in one burst, then polls ``job_status`` until every job is
  terminal: a single burst, neither an open nor a closed loop.  The
  daemon claims ``workers`` jobs at a time and waits for each batch, so
  idle workers, sharding or pool overhead show in the wall time and the
  latencies.
* ``rescan`` -- version pairs whose old releases were scanned into the
  fleet index during set-up.  Each pass rescans every patched release
  (one function re-executed, the rest reused) and then rescans it again
  (a whole-image findings hit).  Symexec does almost nothing; cache
  decode, fingerprinting, CFG rebuild and interproc over reused
  summaries dominate.  It is the summary-codec target and reads the
  cache the fleet-service workload writes.

The seed picks only the order in which images are scanned or submitted;
the images themselves are the corpus profiles, which are deterministic.
Scales are chosen so a whole run, set-up included, stays well inside
the benchmark's time budget on a two-core host.
"""

import importlib
import json
import os
import random
import resource
import shutil
import time

from perfbench import oracle, spans

COLD_PROFILES = ("dir645", "dir890l", "dgn1000", "dgn2200", "uniview")
COLD_SCALE = 0.25
FLEET_PROFILES = COLD_PROFILES + ("hikvision",)
FLEET_SCALE = 0.03
RESCAN_PROFILES = ("dir645", "dir890l", "dgn2200")
RESCAN_SCALE = 0.1
STRAGGLER = "hikvision"
COLD_LAST = "dgn2200"
UIMAGE_PROFILES = ("uniview", "hikvision")    # camera images; routers TRX

PROFILES_OF = {
    "cold-scan": COLD_PROFILES,
    "fleet-service": FLEET_PROFILES,
    "rescan": RESCAN_PROFILES,
}
WORKLOADS = tuple(PROFILES_OF)

# Imported while a pass prepares, so no timed scan pays for a first
# import and forked pool workers start with them loaded.
PRELOAD = ("repro.core.detector", "repro.firmware.binwalk",
           "repro.firmware.parsers", "repro.loader.binary",
           "repro.pipeline.scheduler", "repro.pipeline.results",
           "repro.eval.resources", "repro.increment.reuse",
           "repro.increment.delta", "repro.service.daemon")

# A fleet-service pass gives up polling after this long.
POLL_TIMEOUT_S = 120.0
POLL_INTERVAL_S = 0.05


def nproc():
    """Processors this process may run on (what ``nproc`` prints)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# -- seeded inputs -------------------------------------------------------------


def image_order(workload, seed, pass_index, workers=1):
    """The order in which one pass scans or submits its images."""
    keys = list(PROFILES_OF[workload])
    random.Random("%s/%d/%d" % (workload, seed, pass_index)).shuffle(keys)
    if workload == "cold-scan":
        # In one process a scan slows as earlier scans leave state behind
        # (dgn2200: about 5.3 s first, 6.5 s after the others).  The
        # heaviest image goes last, so its latency always carries that
        # cost and latency_max does not hinge on the shuffle.
        keys.remove(COLD_LAST)
        keys.append(COLD_LAST)
    if workload == "fleet-service":
        keys = place_straggler(keys, workers, pass_index)
    return keys


def place_straggler(keys, workers, pass_index):
    """Rotate whole batches so the straggler's batch comes at position
    ``pass_index`` (mod the batch count).

    The daemon claims consecutive groups of ``workers`` submissions, so
    where the straggler lands decides half the latencies.  Cycling its
    batch position over a run's passes keeps the medians from hinging on
    one shuffle.  Batch membership is unchanged, so wall time is too.
    """
    if len(keys) % workers:
        return keys
    batches = [keys[i:i + workers] for i in range(0, len(keys), workers)]
    at = next(i for i, batch in enumerate(batches) if STRAGGLER in batch)
    shift = (at - pass_index) % len(batches)
    return [key for batch in batches[shift:] + batches[:shift]
            for key in batch]


# -- set-up ----------------------------------------------------------------------


def _pack(built, key, out_dir, suffix=""):
    """Pack one build into a vendor container; returns its manifest row."""
    from repro.corpus.profiles import analyzed_module_prefixes
    from repro.firmware.image import pack_trx, pack_uimage
    from repro.firmware.simplefs import SimpleFS

    profile = built.profile
    fs = SimpleFS()
    fs.add_dir("/bin")
    fs.add_dir("/etc")
    fs.add_file("/bin/%s" % profile.binary_name, built.elf_bytes)
    fs.add_file("/etc/version", profile.version.encode("utf-8"))
    kernel = b"\x00" * 64 + b"Linux " + profile.version.encode("utf-8")
    if key in UIMAGE_PROFILES:
        blob = pack_uimage(kernel, fs.pack(), name=profile.version[:31])
        ext = "uimage"
    else:
        blob = pack_trx(kernel, fs.pack())
        ext = "trx"
    path = os.path.join(out_dir, "%s%s.%s" % (key, suffix, ext))
    with open(path, "wb") as handle:
        handle.write(blob)
    return {"key": key, "path": path,
            "modules": sorted(analyzed_module_prefixes(key)),
            "truth": oracle.truth_ranges(built)}


def _firmware_job(job_id, path, modules):
    from repro.pipeline.scheduler import FleetJob

    return FleetJob(job_id=job_id, kind="firmware", path=path,
                    modules=tuple(modules))


def setup(workload, out_dir):
    """Build and pack the corpus; for rescan also fill the fleet index.

    Returns the manifest every pass of the run reads.
    """
    from repro.corpus.fleet import build_version_pair
    from repro.corpus.profiles import build_firmware
    from repro.pipeline.results import canonical_report
    from repro.pipeline.scheduler import execute_job

    started = time.perf_counter()
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    manifest = {"workload": workload, "images": []}
    corpus_s = 0.0
    for key in PROFILES_OF[workload]:
        tick = time.perf_counter()
        if workload == "rescan":
            old, new, flipped = build_version_pair(key, scale=RESCAN_SCALE)
            corpus_s += time.perf_counter() - tick
            row = _pack(new, key, out_dir, "-new")
            row["flipped"] = flipped
            row["old"] = _pack(old, key, out_dir, "-old")
        else:
            scale = COLD_SCALE if workload == "cold-scan" else FLEET_SCALE
            built = build_firmware(key, scale=scale)
            corpus_s += time.perf_counter() - tick
            row = _pack(built, key, out_dir)
        manifest["images"].append(row)
    if workload == "rescan":
        cache_dir = os.path.join(out_dir, "snapshot")
        for row in manifest["images"]:
            old = row["old"]
            payload = execute_job(
                _firmware_job("old-" + row["key"], old["path"],
                              old["modules"]),
                cache_dir=cache_dir, use_fleet_index=True,
            )
            old["image"] = {
                "name": old["path"], "sha256": payload["sha256"],
                "findings": canonical_report(payload["report"]),
                "fingerprints": payload["fingerprints"],
            }
            old["violations"] = oracle.check_ground_truth(
                old["path"], payload["report"], old["truth"])
        manifest["snapshot"] = cache_dir
    manifest["corpus_build_s"] = corpus_s
    manifest["setup_s"] = time.perf_counter() - started
    return manifest


# -- measurement helpers ---------------------------------------------------------


def _cpu_seconds(who):
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb():
    """Largest peak RSS of this process or any child it has reaped."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def disk_bytes(*paths):
    """Bytes in the files under each path (a file or a directory)."""
    total = 0
    for path in paths:
        if os.path.isfile(path):
            total += os.path.getsize(path)
        for dirpath, _dirs, files in os.walk(path):
            for name in files:
                total += os.path.getsize(os.path.join(dirpath, name))
    return total


def _write_json(path, document):
    with open(path, "w") as handle:
        json.dump(document, handle, sort_keys=True)


# Program-reported phase seconds/counters -> layer metric names.
_PHASE_LAYERS = {"symexec": "symexec.s", "alias": "alias.s",
                 "similarity": "structure.s", "interproc": "interproc.s",
                 "detect": "detector.s", "increment": "increment.fingerprint_s"}


def program_layers(report, profile=None):
    """Per-layer numbers as the program reports them in one report."""
    profile = profile if profile is not None else report.get(
        "phase_profile", {})
    layers = {
        metric: profile.get("seconds", {}).get(phase, 0.0)
        for phase, metric in _PHASE_LAYERS.items()
    }
    counters = profile.get("counters", {})
    layers.update({
        "cfg.build_s": report.get("stage_seconds", {}).get("cfg", 0.0),
        "cfg.blocks": report.get("blocks", 0),
        "cfg.lift_blocks": counters.get("lift_blocks", 0),
        "symexec.functions": counters.get("symexec_functions", 0),
        "symexec.truncated": report.get("coverage", {}).get("truncated", 0),
        "structure.resolved": report.get("indirect_resolved", 0),
        "detector.sinks": report.get("sinks", 0),
        "detector.vulnerabilities": len(report.get("vulnerabilities", [])),
    })
    return layers


def _row(image, latency, report, truth, label):
    from repro.pipeline.results import findings_fingerprint

    return {
        "image": image, "latency_s": latency,
        "findings_sha256": findings_fingerprint(report),
        "violations": oracle.check_ground_truth(label, report, truth),
        "layers": program_layers(report),
    }


# -- passes -----------------------------------------------------------------------


def _scan_blob(blob, item):
    """The cold in-process path: blob -> report, one public call a step."""
    from repro.core.detector import DTaint, DTaintConfig
    from repro.firmware import binwalk
    from repro.loader import binary as loader

    tree = binwalk.extract_tree(blob, name=item["path"])
    display, elf = binwalk.pick_target_binary(tree)
    name = "%s!%s" % (item["path"], display)
    detector = DTaint(loader.load_elf(elf, name=name),
                      config=DTaintConfig(modules=tuple(item["modules"])),
                      name=name)
    detector.build_cfg()
    detector.analyze_functions()
    detector.run_dataflow()
    return detector.detect()


def cold_scan_pass(manifest, pass_dir, order, make_tracer):
    tick = time.perf_counter()
    items = {item["key"]: item for item in manifest["images"]}
    blobs = {}
    for key in order:
        with open(items[key]["path"], "rb") as handle:
            blobs[key] = handle.read()
    results_dir = os.path.join(pass_dir, "results")
    os.makedirs(results_dir)
    prep_s = time.perf_counter() - tick

    tracer = make_tracer()
    try:
        cpu = _cpu_seconds(resource.RUSAGE_SELF)
        start = time.perf_counter()
        scanned = []
        for key in order:
            tick = time.perf_counter()
            with tracer.span("image", image=key):
                report = _scan_blob(blobs[key], items[key])
                with tracer.span("report"):
                    document = report.to_dict()
                    _write_json(os.path.join(results_dir, key + ".json"),
                                document)
            scanned.append((key, time.perf_counter() - tick, document))
        wall = time.perf_counter() - start
        cpu = _cpu_seconds(resource.RUSAGE_SELF) - cpu
    finally:
        tracer.uninstall()
    rows = [_row(key, latency, document, items[key]["truth"], key)
            for key, latency, document in scanned]
    return {"prep_s": prep_s, "wall_s": wall, "cpu_s": cpu,
            "peak_rss_mb": _peak_rss_mb(),
            "cache_bytes": disk_bytes(results_dir), "images": rows}


def cold_scan_shas(manifest, keys):
    """findings_sha256 of ``keys`` through the cold in-process path."""
    from repro.pipeline.results import findings_fingerprint

    items = {item["key"]: item for item in manifest["images"]}
    shas = {}
    for key in keys:
        with open(items[key]["path"], "rb") as handle:
            report = _scan_blob(handle.read(), items[key])
        shas[key] = findings_fingerprint(report.to_dict())
    return shas


def wait_for_jobs(daemon, job_ids, timeout=POLL_TIMEOUT_S,
                  interval=POLL_INTERVAL_S):
    """Poll ``job_status`` until every job is terminal; returns the rows.

    Dead-lettered, failed and cancelled jobs are terminal too, so a
    poisoned job ends the wait instead of hanging it.
    """
    from repro.service.queue import TERMINAL_STATES

    deadline = time.perf_counter() + timeout
    pending = list(job_ids)
    rows = {}
    while True:
        for job_id in list(pending):
            row = daemon.job_status(job_id)
            if row is not None and row["state"] in TERMINAL_STATES:
                rows[job_id] = row
                pending.remove(job_id)
        if not pending:
            return rows
        if time.perf_counter() > deadline:
            raise TimeoutError("jobs %s not terminal after %.0fs"
                               % (pending, timeout))
        time.sleep(interval)


def fleet_service_pass(manifest, pass_dir, order, make_tracer):
    from repro.service.daemon import AnalysisDaemon
    from repro.service.queue import DONE, job_spec

    tick = time.perf_counter()
    workers = nproc()
    cache_dir = os.path.join(pass_dir, "cache")
    db_path = os.path.join(pass_dir, "service.db")
    daemon = AnalysisDaemon(db_path, cache_dir=cache_dir, workers=workers)
    daemon.scheduler.pool.prewarm(workers)
    prep_s = time.perf_counter() - tick
    # Installed after the pool forked, so workers run untraced.
    tracer = make_tracer()
    items = {item["key"]: item for item in manifest["images"]}
    try:
        cpu = _cpu_seconds(resource.RUSAGE_SELF)
        start = time.perf_counter()
        job_ids = {}
        for key in order:
            spec = job_spec("firmware", path=items[key]["path"],
                            modules=items[key]["modules"])
            job_ids[key] = daemon.submit(spec)["job_id"]
        # The dispatcher starts right after the burst: batches are then
        # exactly consecutive submit groups, with no poll-interval phase.
        daemon.start()
        states = wait_for_jobs(daemon, list(job_ids.values()))
        wall = time.perf_counter() - start
        cpu = _cpu_seconds(resource.RUSAGE_SELF) - cpu
        answers = {key: daemon.job_findings(job_id)
                   for key, job_id in job_ids.items()}
        profiles = {}
        for key, job_id in job_ids.items():
            for event in daemon.job_events(job_id):
                if event.get("event") == "phase_times":
                    profiles[key] = event
    finally:
        tracer.uninstall()
        daemon.stop()
    # Workers are reaped by stop(); they only idled before the pass.
    cpu += _cpu_seconds(resource.RUSAGE_CHILDREN)

    rows = []
    for key in order:
        state = states[job_ids[key]]
        document = answers[key].get("document") or {}
        findings = document.get("findings") or {}
        row = {
            "image": key,
            "latency_s": state["finished_ts"] - state["submitted_ts"],
            "queue_wait_s": ((state["started_ts"] or state["finished_ts"])
                             - state["submitted_ts"]),
            "state": state["state"],
            "findings_sha256": document.get("findings_sha256", ""),
            "exec_s": document.get("elapsed_seconds", 0.0),
            "cache": document.get("cache", {}),
            "violations": [],
        }
        if state["state"] != DONE:
            row["violations"].append("%s: job %s (%s)" % (
                key, state["state"], state.get("error", "")))
        else:
            row["violations"] = oracle.check_ground_truth(
                key, findings, items[key]["truth"])
            report = dict(findings,
                          stage_seconds=document.get("stage_seconds", {}))
            row["layers"] = program_layers(report, profiles.get(key, {}))
            row["layers"]["loader.load_s"] = document.get(
                "resources", {}).get("build_seconds", 0.0)
        rows.append(row)
    return {"prep_s": prep_s, "wall_s": wall, "cpu_s": cpu,
            "peak_rss_mb": _peak_rss_mb(), "workers": workers,
            "cache_bytes": disk_bytes(cache_dir, db_path),
            "db_bytes": disk_bytes(db_path),
            "summary_bytes": disk_bytes(os.path.join(cache_dir, "summaries")),
            "images": rows}


def rescan_pass(manifest, pass_dir, order, make_tracer):
    from repro.increment import compute_delta
    from repro.pipeline import scheduler
    from repro.pipeline.results import canonical_report

    tick = time.perf_counter()
    cache_dir = os.path.join(pass_dir, "cache")
    shutil.copytree(manifest["snapshot"], cache_dir)
    results_dir = os.path.join(pass_dir, "results")
    os.makedirs(results_dir)
    items = {item["key"]: item for item in manifest["images"]}
    prep_s = time.perf_counter() - tick

    tracer = make_tracer()
    try:
        cpu = _cpu_seconds(resource.RUSAGE_SELF)
        start = time.perf_counter()
        scanned = []
        for key in order:
            item = items[key]
            for label in ("patched", "again"):
                image = "%s:%s" % (key, label)
                tick = time.perf_counter()
                with tracer.span("image", image=image):
                    payload = scheduler.execute_job(
                        _firmware_job(image, item["path"], item["modules"]),
                        cache_dir=cache_dir, use_fleet_index=True,
                    )
                    with tracer.span("report"):
                        _write_json(
                            os.path.join(results_dir, image + ".json"),
                            payload["report"])
                scanned.append((key, image, time.perf_counter() - tick,
                                payload))
        wall = time.perf_counter() - start
        cpu = _cpu_seconds(resource.RUSAGE_SELF) - cpu
    finally:
        tracer.uninstall()

    rows = []
    for key, image, latency, payload in scanned:
        row = _row(image, latency, payload["report"], items[key]["truth"],
                   image)
        row["cache"] = payload["cache"]
        rows.append(row)
    # Scans come in (patched, again) pairs.
    for (key, image, _latency, payload), patched, repeat in zip(
            scanned[::2], rows[::2], rows[1::2]):
        delta = compute_delta(items[key]["old"]["image"], {
            "name": items[key]["path"], "sha256": payload["sha256"],
            "findings": canonical_report(payload["report"]),
            "fingerprints": payload["fingerprints"],
        })
        patched["violations"] += oracle.check_delta(image, delta,
                                                    items[key]["flipped"])
        repeat["violations"] += oracle.check_same(
            key + " rescans",
            [patched["findings_sha256"], repeat["findings_sha256"]])
    fleet = os.path.join(cache_dir, "fleet", "sum")
    return {"prep_s": prep_s, "wall_s": wall, "cpu_s": cpu,
            "peak_rss_mb": _peak_rss_mb(),
            "cache_bytes": disk_bytes(cache_dir, results_dir),
            "summary_bytes": disk_bytes(
                fleet, os.path.join(cache_dir, "summaries")),
            "summaries": sum(len(files) for _d, _s, files in os.walk(fleet)),
            "images": rows}


PASSES = {
    "cold-scan": cold_scan_pass,
    "fleet-service": fleet_service_pass,
    "rescan": rescan_pass,
}


def _attr_sum(recorded, name, key):
    return sum(s.attrs.get(key, 0) for s in recorded if s.name == name)


def span_summary(recorded, wall):
    """Per-layer seconds and counts of one traced pass."""
    functions = [s.duration for s in recorded if s.name == "symexec.function"]
    submits = sorted(s.duration for s in recorded if s.name == "queue.submit")
    return {
        "layers": spans.layer_seconds(recorded),
        "untraced_s": spans.untraced_seconds(recorded, wall),
        "firmware.nodes": _attr_sum(recorded, "firmware.extract", "nodes"),
        "cfg.blocks": _attr_sum(recorded, "detector.detect", "blocks"),
        "cfg.lift_blocks": _attr_sum(recorded, "detector.detect",
                                     "lift_blocks"),
        "symexec.functions": len(functions),
        "symexec.fn_max_s": max(functions, default=0.0),
        "symexec.truncated": _attr_sum(recorded, "detector.detect",
                                       "truncated"),
        "structure.resolved": _attr_sum(recorded, "structure.resolve",
                                        "resolved"),
        "detector.sinks": _attr_sum(recorded, "detector.detect", "sinks"),
        "detector.vulnerabilities": _attr_sum(
            recorded, "detector.detect", "vulnerabilities"),
        "queue.submit_ms": (1000.0 * submits[len(submits) // 2]
                            if submits else 0.0),
    }


def run_pass(workload, manifest, pass_dir, order, traced):
    """One timed pass; a traced pass also returns its spans and layers."""
    os.makedirs(pass_dir)
    tick = time.perf_counter()
    for name in PRELOAD:
        importlib.import_module(name)
    preload_s = time.perf_counter() - tick
    tracers = []

    def make_tracer():
        tracer = (spans.install(spans.Tracer()) if traced
                  else spans.NullTracer())
        tracers.append(tracer)
        return tracer

    result = PASSES[workload](manifest, pass_dir, order, make_tracer)
    result["prep_s"] += preload_s
    result["order"] = order
    if traced:
        recorded = tracers[0].spans
        result["spans"] = [span.to_dict() for span in recorded]
        result["traced"] = span_summary(recorded, result["wall_s"])
        for row in result["images"]:
            row["traced_layers"] = spans.layer_seconds(recorded,
                                                       image=row["image"])
    return result
