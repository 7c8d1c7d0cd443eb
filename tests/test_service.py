"""The service subsystem: warm pool, durable queue, sqlite store, REST.

Covers the acceptance properties of DTaint-as-a-service:

* the worker pool stays warm across scheduler runs and replaces
  crashed workers without losing isolation;
* queue lifecycle: idempotent submission, priority ordering,
  submit → cancel, crash-safe resume on daemon restart;
* the results store: record/export round trips, byte-identical JSON
  export, fault-injected mid-write rollback, corrupt database
  quarantine (writers only -- the reader leaves bad files alone),
  retention GC;
* end-to-end REST: submit over HTTP, poll to completion, query
  findings — with the same ``findings_sha256`` an in-process run
  produces.
"""

import json
import os
import threading
import time

import pytest

from repro.errors import MalformedInput
from repro.faultinject import injected
from repro.loader.link import build_executable
from repro.pipeline import (
    FleetJob,
    FleetScheduler,
    JobResult,
    WorkerPool,
    execute_job,
    findings_fingerprint,
    image_document,
    rollup_document,
)
from repro.service import (
    AnalysisDaemon,
    JobQueue,
    ResultsDB,
    ServiceClient,
    ServiceError,
    dedup_key,
    export_run_dir,
    job_spec,
    serve,
    verify_roundtrip,
)

_VULN_ASM = (
    ".globl main\nmain:\n    push {lr}\n    ldr r0, =n\n"
    "    bl getenv\n    bl system\n    pop {pc}\n.ltorg\n"
    ".rodata\nn: .asciz \"CMD\"\n"
)


def _small_elf():
    elf_bytes, _ = build_executable(
        "arm", _VULN_ASM, imports=["getenv", "system"]
    )
    return elf_bytes


@pytest.fixture
def elf_path(tmp_path):
    path = tmp_path / "handler.elf"
    path.write_bytes(_small_elf())
    return str(path)


def _job_result(elf_path, job_id="img"):
    """A terminal JobResult by running the job in-process."""
    job = FleetJob(job_id=job_id, kind="elf", path=elf_path)
    payload = execute_job(job)
    return JobResult(
        job=job, status="ok", attempts=1, report=payload["report"],
        sha256=payload["sha256"], cache=payload["cache"],
        resources=payload["resources"], elapsed=0.5,
    )


# ---------------------------------------------------------------------------


class TestWorkerPool:
    def test_scheduler_reuses_warm_workers_across_runs(self, elf_path):
        scheduler = FleetScheduler(jobs=1, backoff=0.0)
        with scheduler:
            for round_no in range(3):
                job = FleetJob(job_id="r%d" % round_no, kind="elf",
                               path=elf_path)
                results = scheduler.run([job])
                assert results[0].ok
            # Three batches, one worker: the pool forked exactly once.
            assert scheduler.pool.spawned_total == 1
            assert scheduler.pool.warm_count == 1
        assert scheduler._pool is None

    def test_crashed_worker_is_discarded_and_replaced(self, elf_path):
        scheduler = FleetScheduler(jobs=1, retries=1, backoff=0.0)
        with scheduler:
            crash = FleetJob(job_id="boom", kind="elf", path=elf_path,
                             fault="crash", fault_attempts=1)
            results = scheduler.run([crash])
            assert results[0].ok and results[0].attempts == 2
            assert scheduler.pool.discarded_total == 1
            assert scheduler.pool.spawned_total == 2

    def test_pool_recycles_after_max_jobs(self, elf_path):
        pool = WorkerPool(max_jobs_per_worker=1)
        scheduler = FleetScheduler(jobs=1, pool=pool, backoff=0.0)
        for round_no in range(2):
            job = FleetJob(job_id="r%d" % round_no, kind="elf",
                           path=elf_path)
            assert scheduler.run([job])[0].ok
        assert pool.recycled_total == 2
        assert pool.spawned_total == 2
        pool.close()
        # A shared pool is not closed by the scheduler.
        scheduler.close()

    def test_parallel_batches_share_results_with_serial(self, elf_path):
        serial = FleetScheduler(jobs=1, backoff=0.0)
        parallel = FleetScheduler(jobs=2, backoff=0.0)
        jobs = [
            FleetJob(job_id="a", kind="elf", path=elf_path),
            FleetJob(job_id="b", kind="elf", path=elf_path),
        ]
        with serial, parallel:
            fps_serial = [
                findings_fingerprint(r.report) for r in serial.run(jobs)
            ]
            fps_parallel = [
                findings_fingerprint(r.report) for r in parallel.run(jobs)
            ]
        assert fps_serial == fps_parallel


# ---------------------------------------------------------------------------


class TestJobQueue:
    def _queue(self, tmp_path):
        db = ResultsDB(str(tmp_path / "dtaint.sqlite"))
        return db, JobQueue(db)

    def test_submit_is_idempotent(self, tmp_path, elf_path):
        db, queue = self._queue(tmp_path)
        spec = job_spec("elf", path=elf_path)
        job_id, outcome = queue.submit(spec)
        assert outcome == "created"
        again, outcome2 = queue.submit(spec)
        assert (again, outcome2) == (job_id, "deduplicated")
        assert queue.counts()["pending"] == 1
        db.close()

    def test_dedup_key_tracks_file_content(self, tmp_path, elf_path):
        spec = job_spec("elf", path=elf_path)
        before = dedup_key(spec)
        with open(elf_path, "ab") as handle:
            handle.write(b"\x00")
        assert dedup_key(spec) != before

    def test_priority_order_and_fifo_within_priority(self, tmp_path):
        db, queue = self._queue(tmp_path)
        low, _ = queue.submit(job_spec("profile", key="dir645"))
        high, _ = queue.submit(
            job_spec("profile", key="dgn1000"), priority=10
        )
        mid, _ = queue.submit(
            job_spec("profile", key="uniview"), priority=5
        )
        claimed = queue.claim_batch(limit=3)
        assert [job["job_id"] for job in claimed] == [high, mid, low]
        db.close()

    def test_submit_then_cancel(self, tmp_path):
        db, queue = self._queue(tmp_path)
        job_id, _ = queue.submit(job_spec("profile", key="dir645"))
        assert queue.cancel(job_id) == "cancelled"
        assert queue.get(job_id)["state"] == "cancelled"
        # Cancelled jobs are never claimed.
        assert queue.claim_batch(limit=10) == []
        # A second cancel is a no-op.
        assert queue.cancel(job_id) == "already_terminal"
        assert queue.cancel(987654) == "missing"
        db.close()

    def test_cancel_running_is_flagged_not_killed(self, tmp_path):
        db, queue = self._queue(tmp_path)
        job_id, _ = queue.submit(job_spec("profile", key="dir645"))
        assert queue.claim_batch(limit=1)[0]["job_id"] == job_id
        assert queue.cancel(job_id) == "cancel_requested"
        assert queue.get(job_id)["state"] == "running"
        assert queue.get(job_id)["cancel_requested"]
        db.close()

    def test_failed_job_is_revived_on_resubmit(self, tmp_path):
        db, queue = self._queue(tmp_path)
        spec = job_spec("profile", key="dir645")
        job_id, _ = queue.submit(spec)
        queue.claim_batch(limit=1)
        queue.fail(job_id, error="boom", error_type="WorkerCrash")
        assert queue.get(job_id)["state"] == "failed"
        same_id, outcome = queue.submit(spec)
        assert (same_id, outcome) == (job_id, "revived")
        job = queue.get(job_id)
        assert job["state"] == "pending" and job["error"] == ""
        db.close()

    def test_restart_resumes_running_jobs(self, tmp_path):
        path = str(tmp_path / "dtaint.sqlite")
        db = ResultsDB(path)
        queue = JobQueue(db)
        job_id, _ = queue.submit(job_spec("profile", key="dir645"))
        queue.claim_batch(limit=1)
        assert queue.get(job_id)["state"] == "running"
        db.close()                    # daemon dies mid-job
        db2 = ResultsDB(path)         # next daemon start
        queue2 = JobQueue(db2)
        assert queue2.recover() == 1
        job = queue2.get(job_id)
        assert job["state"] == "pending" and job["started_ts"] is None
        db2.close()


# ---------------------------------------------------------------------------


class TestResultsDB:
    def test_record_run_round_trips_image_documents(self, tmp_path,
                                                    elf_path):
        result = _job_result(elf_path)
        json_doc = image_document(result)
        db = ResultsDB(str(tmp_path / "dtaint.sqlite"))
        run_id, image_ids = db.record_run([result], 1.25)
        stored = db.image_documents(run_id)[result.job.job_id]
        assert stored == json_doc
        assert verify_roundtrip(stored)
        assert db.image_document(image_ids["img"]) == json_doc
        db.close()

    def test_findings_are_indexed_and_queryable(self, tmp_path, elf_path):
        result = _job_result(elf_path)
        db = ResultsDB(str(tmp_path / "dtaint.sqlite"))
        db.record_run([result], 1.0)
        rows = db.query_findings(kind="command-injection")
        assert rows
        assert all(
            row["finding"]["kind"] == "command-injection" for row in rows
        )
        assert db.query_findings(function="no_such_function") == []
        db.close()

    def test_mid_write_fault_rolls_back_to_previous_state(self, tmp_path,
                                                          elf_path):
        result = _job_result(elf_path)
        db = ResultsDB(str(tmp_path / "dtaint.sqlite"))
        db.record_run([result], 1.0)
        before_runs = db.run_ids()
        before_stats = db.stats()
        with injected(["malformed@results:dtaint.sqlite"]):
            with pytest.raises(MalformedInput):
                db.record_run([result], 2.0)
        # The failed batch left no partial rows behind.
        assert db.run_ids() == before_runs
        assert db.stats()["images"] == before_stats["images"]
        assert db.stats()["findings"] == before_stats["findings"]
        # And the store recovers once the fault is gone.
        run_id, _ = db.record_run([result], 3.0)
        assert db.rollup(run_id)["wall_seconds"] == 3.0
        db.close()

    def test_unreadable_db_is_quarantined(self, tmp_path):
        path = str(tmp_path / "dtaint.sqlite")
        with open(path, "wb") as handle:
            handle.write(b"this is definitely not a sqlite database")
        db = ResultsDB(path)
        assert db.quarantined == 1
        assert os.path.exists(path + ".corrupt")
        # The fresh store works.
        assert db.run_ids() == []
        db.close()

    def test_gc_retention(self, tmp_path, elf_path):
        result = _job_result(elf_path)
        db = ResultsDB(str(tmp_path / "dtaint.sqlite"))
        for _ in range(4):
            db.record_run([result], 1.0)
        queue = JobQueue(db)
        for key in ("dir645", "dgn1000", "uniview"):
            job_id, _ = queue.submit(job_spec("profile", key=key))
            queue.claim_batch(limit=1)
            queue.fail(job_id, error="x")
            db.append_event(job_id, {"seq": 0, "ts": 0.0, "event": "e"})
        dry = db.gc(retain_runs=2, retain_jobs=1, dry_run=True)
        assert dry["runs_removed"] == 2 and dry["jobs_removed"] == 2
        assert len(db.run_ids()) == 4          # dry run touched nothing
        stats = db.gc(retain_runs=2, retain_jobs=1)
        assert stats["runs_removed"] == 2
        assert stats["jobs_removed"] == 2
        assert stats["events_removed"] == 2
        assert len(db.run_ids()) == 2
        assert queue.counts()["failed"] == 1
        # Cascades removed the dropped runs' images and findings.
        remaining = db.stats()
        assert remaining["images"] == 2
        db.close()


class TestExport:
    def _recorded_run(self, tmp_path, elf_path, job_ids=("img-a", "img-b")):
        results = [_job_result(elf_path, job_id=job_id)
                   for job_id in job_ids]
        db = ResultsDB(str(tmp_path / "dtaint.sqlite"))
        run_id, _ = db.record_run(
            results, 2.5, documents={"delta.json": {"images": {}}},
        )
        return db, run_id, results

    def test_export_is_byte_identical_to_document_builders(self, tmp_path,
                                                           elf_path):
        db, run_id, results = self._recorded_run(tmp_path, elf_path)
        export_dir = str(tmp_path / "export")
        export_run_dir(db, run_id, export_dir)
        db.close()
        expected = {
            "fleet.json": rollup_document(results, 2.5),
            "delta.json": {"images": {}},
        }
        for result in results:
            expected[os.path.join("images", result.job.job_id + ".json")] = (
                image_document(result)
            )
        for relative, document in expected.items():
            with open(os.path.join(export_dir, relative)) as handle:
                assert handle.read() == json.dumps(
                    document, indent=2, sort_keys=True), relative
        for result in results:
            assert image_document(result)["findings_sha256"] == (
                findings_fingerprint(result.report)
            )

    def test_export_keeps_hostile_job_ids_inside_images(self, tmp_path,
                                                        elf_path):
        db, run_id, _ = self._recorded_run(
            tmp_path, elf_path, job_ids=("../../escaped", "img-b"),
        )
        export_dir = str(tmp_path / "out2" / "deep")
        written = export_run_dir(db, run_id, export_dir)
        db.close()
        root = os.path.realpath(export_dir) + os.sep
        assert all(os.path.realpath(p).startswith(root) for p in written)
        assert not os.path.exists(str(tmp_path / "out2" / "escaped.json"))
        assert sorted(os.listdir(os.path.join(export_dir, "images"))) == [
            ".._.._escaped.json", "img-b.json",
        ]

    def test_baseline_documents_are_newest_per_job_across_runs(
            self, tmp_path, elf_path):
        db = ResultsDB(str(tmp_path / "dtaint.sqlite"))
        first = _job_result(elf_path, job_id="img-a")
        db.record_run([first, _job_result(elf_path, job_id="img-b")], 1.0)
        rescan = _job_result(elf_path, job_id="img-a")
        rescan.attempts = 2
        db.record_run([rescan], 1.0)
        baseline = db.baseline_documents()
        db.close()
        assert sorted(baseline) == ["img-a", "img-b"]
        assert baseline["img-a"]["attempts"] == 2


class TestResultsReader:
    """``--baseline``, ``results export`` and ``cache gc --db`` read
    through one reader that never creates, renames or rewrites."""

    def _not_a_db(self, tmp_path):
        path = tmp_path / "base.json"
        path.write_text('{"images": {}}')
        return str(path)

    def _assert_untouched(self, path):
        with open(path) as handle:
            assert handle.read() == '{"images": {}}'
        assert not os.path.exists(path + ".corrupt")

    @pytest.mark.parametrize("argv", [
        ["results", "export", "{out}", "--db", "{db}"],
        ["fleet-scan", "dir645", "--scale", "0.05", "--out", "{out}",
         "--baseline", "{db}"],
        ["cache", "gc", "--cache-dir", "{out}", "--db", "{db}"],
    ])
    def test_non_sqlite_file_exits_2_and_is_left_alone(self, tmp_path,
                                                       capsys, argv):
        from repro.cli import main as cli_main

        db_path = self._not_a_db(tmp_path)
        out = str(tmp_path / "out")
        argv = [a.format(out=out, db=db_path) for a in argv]
        assert cli_main(argv) == 2
        assert "not a results database: %s" % db_path in (
            capsys.readouterr().err
        )
        self._assert_untouched(db_path)
        assert not os.path.exists(os.path.join(out, "dtaint.sqlite"))

    @pytest.mark.parametrize("command", ["export", "baseline"])
    def test_missing_path_exits_2_naming_it(self, tmp_path, capsys,
                                            command):
        from repro.cli import main as cli_main

        missing = str(tmp_path / "nonexistent")
        out = str(tmp_path / "out")
        argv = (["results", "export", out, "--db", missing]
                if command == "export" else
                ["fleet-scan", "dir645", "--scale", "0.05", "--out", out,
                 "--baseline", missing, "--fail-on-findings"])
        assert cli_main(argv) == 2
        assert missing in capsys.readouterr().err
        assert not os.path.exists(missing)
        # Nothing ran, so the run's output directory was not created.
        assert not os.path.exists(out)

    def test_directory_without_store_exits_2_naming_db_path(self, tmp_path,
                                                            capsys):
        from repro.cli import main as cli_main

        empty = tmp_path / "empty"
        empty.mkdir()
        assert cli_main(["results", "export", str(tmp_path / "out"),
                         "--db", str(empty)]) == 2
        assert str(empty / "dtaint.sqlite") in capsys.readouterr().err
        assert os.listdir(str(empty)) == []

    def test_reader_accepts_db_file_and_out_dir(self, tmp_path, elf_path):
        from repro.service import open_results_db

        path = str(tmp_path / "dtaint.sqlite")
        with ResultsDB(path) as db:
            db.record_run([_job_result(elf_path)], 1.0)
        for target in (path, str(tmp_path)):
            with open_results_db(target) as db:
                assert list(db.baseline_documents()) == ["img"]

    def test_cache_gc_db_applies_retention_to_an_out_dir(self, tmp_path,
                                                         elf_path, capsys):
        from repro.cli import main as cli_main

        with ResultsDB(str(tmp_path / "dtaint.sqlite")) as db:
            for _ in range(3):
                db.record_run([_job_result(elf_path)], 1.0)
        assert cli_main(["cache", "gc", "--cache-dir",
                         str(tmp_path / "cache"), "--db", str(tmp_path),
                         "--retain-runs", "1"]) == 0
        assert "removed 2 runs" in capsys.readouterr().out
        with ResultsDB(str(tmp_path / "dtaint.sqlite")) as db:
            assert len(db.run_ids()) == 1

    def test_reader_never_quarantines_a_torn_database(self, tmp_path):
        from repro.errors import PipelineError
        from repro.service import open_results_db

        path = str(tmp_path / "dtaint.sqlite")
        blob = b"SQLite format 3\x00" + b"\xff" * 200
        with open(path, "wb") as handle:
            handle.write(blob)
        with pytest.raises(PipelineError, match="dtaint.sqlite"):
            open_results_db(path)
        with open(path, "rb") as handle:
            assert handle.read() == blob
        assert not os.path.exists(path + ".corrupt")


# ---------------------------------------------------------------------------


class TestDaemon:
    def test_run_once_processes_submission(self, tmp_path, elf_path):
        with AnalysisDaemon(str(tmp_path / "dtaint.sqlite"),
                            workers=1) as daemon:
            job = daemon.submit(job_spec("elf", path=elf_path))
            assert job["state"] == "pending"
            assert daemon.run_once() == 1
            finished = daemon.job_status(job["job_id"])
            assert finished["state"] == "done"
            findings = daemon.job_findings(job["job_id"])
            assert findings["findings_sha256"]
            assert verify_roundtrip(findings["document"])
            events = daemon.job_events(job["job_id"])
            kinds = [event["event"] for event in events]
            assert "job_start" in kinds and "job_finish" in kinds

    def test_quarantined_job_marks_queue_failed(self, tmp_path):
        with AnalysisDaemon(str(tmp_path / "dtaint.sqlite"),
                            workers=1, retries=0) as daemon:
            job = daemon.submit(
                job_spec("elf", path=str(tmp_path / "missing.elf"))
            )
            assert daemon.run_once() == 1
            failed = daemon.job_status(job["job_id"])
            assert failed["state"] == "failed"
            assert failed["error_type"]

    def test_restart_resumes_pending_work(self, tmp_path, elf_path):
        db_path = str(tmp_path / "dtaint.sqlite")
        first = AnalysisDaemon(db_path, workers=1)
        job = first.submit(job_spec("elf", path=elf_path))
        # Simulate a crash after the job was claimed but before it ran.
        first.queue.claim_batch(limit=1)
        first.scheduler.close()
        first.db.close()
        with AnalysisDaemon(db_path, workers=1) as second:
            assert second.start() == 1         # recovered the claim
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                status = second.job_status(job["job_id"])
                if status["state"] == "done":
                    break
                time.sleep(0.05)
            assert second.job_status(job["job_id"])["state"] == "done"


# ---------------------------------------------------------------------------


@pytest.fixture
def running_service(tmp_path):
    daemon = AnalysisDaemon(str(tmp_path / "dtaint.sqlite"), workers=1)
    server = serve(daemon, host="127.0.0.1", port=0, allow_shutdown=False)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    daemon.start()
    client = ServiceClient("http://127.0.0.1:%d" % server.server_address[1])
    try:
        yield daemon, client
    finally:
        server.shutdown()
        server.server_close()
        daemon.stop()


class TestRestAPI:
    def test_end_to_end_submit_poll_findings(self, running_service,
                                             elf_path):
        _daemon, client = running_service
        assert client.healthz()["ok"]
        job = client.submit(kind="elf", path=elf_path)
        assert job["outcome"] == "created"
        # Idempotent over HTTP too.
        assert client.submit(kind="elf", path=elf_path)["outcome"] \
            == "deduplicated"
        done = client.wait(job["job_id"], timeout=120)
        assert done["state"] == "done"
        findings = client.findings(job["job_id"])
        # The service fingerprint is byte-identical to an in-process
        # run of the same image.
        reference = execute_job(
            FleetJob(job_id="ref", kind="elf", path=elf_path)
        )
        assert findings["findings_sha256"] == \
            findings_fingerprint(reference["report"])
        sections = findings["findings"]
        assert sections["vulnerabilities"]
        # Progress stream: resumable by event_id cursor.
        events = client.events(job["job_id"])
        assert [e["event"] for e in events].count("job_finish") == 1
        cursor = events[-1]["event_id"]
        assert client.events(job["job_id"], after=cursor) == []
        # Fleet-wide findings query.
        rows = client.query_findings(kind="command-injection")
        assert rows and rows[0]["job_id"].startswith("q")
        # Stats reflect the processed job and the warm pool.
        stats = client.stats()
        assert stats["queue"]["done"] == 1
        assert stats["jobs_processed"] == 1

    def test_cancel_over_rest(self, tmp_path):
        # A daemon whose dispatcher never runs: submissions stay
        # pending, so cancel always wins the race.
        daemon = AnalysisDaemon(str(tmp_path / "dtaint.sqlite"), workers=1)
        server = serve(daemon, host="127.0.0.1", port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(
            "http://127.0.0.1:%d" % server.server_address[1]
        )
        try:
            job = client.submit(kind="profile", key="dir645", scale=0.05)
            assert client.cancel(job["job_id"])["disposition"] \
                == "cancelled"
            assert client.job(job["job_id"])["state"] == "cancelled"
        finally:
            server.shutdown()
            server.server_close()
            daemon.scheduler.close()
            daemon.db.close()

    def test_error_paths(self, running_service):
        _daemon, client = running_service
        with pytest.raises(ServiceError) as excinfo:
            client.job(424242)
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client.submit(kind="nonsense")
        assert excinfo.value.status == 400
        # Shutdown is disabled unless the daemon opted in.
        with pytest.raises(ServiceError) as excinfo:
            client.shutdown()
        assert excinfo.value.status == 403
