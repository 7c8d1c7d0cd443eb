"""In-memory spans around the program's public calls, and their arithmetic.

A traced pass installs wrappers around the public functions and methods
listed in :data:`INSTRUMENTED` -- from this file, never from inside
``src/`` -- records one :class:`Span` per call, and uninstalls them
afterwards.  Spans are kept in memory and written out with the run's
results.

Each span name maps to at most one layer metric (:data:`LAYER_OF`).
A layer's *self time* is its spans' durations minus the part of each
interval covered by child spans, so on one thread the self times of
all layers plus the untraced remainder add up to the pass's wall time.
Spans without a layer (``image``, ``pipeline.execute_job``) only
group their children; their own self time counts as untraced.
"""

import functools
import importlib
import itertools
import threading
import time
from contextlib import contextmanager


class Span:
    """One timed call: name, interval, parent span id, image id."""

    __slots__ = ("id", "name", "parent", "image", "start", "end", "attrs")

    def __init__(self, span_id, name, parent, image, start=0.0, end=0.0):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.image = image
        self.start = start
        self.end = end
        self.attrs = {}

    @property
    def duration(self):
        return self.end - self.start

    def to_dict(self):
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "image": self.image, "start": self.start, "end": self.end,
                "attrs": self.attrs}


class Tracer:
    """Records spans; each thread nests its own spans."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name, image=None):
        """Time the enclosed block; children inherit the image id."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if image is None and parent is not None:
            image = parent.image
        span = Span(next(self._ids), name,
                    parent.id if parent is not None else None, image)
        self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def wrap(self, owner, attr, name, measure=None):
        """Replace ``owner.attr`` by a spanned call; ``measure(result)``
        returns counts stored on the span."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name) as span:
                result = original(*args, **kwargs)
                if measure is not None:
                    span.attrs.update(measure(result))
                return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class NullTracer:
    """The untraced pass: same interface, records nothing."""

    @contextmanager
    def span(self, name, image=None):
        yield None

    def uninstall(self):
        pass


def _report_counts(report):
    counters = report.phase_profile.get("counters", {})
    return {
        "blocks": report.block_count,
        "lift_blocks": counters.get("lift_blocks", 0),
        "sinks": report.sink_count,
        "vulnerabilities": len(report.vulnerabilities),
        "truncated": report.truncated_summaries,
    }


# (module, attribute path, span name, measure of the call's result).
INSTRUMENTED = (
    ("repro.firmware.binwalk", "extract_tree", "firmware.extract",
     lambda tree: {"nodes": len(tree.nodes())}),
    ("repro.loader.binary", "load_elf", "loader.load", None),
    ("repro.pipeline.scheduler", "execute_job", "pipeline.execute_job",
     None),
    ("repro.core.detector", "DTaint.build_cfg", "cfg.build", None),
    ("repro.core.detector", "DTaint.analyze_functions", "symexec.stage",
     None),
    ("repro.symexec.engine", "SymbolicEngine.analyze_function",
     "symexec.function", None),
    ("repro.core.detector", "DTaint.run_dataflow", "dataflow.stage", None),
    ("repro.core.detector", "infer_types", "alias.types", None),
    ("repro.alias.dtaint", "DTaintAliasEngine.apply", "alias.apply", None),
    ("repro.core.structure", "address_taken_functions",
     "structure.candidates", None),
    ("repro.core.detector", "resolve_indirect_calls", "structure.resolve",
     lambda resolved: {"resolved": len(resolved)}),
    ("repro.core.interproc", "InterproceduralAnalysis.run",
     "interproc.run", None),
    ("repro.core.detector", "DTaint.detect", "detector.detect",
     _report_counts),
    ("repro.core.report", "Report.to_dict", "report.to_dict", None),
    ("repro.pipeline.cache", "ReportCache.get", "cache.report_get", None),
    ("repro.pipeline.cache", "ReportCache.put", "cache.report_put", None),
    ("repro.increment.reuse", "IncrementalSummaryCache.get", "cache.get",
     None),
    ("repro.increment.reuse", "IncrementalSummaryCache.put", "cache.put",
     None),
    ("repro.increment.reuse", "IncrementalSummaryCache.flush",
     "cache.flush", None),
    ("repro.increment.reuse", "IncrementalSummaryCache.lookup_image_report",
     "cache.image_get", None),
    ("repro.increment.reuse", "IncrementalSummaryCache.store_image_report",
     "cache.image_put", None),
    ("repro.increment.reuse", "IncrementalSummaryCache.bind_functions",
     "increment.fingerprint", None),
    ("repro.increment.reuse", "IncrementalSummaryCache.image_fingerprint",
     "increment.image_fingerprint", None),
    ("repro.service.daemon", "AnalysisDaemon.submit", "queue.submit", None),
    ("repro.service.daemon", "AnalysisDaemon.job_status", "queue.status",
     None),
    ("repro.service.queue", "JobQueue.claim_batch", "queue.claim", None),
    ("repro.pipeline.scheduler", "FleetScheduler.run", "workerpool.run",
     None),
    ("repro.service.store", "ResultsDB.record_run", "store.publish", None),
)

# Span name -> the layer its self time is billed to.  The report step
# the benchmark itself brackets is the span named ``report``.
LAYER_OF = {
    "firmware.extract": "firmware.extract_s",
    "loader.load": "loader.load_s",
    "cfg.build": "cfg.build_s",
    "symexec.stage": "symexec.s",
    "symexec.function": "symexec.s",
    "dataflow.stage": "interproc.s",
    "alias.types": "alias.types_s",
    "alias.apply": "alias.s",
    "structure.candidates": "structure.s",
    "structure.resolve": "structure.s",
    "interproc.run": "interproc.s",
    "detector.detect": "detector.s",
    "report": "report.s",
    "report.to_dict": "report.s",
    "cache.report_get": "cache.get_s",
    "cache.get": "cache.get_s",
    "cache.image_get": "cache.get_s",
    "cache.report_put": "cache.flush_s",
    "cache.put": "cache.flush_s",
    "cache.flush": "cache.flush_s",
    "cache.image_put": "cache.flush_s",
    "increment.fingerprint": "increment.fingerprint_s",
    "increment.image_fingerprint": "increment.fingerprint_s",
    "queue.submit": "queue.s",
    "queue.status": "queue.s",
    "queue.claim": "queue.s",
    "workerpool.run": "workerpool.s",
    "store.publish": "store.publish_s",
}


def install(tracer):
    """Wrap every :data:`INSTRUMENTED` call with ``tracer`` spans."""
    for module_name, path, name, measure in INSTRUMENTED:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        tracer.wrap(owner, attr, name, measure)
    return tracer


# -- arithmetic --------------------------------------------------------------


def union_length(intervals):
    """Total length covered by ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans):
    """span id -> duration minus the part its children cover."""
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered = union_length(
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.id, ())
            if child.end > span.start and child.start < span.end
        )
        out[span.id] = span.duration - covered
    return out


def layer_seconds(spans, image=None):
    """layer -> summed self seconds (optionally one image's spans)."""
    selves = self_times(spans)
    out = {}
    for span in spans:
        layer = LAYER_OF.get(span.name)
        if layer is None or (image is not None and span.image != image):
            continue
        out[layer] = out.get(layer, 0.0) + selves[span.id]
    return out


def untraced_seconds(spans, wall):
    """Part of ``wall`` during which no layer span was open."""
    covered = union_length(
        (span.start, span.end) for span in spans if span.name in LAYER_OF
    )
    return wall - covered
