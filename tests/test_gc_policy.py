"""The analysis path's garbage-collection contract.

Two halves, both in :mod:`repro.core.detector`:

* the analysis creates no reference cycles, so reference counting
  alone frees a finished scan's CFG, IR and symbolic state;
* each ``DTaint`` stage runs with the cyclic collector paused through
  ``gc_paused``, which restores the caller's collector state on every
  exit and does nothing when the collector is already off (pool
  workers).
"""

import gc
import types

import pytest

from repro.core import DTaint, DTaintConfig
from repro.core.detector import gc_paused
from repro.errors import SymexecFault
from repro.faultinject import injected
from repro.loader.binary import load_elf
from repro.loader.link import build_executable

# Modules whose objects make up an image's CFG, IR and symbolic state.
ANALYSIS_MODULES = ("repro.cfg", "repro.ir", "repro.symexec",
                    "repro.firmware")


def _leak_label(obj):
    """Name an analysis object or a repro-defined function (the usual
    cycle is a self-recursive closure); ``None`` for anything else."""
    if isinstance(obj, types.FunctionType):
        if (obj.__module__ or "").startswith("repro."):
            return "%s.%s" % (obj.__module__, obj.__qualname__)
        return None
    kind = type(obj)
    if kind.__module__.startswith(ANALYSIS_MODULES):
        return "%s.%s" % (kind.__module__, kind.__qualname__)
    return None


_HANDLER = (
    ".globl %(name)s\n%(name)s:\n    push {lr}\n    ldr r0, =%(lit)s\n"
    "    bl getenv\n    bl system\n    pop {pc}\n.ltorg\n"
)


def _small_elf():
    asm = "".join(_HANDLER % {"name": n, "lit": "s_" + n} for n in "ab")
    asm += ".rodata\ns_a: .asciz \"A\"\ns_b: .asciz \"B\"\n"
    elf_bytes, _ = build_executable("arm", asm, imports=["getenv", "system"])
    return elf_bytes


@pytest.fixture
def collector_restored():
    """Leave the collector as the test found it, whatever the test did."""
    was_enabled = gc.isenabled()
    yield
    gc.set_debug(0)
    gc.garbage.clear()
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


def _corpus_blob():
    """dir645 at a small scale, packed the way a vendor ships it."""
    from repro.corpus.profiles import analyzed_module_prefixes, build_firmware
    from repro.firmware.image import pack_trx
    from repro.firmware.simplefs import SimpleFS

    built = build_firmware("dir645", scale=0.05)
    fs = SimpleFS()
    fs.add_dir("/bin")
    fs.add_file("/bin/%s" % built.profile.binary_name, built.elf_bytes)
    return (pack_trx(b"\x00" * 64, fs.pack()),
            tuple(analyzed_module_prefixes("dir645")))


def test_scan_creates_no_garbage_cycles(collector_restored):
    from repro.firmware import binwalk

    blob, modules = _corpus_blob()
    gc.collect()
    gc.disable()
    tree = binwalk.extract_tree(blob, name="dir645.trx")
    display, elf = binwalk.pick_target_binary(tree)
    detector = DTaint(load_elf(elf, name=display),
                      config=DTaintConfig(modules=modules), name=display)
    report = detector.run()
    assert report.findings
    del tree, elf, detector, report

    gc.set_debug(gc.DEBUG_SAVEALL)
    gc.collect()
    leaked = {_leak_label(obj) for obj in gc.garbage} - {None}
    assert sorted(leaked) == []


class _RecordingCache:
    """A summary cache that records the collector state it is called in."""

    def __init__(self):
        self.states = []

    def bind_functions(self, binary, functions, call_graph):
        self.states.append(("build_cfg", gc.isenabled()))

    def get(self, addr):
        self.states.append(("analyze_functions", gc.isenabled()))
        return None

    def put(self, addr, summary):
        pass


def test_stages_run_with_the_collector_paused(collector_restored):
    gc.enable()
    cache = _RecordingCache()
    detector = DTaint(load_elf(_small_elf()), summary_cache=cache)
    detector.build_cfg()
    assert gc.isenabled()
    detector.analyze_functions()
    assert gc.isenabled()
    assert {stage for stage, _ in cache.states} == {
        "build_cfg", "analyze_functions"}
    assert not any(enabled for _, enabled in cache.states)


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("stage", ["build_cfg", "analyze_functions",
                                   "run_dataflow", "detect", "run"])
def test_failing_stage_restores_the_collector(collector_restored, stage,
                                              enabled):
    if enabled:
        gc.enable()
    else:
        gc.disable()
    detector = DTaint(load_elf(_small_elf()))
    # A symexec fault raised where CFG recovery expects only CFG
    # errors escapes the stage instead of degrading one function.
    with injected(["symexec@cfg:a"]), pytest.raises(SymexecFault):
        getattr(detector, stage)()
    assert gc.isenabled() == enabled


@pytest.mark.parametrize("stage", ["build_cfg", "run"])
def test_stage_leaves_a_disabled_collector_disabled(collector_restored,
                                                    stage):
    """The pool-worker case: the collector is already off."""
    gc.disable()
    getattr(DTaint(load_elf(_small_elf())), stage)()
    assert not gc.isenabled()


def test_gc_paused_nests_and_restores(collector_restored):
    gc.enable()
    with gc_paused():
        assert not gc.isenabled()
        with gc_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()
