"""One step of a benchmark run, in its own interpreter.

Usage: ``python -m perfbench.child REQUEST.json RESULT.json``

``perfbench/run.py`` starts one of these per set-up, per timed pass and
for the fleet-service cross-check.  A fresh interpreter per pass means
the interned-value arenas, the phase profiler and the similarity memo
start empty every pass, and building the corpus never sets a pass's
peak RSS.  Every step but the fleet-service pass is single-threaded and
runs pinned to one processor, so runs do not differ by where the
scheduler happened to place them.
"""

import json
import os
import sys

from perfbench import workloads


def pin_to_one_cpu():
    """Pin to the highest-numbered allowed CPU (CPU 0 takes most IRQs)."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv):
    request_path, result_path = argv
    with open(request_path) as handle:
        request = json.load(handle)
    kind = request["kind"]
    if not (kind == "pass" and request["workload"] == "fleet-service"):
        pin_to_one_cpu()
    if kind == "setup":
        result = workloads.setup(request["workload"], request["out_dir"])
    else:
        with open(request["manifest"]) as handle:
            manifest = json.load(handle)
        if kind == "pass":
            result = workloads.run_pass(
                request["workload"], manifest, request["pass_dir"],
                request["order"], request["traced"])
        elif kind == "cross-check":
            result = workloads.cold_scan_shas(manifest, request["keys"])
        else:
            raise ValueError("unknown step %r" % kind)
    with open(result_path, "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1:])
