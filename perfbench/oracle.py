"""Correctness oracle over the program's outputs, independent of the detector.

The expected answer comes from the corpus builder's planted ground
truth, never from another detector run:

* every planted ``vulnerable=True`` function has an unsanitized finding
  whose sink address lies inside that function, and every decoy has
  none -- the rule of ``repro.eval.tables._match_findings``;
* one image's ``findings_sha256`` is the same on every pass, and the
  same whichever workload path produced it;
* a version pair's delta shows exactly the flipped handler as ``fixed``
  and nothing as ``new``.

Each check returns a list of violation strings; empty means correct.
"""


def truth_ranges(built):
    """Ground truth of a corpus build with each function's address range."""
    rows = []
    for item in built.ground_truth:
        symbol = built.binary.functions.get(item.function)
        low = symbol.addr if symbol is not None else 0
        high = symbol.addr + symbol.size if symbol is not None else 0
        rows.append({"function": item.function, "kind": item.kind,
                     "vulnerable": bool(item.vulnerable),
                     "low": low, "high": high})
    return rows


def check_ground_truth(label, findings, truth):
    """Planted bugs found, decoys clean, in a report or canonical doc."""
    unsanitized = [
        f for f in findings.get("vulnerable_paths", []) or []
        if not f.get("sanitized")
    ]
    violations = []
    for item in truth:
        if item["high"] <= item["low"]:
            violations.append("%s: no symbol for ground-truth function %s"
                              % (label, item["function"]))
            continue
        hits = [f for f in unsanitized
                if item["low"] <= f.get("sink_addr", -1) < item["high"]]
        if item["vulnerable"] and not hits:
            violations.append("%s: planted bug in %s not found"
                              % (label, item["function"]))
        elif not item["vulnerable"] and hits:
            violations.append("%s: decoy %s has %d finding(s)"
                              % (label, item["function"], len(hits)))
    return violations


def check_same(label, shas):
    """All observed ``findings_sha256`` values of one image agree."""
    distinct = sorted(set(shas))
    if len(distinct) > 1:
        return ["%s: findings_sha256 differs between runs: %s"
                % (label, ", ".join(s[:12] for s in distinct))]
    return []


def check_delta(label, delta, flipped):
    """The delta reports exactly ``flipped`` fixed and nothing new."""
    violations = []
    fixed = sorted({f.get("function") for f in delta["findings"]["fixed"]})
    if fixed != [flipped]:
        violations.append("%s: fixed functions %s, expected [%s]"
                          % (label, fixed, flipped))
    new = sorted({f.get("function") for f in delta["findings"]["new"]})
    if new:
        violations.append("%s: unexpected new findings in %s" % (label, new))
    return violations
