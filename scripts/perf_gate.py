#!/usr/bin/env python3
"""Host-time gate: `python3 scripts/perf_gate.py`.

Runs `perfbench/run.py --seconds 3 --trace 0` on every workload of
scripts/perf_anchor.json at the anchor's seed. A workload fails when
its run is not correct or has failed points, when host_ns_per_line,
setup_s or peak_rss_mb is worse than the anchor by more than its
BENCHMARK.json bound, or when paper_err rises or law_pass_frac falls
at all (both are deterministic at a fixed seed). Prints each metric's
ratio to the anchor, then self-tests: the same results must fail
against an anchor tampered the wrong way in any one field. Exit 0 when
the gate passes and every tampered field trips it.
"""

import copy
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ANCHOR = os.path.join(ROOT, "scripts", "perf_anchor.json")
SECONDS = 3
EXACT = ("paper_err", "law_pass_frac")


def limits():
    """{metric: (better, bound)} from BENCHMARK.json; exact ones get 0."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["end_to_end"]
    return {m["name"]: (m["better"], 0.0 if m["name"] in EXACT
                        else m["bound"]) for m in declared}


def run_perfbench(anchor):
    """{workload: result}; a run that exits nonzero is not correct."""
    results = {}
    for name, ref in anchor.items():
        cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", name, "--seed", str(ref.get("seed", 0)),
               "--seconds", str(SECONDS), "--trace", "0"]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = out.stdout.splitlines()
        if out.returncode != 0 or not lines:
            results[name] = {"correct": False, "failed": -1}
            continue
        doc = json.loads(lines[-1])
        results[name] = {
            "correct": doc["correct"], "failed": doc["failed"],
            "sim_digest": next(l.split()[2] for l in lines
                               if l.startswith("sim_digest ")),
            "metrics": {k: v["value"] for k, v in doc["metrics"].items()}}
    return results


def gate(results, anchor, lim, verbose):
    """The failures of @p results against @p anchor, as (workload,
    metric, message); metric "correct" for a run that is not correct."""
    bad = []
    for name, ref in anchor.items():
        res = results[name]
        if not res["correct"] or res["failed"] != 0:
            bad.append((name, "correct", "run not correct or failed points"))
            continue
        cols = []
        for metric, (better, bound) in lim.items():
            got, want = res["metrics"][metric], ref[metric]
            worse = (got > want * (1 + bound) if better == "lower"
                     else got < want * (1 - bound))
            cols.append("%s %.4g/%.4g=%.3f%s" % (
                metric, got, want, got / want if want else float("nan"),
                " WORSE" if worse else ""))
            if worse:
                bad.append((name, metric, "%.6g vs anchor %.6g (bound %g)"
                            % (got, want, bound)))
        if verbose:
            print("%s [%s]: %s" % (name, res["sim_digest"], "  ".join(cols)))
    return bad


def self_test(results, anchor, lim):
    """Fields that, tampered the wrong way, do not fail the gate."""
    missed = []
    for name in anchor:
        for metric, (better, _) in lim.items():
            tampered = copy.deepcopy(anchor)
            v = tampered[name][metric]
            if better == "lower":
                tampered[name][metric] = v / 10 if v > 0 else -1.0
            else:
                tampered[name][metric] = v * 10 if v > 0 else 1.0
            tripped = {(n, m) for n, m, _ in gate(results, tampered, lim,
                                                  False)}
            if (name, metric) not in tripped:
                missed.append("%s.%s" % (name, metric))
    return missed


def main():
    with open(ANCHOR) as f:
        anchor = json.load(f)
    lim = limits()
    results = run_perfbench(anchor)
    bad = gate(results, anchor, lim, True)
    for name, metric, msg in bad:
        print("perf gate FAILED: %s %s: %s" % (name, metric, msg))
    missed = self_test(results, anchor, lim)
    for m in missed:
        print("perf gate self-test FAILED: tampered %s did not trip" % m)
    sys.exit(1 if bad or missed else 0)


if __name__ == "__main__":
    main()
