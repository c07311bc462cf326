#!/usr/bin/env python3
"""Run the headline benches and distill a machine-readable report.

Runs bench_fig2_nvram_bw, bench_fig4_2lm_microbench and
bench_table1_amplification from an existing build tree inside a
scratch directory, extracts the headline metrics from their CSVs and
console tables, exercises the causal tracer at two seeds, times the
sweep/access engines against each other, runs the maintenance
interference sweep and the queued-controller load sweep, and writes
everything to one JSON file (default BENCH_PR10.json):

  - fig2: peak bandwidth per figure/variant (GB/s);
  - fig4: per-scenario effective bandwidth and device-traffic split;
  - table1: amplification and per-cause blame per request class;
  - causal_seed_comparison: same seed => byte-identical folded
    stacks, a different seed => same demand stream, different phase;
  - flags_off: the fig4 CSV is byte-identical with and without the
    causal flags (tracing is strictly opt-in);
  - engine_comparison: wall-clock for --jobs=1 vs --jobs=<ncpu> and
    --per-line vs batched on fig2/fig4, with the CSV digests proving
    all variants produced byte-identical results;
  - maintenance: amplification and relative bandwidth per point of
    the bench_fault_degradation maintenance sweep, plus the headline
    verdicts (2LM inflates faster under maintenance, degrades faster
    under faults);
  - queue_scaling: the bench_queue_load sweep — whole-run p50/p99
    demand latency per offered load under the FR-FCFS queued
    controller next to the queue-off analytic row, with the verdicts
    (the analytic row is queue-quiet, the saturated p99 exceeds its
    p50, and p99 grows super-linearly across the load axis) and the
    proof the queued sweep is --jobs-byte-identical;
  - telemetry: the epoch-telemetry engine's whole-run percentiles and
    counter totals on fig4, plus the proof that --jobs=N telemetry
    exports are byte-identical to serial, plus the telemetry document
    itself (aggregate windows; per-channel blocks stripped for size) so
    two reports can be diffed by tools/nvsim_inspect;
  - host_phases: per-phase host wall-clock from the NVSIM_HOST_PROFILE
    profiler (sweep batches, observability/telemetry writes);
  - host_calibration: seconds for a fixed CPU-bound workload, the
    yardstick the perf gate uses to compare wall-clock across hosts;
  - timings: host wall-clock seconds for every bench invocation made
    by this script.

With --against PREV.json the script additionally compares the fresh
report's performance-bearing metrics to the previous PR's report and
exits 1 when any regresses by more than --threshold (default 10%):
engine_comparison serial seconds (higher is worse), fig2 peak GB/s
and fig4 effective GB/s (lower is worse). Metrics missing from either
side are skipped, so the gate tolerates schema growth. The simulated
GB/s metrics are deterministic; the wall-clock seconds are not
comparable across differently loaded hosts, so each report records a
host_calibration yardstick (fixed CPU-bound workload, best of 5) and
the gate compares seconds-per-calibration-second. A baseline without
the yardstick gets its wall-clock metrics skipped (with a note)
rather than producing noise-driven verdicts. The yardstick is also
exported to every bench invocation as NVSIM_HOST_CALIBRATION, so the
provenance manifests embedded in their artifacts carry it.

When the gate fires and both reports embed a telemetry document, the
gate shells out to tools/nvsim_inspect (--inspect=PATH overrides the
auto-detected build/tools/nvsim_inspect) to diff the two documents, so
the failure names the offending windows and blames a counter family
instead of just printing a percentage.

Usage:
    python3 scripts/bench_report.py [build_dir] [out.json]
        [--against PREV.json] [--threshold 0.10] [--inspect PATH]
"""

import argparse
import csv
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

# Every bench invocation appends {bench, flags, seconds} here.
TIMINGS = []

# host-profile: <phase> <calls> <seconds> lines seen on stderr.
HOST_PHASES = defaultdict(lambda: {"calls": 0, "seconds": 0.0})

# The host-calibration yardstick, measured once in main() and exported
# to every bench as NVSIM_HOST_CALIBRATION so their provenance
# manifests record it. One fixed string per session keeps the
# telemetry byte-identity checks honest.
CALIBRATION = None


def run_bench(build, name, scratch, *flags, env=None):
    exe = Path(build) / "bench" / name
    run_env = dict(os.environ, **(env or {}))
    if CALIBRATION is not None:
        run_env.setdefault("NVSIM_HOST_CALIBRATION",
                           f"{CALIBRATION:.6f}")
    t0 = time.monotonic()
    proc = subprocess.run([str(exe), *flags], cwd=scratch, env=run_env,
                          capture_output=True, text=True, check=True)
    TIMINGS.append({"bench": name, "flags": list(flags),
                    "seconds": round(time.monotonic() - t0, 3)})
    for line in proc.stderr.splitlines():
        m = re.match(r"host-profile: (\S+) (\d+) ([\d.]+)$", line)
        if m:
            HOST_PHASES[m.group(1)]["calls"] += int(m.group(2))
            HOST_PHASES[m.group(1)]["seconds"] += float(m.group(3))
    return proc.stdout


def read_csv(path):
    with open(path) as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def fig2_section(build, scratch):
    run_bench(build, "bench_fig2_nvram_bw", scratch)
    _, rows = read_csv(scratch / "fig2_nvram_bw.csv")
    peak = defaultdict(float)
    for figure, variant, _threads, gbs in rows:
        key = f"{figure}/{variant}"
        peak[key] = max(peak[key], float(gbs))
    return {"peak_gbs": dict(sorted(peak.items()))}


def fig4_section(build, scratch):
    run_bench(build, "bench_fig4_2lm_microbench", scratch)
    _, rows = read_csv(scratch / "fig4_2lm_microbench.csv")
    out = defaultdict(dict)
    for scenario, pattern, metric, gbs in rows:
        out[f"{scenario}/{pattern}"][metric] = float(gbs)
    return dict(sorted(out.items()))


def table1_section(build, scratch):
    text = run_bench(build, "bench_table1_amplification", scratch)
    # First table: "<request>  <dram rd> <dram wr> <nv rd> <nv wr> <amp>".
    amp = {}
    blame = {}
    row = re.compile(r"^(LLC [\w,() ]+?)\s\s+(\d)\s+(\d)\s+(\d)\s+(\d)"
                     r"\s+(\d)\s*$")
    blame_row = re.compile(r"^(LLC [\w,() ]+?)\s\s+(\d)\s\s+(\S.*?)\s*$")
    for line in text.splitlines():
        m = row.match(line)
        if m:
            amp[m.group(1)] = int(m.group(6))
            continue
        m = blame_row.match(line)
        if m and "@" in m.group(3):
            blame[m.group(1)] = m.group(3).split(" + ")
    return {"amplification": amp, "per_cause_blame": blame}


def maintenance_section(build, scratch):
    sub = scratch / "maintenance"
    sub.mkdir()
    log = run_bench(build, "bench_fault_degradation", sub)
    _, rows = read_csv(sub / "fault_degradation.csv")
    sweep = {}
    for experiment, series, x, value, extra in rows:
        if experiment != "maintenance":
            continue
        sweep[f"{series}/{x}"] = {"amplification": float(value),
                                  "rel_bandwidth": float(extra)}
    return {
        "sweep": dict(sorted(sweep.items())),
        "two_lm_inflates_faster":
            "2LM inflates faster (as expected)" in log,
        "two_lm_degrades_faster_under_faults":
            "2LM degrades faster (as expected)" in log,
    }


def digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def causal_run(build, scratch, tag, seed):
    sub = scratch / f"causal_{tag}"
    sub.mkdir()
    run_bench(build, "bench_fig4_2lm_microbench", sub,
              "--causal-trace=causal.json", "--folded-stacks=folded.txt",
              f"--causal-seed={seed}", "--causal-sample=32")
    attr = json.loads((sub / "causal.json").read_text())
    sampled = sum(r["causal"]["sampled_requests"] for r in attr["runs"])
    demands = sum(r["causal"]["demand_requests"] for r in attr["runs"])
    return {
        "seed": seed,
        "demand_requests": demands,
        "sampled_requests": sampled,
        "folded_sha256": digest(sub / "folded.txt"),
        "csv_sha256": digest(sub / "fig4_2lm_microbench.csv"),
    }


def timed_variant(build, bench, csv_name, scratch, tag, *flags,
                  repeats=3):
    """One engine variant: median-of-N wall clock plus the CSV digest.

    The median smooths scheduler noise, which on a small shared host
    is comparable to the effect being measured, without the optimism
    bias best-of-N has on a bursty host. seconds_all keeps every
    sample so a report reader can judge the spread.
    """
    sub = scratch / f"engine_{bench}_{tag}"
    sub.mkdir()
    times = []
    for _ in range(repeats):
        t0 = time.monotonic()
        run_bench(build, bench, sub, *flags)
        times.append(time.monotonic() - t0)
    median = sorted(times)[len(times) // 2]
    return {
        "flags": list(flags),
        "seconds": round(median, 3),
        "seconds_all": [round(t, 3) for t in times],
        "csv_sha256": digest(sub / csv_name),
    }


def engine_comparison(build, scratch):
    """Serial vs parallel sweep and per-line vs batched access.

    The parallel speedup scales with the host's cores (a 1-core
    container shows ~1x); the batched speedup is engine work saved per
    access and holds on any host. Either way every variant must hash
    to the same CSV — the engines are interchangeable by contract.
    """
    ncpu = os.cpu_count() or 1
    section = {"host_cpus": ncpu}
    for bench, csv_name in [
            ("bench_fig4_2lm_microbench", "fig4_2lm_microbench.csv"),
            ("bench_fig2_nvram_bw", "fig2_nvram_bw.csv")]:
        serial = timed_variant(build, bench, csv_name, scratch,
                               "serial", "--jobs=1")
        parallel = timed_variant(build, bench, csv_name, scratch,
                                 "parallel", f"--jobs={ncpu}")
        per_line = timed_variant(build, bench, csv_name, scratch,
                                 "perline", "--jobs=1", "--per-line")
        digests = {serial["csv_sha256"], parallel["csv_sha256"],
                   per_line["csv_sha256"]}
        section[bench] = {
            "serial": serial,
            "parallel": parallel,
            "per_line": per_line,
            "speedup_parallel":
                round(serial["seconds"] / parallel["seconds"], 2),
            "speedup_batched":
                round(per_line["seconds"] / serial["seconds"], 2),
            "csv_identical_across_variants": len(digests) == 1,
        }
    return section


def telemetry_section(build, scratch):
    """Telemetry engine on fig4: percentiles, totals, --jobs identity."""
    ncpu = os.cpu_count() or 1
    runs = {}
    for tag, jobs in [("serial", 1), ("parallel", ncpu)]:
        sub = scratch / f"telemetry_{tag}"
        sub.mkdir()
        run_bench(build, "bench_fig4_2lm_microbench", sub,
                  f"--jobs={jobs}", "--telemetry=tel.csv",
                  "--telemetry-json=tel.json", "--telemetry-window=1ms")
        runs[tag] = {
            "jobs": jobs,
            "csv_sha256": digest(sub / "tel.csv"),
            "json_sha256": digest(sub / "tel.json"),
        }
    tel = json.loads((scratch / "telemetry_serial" / "tel.json")
                     .read_text())
    first = (tel["runs"][0].get("telemetry", {})
             if tel.get("runs") else {})
    # Embed the document itself so the next PR's perf gate can diff
    # the two telemetry timelines with nvsim_inspect. Per-channel
    # window blocks are dropped for size; the aggregate series carry
    # everything the gate needs to name windows and blame families.
    doc = json.loads(json.dumps(tel))
    for run in doc.get("runs", []):
        for window in run.get("telemetry", {}).get("windows", []):
            window.pop("per_channel", None)
    return {
        "schema": tel.get("schema"),
        "num_runs": len(tel.get("runs", [])),
        "first_run_latency": first.get("latency"),
        "first_run_windows": len(first.get("windows", [])),
        "runs": runs,
        "jobs_byte_identical":
            runs["serial"]["csv_sha256"] == runs["parallel"]["csv_sha256"]
            and runs["serial"]["json_sha256"]
            == runs["parallel"]["json_sha256"],
        "doc": doc,
    }


def queue_scaling_section(build, scratch):
    """Queued-controller load sweep: tail latency vs offered load.

    Parses queue_load.csv into one entry per sweep point and distills
    the acceptance verdicts: the analytic (queue-off) row reports zero
    queue wait, the saturated tail exceeds its median, and the p99
    grows super-linearly along the offered-load axis (the growth
    across the sweep outruns the load ratio). A second run at
    --jobs=N must digest identically — the queued drain is part of
    the determinism contract, not an exception to it.
    """
    ncpu = os.cpu_count() or 1
    runs = {}
    for tag, jobs in [("serial", 1), ("parallel", ncpu)]:
        sub = scratch / f"queue_{tag}"
        sub.mkdir()
        run_bench(build, "bench_queue_load", sub, f"--jobs={jobs}")
        runs[tag] = digest(sub / "queue_load.csv")
    _, rows = read_csv(scratch / "queue_serial" / "queue_load.csv")
    points = {}
    queued = []
    analytic_quiet = False
    for (sched, offered, eff, p50, p99, p999, qwait, conflicts, hits,
         drains) in rows:
        key = f"{sched}@{offered}" if float(offered) > 0 else sched
        point = {
            "offered_gbs": float(offered),
            "effective_gbs": float(eff),
            "p50_ns": float(p50),
            "p99_ns": float(p99),
            "p999_ns": float(p999),
            "queue_wait_ns": int(qwait),
            "bank_conflicts": int(conflicts),
            "row_buffer_hits": int(hits),
            "write_drains": int(drains),
        }
        points[key] = point
        if sched == "analytic":
            analytic_quiet = point["queue_wait_ns"] == 0
        else:
            queued.append(point)
    lo, hi = queued[0], queued[-1]
    load_ratio = hi["offered_gbs"] / lo["offered_gbs"]
    p99_growth = hi["p99_ns"] / lo["p99_ns"] if lo["p99_ns"] else 0.0
    return {
        "points": points,
        "analytic_row_queue_quiet": analytic_quiet,
        "tail_exceeds_median_at_saturation": hi["p99_ns"] > hi["p50_ns"],
        "p99_growth": round(p99_growth, 2),
        "load_ratio": round(load_ratio, 2),
        "p99_superlinear": p99_growth > load_ratio,
        "jobs_byte_identical": runs["serial"] == runs["parallel"],
    }


def host_calibration():
    """Seconds for a fixed CPU-bound workload (best of 5).

    The engine_comparison wall-clock seconds depend on how fast (and
    how loaded) the host is, so two reports recorded in different
    sessions are not directly comparable. This yardstick runs the same
    work in every session; the gate divides it out.
    """
    data = b"\x00" * (1 << 20)
    best = None
    for _ in range(5):
        t0 = time.monotonic()
        h = hashlib.sha256()
        for _ in range(64):
            h.update(data)
        h.hexdigest()
        elapsed = time.monotonic() - t0
        best = elapsed if best is None else min(best, elapsed)
    return round(best, 6)


def gate_metrics(report):
    """Flat {name: (value, higher_is_worse, wall_clock)}."""
    out = {}
    ec = report.get("engine_comparison", {})
    for bench, sec in ec.items():
        if not isinstance(sec, dict) or "serial" not in sec:
            continue
        out[f"engine_comparison/{bench}/serial_s"] = (
            sec["serial"]["seconds"], True, True)
    for key, gbs in report.get("fig2", {}).get("peak_gbs", {}).items():
        out[f"fig2/{key}/peak_gbs"] = (gbs, False, False)
    for key, metrics in report.get("fig4", {}).items():
        if isinstance(metrics, dict) and "effective" in metrics:
            out[f"fig4/{key}/effective_gbs"] = (metrics["effective"],
                                                False, False)
    qs = report.get("queue_scaling", {}).get("points", {})
    for key, point in qs.items():
        if point.get("p99_ns"):
            out[f"queue_scaling/{key}/p99_ns"] = (point["p99_ns"],
                                                  True, False)
    return out


def inspect_diff(inspect, prev, report):
    """Diff the embedded telemetry docs with nvsim_inspect, so a gate
    failure names the regressing windows and blames a counter family.
    Best-effort: silently skipped when either side predates the
    embedded doc or the binary is missing."""
    prev_doc = prev.get("telemetry", {}).get("doc")
    cur_doc = report.get("telemetry", {}).get("doc")
    if not (inspect and Path(inspect).exists() and prev_doc and cur_doc):
        return
    with tempfile.TemporaryDirectory() as tmp:
        a = Path(tmp) / "baseline_tel.json"
        b = Path(tmp) / "current_tel.json"
        a.write_text(json.dumps(prev_doc))
        b.write_text(json.dumps(cur_doc))
        proc = subprocess.run(
            [str(inspect), "diff", str(a), str(b), "--top=5"],
            capture_output=True, text=True)
    print("telemetry diff (baseline -> current), via nvsim_inspect:")
    for line in proc.stdout.splitlines():
        print(f"  {line}")


def perf_gate(report, against_path, threshold, inspect=None):
    """Compare to the previous report; list of regression strings."""
    prev = json.loads(Path(against_path).read_text())
    cur_m, prev_m = gate_metrics(report), gate_metrics(prev)
    cur_cal = report.get("host_calibration")
    prev_cal = prev.get("host_calibration")
    regressions = []
    compared = skipped = 0
    for name, (cur, higher_is_worse, wall_clock) in sorted(cur_m.items()):
        if name not in prev_m:
            continue
        base = prev_m[name][0]
        if base <= 0:
            continue
        if wall_clock:
            if not (cur_cal and prev_cal):
                skipped += 1
                continue
            # Divide out host speed so a slower or busier machine does
            # not read as a code regression (and a faster one does not
            # mask a real slowdown).
            cur, base = cur / cur_cal, base / prev_cal
        compared += 1
        change = (cur - base) / base
        worse = change if higher_is_worse else -change
        if worse > threshold:
            direction = "slower" if higher_is_worse else "lower"
            regressions.append(
                f"{name}: {base:g} -> {cur:g} "
                f"({100 * worse:.1f}% {direction}, "
                f"threshold {100 * threshold:.0f}%)")
    print(f"perf gate: compared {compared} metrics against "
          f"{against_path}, {len(regressions)} regression(s)"
          + (f"; skipped {skipped} wall-clock metric(s): baseline has "
             "no host_calibration" if skipped else ""))
    for r in regressions:
        print(f"  REGRESSION {r}")
    if regressions:
        inspect_diff(inspect, prev, report)
    return regressions


def main():
    parser = argparse.ArgumentParser(
        description="bench report + optional perf-regression gate")
    parser.add_argument("build", nargs="?", default="build")
    parser.add_argument("out", nargs="?", default="BENCH_PR10.json")
    parser.add_argument("--against", metavar="PREV.json",
                        help="previous report to gate against")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="relative regression budget (default 0.10)")
    parser.add_argument("--inspect", metavar="PATH",
                        help="nvsim_inspect binary for gate-failure "
                        "diffs (default: <build>/tools/nvsim_inspect)")
    args = parser.parse_args()
    build = Path(args.build).resolve()
    out = Path(args.out)
    inspect = args.inspect or str(build / "tools" / "nvsim_inspect")
    if not (build / "bench" / "bench_fig2_nvram_bw").exists():
        print(f"no benches under {build}/bench — build first", file=sys.stderr)
        return 2

    global CALIBRATION
    CALIBRATION = host_calibration()

    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        report = {
            "schema": "nvsim-bench-report-v1",
            "fig2": fig2_section(build, scratch),
            "fig4": fig4_section(build, scratch),
            "table1": table1_section(build, scratch),
        }

        # Seeded determinism: two runs at seed 1 must agree byte for
        # byte; seed 2 sees the same demand stream at another phase.
        a = causal_run(build, scratch, "seed1a", 1)
        b = causal_run(build, scratch, "seed1b", 1)
        c = causal_run(build, scratch, "seed2", 2)
        report["causal_seed_comparison"] = {
            "runs": [a, b, c],
            "same_seed_identical": a["folded_sha256"] == b["folded_sha256"],
            "different_seed_same_demands":
                a["demand_requests"] == c["demand_requests"]
                and a["folded_sha256"] != c["folded_sha256"],
        }

        # Opt-in check: the causal flags must not perturb the
        # simulation — the bench CSV is bit-identical without them.
        plain = scratch / "plain"
        plain.mkdir()
        run_bench(build, "bench_fig4_2lm_microbench", plain)
        report["flags_off"] = {
            "csv_bit_identical":
                digest(plain / "fig4_2lm_microbench.csv")
                == a["csv_sha256"],
        }

        report["engine_comparison"] = engine_comparison(build, scratch)
        report["maintenance"] = maintenance_section(build, scratch)
        report["telemetry"] = telemetry_section(build, scratch)
        report["queue_scaling"] = queue_scaling_section(build, scratch)

        # One profiled run so host_phases is populated even when the
        # environment doesn't export NVSIM_HOST_PROFILE.
        prof = scratch / "hostprof"
        prof.mkdir()
        run_bench(build, "bench_fig4_2lm_microbench", prof, "--jobs=1",
                  "--telemetry=tel.csv",
                  env={"NVSIM_HOST_PROFILE": "1"})
        report["host_phases"] = {
            k: {"calls": v["calls"], "seconds": round(v["seconds"], 6)}
            for k, v in sorted(HOST_PHASES.items())}
        report["host_calibration"] = CALIBRATION
        report["timings"] = TIMINGS

    out.write_text(json.dumps(report, indent=2) + "\n")
    engines_ok = all(
        report["engine_comparison"][b]["csv_identical_across_variants"]
        for b in ("bench_fig4_2lm_microbench", "bench_fig2_nvram_bw"))
    ok = (report["causal_seed_comparison"]["same_seed_identical"]
          and report["flags_off"]["csv_bit_identical"]
          and engines_ok
          and report["maintenance"]["two_lm_inflates_faster"]
          and report["telemetry"]["jobs_byte_identical"]
          and report["queue_scaling"]["jobs_byte_identical"]
          and report["queue_scaling"]["analytic_row_queue_quiet"]
          and report["queue_scaling"]["tail_exceeds_median_at_saturation"]
          and report["queue_scaling"]["p99_superlinear"])
    print(f"wrote {out}"
          + ("" if ok else " (WARNING: determinism checks failed)"))
    if not ok:
        return 1
    if args.against:
        if perf_gate(report, args.against, args.threshold,
                     inspect=inspect):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
