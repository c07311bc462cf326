#!/usr/bin/env python3
"""The nvsim benchmark. Run from the repository root:

    python3 perfbench/run.py --workload micro_2lm|graph|dnn_train|queued \
        --seed N --seconds S --trace 0|1

Builds the simulator and the workload driver from source into
.bench_build/perfbench, runs the workload on one host thread for about
S seconds, checks every simulation point against the model's laws and
prints each metric by name with its unit. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}; with
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones of a separate traced run. See README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("micro_2lm", "graph", "dnn_train", "queued")
LAYERS = ("sys", "llc", "epoch", "imc", "nvram", "sched")

sys.path.insert(0, HERE)
import analysis  # noqa: E402


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def run(cmd, deadline, stdout):
    """Run @p cmd in its own process group; on timeout kill the whole
    group (make's compilers too) and wait for it. Returns stdout bytes
    when @p stdout is PIPE."""
    proc = subprocess.Popen(cmd, stdout=stdout, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1, deadline - time.time()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, cmd)
    return out


def build(target, deadline):
    """Configure (once) and build @p target; False if either fails."""
    try:
        if not os.path.exists(os.path.join(BUILD, "Makefile")):
            run(["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], deadline, sys.stderr)
        run(["cmake", "--build", BUILD, "--target", target, "-j", "4"],
            deadline, sys.stderr)
    except (subprocess.SubprocessError, OSError) as e:
        log("perfbench: build of %s failed: %s" % (target, e))
        return False
    return True


def drive(binary, args, deadline):
    """Run the driver; its JSON document, or None on failure."""
    cmd = [os.path.join(BUILD, binary)] + args
    try:
        return json.loads(run(cmd, deadline, subprocess.PIPE))
    except (subprocess.SubprocessError, OSError, ValueError) as e:
        log("perfbench: %s failed: %s" % (" ".join(cmd), e))
        return None


def lines_of(points):
    return sum(analysis.requests(p["counters"]) for p in points)


def ns_per_line(rep):
    """Host ns per demand line at nominal host speed."""
    return analysis.nominal_timed_s(rep) * 1e9 / lines_of(rep["points"])


def raw_ns_per_line(rep):
    """Host ns per demand line as the clock read it."""
    return rep["timed_s"] * 1e9 / lines_of(rep["points"])


def binary_hash(binary):
    with open(os.path.join(BUILD, binary), "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def check_digest_history(key, digest):
    """Same binary and seed must give the same digest on every run."""
    path = os.path.join(BUILD, "digests.json")
    seen = {}
    if os.path.exists(path):
        with open(path) as f:
            seen = json.load(f)
    if key in seen and seen[key] != digest:
        log("perfbench: DETERMINISM FAILURE: %s gave %s, earlier %s"
            % (key, digest, seen[key]))
        return False
    seen[key] = digest
    with open(path, "w") as f:
        json.dump(seen, f, indent=1, sort_keys=True)
    return True


def verify(doc):
    """Correctness of a driver run: (ok, failed points, digest).

    Every repetition must reproduce the first one's digest, and every
    point must be sane and give the host-side expected answer where
    there is one. Model-law violations are not failures here: they are
    counted in law_pass_frac and named in the output.
    """
    reps = doc["reps"]
    digest = analysis.sim_digest(reps[0]["points"])
    failed = 0
    for i, rep in enumerate(reps):
        d = analysis.sim_digest(rep["points"])
        if d != digest:
            log("perfbench: DETERMINISM FAILURE: repetition %d digest %s "
                "!= %s" % (i, d, digest))
            failed += len(rep["points"])
            continue
        for p in rep["points"]:
            sane = (p["sim_s"] > 0 and p["demand_bytes"] > 0
                    and analysis.requests(p["counters"]) > 0)
            answer = p.get("answer") == p.get("expected_answer")
            if not (sane and answer):
                log("perfbench: point %s failed its output check" % p["name"])
                failed += 1
    return failed == 0, failed, digest


def report_points(workload, points):
    """Print headline simulated numbers and law verdicts; returns the
    fraction of points that obey every law."""
    ok = 0
    for p in points:
        bad = analysis.check_laws(p)
        ok += not bad
        extra = ""
        if p["offered_gbs"] > 0 or p["p99_ns"]:
            extra = " offered_gbs %g p50_ns %d p99_ns %d" % (
                p["offered_gbs"], p["p50_ns"], p["p99_ns"])
        print("point %s/%s effective_gbs %.4f amplification %.4f sim_s "
              "%.6f%s laws %s" % (
                  workload, p["name"], analysis.effective_gbs(p),
                  analysis.amplification(p), p["sim_s"], extra,
                  "ok" if not bad else "FAIL: " + "; ".join(bad)))
    return ok / len(points)


def end_to_end(args, deadline):
    if not build("perfbench", deadline):
        return None
    doc = drive("perfbench", ["--workload", args.workload, "--seed",
                              str(args.seed), "--seconds",
                              str(args.seconds)], deadline)
    if doc is None:
        return None
    ok, failed, digest = verify(doc)
    key = "%s:%d:%s" % (args.workload, args.seed, binary_hash("perfbench"))
    ok &= check_digest_history(key, digest)

    points = doc["reps"][0]["points"]
    print("label yardstick_ms %.3f nproc %d seed %d reps %d"
          % (doc["yardstick_ms"], doc["nproc"], args.seed, len(doc["reps"])))
    print("sim_digest %s %s" % (args.workload, digest))
    print("reps host_ns_per_line %s" % " ".join(
        "%.2f" % ns_per_line(r) for r in doc["reps"]))
    print("reps raw_host_ns_per_line %s" % " ".join(
        "%.2f" % raw_ns_per_line(r) for r in doc["reps"]))
    print("reps setup_s %s" % " ".join(
        "%.4f" % analysis.nominal_setup_s(r) for r in doc["reps"]))
    print("reps raw_setup_s %s" % " ".join(
        "%.4f" % r["setup_s"] for r in doc["reps"]))
    print("reps host_slowdown %s" % " ".join(
        "%.3f" % statistics.median(analysis.slowdown(s) for s in r["ref"])
        for r in doc["reps"]))
    law_pass = report_points(args.workload, points)
    rows = analysis.paper_comparison(args.workload, points)
    for label, sim, paper in rows:
        print("paper_ref %s simulated %.4f paper %g" % (label, sim, paper))

    metrics = {
        "host_ns_per_line": (statistics.median(
            ns_per_line(r) for r in doc["reps"]), "ns"),
        "setup_s": (statistics.median(analysis.nominal_setup_s(r)
                                      for r in doc["reps"]), "s"),
        "peak_rss_mb": (doc["peak_rss_mb"], "MB"),
        "paper_err": (analysis.paper_err(rows), "ratio"),
        "law_pass_frac": (law_pass, "fraction"),
    }
    attempted = sum(len(r["points"]) for r in doc["reps"])
    return ok, attempted, failed, metrics


def per_layer(args, deadline):
    if not (build("perfbench", deadline)
            and build("perfbench_traced", deadline)):
        return None
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "0"]
    plain = drive("perfbench", base + ["--reps", "2"], deadline)
    # One file per workload, overwritten by the next traced run.
    spans_path = os.path.join(BUILD, "%s.spans" % args.workload)
    traced = drive("perfbench_traced",
                   base + ["--reps", "1", "--spans", spans_path], deadline)
    if plain is None or traced is None:
        return None
    ok_p, failed_p, digest_p = verify(plain)
    ok_t, failed_t, digest_t = verify(traced)
    if digest_t != digest_p:
        log("perfbench: traced run changed the simulation: %s != %s"
            % (digest_t, digest_p))
    ok = ok_p and ok_t and digest_t == digest_p

    header, data = analysis.load_spans(spans_path)
    entries = {e["name"]: e for e in header["entries"]}
    calls = lambda *names: sum(entries[n]["calls"] for n in names)
    lines = lambda *names: sum(entries[n]["lines"] for n in names)
    for e in header["entries"]:
        if e["calls"] == 0 and e["layer"] != "driver":
            print("trace: no calls through %s" % e["name"])

    rep = traced["reps"][0]
    points = rep["points"]
    demand = lines_of(points)
    traced_ns = rep["timed_s"] * 1e9
    self_ns = analysis.layer_self_ns(header, analysis.iter_spans(data))
    other = traced_ns - sum(self_ns.get(l, 0) for l in LAYERS)
    # Layer self times are raw span times, so this compares raw clocks.
    plain_ns = statistics.median(raw_ns_per_line(r) for r in plain["reps"])
    print("trace: %d spans, per-line calls sampled 1 in %d"
          % (header["spans"], header["sample"]))
    print("trace: layer self time over %.3f s traced (ns per demand line):"
          % (traced_ns / 1e9))
    for l in LAYERS:
        print("  %-6s %10.2f" % (l, self_ns.get(l, 0) / demand))
    print("  %-6s %10.2f" % ("other", other / demand))
    print("  %-6s %10.2f  (untraced %.2f)"
          % ("total", traced_ns / demand, plain_ns))

    tot = {}
    for p in points:
        for k, v in p["counters"].items():
            tot[k] = tot.get(k, 0) + v
    two_lm = [p for p in points if p["mode"] == "2lm"]
    req2 = sum(analysis.requests(p["counters"]) for p in two_lm)
    c2 = lambda k: sum(p["counters"][k] for p in two_lm)
    div = lambda a, b: a / b if b else 0.0
    llc_hits = sum(p["llc_hits"] for p in points)
    llc_miss = sum(p["llc_misses"] for p in points)
    bus_w = sum(p["nv_bus_writes"] for p in points)
    media_w = sum(p["nv_media_write_blocks"] for p in points)
    queued = [p for p in points if p["offered_gbs"] > 0]
    tx = calls("ChannelController::enqueue")
    epoch_calls = calls("MemorySystem::advanceEpoch", "MemorySystem::quiesce",
                        "ChannelController::drainEpoch",
                        "ChannelController::epochTime")
    # The DNN executor enters through touchLine, the one-line front end.
    front = ("MemorySystem::submit", "MemorySystem::touchLine")
    imc = ("ChannelController::handle", "ChannelController::handleFast",
           "ChannelController::handleFastRun1lm")
    nvram = [n for n, e in entries.items() if e["layer"] == "nvram"]
    m = {
        "gen.s": (rep["gen_s"], "s"),
        "submit.calls": (calls(*front), "count"),
        "submit.lines_per_call": (div(lines(*front), calls(*front)),
                                  "lines"),
        "sys.submit.ns_per_line": (div(self_ns.get("sys", 0), lines(*front)),
                                   "ns"),
        "llc.calls": (calls("Llc::access"), "count"),
        "llc.hit_ratio": (div(llc_hits, llc_hits + llc_miss), "ratio"),
        "llc.ns_per_call": (div(self_ns.get("llc", 0),
                                calls("Llc::access")), "ns"),
        "epoch.calls": (epoch_calls, "count"),
        "epoch.ns_per_call": (div(self_ns.get("epoch", 0), epoch_calls),
                              "ns"),
        "imc.ns_per_line": (div(self_ns.get("imc", 0), lines(*imc)), "ns"),
        "imc.lines_per_call": (div(lines(*imc), calls(*imc)), "lines"),
        "policy.tag_hit_ratio": (div(c2("tag_hit"), req2), "ratio"),
        "policy.dirty_miss_ratio": (div(c2("tag_miss_dirty"), req2),
                                    "ratio"),
        "policy.ddo_ratio": (div(c2("ddo_hit"), c2("llc_writes")), "ratio"),
        "policy.amplification": (div(sum(tot[f] for f in
                                         analysis.DEVICE_FIELDS),
                                     tot["llc_reads"] + tot["llc_writes"]),
                                 "ratio"),
        "nvram.calls": (calls(*nvram), "count"),
        "nvram.ns_per_call": (div(self_ns.get("nvram", 0), calls(*nvram)),
                              "ns"),
        "nvram.media_write_amp": (div(media_w * analysis.MEDIA_BLOCK_BYTES,
                                      bus_w * analysis.LINE_BYTES), "ratio"),
        "sched.tx": (tx, "count"),
        "sched.ns_per_tx": (div(self_ns.get("sched", 0), tx), "ns"),
        "sched.queue_wait_ns_per_tx": (div(tot["queue_wait_ns"], tx), "ns"),
        "sched.row_hit_ratio": (div(tot["row_buffer_hits"],
                                    tot["row_buffer_hits"]
                                    + tot["bank_conflicts"]), "ratio"),
        "sched.write_drains": (tot["write_drains"], "count"),
        "sched.eff_over_offered": (max((analysis.effective_gbs(p)
                                        / p["offered_gbs"] for p in queued),
                                       default=0.0), "ratio"),
        "trace.host_ns_per_line": (traced_ns / demand, "ns"),
        "trace.overhead_ns_per_line": (traced_ns / demand - plain_ns, "ns"),
    }
    for l in LAYERS:
        m["self.%s.ns_per_line" % l] = (self_ns.get(l, 0) / demand, "ns")
    m["self.other.ns_per_line"] = (other / demand, "ns")
    attempted = len(points) + sum(len(r["points"]) for r in plain["reps"])
    return ok, attempted, failed_p + failed_t, m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")
    # The first run in a checkout also builds; later ones must stay
    # within the 180 s a run is allowed.
    fresh = not os.path.exists(os.path.join(BUILD, "perfbench"))
    deadline = time.time() + (850 if fresh else 170)

    res = (per_layer if args.trace else end_to_end)(args, deadline)
    if res is None:
        sys.exit(1)
    ok, attempted, failed, metrics = res
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != {m["name"] for m in declared}:
        log("perfbench: metrics differ from BENCHMARK.json: %s"
            % sorted(set(metrics) ^ {m["name"] for m in declared}))
        sys.exit(1)
    for name, (value, unit) in metrics.items():
        print("metric %s %.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": bool(ok),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
