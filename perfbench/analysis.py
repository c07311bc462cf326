"""Pure functions of the nvsim benchmark: model-law checks, paper error,
simulation digest, host time at nominal speed and layer self time from
spans. run.py applies them to the
driver's output; tests/test_analysis.py checks them by hand."""

import hashlib
import json
import struct

LINE_BYTES = 64
MEDIA_BLOCK_BYTES = 256
# A 64 B bus write can cost at most one 256 B media block write.
WPQ_AMPLIFICATION = MEDIA_BLOCK_BYTES // LINE_BYTES

# Table I: device accesses per 2LM request, by tag outcome. A hit is a
# read hit (1) or a write hit (2), a clean miss a read (3) or a write
# (4), a dirty miss a read (4) or a write (5), and a DDO write is 1.
TABLE_I_RANGES = {
    "tag_hit": (1, 2),
    "tag_miss_clean": (3, 4),
    "tag_miss_dirty": (4, 5),
    "ddo_hit": (1, 1),
}

DEVICE_FIELDS = ("dram_read", "dram_write", "nvram_read", "nvram_write")


def requests(counters):
    """Controller requests: the demand lines the IMC saw."""
    return counters["llc_reads"] + counters["llc_writes"]


def device_accesses(counters):
    return sum(counters[f] for f in DEVICE_FIELDS)


def effective_gbs(point):
    return point["demand_bytes"] / point["sim_s"] / 1e9


def amplification(point):
    return device_accesses(point["counters"]) / requests(point["counters"])


def dram_read_write_ratio(point):
    c = point["counters"]
    return c["dram_read"] / c["dram_write"]


def check_laws(point):
    """The model laws one simulation point breaks, as readable strings.

    Reads public counters only: PerfCounters, the LLC's hit/miss/dirty
    eviction counts and the NVRAM devices' bus writes and media block
    writes over the point.
    """
    c = point["counters"]
    bad = []
    # 1. Every demand line is an LLC hit or a controller request: each
    #    LLC miss is one controller read, each dirty victim one write,
    #    and in 2LM every request gets exactly one tag outcome.
    if c["llc_reads"] != point["llc_misses"]:
        bad.append("accounting: %d controller reads for %d LLC misses"
                   % (c["llc_reads"], point["llc_misses"]))
    if c["llc_writes"] < point["llc_dirty_evictions"]:
        bad.append("accounting: %d controller writes for %d dirty LLC "
                   "victims" % (c["llc_writes"], point["llc_dirty_evictions"]))
    n = requests(c)
    dev = device_accesses(c)
    if point["mode"] == "2lm":
        outcomes = sum(c[k] for k in TABLE_I_RANGES)
        if outcomes != n:
            bad.append("accounting: %d tag outcomes for %d requests"
                       % (outcomes, n))
        # 2. Device accesses per outcome within Table I's 1-5.
        lo = sum(c[k] * r[0] for k, r in TABLE_I_RANGES.items())
        hi = sum(c[k] * r[1] for k, r in TABLE_I_RANGES.items())
        if not lo <= dev <= hi:
            bad.append("table1: %d device accesses outside [%d, %d]"
                       % (dev, lo, hi))
    elif dev != n:
        bad.append("table1: %d device accesses for %d 1LM requests"
                   % (dev, n))
    # 3. Throughput never exceeds the offered load.
    if point["offered_gbs"] > 0 and effective_gbs(point) > point["offered_gbs"]:
        bad.append("throughput: effective %.2f GB/s > offered %g GB/s"
                   % (effective_gbs(point), point["offered_gbs"]))
    # 4. NVRAM media writes <= bus writes x WPQ amplification.
    media = point["nv_media_write_blocks"] * MEDIA_BLOCK_BYTES
    bus = point["nv_bus_writes"] * LINE_BYTES
    if media > bus * WPQ_AMPLIFICATION:
        bad.append("wpq: %d media write bytes > %d bus write bytes x %d"
                   % (media, bus, WPQ_AMPLIFICATION))
    return bad


def _speedup(points, pair):
    slow, fast = pair
    return points[slow]["sim_s"] / points[fast]["sim_s"]


# Paper values each workload is compared with; README.md gives the
# EXPERIMENTS.md row behind each. Entries: (label, point, quantity,
# paper value).
PAPER_REFERENCES = {
    "micro_2lm": [
        ("Fig 4a effective GB/s", "4a/sequential", "effective_gbs", 23.0),
        ("Fig 4b effective GB/s", "4b/sequential", "effective_gbs", 8.0),
        ("Fig 4a amplification", "4a/sequential", "amplification", 3.0),
        ("Fig 4b amplification", "4b/sequential", "amplification", 5.0),
    ],
    "graph": [
        ("Fig 9a kron30 pagerank DRAM read/write ratio", "kron/pagerank",
         "dram_read_write_ratio", 1.0),
    ],
    "dnn_train": [
        ("Table II Inception v4 speedup",
         ("inceptionv4/2lm", "inceptionv4/autotm"), "speedup", 1.8),
        ("Table II ResNet 200 speedup",
         ("resnet200/2lm", "resnet200/autotm"), "speedup", 2.2),
        ("Table II DenseNet 264 speedup",
         ("densenet264/2lm", "densenet264/autotm"), "speedup", 3.1),
    ],
    "queued": [
        ("Table I clean read miss amplification", "analytic/4a",
         "amplification", 3.0),
        ("Table I dirty write miss amplification", "analytic/4b",
         "amplification", 5.0),
    ],
}

_QUANTITIES = {
    "effective_gbs": lambda pts, p: effective_gbs(pts[p]),
    "amplification": lambda pts, p: amplification(pts[p]),
    "dram_read_write_ratio": lambda pts, p: dram_read_write_ratio(pts[p]),
    "speedup": _speedup,
}


def paper_comparison(workload, points):
    """[(label, simulated, paper)] for the workload's references."""
    by_name = {p["name"]: p for p in points}
    return [(label, _QUANTITIES[q](by_name, ref), paper)
            for label, ref, q, paper in PAPER_REFERENCES[workload]]


def paper_err(rows):
    """Mean |simulated / paper - 1| over the reference rows."""
    return sum(abs(sim / paper - 1) for _, sim, paper in rows) / len(rows)


def sim_digest(points):
    """Hash of every simulated output of a repetition's points (their
    host time left out)."""
    sim = [{k: v for k, v in p.items() if k != "host_s"} for p in points]
    blob = json.dumps(sim, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# --- host time at nominal speed ---

# Seconds of the driver's host-speed reference (referenceSample in
# driver.cc) at nominal speed: its median on a quiet 4-vCPU Sapphire
# Rapids VM.
REF_NOMINAL_S = 4.95e-3


def slowdown(sample):
    """How much slower than nominal the host ran one reference sample."""
    return sample / REF_NOMINAL_S


def _at_nominal(seconds, ref):
    """Each of @p seconds divided by the mean slow-down of the reference
    samples just before and just after it (ref[i], ref[i + 1])."""
    return sum(t / ((slowdown(ref[i]) + slowdown(ref[i + 1])) / 2)
               for i, t in enumerate(seconds))


def nominal_setup_s(rep):
    """Set-up seconds at nominal speed, step by step."""
    return _at_nominal(rep["setup_steps_s"], rep["ref"])


def nominal_timed_s(rep):
    """Timed-phase seconds at nominal speed, point by point."""
    steps = len(rep["setup_steps_s"])
    return _at_nominal([p["host_s"] for p in rep["points"]],
                       rep["ref"][steps:])


# --- spans of the traced build (format in trace.cc) ---

SPAN = struct.Struct("<qqiIHHHH")
NO_CALLER = 0xFFFF


def load_spans(path):
    """(header, packed span records); iter_spans() decodes the records
    without holding them all as tuples."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        data = f.read()
    if len(data) != header["spans"] * SPAN.size:
        raise ValueError("%s: %d bytes of spans, header says %d spans"
                         % (path, len(data), header["spans"]))
    return header, data


def iter_spans(data):
    """(start, end, parent, weight, entry, caller, label, pad) tuples."""
    return SPAN.iter_unpack(data)


def layer_self_ns(header, spans):
    """Self time per layer, in ns: the weighted duration of the layer's
    spans minus the weighted duration of the spans its calls enclose.
    Every duration first loses the recorder's own cost inside a span
    (the calibrated inner_ns). The driver's point spans belong to no
    layer, so a layer's total plus "other" is the traced time."""
    layers = [e["layer"] for e in header["entries"]]
    inner = header["inner_ns"]
    total = {}
    for start, end, _parent, weight, entry, caller, _label, _pad in spans:
        if layers[entry] == "driver":
            continue
        t = (end - start - inner) * weight
        own = layers[entry]
        total[own] = total.get(own, 0) + t
        if caller != NO_CALLER and layers[caller] != "driver":
            total[layers[caller]] = total.get(layers[caller], 0) - t
    return total
