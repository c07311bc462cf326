"""Tests of the benchmark's analysis: the model-law checker, paper_err,
host time at nominal speed and the span self-time arithmetic.

    python3 -m unittest discover perfbench/tests
"""

import json
import os
import struct
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import analysis  # noqa: E402

FIELDS = ("dram_read", "dram_write", "nvram_read", "nvram_write", "tag_hit",
          "tag_miss_clean", "tag_miss_dirty", "ddo_hit", "llc_reads",
          "llc_writes")


def point(name="p", mode="2lm", offered=0.0, sim_s=1e-3, demand=None,
          media_blocks=None, **counters):
    c = {f: 0 for f in FIELDS}
    c.update(counters)
    lines = c["llc_reads"] + c["llc_writes"]
    return {
        "name": name, "mode": mode, "sim_s": sim_s,
        "demand_bytes": lines * 64 if demand is None else demand,
        "offered_gbs": offered, "counters": c,
        "llc_hits": 0, "llc_misses": c["llc_reads"],
        "llc_dirty_evictions": 0,
        "nv_bus_writes": c["nvram_write"],
        "nv_media_write_blocks": (c["nvram_write"] if media_blocks is None
                                  else media_blocks),
    }


# Table I's seven 2LM request classes, with their device actions.
TABLE_I = {
    "read hit": dict(llc_reads=1, tag_hit=1, dram_read=1),
    "clean read miss": dict(llc_reads=1, tag_miss_clean=1, dram_read=1,
                            nvram_read=1, dram_write=1),
    "dirty read miss": dict(llc_reads=1, tag_miss_dirty=1, dram_read=1,
                            nvram_write=1, nvram_read=1, dram_write=1),
    "write hit": dict(llc_writes=1, tag_hit=1, dram_read=1, dram_write=1),
    "clean write miss": dict(llc_writes=1, tag_miss_clean=1, dram_read=1,
                             nvram_read=1, dram_write=2),
    "dirty write miss": dict(llc_writes=1, tag_miss_dirty=1, dram_read=1,
                             nvram_write=1, nvram_read=1, dram_write=2),
    "ddo write": dict(llc_writes=1, ddo_hit=1, dram_write=1),
}
TABLE_I_ACCESSES = {"read hit": 1, "clean read miss": 3,
                    "dirty read miss": 4, "write hit": 2,
                    "clean write miss": 4, "dirty write miss": 5,
                    "ddo write": 1}


class LawTest(unittest.TestCase):
    def test_table1_classes_pass(self):
        total = {}
        for name, c in TABLE_I.items():
            p = point(name, **c)
            self.assertEqual(analysis.device_accesses(p["counters"]),
                             TABLE_I_ACCESSES[name], name)
            self.assertEqual(analysis.check_laws(p), [], name)
            for k, v in c.items():
                total[k] = total.get(k, 0) + v
        self.assertEqual(analysis.check_laws(point("all", **total)), [])

    def test_one_lm_passes(self):
        p = point(mode="1lm", llc_reads=10, llc_writes=5, dram_read=6,
                  nvram_read=4, nvram_write=5)
        self.assertEqual(analysis.check_laws(p), [])

    def test_violations_flagged(self):
        cases = {
            # a clean read miss with six device accesses
            "table1": point(llc_reads=1, tag_miss_clean=1, dram_read=3,
                            nvram_read=2, dram_write=1),
            # a request with no tag outcome
            "accounting": point(llc_reads=2, tag_hit=1, dram_read=2),
            # 10 GB/s delivered against 1 GB/s offered
            "throughput": point(offered=1.0, sim_s=1e-3, demand=10**7,
                                llc_reads=1, tag_hit=1, dram_read=1),
            # five 256 B media writes for one 64 B bus write
            "wpq": point(llc_writes=1, tag_miss_dirty=1, dram_read=1,
                         nvram_write=1, nvram_read=1, dram_write=2,
                         media_blocks=5),
            # two device accesses for one 1LM request
            "1lm": point(mode="1lm", llc_reads=1, nvram_read=2),
        }
        for law, p in cases.items():
            bad = analysis.check_laws(p)
            self.assertEqual(len(bad), 1, (law, bad))
            self.assertTrue(bad[0].startswith("table1" if law == "1lm"
                                              else law), bad)

    def test_controller_reads_match_llc_misses(self):
        p = point(llc_reads=1, tag_hit=1, dram_read=1)
        p["llc_misses"] = 2
        self.assertTrue(analysis.check_laws(p)[0].startswith("accounting"))


class PaperErrTest(unittest.TestCase):
    def test_micro_2lm_by_hand(self):
        # EXPERIMENTS.md, Figure 4 and the headline calibration table:
        # 4a 27.9 GB/s, amplification 2.7; 4b 8.7 GB/s, amplification
        # 4.5; the paper's 23 GB/s, 8 GB/s, 3x and 5x.
        def fig4(name, gbs, amp):
            p = point(name, sim_s=1.0, demand=int(gbs * 1e9),
                      llc_reads=10, tag_miss_clean=10)
            p["counters"]["dram_read"] = int(amp * 10)
            return p
        pts = [fig4("4a/sequential", 27.9, 2.7),
               fig4("4b/sequential", 8.7, 4.5)]
        rows = analysis.paper_comparison("micro_2lm", pts)
        self.assertEqual([r[2] for r in rows], [23.0, 8.0, 3.0, 5.0])
        hand = (4.9 / 23 + 0.7 / 8 + 0.3 / 3 + 0.5 / 5) / 4
        self.assertAlmostEqual(analysis.paper_err(rows), hand, places=12)
        self.assertAlmostEqual(hand, 0.12513586956521738, places=12)

    def test_dnn_train_by_hand(self):
        # EXPERIMENTS.md, Table II: speedups 1.06 / 1.19 / 1.52 against
        # the paper's 1.8 / 2.2 / 3.1.
        pts = []
        for net, speedup in (("inceptionv4", 1.06), ("resnet200", 1.19),
                             ("densenet264", 1.52)):
            pts.append(point(net + "/2lm", sim_s=speedup, llc_reads=1))
            pts.append(point(net + "/autotm", sim_s=1.0, llc_reads=1))
        rows = analysis.paper_comparison("dnn_train", pts)
        hand = ((1.8 - 1.06) / 1.8 + (2.2 - 1.19) / 2.2
                + (3.1 - 1.52) / 3.1) / 3
        self.assertAlmostEqual(analysis.paper_err(rows), hand, places=12)


def header(inner=0.0):
    layers = [("point", "driver"), ("submit", "sys"), ("llc", "llc"),
              ("handle", "imc"), ("nv_write", "nvram"),
              ("drain", "epoch")]
    return {"sample": 64, "inner_ns": inner, "spans": 0,
            "entries": [{"name": n, "layer": l, "calls": 0, "lines": 0}
                        for n, l in layers]}


POINT, SUBMIT, LLC, HANDLE, NVW, DRAIN = range(6)
NONE = analysis.NO_CALLER


def span(start, end, parent, entry, caller, weight=1):
    return (start, end, parent, weight, entry, caller, 0, 0)


class NominalTimeTest(unittest.TestCase):
    NOMINAL = analysis.REF_NOMINAL_S

    def test_nominal_host_leaves_times_alone(self):
        rep = {"setup_steps_s": [1.5, 0.5], "ref": [self.NOMINAL] * 5,
               "points": [{"host_s": 0.5}, {"host_s": 1.5}]}
        self.assertAlmostEqual(analysis.nominal_setup_s(rep), 2.0)
        self.assertAlmostEqual(analysis.nominal_timed_s(rep), 2.0)

    def test_each_time_divided_by_the_samples_around_it(self):
        # Set-up steps between slow-downs 1 and 3, then 3 and 1.5; the
        # points between 1.5 and 2.5, then 2.5 and 0.5.
        ref = [k * self.NOMINAL for k in (1.0, 3.0, 1.5, 2.5, 0.5)]
        rep = {"setup_steps_s": [4.0, 4.5], "ref": ref,
               "points": [{"host_s": 6.0}, {"host_s": 3.0}]}
        self.assertAlmostEqual(analysis.nominal_setup_s(rep),
                               4.0 / 2.0 + 4.5 / 2.25)
        self.assertAlmostEqual(analysis.nominal_timed_s(rep),
                               6.0 / 2.0 + 3.0 / 1.5)


class SelfTimeTest(unittest.TestCase):
    # point [0, 1000]
    #   submit [100, 400]
    #     llc [150, 200]
    #     handle [220, 350]
    #       nv_write [250, 300]
    #   drain [500, 900]
    #     nv_write [600, 700]
    TRACE = [
        span(0, 1000, -1, POINT, NONE),
        span(100, 400, 0, SUBMIT, POINT),
        span(150, 200, 1, LLC, SUBMIT),
        span(220, 350, 1, HANDLE, SUBMIT),
        span(250, 300, 3, NVW, HANDLE),
        span(500, 900, 0, DRAIN, POINT),
        span(600, 700, 5, NVW, DRAIN),
    ]

    def test_nested_trace_exact(self):
        got = analysis.layer_self_ns(header(), self.TRACE)
        self.assertEqual(got, {"sys": 300 - 50 - 130, "llc": 50,
                               "imc": 130 - 50, "nvram": 50 + 100,
                               "epoch": 400 - 100})
        # the layers plus "other" make up the point's 1000 ns
        self.assertEqual(1000 - sum(got.values()), 100 + 100 + 100)

    def test_weights_and_inner_cost(self):
        # a 1-in-64 sampled llc span inside an unrecorded submit: its
        # weighted time moves from sys to llc; the recorder's inner
        # cost comes off the span and goes back to its caller's layer
        trace = [span(0, 1000, -1, POINT, NONE),
                 span(10, 40, 0, LLC, SUBMIT, weight=64)]
        got = analysis.layer_self_ns(header(inner=5.0), trace)
        self.assertEqual(got, {"llc": 25 * 64, "sys": -25 * 64})

    def test_span_file_round_trip(self):
        h = header(inner=3.5)
        h["spans"] = len(self.TRACE)
        with tempfile.NamedTemporaryFile("wb", delete=False) as f:
            f.write((json.dumps(h) + "\n").encode())
            for s in self.TRACE:
                f.write(struct.pack("<qqiIHHHH", *s))
        try:
            got_h, data = analysis.load_spans(f.name)
        finally:
            os.unlink(f.name)
        self.assertEqual(got_h, h)
        self.assertEqual(list(analysis.iter_spans(data)), self.TRACE)


if __name__ == "__main__":
    unittest.main()
