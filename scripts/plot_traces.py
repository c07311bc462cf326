#!/usr/bin/env python3
"""Plot the CSV series and folded stacks the bench binaries emit.

Each figure-reproduction bench writes a tidy CSV (either
time,channel,value traces or per-experiment rows). This script turns
them into PNGs resembling the paper's figures. Files written by
--folded-stacks= (semicolon-separated frames, trailing count) are
rendered as a self-contained flamegraph SVG instead — no matplotlib
needed for those.

JSON artifacts are dispatched on their "schema" field: an
nvsim-telemetry-diff-v1 report (nvsim_inspect diff --json=...) becomes
a per-window signed relative-delta heatmap.

Usage:
    python3 scripts/plot_traces.py fig5_traces.csv [out.png]
    python3 scripts/plot_traces.py fig2_nvram_bw.csv
    python3 scripts/plot_traces.py fig4_folded.txt [out.svg]
    python3 scripts/plot_traces.py tel.csv          # --telemetry= series
    python3 scripts/plot_traces.py diff.json [out.png]

Requires matplotlib for the CSV plots (not needed for the simulation
itself, nor for the flamegraph).
"""

import csv
import html
import json
import sys
import zlib
from collections import defaultdict


def load(path):
    with open(path) as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def plot_trace(header, rows, out):
    """time,channel,value traces (fig5, fig9, fig10)."""
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    series = defaultdict(lambda: ([], []))
    for time, channel, value in rows:
        xs, ys = series[channel]
        xs.append(float(time))
        ys.append(float(value))

    bw = {k: v for k, v in series.items() if k.endswith("_bw")}
    tags = {k: v for k, v in series.items() if k.endswith("_frac")}
    n = 1 + bool(tags)
    fig, axes = plt.subplots(n, 1, figsize=(10, 3.2 * n), sharex=True)
    if n == 1:
        axes = [axes]

    for name, (xs, ys) in sorted(bw.items()):
        axes[0].plot(xs, ys, label=name, linewidth=0.9)
    axes[0].set_ylabel("GB/s")
    axes[0].legend(fontsize=7, ncol=2)
    if tags:
        for name, (xs, ys) in sorted(tags.items()):
            axes[1].plot(xs, ys, label=name, linewidth=0.9)
        axes[1].set_ylabel("fraction of requests")
        axes[1].legend(fontsize=7, ncol=2)
    axes[-1].set_xlabel("simulated seconds")
    fig.tight_layout()
    fig.savefig(out, dpi=150)
    print(f"wrote {out}")


def plot_sweep(header, rows, out):
    """threads-on-x sweeps (fig2)."""
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    figures = defaultdict(lambda: defaultdict(lambda: ([], [])))
    for figure, variant, threads, gbs in rows:
        xs, ys = figures[figure][variant]
        xs.append(int(threads))
        ys.append(float(gbs))

    fig, axes = plt.subplots(1, len(figures),
                             figsize=(5.5 * len(figures), 3.6))
    if len(figures) == 1:
        axes = [axes]
    for ax, (figname, variants) in zip(axes, sorted(figures.items())):
        for variant, (xs, ys) in sorted(variants.items()):
            ax.plot(xs, ys, marker="o", markersize=3, label=variant)
        ax.set_title(f"Figure {figname}")
        ax.set_xlabel("threads")
        ax.set_ylabel("GB/s")
        ax.legend(fontsize=7)
    fig.tight_layout()
    fig.savefig(out, dpi=150)
    print(f"wrote {out}")


def plot_telemetry(header, rows, out):
    """--telemetry= windowed series (run,window,t0,t1,channel,metric,
    value): bandwidth rates on top, latency percentiles below, one
    line per run. Only the aggregate ("all") channel is drawn; the
    per-channel rows carry the same metrics at finer grain."""
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    rates = ("eff_gbs", "dram_gbs", "nvram_gbs")
    pcts = ("p50_ns", "p99_ns")
    series = defaultdict(lambda: ([], []))
    for run, _window, t0, _t1, channel, metric, value in rows:
        if channel != "all" or metric not in rates + pcts:
            continue
        xs, ys = series[(run, metric)]
        xs.append(float(t0) * 1e3)
        ys.append(float(value))

    if not series:
        print(f"no plottable telemetry metrics in {header}")
        return

    have_pcts = any(m in pcts for _, m in series)
    n = 1 + have_pcts
    fig, axes = plt.subplots(n, 1, figsize=(10, 3.2 * n), sharex=True)
    if n == 1:
        axes = [axes]
    for (run, metric), (xs, ys) in sorted(series.items()):
        ax = axes[1] if metric in pcts and have_pcts else axes[0]
        ax.plot(xs, ys, label=f"{run}:{metric}", linewidth=0.9)

    axes[0].set_ylabel("GB/s")
    axes[0].legend(fontsize=6, ncol=2)
    if have_pcts:
        axes[1].set_ylabel("latency (ns)")
        axes[1].set_yscale("log")
        axes[1].legend(fontsize=6, ncol=2)
    axes[-1].set_xlabel("simulated time (ms)")
    fig.tight_layout()
    fig.savefig(out, dpi=150)
    print(f"wrote {out}")


def plot_diff(doc, out):
    """nvsim-telemetry-diff-v1 report -> per-run heatmap of signed
    relative deltas, one row per changed (channel, metric) series and
    one column per window. Red = grew in B, blue = shrank."""
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    runs = [r for r in doc.get("runs", []) if r.get("entries")]
    if not runs:
        print("diff report has no changed series; nothing to plot")
        return

    fig, axes = plt.subplots(len(runs), 1,
                             figsize=(10, 3.0 * len(runs)),
                             squeeze=False)
    for ax, run in zip((a for row in axes for a in row), runs):
        entries = run["entries"]
        keys = sorted({(e["channel"], e["metric"]) for e in entries})
        windows = sorted({int(e["window"]) for e in entries})
        kidx = {k: i for i, k in enumerate(keys)}
        widx = {w: i for i, w in enumerate(windows)}
        grid = [[0.0] * len(windows) for _ in keys]
        for e in entries:
            signed = e["rel"] if e["delta"] >= 0 else -e["rel"]
            grid[kidx[(e["channel"], e["metric"])]][
                widx[int(e["window"])]] = signed
        im = ax.imshow(grid, aspect="auto", cmap="coolwarm",
                       vmin=-1.0, vmax=1.0, interpolation="nearest")
        ax.set_yticks(range(len(keys)))
        ax.set_yticklabels([f"{c}:{m}" for c, m in keys], fontsize=5)
        ax.set_xticks(range(len(windows)))
        ax.set_xticklabels(windows, fontsize=5)
        ax.set_xlabel("window", fontsize=7)
        ax.set_title(f"run '{run['label']}' — signed relative delta "
                     "(B vs A)", fontsize=8)
        fig.colorbar(im, ax=ax, fraction=0.03)
    fig.tight_layout()
    fig.savefig(out, dpi=150)
    print(f"wrote {out}")


def parse_folded(path):
    """`frame;frame;...;leaf count` lines -> list of (frames, count)."""
    stacks = []
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if not line:
                continue
            stack, count = line.rsplit(" ", 1)
            stacks.append((stack.split(";"), int(count)))
    return stacks


def is_folded(path):
    """Folded stacks are not CSV: ';'-joined frames, ' <int>' suffix."""
    with open(path) as f:
        first = f.readline().rstrip("\n")
    if ";" not in first or " " not in first:
        return False
    return first.rsplit(" ", 1)[1].isdigit()


def plot_folded(path, out):
    """Render --folded-stacks= output as a flamegraph SVG (icicle
    layout, root on top). Dependency-free: writes the SVG directly."""
    stacks = parse_folded(path)
    total = sum(c for _, c in stacks)
    if not total:
        print(f"{path}: no samples")
        return

    # Fold the flat stacks into a trie of (own total, children).
    def node():
        return [0, defaultdict(node)]

    root = node()
    for frames, count in stacks:
        root[0] += count
        cur = root
        for frame in frames:
            cur = cur[1][frame]
            cur[0] += count

    width, row, pad = 1200.0, 18, 1

    def depth_of(n):
        return 1 + max((depth_of(c) for c in n[1].values()), default=0)

    height = depth_of(root) * row + 40

    def color(name):
        # Deterministic warm palette keyed by the frame name.
        h = zlib.crc32(name.encode()) & 0xFFFFFFFF
        return "rgb(%d,%d,%d)" % (205 + h % 50, 80 + (h >> 8) % 110,
                                  (h >> 16) % 60)

    rects = []

    def layout(children, x0, x1, depth):
        span = x1 - x0
        parent_total = sum(c[0] for c in children.values())
        x = x0
        for name in sorted(children):
            n = children[name]
            w = span * n[0] / parent_total if parent_total else 0
            if w >= 0.5:
                y = depth * row + 20
                label = html.escape(name)
                pct = 100.0 * n[0] / total
                rects.append(
                    f'<g><title>{label} — {n[0]} accesses '
                    f"({pct:.2f}%)</title>"
                    f'<rect x="{x:.1f}" y="{y}" width="{w - pad:.1f}" '
                    f'height="{row - pad}" fill="{color(name)}" '
                    'rx="1"/>'
                    + (f'<text x="{x + 3:.1f}" y="{y + 13}" '
                       f'font-size="11">{label[: int(w / 7)]}</text>'
                       if w > 25 else "")
                    + "</g>")
                layout(n[1], x, x + w, depth + 1)
            x += w

    layout(root[1], 0.0, width, 0)
    with open(out, "w") as f:
        f.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
            f'height="{height}" font-family="monospace">\n'
            f'<text x="4" y="14" font-size="12">{html.escape(path)} — '
            f"{total} attributed device accesses</text>\n"
            + "\n".join(rects) + "\n</svg>\n")

    # Console summary: the heaviest leaf causes, so the file is useful
    # even without opening the SVG.
    leaves = defaultdict(int)
    for frames, count in stacks:
        leaves[frames[-1]] += count
    print(f"{path}: {total} attributed device accesses")
    for name, count in sorted(leaves.items(), key=lambda kv: -kv[1]):
        print(f"  {100.0 * count / total:6.2f}%  {name}")
    print(f"wrote {out}")


def is_json(path):
    with open(path) as f:
        head = f.read(64).lstrip()
    return head.startswith("{")


def main():
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    flags = [a for a in sys.argv[1:] if a.startswith("--")]
    if flags:
        print(f"unknown flag {flags[0]}")
        return 2
    if not args:
        print(__doc__)
        return 2
    path = args[0]
    if is_json(path):
        out = (args[1] if len(args) > 1
               else path.rsplit(".", 1)[0] + ".png")
        with open(path) as f:
            doc = json.load(f)
        schema = doc.get("schema", "")
        if schema == "nvsim-telemetry-diff-v1":
            plot_diff(doc, out)
            return 0
        print(f"don't know how to plot schema '{schema}'; "
              "diff reports (nvsim-telemetry-diff-v1) are supported")
        return 1
    if is_folded(path):
        out = (args[1] if len(args) > 1
               else path.rsplit(".", 1)[0] + ".svg")
        plot_folded(path, out)
        return 0
    out = args[1] if len(args) > 1 else path.rsplit(".", 1)[0] + ".png"
    header, rows = load(path)
    if header[:2] == ["time", "channel"]:
        plot_trace(header, rows, out)
    elif header[:2] == ["figure", "variant"]:
        plot_sweep(header, rows, out)
    elif header == ["run", "window", "t0", "t1", "channel", "metric",
                    "value"]:
        plot_telemetry(header, rows, out)
    else:
        print(f"don't know how to plot columns {header}; "
              "see EXPERIMENTS.md for the semantics")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
