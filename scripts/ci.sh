#!/bin/sh
# Tier-1 CI: configure, build and run the full test suite twice —
# once plain, once under AddressSanitizer + UBSan (-DNVSIM_SANITIZE=ON)
# — then race-check the sweep pool under ThreadSanitizer, build the
# perfbench package, verify the parallel/batched engines reproduce the
# goldens byte-for-byte and gate host time with perfbench. Any test
# failure, compiler warning (every build is -Werror), sanitizer report
# or perf-gate failure fails the script.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
jobs=$(nproc 2>/dev/null || echo 4)

run_suite() {
    build_dir=$1
    shift
    echo "=== configuring $build_dir ($*) ==="
    cmake -B "$root/$build_dir" -S "$root" "$@"
    echo "=== building $build_dir ==="
    cmake --build "$root/$build_dir" -j "$jobs"
    echo "=== testing $build_dir ==="
    ctest --test-dir "$root/$build_dir" --output-on-failure -j "$jobs"
}

# The plain build is warning-clean and must stay so.
run_suite build -DNVSIM_SANITIZE=OFF -DCMAKE_CXX_FLAGS=-Werror
run_suite build-asan -DNVSIM_SANITIZE=ON -DCMAKE_CXX_FLAGS=-Werror

# The benchmark's own analysis unit tests (perfbench/analysis.py).
echo "=== perfbench analysis unit tests ==="
(cd "$root" && python3 -m unittest discover perfbench/tests)

# The benchmark package (perfbench/) compiles src/ on its own and
# interposes the layer entry points named in wrapped_symbols.txt at
# link time, so a renamed or inlined entry point fails this link. It
# builds where and as perfbench/run.py does, so the perf gate below
# rebuilds nothing.
echo "=== perfbench build (perfbench + perfbench_traced) ==="
pb_dir="$root/.bench_build/perfbench"
cmake -B "$pb_dir" -S "$root/perfbench" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
cmake --build "$pb_dir" -j "$jobs" --target perfbench perfbench_traced
echo "perfbench build passed: both drivers link."

# ThreadSanitizer pass over the sweep pool: its tests plus real bench
# runs at --jobs=4, on the plain microbench and on the queued-controller
# load sweep, whose channels carry per-run queue state. Scoped to the
# concurrency-bearing targets — the full suite is single-threaded and
# already covered.
echo "=== TSan suite (sweep pool) ==="
cmake -B "$root/build-tsan" -S "$root" -DNVSIM_SANITIZE=thread \
    -DCMAKE_CXX_FLAGS=-Werror
cmake --build "$root/build-tsan" -j "$jobs" \
    --target test_exec test_access_range bench_fig4_2lm_microbench \
    bench_queue_load
# Run the binaries directly: the tree only builds these targets, and
# ctest would trip over every other test's _NOT_BUILT placeholder.
"$root/build-tsan/tests/test_exec"
"$root/build-tsan/tests/test_access_range"
tsan_dir=$(mktemp -d)
(cd "$tsan_dir" && \
    "$root/build-tsan/bench/bench_fig4_2lm_microbench" --jobs=4 \
    > bench.log)
(cd "$tsan_dir" && \
    "$root/build-tsan/bench/bench_queue_load" --jobs=4 > queue.log)
rm -rf "$tsan_dir"
echo "TSan suite passed: no data races reported."

# Determinism smoke: the sweep engine and the batched access engine
# must reproduce the serial per-line output byte-for-byte — console
# and CSV alike — for any --jobs=N.
echo "=== determinism smoke (--jobs / --per-line byte-diff) ==="
det_dir=$(mktemp -d)
for variant in "jobs1 --jobs=1" "jobs4 --jobs=4" \
               "perline --jobs=1 --per-line"; do
    name=${variant%% *}
    flags=${variant#* }
    mkdir -p "$det_dir/$name"
    # shellcheck disable=SC2086  # flags is a word list by design
    (cd "$det_dir/$name" && \
        "$root/build/bench/bench_fig4_2lm_microbench" $flags \
        > stdout.txt)
done
diff -r "$det_dir/jobs1" "$det_dir/jobs4"
diff -r "$det_dir/jobs1" "$det_dir/perline"
rm -rf "$det_dir"
echo "determinism smoke passed: outputs byte-identical."

# Observability smoke: fig2 (1LM) and fig4 (2LM) with every obs
# output enabled, on the range path and on the per-line reference
# loop. An observer rides the range path, so the two directories must
# be byte-identical. The JSON artifacts must parse (json.tool exits
# nonzero otherwise), and fig4's stats JSON must show Table I: every
# request class within 1-5 device accesses, clean read misses at 3
# and NT-write dirty misses at 5. Fig4's causal JSON must show the
# same two rows cause by cause, through the blame trees
# (causalBreakdown2lm) rather than the DeviceActions totals the stats
# read.
echo "=== obs smoke (observed artifacts on both paths, Table I) ==="
obs_dir=$(mktemp -d)
trap 'rm -rf "$obs_dir"' EXIT
for variant in "range --jobs=1" "perline --jobs=1 --per-line"; do
    name=${variant%% *}
    flags=${variant#* }
    for bench in fig2_nvram_bw fig4_2lm_microbench; do
        mkdir -p "$obs_dir/$name/$bench"
        # shellcheck disable=SC2086  # flags is a word list by design
        (cd "$obs_dir/$name/$bench" && "$root/build/bench/bench_$bench" \
            $flags --stats-json=stats.json --perfetto=trace.json --causal-trace=causal.json \
            --folded-stacks=folded.txt --causal-sample=7 > bench.log)
    done
done
diff -r "$obs_dir/range" "$obs_dir/perline"
for bench in fig2_nvram_bw fig4_2lm_microbench; do
    for f in stats.json trace.json causal.json; do
        python3 -m json.tool "$obs_dir/range/$bench/$f" > /dev/null
    done
    test -s "$obs_dir/range/$bench/folded.txt"
done
python3 - "$obs_dir/range/fig4_2lm_microbench/stats.json" <<'EOF'
import json, sys
runs = json.load(open(sys.argv[1]))["runs"]
pinned = {"4a read-only": ("miss_clean", 3),
          "4b write-only NT": ("miss_dirty", 5)}
seen = {prefix: 0 for prefix in pinned}
for run in runs:
    label, requests = run["label"], run["stats"]["requests"]
    for klass, hists in requests.items():
        if not isinstance(hists, dict):
            continue  # the dma_requests scalar
        acc = hists["device_accesses"]
        if acc["count"]:
            assert 1 <= acc["min"] and acc["max"] <= 5, \
                f"{label}: {klass} outside Table I's 1-5: {acc}"
    for prefix, (klass, accesses) in pinned.items():
        if label.startswith(prefix):
            acc = requests[klass]["device_accesses"]
            assert acc["count"] > 0, f"{label}: no {klass} requests"
            assert acc["min"] == acc["max"] == accesses, \
                f"{label}: {klass} not all at {accesses}: {acc}"
            seen[prefix] += 1
assert all(n == 2 for n in seen.values()), f"pinned runs missing: {seen}"
EOF
python3 - "$obs_dir/range/fig4_2lm_microbench/causal.json" <<'EOF'
import json, sys
runs = json.load(open(sys.argv[1]))["runs"]
pinned = {"4a read-only": ("read_miss_clean",
                           ["tag_probe", "cache_fill_read",
                            "cache_insert_write"]),
          "4b write-only NT": ("write_miss_dirty",
                               ["tag_probe", "cache_fill_read",
                                "cache_insert_write", "data_write",
                                "dirty_writeback"])}
seen = {prefix: 0 for prefix in pinned}
for run in runs:
    label = run["label"]
    for prefix, (klass, causes) in pinned.items():
        if not label.startswith(prefix):
            continue
        rows = [c for ctx in run["causal"]["contexts"]
                for c in ctx["classes"] if c["class"] == klass]
        assert rows, f"{label}: no sampled {klass} requests"
        for row in rows:
            n = row["samples"]
            assert n > 0 and row["accesses_per_request"] == len(causes), \
                f"{label}: {klass} not at {len(causes)} accesses: {row}"
            counts = {c["cause"]: c["count"] for c in row["causes"]}
            assert counts == {c: n for c in causes}, \
                f"{label}: {klass} causes {counts}, want {causes} x {n}"
        seen[prefix] += 1
assert all(n == 2 for n in seen.values()), f"pinned runs missing: {seen}"
EOF
echo "obs smoke passed: observed artifacts identical on both paths," \
     "valid, and within Table I by stats and by blame tree."

# Flag and module census: every flag benchUsage() lists (any bench
# prints it on an unknown argument) must have a row in DESIGN.md's
# census table naming its consumer, the flags the census deleted stay
# deleted, and every directory in src/ and every program in tools/ and
# examples/ has a row in DESIGN.md's module table.
echo "=== flag and module census (vs DESIGN.md) ==="
fig4="$root/build/bench/bench_fig4_2lm_microbench"
# Run a command that must fail; its output lands in $obs_dir/out.txt.
rejects() {
    if "$@" > "$obs_dir/out.txt" 2>&1; then
        echo "expected a nonzero exit from: $*"
        exit 1
    fi
}
rejects "$fig4" --no-such-flag
census=$(grep -oE '^  --[a-z-]+=?' "$obs_dir/out.txt")
test -n "$census"
for flag in $census; do
    grep -qF "| \`$flag" "$root/DESIGN.md" || {
        echo "flag $flag has no row in DESIGN.md's flag census"
        exit 1
    }
done
for arg in --set-heatmap=x --top-sets=4 --anomaly-report=x \
           --anomaly-z=6 --stats-prom=x --causal-seed=1 \
           --telemetry-window=1ms; do
    rejects "$fig4" "$arg"
    grep -q "unknown argument '$arg'" "$obs_dir/out.txt"
done
rejects "$root/build/tools/nvsim_inspect" anomalies x.json
grep -q '^usage: nvsim_inspect' "$obs_dir/out.txt"
modules=$(cd "$root" && for d in src/*/; do echo "${d%/}"; done &&
          for f in tools/*.cc examples/*.cpp; do
              f=${f##*/}; echo "${f%.*}"
          done)
for module in $modules; do
    grep -qF "| \`$module\` |" "$root/DESIGN.md" || {
        echo "module $module has no row in DESIGN.md's module census"
        exit 1
    }
done
echo "census passed: $(echo "$census" | wc -l) flags and" \
     "$(echo "$modules" | wc -l) modules, each with a consumer;" \
     "deleted flags rejected."

# Causal-tracing smoke: the attribution JSON and the Perfetto flow
# trace must parse, and the folded stacks must blame every Figure-3
# miss-handler step (the five Table I causes) at least once.
echo "=== causal smoke (attribution / folded stacks / flow events) ==="
(cd "$obs_dir" && "$root/build/bench/bench_fig4_2lm_microbench" \
    --causal-trace=causal.json --folded-stacks=folded.txt \
    --perfetto=causal_trace.json --causal-sample=32 > causal.log)
# Tracing is strictly opt-in: the traced run's CSV is the golden.
diff "$root/tests/golden/fig4_2lm_microbench.csv" \
     "$obs_dir/fig4_2lm_microbench.csv"
python3 -m json.tool "$obs_dir/causal.json" > /dev/null
python3 -m json.tool "$obs_dir/causal_trace.json" > /dev/null
grep -q '"ph":"s"' "$obs_dir/causal_trace.json"
grep -q '"bp":"e"' "$obs_dir/causal_trace.json"
for cause in tag_probe dirty_writeback cache_fill_read \
             cache_insert_write data_write; do
    grep -q ";$cause " "$obs_dir/folded.txt"
done
echo "causal smoke passed: blame trees cover all five causes."

# Golden byte-diff: under the default policy the refactored controller
# must reproduce the seed's figure/table outputs byte-for-byte — the
# policy interface is an extraction, not a behavior change — serially,
# across sweep workers and on the per-line reference engine alike.
echo "=== golden byte-diff (default policy vs tests/golden) ==="
gold_dir=$(mktemp -d)
for variant in "jobs1 --jobs=1" "jobs4 --jobs=4" \
               "perline --jobs=1 --per-line"; do
    name=${variant%% *}
    flags=${variant#* }
    mkdir -p "$gold_dir/$name"
    for bench in fig2_nvram_bw fig4_2lm_microbench; do
        # shellcheck disable=SC2086  # flags is a word list by design
        (cd "$gold_dir/$name" && \
            "$root/build/bench/bench_$bench" $flags > /dev/null)
        diff "$root/tests/golden/$bench.csv" "$gold_dir/$name/$bench.csv"
    done
done
(cd "$gold_dir" && \
    "$root/build/bench/bench_table1_amplification" > table1_stdout.txt)
diff "$root/tests/golden/table1_stdout.txt" "$gold_dir/table1_stdout.txt"
rm -rf "$gold_dir"
echo "golden byte-diff passed: default-policy outputs match the seed."

# Root-CSV twins: every checked-in root CSV that has a tests/golden/
# twin must equal it byte for byte, so the two copies cannot drift.
echo "=== root CSVs vs their tests/golden twins ==="
twins=0
for golden in "$root"/tests/golden/*.csv; do
    csv="$root/${golden##*/}"
    [ -e "$csv" ] || continue
    cmp "$golden" "$csv"
    twins=$((twins + 1))
done
test "$twins" -gt 0
echo "root CSVs match: $twins twins byte-identical."

# Demand-paged goldens: the DNN, DLRM and batch-scaling benches run
# with OS demand paging (scatterPages), which the batched engine
# serves. Their CSVs must match tests/golden/ byte for byte on the
# batched engine and on the per-line reference alike. The
# associativity ablation (multi-way LRU stamps), the DMA mover
# (invalidateLine calls that end an LLC run) and the DDO, write-policy
# and cache-policy ablations ride along. The cache-policy CSV must
# also keep its documented schema and sweep every registered policy,
# so a missing policy is named, not only a diff.
echo "=== demand-paged golden byte-diff (--jobs=4 and --per-line) ==="
dp_dir=$(mktemp -d)
for variant in "jobs4 --jobs=4" "perline --jobs=4 --per-line"; do
    name=${variant%% *}
    flags=${variant#* }
    mkdir -p "$dp_dir/$name"
    for bench in fig5_densenet_trace fig6_kernel_snapshot \
                 fig10_autotm_trace table2_cnn_comparison \
                 ext_batch_scaling ext_dlrm ablation_associativity \
                 ext_dma_mover ablation_ddo ablation_write_policy \
                 ablation_policy; do
        # shellcheck disable=SC2086  # flags is a word list by design
        (cd "$dp_dir/$name" && \
            "$root/build/bench/bench_$bench" $flags > /dev/null)
    done
    for csv in fig5_arena_map fig5_traces fig6_kernel_snapshot \
               fig10_autotm_trace table2_cnn_comparison \
               ext_batch_scaling ext_dlrm ablation_associativity \
               ext_dma_mover ablation_ddo ablation_write_policy \
               ablation_policy; do
        diff "$root/tests/golden/$csv.csv" "$dp_dir/$name/$csv.csv"
    done
done
head -1 "$dp_dir/jobs4/ablation_policy.csv" | grep -q \
    '^policy,scenario,ratio,miss_rate,effective_gbs,amplification,bypass_frac$'
for kind in direct_mapped_tag_ecc sram_tag_set_assoc \
            bypass_selective_insert; do
    grep -q "^$kind," "$dp_dir/jobs4/ablation_policy.csv"
done
rm -rf "$dp_dir"
echo "demand-paged byte-diff passed: both engines match the goldens," \
    "every registered policy swept."

# Maintenance-off equivalence: a config that spells the refresh block
# out explicitly, with refresh off, must reproduce the golden figure
# outputs byte-for-byte — refresh is behavior-neutral until enabled.
echo "=== maintenance-off golden byte-diff ==="
moff_dir=$(mktemp -d)
cat > "$moff_dir/maint_off.json" <<'EOF'
{ "maintenance": { "refresh": {"trefi": 0, "trfc": 350e-9} } }
EOF
(cd "$moff_dir" && \
    "$root/build/bench/bench_fig2_nvram_bw" --jobs=1 \
        --config=maint_off.json > /dev/null && \
    "$root/build/bench/bench_fig4_2lm_microbench" --jobs=1 \
        --config=maint_off.json > /dev/null && \
    "$root/build/bench/bench_table1_amplification" > table1_stdout.txt)
diff "$root/tests/golden/fig2_nvram_bw.csv" "$moff_dir/fig2_nvram_bw.csv"
diff "$root/tests/golden/fig4_2lm_microbench.csv" \
     "$moff_dir/fig4_2lm_microbench.csv"
diff "$root/tests/golden/table1_stdout.txt" "$moff_dir/table1_stdout.txt"
rm -rf "$moff_dir"
echo "maintenance-off byte-diff passed: all-off equals absent."

# Telemetry smoke: one run with every telemetry output enabled. The
# CSV must carry the documented header, the JSON must parse and carry
# the schema marker, and the SLO report must print a verdict per run.
echo "=== telemetry smoke (windowed series / JSON / SLO report) ==="
tel_dir=$(mktemp -d)
(cd "$tel_dir" && "$root/build/bench/bench_fig4_2lm_microbench" \
    --telemetry=tel.csv --telemetry-json=tel.json \
    --slo='p99_ns<100000@95%;amplification<8' \
    > bench.log)
head -1 "$tel_dir/tel.csv" | grep -q '^run,window,t0,t1,channel,metric,value$'
python3 -m json.tool "$tel_dir/tel.json" > /dev/null
grep -q '"schema": "nvsim-telemetry-v1"' "$tel_dir/tel.json" || \
    grep -q '"schema":"nvsim-telemetry-v1"' "$tel_dir/tel.json"
grep -q '=== SLO report:' "$tel_dir/bench.log"
grep -Eq 'PASS|FAIL' "$tel_dir/bench.log"
rm -rf "$tel_dir"
echo "telemetry smoke passed: artifacts written and valid."

# Telemetry byte-diff: unlike the Observer outputs, telemetry keeps
# the sweep parallel — and its exports must still be byte-identical
# for any --jobs=N (per-run collectors, order-normalized rendering).
echo "=== telemetry determinism (--jobs byte-diff) ==="
teld_dir=$(mktemp -d)
for n in 1 4; do
    mkdir -p "$teld_dir/jobs$n"
    (cd "$teld_dir/jobs$n" && \
        "$root/build/bench/bench_fig4_2lm_microbench" --jobs=$n \
        --telemetry=tel.csv --telemetry-json=tel.json > /dev/null)
done
diff "$teld_dir/jobs1/tel.csv" "$teld_dir/jobs4/tel.csv"
diff "$teld_dir/jobs1/tel.json" "$teld_dir/jobs4/tel.json"
rm -rf "$teld_dir"
echo "telemetry determinism passed: exports byte-identical."

# Differential-telemetry smoke: two identical invocations must diff
# empty (exit 0); a config that turns refresh on must diff non-empty
# (exit 1) with the regression blamed on the maintenance counter
# family. Also smokes the manifest subcommand.
echo "=== diff smoke (nvsim_inspect over telemetry artifacts) ==="
inspect="$root/build/tools/nvsim_inspect"
diff_dir=$(mktemp -d)
for tag in a b; do
    mkdir -p "$diff_dir/$tag"
    (cd "$diff_dir/$tag" && \
        "$root/build/bench/bench_fig4_2lm_microbench" --jobs=2 \
        --telemetry-json=tel.json > /dev/null)
done
"$inspect" diff "$diff_dir/a/tel.json" "$diff_dir/b/tel.json"
echo "identical-input diff is empty (exit 0)."
cat > "$diff_dir/maint_on.json" <<'EOF'
{ "maintenance": { "refresh": {"trefi": 7.8e-6, "trfc": 350e-9} } }
EOF
mkdir -p "$diff_dir/maint"
(cd "$diff_dir/maint" && \
    "$root/build/bench/bench_fig4_2lm_microbench" --jobs=2 \
    --config="$diff_dir/maint_on.json" --telemetry-json=tel.json \
    > /dev/null)
set +e
"$inspect" diff "$diff_dir/a/tel.json" "$diff_dir/maint/tel.json" \
    --json="$diff_dir/diff.json" > "$diff_dir/diff.txt"
diff_rc=$?
set -e
test "$diff_rc" -eq 1
grep -q 'blame maintenance' "$diff_dir/diff.txt"
grep -q 'maintenance_stall_ns' "$diff_dir/diff.txt"
grep -q 'config hash' "$diff_dir/diff.txt"
python3 -m json.tool "$diff_dir/diff.json" > /dev/null
"$inspect" manifest "$diff_dir/a/tel.json" | \
    grep -q 'bench: bench_fig4_2lm_microbench'
rm -rf "$diff_dir"
echo "diff smoke passed: empty on identical runs, maintenance blamed" \
     "on refresh."

# Queue-off golden byte-diff: a config that spells out the whole
# controller block explicitly — the analytic scheduler plus non-default
# queue geometry — must reproduce the golden figure outputs byte for
# byte. The queue knobs are dead until a queued scheduler is selected;
# the analytic path is the same code the goldens were recorded on.
echo "=== queue-off golden byte-diff (explicit analytic controller) ==="
qoff_dir=$(mktemp -d)
cat > "$qoff_dir/queue_off.json" <<'EOF'
{
  "controller": {
    "scheduler": "analytic",
    "read_queue_entries": 8,
    "write_queue_entries": 24,
    "banks": 8,
    "row_bytes": 4096,
    "drain_high_watermark": 20,
    "drain_low_watermark": 4,
    "starvation_cap": 4,
    "bank_conflict_penalty": 45e-9,
    "offered_gbs": 100
  }
}
EOF
(cd "$qoff_dir" && \
    "$root/build/bench/bench_fig2_nvram_bw" --jobs=1 \
        --config=queue_off.json > /dev/null && \
    "$root/build/bench/bench_fig4_2lm_microbench" --jobs=1 \
        --config=queue_off.json > /dev/null)
diff "$root/tests/golden/fig2_nvram_bw.csv" "$qoff_dir/fig2_nvram_bw.csv"
diff "$root/tests/golden/fig4_2lm_microbench.csv" \
     "$qoff_dir/fig4_2lm_microbench.csv"
rm -rf "$qoff_dir"
echo "queue-off byte-diff passed: analytic controller equals the seed."

# Saturated-channel smoke: the queued-controller load sweep must show
# the tail pulling away from the median as the offered load crosses
# the channel service knee (the bench's own verdict line), report
# nonzero queue activity, and reproduce its golden CSV and console
# output byte for byte at any --jobs and on the per-line reference
# engine, so a deterministic change to queued timing fails here as
# well as a nondeterministic one or an engine disagreement.
echo "=== queue smoke (bench_queue_load golden + saturation) ==="
ql_dir=$(mktemp -d)
for variant in "jobs1 --jobs=1" "jobs4 --jobs=4" \
               "perline --jobs=4 --per-line"; do
    name=${variant%% *}
    flags=${variant#* }
    mkdir -p "$ql_dir/$name"
    # shellcheck disable=SC2086  # flags is a word list by design
    (cd "$ql_dir/$name" && \
        "$root/build/bench/bench_queue_load" $flags > stdout.txt)
    diff "$root/tests/golden/queue_load.csv" \
         "$ql_dir/$name/queue_load.csv"
    diff "$root/tests/golden/queue_load_stdout.txt" \
         "$ql_dir/$name/stdout.txt"
done
grep -q "tail stretches under load (as expected)" \
    "$ql_dir/jobs1/stdout.txt"
grep -q "^analytic,0,.*,0,0,0,0$" "$ql_dir/jobs1/queue_load.csv"
awk -F, 'NR > 2 && $7 == 0 { exit 1 }' "$ql_dir/jobs1/queue_load.csv"
# The telemetry SLO report must see the same tail: fig4 under a
# saturating FR-FCFS controller, whole-run p99 > p50 in the exported
# sketch (the analytic engine reports p99 == p50 by construction).
# The ring holds every window of the longest run (106), so no verdict
# is voided by eviction. Each run's overall verdict is checked by its
# label: the read and RMW runs queue past 1 us, while the NT-write
# runs stay below it (posted writes complete at issue, p99 81 ns).
cat > "$ql_dir/frfcfs_sat.json" <<'EOF'
{ "controller": { "scheduler": "frfcfs", "offered_gbs": 8 } }
EOF
(cd "$ql_dir" && "$root/build/bench/bench_fig4_2lm_microbench" \
    --jobs=1 --config=frfcfs_sat.json --telemetry-json=tel.json \
    --telemetry-ring=16384 --slo='p99_ns>1000@50%' > slo.log)
awk '/^=== SLO report: / { sub(/^=== SLO report: /, "");
                           sub(/ ===$/, ""); label = $0 }
     /^  overall: / { print label ": " $2 }' "$ql_dir/slo.log" \
    > "$ql_dir/verdicts.txt"
cat > "$ql_dir/expected.txt" <<'EOF'
4a read-only, clean misses, 24T/random: PASS
4a read-only, clean misses, 24T/sequential: PASS
4b write-only NT, dirty misses, 24T/random: FAIL
4b write-only NT, dirty misses, 24T/sequential: FAIL
4c rmw standard, dirty miss + DDO, 4T/random: PASS
4c rmw standard, dirty miss + DDO, 4T/sequential: PASS
EOF
diff "$ql_dir/expected.txt" "$ql_dir/verdicts.txt"
if grep -q 'windows evicted' "$ql_dir/slo.log"; then
    echo "queue smoke: the telemetry ring evicted windows"
    exit 1
fi
python3 - "$ql_dir/tel.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
lats = [r["telemetry"]["latency"] for r in doc["runs"]]
assert lats, "no telemetry runs in tel.json"
assert any(l["p99_ns"] > l["p50_ns"] for l in lats), \
    "saturated queued runs show no tail (p99 == p50 everywhere)"
EOF
rm -rf "$ql_dir"
echo "queue smoke passed: outputs match the golden, saturated p99 > p50."

# Perf gate: perfbench's end-to-end metrics on all four workloads at
# the anchor's fixed seeds. A run that is not correct, a host metric
# or peak RSS worse than scripts/perf_anchor.json by more than its
# BENCHMARK.json bound, or any rise in paper_err or fall in
# law_pass_frac fails. Host times are perfbench's nominal-speed ones,
# so the anchor holds across sessions on a drifting shared host. The
# script then hands the same results an anchor tampered the wrong way,
# one field of one workload at a time, and fails unless each trips the
# gate: the gate is shown able to fail without a second run.
echo "=== perf gate (perfbench vs scripts/perf_anchor.json) ==="
python3 "$root/scripts/perf_gate.py"
echo "perf gate passed; every tampered field trips it."

echo "CI passed: suites, goldens and perf gate green."
