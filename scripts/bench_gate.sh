#!/usr/bin/env bash
# Per-stage bench-regression gate.
#
# Rebuilds the release perf harness, runs it twice, takes the per-stage
# minimum of the two runs (wall-clock noise is one-sided: load only ever
# slows a stage down), and compares each pipeline stage against the
# committed BENCH_pipeline.json baseline. The per-stage timings come from
# the run's own observability context (perf threads a RunContext through
# the experiment), so the stage set is exactly what the pipeline timed.
# Exits non-zero if any gated stage regresses by more than REGRESSION_PCT
# percent, or if the stage sets diverge: a stage present in the baseline
# but absent from the fresh runs (or vice versa) means the pipeline's
# instrumentation changed and the baseline must be regenerated — that is
# a hard failure naming the stage, never a silent skip.
#
# Stage comparisons are load-normalized: each stage's timing is scaled
# by the ratio of summed stage times before comparing. On a shared host,
# background load inflates every stage uniformly — that cancels out
# under normalization — while a code regression shows up as a stage
# growing its *share* of the accounted time, which does not. The sum of
# per-stage minima is used rather than the raw single-threaded total
# because the minima converge to the quiet-machine floor much faster
# than any whole-run total does; the raw total is printed for context
# but not gated.
#
# Stages below MIN_STAGE_MS in the baseline are reported but not gated:
# at sub-millisecond scale, scheduler jitter swamps any real change.
#
# Usage: scripts/bench_gate.sh
set -euo pipefail
cd "$(dirname "$0")/.."
root="$(pwd)"

BASELINE=BENCH_pipeline.json
REGRESSION_PCT=${REGRESSION_PCT:-15}
MIN_STAGE_MS=${MIN_STAGE_MS:-1.0}
KERNEL_SPEEDUP_FLOOR=${KERNEL_SPEEDUP_FLOOR:-5.0}

# The large-n kernel sweep (sidefp-bench --bin kernels --json) commits a
# separate BENCH_kernels.json. Re-running it here would dominate the gate
# (tens of seconds of converged large-n solves), so the committed file is
# validated statically instead: at n = 10000 every approximation path
# must keep its >= KERNEL_SPEEDUP_FLOOR x win over the exact path. A
# regressed baseline cannot be committed without this gate naming it.
if [[ -f BENCH_kernels.json ]]; then
    awk -v floor="$KERNEL_SPEEDUP_FLOOR" '
        /"n": 10000/ { at10k = 1 }
        at10k && /"n": 50000/ { at10k = 0 }
        at10k {
            line = $0
            gsub(/[",:]/, " ", line)
            split(line, f, " ")
            if (f[1] ~ /_ms$/ && f[2] + 0 == f[2]) v[f[1]] = f[2]
        }
        END {
            if (!("ocsvm_exact_ms" in v)) {
                print "bench_gate: BENCH_kernels.json has no exact n=10000 row; regenerate with: kernels --json"
                exit 1
            }
            bad = ""
            if (v["ocsvm_exact_ms"] < floor * v["ocsvm_nystrom_ms"]) bad = bad " ocsvm_nystrom"
            if (v["kde_dense_eval_ms"] < floor * v["kde_binned_eval_ms"]) bad = bad " kde_binned"
            if (bad != "") {
                print "bench_gate: FAIL — committed BENCH_kernels.json below " floor "x at n=10000:" bad
                exit 1
            }
            printf "bench_gate: kernel baseline OK (n=10000: nystrom %.1fx, binned kde %.1fx)\n", \
                v["ocsvm_exact_ms"] / v["ocsvm_nystrom_ms"], \
                v["kde_dense_eval_ms"] / v["kde_binned_eval_ms"]
        }
    ' BENCH_kernels.json
fi

# The streaming-lot recalibration bench (sidefp-bench --bin drift --json)
# commits BENCH_drift.json with one row per scale. Validated statically
# like the kernel sweep: at mid scale incremental recalibration must keep
# its >= DRIFT_RATIO_FLOOR x cost advantage over a full from-scratch
# refit, and at paper scale (10^5 KDE samples, where the boundary
# self-check re-scores the whole S5 population) it must stay at least
# DRIFT_PAPER_RATIO_FLOOR x, i.e. no dearer than a refit, or the baseline
# cannot land.
DRIFT_RATIO_FLOOR=${DRIFT_RATIO_FLOOR:-3.0}
DRIFT_PAPER_RATIO_FLOOR=${DRIFT_PAPER_RATIO_FLOOR:-1.0}
if [[ -f BENCH_drift.json ]]; then
    awk -v mid_floor="$DRIFT_RATIO_FLOOR" -v paper_floor="$DRIFT_PAPER_RATIO_FLOOR" '
        {
            line = $0
            gsub(/[",:]/, " ", line)
            split(line, f, " ")
            if (f[1] == "scale") scale = f[2]
            if (f[1] == "cost_ratio") ratio[scale] = f[2]
        }
        END {
            floor["mid"] = mid_floor
            floor["paper"] = paper_floor
            for (s in floor) {
                if (ratio[s] == "") {
                    print "bench_gate: BENCH_drift.json has no " s "-scale cost_ratio; regenerate with: drift --json"
                    exit 1
                }
                if (ratio[s] + 0 < floor[s]) {
                    printf "bench_gate: FAIL — committed BENCH_drift.json %s-scale cost_ratio %.2fx below the %.1fx floor\n", s, ratio[s], floor[s]
                    exit 1
                }
            }
            printf "bench_gate: drift baseline OK (full refit / incremental recalibration: mid %.1fx, paper %.2fx)\n", ratio["mid"], ratio["paper"]
        }
    ' BENCH_drift.json
fi

# The batch-scoring throughput bench (sidefp-bench --bin throughput
# --json) commits BENCH_throughput.json. Validated statically: the
# amortization ratio (full-pipeline classification cost per chip over
# marginal artifact-scoring cost per chip) must stay at least
# AMORTIZATION_FLOOR x, or the fit/score split has stopped paying for
# itself and the baseline cannot land.
AMORTIZATION_FLOOR=${AMORTIZATION_FLOOR:-100.0}
if [[ -f BENCH_throughput.json ]]; then
    awk -v floor="$AMORTIZATION_FLOOR" '
        {
            line = $0
            gsub(/[",:]/, " ", line)
            split(line, f, " ")
            if (f[1] == "amortization_ratio") ratio = f[2]
            if (f[1] == "chips_per_sec") cps = f[2]
            if (f[1] == "p99_batch_ms") p99 = f[2]
        }
        END {
            if (ratio == "" || cps == "" || p99 == "") {
                print "bench_gate: BENCH_throughput.json missing amortization_ratio/chips_per_sec/p99_batch_ms; regenerate with: throughput --json"
                exit 1
            }
            if (ratio + 0 < floor) {
                printf "bench_gate: FAIL — committed BENCH_throughput.json amortization %.1fx below the %.0fx floor\n", ratio, floor
                exit 1
            }
            printf "bench_gate: throughput baseline OK (%.0fx amortization, %.0f chips/sec, p99 %.1f ms)\n", ratio, cps, p99
        }
    ' BENCH_throughput.json
fi

# The scenario matrix (sidefp-bench --bin scenario-matrix --json) commits
# BENCH_scenarios.json: one record per (channel stack x Trojan class x
# corner x preset) cell with flattened per-boundary counts. Validated
# statically: the grid must keep at least SCENARIO_MIN cells, every cell
# must carry the B5 counts, the paper cell must hold the Table-1 shape,
# and the Trojan-III story must stay intact — the dormant payload is
# invisible to the power-only tester but caught by the full multi-
# parameter stack. A regenerated report that loses any of these cannot
# land without this gate naming the broken cell.
SCENARIO_MIN=${SCENARIO_MIN:-12}
if [[ -f BENCH_scenarios.json ]]; then
    awk -v min="$SCENARIO_MIN" '
        {
            line = $0
            gsub(/[",:]/, " ", line)
            split(line, f, " ")
            if (f[1] == "name") { cur = f[2]; count++ }
            if (f[1] == "b5_fp") { fp[cur] = f[2]; rows++ }
            if (f[1] == "b5_fn") fn_[cur] = f[2]
            if (f[1] == "b5_infested") inf[cur] = f[2]
        }
        END {
            if (count < min) {
                print "bench_gate: FAIL — BENCH_scenarios.json has " count " scenarios, need >= " min "; regenerate with: scenario-matrix --json"
                exit 1
            }
            if (rows != count) {
                print "bench_gate: FAIL — BENCH_scenarios.json: " count " scenarios but " rows " b5_fp entries; regenerate with: scenario-matrix --json"
                exit 1
            }
            paper = "power/always-on/tt/paper"
            if (!(paper in fp)) {
                print "bench_gate: FAIL — BENCH_scenarios.json is missing the paper cell " paper
                exit 1
            }
            if (fp[paper] + 0 > 2 || fn_[paper] + 0 > 8) {
                printf "bench_gate: FAIL — paper cell B5 out of the Table-1 band: FP %d (<= 2), FN %d (<= 8)\n", fp[paper], fn_[paper]
                exit 1
            }
            blind = "power/dormant/tt/paper"
            if ((blind in fp) && fp[blind] + 0 < 0.9 * inf[blind]) {
                printf "bench_gate: FAIL — dormant payload no longer invisible to power-only (B5 FP %d/%d); the Trojan-III physics changed\n", fp[blind], inf[blind]
                exit 1
            }
            wide = "power+iddt+delay+spectral/dormant/tt/paper"
            if ((wide in fp) && fp[wide] + 0 > 0.3 * inf[wide]) {
                printf "bench_gate: FAIL — full stack misses the dormant payload (B5 FP %d/%d, floor 30%%)\n", fp[wide], inf[wide]
                exit 1
            }
            printf "bench_gate: scenario baseline OK (%d cells; paper B5 %d/%d, power-blind dormant %d/%d, full-stack dormant %d/%d)\n", \
                count, fp[paper], fn_[paper], fp[blind], inf[blind], fp[wide], inf[wide]
        }
    ' BENCH_scenarios.json
fi

# The scaling sweep (perf --scaling) commits BENCH_scaling.json: per-stage
# speedup curves over the worker ladder, threads=1 first. Validated
# statically: the ladder must open at threads=1, every committed speedup
# curve (total and per-stage) must open at exactly 1.0 — threads=1 is the
# reference rung, so any other leading value means the reference itself
# drifted — and at least SCALING_MIN_STAGES stages must carry a curve.
SCALING_MIN_STAGES=${SCALING_MIN_STAGES:-5}
if [[ -f BENCH_scaling.json ]]; then
    awk -v minstages="$SCALING_MIN_STAGES" '
        /"thread_counts"/ {
            line = $0
            gsub(/[^0-9, ]/, "", line)
            split(line, t, ",")
            first_thread = t[1] + 0
            have_threads = 1
        }
        /"total_speedup"/ {
            line = $0
            sub(/.*\[/, "", line)
            split(line, v, ",")
            total_first = v[1] + 0
            have_total = 1
        }
        /"stages_speedup"/ { in_sp = 1; next }
        in_sp && /^  }/ { in_sp = 0; next }
        in_sp {
            line = $0
            gsub(/[][",:]/, " ", line)
            n = split(line, f, " ")
            if (n >= 2 && f[2] + 0 == f[2]) {
                stages++
                if (f[2] + 0 != 1.0) bad = bad " " f[1]
            }
        }
        END {
            if (!have_threads || !have_total) {
                print "bench_gate: BENCH_scaling.json missing thread_counts/total_speedup; regenerate with: perf --scaling"
                exit 1
            }
            if (first_thread != 1) {
                print "bench_gate: FAIL — BENCH_scaling.json ladder does not open at threads=1 (got " first_thread ")"
                exit 1
            }
            if (total_first != 1.0) {
                printf "bench_gate: FAIL — BENCH_scaling.json total_speedup opens at %.3f, not 1.0\n", total_first
                exit 1
            }
            if (stages < minstages) {
                print "bench_gate: FAIL — BENCH_scaling.json has " stages " stage curves, need >= " minstages "; regenerate with: perf --scaling"
                exit 1
            }
            if (bad != "") {
                print "bench_gate: FAIL — stage speedup curve(s) not opening at 1.0 (threads=1 reference drifted):" bad
                exit 1
            }
            print "bench_gate: scaling baseline OK (" stages " stage curves, ladder opens at threads=1)"
        }
    ' BENCH_scaling.json
fi

if [[ ! -f "$BASELINE" ]]; then
    echo "bench_gate: no committed $BASELINE; run 'perf --json' and commit it" >&2
    exit 0
fi

cargo build --release -q -p sidefp-bench --bin perf

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# perf --json writes BENCH_pipeline.json into its working directory; run
# it from the scratch dir so the committed baseline is never clobbered.
run_perf() {
    (cd "$tmp" && "$root/target/release/perf" --json >/dev/null)
    mv "$tmp/BENCH_pipeline.json" "$1"
}

echo "bench_gate: timing run 1/2"
run_perf "$tmp/run1.json"
echo "bench_gate: timing run 2/2"
run_perf "$tmp/run2.json"

# Flattens the perf JSON (a format this repo generates itself) into
# "key value" lines: the single-threaded total plus one stage.<name>
# line per pipeline stage. Non-numeric values — notably the
# `"speedup": null` a single-core host records — are skipped, so a
# null-speedup baseline passes through the gate untouched.
parse() {
    awk '
        /"stages_ms"/ { in_stages = 1; next }
        in_stages && /}/ { in_stages = 0; next }
        {
            line = $0
            gsub(/[",:{}]/, " ", line)
            n = split(line, f, " ")
            if (n < 2 || f[2] + 0 != f[2]) next
            if (in_stages) print "stage." f[1], f[2]
            else if (f[1] == "threads1_ms") print f[1], f[2]
        }
    ' "$1"
}

parse "$BASELINE" >"$tmp/base.txt"
parse "$tmp/run1.json" >"$tmp/a.txt"
parse "$tmp/run2.json" >"$tmp/b.txt"

if ! grep -q '^stage\.' "$tmp/base.txt"; then
    echo "bench_gate: baseline has no stages_ms block; comparing totals only" >&2
fi

awk -v thr="$REGRESSION_PCT" -v floor="$MIN_STAGE_MS" '
    FILENAME == ARGV[1] { base[$1] = $2; order[++n] = $1; next }
    FILENAME == ARGV[2] { a[$1] = $2; next }
    { b[$1] = $2 }
    END {
        if (("threads1_ms" in base) && ("threads1_ms" in a) && ("threads1_ms" in b)) {
            tot = a["threads1_ms"] < b["threads1_ms"] ? a["threads1_ms"] : b["threads1_ms"]
            printf "  %-24s base %8.2f ms  now %8.2f ms  (context only, not gated)\n", \
                "threads1_ms", base["threads1_ms"], tot
        }
        # Stage-set drift is a hard failure: a silently skipped stage
        # would let an instrumentation change dodge the gate.
        missing = ""
        for (i = 1; i <= n; i++) {
            k = order[i]
            if (k == "threads1_ms") continue
            if (!(k in a) || !(k in b)) missing = missing " " k
        }
        extra = ""
        for (k in a) {
            if (k !~ /^stage\./ || (k in base)) continue
            if (k in b) extra = extra " " k
        }
        if (missing != "") {
            print "bench_gate: FAIL — stage(s) in baseline but absent from fresh runs:" missing
            print "  (regenerate the baseline with: perf --json)"
            exit 1
        }
        if (extra != "") {
            print "bench_gate: FAIL — stage(s) in fresh runs but absent from baseline:" extra
            print "  (regenerate the baseline with: perf --json)"
            exit 1
        }
        # Load normalization: scale every stage comparison by the ratio
        # of summed per-stage minima (both sides of the ratio are sums of
        # floors, so uniform background load cancels out).
        sum_base = 0.0
        sum_now = 0.0
        for (i = 1; i <= n; i++) {
            k = order[i]
            if (k == "threads1_ms" || base[k] <= 0) continue
            now_ms[k] = a[k] < b[k] ? a[k] : b[k]
            sum_base += base[k]
            sum_now += now_ms[k]
        }
        scale = (sum_base > 0) ? sum_now / sum_base : 1.0
        printf "  %-24s base %8.2f ms  now %8.2f ms  (load factor %.2fx, not gated)\n", \
            "stages total", sum_base, sum_now, scale
        bad = ""
        for (i = 1; i <= n; i++) {
            k = order[i]
            if (k == "threads1_ms") continue
            if (base[k] <= 0) continue
            now = now_ms[k]
            pct = (now / (base[k] * scale) - 1) * 100
            gated = (base[k] >= floor)
            printf "  %-24s base %8.2f ms  now %8.2f ms  %+6.1f%% of share%s\n", \
                k, base[k], now, pct, gated ? "" : "  (not gated)"
            if (gated && pct > thr) bad = bad " " k
        }
        if (bad != "") {
            print "bench_gate: FAIL — stage share regression >" thr "% in:" bad
            exit 1
        }
        print "bench_gate: OK (no stage share regressed >" thr "%)"
    }
' "$tmp/base.txt" "$tmp/a.txt" "$tmp/b.txt"
