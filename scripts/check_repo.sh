#!/bin/sh
# Repository gate: hygiene + tier-1 tests + differential checks +
# bench regression check.
#
#   1. No build tree may be tracked in git (they are generated; see
#      .gitignore's build*/ rule).
#   2. The tier-1 build + ctest suite must pass, and the build must
#      be warning-free (-DHYPERSIO_WERROR=ON). The shadow hooks are
#      always compiled in, so every tier-1 single-device System run
#      executes under the auto-installed fail-fast shadow oracle.
#   3. A longer adversarial fuzz campaign than the ctest smoke:
#      every pattern x system variant at 400 packets x 3 seeds under
#      the collecting shadow oracle.
#   4. Shadow checking must be observation-only: every sweep
#      entry's --quick output (the figures, the tournament and the
#      extensions: the list bench/CMakeLists.txt writes to
#      bench/figures.txt in the build tree) is byte-identical with
#      HYPERSIO_SHADOW=off and with the variable unset (the oracle
#      on), in the one binary.
#   5. fig10_scalability at quick scale must emit a valid JSON
#      report that self-compares with zero drift and matches the
#      committed BENCH_fig10.json exactly (bench_compare.py holds
#      every result field, stat-tree leaf and scalar equal) — the
#      simulator is deterministic, so any drift is a behavior change
#      that needs the baseline regenerated on purpose. Gates 7, 8
#      and 9 compare exactly too. In gates 5-9 a missing
#      committed baseline fails the gate (check_baseline below).
#   6. The layer bench (bench/layer_bench, HYPERSIO_SHADOW=off) must run
#      every layer and pass its in-binary A/B asserts: the vector and
#      scalar group-probe backends make identical hit/miss decisions,
#      fused and per-hop storms produce identical RunResults, stat
#      trees and sequence ledgers, and the lazy SpliceStream replays
#      the materialized trace packet for packet. Every deterministic
#      count in its report must then equal the committed
#      BENCH_layer.json, and the counts it shares with the pinned
#      pre-vectorization record BENCH_translation_path_flat_baseline.json
#      (never regenerate that one) must equal those too. Wall-clock
#      rates are reported, not gated: same-machine rate floors flaked
#      on shared hosts, and cross-machine rate gating needs the
#      calibrated performance ledger (ROADMAP).
#   7. The hyper-scale streaming bench (tenant churn over bounded
#      SID slots, sharded across systems) must complete its smoke
#      configuration inside a fixed peak-RSS budget — the O(active)
#      state invariant — and its deterministic scalars (packets,
#      translations, retirements, merge checksum) must match the
#      committed BENCH_hyperscale.json exactly.
#   8. The soak harness (long-haul churn + adversarial episodes with
#      interval telemetry) must run its smoke configuration under
#      the fail-fast shadow oracle, stream valid hypersio-soak-1
#      snapshots, pass scripts/soak_report.py's drift/leak gate, stay
#      inside a peak-RSS budget, and match the committed
#      BENCH_soak.json's deterministic scalars exactly.
#   9. The mechanism tournament (partitioning vs sub-entry sharing
#      vs MMU-aware prefetch, and their combinations) must complete
#      its smoke sweep under the fail-fast shadow oracle and match
#      the committed BENCH_tournament.json exactly — every scalar
#      in that report (hit rates, throughputs, area proxies) is
#      deterministic, so any drift means a mechanism's behavior
#      changed and the bake-off needs re-reading before the
#      baseline is regenerated on purpose.
#  10. The whole ctest suite — every unit test, the fuzz smoke, the
#      examples and the hypersio_sim hostile-input cases — must pass
#      under AddressSanitizer and UndefinedBehaviorSanitizer, and
#      the sanitizer build must be warning-free too.
#
# Two build trees: the default (gates 2-9; gates 4, 6 and 7 switch
# the oracle off at run time with HYPERSIO_SHADOW=off) and an
# ASan+UBSan tree (gate 10).
#
# scripts/coverage.sh (gcov line coverage) is a separate, slower
# workflow and is not part of this gate.
#
# Usage: scripts/check_repo.sh [build-dir]   (default: build)
set -eu

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

# check_baseline BASELINE FRESH [FLAGS]: the fresh bench report FRESH
# must compare with itself and match the committed BASELINE exactly,
# under FLAGS when given (bench_compare.py flags: --counts-only,
# --ignore-missing). A missing baseline fails: one deleted by mistake
# must be restored, and a new one committed on purpose, never
# recreated by this gate.
check_baseline() {
    python3 scripts/bench_compare.py "$2" "$2"
    if [ ! -f "$1" ]; then
        echo "FAIL: committed baseline $1 is missing (restore it, or" \
             "commit a regenerated one on purpose from $2)" >&2
        exit 1
    fi
    echo "   comparing against committed $1 (${3:-exact})"
    # FLAGS is split into its flags on purpose.
    python3 scripts/bench_compare.py "$1" "$2" ${3:-}
}

echo "== 1/10 repo hygiene: no tracked build artifacts"
if git ls-files | grep -q '^build'; then
    echo "FAIL: build trees are tracked in git:" >&2
    git ls-files | grep '^build' | head >&2
    echo "(fix: git rm -r --cached <dir>; .gitignore covers" \
         "build*/)" >&2
    exit 1
fi
echo "   ok"

echo "== 2/10 tier-1 build (warnings are errors) + ctest (shadow oracle on)"
# Every configure pins the build type: `cmake -B` on an existing
# tree silently keeps whatever CMAKE_BUILD_TYPE is cached there, and
# the layer bench's rates are only comparable across runs at the
# same (RelWithDebInfo) codegen.
BUILD_TYPE="-DCMAKE_BUILD_TYPE=RelWithDebInfo"
cmake -B "$BUILD_DIR" -S . "$BUILD_TYPE" -DHYPERSIO_WERROR=ON
cmake --build "$BUILD_DIR" -j "$(nproc)"
(cd "$BUILD_DIR" && ctest --output-on-failure -j "$(nproc)")

echo "== 3/10 extended adversarial fuzz campaign"
# The ctest invocation above already ran the bounded smoke; this is
# the long campaign: more packets, multiple seeds. Reproduce any
# failure with the HYPERSIO_FUZZ_SEED printed in its repro line.
FUZZ_LOG="$BUILD_DIR/fuzz_campaign.log"
if ! HYPERSIO_FUZZ_PACKETS=400 HYPERSIO_FUZZ_ROUNDS=3 \
    "$BUILD_DIR"/tests/fuzz_translation \
    --gtest_filter='FuzzTranslation.*UnderShadowOracle' \
    > "$FUZZ_LOG" 2>&1; then
    cat "$FUZZ_LOG" >&2
    exit 1
fi
grep 'translation requests checked' "$FUZZ_LOG"

echo "== 4/10 shadow checking is observation-only (checked vs not)"
FIGURES=0
while read -r FIG; do
    # Unset here even if the caller exported it: this leg runs checked.
    env -u HYPERSIO_SHADOW "$BUILD_DIR/bench/$FIG" --quick \
        --tenants 8 --jobs 1 > "$BUILD_DIR/${FIG}_checked.out"
    HYPERSIO_SHADOW=off "$BUILD_DIR/bench/$FIG" --quick \
        --tenants 8 --jobs 1 > "$BUILD_DIR/${FIG}_unchecked.out"
    if ! cmp -s "$BUILD_DIR/${FIG}_checked.out" \
            "$BUILD_DIR/${FIG}_unchecked.out"; then
        echo "FAIL: the shadow oracle changed $FIG output:" >&2
        diff "$BUILD_DIR/${FIG}_checked.out" \
             "$BUILD_DIR/${FIG}_unchecked.out" >&2 || true
        exit 1
    fi
    FIGURES=$((FIGURES + 1))
done < "$BUILD_DIR/bench/figures.txt"
if [ "$FIGURES" -eq 0 ]; then
    echo "FAIL: $BUILD_DIR/bench/figures.txt lists no figure" >&2
    exit 1
fi
echo "   ok: $FIGURES figures' --quick output byte-identical"

echo "== 5/10 bench JSON regression gate (fig10, quick scale)"
# Deterministic settings: quick scale, 8-tenant sweep, fixed seed.
# --jobs only changes scheduling, never results, but pin it anyway
# so the config block is stable too.
FRESH="$BUILD_DIR/BENCH_fig10.json"
"$BUILD_DIR"/bench/fig10_scalability --quick --tenants 8 --jobs 1 \
    --json "$FRESH" > /dev/null
check_baseline BENCH_fig10.json "$FRESH"

echo "== 6/10 layer bench: in-binary A/Bs + deterministic counts"
# Without the shadow oracle: its mirrors would dominate the layers
# being timed. The A/B equality asserts run inside the binary and
# fail it on any divergence.
LAYER_FRESH="$BUILD_DIR/BENCH_layer.json"
HYPERSIO_SHADOW=off "$BUILD_DIR"/bench/layer_bench --json "$LAYER_FRESH"
# Counts exact, wall-clock rates skipped; then the counts the report
# shares with the pinned pre-vectorization record (never regenerate
# that one).
check_baseline BENCH_layer.json "$LAYER_FRESH" --counts-only
check_baseline BENCH_translation_path_flat_baseline.json \
    "$LAYER_FRESH" "--counts-only --ignore-missing"

echo "== 7/10 hyper-scale streaming bench: bounded RSS + regression"
# hyperscale_bench is the churn-only entry of bench/soak_bench.cc
# (gate 8's harness with storm episodes and snapshots off).
# Measured without the shadow oracle (its mirrors would scale with
# the mirrored state being bounded, muddying the RSS reading). The
# in-process assertions already enforce attaches == retirements ==
# population and empty page-table directories per shard;
# --rss-budget-mb makes the O(active) memory claim a hard failure.
# The JSON carries only deterministic scalars, so the baseline
# comparison is exact.
HYPERSCALE_FRESH="$BUILD_DIR/BENCH_hyperscale.json"
HYPERSIO_SHADOW=off "$BUILD_DIR"/bench/hyperscale_bench --smoke \
    --rss-budget-mb 512 --json "$HYPERSCALE_FRESH" > /dev/null
check_baseline BENCH_hyperscale.json "$HYPERSCALE_FRESH"

echo "== 8/10 soak harness: telemetry stream + drift/leak gate"
# soak_bench is the episode entry of bench/soak_bench.cc, the source
# gate 7's hyperscale_bench is built from too.
# Runs with the oracle on, on purpose: the soak regime's value
# is churn + adversarial episodes under the fail-fast shadow oracle,
# so the RSS budget is sized for the mirrors' overhead. --jobs 1
# pins the snapshot file's line order (any jobs count produces the
# same per-shard lines, but interleaving across shards is scheduler
# timing); the deterministic scalars in the JSON report are
# jobs-independent either way.
SOAK_STREAM="$BUILD_DIR/soak_check.jsonl"
SOAK_FRESH="$BUILD_DIR/BENCH_soak.json"
"$BUILD_DIR"/bench/soak_bench --smoke --jobs 1 \
    --snapshots "$SOAK_STREAM" --rss-budget-mb 1024 \
    --json "$SOAK_FRESH" > /dev/null
python3 scripts/soak_report.py "$SOAK_STREAM" --verbose
check_baseline BENCH_soak.json "$SOAK_FRESH"

echo "== 9/10 mechanism tournament: bake-off regression gate"
# Runs with the oracle on: every competitor (sub-entry
# sharing, MMU-aware prefetch, the paper's partitioning, and their
# combinations) then executes under the fail-fast shadow oracle, so
# a passing sweep doubles as an oracle-agreement check for each
# mechanism. Every value in the report — per-config hit rates,
# throughputs, and the geometry-derived area proxies — is
# deterministic and jobs-independent, so the baseline comparison is
# exact. To inspect one competitor's drift in isolation, diff with
#   python3 scripts/bench_compare.py BENCH_tournament.json <fresh> \
#       --only-label <label>
TOURN_FRESH="$BUILD_DIR/BENCH_tournament.json"
"$BUILD_DIR"/bench/mechanism_tournament --smoke --jobs 1 \
    --json "$TOURN_FRESH" > /dev/null
check_baseline BENCH_tournament.json "$TOURN_FRESH"

echo "== 10/10 ASan+UBSan: the whole ctest suite"
# UBSan only prints by default; halt_on_error makes every report fail
# its binary. A case that passes on its output alone (a
# PASS_REGULAR_EXPRESSION: the CLI cases' fatal() lines) still fails
# on a report made before that output, since ASan and UBSan abort at
# their first. example_custom_policy passes on its table rows, which
# print last, so it runs again here for its exit status.
ASAN_DIR="${BUILD_DIR}-asan"
cmake -B "$ASAN_DIR" -S . "$BUILD_TYPE" -DHYPERSIO_WERROR=ON \
    -DHYPERSIO_SANITIZE=address,undefined > /dev/null
cmake --build "$ASAN_DIR" -j "$(nproc)"
export UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1
(cd "$ASAN_DIR" && ctest --output-on-failure -j "$(nproc)")
"$ASAN_DIR"/examples/custom_policy > /dev/null

echo "check_repo: all gates passed"
