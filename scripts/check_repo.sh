#!/bin/sh
# Repository gate: hygiene + tier-1 tests + differential checks +
# bench regression check.
#
#   1. No build tree may be tracked in git (they are generated; see
#      .gitignore's build*/ rule).
#   2. The tier-1 build + ctest suite must pass. The default build
#      has HYPERSIO_CHECKED=ON, so every tier-1 System run already
#      executes under the fail-fast shadow oracle.
#   3. A longer adversarial fuzz campaign than the ctest smoke:
#      every pattern x system variant at 400 packets x 3 seeds under
#      the collecting shadow oracle.
#   4. Shadow checking must be observation-only: fig10_scalability
#      --quick output is byte-identical between the checked build
#      and a -DHYPERSIO_CHECKED=OFF build.
#   5. fig10_scalability at quick scale must emit a valid JSON
#      report (BENCH_fig10.json) that self-compares with zero drift
#      and, when a committed baseline exists, matches it exactly
#      (bench_compare.py --exact: every result field, stat-tree leaf
#      and scalar) — the simulator is deterministic, so any drift is
#      a behavior change that needs the baseline regenerated on
#      purpose. Gates 7, 8 and 9 compare with --exact too.
#   6. The layer bench (bench/layer_bench, unchecked build) must run
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
#      the checked build, stream valid hypersio-soak-1 snapshots,
#      pass scripts/soak_report.py's drift/leak gate, stay inside a
#      peak-RSS budget, and match the committed BENCH_soak.json's
#      deterministic scalars exactly.
#   9. The mechanism tournament (partitioning vs sub-entry sharing
#      vs MMU-aware prefetch, and their combinations) must complete
#      its smoke sweep under the checked build's fail-fast shadow
#      oracle and match the committed BENCH_tournament.json exactly
#      — every scalar in that report (hit rates, throughputs, area
#      proxies) is deterministic, so any drift means a mechanism's
#      behavior changed and the bake-off needs re-reading before
#      the baseline is regenerated on purpose.
#
# Two build trees: the checked default (gates 2, 3, 5, 8, 9) and a
# -DHYPERSIO_CHECKED=OFF tree (gates 4, 6, 7).
#
# scripts/coverage.sh (gcov line coverage) is a separate, slower
# workflow and is not part of this gate.
#
# Usage: scripts/check_repo.sh [build-dir]   (default: build)
set -eu

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
UNCHECKED_DIR="${BUILD_DIR}-unchecked"

echo "== 1/9 repo hygiene: no tracked build artifacts"
if git ls-files | grep -q '^build'; then
    echo "FAIL: build trees are tracked in git:" >&2
    git ls-files | grep '^build' | head >&2
    echo "(fix: git rm -r --cached <dir>; .gitignore covers" \
         "build*/)" >&2
    exit 1
fi
echo "   ok"

echo "== 2/9 tier-1 build + ctest (shadow oracle compiled in)"
# Every configure pins the build type: `cmake -B` on an existing
# tree silently keeps whatever CMAKE_BUILD_TYPE is cached there, and
# the layer bench's rates are only comparable across runs at the
# same (RelWithDebInfo) codegen.
BUILD_TYPE="-DCMAKE_BUILD_TYPE=RelWithDebInfo"
cmake -B "$BUILD_DIR" -S . "$BUILD_TYPE"
cmake --build "$BUILD_DIR" -j "$(nproc)"
(cd "$BUILD_DIR" && ctest --output-on-failure -j "$(nproc)")

echo "== 3/9 extended adversarial fuzz campaign"
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

echo "== 4/9 shadow checking is observation-only (checked vs not)"
cmake -B "$UNCHECKED_DIR" -S . "$BUILD_TYPE" \
    -DHYPERSIO_CHECKED=OFF > /dev/null
cmake --build "$UNCHECKED_DIR" -j "$(nproc)" \
    --target fig10_scalability
"$BUILD_DIR"/bench/fig10_scalability --quick --tenants 8 --jobs 1 \
    > "$BUILD_DIR/fig10_checked.out"
"$UNCHECKED_DIR"/bench/fig10_scalability --quick --tenants 8 \
    --jobs 1 > "$BUILD_DIR/fig10_unchecked.out"
if ! cmp -s "$BUILD_DIR/fig10_checked.out" \
        "$BUILD_DIR/fig10_unchecked.out"; then
    echo "FAIL: HYPERSIO_CHECKED=ON changed simulator output:" >&2
    diff "$BUILD_DIR/fig10_checked.out" \
         "$BUILD_DIR/fig10_unchecked.out" >&2 || true
    exit 1
fi
echo "   ok: fig10 --quick output byte-identical"

echo "== 5/9 bench JSON regression gate (fig10, quick scale)"
# Deterministic settings: quick scale, 8-tenant sweep, fixed seed.
# --jobs only changes scheduling, never results, but pin it anyway
# so the config block is stable too.
FRESH="$BUILD_DIR/BENCH_fig10.json"
"$BUILD_DIR"/bench/fig10_scalability --quick --tenants 8 --jobs 1 \
    --json "$FRESH" > /dev/null
python3 scripts/bench_compare.py "$FRESH" "$FRESH"
if [ -f BENCH_fig10.json ]; then
    echo "   comparing against committed BENCH_fig10.json baseline"
    python3 scripts/bench_compare.py BENCH_fig10.json "$FRESH" --exact
else
    echo "   no committed baseline; installing $FRESH as" \
         "BENCH_fig10.json"
    cp "$FRESH" BENCH_fig10.json
fi

echo "== 6/9 layer bench: in-binary A/Bs + deterministic counts"
# Without the shadow oracle: its mirrors would dominate the layers
# being timed. The A/B equality asserts run inside the binary and
# fail it on any divergence.
cmake --build "$UNCHECKED_DIR" -j "$(nproc)" --target layer_bench
LAYER_FRESH="$BUILD_DIR/BENCH_layer.json"
"$UNCHECKED_DIR"/bench/layer_bench --json "$LAYER_FRESH"
if [ -f BENCH_layer.json ]; then
    echo "   comparing against committed BENCH_layer.json baseline" \
         "(counts exact, wall-clock rates skipped)"
    python3 scripts/bench_compare.py BENCH_layer.json "$LAYER_FRESH" \
        --counts-only
else
    echo "   no committed baseline; installing $LAYER_FRESH as" \
         "BENCH_layer.json"
    cp "$LAYER_FRESH" BENCH_layer.json
fi
if [ ! -f BENCH_translation_path_flat_baseline.json ]; then
    echo "FAIL: BENCH_translation_path_flat_baseline.json missing" \
         "(the pinned pre-vectorization record must stay committed)" >&2
    exit 1
fi
echo "   comparing shared counts against the pinned" \
     "pre-vectorization record"
python3 scripts/bench_compare.py \
    BENCH_translation_path_flat_baseline.json "$LAYER_FRESH" \
    --counts-only --ignore-missing

echo "== 7/9 hyper-scale streaming bench: bounded RSS + regression"
# Measured without the shadow oracle (its mirrors would scale with
# the mirrored state being bounded, muddying the RSS reading); the
# unchecked build from gate 4 serves. The in-process assertions
# already enforce attaches == retirements == population and empty
# page-table directories per shard; --rss-budget-mb makes the
# O(active) memory claim a hard failure. The JSON carries only
# deterministic scalars, so the baseline comparison is exact.
cmake --build "$UNCHECKED_DIR" -j "$(nproc)" \
    --target hyperscale_bench
HYPERSCALE_FRESH="$BUILD_DIR/BENCH_hyperscale.json"
"$UNCHECKED_DIR"/bench/hyperscale_bench --smoke \
    --rss-budget-mb 512 --json "$HYPERSCALE_FRESH" > /dev/null
python3 scripts/bench_compare.py "$HYPERSCALE_FRESH" \
    "$HYPERSCALE_FRESH"
if [ -f BENCH_hyperscale.json ]; then
    echo "   comparing against committed BENCH_hyperscale.json" \
         "baseline (exact: all scalars deterministic)"
    python3 scripts/bench_compare.py BENCH_hyperscale.json \
        "$HYPERSCALE_FRESH" --exact
else
    echo "   no committed baseline; installing $HYPERSCALE_FRESH" \
         "as BENCH_hyperscale.json"
    cp "$HYPERSCALE_FRESH" BENCH_hyperscale.json
fi

echo "== 8/9 soak harness: telemetry stream + drift/leak gate"
# Runs from the *checked* build on purpose: the soak regime's value
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
python3 scripts/bench_compare.py "$SOAK_FRESH" "$SOAK_FRESH"
if [ -f BENCH_soak.json ]; then
    echo "   comparing against committed BENCH_soak.json baseline" \
         "(exact: all scalars deterministic)"
    python3 scripts/bench_compare.py BENCH_soak.json "$SOAK_FRESH" \
        --exact
else
    echo "   no committed baseline; installing $SOAK_FRESH as" \
         "BENCH_soak.json"
    cp "$SOAK_FRESH" BENCH_soak.json
fi

echo "== 9/9 mechanism tournament: bake-off regression gate"
# Runs from the *checked* build: every competitor (sub-entry
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
python3 scripts/bench_compare.py "$TOURN_FRESH" "$TOURN_FRESH"
if [ -f BENCH_tournament.json ]; then
    echo "   comparing against committed BENCH_tournament.json" \
         "baseline (exact: all scalars deterministic)"
    python3 scripts/bench_compare.py BENCH_tournament.json \
        "$TOURN_FRESH" --exact
else
    echo "   no committed baseline; installing $TOURN_FRESH as" \
         "BENCH_tournament.json"
    cp "$TOURN_FRESH" BENCH_tournament.json
fi

echo "check_repo: all gates passed"
