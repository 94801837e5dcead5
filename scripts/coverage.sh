#!/bin/sh
# Line-coverage report for src/ using plain gcov (no lcov/gcovr).
#
# Builds an instrumented Debug tree (gcc --coverage), runs the
# full ctest suite, then walks every .gcda the run produced, invokes
# gcov in JSON-intermediate mode, and aggregates per-file and total
# line coverage. HYPERSIO_COVERAGE_PATHS selects which top-level
# trees count (space-separated prefixes, default "src"; e.g.
# "src bench tests" also scores the soak/bench harnesses and the
# test sources themselves). Exit status is 1 when total line
# coverage falls below HYPERSIO_COVERAGE_MIN (percent, default
# 0 = report only).
#
# Usage: scripts/coverage.sh [build-dir]   (default: build-coverage)
set -eu

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-coverage}"
MIN_PCT="${HYPERSIO_COVERAGE_MIN:-0}"
COVER_PATHS="${HYPERSIO_COVERAGE_PATHS:-src}"

echo "== coverage: instrumented build ($BUILD_DIR)"
cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS=--coverage -DCMAKE_EXE_LINKER_FLAGS=--coverage >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)"

echo "== coverage: ctest run"
# Stale counters from a previous run would skew the totals.
find "$BUILD_DIR" -name '*.gcda' -delete
(cd "$BUILD_DIR" && ctest --output-on-failure -j "$(nproc)")

echo "== coverage: gcov aggregation"
GCOV_DIR="$BUILD_DIR/gcov-report"
rm -rf "$GCOV_DIR"
mkdir -p "$GCOV_DIR"
# gcov drops .gcov.json.gz files into the cwd, so run it in the
# report dir — which means the counter files must be fed as
# absolute paths.
ABS_BUILD="$(cd "$BUILD_DIR" && pwd)"
find "$ABS_BUILD" -name '*.gcda' \
    | (cd "$GCOV_DIR" && xargs gcov --json-format --preserve-paths \
           > /dev/null 2>&1 || true)

BUILD_DIR="$BUILD_DIR" MIN_PCT="$MIN_PCT" \
    COVER_PATHS="$COVER_PATHS" python3 - "$GCOV_DIR" <<'EOF'
import glob
import gzip
import json
import os
import sys

gcov_dir = sys.argv[1]
repo = os.getcwd()
min_pct = float(os.environ.get("MIN_PCT", "0"))
prefixes = tuple(p + os.sep
                 for p in os.environ.get("COVER_PATHS",
                                         "src").split())

# line -> hit, unioned across every translation unit that compiled
# the file (headers appear in many TUs).
files = {}
for path in glob.glob(os.path.join(gcov_dir, "*.gcov.json.gz")):
    with gzip.open(path, "rt") as f:
        doc = json.load(f)
    for entry in doc.get("files", []):
        name = os.path.realpath(
            os.path.join(repo, entry.get("file", "")))
        rel = os.path.relpath(name, repo)
        if not rel.startswith(prefixes):
            continue
        lines = files.setdefault(rel, {})
        for line in entry.get("lines", []):
            no = line.get("line_number")
            lines[no] = lines.get(no, 0) + line.get("count", 0)

if not files:
    print("coverage: no gcov data for "
          + " ".join(p.rstrip(os.sep) for p in prefixes)
          + " — was the build compiled with --coverage?",
          file=sys.stderr)
    sys.exit(1)

total_lines = total_hit = 0
rows = []
for rel in sorted(files):
    lines = files[rel]
    if not lines:  # declaration-only headers record no lines
        continue
    hit = sum(1 for count in lines.values() if count > 0)
    rows.append((rel, hit, len(lines)))
    total_lines += len(lines)
    total_hit += hit

width = max(len(rel) for rel, _, _ in rows)
for rel, hit, n in rows:
    print(f"  {rel:<{width}}  {hit:>5}/{n:<5} "
          f"{100.0 * hit / n:6.1f}%")
pct = 100.0 * total_hit / total_lines
scope = " ".join(p.rstrip(os.sep) for p in prefixes)
print(f"coverage: TOTAL {scope} line coverage "
      f"{total_hit}/{total_lines} = {pct:.1f}%")
if pct < min_pct:
    print(f"coverage: FAIL — below HYPERSIO_COVERAGE_MIN="
          f"{min_pct:.1f}%", file=sys.stderr)
    sys.exit(1)
EOF
