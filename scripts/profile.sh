#!/bin/sh
# Profile a bench binary and print the hottest symbols.
#
# The containers this repo targets have no `perf`, so this uses the
# gprof call-count instrumentation that ships with binutils: it
# configures a dedicated `build-profile` tree with `-pg`, builds the
# requested bench target, runs it with HYPERSIO_SHADOW=off (so the
# profile shows the production path, not the checker mirrors), and
# prints the top-N lines of gprof's flat profile.
#
# Caveat worth knowing before trusting the numbers: -pg inserts a
# mcount call into every non-inlined function, which both perturbs
# inlining decisions and taxes small hot functions the most — treat
# the output as "where to look", not as a truth source for ratios.
# For A/B questions, bench/layer_bench's best-of-reps rates are the
# measurement.
#
# Usage:
#   scripts/profile.sh [-n TOP] [target] [args...]
#
#   scripts/profile.sh
#       profiles layer_bench on its default workload
#   scripts/profile.sh --layer translation --reps 5
#       same target; a leading dash means "args for the default
#       target", so flags work without naming it
#   scripts/profile.sh -n 40 fig10_scalability --quick --tenants 8
#       profiles the fig10 sweep, printing the top 40 symbols
#   scripts/profile.sh hypersio_sim_cli --bench iperf3 --tenants 1024
#       profiles one CLI run (here e2e walk_path's input)
set -eu

cd "$(dirname "$0")/.."

TOP=25
if [ "${1:-}" = "-n" ]; then
    TOP="$2"
    shift 2
fi
TARGET=layer_bench
if [ "$#" -gt 0 ]; then
    case "$1" in
        -*) ;; # flags go to the default target
        *) TARGET="$1"; shift ;;
    esac
fi

PROFILE_DIR=build-profile
cmake -B "$PROFILE_DIR" -S . -DCMAKE_CXX_FLAGS=-pg \
    -DCMAKE_EXE_LINKER_FLAGS=-pg > /dev/null
cmake --build "$PROFILE_DIR" -j "$(nproc)" --target "$TARGET"

# The CLI's target is hypersio_sim_cli; its binary is hypersio_sim.
BIN="$(find "$PROFILE_DIR" -type f -name "${TARGET%_cli}" -perm -u+x \
    | head -n 1)"
if [ -z "$BIN" ]; then
    echo "profile.sh: built no executable named '$TARGET'" >&2
    exit 1
fi

# gmon.out lands in the working directory of the profiled process;
# run inside the build tree to keep the repo root clean.
RUN_DIR="$PROFILE_DIR/profile-run"
mkdir -p "$RUN_DIR"
echo "== running: $TARGET $*"
(cd "$RUN_DIR" && HYPERSIO_SHADOW=off "../../$BIN" "$@")

echo
echo "== gprof flat profile (top $TOP) — see header caveat"
gprof -b -p "$BIN" "$RUN_DIR/gmon.out" | head -n "$((TOP + 5))"
