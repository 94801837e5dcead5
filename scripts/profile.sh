#!/bin/sh
# Profile a bench binary and print where its time goes.
#
# The containers this repo targets have no `perf`, so this samples
# the program counter itself: scripts/sampler.c, built here into a
# shared object and loaded with LD_PRELOAD into the normal
# RelWithDebInfo binary, takes one sample per 100 us of wall time
# (SIGPROF from a CLOCK_MONOTONIC timer) and writes the PCs out at
# exit. `addr2line -f -C -i` resolves each PC to its inline chain:
# the innermost function plus every function it was inlined into, so
# a hot path the compiler folded into one caller (the event kernel
# into System::runLinks) still shows under its own name. The binary
# runs with HYPERSIO_SHADOW=off, so the profile shows the production
# path, not the checker mirrors.
#
# Three tables: the top-N innermost symbols (self time), the top-N
# symbols by inclusive share (the samples whose inline chain holds
# the symbol anywhere), and the top-N classes and namespaces by
# inclusive share. Calls through function pointers are not followed,
# but a callback the compiler inlined into the kernel's invoke thunk
# (EventQueue::invokeAs) has that thunk in its chain, so the
# hypersio::sim::EventQueue line counts those callbacks too; the
# kernel's own share is in its other symbols. For A/B questions,
# bench/layer_bench's best-of-reps rates and bench/e2e's alternating
# pairs are the measurement.
#
# The tree built and run is `build`, or the working directory when
# that is a CMake build tree (ctest runs this from one).
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

if [ -f CMakeCache.txt ]; then
    BUILD_DIR="$(pwd)"
    cd "$(dirname "$0")/.."
else
    cd "$(dirname "$0")/.."
    BUILD_DIR="$(pwd)/build"
fi

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

if [ ! -f "$BUILD_DIR/CMakeCache.txt" ]; then
    cmake -B "$BUILD_DIR" -S . > /dev/null
fi
cmake --build "$BUILD_DIR" -j "$(nproc)" --target "$TARGET" > /dev/null

# The CLI's target is hypersio_sim_cli; its binary is hypersio_sim.
BIN="$(find "$BUILD_DIR" -type f -name "${TARGET%_cli}" -perm -u+x \
    | head -n 1)"
if [ -z "$BIN" ]; then
    echo "profile.sh: built no executable named '$TARGET'" >&2
    exit 1
fi

# samples.txt lands in the working directory of the profiled process;
# run inside the build tree to keep the repo root clean.
RUN_DIR="$BUILD_DIR/profile-run"
mkdir -p "$RUN_DIR"
cc -O2 -shared -fPIC -o "$RUN_DIR/sampler.so" scripts/sampler.c -ldl -lrt
rm -f "$RUN_DIR/samples.txt"
echo "== running: $TARGET $*"
(cd "$RUN_DIR" && HYPERSIO_SHADOW=off LD_PRELOAD="$RUN_DIR/sampler.so" \
    "$BIN" "$@")

echo
python3 - "$TOP" "$RUN_DIR/samples.txt" <<'EOF'
import collections, os, subprocess, sys

top, path = int(sys.argv[1]), sys.argv[2]


def scope(name):
    """The class or namespace of a demangled function name, or None."""
    if name.endswith(" const"):
        name = name[:-6]
    depth, end = 0, len(name)
    if name.endswith(")"):  # drop the argument list
        for end in range(len(name) - 1, -1, -1):
            depth += {")": 1, "(": -1}.get(name[end], 0)
            if depth == 0:
                break
    depth, start, cut = 0, 0, None
    for i, ch in enumerate(name[:end]):
        depth += {"<": 1, "(": 1, "{": 1, ">": -1, ")": -1, "}": -1}.get(ch, 0)
        if depth == 0 and ch == " ":  # past a return type
            start = i + 1
        if depth == 0 and name.startswith("::", i):
            cut = i
    return name[start:cut] if cut and cut > start else None

pcs = collections.Counter(tuple(line.split()) for line in open(path))
total = sum(pcs.values())
self_, incl, scopes = (collections.Counter(), collections.Counter(),
                       collections.Counter())
by_obj = collections.defaultdict(list)
for obj, addr in pcs:
    by_obj[obj].append(addr)
for obj, addrs in by_obj.items():
    out = subprocess.run(["addr2line", "-a", "-f", "-C", "-i", "-e", obj],
                         input="\n".join(addrs), capture_output=True,
                         text=True, check=True).stdout.splitlines()
    # -a starts each address's group with the address line; then one
    # (function, file:line) pair per frame, the innermost first.
    groups, i = [], 0
    while i < len(out):
        chain, i = [], i + 1
        while i + 1 < len(out) and not out[i].startswith("0x"):
            name = out[i]
            if name == "??":
                name = f"?? ({os.path.basename(obj)})"
            chain.append(name)
            i += 2
        groups.append(chain)
    for addr, chain in zip(addrs, groups):
        n = pcs[(obj, addr)]
        self_[chain[0]] += n
        for name in set(chain):
            incl[name] += n
        for name in set(map(scope, chain)) - {None}:
            scopes[name] += n

print(f"== {total} samples (one per 100 us)")
for title, table in (("innermost symbols", self_),
                     ("inclusive inline chains", incl),
                     ("classes and namespaces, inclusive", scopes)):
    print(f"\n== top {top} {title}")
    for name, n in table.most_common(top):
        print(f"{100.0 * n / total:6.2f}% {n:8d}  {name}")
EOF
