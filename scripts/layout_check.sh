#!/usr/bin/env bash
# Time the `multi_exact` search in builds that differ only in code layout.
#
#   bash scripts/layout_check.sh [WORK_DIR]
#
# The same source can run the branch-and-bound at very different speeds
# depending on where the linker places its hot loop, and the checkout path
# alone moves that placement. So a speed-up measured in one checkout may be
# a layout accident. This script copies the tracked files of the working
# tree to three directories with different paths, builds `gaps` in each
# (each with its own target directory), adds one build with every function
# aligned to 64 bytes, and prints for each build the best of three
# `gaps batch --threads 1` runs over 40 generated coupled instances
# (`gaps generate --kind multi --n 18 --horizon 54`, seeds 1-40), by wall
# clock and by CPU time, with the search nodes per CPU millisecond. Run it
# on the parent and on the change before claiming a `multi_exact`
# speed-up: the change should win against the parent's fastest build, and
# its own builds should agree.
#
# It measures time, so it is not a CI gate. WORK_DIR (default
# ${TMPDIR:-/tmp}/gaps-layout-check) must not be inside the repository;
# the script replaces only the entries it creates there.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="${1:-${TMPDIR:-/tmp}/gaps-layout-check}"
case "$work" in
/*) ;;
*) work="$PWD/$work" ;;
esac
case "$work/" in
"$root"/*)
    echo "error: WORK_DIR must be outside the repository" >&2
    exit 2
    ;;
esac
dirs=("$work/a" "$work/copy-bb" "$work/deeper/nested/checkout-ccc")
rm -rf "${dirs[@]}" "$work"/stream.txt "$work"/out-* "$work"/err-* "$work"/time-*
for dir in "${dirs[@]}"; do
    mkdir -p "$dir"
    (cd "$root" && git ls-files -z | tar --null -T - -cf -) | tar -xf - -C "$dir"
done

# build NAME SOURCE_DIR [RUSTFLAGS]: build `gaps` into SOURCE_DIR/target-NAME.
builds=()
build() {
    local name="$1" dir="$2" flags="${3:-}"
    echo "building $name in $dir${flags:+ with RUSTFLAGS='$flags'}" >&2
    RUSTFLAGS="$flags" CARGO_TARGET_DIR="$dir/target-$name" \
        cargo build --release --offline --quiet --manifest-path "$dir/Cargo.toml" --bin gaps >&2
    builds+=("$name|$dir/target-$name/release/gaps")
}
build path-a "${dirs[0]}"
build path-bb "${dirs[1]}"
build path-ccc "${dirs[2]}"
build align-64 "${dirs[0]}" "-C llvm-args=-align-all-functions=6"

first="${builds[0]#*|}"
stream="$work/stream.txt"
for seed in $(seq 1 40); do
    "$first" generate --kind multi --seed "$seed" --n 18 --horizon 54
done >"$stream"

# Best of three runs, by wall clock and by CPU time (user + system). On a
# shared machine the CPU time is the steadier of the two: it leaves out
# the time the process waited for a CPU.
TIMEFORMAT='%R %U %S'
printf '%-10s %9s %9s %9s %12s\n' build wall_ms cpu_ms nodes nodes/cpu_ms
reference=""
for entry in "${builds[@]}"; do
    name="${entry%%|*}"
    gaps="${entry#*|}"
    for _ in 1 2 3; do
        { time "$gaps" batch --input "$stream" --threads 1 --objective gaps \
            >"$work/out-$name.txt" 2>"$work/err-$name.txt"; } 2>>"$work/time-$name.txt"
    done
    nodes=$(sed -n 's/^search: \([0-9]*\) node(s).*/\1/p' "$work/err-$name.txt")
    awk -v name="$name" -v nodes="$nodes" '
        NR == 1 || $1 < wall { wall = $1 }
        NR == 1 || $2 + $3 < cpu { cpu = $2 + $3 }
        END { printf "%-10s %9d %9d %9d %12d\n", name, wall * 1000, cpu * 1000, nodes, nodes / (cpu * 1000) }
    ' "$work/time-$name.txt"
    # Every build must give the same answers; only the time may differ.
    if [ -z "$reference" ]; then
        reference="$work/out-$name.txt"
    elif ! cmp -s "$reference" "$work/out-$name.txt"; then
        echo "error: $name printed different results than ${builds[0]%%|*}" >&2
        exit 1
    fi
done
