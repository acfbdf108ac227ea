#!/usr/bin/env bash
# Alternating parent/change pairs of one benchmark workload — the
# acceptance protocol of every performance PR (choosing-metrics §8) as one
# command.
#
#   tools/pairs.sh PARENT CHANGE WORKLOAD SECONDS SEED...
#   tools/pairs.sh ../parent . path_auth 10 101 102 103 104 105 106 107 108 109 110
#
# PARENT and CHANGE are two checkouts (or the `benchmark` binaries built
# from them). A checkout's binary is built once, here, if it is missing
# (one that is there is used as it is: delete it after editing the
# checkout; the build rewrites that checkout's `benchmark/Cargo.lock`);
# each side runs from its own checkout, in the driver's form
# (`--workload W --seed N --seconds S --trace 0`), one pair per seed, the
# side that goes first alternating. Prints, for each host-clock end-to-end
# metric, the per-pair values and ratio, each side's median [q1, q3] and
# the pairs in which the change read higher and lower. Host-clock numbers
# drift on a shared box: ten pairs, seeds not used while the change was
# written.
set -euo pipefail

if [ $# -lt 5 ]; then
    sed -n '2,19p' "$0" >&2
    exit 2
fi
METRICS=(host_ops_per_s setup_s host_peak_rss_mb)
workload=$3
seconds=$4
seeds=("${@:5}")

# The binary of a checkout (built on demand) or the binary itself, and the
# directory it runs from.
resolve() {
    if [ -d "$1" ]; then
        local dir
        dir=$(cd "$1" && pwd)
        local bin=$dir/benchmark/target/release/benchmark
        if [ ! -x "$bin" ]; then
            (cd "$dir" && cargo build --release --offline --quiet \
                --manifest-path benchmark/Cargo.toml) >&2
        fi
        echo "$bin $dir"
    else
        echo "$(cd "$(dirname "$1")" && pwd)/$(basename "$1") $PWD"
    fi
}
read -r parent_bin parent_dir <<<"$(resolve "$1")"
read -r change_bin change_dir <<<"$(resolve "$2")"

rows=$(mktemp)
log=$(mktemp)
trap 'rm -f "$rows" "$log"' EXIT

# One run: the metrics' values off the driver's JSON line (the last one of
# stdout; the table for people goes to stderr and is shown on a failure).
measure() {
    (cd "$2" && "$1" --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0) \
        2>"$log" | tail -n 1 | jq -er --args \
        'if .failed != 0 then error("failed ops") else [.metrics[$ARGS.positional[]].value] | @tsv end' \
        "${METRICS[@]}" || { cat "$log" >&2; exit 1; }
}

echo "$workload, ${seconds}s windows, ${#seeds[@]} pairs: parent $parent_dir, change $change_dir"
i=0
for seed in "${seeds[@]}"; do
    if [ $((i % 2)) -eq 0 ]; then
        p=$(measure "$parent_bin" "$parent_dir" "$seed")
        c=$(measure "$change_bin" "$change_dir" "$seed")
    else
        c=$(measure "$change_bin" "$change_dir" "$seed")
        p=$(measure "$parent_bin" "$parent_dir" "$seed")
    fi
    echo "$seed $p $c" >>"$rows"
    echo -n . >&2
    i=$((i + 1))
done
echo >&2

# Quartiles by linear interpolation between order statistics.
quartiles() {
    sort -g | awk '
        { v[NR] = $1 }
        function q(f,   h, lo) { h = 1 + (NR - 1) * f; lo = int(h)
            return lo >= NR ? v[NR] : v[lo] + (h - lo) * (v[lo + 1] - v[lo]) }
        END { printf "%.4f %.4f %.4f\n", q(0.5), q(0.25), q(0.75) }'
}
n=${#METRICS[@]}
for k in "${!METRICS[@]}"; do
    pcol=$((2 + k))
    ccol=$((2 + n + k))
    printf '\n%-6s %14s %14s %8s   %s\n' seed parent change ratio "${METRICS[$k]}"
    awk -v p=$pcol -v c=$ccol \
        '{ printf "%-6s %14.4f %14.4f %8.3f\n", $1, $p, $c, $c / $p }' "$rows"
    read -r pm pq1 pq3 <<<"$(awk -v p=$pcol '{ print $p }' "$rows" | quartiles)"
    read -r cm cq1 cq3 <<<"$(awk -v c=$ccol '{ print $c }' "$rows" | quartiles)"
    echo "parent  median $pm [$pq1, $pq3]"
    echo "change  median $cm [$cq1, $cq3]"
    awk -v p=$pcol -v c=$ccol -v pm="$pm" -v cm="$cm" -v q1="$pq1" -v q3="$pq3" '
        $c > $p { higher++ } $c < $p { lower++ }
        END { printf "change/parent %.3f; parent IQR %.4f, medians apart %.4f; ", cm / pm, q3 - q1, cm - pm
              printf "change higher in %d, lower in %d of %d pairs\n", higher, lower, NR }' "$rows"
done
