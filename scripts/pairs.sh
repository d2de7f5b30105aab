#!/usr/bin/env bash
# Interleaved parent/change pairs of one `homebench` workload: the protocol
# behind every performance sentence in EXPERIMENTS.md since PR 14.
#
#   scripts/pairs.sh <parent-checkout> <workload> [n=10]
#
# The change is the checkout this script lives in; the parent is another
# checkout of the same repository (`git clone` it, do not `git worktree`).
# Pair i runs unmodified `homebench --workload W --seed i --seconds 18
# --trace 0` from each checkout's root, the side that goes first alternating
# by pair, and reads the four end-to-end metrics from the last line of each
# run (one JSON object). Standard output is the table EXPERIMENTS.md carries,
# one row per metric: median [q1, q3] per side (quartiles by linear
# interpolation), change ÷ parent, pairs the change won (ties count for
# neither), the parent's IQR, spread ÷ bound (the wider of the two sides'
# IQR ÷ median over the metric's BENCHMARK.json bound), failed ÷ attempted
# ops per side, and a verdict by the rule of the choosing-metrics guide:
# "better"/"worse" needs nine tenths of the pairs and medians apart by more
# than the parent's IQR; a spread wider than the bound is "unresolved", not
# "unchanged". Then one line per pair, so every run made is reported.
# Progress goes to standard error.
#
# homebench appends every run to benchmark/results/history.jsonl and cargo
# refreshes the stale benchmark/Cargo.lock; both checkouts get both files
# back as they were (`benchmark/` is frozen; ROADMAP item 5 may fold this
# script into `homebench --pairs`, keep the lines, and delete it).
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: scripts/pairs.sh <parent-checkout> <workload> [n=10]" >&2
    exit 2
fi
change="$(cd "$(dirname "$0")/.." && pwd)"
parent="$(cd "$1" && pwd)"
workload=$2
n=${3:-10}
case $n in
    '' | *[!0-9]* | 0) echo "pairs: n must be a positive integer, got '$n'" >&2; exit 2 ;;
esac
if [ "$parent" = "$change" ]; then
    echo "pairs: the parent checkout is this checkout" >&2
    exit 2
fi
grep -q "{\"name\": \"$workload\"," "$change/BENCHMARK.json" || {
    echo "pairs: BENCHMARK.json names no workload '$workload'" >&2
    exit 2
}
if ! cmp -s "$parent/BENCHMARK.json" "$change/BENCHMARK.json" ||
    ! diff -r -x target -x results -x Cargo.lock "$parent/benchmark" "$change/benchmark" > /dev/null; then
    echo "pairs: the two checkouts do not hold the same benchmark" >&2
    exit 2
fi

work="$(mktemp -d)"
touched="results/history.jsonl Cargo.lock"
restore() {
    for side in parent change; do
        for file in $touched; do
            if [ -f "$work/$side/$file" ]; then
                cp "$work/$side/$file" "${!side}/benchmark/$file"
            fi
        done
    done
    rm -rf "$work"
}
trap restore EXIT

bench=(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --)
for side in parent change; do
    mkdir -p "$work/$side/results"
    for file in $touched; do
        cp "${!side}/benchmark/$file" "$work/$side/$file"
    done
    echo "pairs: building $side (${!side})" >&2
    (cd "${!side}" &&
        cargo build --release --offline --quiet --bin home &&
        cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
done

# One run; appends "<side> <pair> <last line>" to $work/runs.
run_side() {
    local side=$1 pair=$2 line
    line="$(cd "${!side}" &&
        "${bench[@]}" --workload "$workload" --seed "$pair" --seconds 18 --trace 0 | tail -n 1)"
    case $line in
        '{"correct": '*) ;;
        *) echo "pairs: $side pair $pair printed no result line: $line" >&2; exit 1 ;;
    esac
    printf '%s %s %s\n' "$side" "$pair" "$line" >> "$work/runs"
}

for pair in $(seq 1 "$n"); do
    if [ $((pair % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    echo "pairs: $workload pair $pair of $n ($order)" >&2
    for side in $order; do
        run_side "$side" "$pair"
    done
done

# shellcheck disable=SC2016  # awk program, not shell
awk -v workload="$workload" -v n="$n" '
    # The number after `"key": ` (or after `"key": {"value": `) in line.
    function num(line, key,    at, rest) {
        at = index(line, "\"" key "\": ")
        if (!at) return "nan"
        rest = substr(line, at + length(key) + 4)
        sub(/^\{"value": /, "", rest)
        sub(/[,}].*/, "", rest)
        return rest + 0
    }
    # p-quantile of v[1..n], linear interpolation (sorts a copy).
    function quantile(v, p,    s, i, j, t, pos, lo) {
        for (i = 1; i <= n; i++) s[i] = v[i]
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && s[j - 1] > s[j]; j--) { t = s[j]; s[j] = s[j - 1]; s[j - 1] = t }
        pos = (n - 1) * p + 1
        lo = int(pos)
        return lo >= n ? s[n] : s[lo] + (pos - lo) * (s[lo + 1] - s[lo])
    }
    function fmt(x) { return sprintf(x >= 10000 ? "%.4g" : x >= 100 ? "%.1f" : x >= 10 ? "%.2f" : "%.3f", x) }
    function cell(v) { return fmt(quantile(v, 0.5)) " [" fmt(quantile(v, 0.25)) ", " fmt(quantile(v, 0.75)) "]" }
    FNR == NR {
        # BENCHMARK.json: the end-to-end metrics with their direction and bound.
        if ($0 ~ /"bound":/) {
            name = $0; sub(/.*"name": "/, "", name); sub(/".*/, "", name)
            metrics[++m] = name
            higher[name] = ($0 ~ /"better": "higher"/)
            bound[name] = num($0, "bound")
        }
        next
    }
    {
        side = $1; pair = $2
        line = $0; sub(/^[^ ]+ [^ ]+ /, "", line)
        attempted[side] += num(line, "attempted")
        failed[side] += num(line, "failed")
        if (line !~ /^\{"correct": true/) incorrect[side]++
        for (i = 1; i <= m; i++) value[side, metrics[i], pair] = num(line, metrics[i])
    }
    END {
        print "| workload | metric | parent median [q1, q3] | change median [q1, q3] | change ÷ parent | pairs won | parent IQR | spread ÷ bound | failed ÷ ops (parent, change) | verdict |"
        print "|---|---|---:|---:|---:|---:|---:|---:|---:|---|"
        for (i = 1; i <= m; i++) {
            name = metrics[i]
            won = lost = 0
            for (p = 1; p <= n; p++) {
                a[p] = value["parent", name, p]; b[p] = value["change", name, p]
                if (higher[name] ? b[p] > a[p] : b[p] < a[p]) won++
                else if (b[p] != a[p]) lost++
            }
            ma = quantile(a, 0.5); mb = quantile(b, 0.5)
            iqr_a = quantile(a, 0.75) - quantile(a, 0.25)
            iqr_b = quantile(b, 0.75) - quantile(b, 0.25)
            spread = (iqr_a / ma > iqr_b / mb ? iqr_a / ma : iqr_b / mb) / bound[name]
            gain = higher[name] ? mb - ma : ma - mb
            if (won >= 0.9 * n && gain > iqr_a) verdict = "better"
            else if (lost >= 0.9 * n && -gain > iqr_a) verdict = -gain > bound[name] * ma ? "WORSE, beyond bound" : "worse, inside bound"
            else if (spread > 1) verdict = "unresolved (spread > bound)"
            else if (-gain > bound[name] * ma) verdict = "not resolved; median BEYOND bound"
            else verdict = "no change resolved; inside bound"
            printf "| `%s` | `%s` | %s | %s | %.3f | %d/%d | %s | %.2f | %d/%d, %d/%d | %s |\n", \
                workload, name, cell(a), cell(b), mb / ma, won, n, fmt(iqr_a), spread, \
                failed["parent"], attempted["parent"], failed["change"], attempted["change"], verdict
        }
        if (incorrect["parent"] + incorrect["change"] > 0)
            printf "\n**%d parent and %d change runs did not read `\"correct\": true`.**\n", \
                incorrect["parent"], incorrect["change"]
        print ""
        for (p = 1; p <= n; p++) {
            printf "pair %d (seed %d, %s first), parent → change:", p, p, p % 2 ? "parent" : "change"
            for (i = 1; i <= m; i++)
                printf " %s %s → %s%s", metrics[i], fmt(value["parent", metrics[i], p]), \
                    fmt(value["change", metrics[i], p]), i < m ? ";" : "\n"
        }
    }
' "$change/BENCHMARK.json" "$work/runs"
