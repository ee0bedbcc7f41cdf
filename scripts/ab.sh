#!/usr/bin/env bash
# Same-host A/B of two commits on the benchmark (`benchmark/run.sh`).
#
#   scripts/ab.sh BASE HEAD [--workload W] [--pairs N] [-- run.sh flags]
#
# Exports BASE and HEAD into two same-length directories under
# ${TMPDIR:-/tmp}, builds each once with its own CARGO_TARGET_DIR, then
# runs `benchmark/run.sh --workload W` N times per side (default 10),
# alternating which side runs first in each pair. Without --workload it
# runs every workload that both commits' BENCHMARK.json list, one pair of
# each per round. Flags after `--` go to every run (e.g. `-- --seed 7`).
#
# For every end-to-end metric in BENCHMARK.json it prints each side's
# median and quartiles, the ratio of the medians (HEAD / BASE) and how
# many pairs HEAD won and lost. Runs are paired by their pair number; a
# pair where either side has no value is skipped, and a tie counts for
# neither side. A metric breaches when the median ratio is worse than
# its `bound` and HEAD lost at least 80% of the pairs.
#
# Exits 0 when no metric breaches, 1 if any run reports
# `"correct": false` or dies, 2 on a usage error, 3 on a breach (each
# breach is printed as `ab: BREACH <workload> <metric> ...`). The
# exports, built binaries and raw result lines stay in the printed
# directory when AB_KEEP=1.
set -euo pipefail

usage() {
    echo "usage: $0 BASE HEAD [--workload W] [--pairs N] [-- run.sh flags]" >&2
    exit 2
}

[ $# -ge 2 ] || usage
base_rev="$1"
head_rev="$2"
shift 2
workloads=()
pairs=10
extra=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) [ $# -ge 2 ] || usage; workloads=("$2"); shift 2 ;;
        --pairs) [ $# -ge 2 ] || usage; pairs="$2"; shift 2 ;;
        --) shift; extra=("$@"); break ;;
        *) usage ;;
    esac
done
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || usage

repo="$(cd "$(dirname "$0")/.." && pwd)"
base_sha="$(git -C "$repo" rev-parse --verify "$base_rev^{commit}")"
head_sha="$(git -C "$repo" rev-parse --verify "$head_rev^{commit}")"

work="$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")"
if [ "${AB_KEEP:-0}" != 1 ]; then
    trap 'rm -rf "$work"' EXIT
fi

# `a` and `b` have equal-length paths: code layout alone moves protocol
# cells by a few percent (benchmark/README.md), so neither side gets a
# different build path.
for side in a b; do
    sha="$base_sha"
    [ "$side" = b ] && sha="$head_sha"
    mkdir -p "$work/$side"
    git -C "$repo" archive "$sha" | tar -x -C "$work/$side"
    echo "ab: building $side = ${sha:0:10}" >&2
    (cd "$work/$side" && CARGO_TARGET_DIR="$work/$side-target" \
        cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
done

if [ "${#workloads[@]}" -eq 0 ]; then
    mapfile -t workloads < <(jq -rn \
        --slurpfile a "$work/a/BENCHMARK.json" --slurpfile b "$work/b/BENCHMARK.json" \
        '($a[0].workloads | map(.name)) as $an | $b[0].workloads[].name | select(IN($an[]))')
    [ "${#workloads[@]}" -gt 0 ] || { echo "ab: the two commits share no workload" >&2; exit 2; }
fi

# Appends the run's result line, tagged with its pair number, to
# $work/<side>.<workload>.runs. A run that prints no JSON line leaves
# no entry, so its pair is skipped rather than shifting later pairs.
run_side() {
    local side="$1" workload="$2" pair="$3"
    local line
    if ! line="$(cd "$work/$side" && CARGO_TARGET_DIR="$work/$side-target" \
        bash benchmark/run.sh --workload "$workload" "${extra[@]}" 2>/dev/null | tail -n 1)"; then
        echo "ab: side $side exited non-zero on $workload" >&2
        echo "$line" >&2
        failed=1
    fi
    if ! jq -e '.correct == true' <<<"$line" >/dev/null 2>&1; then
        echo "ab: side $side reported an incorrect run on $workload: $line" >&2
        failed=1
    fi
    jq -c --argjson pair "$pair" '. + {pair: $pair}' <<<"$line" \
        >>"$work/$side.$workload.runs" 2>/dev/null || true
}

failed=0
for w in "${workloads[@]}"; do
    : >"$work/a.$w.runs"
    : >"$work/b.$w.runs"
done
for ((i = 0; i < pairs; i++)); do
    for w in "${workloads[@]}"; do
        if ((i % 2 == 0)); then
            run_side a "$w" "$i"
            run_side b "$w" "$i"
        else
            run_side b "$w" "$i"
            run_side a "$w" "$i"
        fi
    done
    echo "ab: pair $((i + 1))/$pairs done" >&2
done

breached=0
for w in "${workloads[@]}"; do
    echo "workload $w, $pairs pairs, BASE ${base_sha:0:10} vs HEAD ${head_sha:0:10}${extra[*]:+, flags: ${extra[*]}}"
    report="$(jq -rn --arg workload "$w" \
        --slurpfile spec "$repo/BENCHMARK.json" \
        --slurpfile a "$work/a.$w.runs" \
        --slurpfile b "$work/b.$w.runs" '
        def q(p): sort | . as $s | ((length - 1) * p) as $i
            | ($i | floor) as $lo | ($i | ceil) as $hi
            | $s[$lo] + ($s[$hi] - $s[$lo]) * ($i - $lo);
        def fmt: if . == null then "-" else (. * 1000 | round / 1000 | tostring) end;
        def pad(n): tostring | if length < n then . + (" " * (n - length)) else . end;
        def by_pair: map({key: (.pair | tostring), value: .metrics}) | from_entries;
        ($a | by_pair) as $am | ($b | by_pair) as $bm
        | (["metric", "better", "base p25/p50/p75", "head p25/p50/p75", "ratio", "won", "lost"]
            | [.[0] | pad(14)] + [.[1] | pad(7)] + [.[2] | pad(36)] + [.[3] | pad(36)]
              + [.[4] | pad(7)] + [.[5] | pad(6)] + [.[6]] | join(" ")),
          ($spec[0].end_to_end[] as $m
            | [$am | keys[] as $k
                | [$am[$k][$m.name].value, $bm[$k][$m.name].value]
                | select(all(. != null))] as $pv
            | ($pv | length) as $n
            | if $n == 0 then
                [$m.name, $m.better, "-", "-", "-", "-", "-"]
              else
                ($pv | map(.[0])) as $av | ($pv | map(.[1])) as $bv
                | (if $m.better == "lower" then 1 else -1 end) as $sign
                | ($pv | map(select((.[1] - .[0]) * $sign < 0)) | length) as $won
                | ($pv | map(select((.[1] - .[0]) * $sign > 0)) | length) as $lost
                | (if ($av | q(0.5)) == 0 then null else ($bv | q(0.5)) / ($av | q(0.5)) end) as $ratio
                | ($ratio != null and ($ratio - 1) * $sign > $m.bound and $lost * 5 >= $n * 4) as $breach
                | [$m.name, $m.better,
                   "\($av | q(0.25) | fmt)/\($av | q(0.5) | fmt)/\($av | q(0.75) | fmt)",
                   "\($bv | q(0.25) | fmt)/\($bv | q(0.5) | fmt)/\($bv | q(0.75) | fmt)",
                   ($ratio | fmt), "\($won)/\($n)", "\($lost)/\($n)"]
                  + (if $breach then ["ab: BREACH \($workload) \($m.name): median ratio \($ratio | fmt), bound \($m.bound), HEAD lost \($lost)/\($n) pairs"] else [] end)
              end
            | ([.[0] | pad(14)] + [.[1] | pad(7)] + [.[2] | pad(36)] + [.[3] | pad(36)]
               + [.[4] | pad(7)] + [.[5] | pad(6)] + [.[6]] | join(" ")),
              .[7] // empty)')"
    grep -v '^ab: BREACH' <<<"$report" || true
    if grep '^ab: BREACH' <<<"$report"; then
        breached=1
    fi
done

if [ "${AB_KEEP:-0}" = 1 ]; then
    echo "ab: exports and raw result lines kept in $work" >&2
fi
if [ "$failed" = 1 ]; then
    exit 1
fi
if [ "$breached" = 1 ]; then
    exit 3
fi
