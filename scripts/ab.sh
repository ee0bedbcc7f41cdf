#!/usr/bin/env bash
# Same-host A/B of two commits on the benchmark (`benchmark/run.sh`).
#
#   scripts/ab.sh BASE HEAD [--workload W] [--pairs N] [-- run.sh flags]
#
# Exports BASE and HEAD into two same-length directories under
# ${TMPDIR:-/tmp}, builds each with its own CARGO_TARGET_DIR, then runs
# `benchmark/run.sh --workload W` (default dense_city_10k) N times per
# side (default 10), alternating which side runs first in each pair.
# Flags after `--` go to every run (e.g. `-- --seed 7`).
#
# For every end-to-end metric in BENCHMARK.json it prints each side's
# median and quartiles, the ratio of the medians (HEAD / BASE) and how
# many pairs HEAD won. Exits 1 if any run reports `"correct": false` or
# dies, 2 on a usage error. The raw result lines stay in the printed
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
workload=dense_city_10k
pairs=10
extra=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) [ $# -ge 2 ] || usage; workload="$2"; shift 2 ;;
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

run_side() {
    local side="$1"
    local out="$work/$side.runs"
    local line
    if ! line="$(cd "$work/$side" && CARGO_TARGET_DIR="$work/$side-target" \
        bash benchmark/run.sh --workload "$workload" "${extra[@]}" 2>/dev/null | tail -n 1)"; then
        echo "ab: side $side exited non-zero" >&2
        echo "$line" >&2
        failed=1
    fi
    if ! jq -e '.correct == true' <<<"$line" >/dev/null 2>&1; then
        echo "ab: side $side reported an incorrect run: $line" >&2
        failed=1
    fi
    echo "$line" >>"$out"
}

failed=0
: >"$work/a.runs"
: >"$work/b.runs"
for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then
        run_side a
        run_side b
    else
        run_side b
        run_side a
    fi
    echo "ab: pair $((i + 1))/$pairs done" >&2
done

echo "workload $workload, $pairs pairs, BASE ${base_sha:0:10} vs HEAD ${head_sha:0:10}${extra[*]:+, flags: ${extra[*]}}"
jq -rn \
    --slurpfile spec "$repo/BENCHMARK.json" \
    --slurpfile a <(jq -c 'select(.metrics != null)' "$work/a.runs") \
    --slurpfile b <(jq -c 'select(.metrics != null)' "$work/b.runs") '
    def q(p): sort | . as $s | ((length - 1) * p) as $i
        | ($i | floor) as $lo | ($i | ceil) as $hi
        | $s[$lo] + ($s[$hi] - $s[$lo]) * ($i - $lo);
    def fmt: if . == null then "-" else (. * 1000 | round / 1000 | tostring) end;
    def pad(n): tostring | if length < n then . + (" " * (n - length)) else . end;
    ["metric", "better", "base p25/p50/p75", "head p25/p50/p75", "ratio", "wins"],
    ($spec[0].end_to_end[] as $m
        | [$a[] | .metrics[$m.name].value] as $av
        | [$b[] | .metrics[$m.name].value] as $bv
        | if ($av | any(. == null)) or ($bv | any(. == null)) or ($av | length) == 0 then
            [$m.name, $m.better, "-", "-", "-", "-"]
          else
            ([range(0; [($av | length), ($bv | length)] | min)]
                | map(select(if $m.better == "lower" then $bv[.] < $av[.] else $bv[.] > $av[.] end))
                | length) as $wins
            | [$m.name, $m.better,
               "\($av | q(0.25) | fmt)/\($av | q(0.5) | fmt)/\($av | q(0.75) | fmt)",
               "\($bv | q(0.25) | fmt)/\($bv | q(0.5) | fmt)/\($bv | q(0.75) | fmt)",
               (if ($av | q(0.5)) == 0 then "-" else (($bv | q(0.5)) / ($av | q(0.5)) | fmt) end),
               "\($wins)/\([($av | length), ($bv | length)] | min)"]
          end)
    | [.[0] | pad(14)] + [.[1] | pad(7)] + [.[2] | pad(36)] + [.[3] | pad(36)] + [.[4] | pad(7)] + [.[5]]
    | join(" ")'

if [ "${AB_KEEP:-0}" = 1 ]; then
    echo "ab: raw result lines kept in $work/{a,b}.runs" >&2
fi
exit "$failed"
