#!/bin/sh
# Host-cost A/B of two checkouts on one benchmark workload, in
# alternating pairs.
#
#   sh bin/perfbench_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD PAIRS [SECONDS] [SEED0]
#
# PARENT_DIR and CHANGE_DIR are two checkouts of the repository (for
# the parent, e.g. `git worktree add ../parent HEAD~1`). Each is built
# once through its own perfbench/run.py (one short run); then pair i
# (0-based) runs `perfbench.exe --workload WORKLOAD --seed SEED0+i
# --seconds SECONDS --trace 0` once in each checkout, parent first in
# even pairs and change first in odd ones. SECONDS defaults to 15,
# SEED0 to 20001.
#
# Prints one line per run (host_us_per_op, setup_s, host_peak_rss_mb,
# failed, correct and the four simulated metrics), then for each metric
# the medians and quartiles of both sides, the pairs the change won and
# whether a claimed gain would hold: at least 10 pairs, won in at least
# 9 of every 10, with medians further apart than the parent's
# interquartile range.
#
# Exit status: 0 when every run passed its checks and the simulated
# metrics were identical within every pair, 1 otherwise, 2 on bad usage.
set -eu

usage() {
  echo "usage: sh bin/perfbench_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD PAIRS [SECONDS] [SEED0]" >&2
  exit 2
}
if [ $# -lt 4 ] || [ $# -gt 6 ]; then usage; fi
workload=$3
pairs=$4
seconds=${5:-15}
seed0=${6:-20001}
for n in "$pairs" "$seconds" "$seed0"; do
  case "$n" in '' | *[!0-9]*) usage ;; esac
done
if [ "$pairs" -lt 1 ] || [ "$seconds" -lt 1 ]; then usage; fi
for d in "$1" "$2"; do
  if [ ! -f "$d/perfbench/run.py" ]; then
    echo "perfbench_pairs: $d is not a checkout (no perfbench/run.py)" >&2
    exit 2
  fi
done
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)

tmp=$(mktemp -d "${TMPDIR:-/tmp}/perfbench-pairs.XXXXXX")
trap 'rm -rf "$tmp"' EXIT INT TERM

for dir in "$parent" "$change"; do
  if ! python3 "$dir/perfbench/run.py" --workload "$workload" --seed "$seed0" \
       --seconds 1 --trace 0 > "$tmp/build.log" 2>&1; then
    cat "$tmp/build.log" >&2
    echo "perfbench_pairs: building or running the benchmark in $dir failed" >&2
    exit 1
  fi
done

# run SIDE DIR SEED PAIR: one timed run; appends "PAIR SIDE SEED STATUS
# JSON" to runs.txt (JSON is the run's last line of output).
run() {
  status=0
  (cd "$2" && ./.bench_build/default/perfbench/perfbench.exe --workload "$workload" \
     --seed "$3" --seconds "$seconds" --trace 0) > "$tmp/run.out" 2>&1 || status=$?
  echo "$4 $1 $3 $status $(tail -n 1 "$tmp/run.out")" >> "$tmp/runs.txt"
}

: > "$tmp/runs.txt"
i=0
while [ "$i" -lt "$pairs" ]; do
  seed=$((seed0 + i))
  if [ $((i % 2)) = 0 ]; then
    run parent "$parent" "$seed" "$i"
    run change "$change" "$seed" "$i"
  else
    run change "$change" "$seed" "$i"
    run parent "$parent" "$seed" "$i"
  fi
  i=$((i + 1))
done

python3 - "$tmp/runs.txt" "$workload" <<'EOF'
import json
import sys

SIM = ["sim_ops_per_s", "sim_lat_p50_us", "sim_lat_p99_us", "paper_dev_pct"]
HOST = ["host_us_per_op", "setup_s", "host_peak_rss_mb"]
HIGHER = {"sim_ops_per_s"}

runs, ok = {}, True
for line in open(sys.argv[1]):
    pair, side, seed, status, rest = line.rstrip("\n").split(" ", 4)
    try:
        res = json.loads(rest)
        metrics = {k: v["value"] for k, v in res["metrics"].items()}
        passed = status == "0" and res["correct"] and res["failed"] == 0
    except (ValueError, KeyError, TypeError):
        res, metrics, passed = {}, {}, False
    ok &= passed
    runs[(int(pair), side)] = metrics
    print("pair %s %-6s seed %s exit %s correct %s failed %s  %s%s" % (
        pair, side, seed, status, res.get("correct"), res.get("failed"),
        "  ".join("%s %.6g" % (k, metrics[k]) for k in HOST + SIM if k in metrics),
        "" if passed else "  FAILED"))

def quartiles(xs):
    xs = sorted(xs)
    def q(p):
        pos = p * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
    return q(0.25), q(0.5), q(0.75)

pairs = sorted({p for p, _ in runs})
complete = [p for p in pairs
            if all(k in runs.get((p, s), {}) for s in ("parent", "change") for k in HOST + SIM)]
if len(complete) < len(pairs):
    ok = False
print("\n%s: %d pairs" % (sys.argv[2], len(pairs)))
for k in HOST + SIM:
    if not complete:
        break
    par = [runs[(p, "parent")][k] for p in complete]
    chg = [runs[(p, "change")][k] for p in complete]
    sign = 1 if k in HIGHER else -1
    won = sum(1 for a, b in zip(par, chg) if sign * (b - a) > 0)
    pq1, pmed, pq3 = quartiles(par)
    cq1, cmed, cq3 = quartiles(chg)
    line = "  %-18s parent %.6g [%.6g-%.6g]  change %.6g [%.6g-%.6g]  %+.2f%%  won %d/%d" % (
        k, pmed, pq1, pq3, cmed, cq1, cq3,
        100.0 * (cmed - pmed) / pmed if pmed else 0.0, won, len(complete))
    if k in SIM:
        same = par == chg
        ok &= same
        line += "  identical in every pair" if same else "  DIFFERS within a pair"
    elif len(complete) < 10:
        line += "  gain rule needs >= 10 pairs"
    else:
        holds = 10 * won >= 9 * len(complete) and sign * (cmed - pmed) > pq3 - pq1
        line += "  gain rule %s" % ("holds" if holds else "does not hold")
    print(line)
print("perfbench_pairs: %s" % ("ok" if ok else "FAILED"))
sys.exit(0 if ok else 1)
EOF
