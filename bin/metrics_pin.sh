#!/bin/sh
# Print the counter-export pin: the Export.summary block (per-scope
# counter table, TOTAL row, histogram lines) of short trace_dump runs of
# http, wiki, pq, bild and zerocopy_http on every backend, plus a
# 4-core smp_http run. Together they touch every counter metrics.json
# exports, including the ones the enforcement pin cannot see (seccomp
# cache, rx ring, transfer coalescing, SFI masking, ring IPIs, steals).
# Each block is followed by the same run's attribution table (scope x
# category ns), which pins the span every simulated nanosecond lands
# in: a switch, trap or transfer that moves to another scope or
# category changes the pin even when every counter stays.
# bin/ci.sh compares the output with bench/metrics_pin.txt.
#
# Run from the repository root after `dune build`. After a change meant
# to move a counter, regenerate the pin deliberately with:
#   sh bin/metrics_pin.sh > bench/metrics_pin.txt
set -eu

bin=_build/default/bin
out=$(mktemp -d "${TMPDIR:-/tmp}/encl-metrics-pin.XXXXXX")
trap 'rm -rf "$out"' EXIT INT TERM

# The knobs and the core count are pinned; the pin holds the defaults.
unset ENCL_FASTPATH ENCL_SYSRING ENCL_ZEROCOPY ENCL_DEFENSES_OFF

# run CORES SCENARIO ARGS...: one trace_dump run; its summary block,
# then its attribution table.
run() {
  cores=$1
  shift
  echo "== ENCL_CORES=$cores trace_dump $*"
  ENCL_CORES=$cores $bin/trace_dump.exe "$@" --summary --out-dir "$out" \
    > "$out/stdout.txt"
  awk '/^observability: /{p=1} /^counters reconcile/{p=0} p' "$out/stdout.txt"
  awk '/^attribution /{p=1} /^[0-9]+ spans /{p=0} p' "$out/stdout.txt"
}

for scenario in http wiki pq bild zerocopy_http; do
  for backend in mpk vtx lwc sfi; do
    run 1 "$scenario" --backend "$backend" --requests 200
  done
done
run 4 smp_http --backend mpk --requests 256
