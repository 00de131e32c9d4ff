#!/bin/sh
# CI pipeline: build, run the test suite, run the quick benchmark sweep,
# check that every machine-readable artifact parses back as JSON,
# profile a workload under the isolation backends, verify the fast
# paths shrink the switch+seccomp share, check the SFI switch/access
# crossover, hold the enforcement report and seeded chaos runs to a
# committed pin, hold fresh bench numbers to the committed baseline, run
# the repository benchmark's self-checks on every workload, and hold its
# simulated figures to the committed pin.
#
# Run from the repository root:
#   sh bin/ci.sh              full pipeline (the CI default)
#   sh bin/ci.sh --quick      skip the chaos smoke, profile and perfbench stages
#   sh bin/ci.sh --cores N    run the test suite and the SMP determinism
#                             stage on an N-core simulated machine
set -eu

quick=0
cores=1
expect_cores=0
for arg in "$@"; do
  if [ "$expect_cores" = 1 ]; then
    cores="$arg"
    expect_cores=0
    continue
  fi
  case "$arg" in
    --quick) quick=1 ;;
    --cores) expect_cores=1 ;;
    --cores=*) cores="${arg#--cores=}" ;;
    *)
      echo "usage: sh bin/ci.sh [--quick] [--cores N]" >&2
      exit 2
      ;;
  esac
done
if [ "$expect_cores" = 1 ]; then
  echo "ci: --cores needs a value" >&2
  exit 2
fi
case "$cores" in
  '' | *[!0-9]* | 0)
    echo "ci: --cores needs a positive integer, got '$cores'" >&2
    exit 2
    ;;
esac

# Scratch space for everything CI writes besides the bench artifacts;
# cleaned up even when a step fails.
tmp=$(mktemp -d "${TMPDIR:-/tmp}/encl-ci.XXXXXX")
trap 'rm -rf "$tmp"' EXIT INT TERM

start=$(date +%s)
stage_start=$start
stages=""
current=""

# stage <name>: print a banner for the next stage and record the
# elapsed time of the one it closes.
stage() {
  now=$(date +%s)
  if [ -n "$current" ]; then
    echo "ci: === $current done ($((now - stage_start))s) ==="
    stages="$stages\n  $current: $((now - stage_start))s"
  fi
  current="$1"
  stage_start=$now
  echo "ci: === $current ==="
}

stage "build"
dune build

stage "tests (ENCL_CORES=$cores)"
# The whole suite must stay green at any core count: ENCL_CORES sets
# the default machine width for every runtime the tests boot. --force,
# because dune does not track environment variables — a cached result
# from another core count would silently satisfy this stage.
ENCL_CORES=$cores dune runtest --force

stage "bench (quick sweep + artifact validation)"
ENCL_BENCH_QUICK=1 dune exec bench/main.exe
if [ ! -f BENCH_results.json ]; then
  echo "ci: BENCH_results.json was not written" >&2
  exit 1
fi
dune exec bin/trace_dump.exe -- validate BENCH_results.json

stage "bench regression gate"
# Fresh quick-mode rows must stay within each metric's tolerance of
# bench/baseline.json, and every fresh row must have a baseline entry
# (exit 1 on regression or unbaselined row; regenerate deliberately
# with `dune exec bin/profile.exe -- gate --write-baseline`).
dune exec bin/profile.exe -- gate

stage "attack corpus (containment + load-bearing defenses)"
# Every corpus attack must be contained on every backend (attacks.exe
# exits non-zero on any escape), the JSON score matrix must parse, each
# defense must be load-bearing (its paired attack escapes with the
# defense off), and the obs containment counters must reconcile with
# the harness tallies and the litterbox gate-violation count.
dune exec bin/attacks.exe -- run --json "$tmp/attacks.json"
dune exec bin/trace_dump.exe -- validate "$tmp/attacks.json"
dune exec bin/attacks.exe -- prove-defenses
dune exec bin/trace_dump.exe -- attacks > /dev/null

stage "sysring differential (enforcement on/off diff)"
# Batching may change what a run costs, never what enforcement decides:
# the timing-free enforcement report must be byte-identical with the
# syscall ring on and off (same verdicts, fault logs, quarantine state,
# workload syscall totals). Runs in --quick too — it is the cheapest
# end-to-end witness that the ring preserves semantics.
ENCL_SYSRING=1 dune exec bin/trace_dump.exe -- enforcement > "$tmp/sysring_on.txt"
ENCL_SYSRING=0 dune exec bin/trace_dump.exe -- enforcement > "$tmp/sysring_off.txt"
if ! cmp -s "$tmp/sysring_on.txt" "$tmp/sysring_off.txt"; then
  echo "ci: enforcement diverged between ENCL_SYSRING=1 and =0" >&2
  diff "$tmp/sysring_on.txt" "$tmp/sysring_off.txt" >&2 || true
  exit 1
fi

stage "zerocopy differential (enforcement on/off diff + speedup)"
# The Zerocopy flag gates cost accounting only: the timing-free
# enforcement report — which now includes the zerocopy_http scenario
# and the rx ring's descriptor counters — must be byte-identical with
# ENCL_ZEROCOPY on and off. Runs in --quick too. The speedup half
# (profile zerocopy) then requires every backend to serve >= 10% more
# req/s with strictly fewer ledger bytes copied at identical
# kernel-syscall, fault and rx-ring descriptor counts.
ENCL_ZEROCOPY=1 dune exec bin/trace_dump.exe -- enforcement > "$tmp/zc_on.txt"
ENCL_ZEROCOPY=0 dune exec bin/trace_dump.exe -- enforcement > "$tmp/zc_off.txt"
if ! cmp -s "$tmp/zc_on.txt" "$tmp/zc_off.txt"; then
  echo "ci: enforcement diverged between ENCL_ZEROCOPY=1 and =0" >&2
  diff "$tmp/zc_on.txt" "$tmp/zc_off.txt" >&2 || true
  exit 1
fi
dune exec bin/profile.exe -- zerocopy --requests 400

stage "enforcement pin (enforcement + chaos vs bench/enforcement_pin.txt)"
# A host-side change may alter what the simulator costs to run, never
# what enforcement decides or what the fault injector does: the
# timing-free enforcement report and two seeded chaos runs (http, and
# wiki's network faults: drops, short reads, short writes) must print
# exactly the committed pin. Runs in --quick too; all three take under
# a second. After a change meant to move one of them, regenerate
# deliberately with:
#   { dune exec bin/trace_dump.exe -- enforcement
#     dune exec bin/chaos.exe -- http --seed 42
#     dune exec bin/chaos.exe -- wiki --rate 0.1
#   } > bench/enforcement_pin.txt
{
  dune exec bin/trace_dump.exe -- enforcement
  dune exec bin/chaos.exe -- http --seed 42
  dune exec bin/chaos.exe -- wiki --rate 0.1
} > "$tmp/enforcement_pin.txt"
if ! cmp -s bench/enforcement_pin.txt "$tmp/enforcement_pin.txt"; then
  echo "ci: enforcement or chaos output diverged from bench/enforcement_pin.txt" >&2
  diff bench/enforcement_pin.txt "$tmp/enforcement_pin.txt" >&2 || true
  exit 1
fi

stage "sfi (switch/access crossover)"
# The SFI selection rule must hold, measured: strictly fewer
# switch-category ns than LB_VTX on the switch-heavy scenario, strictly
# more access-category ns than LB_MPK on the access-heavy one, with
# identical fault and workload-syscall counts on both legs. Runs in
# --quick too — it is the end-to-end witness that the SFI backend
# enforces the same policy at an inverted cost structure.
dune exec bin/profile.exe -- crossover

stage "trace artifacts"
dune exec bin/trace_dump.exe -- wiki --requests 200 --out-dir "$tmp"
dune exec bin/trace_dump.exe -- validate "$tmp/trace.json"
dune exec bin/trace_dump.exe -- validate "$tmp/metrics.json"
dune exec bin/trace_dump.exe -- validate "$tmp/witness.json"
# Witnessing is deterministic: rerunning the same workload must produce
# a byte-identical witness artifact.
mkdir "$tmp/rerun-witness"
dune exec bin/trace_dump.exe -- wiki --requests 200 \
  --out-dir "$tmp/rerun-witness" > /dev/null
if ! cmp -s "$tmp/witness.json" "$tmp/rerun-witness/witness.json"; then
  echo "ci: witness.json diverged between identical runs" >&2
  exit 1
fi

stage "smp determinism (rerun diff + core-count invariance)"
# Sharding the machine must never cost determinism. Two same-seed runs
# of the work-stealing scenario must produce byte-identical trace,
# metrics and witness artifacts at every core count this leg covers
# (1 and the matrix's $cores), and enforcement must be a function of
# the program alone: the timing-free enforcement report — verdicts,
# fault logs, quarantine state, workload syscall totals, on all four
# backends — must be byte-identical between a 1-core and a 4-core
# machine.
smp_core_counts=1
if [ "$cores" != 1 ]; then smp_core_counts="1 $cores"; fi
for n in $smp_core_counts; do
  mkdir -p "$tmp/smp-$n-a" "$tmp/smp-$n-b"
  ENCL_CORES=$n dune exec bin/trace_dump.exe -- smp_http --requests 256 \
    --out-dir "$tmp/smp-$n-a" > /dev/null
  ENCL_CORES=$n dune exec bin/trace_dump.exe -- smp_http --requests 256 \
    --out-dir "$tmp/smp-$n-b" > /dev/null
  for f in trace.json metrics.json witness.json; do
    if ! cmp -s "$tmp/smp-$n-a/$f" "$tmp/smp-$n-b/$f"; then
      echo "ci: $f diverged between identical $n-core runs" >&2
      exit 1
    fi
  done
  dune exec bin/trace_dump.exe -- validate "$tmp/smp-$n-a/metrics.json"
done
ENCL_CORES=1 dune exec bin/trace_dump.exe -- enforcement > "$tmp/enforce_1core.txt"
ENCL_CORES=4 dune exec bin/trace_dump.exe -- enforcement > "$tmp/enforce_4core.txt"
if ! cmp -s "$tmp/enforce_1core.txt" "$tmp/enforce_4core.txt"; then
  echo "ci: enforcement diverged between 1-core and 4-core machines" >&2
  diff "$tmp/enforce_1core.txt" "$tmp/enforce_4core.txt" >&2 || true
  exit 1
fi

stage "smp scaling"
# The sharded machine must actually scale: profile smp runs smp_http at
# 1, 2, 4, 8 and 16 cores and exits 1 unless the 4-core run serves
# >= 2.5x the 1-core req/s at identical fault and workload-syscall
# counts. The curve lands in SMP_scaling.json next to
# BENCH_results.json so the workflow can upload it as an artifact.
dune exec bin/profile.exe -- smp --out SMP_scaling.json
dune exec bin/trace_dump.exe -- validate SMP_scaling.json

stage "policy mining (mine -> verify -> drift)"
# The witness ledger must reconcile with the kernel counters and the
# obs mirrors on every backend x scenario pair.
dune exec bin/trace_dump.exe -- witness
# Mined literals must agree across all four backends, prove sound
# (zero faults when enforced) and minimal (every one-rung narrowing
# faults), and must not widen past the committed snapshots.
for scenario in http wiki pq; do
  dune exec bin/policyminer.exe -- mine "$scenario" > /dev/null
  dune exec bin/policyminer.exe -- verify "$scenario"
  dune exec bin/policyminer.exe -- drift "$scenario"
done
# Negative control: against a deliberately narrowed snapshot the drift
# gate must report a widening and exit non-zero (regenerate committed
# snapshots deliberately with `policyminer drift SCENARIO --write`).
cat > "$tmp/narrowed.json" <<'EOF'
{"scenario":"http","policies":{"handler_enc":"; sys=none"}}
EOF
if dune exec bin/policyminer.exe -- drift http \
     --snapshot "$tmp/narrowed.json" > /dev/null 2>&1; then
  echo "ci: drift gate failed to flag a widened policy" >&2
  exit 1
fi

if [ "$quick" = 0 ]; then
  stage "profile smoke (attribution + determinism)"
  # Attribution must conserve every simulated nanosecond under both
  # backends, the emitted profiles must parse, and two runs of the same
  # workload must produce byte-identical artifacts.
  dune exec bin/profile.exe -- http --backend mpk --out-dir "$tmp"
  dune exec bin/profile.exe -- http --backend vtx --out-dir "$tmp"
  dune exec bin/trace_dump.exe -- validate "$tmp/profile.speedscope.json"
  mkdir "$tmp/rerun"
  dune exec bin/profile.exe -- http --backend vtx --out-dir "$tmp/rerun" > /dev/null
  if ! cmp -s "$tmp/flamegraph.folded" "$tmp/rerun/flamegraph.folded" ||
     ! cmp -s "$tmp/profile.speedscope.json" "$tmp/rerun/profile.speedscope.json"; then
    echo "ci: profile runs of the same workload diverged" >&2
    exit 1
  fi

  stage "overhead ordering"
  # The paper's Table 1 ordering must hold: VT-x spends a larger share
  # of wall time switching than MPK does.
  dune exec bin/profile.exe -- overhead

  stage "fast-path differential"
  # With ENCL_FASTPATH on, the switch+seccomp share of wall time must
  # shrink strictly on both backends while enforcement outcomes and
  # fault counts stay identical.
  dune exec bin/profile.exe -- fastpath

  stage "sysring speedup"
  # With ENCL_SYSRING on, VT-x must serve >= 15% more req/s with
  # strictly fewer VM EXITs at equal workload syscall and fault counts.
  dune exec bin/profile.exe -- sysring

  stage "chaos smoke (availability + determinism)"
  # The server must stay up under fault injection (exit 1 below 90%
  # availability), and the run must be deterministic — two runs with
  # the same seed produce byte-identical output.
  dune exec bin/chaos.exe -- http --seed 42 > "$tmp/chaos_run_a.txt"
  dune exec bin/chaos.exe -- http --seed 42 > "$tmp/chaos_run_b.txt"
  if ! cmp -s "$tmp/chaos_run_a.txt" "$tmp/chaos_run_b.txt"; then
    echo "ci: chaos runs with the same seed diverged" >&2
    diff "$tmp/chaos_run_a.txt" "$tmp/chaos_run_b.txt" >&2 || true
    exit 1
  fi
  dune exec bin/chaos.exe -- wiki --seed 42

  stage "perfbench smoke (benchmark self-checks)"
  # One short traced run per workload: run.py exits non-zero when an
  # output check or a self-check fails, including the check that the
  # simulated figures do not depend on the ENCL_* environment.
  for w in http_vtx bild_mpk wiki_mpk_4core python_vtx; do
    python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1 --trace 1
  done

  stage "perfbench pin (simulated figures vs bench/perfbench_pin.txt)"
  # A host-side change may alter what the simulator costs to run, never
  # what it simulates: one short round of every workload must print
  # exactly the committed simulated figures. Uses the binary the smoke
  # stage just built. After a change meant to move a simulated figure,
  # regenerate deliberately with:
  #   for w in http_vtx bild_mpk wiki_mpk_4core python_vtx; do
  #     .bench_build/default/perfbench/perfbench.exe --workload "$w" \
  #       --seed 8080 --pin-check
  #   done > bench/perfbench_pin.txt
  for w in http_vtx bild_mpk wiki_mpk_4core python_vtx; do
    .bench_build/default/perfbench/perfbench.exe --workload "$w" \
      --seed 8080 --pin-check
  done > "$tmp/perfbench_pin.txt"
  if ! cmp -s bench/perfbench_pin.txt "$tmp/perfbench_pin.txt"; then
    echo "ci: perfbench simulated figures diverged from bench/perfbench_pin.txt" >&2
    diff bench/perfbench_pin.txt "$tmp/perfbench_pin.txt" >&2 || true
    exit 1
  fi
else
  echo "ci: --quick: skipping profile, overhead, fastpath, sysring-speedup, chaos smoke, perfbench smoke and perfbench pin"
fi

now=$(date +%s)
stages="$stages\n  $current: $((now - stage_start))s"
echo "ci: === $current done ($((now - stage_start))s) ==="
printf 'ci: summary (total %ss):%b\n' "$((now - start))" "$stages"
echo "ci: ok"
