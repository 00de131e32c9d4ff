#!/bin/sh
# CI pipeline: build, run the test suite and every example program, run
# the quick benchmark sweep (which checks every A/B claim of its claim
# list), check that every machine-readable artifact parses back as
# JSON, hold the enforcement report and seeded chaos runs to a committed
# pin under every knob and core-count combination, hold the counter
# export to a committed pin, hold fresh bench numbers to the committed
# baseline, check that traced runs write complete, valid and
# rerun-identical artifacts (the SMP scenario at 1 core and at the
# matrix's count too), run the enforcement oracle and the simulated
# hardware's differential properties long, run the
# repository benchmark's self-checks on every workload, hold its
# simulated figures to the committed pin, and self-check the
# alternating-pairs runner.
#
# Run from the repository root:
#   sh bin/ci.sh              full pipeline (the CI default)
#   sh bin/ci.sh --quick      skip the long oracle and hardware
#                             properties, chaos smoke, the perfbench
#                             smoke and the pairs self-check
#   sh bin/ci.sh --cores N    run the test suite, the SMP trace rerun and
#                             the enforcement pin on an N-core simulated
#                             machine too
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

stage "examples (each built example exits 0)"
# The example programs are documentation that runs: each prints what it
# demonstrates and exits non-zero when the demonstration goes wrong (for
# secure_http, a hostile request that gets a body back). Runs in
# --quick too.
for example in quickstart secure_http wiki_app python_plot \
               malicious_package minigo_quickstart; do
  if ! _build/default/examples/$example.exe > "$tmp/example.txt" 2>&1; then
    cat "$tmp/example.txt" >&2
    echo "ci: examples/$example.exe exited non-zero" >&2
    exit 1
  fi
done

stage "bench (quick sweep + A/B claims + artifact validation)"
# The bench runs each A/B claim of its claim list once, at its quick
# sizes (A = the knob on, the first backend or the first core count),
# and exits 1 unless both sides of every claim pass Runtime.audit,
# their enforcement summaries are identical and every expectation
# holds. It also fails when witnessed and unwitnessed http runs serve
# different req/s: the witness must cost no simulated time.
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
# exits non-zero on any escape), the JSON score matrix must parse, and
# each defense must be load-bearing (its paired attack escapes with the
# defense off).
dune exec bin/attacks.exe -- run --json "$tmp/attacks.json"
dune exec bin/trace_dump.exe -- validate "$tmp/attacks.json"
dune exec bin/attacks.exe -- prove-defenses

# The stages below call the built executables directly: dune exec adds
# a rebuild check to every call.
bin=_build/default/bin

stage "enforcement pin (every knob x core count vs bench/enforcement_pin.txt)"
# A knob or a core count may change what a run costs, never what
# enforcement decides or what the fault injector does: under every
# combination of the knobs in Knob.all (test_sim pins the list to these
# three variables) and of 1, 4 and the matrix's cores, the timing-free
# enforcement report and two seeded chaos runs (http, and wiki's
# network faults) must print exactly the committed pin. The test stage's
# enforcement oracle checks the same rule over random op sequences, and
# across backends. Runs in --quick too. After a change meant to move one
# of them, regenerate with:
#   { dune exec bin/trace_dump.exe -- enforcement
#     dune exec bin/chaos.exe -- http --seed 42
#     dune exec bin/chaos.exe -- wiki --rate 0.1
#   } > bench/enforcement_pin.txt
pin_core_counts="1 4"
case "$cores" in 1 | 4) ;; *) pin_core_counts="1 4 $cores" ;; esac
for fastpath in 0 1; do
  for sysring in 0 1; do
    for zerocopy in 0 1; do
      for n in $pin_core_counts; do
        combo="ENCL_FASTPATH=$fastpath ENCL_SYSRING=$sysring ENCL_ZEROCOPY=$zerocopy ENCL_CORES=$n"
        {
          env $combo $bin/trace_dump.exe enforcement
          env $combo $bin/chaos.exe http --seed 42
          env $combo $bin/chaos.exe wiki --rate 0.1
        } > "$tmp/enforcement_pin.txt"
        if ! cmp -s bench/enforcement_pin.txt "$tmp/enforcement_pin.txt"; then
          echo "ci: enforcement or chaos output under $combo diverged from bench/enforcement_pin.txt" >&2
          diff bench/enforcement_pin.txt "$tmp/enforcement_pin.txt" >&2 || true
          exit 1
        fi
      done
    done
  done
done

stage "metrics pin (counter export + attribution vs bench/metrics_pin.txt)"
# What a run counts, per scope, for short runs on every backend and a
# 4-core run: the per-scope counter table, its TOTAL row and the
# histogram lines of trace_dump --summary (bin/metrics_pin.sh pins the
# knobs and ENCL_CORES itself). This covers the counters the
# enforcement pin cannot see — seccomp cache, rx ring, coalescing, SFI
# masking, ring IPIs, steals — and keeps the metrics.json key set
# fixed. Each run also prints its attribution table (scope x category
# ns), so a switch or trap whose nanoseconds land in another span fails
# here. Runs in --quick too. After a change meant to move a
# counter or the ledger, regenerate with:
#   sh bin/metrics_pin.sh > bench/metrics_pin.txt
sh bin/metrics_pin.sh > "$tmp/metrics_pin.txt"
if ! cmp -s bench/metrics_pin.txt "$tmp/metrics_pin.txt"; then
  echo "ci: the counter export diverged from bench/metrics_pin.txt" >&2
  diff bench/metrics_pin.txt "$tmp/metrics_pin.txt" >&2 || true
  exit 1
fi

stage "trace artifacts (complete, valid, rerun-identical)"
# One traced run writes four artifacts and exits 1 when it fails its
# audit (Runtime.audit): a dropped span, a ledger that does not conserve
# every simulated nanosecond per core, a ring left unbalanced, or
# counters that do not reconcile. The JSON ones must parse, every
# folded-stack line must be "STACK NS", and a rerun of the same workload
# must write byte-identical artifacts (the simulated clock makes traces
# deterministic). Sharding the machine must never cost determinism, so
# the work-stealing scenario reruns at 1 core and at the matrix's
# count; core-count invariance of enforcement is part of the
# enforcement-pin stage. Runs in --quick too.
#
# trace_check NAME CORES ARGS...: trace_dump ARGS on CORES cores into
# $tmp/NAME, its artifacts checked, then rerun and compared.
trace_check() {
  name=$1
  c=$2
  shift 2
  ENCL_CORES=$c $bin/trace_dump.exe "$@" --out-dir "$tmp/$name"
  ENCL_CORES=$c $bin/trace_dump.exe "$@" --out-dir "$tmp/$name-rerun" > /dev/null
  for f in trace.json metrics.json witness.json; do
    $bin/trace_dump.exe validate "$tmp/$name/$f"
  done
  if ! awk 'NF < 2 || $NF !~ /^[0-9]+$/ { bad = 1 } END { exit bad || NR == 0 }' \
       "$tmp/$name/flamegraph.folded"; then
    echo "ci: trace_dump $* on $c cores wrote a malformed flamegraph.folded" >&2
    exit 1
  fi
  for f in trace.json metrics.json witness.json flamegraph.folded; do
    if ! cmp -s "$tmp/$name/$f" "$tmp/$name-rerun/$f"; then
      echo "ci: $f of trace_dump $* on $c cores diverged between identical runs" >&2
      exit 1
    fi
  done
}
trace_check wiki "${ENCL_CORES:-1}" wiki --requests 200
trace_check http "${ENCL_CORES:-1}" http --backend vtx
smp_core_counts=1
if [ "$cores" != 1 ]; then smp_core_counts="1 $cores"; fi
for n in $smp_core_counts; do
  trace_check "smp-$n" "$n" smp_http --requests 256
done
# Every registry scenario's default size fits the span ring; smp_http
# on LB_VTX is among the largest traces.
$bin/trace_dump.exe smp_http --backend vtx --out-dir "$tmp/trace-smp" > /dev/null

stage "policy mining (mine -> verify -> drift)"
# A mining run must pass its audit, which reconciles the witness with
# the registry's verdict counters. Mined literals must agree across all
# four backends, prove sound (zero faults when enforced) and minimal
# (every one-rung narrowing faults), and must not widen past the
# committed snapshots.
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

stage "perfbench pin (simulated figures vs bench/perfbench_pin.txt)"
# A host-side change may alter what the simulator costs to run, never
# what it simulates: one short round of every workload must print
# exactly the committed simulated figures. Runs in --quick too, from
# the binary the build stage made (a fraction of a second). After a
# change meant to move a simulated figure, regenerate deliberately with:
#   for w in http_vtx bild_mpk wiki_mpk_4core python_vtx; do
#     _build/default/perfbench/perfbench.exe --workload "$w" \
#       --seed 8080 --pin-check
#   done > bench/perfbench_pin.txt
for w in http_vtx bild_mpk wiki_mpk_4core python_vtx; do
  _build/default/perfbench/perfbench.exe --workload "$w" \
    --seed 8080 --pin-check
done > "$tmp/perfbench_pin.txt"
if ! cmp -s bench/perfbench_pin.txt "$tmp/perfbench_pin.txt"; then
  echo "ci: perfbench simulated figures diverged from bench/perfbench_pin.txt" >&2
  diff bench/perfbench_pin.txt "$tmp/perfbench_pin.txt" >&2 || true
  exit 1
fi

if [ "$quick" = 0 ]; then
  stage "enforcement oracle (long)"
  # The test stage's oracle property with four times the cases: random
  # op sequences under random knobs, obs, witness and core counts must
  # decide as the reference configuration does, which in turn decides
  # alike on every backend. A failure prints its seed; replay it with
  # QCHECK_SEED=N (README, "Testing").
  QCHECK_LONG=1 _build/default/test/test_oracle.exe

  stage "simulated hardware properties (long)"
  # test_sim's differential properties with four times the cases: the
  # radix page table against a Hashtbl, a full TLB against the
  # reference model, and the MMU against a walk-every-access model.
  QCHECK_LONG=1 _build/default/test/test_sim.exe

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

  stage "perfbench pairs (self-check)"
  # The alternating-pairs runner that host-cost claims are measured
  # with, on one short pair of this checkout against itself: it exits 1
  # unless both runs pass their checks and their simulated metrics are
  # identical.
  sh bin/perfbench_pairs.sh . . http_vtx 1 1
else
  echo "ci: --quick: skipping enforcement oracle (long), simulated hardware properties (long: test_sim.exe), chaos smoke, perfbench smoke and perfbench pairs (the examples stage, the bench's A/B claims, the trace-artifact stage's smp reruns and the perfbench pin ran)"
fi

now=$(date +%s)
stages="$stages\n  $current: $((now - stage_start))s"
echo "ci: === $current done ($((now - stage_start))s) ==="
printf 'ci: summary (total %ss):%b\n' "$((now - start))" "$stages"
echo "ci: ok"
