#!/usr/bin/env bash
# Bench acceptance gates (the E-series criteria from DESIGN.md). Runs the
# smoke benches, then every gating bench in --quick mode, then verifies
# each gating bench left a JSON report behind that parses — a missing or
# empty file means a bench silently stopped emitting its report, which
# previously went unnoticed until someone diffed the uploaded artifacts.
#
# Usage: scripts/ci/run_bench_gates.sh [build-dir]
# Runs locally too; artifacts land in the current working directory.
set -euo pipefail

BUILD_DIR="${1:-build}"

if [ ! -d "$BUILD_DIR/bench" ]; then
  echo "error: '$BUILD_DIR' does not look like a build tree (no bench/)" >&2
  exit 2
fi

# Smoke runs: must exit 0, no gated artifact.
"$BUILD_DIR"/bench/bench_sim_dekker
"$BUILD_DIR"/bench/bench_sim_contention
"$BUILD_DIR"/bench/bench_cilk_serial --test 1
"$BUILD_DIR"/bench/bench_cilk_parallel --test

# Leaves BENCH_arw.json (E6/E7 sweep + E15 writer latency).
"$BUILD_DIR"/bench/bench_arw --quick
# Gates on the E15 acceptance ratios (exit 1 when the batched fan-out wave
# is < 3x the sequential loop or coalesced throughput < 2x uncoalesced);
# leaves BENCH_roundtrip.json.
"$BUILD_DIR"/bench/bench_roundtrip --quick
# Gates on the E14 acceptance ratios against the seed engine's recorded
# numbers (exit 1 below 5x states/sec or 4x smaller visited set, or when
# the gated row explores fewer than the whole state budget) and the E20
# scale-up section (symmetry >= 1.3x fewer states with equal verdicts,
# spill segments >= 1 with unchanged counters); leaves BENCH_explorer.json
# with the symmetry/spill section and the live engine's peak RSS.
"$BUILD_DIR"/bench/bench_explorer --quick
# Gates on the E17 acceptance (every grid point SAT+SAFE, >= 2 distinct
# optima along the freq axis at the paper's 150-cycle round trip, three
# hand-checked grid points reproduced) plus the backend-axis planes (the
# signal plane never contains double-l-mfence, the role-inverting plane
# keeps the (freq 1, rt 10) double-l-mfence corner); leaves BENCH_sweep.json
# with the backend_planes section.
"$BUILD_DIR"/bench/bench_sweep --quick
# Gates on the E18 acceptance (exactly 2 *realized* quiescent-point
# switches across the phase change, adaptive within 1.10x of the best
# static policy at both steady-state extremes, worst static >= 1.5x
# adaptive, live scheduler checksum) plus the backend matrix: in the
# high-symmetric-traffic phase the adaptive policy must book AND realize
# double-l-mfence on the role-inverting membarrier-pair backend at >=
# parity with the best static policy, and the signal backend must degrade
# loudly (booked double, realized asymmetric, degraded counter bumped);
# leaves BENCH_adapt.json with the backend_matrix section.
"$BUILD_DIR"/bench/bench_adapt --quick

# Double-l-mfence realization gate on the emitted report: the
# role-inverting backend must have booked AND realized the double cell —
# unless the leg was skipped because the host cannot run membarrier at all
# (the bench already verified loud degradation in that case).
for b in membarrier-pair; do
  if grep -q "\"backend\":\"$b\",\"booked_double\":true,\"realized_double\":true" \
       BENCH_adapt.json; then
    continue
  fi
  if grep -q "\"backend\":\"$b\"[^}]*\"skipped\":true" BENCH_adapt.json; then
    echo "::warning::backend $b unrealizable on this host; realization gate skipped"
    continue
  fi
  echo "::error::backend $b did not realize double-l-mfence (BENCH_adapt.json)"
  exit 1
done
# The sweep artifact must carry the backend-axis planes it is gated on.
grep -q '"backend_planes"' BENCH_sweep.json || {
  echo "::error::BENCH_sweep.json is missing the backend_planes section"
  exit 1
}
# Gates on the E10 acceptance (asym/sym >= 1 at the rare-update point,
# 1 updater / 10ms); leaves BENCH_flowtable.json.
"$BUILD_DIR"/bench/bench_flowtable --quick
# Gates on the E19 acceptance (>= 1M live flows across >= 8 growable
# shards, asym >= 1.3x sym on p99 sojourn and flows/sec at the
# rare-update point, cross-shard wave >= 2x sequential rule push,
# >= 1 adaptive policy switch per shard); leaves BENCH_serve.json.
"$BUILD_DIR"/bench/bench_serve --quick

missing=0
for f in BENCH_arw.json BENCH_roundtrip.json BENCH_explorer.json \
         BENCH_sweep.json BENCH_adapt.json \
         BENCH_flowtable.json BENCH_serve.json; do
  if ! test -s "$f"; then
    echo "::error::gated artifact $f is missing or empty"
    missing=1
  elif ! python3 -m json.tool "$f" >/dev/null; then
    echo "::error::gated artifact $f is not valid JSON"
    missing=1
  fi
done
exit $missing
