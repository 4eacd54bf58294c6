#!/usr/bin/env bash
# Litmus-test and fence-inference gates. Positive and negative controls
# for the textual checker, then fence inference end-to-end on the holey
# protocols, then hard checks on the gated INFER_* reports: run counts,
# optimum costs, and the exact inferred placements. A run-count
# regression (the engine needing more explorer checks than the gate
# allows) fails loudly here rather than drifting silently.
#
# Usage: scripts/ci/run_litmus_gates.sh [build-dir]
# Run from the repository root (litmus paths are repo-relative); artifacts
# (INFER_*.json reports and the POLICY_*.json policy table) land in the
# current working directory.
set -euo pipefail

BUILD_DIR="${1:-build}"
LITMUS=examples/litmus

for tool in litmus_runner fence_inferencer work_stealing; do
  if [ ! -x "$BUILD_DIR/examples/$tool" ]; then
    echo "error: $BUILD_DIR/examples/$tool not built" >&2
    exit 2
  fi
done

# Require an exact substring in a gated report; print the report on miss so
# the failure is diagnosable straight from the CI log.
expect_in() {
  local file="$1" pattern="$2"
  if ! grep -qF -- "$pattern" "$file"; then
    echo "::error::$file: expected \`$pattern\`"
    echo "--- $file ---"
    cat "$file"
    return 1
  fi
}

# Explorer-run-count gate: candidates_verified in [1, max]. More runs than
# the gate means the symmetry/clause machinery regressed.
expect_runs_at_most() {
  local file="$1" max="$2"
  local runs
  runs=$(sed -n 's/.*"candidates_verified": \([0-9]*\),.*/\1/p' "$file")
  if [ -z "$runs" ] || [ "$runs" -lt 1 ] || [ "$runs" -gt "$max" ]; then
    echo "::error::$file: candidates_verified='$runs', gate allows 1..$max"
    cat "$file"
    return 1
  fi
  echo "$file: $runs explorer run(s) (gate: <= $max)"
}

# Controls: the fence-free Dekker must violate (--expect-violation turns
# that into exit 0), the paper's Fig. 3(a) must be safe.
"$BUILD_DIR"/examples/litmus_runner --expect-violation "$LITMUS"/broken_dekker.lit
"$BUILD_DIR"/examples/litmus_runner "$LITMUS"/asymmetric_dekker.lit

# THE-deque handshake: the concrete paper placement is safe; the
# all-holes-open (fence-free) variants — one thief and two competing
# thieves — both exhibit the lost/duplicated last-task schedule. The
# two-thief, Chase-Lev, and rwlock protocols declare `symmetric` groups;
# --no-symmetry re-runs one of them as the exact-search control.
"$BUILD_DIR"/examples/litmus_runner "$LITMUS"/the_deque.lit
"$BUILD_DIR"/examples/litmus_runner --expect-violation "$LITMUS"/the_deque_holes.lit
"$BUILD_DIR"/examples/litmus_runner --expect-violation "$LITMUS"/the_deque_two_thieves.lit
"$BUILD_DIR"/examples/litmus_runner --expect-violation --no-symmetry "$LITMUS"/the_deque_two_thieves.lit

# Chase-Lev double-take and the biased rwlock: both fence-free versions
# must exhibit their races (the owner/reader announce left buffered).
"$BUILD_DIR"/examples/litmus_runner --expect-violation "$LITMUS"/chase_lev.lit
"$BUILD_DIR"/examples/litmus_runner --expect-violation "$LITMUS"/biased_rwlock.lit

# The mutex zoo: every fence-free (holey) member must exhibit its race,
# every checked-in repaired variant must be exhaustively safe.
"$BUILD_DIR"/examples/litmus_runner --expect-violation "$LITMUS"/bakery_holes.lit
"$BUILD_DIR"/examples/litmus_runner --expect-violation "$LITMUS"/spinlock_holes.lit
"$BUILD_DIR"/examples/litmus_runner --expect-violation "$LITMUS"/futex_holes.lit
"$BUILD_DIR"/examples/litmus_runner "$LITMUS"/bakery.lit
"$BUILD_DIR"/examples/litmus_runner "$LITMUS"/spinlock.lit
"$BUILD_DIR"/examples/litmus_runner "$LITMUS"/futex_mutex.lit

# Fence inference end-to-end: every holey protocol must solve to a
# placement that passes the full-explorer recheck (exit 0).
"$BUILD_DIR"/examples/fence_inferencer --json=INFER_dekker.json "$LITMUS"/dekker_holes.lit
"$BUILD_DIR"/examples/fence_inferencer --json=INFER_deque.json "$LITMUS"/the_deque_holes.lit
"$BUILD_DIR"/examples/fence_inferencer --json=INFER_deque2.json "$LITMUS"/the_deque_two_thieves.lit
"$BUILD_DIR"/examples/fence_inferencer --json=INFER_chase_lev.json "$LITMUS"/chase_lev.lit
"$BUILD_DIR"/examples/fence_inferencer --json=INFER_rwlock.json "$LITMUS"/biased_rwlock.lit
"$BUILD_DIR"/examples/fence_inferencer --json=INFER_futex.json "$LITMUS"/futex_holes.lit
"$BUILD_DIR"/examples/fence_inferencer --json=INFER_spinlock.json "$LITMUS"/spinlock_holes.lit
"$BUILD_DIR"/examples/fence_inferencer --json=INFER_bakery.json "$LITMUS"/bakery_holes.lit

# Determinism across processes: a second solve must reproduce the report
# byte for byte.
"$BUILD_DIR"/examples/fence_inferencer --json=INFER_deque2_rerun.json \
    "$LITMUS"/the_deque_two_thieves.lit
cmp INFER_deque2.json INFER_deque2_rerun.json
rm -f INFER_deque2_rerun.json

# Two-thief gate, tightened by symmetry: the pre-symmetry engine needed 12
# explorer runs for this lattice; the gate is <= 4 with the exact
# cost-3520 asymmetric placement.
expect_runs_at_most INFER_deque2.json 4
expect_in INFER_deque2.json '"best_cost": 3520,'
expect_in INFER_deque2.json '"recheck_safe": true,'
expect_in INFER_deque2.json '{"site": "cpu0@0[T]=0", "line": 39, "fence": "l-mfence"}'
expect_in INFER_deque2.json '{"site": "cpu1@3[H]=1", "line": 60, "fence": "mfence"}'
expect_in INFER_deque2.json '{"site": "cpu2@3[H]=1", "line": 77, "fence": "mfence"}'

# Chase-Lev: the CGO'13 repair — one l-mfence on the owner's bottom
# publish, nothing on the thieves (their CAS is a locked RMW).
expect_runs_at_most INFER_chase_lev.json 4
expect_in INFER_chase_lev.json '"best_cost": 3320,'
expect_in INFER_chase_lev.json '"recheck_safe": true,'
expect_in INFER_chase_lev.json '{"site": "cpu0@0[B]=1", "line": 36, "fence": "l-mfence"}'
expect_in INFER_chase_lev.json '{"site": "cpu1@8[S]=2", "line": 65, "fence": "none"}'
expect_in INFER_chase_lev.json '{"site": "cpu2@8[S]=2", "line": 89, "fence": "none"}'

# Biased rwlock: the asymmetric Dekker placement per reader/writer pair —
# l-mfence on the hot reader announce, mfence on each writer announce.
expect_runs_at_most INFER_rwlock.json 4
expect_in INFER_rwlock.json '"best_cost": 3520,'
expect_in INFER_rwlock.json '"recheck_safe": true,'
expect_in INFER_rwlock.json '{"site": "cpu0@0[R]=1", "line": 31, "fence": "l-mfence"}'
expect_in INFER_rwlock.json '{"site": "cpu1@1[I]=1", "line": 43, "fence": "mfence"}'
expect_in INFER_rwlock.json '{"site": "cpu2@1[I]=1", "line": 59, "fence": "mfence"}'

# Futex lost-wakeup: the repair the kernel literature hand-fences with a
# full barrier on both sides comes out asymmetric — l-mfence on the hot
# unlock release, mfence only on the waiter registration.
expect_runs_at_most INFER_futex.json 8
expect_in INFER_futex.json '"best_cost": 3260,'
expect_in INFER_futex.json '"recheck_safe": true,'
expect_in INFER_futex.json '{"site": "cpu0@0[M]=0", "line": 24, "fence": "l-mfence"}'
expect_in INFER_futex.json '{"site": "cpu1@0[W]=1", "line": 33, "fence": "mfence"}'

# Owner-biased spinlock: the asymmetric Dekker placement on the barge.
expect_runs_at_most INFER_spinlock.json 4
expect_in INFER_spinlock.json '"best_cost": 3520,'
expect_in INFER_spinlock.json '"recheck_safe": true,'
expect_in INFER_spinlock.json '{"site": "cpu0@0[O]=1", "line": 20, "fence": "l-mfence"}'
expect_in INFER_spinlock.json '{"site": "cpu1@1[C]=1", "line": 32, "fence": "mfence"}'
expect_in INFER_spinlock.json '{"site": "cpu2@1[C]=1", "line": 45, "fence": "mfence"}'

# Bakery, 3^9 lattice: the optimum is asymmetric across roles AND branch
# paths — the hot ticket-1 publish and the contenders' ticket-2 publish
# need no fence at all (ties lose to id 0 / ticket 2 never strictly wins).
expect_runs_at_most INFER_bakery.json 24
expect_in INFER_bakery.json '"best_cost": 7360,'
expect_in INFER_bakery.json '"recheck_safe": true,'
expect_in INFER_bakery.json '{"site": "cpu0@0[C0]=1", "line": 41, "fence": "l-mfence"}'
expect_in INFER_bakery.json '{"site": "cpu0@4[N0]=2", "line": 45, "fence": "l-mfence"}'
expect_in INFER_bakery.json '{"site": "cpu0@7[N0]=1", "line": 49, "fence": "none"}'
expect_in INFER_bakery.json '{"site": "cpu1@1[C1]=1", "line": 69, "fence": "mfence"}'
expect_in INFER_bakery.json '{"site": "cpu1@5[N1]=2", "line": 73, "fence": "none"}'
expect_in INFER_bakery.json '{"site": "cpu1@8[N1]=1", "line": 77, "fence": "mfence"}'
expect_in INFER_bakery.json '{"site": "cpu2@1[C1]=1", "line": 98, "fence": "mfence"}'
expect_in INFER_bakery.json '{"site": "cpu2@5[N1]=2", "line": 102, "fence": "none"}'
expect_in INFER_bakery.json '{"site": "cpu2@8[N1]=1", "line": 106, "fence": "mfence"}'

# Policy-table round trip: the THE-deque sweep, with both backend planes,
# exported as the runtime policy table must load where the runtime reads
# it (work_stealing --policy exits 1 on a table it cannot parse).
"$BUILD_DIR"/examples/fence_inferencer --sweep \
    --backends=signal,membarrier-pair --policy-json=POLICY_the_deque.json \
    "$LITMUS"/the_deque_holes.lit
expect_in POLICY_the_deque.json '"backends":["signal","membarrier-pair"]'
expect_in POLICY_the_deque.json '"modes":["double-lmfence","asymmetric","asymmetric",'
expect_in POLICY_the_deque.json '"plane:signal":["asymmetric","asymmetric","asymmetric",'
expect_in POLICY_the_deque.json '"plane:membarrier-pair":["double-lmfence","asymmetric",'
"$BUILD_DIR"/examples/work_stealing 2 fib --policy=POLICY_the_deque.json

missing=0
for f in INFER_dekker.json INFER_deque.json INFER_deque2.json \
         INFER_chase_lev.json INFER_rwlock.json \
         INFER_futex.json INFER_spinlock.json INFER_bakery.json \
         POLICY_the_deque.json; do
  if ! test -s "$f"; then
    echo "::error::gated artifact $f is missing or empty"
    missing=1
  elif [[ "$f" == *.json ]] && ! python3 -m json.tool "$f" >/dev/null; then
    echo "::error::gated artifact $f is not valid JSON"
    missing=1
  fi
done
exit $missing
