#!/usr/bin/env bash
# Litmus-extraction gates. For every annotated runtime protocol the
# lbmf_extract CLI regenerates the litmus text from the LBMF_* annotations,
# drift-diffs it against the committed hand-written file, then runs fence
# inference over the *generated* text and pins the source-mapped reports:
# the THE-deque must recover the paper's Sec. 6 placement
# ({l-mfence, none, mfence, none} at cost 3260) with every hole mapped back
# to a deque.hpp source line. Finally an nm sweep proves the annotation
# layer compiles away from production binaries.
#
# Usage: scripts/ci/run_extract_gates.sh [build-dir]
# Run from the repository root (litmus paths are repo-relative); artifacts
# (EXTRACT_*.lit generated litmus, EXTRACT_INFER_*.json source-mapped
# reports) land in the current working directory.
set -euo pipefail

BUILD_DIR="${1:-build}"
EXTRACT="$BUILD_DIR/examples/lbmf_extract"
LITMUS=examples/litmus

if [ ! -x "$EXTRACT" ]; then
  echo "error: $EXTRACT not built" >&2
  exit 2
fi

# Require an exact substring in a gated report; print the report on miss so
# the failure is diagnosable straight from the CI log. Placement pins grep
# the line-number-free `"site" ... "fence"` pairs and the `"source":` path
# *prefixes* — header line numbers shift on unrelated edits, the mapping
# itself must not.
expect_in() {
  local file="$1" pattern="$2"
  if ! grep -qF -- "$pattern" "$file"; then
    echo "::error::$file: expected \`$pattern\`"
    echo "--- $file ---"
    cat "$file"
    return 1
  fi
}

# -------------------------------------------------------------- drift gates
# Regenerate each protocol's litmus from its annotations and require the
# semantic diff against the committed file to be clean. The CLI exits 1 and
# prints the per-instruction diff on drift.
"$EXTRACT" the-deque     --emit=EXTRACT_the_deque.lit \
    --check="$LITMUS"/the_deque_holes.lit
"$EXTRACT" chase-lev     --emit=EXTRACT_chase_lev.lit \
    --check="$LITMUS"/chase_lev.lit
"$EXTRACT" biased-rwlock --emit=EXTRACT_biased_rwlock.lit \
    --check="$LITMUS"/biased_rwlock.lit
"$EXTRACT" bakery        --emit=EXTRACT_bakery.lit \
    --check="$LITMUS"/bakery_holes.lit

# ---------------------------------------------------------- inference gates
# Fence inference end-to-end over the GENERATED litmus text.
"$EXTRACT" the-deque --infer --json=EXTRACT_INFER_the_deque.json
"$EXTRACT" chase-lev --infer --json=EXTRACT_INFER_chase_lev.json
"$EXTRACT" biased-rwlock --infer --json=EXTRACT_INFER_biased_rwlock.json
"$EXTRACT" bakery --infer --json=EXTRACT_INFER_bakery.json

# THE-deque: the paper's placement, recovered from annotations alone, with
# every hole mapped back to its announce/claim site in ws/deque.hpp.
expect_in EXTRACT_INFER_the_deque.json '"best_cost": 3260,'
expect_in EXTRACT_INFER_the_deque.json '"recheck_safe": true,'
expect_in EXTRACT_INFER_the_deque.json '{"site": "cpu0@0[T]=0", "fence": "l-mfence"'
expect_in EXTRACT_INFER_the_deque.json '{"site": "cpu0@3[T]=1", "fence": "none"'
expect_in EXTRACT_INFER_the_deque.json '{"site": "cpu1@1[H]=1", "fence": "mfence"'
expect_in EXTRACT_INFER_the_deque.json '{"site": "cpu1@7[H]=0", "fence": "none"'
expect_in EXTRACT_INFER_the_deque.json '"fence": "l-mfence", "source": "lbmf/ws/deque.hpp:'
expect_in EXTRACT_INFER_the_deque.json '"fence": "mfence", "source": "lbmf/ws/deque.hpp:'

# Chase-Lev: one l-mfence on the owner's bottom publish, nothing on the
# thieves, all five holes source-mapped into ws/chase_lev.hpp.
expect_in EXTRACT_INFER_chase_lev.json '"best_cost": 3320,'
expect_in EXTRACT_INFER_chase_lev.json '"recheck_safe": true,'
expect_in EXTRACT_INFER_chase_lev.json '{"site": "cpu0@0[B]=1", "fence": "l-mfence"'
expect_in EXTRACT_INFER_chase_lev.json '{"site": "cpu1@8[S]=2", "fence": "none"'
expect_in EXTRACT_INFER_chase_lev.json '{"site": "cpu2@8[S]=2", "fence": "none"'
expect_in EXTRACT_INFER_chase_lev.json '"fence": "l-mfence", "source": "lbmf/ws/chase_lev.hpp:'

# Biased rwlock: asymmetric Dekker per reader/writer pair — l-mfence on the
# hot reader announce, mfence on each writer announce.
expect_in EXTRACT_INFER_biased_rwlock.json '"best_cost": 3520,'
expect_in EXTRACT_INFER_biased_rwlock.json '"recheck_safe": true,'
expect_in EXTRACT_INFER_biased_rwlock.json '{"site": "cpu0@0[R]=1", "fence": "l-mfence"'
expect_in EXTRACT_INFER_biased_rwlock.json '{"site": "cpu1@1[I]=1", "fence": "mfence"'
expect_in EXTRACT_INFER_biased_rwlock.json '{"site": "cpu2@1[I]=1", "fence": "mfence"'
expect_in EXTRACT_INFER_biased_rwlock.json '"fence": "l-mfence", "source": "lbmf/rwlock/rwlock.hpp:'

# Bakery (recorded via the LBMF_ROLES role-count parameter): the
# per-branch-path asymmetric optimum — hot ticket-1 and contender
# ticket-2 publishes need no fence — with all nine holes source-mapped
# into zoo/bakery.hpp.
expect_in EXTRACT_INFER_bakery.json '"best_cost": 7360,'
expect_in EXTRACT_INFER_bakery.json '"recheck_safe": true,'
expect_in EXTRACT_INFER_bakery.json '{"site": "cpu0@0[C0]=1", "fence": "l-mfence"'
expect_in EXTRACT_INFER_bakery.json '{"site": "cpu0@4[N0]=2", "fence": "l-mfence"'
expect_in EXTRACT_INFER_bakery.json '{"site": "cpu0@7[N0]=1", "fence": "none"'
expect_in EXTRACT_INFER_bakery.json '{"site": "cpu1@1[C1]=1", "fence": "mfence"'
expect_in EXTRACT_INFER_bakery.json '{"site": "cpu1@5[N1]=2", "fence": "none"'
expect_in EXTRACT_INFER_bakery.json '{"site": "cpu1@8[N1]=1", "fence": "mfence"'
expect_in EXTRACT_INFER_bakery.json '"fence": "l-mfence", "source": "lbmf/zoo/bakery.hpp:'
expect_in EXTRACT_INFER_bakery.json '"fence": "mfence", "source": "lbmf/zoo/bakery.hpp:'

# ---------------------------------------------------------- compile-away gate
# Only the extraction targets (built with -DLBMF_EXTRACT=1) may contain the
# recording functions; a production binary that links the same runtime
# headers must not — the annotations are supposed to vanish.
# (grep without -q: under pipefail, -q quitting early would SIGPIPE nm and
# fail the pipeline even on a match.)
if ! nm -C "$EXTRACT" | grep 'record_.*_protocol' >/dev/null; then
  echo "::error::$EXTRACT: expected record_*_protocol symbols (extraction build)"
  exit 1
fi
if nm -C "$BUILD_DIR/examples/fence_inferencer" | grep 'record_.*_protocol'; then
  echo "::error::fence_inferencer: annotation symbols leaked into a production binary"
  exit 1
fi
echo "compile-away gate: recording symbols present only in lbmf_extract"

missing=0
for f in EXTRACT_the_deque.lit EXTRACT_chase_lev.lit \
         EXTRACT_biased_rwlock.lit EXTRACT_bakery.lit \
         EXTRACT_INFER_the_deque.json EXTRACT_INFER_chase_lev.json \
         EXTRACT_INFER_biased_rwlock.json EXTRACT_INFER_bakery.json; do
  if ! test -s "$f"; then
    echo "::error::gated artifact $f is missing or empty"
    missing=1
  elif [[ "$f" == *.json ]] && ! python3 -m json.tool "$f" >/dev/null; then
    echo "::error::gated artifact $f is not valid JSON"
    missing=1
  fi
done
exit $missing
