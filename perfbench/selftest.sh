#!/usr/bin/env bash
# Shows that the benchmark's checks can fail: runs every workload once
# with --self-test, which makes one expected value deliberately wrong,
# and requires each run to report exactly that one failed operation.
#
#   bash perfbench/selftest.sh
#
# Exits 0 when every workload caught its corrupted value, 1 otherwise.
set -u
cd "$(dirname "$0")/.." || exit 2
status=0
for w in avl-churn sheet-recalc daemon-durable; do
  line=$(bash perfbench/run.sh --workload "$w" --seed 1 --seconds 2 --trace 0 --self-test 2>/dev/null | tail -n 1)
  failed=$(printf '%s' "$line" | python3 -c 'import json, sys; print(json.load(sys.stdin)["failed"])' 2>/dev/null)
  if [ "$failed" = "1" ]; then
    echo "selftest $w: ok (the corrupted value was reported as 1 failed operation)"
  else
    echo "selftest $w: FAILED (failed operations: ${failed:-no result})"
    status=1
  fi
done
exit $status
