#!/usr/bin/env bash
# Builds the benchmark and the alphonsec CLI from this checkout's
# sources, then runs one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# The last line of standard output is the run's JSON result. Build
# output goes to standard error.
set -u
cd "$(dirname "$0")/.." || exit 2
if [ ! -f dune-project ] || [ ! -d lib/alphonse ] || [ ! -d bin ]; then
  echo "perfbench: no Alphonse sources here (dune-project, lib/, bin/); run from a full checkout" >&2
  exit 2
fi
# The shared dune cache lives outside the checkout; the build stays inside.
DUNE_CACHE=disabled dune build --root . --profile release \
  perfbench/bench.exe bin/alphonsec.exe >&2 || exit 3
# Two settings of the benchmark's own processes, inherited by the daemon
# it starts, keep run-to-run spread down:
# - one CPU: on a virtual machine, waking a process on another vCPU costs
#   an inter-processor interrupt whose latency varies with the host's
#   load, and it made the daemon's round trips the noisiest figure;
# - no address-space randomization: each process otherwise gets its own
#   memory layout, and with it its own cache behaviour; over ten daemon
#   runs it took ops_per_s from a spread of 0.19 to 0.08.
pin=()
if command -v taskset >/dev/null 2>&1; then pin=(taskset -c 0); fi
if command -v setarch >/dev/null 2>&1; then pin=(setarch "$(uname -m)" -R "${pin[@]}"); fi
exec "${pin[@]}" ./_build/default/perfbench/bench.exe --alphonsec ./_build/default/bin/alphonsec.exe "$@"
