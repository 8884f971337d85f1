#!/usr/bin/env bash
# Pin the requests one op sends, as the benchmark's traced smoke pass
# counts them ("the op issues N requests"), for the query workloads.
#
#   scripts/request_pins.sh
#
# Runs `crates/bench/src/bin/bda-bench/run.sh --smoke --trace 1 --workload W`
# once per pinned workload (about a second each once built), reads the
# count from its report and exits 1 unless every count equals its pin. It
# only reads the benchmark's output. A pin that moves is a change in how
# many round trips planning or execution makes: update it here together
# with the change that moves it.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

pins=(point_lookup=1 star_join=1 cross_engine=3 iterate_power=25)
status=0
for pin in "${pins[@]}"; do
    workload=${pin%=*} want=${pin#*=}
    report=$(bash crates/bench/src/bin/bda-bench/run.sh --smoke --trace 1 --workload "$workload")
    got=$(grep -o 'the op issues [0-9]* requests' <<<"$report" | grep -o '[0-9]*' || true)
    if [[ $got == "$want" ]]; then
        echo "$workload: $got requests per op"
    else
        echo "$workload: ${got:-no} requests per op, pinned at $want" >&2
        status=1
    fi
done
exit $status
