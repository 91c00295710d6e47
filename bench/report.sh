#!/bin/sh
# Print every end-to-end and per-layer metric of every workload listed in
# BENCHMARK.json, by name and unit.  Usage, from the root of a checkout:
#     sh bench/report.sh [SEED]
# Each run lasts the run_seconds of BENCHMARK.json.
seed=${1:-1}
read_spec='import json; s = json.load(open("BENCHMARK.json"))'
workloads=$(python3 -c "$read_spec; print(' '.join(w['name'] for w in s['workloads']))") || exit 1
seconds=$(python3 -c "$read_spec; print(s['run_seconds'])") || exit 1
status=0
for workload in $workloads; do
    for trace in 0 1; do
        python3 bench/run.py --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace "$trace" || status=1
    done
done
exit $status
