#!/usr/bin/env bash
# Run every workload untraced, then traced, and print every metric by
# name and unit. Run from the repository root:
#
#   bash sweepbench/all.sh [seed] [seconds]
set -euo pipefail
seed=${1:-1}
seconds=${2:-10}
for trace in 0 1; do
  for workload in sweep_shared_world sweep_worlds_process fleet_routing; do
    cargo run --release --offline --quiet --manifest-path sweepbench/Cargo.toml -- \
      --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
  done
done
