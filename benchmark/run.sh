#!/usr/bin/env bash
# Collects one set of end-to-end runs for `--compare`: every workload on
# each of SEEDS consecutive seeds, strictly one run after the other (two
# runs at once would disturb each other's host time), appended to OUT as
# one JSON record a line.
#
#   benchmark/run.sh OUT [FIRST_SEED [SEEDS [SECONDS]]]
#   cargo run --release --manifest-path benchmark/Cargo.toml -- --compare A B
set -euo pipefail
out=${1:?usage: benchmark/run.sh OUT [FIRST_SEED [SEEDS [SECONDS]]]}
first=${2:-1}
seeds=${3:-10}
seconds=${4:-20}
cd "$(dirname "$0")/.."
for ((seed = first; seed < first + seeds; seed++)); do
  for workload in mainnet_full_gw compute_es transfers_es_gw sync_disk_full; do
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
      --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 --out "$out" >/dev/null
  done
done
