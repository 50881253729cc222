#!/usr/bin/env bash
# Full verification gate for the HarDTAPE reproduction.
#
#   scripts/verify.sh [--soak] [--bench] [--recover] [--lint]
#
# Runs, in order:
#   1. release build of the whole workspace
#   2. the root-package test suite (the tier-1 gate; includes the
#      static-analyzer self-tests via the workspace run below)
#   3. the full workspace test suite
#   4. clippy over EVERY workspace crate with warnings denied and
#      `.unwrap()` forbidden. Any allow-listed exception must carry a
#      justifying comment at the allow site.
#   5. an `#![forbid(unsafe_code)]` assertion: every crate root must
#      carry the attribute, so no `unsafe` block can enter the TCB
#      without flipping a tracked line in review.
#   6. a repo-wide determinism lint: no host clocks
#      (`Instant::now`/`SystemTime::now`) or ambient entropy
#      (`rand::`/`getrandom`/`from_entropy`) anywhere outside the
#      crates/bench allowlist — replay digests assume virtual time and
#      seeded randomness.
#
#   7. a scratch-hygiene lint: disk-writing tests must route through
#      `tape_sim::Scratch` (per-seed dirs under target/scratch/,
#      removed on success, preserved and printed on failure) and never
#      touch /tmp or env::temp_dir.
#
# With --lint, stops after the static gates (4-7) — no build or
# test run. Useful as a fast pre-commit hook.
#
# With --recover, runs the disk-recovery chaos soak: one uninterrupted
# run of the disk-backed device, one run hard-killed (process abort —
# buffered segment writes die with it) right after a seeded bundle,
# then a recovery run over the killed directory that must finish the
# workload and print a completion digest byte-identical to the
# uninterrupted run's.
#
# With --soak, additionally replays the gateway chaos soak under three
# fixed seeds, running each seed in two separate processes and failing
# if the schedule digests differ — cross-process nondeterminism (hash
# ordering, ambient randomness) has nowhere to hide. The soak digest
# now covers the telemetry stream too, and each run asserts the §IV-D
# leakage auditor passes on the soak workload. The same discipline is
# applied to the seeded reorg schedule (REORG_DIGEST): a mid-run
# depth-3 reorg must shed/re-pin queued work exactly-once and replay
# byte-identically across processes. A third schedule arms the gas-bomb
# adversary against a gas-sliced gateway (PREEMPT_DIGEST): preempted
# bundles must resume, complete exactly-once, pass the §IV-D segment
# audit, and replay byte-identically across processes. A fourth
# schedule runs the fleet chaos soak (FLEET_DIGEST): ~10³ tenants
# rendezvous-sharded over 4 devices, seeded DeviceHang faults, a
# mid-soak crash of 1 of 4 devices with live migration, and a mid-soak
# reorg — every admitted bundle must resolve exactly-once, survivors
# must converge on one head, and the fleet-wide digest must replay
# byte-identically across processes. A fifth leg replays the two
# shared-state gateway rigs of tests/parallel.rs — a -full device
# (FULL_DIGEST) and an -ES device whose armed page-store fault budget
# drains mid-run (PAGESTORE_DIGEST), the rounds that execute on the
# shared clock instead of the pool — whose digests are checked in and
# must also agree across processes. Finally, one seed of the chaos,
# preemption, and fleet soaks, and the shared-state rigs, are replayed
# with a 2-thread worker pool (HARDTAPE_SOAK_WORKERS=2) and must
# reproduce the 1-worker digest byte-for-byte — parallelism is a host
# throughput knob, never a schedule input.
#
# With --bench, runs the deterministic pre-execution benchmark under
# its fixed baked-in seed, writing BENCH_pre_execute.json. The binary
# fails if the telemetry digest drifts between two in-process runs or
# the leakage auditor reports violations, and — when a committed
# BENCH_pre_execute.json exists — if a deterministic figure (ORAM
# queries per bundle, in memory or on disk, the honest short-bundle
# p99 in virtual time, the resolved-jump ratio) regresses more than
# 10% against it. The same run measures host wall-clock bundles/sec
# per worker count and per disk-backed ORAM query and writes them to
# the report, but guards neither: wall-clock on a shared VM moves more
# than 10% between runs of the same code, and `benchmark/ --compare`
# (paired, alternating, per-index minima) is the host-time gate. The
# cross-worker digest contract is asserted in-process; the
# >= 2x-at-4-workers bound is enforced only on hosts with at least 4
# cores. Three negative controls prove the
# auditor has teeth: --starve (prefetcher starvation, pre-fix pipeline),
# --omit-plan (a prefetch plan mis-advertising one page), and
# --omit-state-plan (a world-state plan mis-advertising one storage
# group) must each *fail* the audit. The fleet benchmark (BENCH_fleet.json) runs under
# the same discipline: latency vs device count, shard fairness,
# staleness, and the kill-one-device degradation curve, with the
# one-device-loss honest p99 bounded in-process (3x no-loss) and
# guarded against >10% regression when a committed baseline exists.
#
# Everything is hermetic: no network access is required.

set -euo pipefail
cd "$(dirname "$0")/.."

RUN_SOAK=0
RUN_BENCH=0
RUN_RECOVER=0
LINT_ONLY=0
for arg in "$@"; do
    case "$arg" in
        --soak) RUN_SOAK=1 ;;
        --bench) RUN_BENCH=1 ;;
        --recover) RUN_RECOVER=1 ;;
        --lint) LINT_ONLY=1 ;;
        *) echo "usage: scripts/verify.sh [--soak] [--bench] [--recover] [--lint]" >&2; exit 2 ;;
    esac
done

lint_gates() {
    echo "==> cargo clippy --workspace (deny warnings + unwrap_used, all crates)"
    cargo clippy --workspace -- -D warnings -D clippy::unwrap_used

    echo "==> forbid(unsafe_code) in every crate root"
    missing=0
    for root in src/lib.rs crates/*/src/lib.rs; do
        if ! grep -q '^#!\[forbid(unsafe_code)\]' "$root"; then
            echo "missing #![forbid(unsafe_code)]: $root" >&2
            missing=1
        fi
    done
    if [[ "$missing" -ne 0 ]]; then
        exit 1
    fi

    echo "==> determinism lint (no host clocks or entropy outside crates/bench)"
    # Replay determinism is load-bearing: every schedule digest in the
    # soaks and the telemetry digest in the audit assume virtual time
    # (the simulator Clock) and seeded randomness (the DRBG). Host
    # clocks and ambient entropy are allowed only in the benchmark
    # harness, which measures real wall-clock by design.
    if grep -rnE 'Instant::now|SystemTime::now|std::time::(Instant|SystemTime)|rand::|getrandom|from_entropy' \
        src crates/*/src tests examples 2>/dev/null \
        | grep -v '^crates/bench/'; then
        echo "determinism lint: host time/entropy outside the crates/bench allowlist" >&2
        exit 1
    fi

    echo "==> scratch hygiene (tests write files only under the seeded scratch root)"
    # Disk-writing tests must route through tape_sim::Scratch: a
    # per-seed directory under target/scratch/ that is removed on
    # success and preserved (with its path printed) on failure. A test
    # file that touches the filesystem without Scratch either leaks
    # droppings into the repo or hides its state when a seed fails.
    bad=0
    for f in $(grep -rlE 'std::fs::(write|create_dir|File)|File::create|OpenOptions' \
        tests crates/*/tests 2>/dev/null); do
        if ! grep -q 'Scratch' "$f"; then
            echo "scratch lint: $f writes to disk without tape_sim::Scratch" >&2
            bad=1
        fi
    done
    if grep -rnE 'env::temp_dir|"/tmp' tests crates/*/tests 2>/dev/null; then
        echo "scratch lint: tests must not write outside target/scratch/" >&2
        bad=1
    fi
    if [[ "$bad" -ne 0 ]]; then
        exit 1
    fi
}

if [[ "$LINT_ONLY" -eq 1 ]]; then
    lint_gates
    echo "==> verify --lint: static gates passed"
    exit 0
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (tier-1)"
cargo test -q

echo "==> cargo test --workspace -q"
cargo test --workspace -q

lint_gates

soak_digest() {
    # Prints the SOAK_DIGEST line for one fresh-process chaos run.
    # Optional second arg: worker-pool size (default 1).
    HARDTAPE_SOAK_SEED="$1" HARDTAPE_SOAK_WORKERS="${2:-1}" cargo test -q --test soak \
        chaos_soak_is_deterministic_and_exactly_once -- --nocapture \
        | grep -E '^SOAK_DIGEST '
}

reorg_digest() {
    # Prints the REORG_DIGEST line for one fresh-process reorg-schedule
    # run (depth-3 reorg mid-schedule, exactly-once asserted in-test).
    HARDTAPE_SOAK_SEED="$1" cargo test -q --test soak \
        seeded_reorg_schedule_is_deterministic_and_exactly_once -- --nocapture \
        | grep -E '^REORG_DIGEST '
}

preempt_digest() {
    # Prints the PREEMPT_DIGEST line for one fresh-process preemption
    # soak (gas-bomb adversary armed on a gas-sliced gateway;
    # exactly-once + segment audit asserted in-test).
    # Optional second arg: worker-pool size (default 1).
    HARDTAPE_SOAK_SEED="$1" HARDTAPE_SOAK_WORKERS="${2:-1}" cargo test -q --test soak \
        seeded_preemption_schedule_is_deterministic_and_exactly_once -- --nocapture \
        | grep -E '^PREEMPT_DIGEST '
}

fleet_digest() {
    # Prints the FLEET_DIGEST line for one fresh-process fleet chaos
    # soak (4 devices, mid-soak crash + migration + reorg;
    # exactly-once, head convergence, and the §IV-D audit asserted
    # in-test).
    # Optional second arg: worker-pool size (default 1).
    HARDTAPE_SOAK_SEED="$1" HARDTAPE_SOAK_WORKERS="${2:-1}" cargo test -q --test fleet \
        fleet_chaos_soak_is_deterministic_and_survives_device_loss -- --nocapture \
        | grep -E '^FLEET_DIGEST '
}

shared_state_digests() {
    # Prints the FULL_DIGEST and PAGESTORE_DIGEST lines (two baked-in
    # seeds each) for one fresh-process run of the shared-state rigs;
    # the test itself asserts them against the checked-in constants.
    # Optional arg: worker-pool size (default 1).
    HARDTAPE_SOAK_WORKERS="${1:-1}" cargo test -q --test parallel \
        shared_state_rigs_reproduce_their_checked_in_digests -- --nocapture \
        | grep -E '^(FULL|PAGESTORE)_DIGEST '
}

if [[ "$RUN_SOAK" -eq 1 ]]; then
    echo "==> gateway chaos soak (determinism across processes)"
    for seed in 1337 424242 12648430; do
        first="$(soak_digest "$seed")"
        second="$(soak_digest "$seed")"
        if [[ "$first" != "$second" ]]; then
            echo "soak: NONDETERMINISM at seed $seed" >&2
            echo "  run 1: $first" >&2
            echo "  run 2: $second" >&2
            exit 1
        fi
        echo "seed $seed: $first"
    done
    echo "==> reorg schedule soak (byte-identical digests across a depth-3 reorg)"
    for seed in 1337 424242 12648430; do
        first="$(reorg_digest "$seed")"
        second="$(reorg_digest "$seed")"
        if [[ "$first" != "$second" ]]; then
            echo "reorg soak: NONDETERMINISM at seed $seed" >&2
            echo "  run 1: $first" >&2
            echo "  run 2: $second" >&2
            exit 1
        fi
        echo "seed $seed: $first"
    done
    echo "==> preemption soak (gas-bomb adversary, byte-identical preempted schedules)"
    for seed in 1337 424242 12648430; do
        first="$(preempt_digest "$seed")"
        second="$(preempt_digest "$seed")"
        if [[ "$first" != "$second" ]]; then
            echo "preempt soak: NONDETERMINISM at seed $seed" >&2
            echo "  run 1: $first" >&2
            echo "  run 2: $second" >&2
            exit 1
        fi
        echo "seed $seed: $first"
    done
    echo "==> fleet chaos soak (device crash + migration, byte-identical fleet digests)"
    for seed in 1337 424242 12648430; do
        first="$(fleet_digest "$seed")"
        second="$(fleet_digest "$seed")"
        if [[ "$first" != "$second" ]]; then
            echo "fleet soak: NONDETERMINISM at seed $seed" >&2
            echo "  run 1: $first" >&2
            echo "  run 2: $second" >&2
            exit 1
        fi
        echo "seed $seed: $first"
    done
    echo "==> shared-state rigs (-full, armed page store: checked-in digests across processes)"
    first="$(shared_state_digests)"
    second="$(shared_state_digests)"
    if [[ "$first" != "$second" ]]; then
        echo "shared-state rigs: NONDETERMINISM" >&2
        echo "  run 1: $first" >&2
        echo "  run 2: $second" >&2
        exit 1
    fi
    echo "$first"
    echo "==> worker-pool invariance (2-worker digests must equal 1-worker, seed 1337)"
    # The pool contract: the worker count is a host throughput knob,
    # never a schedule input. One seed of each soak replayed at 2
    # workers must reproduce the 1-worker digest byte-for-byte.
    for kind in soak preempt fleet; do
        one="$("${kind}_digest" 1337 1)"
        two="$("${kind}_digest" 1337 2)"
        if [[ "$one" != "$two" ]]; then
            echo "$kind soak: WORKER-COUNT DEPENDENCE at seed 1337" >&2
            echo "  1 worker:  $one" >&2
            echo "  2 workers: $two" >&2
            exit 1
        fi
        echo "$kind seed 1337: 2-worker digest matches 1-worker"
    done
    two="$(shared_state_digests 2)"
    if [[ "$first" != "$two" ]]; then
        echo "shared-state rigs: WORKER-COUNT DEPENDENCE" >&2
        echo "  1 worker:  $first" >&2
        echo "  2 workers: $two" >&2
        exit 1
    fi
    echo "shared-state rigs: 2-worker digests match 1-worker"
fi

recover_soak() {
    # Runs the disk-recovery soak in one fresh process. Args: store
    # dir, then optional KILL_AT / SKIP env values ("" to leave unset).
    local dir="$1" kill_at="${2:-}" skip="${3:-}"
    local env_args=(HARDTAPE_STORE_DIR="$dir")
    [[ -n "$kill_at" ]] && env_args+=(HARDTAPE_KILL_AT="$kill_at")
    [[ -n "$skip" ]] && env_args+=(HARDTAPE_SKIP="$skip")
    env "${env_args[@]}" cargo test -q --test soak \
        disk_recovery_soak_completes_after_hard_kill -- --nocapture
}

if [[ "$RUN_RECOVER" -eq 1 ]]; then
    echo "==> disk recovery soak (hard kill mid-soak, byte-identical completion digest)"
    # An uninterrupted run and a killed-then-recovered run over the
    # disk-backed ORAM must converge on the same RECOVER_DIGEST line:
    # recovery is byte-exact, not merely "consistent". The kill is a
    # real process abort — buffered segment writes die with it.
    KILL_AT=5
    RECOVER_ROOT=target/scratch/verify-recover
    rm -rf "$RECOVER_ROOT"
    mkdir -p "$RECOVER_ROOT/uninterrupted" "$RECOVER_ROOT/killed"
    uninterrupted="$(recover_soak "$RECOVER_ROOT/uninterrupted" | grep -E '^RECOVER_DIGEST ')"
    # The kill run aborts the test process by design; only the marker
    # matters, not the harness exit code.
    killed_out="$(recover_soak "$RECOVER_ROOT/killed" "$KILL_AT" || true)"
    if ! grep -qE '^RECOVER_KILLED ' <<<"$killed_out"; then
        echo "recover soak: the kill run never reached its abort point" >&2
        exit 1
    fi
    recovered="$(recover_soak "$RECOVER_ROOT/killed" "" "$((KILL_AT + 1))" \
        | grep -E '^RECOVER_DIGEST ')"
    if [[ "$uninterrupted" != "$recovered" ]]; then
        echo "recover soak: DIGEST MISMATCH after hard kill at bundle $KILL_AT" >&2
        echo "  uninterrupted: $uninterrupted" >&2
        echo "  recovered:     $recovered" >&2
        exit 1
    fi
    rm -rf "$RECOVER_ROOT"
    echo "hard kill at bundle $KILL_AT: $recovered"
fi

if [[ "$RUN_BENCH" -eq 1 ]]; then
    echo "==> pre-execution benchmark (digest drift + leakage audit + regression guard)"
    # The committed report is the regression baseline: a fresh run may
    # not add more than 10% ORAM queries per bundle. The binary reads
    # the baseline before overwriting it.
    BASELINE_ARGS=()
    if git ls-files --error-unmatch BENCH_pre_execute.json >/dev/null 2>&1; then
        BASELINE_ARGS=(--baseline BENCH_pre_execute.json)
    fi
    cargo run -q --release -p tape-bench --bin bench_pre_execute -- \
        --out BENCH_pre_execute.json "${BASELINE_ARGS[@]}"
    echo "==> starvation ablation (the auditor must detect the leak)"
    cargo run -q --release -p tape-bench --bin bench_pre_execute -- \
        --starve --out target/BENCH_pre_execute.starve.json
    echo "==> plan-omission ablation (the auditor must detect the leak)"
    cargo run -q --release -p tape-bench --bin bench_pre_execute -- \
        --omit-plan --out target/BENCH_pre_execute.omit_plan.json
    echo "==> state-plan-omission ablation (the auditor must detect the leak)"
    cargo run -q --release -p tape-bench --bin bench_pre_execute -- \
        --omit-state-plan --out target/BENCH_pre_execute.omit_state_plan.json
    echo "==> fleet benchmark (scaling + degradation curve + regression guard)"
    FLEET_BASELINE_ARGS=()
    if git ls-files --error-unmatch BENCH_fleet.json >/dev/null 2>&1; then
        FLEET_BASELINE_ARGS=(--baseline BENCH_fleet.json)
    fi
    cargo run -q --release -p tape-bench --bin bench_fleet -- \
        --out BENCH_fleet.json "${FLEET_BASELINE_ARGS[@]}"
fi

echo "==> verify: all gates passed"
