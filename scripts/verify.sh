#!/usr/bin/env bash
# Full verification gate for the HarDTAPE reproduction.
#
#   scripts/verify.sh [--soak] [--bench] [--recover] [--lint]
#
# Always: release build, the workspace test suite (tier-1 — the root
# manifest's default members are every crate; after touching
# crates/crypto/src/aes.rs the three that answer in seconds are
# `cargo test -p tape-crypto --test props`, `cargo test --test crypto_kat`
# and `cargo test -p tape-oram --test wire_pin`), then the static gates:
# clippy over every crate, warnings denied, `.unwrap()` forbidden (an
# allow-listed exception carries a justifying comment), then over every
# target (tests and examples too), warnings denied, `.unwrap()` allowed;
# `#![forbid(unsafe_code)]` in every crate root; the source gates of
# tests/gates.rs, which tier-1 runs too (each gate's rule, scan roots and
# allow-list are documented there); and the NONTEST_LINES count.
#
# --lint     only the static gates: clippy, the forbid check and
#            `cargo test -q --test gates`, then NONTEST_LINES; no release
#            build, no suite.
# --soak     every seeded schedule — gateway chaos (SOAK), depth-3 reorg
#            (REORG), gas-bomb preemption (PREEMPT), 4-device fleet with
#            a crash, migration and reorg (FLEET) — under three seeds,
#            each in two fresh processes whose digest lines must agree
#            (each schedule prints its log + telemetry digest and a
#            *_COMPLETIONS line: keccak over every completion's ticket,
#            completion time and outcome, so a change that moves only
#            the log half shows its deliveries unchanged);
#            the checked-in -full / armed-page-store rig digests
#            (FULL, PAGESTORE); then one seed of each pooled schedule
#            and the rigs again at 2 workers, which must reproduce the
#            1-worker digest: parallelism is a host throughput knob,
#            never a schedule input. Exactly-once accounting and the
#            §IV-D audit are asserted inside the tests. Then the
#            HEVM-vs-reference differential fuzz at length, in release:
#            20x tier-1's cases per property, then the same generators
#            on a tiny layer 2, with a small gas slice and with a gas
#            slice drawn per case from 1..=64. Then the static
#            analyzer's properties at length, in release: 20x tier-1's
#            cases for each property of crates/analysis/tests/prop.rs
#            and 20x tier-1's evaluation sets for the analyzer-vs-
#            interpreter check of differential.rs, one ANALYSIS_SOAK
#            line per property. Then the
#            secp256k1 differential soak, in release: 4 096 cases of
#            mul / sign -> verify (one-shot and off a prepared
#            VerifyingKey, on the honest and a moved signature) /
#            recover / ecdh against the double-and-add oracle in
#            crates/crypto/tests/props.rs.
#            Last, the sync-scale row: one ERC-20 transfer a block
#            against a token with 8 192 holders (tests/sync.rs, in
#            release) prints SYNC_SCALE and fails unless its ORAM
#            writes and virtual time a block equal the 8-holder cost.
# --recover  disk-recovery soak: one uninterrupted run, then for every
#            bundle index a run aborted (real process abort) right after
#            that bundle and a recovery run over the killed directory
#            that must print the uninterrupted run's RECOVER_DIGEST byte
#            for byte.
# --bench    `repro all` (every figure must print REPRODUCED), then the
#            two checked-in virtual-time reports are regenerated and must
#            not differ from git by a byte, then the three negative
#            controls, which exit 0 only when the audit FAILED the way
#            the removed protection predicts, then the paper-scale
#            (TAPE_EVAL_SCALE=full) pre-execute run, which must print
#            REPRODUCED with its whole event stream audited (minutes).
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
        *)
            echo "usage: scripts/verify.sh [--soak] [--bench] [--recover] [--lint]" >&2
            echo "  --lint: clippy, forbid(unsafe_code) and the source gates (tests/gates.rs) only" >&2
            exit 2 ;;
    esac
done

lint_gates() {
    echo "==> cargo clippy --workspace (deny warnings + unwrap_used, all crates)"
    cargo clippy --workspace -- -D warnings -D clippy::unwrap_used
    echo "==> cargo clippy --workspace --all-targets (deny warnings in test code too)"
    cargo clippy --workspace --all-targets -- -D warnings

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

    echo "==> source gates (tests/gates.rs)"
    cargo test -q --test gates

    # The program's size: every line above a file's first #[cfg(test)]
    # under crates/*/src and src/. The test_tail gate keeps test code at
    # the end of those files, so the sum is exact.
    find crates/*/src src -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { in_tests = 0 }
        /^[[:space:]]*#!?\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests { n++ }
        END { print "NONTEST_LINES " n }'
}

if [[ "$LINT_ONLY" -eq 1 ]]; then
    lint_gates
    echo "==> verify --lint: static gates passed"
    exit 0
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (tier-1: the whole workspace)"
cargo test -q

lint_gates

soak_digest() {
    # Prints the SOAK_DIGEST and SOAK_COMPLETIONS lines for one
    # fresh-process chaos run.
    # Optional second arg: worker-pool size (default 1).
    HARDTAPE_SOAK_SEED="$1" HARDTAPE_SOAK_WORKERS="${2:-1}" cargo test -q --test soak \
        chaos_soak_is_deterministic_and_exactly_once -- --nocapture \
        | grep -E '^SOAK_(DIGEST|COMPLETIONS) '
}

reorg_digest() {
    # Prints the REORG_DIGEST and REORG_COMPLETIONS lines for one
    # fresh-process reorg-schedule run (depth-3 reorg mid-schedule,
    # exactly-once asserted in-test).
    HARDTAPE_SOAK_SEED="$1" cargo test -q --test soak \
        seeded_reorg_schedule_is_deterministic_and_exactly_once -- --nocapture \
        | grep -E '^REORG_(DIGEST|COMPLETIONS) '
}

preempt_digest() {
    # Prints the PREEMPT_DIGEST and PREEMPT_COMPLETIONS lines for one
    # fresh-process preemption soak (gas-bomb adversary armed on a
    # gas-sliced gateway; exactly-once + segment audit asserted
    # in-test).
    # Optional second arg: worker-pool size (default 1).
    HARDTAPE_SOAK_SEED="$1" HARDTAPE_SOAK_WORKERS="${2:-1}" cargo test -q --test soak \
        seeded_preemption_schedule_is_deterministic_and_exactly_once -- --nocapture \
        | grep -E '^PREEMPT_(DIGEST|COMPLETIONS) '
}

fleet_digest() {
    # Prints the FLEET_DIGEST, FLEET_COMPLETIONS and FLEET_RERUN lines
    # for one fresh-process fleet chaos soak (4 devices, mid-soak crash +
    # migration + reorg; exactly-once, head convergence, the §IV-D
    # audit and the re-run paused work's receipts asserted in-test).
    # FLEET_RERUN counts the paused bundles re-run on survivors and the
    # segments the dead device had already run of them.
    # Optional second arg: worker-pool size (default 1).
    HARDTAPE_SOAK_SEED="$1" HARDTAPE_SOAK_WORKERS="${2:-1}" cargo test -q --test fleet \
        fleet_chaos_soak_is_deterministic_and_survives_device_loss -- --nocapture \
        | grep -E '^FLEET_(DIGEST|COMPLETIONS|RERUN) '
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

replays_identically() {
    # Args: label, digest function, then the arguments to try it with
    # (seeds; none = one argument-less run). Each is run in two fresh
    # processes whose digest lines must agree — cross-process
    # nondeterminism (hash ordering, ambient randomness) has nowhere to
    # hide.
    local label="$1" digest_fn="$2" first second
    shift 2
    for seed in "${@:-}"; do
        first="$("$digest_fn" $seed)"
        second="$("$digest_fn" $seed)"
        if [[ "$first" != "$second" ]]; then
            echo "$label: NONDETERMINISM${seed:+ at seed $seed}" >&2
            echo "  run 1: $first" >&2
            echo "  run 2: $second" >&2
            exit 1
        fi
        echo "${seed:+seed $seed: }$first"
    done
}

if [[ "$RUN_SOAK" -eq 1 ]]; then
    SEEDS=(1337 424242 12648430)
    echo "==> gateway chaos soak (determinism across processes)"
    replays_identically "soak" soak_digest "${SEEDS[@]}"
    echo "==> reorg schedule soak (byte-identical digests across a depth-3 reorg)"
    replays_identically "reorg soak" reorg_digest "${SEEDS[@]}"
    echo "==> preemption soak (gas-bomb adversary, byte-identical preempted schedules)"
    replays_identically "preempt soak" preempt_digest "${SEEDS[@]}"
    echo "==> fleet chaos soak (device crash + migration, byte-identical fleet digests)"
    replays_identically "fleet soak" fleet_digest "${SEEDS[@]}"
    echo "==> shared-state rigs (-full, armed page store: checked-in digests across processes)"
    replays_identically "shared-state rigs" shared_state_digests
    echo "==> worker-pool invariance (2-worker digests must equal 1-worker, seed 1337)"
    for kind in "soak_digest 1337" "preempt_digest 1337" "fleet_digest 1337" shared_state_digests; do
        one="$($kind 1)"
        two="$($kind 2)"
        if [[ "$one" != "$two" ]]; then
            echo "$kind: WORKER-COUNT DEPENDENCE" >&2
            echo "  1 worker:  $one" >&2
            echo "  2 workers: $two" >&2
            exit 1
        fi
        echo "$kind: 2-worker digest matches 1-worker"
    done
    echo "==> differential fuzz soak (release: 20x cases, tiny layer 2, small and drawn gas slices)"
    fuzz_soak="$(cargo test -q --release -p tape-hevm --test fuzz_differential -- --ignored --nocapture \
        | grep -E '^FUZZ_SOAK ')"
    echo "$fuzz_soak"
    for rig in default tiny_layer2 small_slice drawn_slice; do
        if [[ "$(grep -c "^FUZZ_SOAK $rig " <<< "$fuzz_soak")" -ne 9 ]]; then
            echo "fuzz soak: rig $rig did not run all nine properties" >&2
            exit 1
        fi
    done
    echo "==> analysis soak (release: 20x tier-1's cases per analyzer property)"
    analysis_soak="$( (cargo test -q --release -p tape-analysis --test prop -- --ignored --nocapture
        cargo test -q --release -p tape-analysis --test differential -- --ignored --nocapture) \
        | grep -E '^ANALYSIS_SOAK ')"
    echo "$analysis_soak"
    for property in "prop straight_line_stack_bound" "prop structured_forward_jumps" \
        "prop byte_soup_totality" "prop value_set_lattice" "differential workload_claims"; do
        if ! grep -q "^ANALYSIS_SOAK $property: " <<< "$analysis_soak"; then
            echo "analysis soak: property '$property' did not run" >&2
            exit 1
        fi
    done
    echo "==> ECDSA differential soak (release: the one ladder — comb, two- and four-piece GLV — and gcd inverse against double-and-add)"
    cargo test -q --release -p tape-crypto --test props -- --ignored --nocapture \
        | grep -E '^ECDSA_SOAK '
    echo "==> sync scale (release: writes and virtual time a block at 8 192 holders equal 8 holders')"
    cargo test -q --release --test sync -- --ignored --nocapture \
        | grep -E '^SYNC_SCALE '
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
    echo "==> disk recovery soak (hard kill after every bundle, byte-identical completion digest)"
    # An uninterrupted run and every killed-then-recovered run over the
    # disk-backed ORAM must converge on the same RECOVER_DIGEST line:
    # recovery is byte-exact, not merely "consistent". The kill is a
    # real process abort — whatever the store had only buffered dies
    # with it.
    BUNDLES="${HARDTAPE_SOAK_BUNDLES:-12}"
    RECOVER_ROOT=target/scratch/verify-recover
    rm -rf "$RECOVER_ROOT"
    mkdir -p "$RECOVER_ROOT/uninterrupted"
    uninterrupted="$(recover_soak "$RECOVER_ROOT/uninterrupted" | grep -E '^RECOVER_DIGEST ')"
    for ((KILL_AT = 0; KILL_AT < BUNDLES; KILL_AT++)); do
        mkdir -p "$RECOVER_ROOT/killed-$KILL_AT"
        # The kill run aborts the test process by design; only the marker
        # matters, not the harness exit code.
        killed_out="$(recover_soak "$RECOVER_ROOT/killed-$KILL_AT" "$KILL_AT" || true)"
        if ! grep -qE '^RECOVER_KILLED ' <<<"$killed_out"; then
            echo "recover soak: the kill run never reached its abort point (bundle $KILL_AT)" >&2
            exit 1
        fi
        recovered="$(recover_soak "$RECOVER_ROOT/killed-$KILL_AT" "" "$((KILL_AT + 1))" \
            | grep -E '^RECOVER_DIGEST ')"
        if [[ "$uninterrupted" != "$recovered" ]]; then
            echo "recover soak: DIGEST MISMATCH after hard kill at bundle $KILL_AT" >&2
            echo "  uninterrupted: $uninterrupted" >&2
            echo "  recovered:     $recovered" >&2
            exit 1
        fi
        echo "hard kill at bundle $KILL_AT: $recovered"
    done
    rm -rf "$RECOVER_ROOT"
fi

if [[ "$RUN_BENCH" -eq 1 ]]; then
    repro() { cargo run -q --release -p tape-bench --bin repro -- "$@"; }
    echo "==> repro all (every figure must print REPRODUCED)"
    repro all
    echo "==> checked-in reports (virtual time only: regenerated files must equal git's)"
    repro pre-execute --out BENCH_pre_execute.json
    repro fleet --out BENCH_fleet.json
    if ! git diff --exit-code -- BENCH_pre_execute.json BENCH_fleet.json; then
        echo "bench: a checked-in report no longer reproduces — if the virtual-time" >&2
        echo "change is intended, re-record the file in its own commit" >&2
        exit 1
    fi
    for ablation in starve omit-plan omit-state-plan; do
        echo "==> negative control: --ablation $ablation (the auditor must detect the leak)"
        repro pre-execute --ablation "$ablation" --out "target/BENCH_pre_execute.$ablation.json"
    done
    echo "==> paper-scale pre-execute (TAPE_EVAL_SCALE=full: the audit must judge the whole run)"
    TAPE_EVAL_SCALE=full repro pre-execute --out target/BENCH_pre_execute.full.json
fi

echo "==> verify: all gates passed"
