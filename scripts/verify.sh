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
#   - clippy over every crate, warnings denied, `.unwrap()` forbidden
#     (an allow-listed exception carries a justifying comment);
#   - `#![forbid(unsafe_code)]` in every crate root;
#   - determinism lint: no host clock and no ambient entropy anywhere in
#     the workspace — replay digests assume virtual time and seeded
#     randomness, and host time is measured from outside by benchmark/;
#   - thread lint: `thread::spawn`, `thread::scope` and `thread::Builder`
#     appear under crates/*/src and src/ only in crates/core/src/pool.rs
#     (the gateway's workers), crates/oram/src/path_oram.rs (the ORAM
#     client's crypto lane) and crates/oram/src/store/disk.rs (the disk
#     store's recovery helper) — each computes a pure function of its
#     inputs, and a host thread anywhere else could make a digest depend
#     on scheduling;
#   - path shape lint: no `Vec<Vec<u8>>` in crates/oram/src outside the
#     test modules — a path, a bucket and a staged write are flat slices
#     of fixed-length slots;
#   - options lint: every `pub` field of a `pub struct …Config` under
#     crates/*/src is assigned, by name, in some .rs file other than the
#     one that defines it — a field only its own `Default` sets is a
#     constant wearing a config's clothes;
#   - seam lint: the execute half of crates/core/src/service/segment.rs
#     (what a pool worker runs) names neither `HarDTape` nor
#     `UserHandle`, and crates/core/src carries no `too_many_arguments`
#     or `type_complexity` waiver;
#   - unwired-fn lint: every `pub` / `pub(crate)` fn under crates/*/src
#     is named somewhere other than its own tests — a public function
#     only its unit tests call is a second path beside the live one;
#   - error-variant lint: every variant of a `pub enum …Error` under
#     crates/*/src is named by non-test code somewhere other than its
#     declaration and its enum's own `impl Display` — an error nothing
#     raises is a case every caller matches and no test can reach;
#   - audit-path lint: `audit_events` (the audit of a recorded slice) is
#     named only in crates/sim/src/telemetry/audit.rs and benchmark/src;
#     everything else reads the live audit, `Telemetry::audit()`;
#   - scratch hygiene: disk-writing tests go through `tape_sim::Scratch`
#     (per-seed dirs under target/scratch/, kept and printed on failure).
#
# --lint     only the static gates; no build, no tests.
# --soak     every seeded schedule — gateway chaos (SOAK), depth-3 reorg
#            (REORG), gas-bomb preemption (PREEMPT), 4-device fleet with
#            a crash, migration and reorg (FLEET) — under three seeds,
#            each in two fresh processes whose digest lines must agree;
#            the checked-in -full / armed-page-store rig digests
#            (FULL, PAGESTORE); then one seed of each pooled schedule
#            and the rigs again at 2 workers, which must reproduce the
#            1-worker digest: parallelism is a host throughput knob,
#            never a schedule input. Exactly-once accounting and the
#            §IV-D audit are asserted inside the tests. Then the
#            HEVM-vs-reference differential fuzz at length, in release:
#            20x tier-1's cases per property, then the same generators
#            on a tiny layer 2, with a small gas slice and with a gas
#            slice drawn per case from 1..=64. Last, the
#            secp256k1 differential soak, in release: 4 096 cases of
#            mul / sign -> verify / recover / ecdh against the
#            double-and-add oracle in crates/crypto/tests/props.rs.
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

    echo "==> determinism lint (no host clocks or ambient entropy in the workspace)"
    # Replay determinism is load-bearing: every schedule digest in the
    # soaks, the telemetry digest in the audit and both checked-in
    # reports assume virtual time (the simulator Clock) and seeded
    # randomness (the DRBG).
    if grep -rnE 'Instant::now|SystemTime|std::time::Instant|rand::|getrandom|from_entropy' \
        src crates tests examples 2>/dev/null; then
        echo "determinism lint: host time or ambient entropy in the workspace" >&2
        exit 1
    fi

    echo "==> thread lint (host threads only in the worker pool, the ORAM crypto lane and disk recovery)"
    # The three places that start threads compute a result that is a pure
    # function of their inputs: a pool worker runs one prepared task
    # against a private virtual clock, the lane opens or seals half an
    # ORAM path under nonces it is handed, and the disk store's recovery
    # helper checks the MACs of segment bytes nothing mutates, its verdict
    # weighed so that the first failure in log order is the one reported.
    # A host thread anywhere else could make a digest depend on how the
    # host scheduled it.
    if grep -rnE 'thread::(spawn|scope|Builder)' crates/*/src src \
        | grep -vE '^crates/(core/src/pool|oram/src/path_oram|oram/src/store/disk)\.rs:'; then
        echo "thread lint: host threads belong in crates/core/src/pool.rs," >&2
        echo "  crates/oram/src/path_oram.rs or crates/oram/src/store/disk.rs" >&2
        exit 1
    fi

    echo "==> path shape lint (no Vec<Vec<u8>> outside #[cfg(test)] under crates/oram/src)"
    # The §IV-D wire shape is fixed at boot: (height + 1) * Z slots of
    # OramConfig::slot_len bytes. Client, server and both backends move
    # it as one flat buffer and slices of it; a nested vector anywhere
    # on that route brings back a per-slot allocation and a length that
    # has to be re-checked at every hand-off.
    nested=0
    for f in $(find crates/oram/src -name '*.rs'); do
        if awk '/^#\[cfg\(test\)\]/ { exit } /Vec<Vec<u8>>/ { print FILENAME ":" FNR ": " $0; hit = 1 }
                END { exit !hit }' "$f"; then
            nested=1
        fi
    done
    if [[ "$nested" -ne 0 ]]; then
        echo "path shape lint: nested slot vectors under crates/oram/src" >&2
        exit 1
    fi

    echo "==> options lint (every pub field of a pub struct …Config is assigned outside its own file)"
    # An option with one value is a constant: a field that only its own
    # `Default` ever sets multiplies the configurations tests must cover
    # and buys nothing. The check is by name — a struct-literal
    # `field: value` or a `.field = value` in any other .rs file counts,
    # a declaration (`field: Type`) does not — so it can pass a field
    # that merely shares its name with another struct's: passing is
    # necessary, not sufficient.
    # Allowed, each for its reason:
    #   DiskStoreConfig::wal_trim_every — ROADMAP item 3's shim: the
    #     frozen benchmark/ still reads it; it goes when that does.
    #   MemoryConfig::* — DESIGN §2's table of model constants (like
    #     `CostModel`, which is not named Config and so not scanned):
    #     the synthesized geometry, not deployment options.
    decl='(&|\[|\(|[A-Z][A-Za-z0-9]*|u8|u16|u32|u64|u128|usize|i32|i64|bool|f64)[A-Za-z0-9_<>, ()&\[\]'"'"']*'
    unset_fields=0
    for def in $(grep -rlE '^pub struct [A-Za-z]*Config\b' crates/*/src); do
        while read -r name field; do
            case "$name::$field" in
                DiskStoreConfig::wal_trim_every | MemoryConfig::*) continue ;;
            esac
            if ! grep -rE "(^|[ {(,])${field}: |\.${field}(\.[a-z_0-9]+)* = " --include='*.rs' \
                    crates src tests examples benchmark/src \
                | grep -vE "^${def}:|^[^:]+:\s*(pub(\([a-z]+\))? )?${field}: ${decl},?\s*$|fn " \
                | grep -q .; then
                echo "options lint: $name::$field ($def) is set nowhere outside its own file" >&2
                unset_fields=1
            fi
        done < <(awk '/^pub struct [A-Za-z]*Config[ {]/ { name = $3; sub(/[^A-Za-z].*/, "", name); on = 1; next }
                      on && /^}/ { on = 0 }
                      on && /^    pub [a-z_0-9]+:/ { f = $2; sub(/:.*/, "", f); print name, f }' "$def")
    done
    if [[ "$unset_fields" -ne 0 ]]; then
        echo "options lint: make the field a constant, or show the second value" >&2
        exit 1
    fi

    echo "==> seam lint (the execute half of service/segment.rs names no device or session; no argument-count waivers)"
    # Pool workers run `execute_detached` and below against an
    # `ExecCtx`, a private clock and a `TaskBuffer`; the moment that
    # half mentions the device or a session it has grown a path back to
    # shared mutable state. And a 16-parameter driver came from
    # threading one value through as six: the waiver is the symptom.
    segment=crates/core/src/service/segment.rs
    if ! grep -q '^// ---- The execute half' "$segment"; then
        echo "seam lint: $segment lost its execute-half marker" >&2
        exit 1
    fi
    if awk '/^\/\/ ---- The execute half/ { on = 1 }
            on && /HarDTape|UserHandle/ { print FILENAME ":" FNR ": " $0; hit = 1 }
            END { exit !hit }' "$segment"; then
        echo "seam lint: the execute half of $segment names the device or a session" >&2
        exit 1
    fi
    if grep -rnE 'clippy::(too_many_arguments|type_complexity)' crates/core/src; then
        echo "seam lint: argument-count / type-complexity waiver under crates/core/src" >&2
        exit 1
    fi

    echo "==> unwired-fn lint (every pub / pub(crate) fn under crates/*/src is named outside its own tests)"
    # A modelled defense beside the live path is neither small nor
    # evidence: an A.E.DMA and an interrupt queue that only their own
    # unit tests called once sat next to the channel every bundle took.
    # The check is by name, so approximate — a shared name passes. A fn
    # fails when its name appears in no other .rs file of crates/, src/,
    # tests/, examples/ or benchmark/src/, and nowhere in its own file
    # above the first `#[cfg(test)]` but its definition. A fn marked
    # `#[cfg(test)]` is exempt. To clear a failure: delete the fn, make
    # it a `#[cfg(test)]` helper, or give it a caller.
    # Allowed, each for its reason, as `path:name` (none).
    unwired_allowed=()
    if ! find crates src tests examples benchmark/src -name '*.rs' | sort \
        | xargs awk -v allowed=" ${unwired_allowed[*]} " '
            FNR == 1 { in_tests = 0; test_item = 0 }
            /^#\[cfg\(test\)\]/ { in_tests = 1 }
            {
                name = ""
                if (!in_tests && FILENAME ~ /^crates\/[^\/]+\/src\// &&
                    match($0, /^[ \t]*pub(\(crate\))? (const )?fn [A-Za-z_][A-Za-z0-9_]*/)) {
                    name = substr($0, RSTART, RLENGTH)
                    sub(/.* fn /, "", name)
                    if (!test_item) { n++; file[n] = FILENAME; line[n] = FNR; fname[n] = name }
                }
                if ($0 ~ /^[ \t]*#\[cfg\(test\)\]/) test_item = 1
                else if ($0 !~ /^[ \t]*#\[/) test_item = 0
                rest = $0
                while (match(rest, /[A-Za-z_][A-Za-z0-9_]*/)) {
                    word = substr(rest, RSTART, RLENGTH)
                    rest = substr(rest, RSTART + RLENGTH)
                    if (word == name) { name = ""; continue }  # the definition itself
                    if (!in_tests) own[FILENAME, word] = 1
                    if (!((FILENAME, word) in seen)) { seen[FILENAME, word] = 1; files[word]++ }
                }
            }
            END {
                bad = 0
                for (i = 1; i <= n; i++) {
                    elsewhere = files[fname[i]] - ((file[i], fname[i]) in seen)
                    if (elsewhere > 0 || (file[i], fname[i]) in own) continue
                    if (index(allowed, " " file[i] ":" fname[i] " ")) continue
                    print file[i] ":" line[i] ": " fname[i]
                    bad = 1
                }
                exit bad
            }'; then
        echo "unwired-fn lint: a pub fn nothing but its own tests names — delete it, make it" >&2
        echo "  a #[cfg(test)] helper, or give it a caller" >&2
        exit 1
    fi

    echo "==> error-variant lint (every variant of a pub enum …Error is named beyond its declaration)"
    # An error nobody raises is a case every caller must match and no
    # test can reach: ProofError::HashMismatch sat beside MissingNode,
    # which the lookup by hash reports instead. The check is by name,
    # over non-test code (crates/*/src, src, examples, benchmark/src,
    # each file up to its first `#[cfg(test)]`, comments stripped): a
    # variant of a `pub enum …Error` declared under crates/*/src fails
    # when `Enum::Variant` (or `Self::Variant` inside an `impl` of the
    # enum) appears nowhere but in the enum's own `impl Display`. To
    # clear a failure: delete the variant, or raise it.
    # Allowed, each for its reason, as `Enum::Variant` (none).
    error_variants_allowed=()
    error_sources=$({ find crates -path 'crates/*/src/*' -name '*.rs'
                      find src examples benchmark/src -name '*.rs'; } | sort)
    # shellcheck disable=SC2086 # one operand per file
    if ! awk -v allowed=" ${error_variants_allowed[*]} " '
            FNR == 1 { in_tests = 0; enum = ""; impl_type = ""; display = 0 }
            /^#\[cfg\(test\)\]/ { in_tests = 1 }
            in_tests { next }
            pass == 1 {
                if (FILENAME !~ /^crates\/[^\/]+\/src\//) next
                if ($0 ~ /^pub enum [A-Za-z0-9_]*Error[ {]/) {
                    enum = $3; sub(/[^A-Za-z0-9_].*/, "", enum); next
                }
                if (enum != "" && /^}/) { enum = ""; next }
                if (enum != "" && match($0, /^    [A-Z][A-Za-z0-9_]*/)) {
                    n++; variant[n] = enum "::" substr($0, 5, RLENGTH - 4)
                    where[n] = FILENAME ":" FNR
                }
                next
            }
            /^impl/ {
                impl_type = $0; sub(/ *\{.*/, "", impl_type)
                sub(/.* for /, "", impl_type); sub(/^impl(<[^>]*>)? /, "", impl_type)
                sub(/[^A-Za-z0-9_].*/, "", impl_type)
                display = ($0 ~ /Display for /)
            }
            /^}/ { impl_type = ""; display = 0 }
            {
                rest = $0; sub(/\/\/.*/, "", rest)
                while (match(rest, /[A-Za-z_][A-Za-z0-9_]*::[A-Z][A-Za-z0-9_]*/)) {
                    path = substr(rest, RSTART, RLENGTH); rest = substr(rest, RSTART + RLENGTH)
                    split(path, part, "::")
                    if (part[1] == "Self") part[1] = impl_type
                    if (display && part[1] == impl_type) continue  # its own Display arm
                    used[part[1] "::" part[2]] = 1
                }
            }
            END {
                bad = 0
                for (i = 1; i <= n; i++) {
                    if (variant[i] in used || index(allowed, " " variant[i] " ")) continue
                    print where[i] ": " variant[i]
                    bad = 1
                }
                exit bad
            }' pass=1 $error_sources pass=2 $error_sources; then
        echo "error-variant lint: an error variant nothing raises or matches — delete it," >&2
        echo "  or raise it" >&2
        exit 1
    fi

    echo "==> audit-path lint (audit_events is named only in telemetry/audit.rs and benchmark/src)"
    # One audit path: the auditor folds every event under the digest
    # chain's lock, and `Telemetry::audit()` reads that verdict. The
    # slice form re-reads a copy of the bounded ring, which a long run
    # outgrows; only its own unit tests and the benchmark harness name it.
    if grep -rnw --include='*.rs' audit_events src crates tests examples \
        | grep -v '^crates/sim/src/telemetry/audit.rs:'; then
        echo "audit-path lint: read the live report with Telemetry::audit()" >&2
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

echo "==> cargo test -q (tier-1: the whole workspace)"
cargo test -q

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
    # Prints the FLEET_DIGEST and FLEET_RERUN lines for one
    # fresh-process fleet chaos soak (4 devices, mid-soak crash +
    # migration + reorg; exactly-once, head convergence, the §IV-D
    # audit and the re-run paused work's receipts asserted in-test).
    # FLEET_RERUN counts the paused bundles re-run on survivors and the
    # segments the dead device had already run of them.
    # Optional second arg: worker-pool size (default 1).
    HARDTAPE_SOAK_SEED="$1" HARDTAPE_SOAK_WORKERS="${2:-1}" cargo test -q --test fleet \
        fleet_chaos_soak_is_deterministic_and_survives_device_loss -- --nocapture \
        | grep -E '^FLEET_(DIGEST|RERUN) '
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
        if [[ "$(grep -c "^FUZZ_SOAK $rig " <<< "$fuzz_soak")" -ne 7 ]]; then
            echo "fuzz soak: rig $rig did not run all seven properties" >&2
            exit 1
        fi
    done
    echo "==> ECDSA differential soak (release: comb, endomorphism ladder and gcd inverse against double-and-add)"
    cargo test -q --release -p tape-crypto --test props -- --ignored --nocapture \
        | grep -E '^ECDSA_SOAK '
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
