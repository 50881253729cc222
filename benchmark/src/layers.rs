//! The traced run (`--trace 1`): per-layer metrics, measured from outside.
//!
//! Three passes, each timing calls into public functions only:
//!
//! 1. the workload itself, three replicas recording spans interleaved
//!    with three that do not (the difference is the tracing overhead);
//! 2. the workload's schedule replayed directly (`pre_execute`, in-memory
//!    store) at every rung `-raw … -full` up to its own — the Fig. 4
//!    ladder on both clocks, whose differences price the channel, the
//!    signatures and the two ORAM rungs;
//! 3. isolated drives of each layer's public API, under spans of their
//!    own.
//!
//! A layer a workload does not use reports 0.

use crate::alloc::LEDGER;
use crate::estimator::{self, percentile};
use crate::metrics::PER_LAYER;
use crate::replica::{out_dir, service_config, Call, Plan};
use crate::run::{self, Metric, Prepared, Set};
use crate::trace::Tracer;
use crate::workloads::{apply_delta, Op, Receipt, Workload, ORAM_HEIGHT};
use hardtape::SecurityConfig;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use tape_crypto::{keccak256, AesGcm, SecretKey, SecureRng};
use tape_hevm::Hevm;
use tape_oram::{OramClient, OramConfig, OramServer};
use tape_primitives::U256;
use tape_sim::{Clock, CostModel};

/// Replicas of each kind (recording spans / not) in a traced run.
const TRACED_REPLICAS: usize = 3;
/// Replicas of each ladder rung: two, because the rungs are read as
/// differences, and one disturbed replica would turn a step negative.
const RUNG_REPLICAS: usize = 2;

fn per(total: f64, count: f64) -> f64 {
    if count == 0.0 {
        0.0
    } else {
        total / count
    }
}

fn median_ns(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    estimator::median(&values.iter().map(|v| *v as f64).collect::<Vec<_>>())
}

/// Mean nanoseconds per call of `f`: the quickest of `batches` batches
/// of `iters` calls, each batch under one span (a span per call would
/// cost more than the cheap operations it brackets).
fn time_op<T>(
    tracer: &mut Tracer,
    name: &'static str,
    batches: u32,
    iters: u32,
    mut f: impl FnMut() -> T,
) -> f64 {
    (0..batches)
        .map(|batch| {
            tracer.span(name, u64::from(batch), || {
                let started = Instant::now();
                for _ in 0..iters {
                    black_box(f());
                }
                started.elapsed().as_nanos() as f64 / f64::from(iters)
            })
        })
        .fold(f64::INFINITY, f64::min)
}

/// Σ `BundleReport.total_ns` of a set.
fn virt_bundles_ns(set: &Set) -> f64 {
    set.facts().list("virt_bundle_ns").iter().sum::<u64>() as f64
}

/// ORAM accesses of the measured phase: queries plus synced pages (each
/// is one path read and re-encrypted write, one store transaction).
fn oram_accesses(set: &Set) -> f64 {
    let f = set.facts();
    f.num("oram_kv") + f.num("oram_code") + f.num("oram_prefetch") + f.num("oram_sync_pages")
}

fn crypto_drives(t: &mut Tracer, m: &mut BTreeMap<&'static str, f64>) {
    let data = vec![0xABu8; 1024];
    let (gcm, nonce) = (AesGcm::new(&[7u8; 16]), [0u8; 12]);
    let sealed = gcm.seal(&nonce, b"", &data);
    m.insert(
        "crypto.aes_gcm_seal_1k_ns",
        time_op(t, "AesGcm::seal", 5, 200, || {
            gcm.seal(black_box(&nonce), b"", black_box(&data))
        }),
    );
    m.insert(
        "crypto.aes_gcm_open_1k_ns",
        time_op(t, "AesGcm::open", 5, 200, || {
            gcm.open(black_box(&nonce), b"", black_box(&sealed))
        }),
    );
    let key = SecretKey::from_seed(b"benchmark layer drive");
    let digest = keccak256(b"message");
    let (public, signature) = (key.public_key(), key.sign(&digest));
    m.insert(
        "crypto.ecdsa_sign_us",
        time_op(t, "secp::sign", 3, 20, || key.sign(black_box(&digest))) / 1e3,
    );
    m.insert(
        "crypto.ecdsa_verify_us",
        time_op(t, "secp::verify", 3, 20, || {
            public.verify(black_box(&digest), black_box(&signature))
        }) / 1e3,
    );
    m.insert(
        "crypto.keccak_1k_ns",
        time_op(t, "keccak256", 5, 500, || keccak256(black_box(&data))),
    );
}

fn primitive_drives(t: &mut Tracer, m: &mut BTreeMap<&'static str, f64>) {
    let a = U256::from_limbs([0x1234, 0x5678, 0x9abc, 0xdef0]);
    let b = U256::from_limbs([0x1111, 0x2222, 0x3333, 0x4444]);
    let e = U256::from(0xFFFF_FFFFu64);
    m.insert(
        "primitives.u256_mul_ns",
        time_op(t, "U256::wrapping_mul", 3, 200_000, || {
            black_box(a).wrapping_mul(black_box(b))
        }),
    );
    m.insert(
        "primitives.u256_div_ns",
        time_op(t, "U256::checked_div_rem", 3, 200_000, || {
            black_box(a).checked_div_rem(black_box(b))
        }),
    );
    m.insert(
        "primitives.u256_mulmod_ns",
        time_op(t, "U256::mul_mod", 3, 100_000, || {
            black_box(a).mul_mod(black_box(b), black_box(U256::MAX))
        }),
    );
    m.insert(
        "primitives.u256_exp_ns",
        time_op(t, "U256::wrapping_pow", 3, 20_000, || {
            black_box(a).wrapping_pow(black_box(e))
        }),
    );
}

/// What the bare engines cost on the workload's own transactions.
struct EngineDrive {
    hevm_host_ns: f64,
    hevm_mismatches: u64,
}

/// Bare `Hevm::transact` (a fresh HEVM per bundle over plain state, as
/// the service builds it) on every transaction of the schedule; the
/// reference `Evm` was already timed by [`run::prepare`].
fn engine_drives(
    t: &mut Tracer,
    m: &mut BTreeMap<&'static str, f64>,
    workload: Workload,
    prepared: &Prepared,
) -> EngineDrive {
    let inputs = &prepared.inputs;
    let config = service_config(workload.level(), None).hevm;
    let mut state = inputs.genesis.clone();
    let (mut host_ns, mut virt_ns, mut instructions, mut allocs, mut txs) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut receipts = Vec::with_capacity(prepared.expected.len());
    for op in &inputs.ops {
        match op {
            Op::Round(round) => {
                for tx in round {
                    let clock = Clock::new();
                    let before = LEDGER.snapshot();
                    let started = Instant::now();
                    let span = t.enter("Hevm::transact", txs);
                    let mut hevm =
                        Hevm::new(config.clone(), inputs.env.clone(), &state, clock.clone());
                    let result = hevm.transact(tx);
                    t.exit(span);
                    host_ns += started.elapsed().as_nanos() as u64;
                    allocs += LEDGER.snapshot().since(&before).calls;
                    virt_ns += clock.now();
                    instructions += hevm.stats().instructions;
                    txs += 1;
                    receipts.push(result.ok().map(|r| Receipt::of(&r)));
                }
            }
            Op::Sync(block) => apply_delta(&mut state, &block.1),
            Op::Restart => {}
        }
    }
    m.insert(
        "hevm.host_ns_per_instr",
        per(host_ns as f64, instructions as f64),
    );
    m.insert(
        "hevm.virt_ns_per_instr",
        per(virt_ns as f64, instructions as f64),
    );
    m.insert("hevm.allocs_per_tx", per(allocs as f64, txs as f64));
    m.insert(
        "evm.host_ns_per_instr",
        per(prepared.reference_s * 1e9, instructions as f64),
    );
    EngineDrive {
        hevm_host_ns: host_ns as f64,
        hevm_mismatches: run::mismatches(&receipts, &prepared.expected),
    }
}

/// Cold static analysis of every contract the schedule calls; returns
/// the total nanoseconds.
fn analysis_drive(t: &mut Tracer, m: &mut BTreeMap<&'static str, f64>, prepared: &Prepared) -> f64 {
    let callees = prepared.inputs.callees();
    let total: f64 = callees
        .iter()
        .map(|address| {
            let account = prepared
                .inputs
                .genesis
                .account_full(address)
                .expect("callee exists");
            time_op(t, "tape_analysis::analyze", 2, 1, || {
                tape_analysis::analyze(&account.code)
            })
        })
        .sum();
    m.insert(
        "analysis.cold_us_per_contract",
        per(total / 1e3, callees.len() as f64),
    );
    total
}

/// A standalone Path ORAM client and in-memory server at the workload's
/// geometry: 256 resident blocks, then timed reads.
fn oram_drive(t: &mut Tracer, m: &mut BTreeMap<&'static str, f64>) {
    let config = OramConfig {
        block_size: 1024,
        bucket_capacity: 4,
        height: ORAM_HEIGHT,
    };
    let mut server = OramServer::new(config.clone());
    let mut client = OramClient::new(
        config.clone(),
        &[1u8; 16],
        SecureRng::from_seed(b"benchmark oram drive"),
    );
    let (clock, cost) = (Clock::new(), CostModel::default());
    let id = |i: u64| keccak256(i.to_be_bytes());
    for i in 0..256u64 {
        client
            .write(&mut server, &clock, &cost, &id(i), vec![0; 1024])
            .expect("oram write");
    }
    let (batches, batch) = (6u32, 20u32);
    let reads = batches * batch;
    let mut i = 0u64;
    let before = LEDGER.snapshot();
    let ns = time_op(t, "OramClient::read", batches, batch, || {
        i = (i + 97) % 256;
        client
            .read(&mut server, &clock, &cost, &id(i))
            .expect("oram read")
    });
    let spent = LEDGER.snapshot().since(&before);
    m.insert("oram.access_us", ns / 1e3);
    m.insert("oram.blocks_per_access", config.blocks_per_access() as f64);
    m.insert(
        "oram.allocs_per_access",
        spent.calls as f64 / f64::from(reads),
    );
    m.insert(
        "oram.alloc_kb_per_access",
        spent.bytes as f64 / 1024.0 / f64::from(reads),
    );
    m.insert("oram.stash_peak", client.max_stash_seen() as f64);
}

/// `StateDelta::verify` on every proven block and `verify_proof` on every
/// proof in them; returns the total nanoseconds of the former.
fn proof_drives(t: &mut Tracer, m: &mut BTreeMap<&'static str, f64>, prepared: &Prepared) -> f64 {
    let (mut verify_ns, mut accounts, mut proof_ns, mut proofs) = (0.0, 0.0, 0.0, 0.0);
    for op in &prepared.inputs.ops {
        let Op::Sync(block) = op else { continue };
        let delta = &block.1;
        verify_ns += time_op(t, "StateDelta::verify", 2, 1, || {
            delta.verify().expect("proven delta")
        });
        accounts += (delta.accounts.len() + delta.deleted.len()) as f64;
        for entry in &delta.accounts {
            let key = keccak256(entry.address.as_bytes());
            proof_ns += time_op(t, "tape_mpt::verify_proof", 2, 1, || {
                tape_mpt::verify_proof(delta.state_root, key.as_bytes(), &entry.proof)
            });
            proofs += 1.0;
        }
    }
    m.insert(
        "node.delta_verify_us_per_account",
        per(verify_ns / 1e3, accounts),
    );
    m.insert("mpt.proof_verify_us", per(proof_ns / 1e3, proofs));
    verify_ns
}

/// Runs the traced passes and returns every per-layer metric, in
/// catalogue order, with the set of replicas that recorded no spans.
pub fn traced(
    workload: Workload,
    seed: u64,
    prepared: &Prepared,
) -> Result<(Set, Vec<Metric>), String> {
    let own = Plan::measured(workload, seed);
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    // Pass 1: the workload, with and without spans, interleaved.
    let (mut with_spans, mut without) = (Vec::new(), Vec::new());
    for replica in 0..TRACED_REPLICAS {
        let file = format!("trace-{}-seed{seed}-r{replica}.json", workload.name());
        with_spans.push(run::spawn_replica(&Plan {
            trace_to: Some(out_dir().join(file)),
            ..own.clone()
        })?);
        without.push(run::spawn_replica(&own)?);
    }
    let everyone = Set::of(with_spans.iter().chain(&without).cloned().collect())?;
    let (traced, plain) = (Set::of(with_spans)?, Set::of(without)?);
    let facts = plain.facts();
    let bundles = facts.num("bundles");

    // Pass 2: the ladder, direct and in memory; the workload's own
    // replicas serve where they already are that.
    let own_rung = SecurityConfig::ALL
        .iter()
        .position(|l| *l == own.level)
        .expect("a rung");
    // `None` stands for the workload's own plain replicas.
    let mut spawned: Vec<Option<Set>> = Vec::new();
    for level in &SecurityConfig::ALL[..=own_rung] {
        let plan = Plan {
            level: *level,
            gateway: false,
            disk: false,
            ..own.clone()
        };
        let same = !own.gateway && !own.disk && *level == own.level;
        spawned.push(if same {
            None
        } else {
            let replicas: Result<_, _> = (0..RUNG_REPLICAS)
                .map(|_| run::spawn_replica(&plan))
                .collect();
            Some(Set::of(replicas?)?)
        });
    }
    let rung = |i: usize| spawned.get(i).map(|set| set.as_ref().unwrap_or(&plain));
    let (raw, direct) = (rung(0).expect("-raw"), rung(own_rung).expect("own rung"));
    // The -ES rung, where the workload's own rung has an ORAM above it.
    let below_oram = rung(2).filter(|_| own_rung > 2);
    let host = |set: &Set| set.measured_ns() as f64;
    let step_host = |i: usize| match (rung(i), rung(i.wrapping_sub(1))) {
        (Some(upper), Some(lower)) => per((host(upper) - host(lower)) / 1e3, bundles),
        _ => 0.0,
    };
    let step_virt = |i: usize| match (rung(i), rung(i.wrapping_sub(1))) {
        (Some(upper), Some(lower)) => per(
            (virt_bundles_ns(upper) - virt_bundles_ns(lower)) / 1e3,
            bundles,
        ),
        _ => 0.0,
    };
    m.insert(
        "service.raw_host_us_per_bundle",
        per(host(raw) / 1e3, bundles),
    );
    m.insert(
        "service.raw_virt_us_per_bundle",
        per(virt_bundles_ns(raw) / 1e3, bundles),
    );
    m.insert("tee.channel_host_us_per_bundle", step_host(1));
    m.insert("tee.channel_virt_us_per_bundle", step_virt(1));
    m.insert("tee.sign_host_us_per_bundle", step_host(2));
    m.insert("tee.sign_virt_us_per_bundle", step_virt(2));
    m.insert("oram.kv_host_us_per_bundle", step_host(3));
    m.insert("oram.code_host_us_per_bundle", step_host(4));
    m.insert(
        "ladder.host_share_raw_x100",
        per(100.0 * host(raw), host(direct)),
    );
    let accesses = oram_accesses(direct);
    let oram_host_ns = below_oram.map_or(0.0, |es| host(direct) - host(es));
    let oram_virt_ns = below_oram.map_or(0.0, |es| virt_bundles_ns(direct) - virt_bundles_ns(es));
    m.insert(
        "ladder.host_share_oram_x100",
        per(100.0 * oram_host_ns, host(direct)),
    );
    m.insert("oram.host_us_per_query", per(oram_host_ns / 1e3, accesses));
    let queries = facts.num("oram_kv") + facts.num("oram_code") + facts.num("oram_prefetch");
    m.insert("oram.virt_us_per_query", per(oram_virt_ns / 1e3, queries));

    // The gateway against the direct replay of the same bundles (no
    // submits or rounds, hence zeros, on a direct-drive workload).
    let extra_allocs = plain.count("allocs_measured") - direct.count("allocs_measured");
    let (overhead, extra_allocs) = if own.gateway {
        (
            host(&plain) / host(direct) - 1.0,
            per(extra_allocs, bundles),
        )
    } else {
        (0.0, 0.0)
    };
    m.insert("gateway.overhead_ratio", overhead);
    m.insert("gateway.allocs_per_bundle", extra_allocs);
    let (submits, rounds) = (plain.of_kind(Call::Submit), plain.of_kind(Call::Round));
    m.insert("gateway.submit_us_p50", median_ns(&submits) / 1e3);
    m.insert("gateway.round_us_p50", median_ns(&rounds) / 1e3);
    m.insert("gateway.rounds", rounds.len() as f64);
    // Two workers only mean something where rounds take the pooled path
    // (no ORAM); on a host with fewer than two cores this reads ~100.
    let pooled = own.gateway && !own.level.oram_storage();
    let speedup = if pooled {
        let two = Set::of(vec![run::spawn_replica(&Plan {
            workers: 2,
            ..own.clone()
        })?])?;
        if two.facts().fact("telemetry_digest") != facts.fact("telemetry_digest") {
            return Err("two workers changed the telemetry digest".into());
        }
        per(100.0 * host(&plain), host(&two))
    } else {
        0.0
    };
    m.insert("gateway.speedup_2w_x100", speedup);
    m.insert("gateway.admitted", facts.num("gw_admitted"));
    m.insert("gateway.rejected", facts.num("gw_rejected"));
    m.insert("gateway.shed", facts.num("gw_shed"));
    m.insert("gateway.preempted", facts.num("gw_preempted"));

    // Host siblings of the end-to-end throughput, and counts the device
    // keeps itself.
    let mut bundle_ns = plain.bundle_host_ns();
    bundle_ns.sort_unstable();
    m.insert(
        "host.bundle_p50_us",
        percentile(&bundle_ns, 50.0)? as f64 / 1e3,
    );
    m.insert(
        "host.bundle_p95_us",
        percentile(&bundle_ns, 95.0)? as f64 / 1e3,
    );
    let rss = everyone.reports.iter().map(|r| r.rss_kb).max().unwrap_or(0);
    m.insert("host.peak_rss_mb", rss as f64 / 1024.0);
    let blocks = facts.num("blocks");
    m.insert(
        "host.sync_ms_per_block",
        per(
            plain.of_kind(Call::Sync).iter().sum::<u64>() as f64 / 1e6,
            blocks,
        ),
    );
    m.insert(
        "virt.sync_ms_per_block",
        per(facts.num("virt_sync_ns") / 1e6, blocks),
    );
    m.insert(
        "service.connect_us",
        median_ns(&plain.of_kind(Call::Connect)) / 1e3,
    );
    let tps = facts.num("txs") * 1e9 / facts.num("virt_clock_ns");
    m.insert("service.virt_chip_tps", tps * facts.num("hevm_count"));
    m.insert(
        "hevm.instructions_per_bundle",
        per(facts.num("instructions"), bundles),
    );
    m.insert("hevm.swaps_per_bundle", per(facts.num("swaps"), bundles));
    m.insert(
        "hevm.l1_misses_per_bundle",
        per(facts.num("l1_misses"), bundles),
    );
    m.insert("analysis.contracts", facts.num("analysis_contracts"));
    m.insert(
        "analysis.resolved_jump_ratio_x100",
        facts.num("analysis_resolved_x100"),
    );
    m.insert("oram.queries_per_bundle", per(queries, bundles));
    m.insert(
        "oram.kv_queries_per_bundle",
        per(facts.num("oram_kv"), bundles),
    );
    m.insert(
        "oram.code_queries_per_bundle",
        per(facts.num("oram_code"), bundles),
    );
    m.insert("oram.prefetch_queries", facts.num("oram_prefetch"));
    m.insert(
        "node.accounts_per_block",
        per(facts.num("delta_accounts"), blocks),
    );
    m.insert(
        "sync.oram_writes_per_block",
        per(facts.num("oram_sync_pages"), blocks),
    );
    m.insert("telemetry.events", facts.num("telemetry_events"));
    m.insert("telemetry.dropped", facts.num("telemetry_dropped"));
    m.insert(
        "telemetry.audit_passed",
        f64::from(u8::from(facts.fact("audit_passed") == Some("true"))),
    );
    m.insert("telemetry.digest_match", 1.0); // `Set::of` refused anything else

    // The store: the measured disk run against the in-memory -full rung
    // (an in-memory device writes, syncs, stores and recovers nothing).
    let store_accesses = oram_accesses(&plain);
    let disk_extra_ns = if own.disk {
        host(&plain) - host(direct)
    } else {
        0.0
    };
    m.insert(
        "store.disk_host_us_per_query",
        per(disk_extra_ns / 1e3, store_accesses),
    );
    m.insert(
        "store.disk_writes_per_query",
        per(facts.num("disk_writes"), store_accesses),
    );
    m.insert(
        "store.fsyncs_per_query",
        per(facts.num("disk_fsyncs"), store_accesses),
    );
    m.insert(
        "store.bytes_on_disk_mb",
        facts.num("disk_bytes") / (1024.0 * 1024.0),
    );
    m.insert(
        "store.recover_s",
        plain.of_kind(Call::Restart).iter().sum::<u64>() as f64 / 1e9,
    );
    m.insert("store.recovery_replays", facts.num("recovery_replays"));
    // Genesis sync: what boot costs beyond an ORAM-less (-ES) boot, per
    // page written.
    let boot = |set: &Set| set.of_kind(Call::Boot)[0] as f64;
    let sync_boot_ns = below_oram.map_or(0.0, |es| boot(&plain) - boot(es));
    m.insert(
        "oram.sync_host_us_per_page",
        per(sync_boot_ns / 1e3, facts.num("oram_sync_pages_setup")),
    );

    // Pass 3: isolated drives, under their own spans.
    let mut t = Tracer::new(true, 4096);
    let drives = t.enter("isolated drives", seed);
    crypto_drives(&mut t, &mut m);
    primitive_drives(&mut t, &mut m);
    let engines = engine_drives(&mut t, &mut m, workload, prepared);
    let analysis_ns = analysis_drive(&mut t, &mut m, prepared);
    if own.level.oram_storage() {
        oram_drive(&mut t, &mut m);
    } else {
        for name in [
            "oram.access_us",
            "oram.blocks_per_access",
            "oram.allocs_per_access",
            "oram.alloc_kb_per_access",
            "oram.stash_peak",
        ] {
            m.insert(name, 0.0);
        }
    }
    let proofs_ns = proof_drives(&mut t, &mut m, prepared);
    t.exit(drives);
    let file = format!("trace-{}-seed{seed}-layers.json", workload.name());
    t.write_chrome_json(&out_dir().join(file))
        .map_err(|e| format!("cannot write the trace: {e}"))?;

    let device_mismatches = run::mismatches(&facts.receipts(), &prepared.expected);
    m.insert(
        "evm.mismatches",
        (device_mismatches + engines.hevm_mismatches) as f64,
    );

    // The ledger: isolated costs × the counts of the direct replay,
    // against what that replay took.
    let d = direct.facts();
    let direct_bundles = d.num("bundles");
    let mut attributed = engines.hevm_host_ns + analysis_ns + proofs_ns;
    attributed += oram_accesses(direct) * m["oram.access_us"] * 1e3;
    if own.level.encryption() {
        let wire_kib = d.num("wire_bytes") / 1024.0;
        attributed += wire_kib * (m["crypto.aes_gcm_seal_1k_ns"] + m["crypto.aes_gcm_open_1k_ns"]);
    }
    if own.level.signature() {
        let per_bundle = 2.0 * m["crypto.ecdsa_sign_us"] + m["crypto.ecdsa_verify_us"];
        attributed += direct_bundles * per_bundle * 1e3;
    }
    m.insert("ledger.unattributed_ratio", 1.0 - attributed / host(direct));

    let totals = everyone.replica_totals();
    let (quickest, slowest) = (
        totals.iter().min().expect("six"),
        totals.iter().max().expect("six"),
    );
    m.insert("harness.replicas", totals.len() as f64);
    m.insert(
        "harness.replica_spread_x100",
        100.0 * *slowest as f64 / *quickest as f64,
    );
    m.insert("harness.gen_s", prepared.gen_s);
    let total = |set: &Set| (set.setup_ns() + set.measured_ns()) as f64;
    m.insert(
        "harness.trace_overhead_ratio",
        total(&traced) / total(&plain) - 1.0,
    );

    let metrics = PER_LAYER
        .iter()
        .map(|(name, unit, _)| {
            let value = m
                .get(name)
                .ok_or_else(|| format!("per-layer metric {name} was not measured"))?;
            Ok((*name, *value, *unit))
        })
        .collect::<Result<Vec<Metric>, String>>()?;
    Ok((plain, metrics))
}
