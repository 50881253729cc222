//! Deterministic pre-execution benchmark: runs the evaluation set
//! through a `-full` HarDTAPE device twice in-process, checks that the
//! telemetry digests agree (replay determinism), runs the §IV-D leakage
//! auditor over the recorded event stream, and emits
//! `BENCH_pre_execute.json` with bundle-latency percentiles, chip TPS,
//! and ORAM traffic per bundle.
//!
//! Flags:
//!
//! * `--starve` — negative control: re-arms the prefetcher deadline on
//!   every real query (the pre-fix starvation bug) and *expects the
//!   auditor to fail*. Exit code 0 means the leak was detected.
//! * `--omit-plan` — negative control for the plan-coverage check: the
//!   device withholds the last advertised page of every static prefetch
//!   plan (execution is untouched) and *expects the auditor to flag the
//!   unadvertised fetch*. Exit code 0 means the gap was detected.
//! * `--omit-state-plan` — negative control for the world-state plan
//!   check: the ORAM layer mis-advertises the last storage group of
//!   every state prefetch plan (the operational batch is untouched) and
//!   *expects the auditor to flag the unadvertised kv fetch*. Exit code
//!   0 means the gap was detected.
//! * `--out PATH` — output path (default `BENCH_pre_execute.json`).
//! * `--baseline PATH` — regression guard: reads `queries_per_bundle`
//!   and (when present) the preemption section's `short_p99`, the kv
//!   `kv_queries_per_bundle`, the analysis section's
//!   `resolved_jump_ratio_x100`, and the disk section's
//!   `disk_queries_per_bundle` from a previously committed report and
//!   fails (exit 1) when the fresh run regresses by more than 10% on
//!   any — an accidental extra ORAM round-trip per bundle, a scheduling
//!   change that re-inflates the honest tail under gas-bomb load, a
//!   lattice change that silently degrades jump resolution, or a
//!   durability change that inflates the disk-backed store's ORAM
//!   traffic cannot land silently. Every guarded figure is
//!   deterministic (counts and virtual time); the host wall-clock
//!   figures (`workers.wall_ns_*`, `disk.*_ns_per_query`) are printed
//!   and written to the report but not guarded — `benchmark/ --compare`
//!   is the host-time gate. The baseline is read before the output is
//!   written, so `--baseline` and `--out` may name the same file.
//!
//! Besides the `-full` latency sweep, the report carries a
//! `preemption` section: one saturating gas-bomb tenant against three
//! honest tenants on a gas-sliced `-ES` gateway, with the honest
//! short-bundle p50/p99 under load next to the no-adversary baseline.
//! The binary enforces the tail-latency acceptance bound in-process
//! (honest p99 within 2x the unloaded baseline) — the committed JSON
//! is the measured evidence.
//!
//! Scale follows `TAPE_EVAL_SCALE` (small unless set).

use hardtape::{
    Bundle, Gateway, GatewayConfig, GatewayError, HarDTape, PrecisionSummary, SecurityConfig,
    ServiceConfig,
};
use std::collections::HashMap;
use tape_evm::{Env, Transaction};
use tape_oram::OramConfig;
use tape_primitives::{Address, U256};
use tape_sim::queue::EventLog;
use tape_sim::telemetry::audit::{audit_events, AuditConfig, AuditReport};
use tape_sim::telemetry::{CounterId, GaugeId, HistId};
use tape_sim::CostModel;
use tape_sim::Scratch;
use tape_state::{Account, InMemoryState};
use tape_workload::{contracts, EvalSet};

struct RunOutcome {
    latencies: Vec<u64>,
    chip_ns: u64,
    txs: u64,
    bundles: u64,
    kv_queries: u64,
    code_queries: u64,
    prefetch_queries: u64,
    planned_kv_records: u64,
    precision: PrecisionSummary,
    prefetch_issued: u64,
    prefetch_drained: u64,
    gap_ema_ns: u64,
    execute_mean_ns: f64,
    bundle_mean_ns: f64,
    digest: String,
    audit: AuditReport,
}

fn run(
    set: &EvalSet,
    starve: bool,
    omit_plan: bool,
    omit_state_plan: bool,
    audit_cfg: &AuditConfig,
) -> RunOutcome {
    let config = ServiceConfig {
        oram_height: 14,
        ..ServiceConfig::at_level(SecurityConfig::Full)
    };
    let mut device = HarDTape::new(config, set.env.clone(), &set.genesis).expect("device boots");
    device.set_prefetch_ablation(starve);
    device.set_plan_ablation(omit_plan);
    device.set_state_plan_ablation(omit_state_plan);
    let mut user = device.connect_user(b"bench user").expect("attestation");

    let mut latencies = Vec::new();
    let mut chip_ns = 0u64;
    let mut txs = 0u64;
    for block in &set.blocks {
        for tx in block {
            let report = device
                .pre_execute(&mut user, &Bundle::single(tx.clone()))
                .expect("bundle accepted");
            latencies.push(report.total_ns);
            chip_ns += report.total_ns;
            txs += 1;
        }
    }

    let t = device.telemetry().clone();
    let audit = audit_events(&t.events(), t.dropped(), audit_cfg);
    let stats = device.oram_stats().expect("full device has ORAM");
    let (issued, drained) = device
        .prefetch_stats()
        .map(|p| (p.issued, p.drained))
        .unwrap_or((0, 0));
    RunOutcome {
        latencies,
        chip_ns,
        txs,
        bundles: txs,
        kv_queries: stats.kv_queries,
        code_queries: stats.code_queries,
        prefetch_queries: stats.prefetch_queries,
        planned_kv_records: t.counter(CounterId::PlannedKvRecords),
        precision: device.analysis_precision(),
        prefetch_issued: issued,
        prefetch_drained: drained,
        gap_ema_ns: t.gauge_cell(GaugeId::PrefetchGapEmaNs).value,
        execute_mean_ns: t.hist(HistId::ExecuteNs).mean(),
        bundle_mean_ns: t.hist(HistId::BundleLatencyNs).mean(),
        digest: t.digest(),
        audit,
    }
}

/// Tail-latency scenario sizing (mirrors `tests/preempt.rs`): a short
/// `-ES` bundle costs ~80M virtual ns of fixed service overhead, so the
/// bomb's execution (60M gas ≈ 300M ns) dwarfs it, and a 2M-gas slice
/// (~10M ns per segment) keeps segment counts moderate.
const TAIL_BOMB_GAS: u64 = 60_000_000;
const TAIL_SLICE: u64 = 2_000_000;

fn tail_tenant(i: u64) -> Address {
    Address::from_low_u64(0xBE00 + i)
}

fn tail_sink(i: u64) -> Address {
    Address::from_low_u64(0xEE00 + i)
}

fn tail_bomb_contract() -> Address {
    Address::from_low_u64(0x6A5B)
}

fn tail_bomb_tx() -> Transaction {
    let mut tx = Transaction::call(
        tail_tenant(3),
        tail_bomb_contract(),
        U256::from(TAIL_BOMB_GAS / 20).to_be_bytes().to_vec(),
    );
    tx.gas_limit = TAIL_BOMB_GAS;
    tx
}

/// Admit→complete virtual latencies for `sessions`, parsed from the
/// gateway's deterministic event log.
fn tail_latencies(log: &EventLog, sessions: &[u64]) -> Vec<u64> {
    let mut admits: HashMap<u64, u64> = HashMap::new();
    let mut out = Vec::new();
    for line in log.lines() {
        let mut parts = line.split_whitespace();
        let Some(t) = parts
            .next()
            .and_then(|p| p.strip_prefix("t="))
            .and_then(|v| v.parse::<u64>().ok())
        else {
            continue;
        };
        let Some(verb) = parts.next() else { continue };
        let Some(session) = parts
            .next()
            .and_then(|p| p.strip_prefix("session="))
            .and_then(|v| v.parse::<u64>().ok())
        else {
            continue;
        };
        let ticket = parts
            .next()
            .and_then(|p| p.strip_prefix("ticket="))
            .and_then(|v| v.parse::<u64>().ok());
        match (verb, ticket) {
            ("admit", Some(k)) => {
                admits.insert(k, t);
            }
            ("complete", Some(k)) if sessions.contains(&session) => {
                if let Some(&at) = admits.get(&k) {
                    out.push(t - at);
                }
            }
            _ => {}
        }
    }
    out
}

struct TailOutcome {
    latencies: Vec<u64>,
    preempted: u64,
}

/// One deterministic gas-bomb load schedule on a gas-sliced `-ES`
/// gateway: the bomber connects FIRST (DRR serves it ahead of honest
/// tenants inside each round — the worst case for honest latency) and
/// keeps its queue saturated while three honest tenants each submit ten
/// short bundles. Returns the honest admit→complete latencies.
fn tail_run(bombs: bool) -> TailOutcome {
    let mut genesis = InMemoryState::new();
    for i in 0..4u64 {
        genesis.put_account(tail_tenant(i), Account::with_balance(U256::from(u64::MAX)));
    }
    genesis.put_account(tail_bomb_contract(), Account::with_code(contracts::gasbomb_runtime()));
    let mut config =
        ServiceConfig { oram_height: 10, ..ServiceConfig::at_level(SecurityConfig::Es) };
    config.hevm.gas_slice = Some(TAIL_SLICE);
    let device = HarDTape::new(config, Env::default(), &genesis).expect("tail device boots");
    let mut gateway = Gateway::new(
        device,
        GatewayConfig { queue_depth: 8, admission_budget: 40, ..GatewayConfig::default() },
    );
    let bomber = gateway.connect(b"bench tail bomber").expect("attestation");
    let honest: Vec<u64> = (0..3u64)
        .map(|i| {
            gateway
                .connect(format!("bench tail honest {i}").as_bytes())
                .expect("attestation")
        })
        .collect();

    for step in 0..10u64 {
        if bombs {
            // A round retires at most one bomb segment, so one refill
            // per step saturates; tenant-local overload is expected.
            match gateway.submit(bomber, Bundle::single(tail_bomb_tx())) {
                Ok(_) | Err(GatewayError::Overloaded { .. }) => {}
                Err(other) => {
                    eprintln!("FAIL: unexpected bomber submit error: {other}");
                    std::process::exit(1);
                }
            }
        }
        for (i, &session) in honest.iter().enumerate() {
            let bundle = Bundle::single(Transaction::transfer(
                tail_tenant(i as u64),
                tail_sink(i as u64),
                U256::from(1 + step),
            ));
            gateway.submit(session, bundle).expect("honest short bundle admitted");
        }
        gateway.run_round();
    }
    gateway.run_until_idle();
    TailOutcome {
        latencies: tail_latencies(gateway.log(), &honest),
        preempted: gateway.stats().preempted,
    }
}

/// Worker-pool scalability workload sizing: enough short bundles to
/// time meaningfully on the host clock, with periodic gas bombs so the
/// pool also exercises checkpoint resumption across rounds.
const POOL_TENANTS: usize = 4;
const POOL_STEPS: usize = 40;
const POOL_BOMB_GAS: u64 = 400_000;
const POOL_SLICE: u64 = 100_000;
const POOL_SEED: u64 = 0x5CA1_AB1E;

fn pool_tenant(i: u64) -> Address {
    Address::from_low_u64(0xCA00 + i)
}

fn pool_sink(i: u64) -> Address {
    Address::from_low_u64(0xDA00 + i)
}

struct PoolOutcome {
    wall_ns: u64,
    bundles: u64,
    digest: String,
}

/// One full drain of the fixed pool workload at the given worker
/// count, wall-clock timed on the host. The schedule (submission
/// order, round cadence, overload handling) is identical for every
/// worker count, so the returned digest must be byte-identical across
/// counts — parallelism is a host-side throughput knob only.
fn pool_run(workers: usize) -> PoolOutcome {
    let mut genesis = InMemoryState::new();
    for i in 0..=POOL_TENANTS as u64 {
        genesis.put_account(pool_tenant(i), Account::with_balance(U256::from(u64::MAX)));
    }
    genesis.put_account(tail_bomb_contract(), Account::with_code(contracts::gasbomb_runtime()));
    let mut config =
        ServiceConfig { oram_height: 10, ..ServiceConfig::at_level(SecurityConfig::Es) };
    config.hevm.gas_slice = Some(POOL_SLICE);
    let device = HarDTape::new(config, Env::default(), &genesis).expect("pool device boots");
    let mut gateway = Gateway::new(
        device,
        GatewayConfig {
            queue_depth: 8,
            admission_budget: 64,
            workers,
            ..GatewayConfig::default()
        },
    );
    let sessions: Vec<u64> = (0..POOL_TENANTS as u64)
        .map(|i| {
            gateway
                .connect(format!("bench pool tenant {i}").as_bytes())
                .expect("attestation")
        })
        .collect();
    let bomber = gateway.connect(b"bench pool bomber").expect("attestation");

    let started = std::time::Instant::now();
    let mut bundles = 0u64;
    for step in 0..POOL_STEPS {
        for (i, &session) in sessions.iter().enumerate() {
            let op = step * POOL_TENANTS + i;
            let bundle = Bundle::single(Transaction::transfer(
                pool_tenant(i as u64),
                pool_sink(i as u64),
                U256::from(1 + (op as u64 ^ POOL_SEED)),
            ));
            match gateway.submit(session, bundle) {
                Ok(_) => bundles += 1,
                Err(GatewayError::Overloaded { .. }) => {
                    // Make room; the dropped bundle is not counted.
                    gateway.run_round();
                }
                Err(other) => {
                    eprintln!("FAIL: unexpected pool submit error: {other}");
                    std::process::exit(1);
                }
            }
            if op % 5 == 4 {
                let mut tx = Transaction::call(
                    pool_tenant(POOL_TENANTS as u64),
                    tail_bomb_contract(),
                    U256::from(POOL_BOMB_GAS / 20).to_be_bytes().to_vec(),
                );
                tx.gas_limit = POOL_BOMB_GAS;
                match gateway.submit(bomber, Bundle::single(tx)) {
                    Ok(_) => bundles += 1,
                    Err(GatewayError::Overloaded { .. }) => {}
                    Err(other) => {
                        eprintln!("FAIL: unexpected pool bomber submit error: {other}");
                        std::process::exit(1);
                    }
                }
            }
            if op % 3 == 2 {
                gateway.run_round();
            }
        }
    }
    gateway.run_until_idle();
    let wall_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    if gateway.stats().preempted == 0 {
        eprintln!("FAIL: pool workload never preempted a gas bomb");
        std::process::exit(1);
    }
    let telemetry = gateway.device().telemetry().clone();
    PoolOutcome {
        wall_ns,
        bundles,
        digest: format!("{}:{}", gateway.log().digest(), telemetry.digest()),
    }
}

/// Disk-axis workload sizing: enough disjoint single-transfer bundles
/// on a disk-backed `-full` device that the checkpointed-store overhead
/// (seal + journal append + fsync per ORAM access) dominates the wall
/// clock, while staying small enough for three fresh-directory
/// iterations per report.
const DISK_BUNDLES: u64 = 24;
const DISK_ORAM_HEIGHT: u32 = 8;

fn disk_tenant(i: u64) -> Address {
    Address::from_low_u64(0xD15C_1000 + 2 * i)
}

fn disk_sink(i: u64) -> Address {
    Address::from_low_u64(0xD15C_1000 + 2 * i + 1)
}

/// One disk-axis iteration: boots a `-full` device whose ORAM buckets
/// live in a fresh disk-backed store under `dir` (or the in-memory
/// backend when `dir` is `None` — the matched A/B leg), drives the
/// fixed disjoint-transfer workload, and returns the host wall-clock
/// spent in the bundle loop plus the ORAM queries it issued (measured
/// as the stats delta so genesis sync is excluded from both numbers).
fn disk_run(dir: Option<&std::path::Path>) -> (u64, u64) {
    let mut genesis = InMemoryState::new();
    for i in 0..DISK_BUNDLES {
        genesis.put_account(disk_tenant(i), Account::with_balance(U256::from(u64::MAX)));
    }
    let config = ServiceConfig {
        oram_height: DISK_ORAM_HEIGHT,
        store_dir: dir.map(|d| d.to_path_buf()),
        ..ServiceConfig::at_level(SecurityConfig::Full)
    };
    let mut device = HarDTape::new(config, Env::default(), &genesis).expect("disk device boots");
    let mut user = device.connect_user(b"bench disk user").expect("attestation");
    let before = device.oram_stats().expect("full device has ORAM").total();

    let started = std::time::Instant::now();
    for i in 0..DISK_BUNDLES {
        let bundle = Bundle::single(Transaction::transfer(
            disk_tenant(i),
            disk_sink(i),
            U256::from(i + 1),
        ));
        device.pre_execute(&mut user, &bundle).expect("disk bundle accepted");
    }
    let wall_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let queries = device.oram_stats().expect("full device has ORAM").total() - before;
    (wall_ns, queries)
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Minimal JSON string escape (the only dynamic strings are digests and
/// violation messages — no exotic code points expected, but stay safe).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Extracts a `"<key>": <number>` value from a previously written
/// report, by hand — the workspace is hermetic (no serde).
fn baseline_field(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)?;
    let rest = &text[at + needle.len()..];
    let end = rest
        .find(|c: char| c != ' ' && c != '.' && c != '-' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Baseline guard inputs: `queries_per_bundle` is mandatory (every
/// committed report has it); the rest are optional so the guard
/// tolerates baselines written before those sections existed.
struct Baseline {
    queries_per_bundle: f64,
    short_p99: Option<f64>,
    /// World-state (kv) ORAM queries per bundle.
    kv_queries_per_bundle: Option<f64>,
    /// VSA jump-resolution ratio in integer percent (0-100).
    resolved_jump_ratio_x100: Option<f64>,
    /// Disk-backed store: ORAM queries per bundle.
    disk_queries_per_bundle: Option<f64>,
}

fn read_baseline(path: &str) -> Baseline {
    let text = std::fs::read_to_string(path).unwrap_or_else(|err| {
        eprintln!("--baseline: cannot read {path}: {err}");
        std::process::exit(2);
    });
    let Some(queries_per_bundle) = baseline_field(&text, "queries_per_bundle") else {
        eprintln!("--baseline: {path} has no usable queries_per_bundle field");
        std::process::exit(2);
    };
    Baseline {
        queries_per_bundle,
        short_p99: baseline_field(&text, "short_p99"),
        kv_queries_per_bundle: baseline_field(&text, "kv_queries_per_bundle"),
        resolved_jump_ratio_x100: baseline_field(&text, "resolved_jump_ratio_x100"),
        disk_queries_per_bundle: baseline_field(&text, "disk_queries_per_bundle"),
    }
}

fn main() {
    let mut starve = false;
    let mut omit_plan = false;
    let mut omit_state_plan = false;
    let mut out_path = String::from("BENCH_pre_execute.json");
    let mut baseline_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--starve" => starve = true,
            "--omit-plan" => omit_plan = true,
            "--omit-state-plan" => omit_state_plan = true,
            "--out" => {
                out_path = args.next().unwrap_or_else(|| {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                });
            }
            "--baseline" => {
                baseline_path = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--baseline requires a path");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!(
                    "usage: bench_pre_execute [--starve] [--omit-plan] [--omit-state-plan] \
                     [--out PATH] [--baseline PATH] (got {other:?})"
                );
                std::process::exit(2);
            }
        }
    }
    // Read the baseline up front: the fresh report may overwrite it.
    let baseline = baseline_path.as_deref().map(read_baseline);

    let set = EvalSet::generate(&tape_bench::eval_config());
    println!(
        "bench_pre_execute: {} txs, -full, starve={starve}, omit_plan={omit_plan}, \
         omit_state_plan={omit_state_plan}",
        set.len()
    );

    // Burst threshold derived from the cost model: a paced fetch stalls
    // at least ~avg_gap/4 beyond the bare wire cost, so anything under
    // 1.15x the per-query cost is "back-to-back" (a drain burst).
    let cost = CostModel::default();
    let oram_config = OramConfig { block_size: 1024, bucket_capacity: 4, height: 14 };
    let query_ns = cost.oram_query_ns(oram_config.blocks_per_access());
    let audit_cfg = AuditConfig {
        burst_gap_ns: query_ns + query_ns * 15 / 100,
        ..AuditConfig::default()
    };

    let ablated = starve || omit_plan || omit_state_plan;
    let first = run(&set, starve, omit_plan, omit_state_plan, &audit_cfg);
    let second = run(&set, starve, omit_plan, omit_state_plan, &audit_cfg);
    let digests_match = first.digest == second.digest;

    // Gas-bomb tail scenario (skipped on ablation runs — those are
    // negative controls for the auditor, not latency measurements).
    let tail = if ablated {
        None
    } else {
        println!("  tail scenario: 1 gas-bomb tenant vs 3 honest, gas_slice={TAIL_SLICE}");
        let unloaded = tail_run(false);
        let loaded = tail_run(true);
        if loaded.preempted == 0 {
            eprintln!("FAIL: gas bombs never preempted under slicing");
            std::process::exit(1);
        }
        Some((unloaded, loaded))
    };
    let mut preempt_json = String::from("\"measured\": false");
    let mut tail_guard: Option<(u64, u64)> = None;
    if let Some((unloaded, loaded)) = &tail {
        let mut base = unloaded.latencies.clone();
        base.sort_unstable();
        let mut load = loaded.latencies.clone();
        load.sort_unstable();
        let baseline_p50 = percentile(&base, 50.0);
        let baseline_p99 = percentile(&base, 99.0);
        let short_p50 = percentile(&load, 50.0);
        let short_p99 = percentile(&load, 99.0);
        let ratio_x100 = short_p99.saturating_mul(100) / baseline_p99.max(1);
        preempt_json = format!(
            "\"measured\": true, \"gas_slice\": {TAIL_SLICE}, \"bomb_gas\": {TAIL_BOMB_GAS}, \
             \"honest_bundles\": {n}, \"preempted_segments\": {pre}, \
             \"short_p50\": {short_p50}, \"short_p99\": {short_p99}, \
             \"baseline_p50\": {baseline_p50}, \"baseline_p99\": {baseline_p99}, \
             \"p99_ratio_x100\": {ratio_x100}",
            n = load.len(),
            pre = loaded.preempted,
        );
        tail_guard = Some((short_p99, baseline_p99));
    }

    // Measured worker-pool scalability (skipped on ablation runs):
    // median-of-3 host wall-clock per worker count on one fixed -ES
    // workload, with the cross-worker digest-equality contract asserted
    // in-process. This replaces the old `scalability::estimate`
    // extrapolation as the scalability evidence — the estimator still
    // exists for the §VI-D chip/ORAM-server sizing arithmetic, but the
    // drain-rate claim is now measured, not assumed.
    let host_parallelism = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut workers_json = String::from("\"measured\": false");
    if !ablated {
        println!("  worker-pool scalability: host_parallelism={host_parallelism}");
        let mut pool_walls: Vec<(usize, u64)> = Vec::new();
        let mut digest: Option<String> = None;
        let mut bundles = 0u64;
        for &w in &[1usize, 2, 4] {
            let mut walls = Vec::new();
            for _ in 0..3 {
                let outcome = pool_run(w);
                match &digest {
                    None => digest = Some(outcome.digest),
                    Some(expected) if *expected != outcome.digest => {
                        eprintln!(
                            "FAIL: pool digest diverged at workers={w} — parallelism leaked \
                             into the schedule"
                        );
                        std::process::exit(1);
                    }
                    Some(_) => {}
                }
                bundles = outcome.bundles;
                walls.push(outcome.wall_ns);
            }
            walls.sort_unstable();
            let median = walls[1];
            let bps = bundles as f64 * 1e9 / median.max(1) as f64;
            println!("    workers={w}: wall median {median} ns, {bps:.1} bundles/s");
            pool_walls.push((w, median));
        }
        let wall_1w = pool_walls[0].1;
        let wall_4w = pool_walls[2].1;
        let speedup_4w_x100 = wall_1w.saturating_mul(100) / wall_4w.max(1);
        // The >= 2x-at-4-workers acceptance bound is only meaningful
        // when the host actually has 4 cores to run them on; on
        // smaller hosts the measurement is still recorded honestly.
        let enforce = host_parallelism >= 4;
        workers_json = format!(
            "\"measured\": true, \"host_parallelism\": {host_parallelism}, \
             \"bundles\": {bundles}, \"digests_match\": true, \
             \"wall_ns_w1\": {w1}, \"wall_ns_w2\": {w2}, \"wall_ns_w4\": {w4}, \
             \"speedup_4w_x100\": {speedup_4w_x100}, \"speedup_enforced\": {enforce}",
            w1 = pool_walls[0].1,
            w2 = pool_walls[1].1,
            w4 = pool_walls[2].1,
        );
        println!("    speedup at 4 workers: {}.{:02}x", speedup_4w_x100 / 100, speedup_4w_x100 % 100);
        if enforce && speedup_4w_x100 < 200 {
            eprintln!(
                "FAIL: 4-worker drain is {speedup_4w_x100}/100x the 1-worker rate on a \
                 {host_parallelism}-way host (need >= 2x)"
            );
            std::process::exit(1);
        }
    }

    // Disk-axis measurement (skipped on ablation runs): median-of-3
    // host wall-clock over the fixed disjoint-transfer workload, each
    // iteration on a fresh disk-backed bucket store inside a scratch
    // directory (removed on success, preserved and printed on panic).
    // The queries/bundle acceptance bound is enforced in-process and
    // guarded against the committed baseline below; the per-query host
    // cost is reported only.
    let mut disk_json = String::from("\"measured\": false");
    let mut disk_guard: Option<f64> = None;
    if !ablated {
        println!("  disk axis: {DISK_BUNDLES} bundles on a disk-backed bucket store");
        let scratch = Scratch::new("bench-disk", 0x07A9);
        let mut walls = Vec::new();
        let mut mem_walls = Vec::new();
        let mut queries = 0u64;
        for iter in 0..3u32 {
            let (wall_ns, q) = disk_run(Some(&scratch.join(format!("iter{iter}"))));
            let (mem_wall_ns, mem_q) = disk_run(None);
            if q != mem_q {
                eprintln!(
                    "FAIL: disk backend changed the ORAM query count ({q} vs in-memory {mem_q})"
                );
                std::process::exit(1);
            }
            if iter > 0 && q != queries {
                eprintln!(
                    "FAIL: disk query count drifted between identical runs ({q} vs {queries})"
                );
                std::process::exit(1);
            }
            queries = q;
            walls.push(wall_ns);
            mem_walls.push(mem_wall_ns);
        }
        walls.sort_unstable();
        mem_walls.sort_unstable();
        let median = walls[1];
        let mem_median = mem_walls[1];
        let disk_ns_per_query = median as f64 / queries.max(1) as f64;
        let mem_ns_per_query = mem_median as f64 / queries.max(1) as f64;
        let disk_queries_per_bundle = queries as f64 / DISK_BUNDLES as f64;
        println!(
            "    {queries} queries, median wall {median} ns, {disk_ns_per_query:.0} ns/query, \
             {disk_queries_per_bundle:.2} queries/bundle \
             (in-memory A/B: {mem_ns_per_query:.0} ns/query)"
        );
        // ISSUE acceptance bound: the durable store must not inflate
        // ORAM traffic — at most 8 queries per short bundle.
        if disk_queries_per_bundle > 8.0 {
            eprintln!(
                "FAIL: disk-backed ORAM issued {disk_queries_per_bundle:.2} queries/bundle \
                 (bound: 8.0)"
            );
            std::process::exit(1);
        }
        disk_json = format!(
            "\"measured\": true, \"bundles\": {DISK_BUNDLES}, \"oram_height\": {DISK_ORAM_HEIGHT}, \
             \"queries\": {queries}, \"wall_ns_median\": {median}, \
             \"mem_wall_ns_median\": {mem_median}, \"mem_ns_per_query\": {mem_ns_per_query:.0}, \
             \"disk_ns_per_query\": {disk_ns_per_query:.0}, \
             \"disk_queries_per_bundle\": {disk_queries_per_bundle:.2}"
        );
        disk_guard = Some(disk_queries_per_bundle);
    }

    let mut sorted = first.latencies.clone();
    sorted.sort_unstable();
    let p50 = percentile(&sorted, 50.0);
    let p90 = percentile(&sorted, 90.0);
    let p99 = percentile(&sorted, 99.0);
    // Chip throughput: one chip runs `hevm_count` cores in parallel
    // (the §VI-D estimate), each at 1/mean-latency bundles per second.
    let cores = ServiceConfig::at_level(SecurityConfig::Full).hevm_count as f64;
    let tps = cores * first.txs as f64 * 1e9 / first.chip_ns.max(1) as f64;
    let oram_total = first.kv_queries + first.code_queries + first.prefetch_queries;
    let queries_per_bundle = oram_total as f64 / first.bundles.max(1) as f64;
    let kv_queries_per_bundle = first.kv_queries as f64 / first.bundles.max(1) as f64;
    let resolved_ratio_x100 = first
        .precision
        .resolved_jump_ratio()
        .map(|r| (r * 100.0).round() as u64);
    let ratio_json = resolved_ratio_x100
        .map(|r| r.to_string())
        .unwrap_or_else(|| String::from("null"));

    let mut violations_json = String::new();
    for (i, v) in first.audit.violations.iter().enumerate() {
        if i > 0 {
            violations_json.push(',');
        }
        violations_json.push('"');
        violations_json.push_str(&json_escape(&v.to_string()));
        violations_json.push('"');
    }

    let stats = &first.audit.stats;
    let json = format!(
        concat!(
            "{{\n",
            "  \"workload\": {{ \"transactions\": {txs}, \"bundles\": {bundles}, \"security\": \"-full\", \"starve_ablation\": {starve} }},\n",
            "  \"bundle_latency_ns\": {{ \"p50\": {p50}, \"p90\": {p90}, \"p99\": {p99}, \"mean\": {mean:.0} }},\n",
            "  \"chip_tps\": {tps:.3},\n",
            "  \"oram\": {{ \"kv_queries\": {kv}, \"code_queries\": {code}, \"prefetch_queries\": {pf}, \"queries_per_bundle\": {qpb:.2}, \"kv_queries_per_bundle\": {kvpb:.2} }},\n",
            "  \"prefetch\": {{ \"issued\": {issued}, \"drained\": {drained}, \"gap_ema_ns\": {ema} }},\n",
            "  \"preemption\": {{ {preempt} }},\n",
            "  \"workers\": {{ {workers} }},\n",
            "  \"disk\": {{ {disk} }},\n",
            "  \"plan\": {{ \"omit_plan_ablation\": {omit_plan}, \"omit_state_plan_ablation\": {omit_state_plan}, \"planned_pages\": {planned}, \"code_page_fetches\": {cpf}, \"unplanned_fetches\": {unplanned}, \"planned_kv_records\": {pkv} }},\n",
            "  \"analysis\": {{ \"contracts\": {acontracts}, \"resolved_jumps\": {aresolved}, \"unresolved_jumps\": {aunresolved}, \"resolved_jump_ratio_x100\": {aratio}, \"const_sites\": {aconst}, \"affine_sites\": {aaffine}, \"dynamic_sites\": {adynamic}, \"planned_slots\": {aslots}, \"planned_accounts\": {aaccounts}, \"dynamic_plans\": {aplans} }},\n",
            "  \"phase_means_ns\": {{ \"execute\": {exec_mean:.0}, \"bundle\": {bundle_mean:.0} }},\n",
            "  \"audit\": {{ \"passed\": {passed}, \"longest_code_burst\": {burst}, \"real_gap_cv_x100\": {rcv}, \"prefetch_gap_cv_x100\": {pcv}, \"violations\": [{violations}] }},\n",
            "  \"determinism\": {{ \"digests_match\": {dmatch}, \"telemetry_digest\": \"{digest}\" }}\n",
            "}}\n"
        ),
        txs = first.txs,
        bundles = first.bundles,
        starve = starve,
        p50 = p50,
        p90 = p90,
        p99 = p99,
        mean = first.chip_ns as f64 / first.bundles.max(1) as f64,
        tps = tps,
        kv = first.kv_queries,
        code = first.code_queries,
        pf = first.prefetch_queries,
        qpb = queries_per_bundle,
        kvpb = kv_queries_per_bundle,
        issued = first.prefetch_issued,
        drained = first.prefetch_drained,
        ema = first.gap_ema_ns,
        preempt = preempt_json,
        workers = workers_json,
        disk = disk_json,
        omit_plan = omit_plan,
        omit_state_plan = omit_state_plan,
        planned = stats.planned_pages,
        cpf = stats.code_page_fetches,
        unplanned = stats.unplanned_fetches,
        pkv = first.planned_kv_records,
        acontracts = first.precision.contracts,
        aresolved = first.precision.resolved_jumps,
        aunresolved = first.precision.unresolved_jumps,
        aratio = ratio_json,
        aconst = first.precision.const_sites,
        aaffine = first.precision.affine_sites,
        adynamic = first.precision.dynamic_sites,
        aslots = first.precision.planned_slots,
        aaccounts = first.precision.planned_accounts,
        aplans = first.precision.dynamic_plans,
        exec_mean = first.execute_mean_ns,
        bundle_mean = first.bundle_mean_ns,
        passed = first.audit.passed(),
        burst = stats.longest_code_burst,
        rcv = stats.real_gap_cv_x100,
        pcv = stats.prefetch_gap_cv_x100,
        violations = violations_json,
        dmatch = digests_match,
        digest = json_escape(&first.digest),
    );
    std::fs::write(&out_path, &json).expect("write benchmark output");

    println!("  p50/p90/p99 bundle latency: {p50}/{p90}/{p99} ns");
    println!("  chip TPS: {tps:.3}");
    println!("  ORAM queries/bundle: {queries_per_bundle:.2}");
    println!(
        "  prefetch issued={} drained={}",
        first.prefetch_issued, first.prefetch_drained
    );
    println!(
        "  plan: planned_pages={} code_page_fetches={} unplanned={} planned_kv_records={}",
        stats.planned_pages,
        stats.code_page_fetches,
        stats.unplanned_fetches,
        first.planned_kv_records,
    );
    println!(
        "  analysis: {} contracts, jumps resolved/unresolved {}/{} (ratio_x100 {ratio_json}), \
         sites const/affine/dynamic {}/{}/{}, planned slots/accounts {}/{}",
        first.precision.contracts,
        first.precision.resolved_jumps,
        first.precision.unresolved_jumps,
        first.precision.const_sites,
        first.precision.affine_sites,
        first.precision.dynamic_sites,
        first.precision.planned_slots,
        first.precision.planned_accounts,
    );
    println!("  kv queries/bundle: {kv_queries_per_bundle:.2}");
    // ISSUE acceptance bound: at least 60% of the computed jumps the
    // single-constant lattice would degrade must resolve via VSA on the
    // evaluation workload.
    match resolved_ratio_x100 {
        Some(r) if r < 60 => {
            eprintln!("FAIL: VSA resolved only {r}% of computed jumps (need >= 60%)");
            std::process::exit(1);
        }
        Some(_) => {}
        None => {
            eprintln!("FAIL: evaluation workload exercised no computed jumps");
            std::process::exit(1);
        }
    }
    println!("  audit passed: {}", first.audit.passed());
    for v in &first.audit.violations {
        println!("    violation: {v}");
    }
    println!("  telemetry digest: {}", first.digest);
    println!("  digests match across runs: {digests_match}");
    println!("  wrote {out_path}");

    if let Some((short_p99, baseline_p99)) = tail_guard {
        println!(
            "  gas-bomb tail: short p99 {short_p99} ns vs unloaded baseline {baseline_p99} ns"
        );
        // The ISSUE acceptance bound, measured and enforced here: one
        // saturating gas-bomb tenant must not push honest short-bundle
        // p99 past 2x the no-adversary baseline.
        if short_p99 > 2 * baseline_p99 {
            eprintln!(
                "FAIL: honest short-bundle p99 {short_p99} exceeds 2x the no-adversary \
                 baseline {baseline_p99} under gas-bomb load"
            );
            std::process::exit(1);
        }
        println!("OK: honest p99 within 2x baseline under gas-bomb saturation");
    }

    if !digests_match {
        eprintln!("FAIL: telemetry digest drifted between two in-process runs");
        std::process::exit(1);
    }
    if let Some(baseline) = baseline {
        let qpb = baseline.queries_per_bundle;
        let limit = qpb * 1.10;
        println!(
            "  baseline queries/bundle: {qpb:.2} (limit {limit:.2}, measured {queries_per_bundle:.2})"
        );
        if queries_per_bundle > limit {
            eprintln!(
                "FAIL: ORAM queries/bundle regressed >10%: {queries_per_bundle:.2} vs \
                 baseline {qpb:.2}"
            );
            std::process::exit(1);
        }
        if let Some(base_kvpb) = baseline.kv_queries_per_bundle {
            let limit = base_kvpb * 1.10;
            println!(
                "  baseline kv queries/bundle: {base_kvpb:.2} (limit {limit:.2}, \
                 measured {kv_queries_per_bundle:.2})"
            );
            if kv_queries_per_bundle > limit {
                eprintln!(
                    "FAIL: kv queries/bundle regressed >10%: {kv_queries_per_bundle:.2} vs \
                     baseline {base_kvpb:.2}"
                );
                std::process::exit(1);
            }
        }
        if let (Some(base_ratio), Some(fresh)) =
            (baseline.resolved_jump_ratio_x100, resolved_ratio_x100)
        {
            let floor = base_ratio * 0.90;
            println!(
                "  baseline resolved-jump ratio_x100: {base_ratio:.0} (floor {floor:.0}, \
                 measured {fresh})"
            );
            if (fresh as f64) < floor {
                eprintln!(
                    "FAIL: VSA jump resolution regressed >10%: {fresh} vs baseline \
                     {base_ratio:.0} (x100)"
                );
                std::process::exit(1);
            }
        }
        match (baseline.short_p99, tail_guard) {
            (Some(base_p99), Some((short_p99, _))) => {
                let limit = base_p99 * 1.10;
                println!(
                    "  baseline short p99: {base_p99:.0} ns (limit {limit:.0}, measured {short_p99})"
                );
                if short_p99 as f64 > limit {
                    eprintln!(
                        "FAIL: honest short-bundle p99 regressed >10%: {short_p99} vs \
                         baseline {base_p99:.0}"
                    );
                    std::process::exit(1);
                }
            }
            (None, Some(_)) => {
                println!("  baseline has no short_p99 (pre-preemption report) — p99 guard skipped");
            }
            _ => {}
        }
        // Disk-axis guard: a >10% growth of the ORAM traffic on the
        // disk-backed store fails the run. An absent field (pre-disk
        // baseline) skips silently.
        if let (Some(base_dqpb), Some(fresh_dqpb)) =
            (baseline.disk_queries_per_bundle, disk_guard)
        {
            let limit = base_dqpb * 1.10;
            println!(
                "  baseline disk queries/bundle: {base_dqpb:.2} (limit {limit:.2}, \
                 measured {fresh_dqpb:.2})"
            );
            if fresh_dqpb > limit {
                eprintln!(
                    "FAIL: disk queries/bundle regressed >10%: {fresh_dqpb:.2} vs \
                     baseline {base_dqpb:.2}"
                );
                std::process::exit(1);
            }
        }
    }
    if ablated {
        if first.audit.passed() {
            let which = if starve {
                "starvation"
            } else if omit_plan {
                "plan-omission"
            } else {
                "state-plan-omission"
            };
            eprintln!("FAIL: {which} ablation was NOT detected by the leakage auditor");
            std::process::exit(1);
        }
        if omit_plan
            && !first
                .audit
                .violations
                .iter()
                .any(|v| matches!(v, tape_sim::telemetry::audit::Violation::UnplannedCodePage { .. }))
        {
            eprintln!("FAIL: plan omission detected, but not as an UnplannedCodePage violation");
            std::process::exit(1);
        }
        if omit_state_plan
            && !first.audit.violations.iter().any(|v| {
                matches!(v, tape_sim::telemetry::audit::Violation::UnplannedStateAccess { .. })
            })
        {
            eprintln!(
                "FAIL: state-plan omission detected, but not as an UnplannedStateAccess violation"
            );
            std::process::exit(1);
        }
        println!("OK: auditor detected the injected leak (negative control)");
    } else if !first.audit.passed() {
        eprintln!("FAIL: leakage auditor found violations on the fixed pipeline");
        std::process::exit(1);
    }
}
