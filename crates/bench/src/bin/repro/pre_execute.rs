//! Deterministic pre-execution report: runs the evaluation set through
//! a `-full` HarDTAPE device twice in-process, checks that the
//! telemetry digests agree (replay determinism), reads the §IV-D leakage
//! auditor's verdict on the recorded event stream, and writes
//! `BENCH_pre_execute.json` with bundle-latency percentiles, chip TPS,
//! and ORAM traffic per bundle — all in virtual time, so the checked-in
//! file is a pure function of the code and `scripts/verify.sh --bench`
//! compares it byte for byte.
//!
//! `--ablation NAME` runs a negative control instead (see
//! [`tape_sim::fault::Ablation`]): the device boots without one
//! protection and the run *expects the auditor to fail*, with the
//! violation kind that protection exists to prevent. `Shape: REPRODUCED`
//! then means the leak was detected.
//!
//! * `starve` — the pre-fix prefetch pipeline (`CodeBurst`);
//! * `omit-plan` — the last page of every code plan mis-advertised
//!   (`UnplannedCodePage`);
//! * `omit-state-plan` — the last storage group of every state plan
//!   mis-advertised (`UnplannedStateAccess`).
//!
//! Besides the `-full` latency sweep, the report carries a
//! `preemption` section: one saturating gas-bomb tenant against three
//! honest tenants on a gas-sliced `-ES` gateway, with the honest
//! short-bundle p50/p99 under load next to the no-adversary baseline.
//! The tail-latency acceptance bound is enforced here (honest p99
//! within 2x the unloaded baseline) — the committed JSON is the measured
//! evidence.

use hardtape::{
    Bundle, Gateway, GatewayConfig, GatewayError, HarDTape, PrecisionSummary, SecurityConfig,
    ServiceConfig,
};
use tape_bench::{json_escape, percentile, Verdict};
use tape_evm::{Env, Transaction};
use tape_primitives::{Address, U256};
use tape_sim::fault::Ablation;
use tape_sim::telemetry::audit::{AuditReport, Violation};
use tape_sim::telemetry::{CounterId, HistId};
use tape_state::{Account, InMemoryState};
use tape_workload::{contracts, EvalSet};

/// The `--ablation` names this experiment accepts.
pub const ABLATIONS: &[(&str, Ablation)] = &[
    ("starve", Ablation::Starve),
    ("omit-plan", Ablation::OmitPlan),
    ("omit-state-plan", Ablation::OmitStatePlan),
];

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

fn sweep(set: &EvalSet, ablation: Option<Ablation>) -> RunOutcome {
    let config = ServiceConfig {
        oram_height: 14,
        ablation,
        ..ServiceConfig::at_level(SecurityConfig::Full)
    };
    let mut device = HarDTape::new(config, set.env.clone(), &set.genesis).expect("device boots");
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
    let stats = device.oram_stats().expect("full device has ORAM");
    let (issued, drained, gap_ema_ns) = device
        .prefetch_stats()
        .map(|p| (p.issued, p.drained, p.avg_gap_ns))
        .unwrap_or((0, 0, 0));
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
        gap_ema_ns,
        execute_mean_ns: t.hist(HistId::ExecuteNs).mean(),
        bundle_mean_ns: t.hist(HistId::BundleLatencyNs).mean(),
        digest: t.digest(),
        audit: t.audit(),
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

struct TailOutcome {
    latencies: Vec<u64>,
    preempted: u64,
}

/// One deterministic gas-bomb load schedule on a gas-sliced `-ES`
/// gateway: the bomber connects FIRST (DRR serves it ahead of honest
/// tenants inside each round — the worst case for honest latency) and
/// keeps its queue saturated while three honest tenants each submit ten
/// short bundles. Returns the honest admit→complete latencies, ascending.
fn tail_run(bombs: bool) -> Result<TailOutcome, String> {
    let mut genesis = InMemoryState::new();
    for i in 0..4u64 {
        genesis.put_account(tail_tenant(i), Account::with_balance(U256::from(u64::MAX)));
    }
    genesis.put_account(
        contracts::gasbomb_address(),
        Account::with_code(contracts::gasbomb_runtime()),
    );
    let mut config =
        ServiceConfig { oram_height: 10, ..ServiceConfig::at_level(SecurityConfig::Es) };
    config.hevm.gas_slice = Some(TAIL_SLICE);
    let device = HarDTape::new(config, Env::default(), &genesis).expect("tail device boots");
    let mut gateway = Gateway::new(
        device,
        GatewayConfig { admission_budget: 40, ..GatewayConfig::default() },
    );
    let bomber = gateway.connect(b"bench tail bomber").expect("attestation");
    let honest: Vec<u64> = (0..3u64)
        .map(|i| {
            gateway
                .connect(format!("bench tail honest {i}").as_bytes())
                .expect("attestation")
        })
        .collect();

    let mut completions = Vec::new();
    for step in 0..10u64 {
        if bombs {
            // A round retires at most one bomb segment, so one refill
            // per step saturates; tenant-local overload is expected.
            match gateway.submit(
                bomber,
                Bundle::single(contracts::gasbomb_tx(tail_tenant(3), TAIL_BOMB_GAS)),
            ) {
                Ok(_) | Err(GatewayError::Overloaded { .. }) => {}
                Err(other) => return Err(format!("unexpected bomber submit error: {other}")),
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
        completions.extend(gateway.run_round());
    }
    completions.extend(gateway.run_until_idle());
    let mut latencies: Vec<u64> = completions
        .iter()
        .filter(|c| c.outcome.is_ok() && honest.contains(&c.session))
        .map(|c| c.completed_at - c.admitted_at)
        .collect();
    latencies.sort_unstable();
    Ok(TailOutcome { latencies, preempted: gateway.stats().preempted })
}

pub fn run(out_path: &str, ablation: Option<Ablation>) -> Verdict {
    match check(out_path, ablation) {
        Ok(shape) => Verdict::Reproduced(shape),
        Err(why) => Verdict::Drifted(why),
    }
}

fn check(out_path: &str, ablation: Option<Ablation>) -> Result<&'static str, String> {
    let ablation_name = ABLATIONS.iter().find(|(_, a)| Some(*a) == ablation).map(|(name, _)| *name);
    let set = EvalSet::generate(&tape_bench::eval_config());
    println!("pre-execute: {} txs, -full, ablation={}", set.len(), ablation_name.unwrap_or("none"));

    let first = sweep(&set, ablation);
    let second = sweep(&set, ablation);
    let digests_match = first.digest == second.digest;

    // Gas-bomb tail scenario (skipped on ablation runs — those are
    // negative controls for the auditor, not latency measurements).
    let mut preempt_json = String::from("\"measured\": false");
    let mut tail_guard: Option<(u64, u64)> = None;
    if ablation.is_none() {
        println!("  tail scenario: 1 gas-bomb tenant vs 3 honest, gas_slice={TAIL_SLICE}");
        let base = tail_run(false)?.latencies;
        let loaded = tail_run(true)?;
        if loaded.preempted == 0 {
            return Err("gas bombs never preempted under slicing".into());
        }
        let load = &loaded.latencies;
        let baseline_p50 = percentile(&base, 50.0);
        let baseline_p99 = percentile(&base, 99.0);
        let short_p50 = percentile(load, 50.0);
        let short_p99 = percentile(load, 99.0);
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

    let violations_json: Vec<String> = first
        .audit
        .violations
        .iter()
        .map(|v| format!("\"{}\"", json_escape(&v.to_string())))
        .collect();

    let stats = &first.audit.stats;
    let json = format!(
        concat!(
            "{{\n",
            "  \"workload\": {{ \"transactions\": {txs}, \"bundles\": {bundles}, \"security\": \"-full\", \"ablation\": {ablation} }},\n",
            "  \"bundle_latency_ns\": {{ \"p50\": {p50}, \"p90\": {p90}, \"p99\": {p99}, \"mean\": {mean:.0} }},\n",
            "  \"chip_tps\": {tps:.3},\n",
            "  \"oram\": {{ \"kv_queries\": {kv}, \"code_queries\": {code}, \"prefetch_queries\": {pf}, \"queries_per_bundle\": {qpb:.2}, \"kv_queries_per_bundle\": {kvpb:.2} }},\n",
            "  \"prefetch\": {{ \"issued\": {issued}, \"drained\": {drained}, \"gap_ema_ns\": {ema} }},\n",
            "  \"preemption\": {{ {preempt} }},\n",
            "  \"plan\": {{ \"planned_pages\": {planned}, \"code_page_fetches\": {cpf}, \"unplanned_fetches\": {unplanned}, \"planned_kv_records\": {pkv} }},\n",
            "  \"analysis\": {{ \"contracts\": {acontracts}, \"resolved_jumps\": {aresolved}, \"unresolved_jumps\": {aunresolved}, \"resolved_jump_ratio_x100\": {aratio}, \"const_sites\": {aconst}, \"affine_sites\": {aaffine}, \"dynamic_sites\": {adynamic}, \"planned_slots\": {aslots}, \"planned_accounts\": {aaccounts}, \"dynamic_plans\": {aplans} }},\n",
            "  \"phase_means_ns\": {{ \"execute\": {exec_mean:.0}, \"bundle\": {bundle_mean:.0} }},\n",
            "  \"audit\": {{ \"passed\": {passed}, \"longest_code_burst\": {burst}, \"real_gap_cv_x100\": {rcv}, \"prefetch_gap_cv_x100\": {pcv}, \"violations\": [{violations}] }},\n",
            "  \"determinism\": {{ \"digests_match\": {dmatch}, \"telemetry_digest\": \"{digest}\" }}\n",
            "}}\n"
        ),
        txs = first.txs,
        bundles = first.bundles,
        ablation = ablation_name.map_or(String::from("null"), |name| format!("\"{name}\"")),
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
        violations = violations_json.join(","),
        dmatch = digests_match,
        digest = json_escape(&first.digest),
    );
    std::fs::write(out_path, &json).map_err(|err| format!("cannot write {out_path}: {err}"))?;

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
    println!("  audit passed: {}", first.audit.passed());
    for v in &first.audit.violations {
        println!("    violation: {v}");
    }
    println!("  telemetry digest: {}", first.digest);
    println!("  digests match across runs: {digests_match}");
    println!("  wrote {out_path}");

    // Acceptance bound: at least 60% of the computed jumps the
    // single-constant lattice would degrade must resolve via VSA on the
    // evaluation workload.
    match resolved_ratio_x100 {
        Some(r) if r < 60 => {
            return Err(format!("VSA resolved only {r}% of computed jumps (need >= 60%)"));
        }
        Some(_) => {}
        None => return Err("evaluation workload exercised no computed jumps".into()),
    }
    if let Some((short_p99, baseline_p99)) = tail_guard {
        println!(
            "  gas-bomb tail: short p99 {short_p99} ns vs unloaded baseline {baseline_p99} ns"
        );
        // Acceptance bound: one saturating gas-bomb tenant must not push
        // honest short-bundle p99 past 2x the no-adversary baseline.
        if short_p99 > 2 * baseline_p99 {
            return Err(format!(
                "honest short-bundle p99 {short_p99} exceeds 2x the no-adversary baseline \
                 {baseline_p99} under gas-bomb load"
            ));
        }
    }
    if !digests_match {
        return Err("telemetry digest drifted between two in-process runs".into());
    }
    let Some(ablation) = ablation else {
        return if first.audit.passed() {
            Ok("audit green, digests replay, honest p99 within 2x under gas-bomb load")
        } else {
            Err("leakage auditor found violations on the fixed pipeline".into())
        };
    };
    let expected: fn(&Violation) -> bool = match ablation {
        Ablation::Starve => |v| matches!(v, Violation::CodeBurst { .. }),
        Ablation::OmitPlan => |v| matches!(v, Violation::UnplannedCodePage { .. }),
        Ablation::OmitStatePlan => |v| matches!(v, Violation::UnplannedStateAccess { .. }),
        Ablation::UncoveredCheckpoint | Ablation::MirrorOnlyRollback => {
            unreachable!("not in ABLATIONS: this workload neither preempts nor reorgs")
        }
    };
    if first.audit.passed() {
        Err(format!("{ablation:?} ablation was NOT detected by the leakage auditor"))
    } else if !first.audit.violations.iter().any(expected) {
        Err(format!("{ablation:?} ablation detected, but not as the violation it should cause"))
    } else {
        Ok("negative control: the auditor detected the injected leak")
    }
}
