//! One replica: regenerate the inputs, boot a fresh program instance and
//! drive the whole schedule once, timing every call into the program.
//!
//! A replica runs in a process of its own (`--replica`, spawned by
//! [`crate::run`]) and prints a line-oriented [`Report`]: the cost of each
//! timed call by schedule index, then `exact` facts — receipts, virtual
//! times, ORAM and allocation counts, digests — which every replica of a
//! run must reproduce bit for bit.

use crate::alloc::{Snapshot, LEDGER};
use crate::trace::Tracer;
use crate::workloads::{self, Op, Receipt, Workload, ORAM_HEIGHT};
use hardtape::{
    Bundle, BundleReport, Gateway, GatewayConfig, HarDTape, SecurityConfig, ServiceConfig,
    UserHandle,
};
use std::path::{Path, PathBuf};
use std::time::Instant;
use tape_evm::Transaction;
use tape_oram::{DiskStoreConfig, QueryStats};
use tape_sim::telemetry::audit::{audit_events, AuditConfig};
use tape_sim::telemetry::CounterId;

/// What to run. The defaults ([`Plan::measured`]) are the workload as
/// `BENCHMARK.json` defines it; the traced run overrides single fields to
/// replay the same schedule on other rungs, drives and stores.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Whose schedule.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Security rung of the device.
    pub level: SecurityConfig,
    /// Drive through `Gateway` (else direct `pre_execute`).
    pub gateway: bool,
    /// ORAM buckets in a `DiskStore` (else in memory; the restart is
    /// then skipped — there is nothing to restart from).
    pub disk: bool,
    /// `GatewayConfig::workers`.
    pub workers: usize,
    /// Write the spans as Chrome trace JSON here.
    pub trace_to: Option<PathBuf>,
}

impl Plan {
    /// The workload as measured end to end.
    pub fn measured(workload: Workload, seed: u64) -> Plan {
        Plan {
            workload,
            seed,
            level: workload.level(),
            gateway: workload.through_gateway(),
            disk: workload.on_disk(),
            workers: 1,
            trace_to: None,
        }
    }

    /// The command line (after `--replica`) that reproduces this plan.
    pub fn to_args(&self) -> Vec<String> {
        let mut args = vec![
            self.workload.name().to_string(),
            self.seed.to_string(),
            self.level.label().to_string(),
            if self.gateway { "gateway" } else { "direct" }.to_string(),
            if self.disk { "disk" } else { "memory" }.to_string(),
            self.workers.to_string(),
        ];
        args.extend(self.trace_to.iter().map(|p| p.display().to_string()));
        args
    }

    /// Parses [`Plan::to_args`].
    pub fn from_args(args: &[String]) -> Option<Plan> {
        let [workload, seed, level, drive, store, workers, trace_to @ ..] = args else {
            return None;
        };
        Some(Plan {
            workload: Workload::parse(workload)?,
            seed: seed.parse().ok()?,
            level: SecurityConfig::ALL
                .into_iter()
                .find(|l| l.label() == level)?,
            gateway: drive == "gateway",
            disk: store == "disk",
            workers: workers.parse().ok()?,
            trace_to: trace_to.first().map(PathBuf::from),
        })
    }
}

/// Which call into the program a timed call was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `HarDTape::new` at boot.
    Boot,
    /// `Gateway::new`.
    Wrap,
    /// `Gateway::connect` / `HarDTape::connect_user`.
    Connect,
    /// `Gateway::submit`.
    Submit,
    /// `Gateway::run_round`.
    Round,
    /// `HarDTape::pre_execute`.
    Bundle,
    /// `HarDTape::sync_block`.
    Sync,
    /// Drop the device and `HarDTape::new` over its store.
    Restart,
}

impl Call {
    const ALL: [Call; 8] = [
        Call::Boot,
        Call::Wrap,
        Call::Connect,
        Call::Submit,
        Call::Round,
        Call::Bundle,
        Call::Sync,
        Call::Restart,
    ];

    /// Span and report name.
    pub fn name(self) -> &'static str {
        match self {
            Call::Boot => "HarDTape::new",
            Call::Wrap => "Gateway::new",
            Call::Connect => "connect",
            Call::Submit => "Gateway::submit",
            Call::Round => "Gateway::run_round",
            Call::Bundle => "HarDTape::pre_execute",
            Call::Sync => "HarDTape::sync_block",
            Call::Restart => "restart",
        }
    }

    /// Set-up calls make `setup_s`; the rest is the measured phase.
    pub fn is_setup(self) -> bool {
        matches!(self, Call::Boot | Call::Wrap | Call::Connect)
    }
}

/// One replica's results.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Host nanoseconds of every timed call, in schedule order.
    pub calls: Vec<(Call, u64)>,
    /// Peak resident set of the replica process, KiB (not exact).
    pub rss_kb: u64,
    /// Facts that must be identical in every replica, in a fixed order.
    pub exact: Vec<(String, String)>,
    /// The allocator's tallies. They repeat exactly in all but about one
    /// replica in a hundred — `HashMap`s inside the program are seeded
    /// per process, and where a removal leaves a tombstone decides
    /// whether a later insert rehashes in place or allocates — so the
    /// parent takes their median and wants replicas within 1 % of it.
    pub counts: Vec<(String, u64)>,
}

impl Report {
    /// An exact fact by key.
    pub fn fact(&self, key: &str) -> Option<&str> {
        self.exact
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// A numeric exact fact (0 when absent).
    pub fn num(&self, key: &str) -> f64 {
        self.fact(key).and_then(|v| v.parse().ok()).unwrap_or(0.0)
    }

    /// A list-valued exact fact.
    pub fn list(&self, key: &str) -> Vec<u64> {
        self.fact(key)
            .map(|v| {
                v.split_whitespace()
                    .filter_map(|x| x.parse().ok())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The receipts, `None` where the bundle did not complete.
    pub fn receipts(&self) -> Vec<Option<Receipt>> {
        self.fact("receipts")
            .map(|v| v.split_whitespace().map(parse_receipt).collect())
            .unwrap_or_default()
    }

    /// Serialises for the parent process.
    pub fn print(&self) -> String {
        let mut out = String::new();
        for (call, ns) in &self.calls {
            let index = Call::ALL
                .iter()
                .position(|c| c == call)
                .expect("listed in ALL");
            out.push_str(&format!("call {index} {ns}\n"));
        }
        out.push_str(&format!("rss {}\n", self.rss_kb));
        for (key, value) in &self.exact {
            out.push_str(&format!("exact {key} {value}\n"));
        }
        for (key, value) in &self.counts {
            out.push_str(&format!("count {key} {value}\n"));
        }
        out.push_str("end\n");
        out
    }

    /// Parses [`Report::print`]'s output; `None` unless complete.
    pub fn parse(text: &str) -> Option<Report> {
        let mut report = Report::default();
        let mut complete = false;
        for line in text.lines() {
            let mut parts = line.splitn(3, ' ');
            match (parts.next()?, parts.next(), parts.next()) {
                ("call", Some(index), Some(ns)) => {
                    let call = *Call::ALL.get(index.parse::<usize>().ok()?)?;
                    report.calls.push((call, ns.parse().ok()?));
                }
                ("rss", Some(kb), None) => report.rss_kb = kb.parse().ok()?,
                ("exact", Some(key), value) => {
                    report
                        .exact
                        .push((key.to_string(), value.unwrap_or("").to_string()));
                }
                ("count", Some(key), Some(value)) => {
                    report.counts.push((key.to_string(), value.parse().ok()?));
                }
                ("end", None, None) => complete = true,
                _ => return None,
            }
        }
        complete.then_some(report)
    }
}

fn print_receipt(receipt: &Option<Receipt>) -> String {
    match receipt {
        Some(r) => format!("{}:{}:{}", u8::from(r.success), r.gas_used, r.output),
        None => "-".to_string(),
    }
}

fn parse_receipt(text: &str) -> Option<Receipt> {
    let mut parts = text.split(':');
    let success = parts.next()? == "1";
    let gas_used = parts.next()?.parse().ok()?;
    let output = parts.next()?.parse().ok()?;
    Some(Receipt {
        success,
        gas_used,
        output,
    })
}

/// Where replicas keep disk stores and traces: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The device configuration of every benchmark device: defaults (so the
/// device seed is fixed) at the given rung, with the benchmark's tree
/// height.
pub fn service_config(level: SecurityConfig, store_dir: Option<PathBuf>) -> ServiceConfig {
    ServiceConfig {
        oram_height: ORAM_HEIGHT,
        store_dir,
        ..ServiceConfig::at_level(level)
    }
}

/// Times calls into the program and tallies what they cost.
struct Meter {
    calls: Vec<(Call, u64)>,
    setup: Snapshot,
    measured: Snapshot,
    tracer: Tracer,
}

impl Meter {
    fn call<T>(&mut self, call: Call, ticket: u64, f: impl FnOnce() -> T) -> T {
        let span = self.tracer.enter(call.name(), ticket);
        let before = LEDGER.snapshot();
        let started = Instant::now();
        let out = f();
        let ns = started.elapsed().as_nanos() as u64;
        let spent = LEDGER.snapshot().since(&before);
        self.tracer.exit(span);
        self.calls.push((call, ns));
        let tally = if call.is_setup() {
            &mut self.setup
        } else {
            &mut self.measured
        };
        tally.calls += spent.calls;
        tally.bytes += spent.bytes;
        out
    }
}

/// The program instance under test, behind either drive.
enum Driver {
    /// `device` is `None` only while a restart has stopped it.
    Direct {
        device: Option<Box<HarDTape>>,
        users: Vec<UserHandle>,
    },
    Gateway {
        gateway: Box<Gateway>,
        sessions: Vec<u64>,
    },
}

impl Driver {
    fn device(&self) -> &HarDTape {
        match self {
            Driver::Direct { device, .. } => device.as_deref().expect("device is running"),
            Driver::Gateway { gateway, .. } => gateway.device(),
        }
    }

    fn device_mut(&mut self) -> &mut HarDTape {
        match self {
            Driver::Direct { device, .. } => device.as_deref_mut().expect("device is running"),
            Driver::Gateway { gateway, .. } => gateway.device_mut(),
        }
    }
}

/// Per-replica tallies of what the program returned.
#[derive(Default)]
struct Outcome {
    receipts: Vec<Option<Receipt>>,
    virt_bundle_ns: Vec<u64>,
    virt_sync_ns: u64,
    /// Bytes of every encoded bundle and trace: what crosses the channel.
    wire_bytes: u64,
    txs: u64,
    instructions: u64,
    swaps: u64,
    l1_misses: u64,
    rounds: u64,
    blocks: u64,
    delta_accounts: u64,
    failed: u64,
    restart_digest_match: Option<bool>,
    recovery_replays: u64,
}

impl Outcome {
    fn bundle_done(&mut self, result: Result<&BundleReport, String>) {
        match result {
            Ok(report) => {
                self.receipts.push(report.results.first().map(Receipt::of));
                self.virt_bundle_ns.push(report.total_ns);
                self.wire_bytes += report.encode().len() as u64;
                self.txs += report.results.len() as u64;
                self.instructions += report.hevm_stats.instructions;
                self.swaps += report.hevm_stats.swaps;
                self.l1_misses += report.hevm_stats.l1_misses;
            }
            Err(why) => {
                eprintln!("bundle {} failed: {why}", self.receipts.len());
                self.receipts.push(None);
                self.virt_bundle_ns.push(0);
                self.failed += 1;
            }
        }
    }
}

/// Where a device's cumulative counters stood when measuring began.
struct Marks {
    clock: u64,
    oram: QueryStats,
    sync_pages: u64,
    disk_writes: u64,
    disk_fsyncs: u64,
}

impl Marks {
    fn of(device: &HarDTape) -> Marks {
        let t = device.telemetry();
        Marks {
            clock: device.clock().now(),
            oram: device.oram_stats().unwrap_or_default(),
            sync_pages: t.counter(CounterId::OramSync),
            disk_writes: t.counter(CounterId::DiskWrites),
            disk_fsyncs: t.counter(CounterId::DiskFsyncs),
        }
    }
}

/// What the device itself counted, summed over its incarnations: a
/// restart boots a new `HarDTape` whose clock, statistics and telemetry
/// start from zero.
#[derive(Default)]
struct DeviceTotals {
    clock_ns: u64,
    oram: QueryStats,
    sync_pages: u64,
    disk_writes: u64,
    disk_fsyncs: u64,
    contracts: usize,
    resolved_x100: u64,
    events: u64,
    dropped: u64,
    digests: Vec<String>,
    audit_failures: usize,
}

impl DeviceTotals {
    /// Folds in what `device` did since `since`, and its whole telemetry
    /// stream (the §IV-D audit judges a device's life from boot).
    fn absorb(&mut self, device: &HarDTape, since: &Marks) {
        let now = Marks::of(device);
        self.clock_ns += now.clock - since.clock;
        self.oram.kv_queries += now.oram.kv_queries - since.oram.kv_queries;
        self.oram.code_queries += now.oram.code_queries - since.oram.code_queries;
        self.oram.prefetch_queries += now.oram.prefetch_queries - since.oram.prefetch_queries;
        self.sync_pages += now.sync_pages - since.sync_pages;
        self.disk_writes += now.disk_writes - since.disk_writes;
        self.disk_fsyncs += now.disk_fsyncs - since.disk_fsyncs;
        let precision = device.analysis_precision();
        if precision.contracts > self.contracts {
            self.contracts = precision.contracts;
            self.resolved_x100 = precision
                .resolved_jump_ratio()
                .map_or(0, |r| (r * 100.0).round() as u64);
        }
        let telemetry = device.telemetry();
        let audit = audit_events(
            &telemetry.events(),
            telemetry.dropped(),
            &AuditConfig::default(),
        );
        for violation in &audit.violations {
            eprintln!("audit violation: {violation}");
        }
        self.audit_failures += audit.violations.len();
        self.events += telemetry.recorded();
        self.dropped += telemetry.dropped();
        self.digests.push(telemetry.digest());
    }
}

fn bundle_of(tx: &Transaction) -> Bundle {
    Bundle::single(tx.clone())
}

fn bundle_for(tx: &Transaction, out: &mut Outcome) -> Bundle {
    let bundle = bundle_of(tx);
    out.wire_bytes += bundle.encode().len() as u64;
    bundle
}

fn run_round(meter: &mut Meter, driver: &mut Driver, txs: &[Transaction], out: &mut Outcome) {
    out.rounds += 1;
    match driver {
        Driver::Direct { device, users } => {
            let device = device.as_deref_mut().expect("device is running");
            for (tx, user) in txs.iter().zip(users.iter_mut()) {
                let bundle = bundle_for(tx, out);
                let ticket = out.receipts.len() as u64;
                let result = meter.call(Call::Bundle, ticket, || device.pre_execute(user, &bundle));
                out.bundle_done(result.as_ref().map_err(ToString::to_string));
            }
        }
        Driver::Gateway { gateway, sessions } => {
            let mut tickets = Vec::with_capacity(txs.len());
            for (tx, session) in txs.iter().zip(sessions.iter()) {
                let bundle = bundle_for(tx, out);
                let ticket = out.receipts.len() as u64 + tickets.len() as u64;
                let admitted =
                    meter.call(Call::Submit, ticket, || gateway.submit(*session, bundle));
                tickets.push(admitted.map_err(|e| format!("rejected: {e}")));
            }
            let round = out.rounds;
            let completions = meter.call(Call::Round, round, || gateway.run_round());
            for ticket in tickets {
                let result = ticket.and_then(|t| {
                    let done = completions.iter().find(|c| c.ticket == t);
                    let done = done.ok_or_else(|| "not completed by its round".to_string())?;
                    done.outcome.as_ref().map_err(ToString::to_string)
                });
                out.bundle_done(result);
            }
        }
    }
}

/// `sync_disk_full` stops its device only where the store has just
/// trimmed its journal: `DiskStore::commit` checkpoints into a segment
/// that can roll mid-transaction, so a stop between two trims recovers a
/// tree missing part of that transaction (see `benchmark/README.md`).
/// Until the store is fixed, untimed filler bundles advance the commit
/// sequence to the next trim boundary. Remove this with that fix.
fn pad_to_trim_boundary(device: &mut HarDTape, user: &mut UserHandle, fillers: &[Transaction]) {
    let trim_every = DiskStoreConfig::new("", [0; 32]).wal_trim_every;
    for tx in fillers.iter().cycle().take(16 * trim_every as usize) {
        if device
            .oram_committed_seq()
            .is_some_and(|seq| seq % trim_every == 0)
        {
            return;
        }
        device
            .pre_execute(user, &bundle_of(tx))
            .expect("filler bundle accepted");
    }
    panic!("no journal-trim boundary reached with filler bundles");
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Runs one replica of `plan` in this process.
pub fn run(plan: &Plan) -> Report {
    let inputs = workloads::generate(plan.workload, plan.seed);
    let store_dir = plan.disk.then(|| {
        let dir = out_dir().join(format!("store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    });
    let config = service_config(plan.level, store_dir.clone());

    let mut meter = Meter {
        calls: Vec::with_capacity(inputs.attempted() * 2 + 16),
        setup: Snapshot::default(),
        measured: Snapshot::default(),
        tracer: Tracer::new(plan.trace_to.is_some(), inputs.attempted() * 2 + 16),
    };
    let mut out = Outcome::default();
    out.receipts.reserve(inputs.bundles());
    out.virt_bundle_ns.reserve(inputs.bundles());

    // Peak live heap is the program's: the harness's own inputs are
    // already allocated and are subtracted as the baseline.
    LEDGER.reset_peak();
    let baseline = LEDGER.snapshot().live;

    let setup_span = meter.tracer.enter("setup", 0);
    let device = meter
        .call(Call::Boot, 0, || {
            HarDTape::new(config.clone(), inputs.env.clone(), &inputs.genesis)
        })
        .expect("device boots");
    let mut driver = if plan.gateway {
        let gw_config = GatewayConfig {
            workers: plan.workers,
            ..GatewayConfig::default()
        };
        let mut gateway = Box::new(meter.call(Call::Wrap, 0, || Gateway::new(device, gw_config)));
        let sessions = (inputs.tenant_seeds.iter().enumerate())
            .map(|(i, seed)| {
                meter
                    .call(Call::Connect, i as u64, || gateway.connect(seed))
                    .expect("attestation")
            })
            .collect();
        Driver::Gateway { gateway, sessions }
    } else {
        let mut device = device;
        let users = (inputs.tenant_seeds.iter().enumerate())
            .map(|(i, seed)| {
                meter
                    .call(Call::Connect, i as u64, || device.connect_user(seed))
                    .expect("attestation")
            })
            .collect();
        Driver::Direct {
            device: Some(Box::new(device)),
            users,
        }
    };
    meter.tracer.exit(setup_span);

    let setup_sync_pages = driver.device().telemetry().counter(CounterId::OramSync);
    let mut marks = Marks::of(driver.device());
    let mut totals = DeviceTotals::default();
    let measured_span = meter.tracer.enter("measured", 0);
    let mut last_round: &[Transaction] = &[];
    let mut peak_so_far = 0;
    for op in &inputs.ops {
        match op {
            Op::Round(txs) => {
                last_round = txs;
                run_round(&mut meter, &mut driver, txs, &mut out);
            }
            Op::Sync(block) => {
                let (header, delta) = (&block.0, &block.1);
                let device = driver.device_mut();
                let before = device.clock().now();
                let synced = meter.call(Call::Sync, header.number, || {
                    device.sync_block(header, delta)
                });
                out.virt_sync_ns += device.clock().now() - before;
                out.blocks += 1;
                out.delta_accounts += (delta.accounts.len() + delta.deleted.len()) as u64;
                if let Err(err) = synced {
                    eprintln!("block {} refused: {err}", header.number);
                    out.failed += 1;
                }
            }
            Op::Restart => {
                let Driver::Direct { device, users } = &mut driver else {
                    panic!("the restart is scheduled on a direct-drive workload only");
                };
                if !plan.disk {
                    continue;
                }
                let running = device.as_deref_mut().expect("device is running");
                // The harness's own bookkeeping and the filler bundles
                // are not the workload's heap: keep the peak so far and
                // start tracking afresh once they are done.
                peak_so_far = LEDGER.snapshot().peak;
                totals.absorb(running, &marks);
                pad_to_trim_boundary(running, &mut users[0], last_round);
                let stopped = running.oram_state_digest();
                LEDGER.reset_peak();
                let fresh = meter.call(Call::Restart, 0, || {
                    // Dropping the device is the stop: whatever the store
                    // had not made durable is gone.
                    drop(device.take());
                    HarDTape::new(config.clone(), inputs.env.clone(), &inputs.genesis)
                });
                let fresh = fresh.expect("device boots again over its store");
                out.restart_digest_match = Some(fresh.oram_state_digest() == stopped);
                out.recovery_replays = fresh.recovery_report().map_or(0, |r| u64::from(r.replayed));
                if out.restart_digest_match != Some(true) {
                    eprintln!("restart recovered a different tree");
                    out.failed += 1;
                }
                marks = Marks::of(&fresh);
                *device = Some(Box::new(fresh));
            }
        }
    }
    meter.tracer.exit(measured_span);
    let peak = LEDGER.snapshot().peak.max(peak_so_far);

    let device = driver.device();
    totals.absorb(device, &marks);
    let gw = match &driver {
        Driver::Gateway { gateway, .. } => gateway.stats(),
        Driver::Direct { .. } => Default::default(),
    };

    let list = |values: &[u64]| {
        values
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(" ")
    };
    let mut exact: Vec<(String, String)> = Vec::new();
    let mut fact = |key: &str, value: &dyn std::fmt::Display| {
        exact.push((key.to_string(), value.to_string()));
    };
    let receipts: Vec<String> = out.receipts.iter().map(print_receipt).collect();
    fact("receipts", &receipts.join(" "));
    fact("virt_bundle_ns", &list(&out.virt_bundle_ns));
    fact("virt_clock_ns", &totals.clock_ns);
    fact("virt_sync_ns", &out.virt_sync_ns);
    fact("wire_bytes", &out.wire_bytes);
    fact("hevm_count", &device.config().hevm_count);
    fact("bundles", &out.receipts.len());
    fact("txs", &out.txs);
    fact("blocks", &out.blocks);
    fact("delta_accounts", &out.delta_accounts);
    fact("rounds", &out.rounds);
    fact("failed", &out.failed);
    fact("instructions", &out.instructions);
    fact("swaps", &out.swaps);
    fact("l1_misses", &out.l1_misses);
    fact("oram_kv", &totals.oram.kv_queries);
    fact("oram_code", &totals.oram.code_queries);
    fact("oram_prefetch", &totals.oram.prefetch_queries);
    fact("oram_sync_pages_setup", &setup_sync_pages);
    fact("oram_sync_pages", &totals.sync_pages);
    fact("disk_writes", &totals.disk_writes);
    fact("disk_fsyncs", &totals.disk_fsyncs);
    fact("committed_seq", &device.oram_committed_seq().unwrap_or(0));
    fact("recovery_replays", &out.recovery_replays);
    let restart = out.restart_digest_match;
    fact(
        "restart_digest_match",
        &restart.map_or("none".to_string(), |m| m.to_string()),
    );
    fact("gw_admitted", &gw.admitted);
    fact("gw_rejected", &gw.rejected_overloaded);
    fact("gw_shed", &(gw.shed_deadline + gw.shed_reorg));
    fact("gw_preempted", &gw.preempted);
    fact("gw_completed_err", &gw.completed_err);
    fact("analysis_contracts", &totals.contracts);
    fact("analysis_resolved_x100", &totals.resolved_x100);
    fact("telemetry_events", &totals.events);
    fact("telemetry_dropped", &totals.dropped);
    fact("telemetry_digest", &totals.digests.join("+"));
    fact("audit_passed", &(totals.audit_failures == 0));

    let disk_bytes = store_dir.as_deref().map_or(0, dir_bytes);
    fact("disk_bytes", &disk_bytes);

    drop(driver);
    if let Some(dir) = &store_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    if let Some(path) = &plan.trace_to {
        if let Err(err) = meter.tracer.write_chrome_json(path) {
            eprintln!("cannot write {}: {err}", path.display());
        }
    }
    let counts = vec![
        ("allocs_setup".to_string(), meter.setup.calls),
        ("alloc_bytes_setup".to_string(), meter.setup.bytes),
        ("allocs_measured".to_string(), meter.measured.calls),
        ("alloc_bytes_measured".to_string(), meter.measured.bytes),
        ("peak_heap_bytes".to_string(), peak - baseline),
    ];
    Report {
        calls: meter.calls,
        rss_kb: peak_rss_kb(),
        exact,
        counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_round_trips_through_its_arguments() {
        let mut plan = Plan::measured(Workload::SyncDiskFull, 42);
        plan.trace_to = Some(PathBuf::from("benchmark/out/t.json"));
        let back = Plan::from_args(&plan.to_args()).expect("parses");
        assert_eq!(format!("{back:?}"), format!("{plan:?}"));
        let plain = Plan::measured(Workload::TransfersEsGw, 1);
        assert_eq!(
            format!("{:?}", Plan::from_args(&plain.to_args()).unwrap()),
            format!("{plain:?}")
        );
        assert!(Plan::from_args(&["nonsense".to_string()]).is_none());
    }

    #[test]
    fn report_round_trips_through_its_text_form() {
        let receipt = Receipt {
            success: true,
            gas_used: 21_000,
            output: tape_crypto::keccak256(b"out"),
        };
        let report = Report {
            calls: vec![(Call::Boot, 5), (Call::Submit, 7), (Call::Restart, 11)],
            rss_kb: 1234,
            exact: vec![
                (
                    "receipts".into(),
                    format!("{} -", print_receipt(&Some(receipt.clone()))),
                ),
                ("virt_bundle_ns".into(), "1 2 3".into()),
                ("empty".into(), String::new()),
            ],
            counts: vec![("allocs_measured".into(), 493_800)],
        };
        let parsed = Report::parse(&report.print()).expect("parses");
        assert_eq!(parsed.calls, report.calls);
        assert_eq!(parsed.rss_kb, 1234);
        assert_eq!(parsed.exact, report.exact);
        assert_eq!(parsed.counts, report.counts);
        assert_eq!(parsed.receipts(), vec![Some(receipt), None]);
        assert_eq!(parsed.list("virt_bundle_ns"), vec![1, 2, 3]);
        // A replica that died mid-report is not a report.
        assert!(Report::parse("call 0 5\nrss 1\n").is_none());
    }
}
