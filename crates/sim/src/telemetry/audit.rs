//! Leakage auditor: mechanical checks of the §IV-D indistinguishability
//! invariants, folded over the [`TelemetryEvent`] stream as it is
//! recorded.
//!
//! The paper's defense against memory-bus traffic analysis rests on four
//! observable properties, each of which this module verifies from the
//! event stream alone (no access to internal state — the auditor sees
//! what the adversary sees):
//!
//! 1. **Uniform blocks** — every ORAM query moves exactly one
//!    fixed-size block; a differently sized access immediately types the
//!    query.
//! 2. **No code bursts** — demand code-page fetches are never issued in
//!    tight back-to-back runs longer than a small bound. A burst is a
//!    maximal run of consecutive `Code`-kind queries whose inter-arrival
//!    gaps all fall below `BURST_GAP_NS`; bare wire cost with no
//!    interleaved pacing is exactly what the starved prefetcher produces
//!    at frame end.
//! 3. **Gap indistinguishability** — the inter-query gap distribution of
//!    prefetch queries must be statistically indistinct from real
//!    queries: class means within a ratio band, and each class's
//!    coefficient of variation bounded (a bimodal or spiky class is a
//!    classifier feature).
//! 4. **Swap noise** — every call-stack swap's observed page count must
//!    cover its true page count, and noise must actually be present
//!    across the run (all-zero noise means sizes leak verbatim).
//! 5. **Plan coverage** — for every contract whose static analysis
//!    advertised a page-reachability plan ([`TelemetryEvent::PlanPage`]),
//!    every real code-page fetch ([`TelemetryEvent::CodePageFetch`])
//!    must land inside the set advertised before it. A fetch outside the
//!    plan is either a leak (the executor touched code the analyzer
//!    proved unreachable — data-dependent control flow escaping the
//!    model) or an analyzer soundness bug; both are reportable. A
//!    contract with no plan yet is exempt. State plans
//!    ([`TelemetryEvent::PlanKv`]) bind record fetches the same way.
//! 6. **Reorg lens** — a world-state rollback
//!    ([`TelemetryEvent::RollbackBegin`] … [`RollbackEnd`]) must look
//!    exactly like forward block sync on the bus: only sync-shaped page
//!    writes may appear inside the window (a K-V/code/prefetch query
//!    during rollback types the operation), and the window must carry at
//!    least one page write per account the rollback advertises — a
//!    rollback applied *outside* the ORAM query path (mirror-only
//!    restore) produces a visibly empty window and fails the audit.
//! 7. **Segment lens** — a gas-slice suspension
//!    ([`TelemetryEvent::SegmentYield`] … [`SegmentEnd`]) must be
//!    observable only as ordinary swap traffic: the window must carry at
//!    least one swap-out per frame the suspension advertises (a
//!    checkpoint captured in-enclave with no bus traffic is a silent gap
//!    the adversary can correlate with scheduling), and no ORAM query of
//!    any kind may ride inside the window — checkpointing touches layer
//!    3 only, so ORAM traffic there types the pause as a preemption.
//! 8. **Prefetch floor** — precise static plans can leave the prefetcher
//!    nearly idle, starving check 3 of samples. A *genuinely idle* class
//!    (at most `PREFETCH_IDLE_FLOOR` queries) has no distribution for the
//!    adversary to type; a *populated* one (`MIN_CLASS_SAMPLES` gap
//!    samples or more) gets the statistics in full. The underpowered
//!    region between is flagged rather than silently skipped.
//! 9. **Recovery lens** — a disk-store cold-start recovery
//!    ([`TelemetryEvent::RecoveryBegin`] … [`RecoveryEnd`]) runs before
//!    the device serves anyone, so no ORAM query may appear inside the
//!    window (it would correlate log replay with specific accesses), and
//!    the window must close. Independently, one
//!    [`TelemetryEvent::DiskUnverified`] anywhere — a bucket record used
//!    without checksum verification, the checksum-ablation negative control —
//!    fails the audit: §IV-D assumes every off-chip byte is authenticated
//!    inside the trust boundary.
//!
//! **One pass.** [`Telemetry::record`](super::Telemetry::record) feeds
//! each event to `Auditor::observe` under the lock that extends the
//! digest chain, so [`Telemetry::audit`](super::Telemetry::audit) judges
//! every event ever recorded, evicted from the ring or not. The auditor
//! keeps only what is open — windows, the plans advertised so far, the
//! previous query's time, exact gap moments — never the stream. A fetch
//! is therefore judged against the plans advertised *before* it; the
//! device advertises a bundle's plans at the start of its `Execute`
//! window, so an honest run never fetches ahead of its plan.
//!
//! **Truncation.** Only [`audit_events`], which folds a slice such as a
//! copy of the ring, can see a partial stream. It reports the lost
//! events as [`Violation::Truncated`] ahead of every other violation: an
//! auditor that silently passes on partial evidence is worse than none.
//!
//! [`RollbackEnd`]: TelemetryEvent::RollbackEnd
//! [`SegmentEnd`]: TelemetryEvent::SegmentEnd
//! [`RecoveryEnd`]: TelemetryEvent::RecoveryEnd

use super::{QueryKind, TelemetryEvent};
use crate::Nanos;
use std::collections::{BTreeSet, HashMap, HashSet};

/// The audit has no deployment knobs: every bound is a constant below.
/// The type stays for callers of [`audit_events`] that name it.
#[derive(Debug, Default)]
pub struct AuditConfig;

/// Required uniform ORAM block payload size (paper: 1 KB).
const BLOCK_SIZE: u32 = 1024;
/// Gaps below this bound count as "tight" for burst detection. It sits
/// just above the bare wire cost of one query under the default cost
/// model (RTT + server op + 60 path blocks ≈ 2.27 ms; 2.6 ms ≈ 1.15×
/// that), so a back-to-back drain is tight but a paced fetch (stall +
/// query) is not.
const BURST_GAP_NS: Nanos = 2_600_000;
/// Maximum tolerated tight code-query run length.
const MAX_CODE_BURST: usize = 4;
/// Allowed prefetch-vs-real mean-gap ratio band, ×100: prefetch gaps
/// within ¼×–4× of real gaps.
const GAP_MEAN_RATIO_X100: (u64, u64) = (25, 400);
/// Maximum per-class gap coefficient of variation, ×100.
const MAX_CV_X100: u64 = 250;
/// Minimum samples per gap class before the statistical checks apply
/// (tiny samples would make the CV meaningless).
const MIN_CLASS_SAMPLES: usize = 8;
/// Maximum prefetch queries the run may carry while still counting as
/// *genuinely idle*. An idle prefetcher is fine — there is no prefetch
/// distribution for the adversary to type. More queries than this
/// floor but fewer than [`MIN_CLASS_SAMPLES`] gap samples is the
/// underpowered region: enough traffic to stand out individually, too
/// little for the statistical bounds to apply — flagged as
/// [`Violation::PrefetchClassUnderpowered`].
const PREFETCH_IDLE_FLOOR: usize = 2;

/// One invariant violation found by the auditor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Violation {
    /// An ORAM query moved a non-uniform block size.
    NonUniformBlock {
        /// When the query happened.
        at: Nanos,
        /// Its classification.
        kind: QueryKind,
        /// Bytes observed on the wire.
        bytes: u32,
        /// The required uniform size.
        expected: u32,
    },
    /// A tight run of code queries exceeded the burst bound.
    CodeBurst {
        /// When the run ended.
        at: Nanos,
        /// Length of the offending run.
        len: usize,
        /// The configured bound.
        limit: usize,
    },
    /// Prefetch and real mean gaps diverged beyond the ratio band.
    GapMeanRatio {
        /// Observed prefetch/real mean-gap ratio, ×100.
        ratio_x100: u64,
        /// The allowed band, ×100.
        band: (u64, u64),
    },
    /// A gap class's coefficient of variation exceeded the bound.
    GapCv {
        /// `true` for the prefetch class, `false` for real queries.
        prefetch_class: bool,
        /// Observed CV, ×100.
        cv_x100: u64,
        /// The configured bound, ×100.
        limit: u64,
    },
    /// A swap's observed pages did not cover its true pages.
    SwapUncovered {
        /// When the swap happened.
        at: Nanos,
        /// Pages actually moved.
        true_pages: u32,
        /// Pages visible on the bus.
        observed_pages: u32,
    },
    /// Many swaps, yet zero noise pages across the whole run.
    SwapNoiseAbsent {
        /// Swap events seen.
        swaps: u64,
    },
    /// A real code-page fetch fell outside the contract's advertised
    /// page-reachability plan: leak-or-bug, either way reportable.
    UnplannedCodePage {
        /// When the fetch happened.
        at: Nanos,
        /// Contract whose plan was violated.
        address: [u8; 20],
        /// The fetched page index.
        page: u32,
    },
    /// A real world-state record fetch fell outside the contract's
    /// advertised state prefetch plan (and the plan did not declare the
    /// contract's keys dynamic): leak-or-bug, either way reportable.
    UnplannedStateAccess {
        /// When the fetch happened.
        at: Nanos,
        /// Account whose plan was violated.
        address: [u8; 20],
        /// `true` when the offending fetch was the account-meta record.
        meta: bool,
        /// Storage-group id fetched (slot >> 5, big-endian); zero for
        /// meta records.
        group: [u8; 32],
    },
    /// A non-sync ORAM query appeared inside a rollback window: the
    /// rollback is distinguishable from forward sync on the bus.
    RollbackLeak {
        /// When the query happened.
        at: Nanos,
        /// Its classification.
        kind: QueryKind,
    },
    /// A rollback window carried fewer sync page writes than the
    /// accounts it advertised — the world state was (at least partly)
    /// restored outside the ORAM query path.
    RollbackUncovered {
        /// When the rollback ended.
        at: Nanos,
        /// Accounts the rollback advertised.
        expected: u32,
        /// Sync page writes observed inside the window.
        observed: u64,
    },
    /// A rollback began but never ended within the stream.
    UnterminatedRollback {
        /// When the rollback began.
        at: Nanos,
    },
    /// A segment window carried fewer swap-outs than the frames the
    /// suspension advertised — the checkpoint was (at least partly)
    /// captured in-enclave with no cover traffic, leaving a silent gap
    /// on the bus that correlates with the scheduler's decisions.
    CheckpointUncovered {
        /// When the segment window closed.
        at: Nanos,
        /// Frames the suspension advertised.
        expected: u32,
        /// Swap-outs observed inside the window.
        observed: u64,
    },
    /// An ORAM query appeared inside a segment window: checkpointing is
    /// a layer-3 operation, so any ORAM traffic there types the pause
    /// as a preemption rather than an ordinary spill.
    SegmentLeak {
        /// When the query happened.
        at: Nanos,
        /// Its classification.
        kind: QueryKind,
    },
    /// A segment yield began but its window never closed in the stream.
    UnterminatedSegment {
        /// When the yield began.
        at: Nanos,
    },
    /// The prefetch class sits in the underpowered region: more queries
    /// than the idle floor, fewer gap samples than the statistical
    /// checks need — each query can be typed individually and no bound
    /// was actually verified.
    PrefetchClassUnderpowered {
        /// Prefetch queries seen across the run.
        queries: u64,
        /// The configured idle floor.
        floor: usize,
        /// Gap samples the statistical checks require.
        needed: usize,
    },
    /// An ORAM query appeared inside a disk-store recovery window:
    /// log replay runs before the device serves anyone, so query
    /// traffic there correlates recovery with specific accesses.
    RecoveryLeak {
        /// When the query happened.
        at: Nanos,
        /// Its classification.
        kind: QueryKind,
    },
    /// A recovery began but never ended within the stream.
    UnterminatedRecovery {
        /// When the recovery began.
        at: Nanos,
    },
    /// A disk bucket record was served without checksum verification — the
    /// checksum-ablation negative control, or a genuine integrity hole.
    UnverifiedDiskRead {
        /// When the unverified read happened.
        at: Nanos,
        /// Bucket served unverified.
        bucket: u64,
    },
    /// The event ring overflowed: the stream is partial evidence.
    Truncated {
        /// Events lost.
        dropped: u64,
    },
}

impl core::fmt::Display for Violation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Violation::NonUniformBlock { at, kind, bytes, expected } => write!(
                f,
                "non-uniform block at {at}: {} query moved {bytes} B (expected {expected} B)",
                kind.name()
            ),
            Violation::CodeBurst { at, len, limit } => {
                write!(f, "code burst at {at}: {len} tight code queries (limit {limit})")
            }
            Violation::GapMeanRatio { ratio_x100, band } => write!(
                f,
                "prefetch/real mean-gap ratio {}.{:02} outside [{}.{:02}, {}.{:02}]",
                ratio_x100 / 100,
                ratio_x100 % 100,
                band.0 / 100,
                band.0 % 100,
                band.1 / 100,
                band.1 % 100
            ),
            Violation::GapCv { prefetch_class, cv_x100, limit } => write!(
                f,
                "{} gap CV {}.{:02} exceeds {}.{:02}",
                if *prefetch_class { "prefetch" } else { "real" },
                cv_x100 / 100,
                cv_x100 % 100,
                limit / 100,
                limit % 100
            ),
            Violation::SwapUncovered { at, true_pages, observed_pages } => write!(
                f,
                "swap at {at}: observed {observed_pages} pages < true {true_pages}"
            ),
            Violation::SwapNoiseAbsent { swaps } => {
                write!(f, "no noise pages across {swaps} swaps: sizes leak verbatim")
            }
            Violation::UnplannedCodePage { at, address, page } => {
                write!(f, "unplanned code page at {at}: contract 0x")?;
                for b in address {
                    write!(f, "{b:02x}")?;
                }
                write!(f, " fetched page {page} outside its advertised plan")
            }
            Violation::UnplannedStateAccess { at, address, meta, group } => {
                write!(f, "unplanned state access at {at}: account 0x")?;
                for b in address {
                    write!(f, "{b:02x}")?;
                }
                if *meta {
                    write!(f, " fetched its meta record outside the advertised plan")
                } else {
                    write!(f, " fetched storage group 0x")?;
                    for b in group.iter().skip(24) {
                        write!(f, "{b:02x}")?;
                    }
                    write!(f, " outside the advertised plan")
                }
            }
            Violation::RollbackLeak { at, kind } => write!(
                f,
                "rollback leak at {at}: {} query inside a rollback window",
                kind.name()
            ),
            Violation::RollbackUncovered { at, expected, observed } => write!(
                f,
                "rollback at {at} restored {expected} accounts with only {observed} sync \
                 page writes: applied outside the ORAM query path"
            ),
            Violation::UnterminatedRollback { at } => {
                write!(f, "rollback begun at {at} never ended: stream is partial")
            }
            Violation::CheckpointUncovered { at, expected, observed } => write!(
                f,
                "segment at {at} suspended {expected} frames with only {observed} swap-outs: \
                 checkpoint captured without cover traffic"
            ),
            Violation::SegmentLeak { at, kind } => write!(
                f,
                "segment leak at {at}: {} query inside a segment window",
                kind.name()
            ),
            Violation::UnterminatedSegment { at } => {
                write!(f, "segment yield at {at} never closed: stream is partial")
            }
            Violation::PrefetchClassUnderpowered { queries, floor, needed } => write!(
                f,
                "prefetch class underpowered: {queries} queries exceed the idle floor ({floor}) \
                 but fall short of the {needed} gap samples the statistics need"
            ),
            Violation::RecoveryLeak { at, kind } => write!(
                f,
                "recovery leak at {at}: {} query inside a recovery window",
                kind.name()
            ),
            Violation::UnterminatedRecovery { at } => {
                write!(f, "recovery begun at {at} never ended: stream is partial")
            }
            Violation::UnverifiedDiskRead { at, bucket } => write!(
                f,
                "unverified disk read at {at}: bucket {bucket} served without checksum verification"
            ),
            Violation::Truncated { dropped } => {
                write!(f, "event ring dropped {dropped} events: stream is partial")
            }
        }
    }
}

/// Summary statistics gathered during the audit (for reports).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AuditStats {
    /// K-V queries seen.
    pub kv_queries: u64,
    /// Demand code queries seen.
    pub code_queries: u64,
    /// Prefetch queries seen.
    pub prefetch_queries: u64,
    /// Longest tight code-query run observed.
    pub longest_code_burst: usize,
    /// Mean inter-arrival gap of real (kv + code) queries, ns.
    pub real_gap_mean_ns: f64,
    /// Mean inter-arrival gap of prefetch queries, ns.
    pub prefetch_gap_mean_ns: f64,
    /// CV ×100 of the real gap class (0 when not computed).
    pub real_gap_cv_x100: u64,
    /// CV ×100 of the prefetch gap class (0 when not computed).
    pub prefetch_gap_cv_x100: u64,
    /// Swap events seen.
    pub swaps: u64,
    /// Total noise pages across all swaps.
    pub noise_pages: u64,
    /// Distinct (contract, page) pairs advertised across all plans.
    pub planned_pages: u64,
    /// Real code-page fetches seen on the wire.
    pub code_page_fetches: u64,
    /// Fetches that fell outside an advertised plan.
    pub unplanned_fetches: u64,
    /// Distinct world-state records (metas + storage groups) advertised
    /// across all state plans.
    pub planned_kv_records: u64,
    /// Real world-state record fetches seen on the wire.
    pub kv_record_fetches: u64,
    /// Record fetches that fell outside an advertised state plan.
    pub unplanned_kv_fetches: u64,
    /// Sync page writes seen (forward sync + rollback).
    pub sync_queries: u64,
    /// Rollback windows seen.
    pub rollbacks: u64,
    /// Sync page writes inside rollback windows.
    pub rollback_sync_writes: u64,
    /// Segment (gas-slice suspension) windows seen.
    pub segments: u64,
    /// Swap-outs inside segment windows (checkpoint cover traffic).
    pub segment_cover_swaps: u64,
    /// Disk-store recovery windows seen.
    pub recoveries: u64,
    /// Committed transactions read back across all recoveries.
    pub recovery_replayed: u64,
    /// Disk bucket records served without checksum verification.
    pub unverified_disk_reads: u64,
}

/// The auditor's verdict: violations found plus the numbers behind them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditReport {
    /// Every invariant violation, in stream order (statistical checks
    /// last).
    pub violations: Vec<Violation>,
    /// Summary statistics.
    pub stats: AuditStats,
}

impl AuditReport {
    /// `true` when no invariant was violated.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Exact running moments of one gap class: n, Σx and Σx².
#[derive(Debug, Clone, Copy, Default)]
struct Moments {
    n: u64,
    sum: u128,
    sum_sq: u128,
}

impl Moments {
    fn push(&mut self, x: u64) {
        let x = u128::from(x);
        self.n += 1;
        self.sum += x;
        self.sum_sq += x * x;
    }

    /// Mean (exact while Σx < 2^53) and coefficient of variation ×100;
    /// both 0 for an empty or all-zero class.
    fn mean_and_cv_x100(&self) -> (f64, u64) {
        if self.sum == 0 {
            return (0.0, 0);
        }
        // n²·variance, exactly: n·Σx² − (Σx)². CV = √that / Σx.
        let spread = u128::from(self.n) * self.sum_sq - self.sum * self.sum;
        let cv = (spread as f64).sqrt() / self.sum as f64 * 100.0;
        (self.sum as f64 / self.n as f64, cv.round() as u64)
    }
}

/// The §IV-D auditor as a fold: [`observe`](Auditor::observe) every
/// event in stream order, read the verdict with
/// [`report`](Auditor::report) at any point.
#[derive(Debug, Default)]
pub(crate) struct Auditor {
    /// Violations so far, in stream order, and the running statistics.
    report: AuditReport,
    /// Advertised code plans: page indices per contract.
    plans: HashMap<[u8; 20], BTreeSet<u32>>,
    /// Advertised state plans per account: (meta planned, groups).
    kv_plans: HashMap<[u8; 20], (bool, BTreeSet<[u8; 32]>)>,
    /// Accounts whose state plan declared its keys dynamic.
    kv_dynamic: HashSet<[u8; 20]>,
    /// Time of the previous non-sync query.
    last_query: Option<Nanos>,
    /// Length of the current tight code-query run.
    code_run: usize,
    real_gaps: Moments,
    prefetch_gaps: Moments,
    /// Open rollback window: (begin, accounts advertised, sync writes).
    rollback: Option<(Nanos, u32, u64)>,
    /// Open segment window: (yield, frames advertised, swap-outs).
    segment: Option<(Nanos, u32, u64)>,
    /// Open disk-store recovery window: begin time.
    recovery: Option<Nanos>,
}

impl Auditor {
    /// Folds one event into the audit.
    pub(crate) fn observe(&mut self, event: &TelemetryEvent) {
        let report = &mut self.report;
        match *event {
            TelemetryEvent::OramQuery { at, kind, bytes } => self.query(at, kind, bytes),
            TelemetryEvent::Swap { at, out, true_pages, observed_pages } => {
                report.stats.swaps += 1;
                if observed_pages < true_pages {
                    report.violations.push(Violation::SwapUncovered {
                        at,
                        true_pages,
                        observed_pages,
                    });
                }
                report.stats.noise_pages += u64::from(observed_pages.saturating_sub(true_pages));
                if out {
                    if let Some((_, _, cover)) = &mut self.segment {
                        *cover += 1;
                        report.stats.segment_cover_swaps += 1;
                    }
                }
            }
            TelemetryEvent::PlanPage { address, page, .. }
                if self.plans.entry(address).or_default().insert(page) =>
            {
                report.stats.planned_pages += 1;
            }
            TelemetryEvent::PlanKv { address, meta, group, .. } => {
                let entry = self.kv_plans.entry(address).or_default();
                let fresh = if meta {
                    !std::mem::replace(&mut entry.0, true)
                } else {
                    entry.1.insert(group)
                };
                if fresh {
                    report.stats.planned_kv_records += 1;
                }
            }
            TelemetryEvent::PlanKvDynamic { address, .. } => {
                self.kv_dynamic.insert(address);
            }
            TelemetryEvent::CodePageFetch { at, address, page } => {
                report.stats.code_page_fetches += 1;
                // Only contracts that advertised a plan are bound by it;
                // an address the analyzer never planned (e.g. discovered
                // through a dynamic call) stays exempt.
                if let Some(plan) = self.plans.get(&address) {
                    if !plan.contains(&page) {
                        report.stats.unplanned_fetches += 1;
                        report
                            .violations
                            .push(Violation::UnplannedCodePage { at, address, page });
                    }
                }
            }
            TelemetryEvent::KvFetch { at, address, meta, group } => {
                report.stats.kv_record_fetches += 1;
                // Same exemption as code plans; a plan that declared its
                // keys dynamic exempts itself, on the record.
                if !self.kv_dynamic.contains(&address) {
                    if let Some((meta_planned, groups)) = self.kv_plans.get(&address) {
                        let planned = if meta { *meta_planned } else { groups.contains(&group) };
                        if !planned {
                            report.stats.unplanned_kv_fetches += 1;
                            report.violations.push(Violation::UnplannedStateAccess {
                                at,
                                address,
                                meta,
                                group,
                            });
                        }
                    }
                }
            }
            TelemetryEvent::RollbackBegin { at, accounts, .. } => {
                // A begin inside an open window means the previous one
                // never terminated.
                if let Some((begun, _, _)) = self.rollback.replace((at, accounts, 0)) {
                    report.violations.push(Violation::UnterminatedRollback { at: begun });
                }
                report.stats.rollbacks += 1;
            }
            TelemetryEvent::RollbackEnd { at, .. } => {
                // A stray end is covered by the Truncated violation.
                if let Some((_, expected, observed)) = self.rollback.take() {
                    if observed < u64::from(expected) {
                        report.violations.push(Violation::RollbackUncovered {
                            at,
                            expected,
                            observed,
                        });
                    }
                }
            }
            TelemetryEvent::SegmentYield { at, frames, .. } => {
                // A yield inside an open window means the previous
                // segment never closed.
                if let Some((begun, _, _)) = self.segment.replace((at, frames, 0)) {
                    report.violations.push(Violation::UnterminatedSegment { at: begun });
                }
                report.stats.segments += 1;
            }
            TelemetryEvent::SegmentEnd { at, .. } => {
                if let Some((_, expected, observed)) = self.segment.take() {
                    if observed < u64::from(expected) {
                        report.violations.push(Violation::CheckpointUncovered {
                            at,
                            expected,
                            observed,
                        });
                    }
                }
            }
            TelemetryEvent::RecoveryBegin { at, .. } => {
                // A begin inside an open window means the previous one
                // never terminated.
                if let Some(begun) = self.recovery.replace(at) {
                    report.violations.push(Violation::UnterminatedRecovery { at: begun });
                }
                report.stats.recoveries += 1;
            }
            TelemetryEvent::RecoveryEnd { replayed, .. } => {
                self.recovery = None;
                report.stats.recovery_replayed += u64::from(replayed);
            }
            TelemetryEvent::DiskUnverified { at, bucket } => {
                report.stats.unverified_disk_reads += 1;
                report.violations.push(Violation::UnverifiedDiskRead { at, bucket });
            }
            _ => {}
        }
    }

    /// One ORAM query: uniform size, window leaks, gap classes, bursts.
    fn query(&mut self, at: Nanos, kind: QueryKind, bytes: u32) {
        let report = &mut self.report;
        if bytes != BLOCK_SIZE {
            report.violations.push(Violation::NonUniformBlock {
                at,
                kind,
                bytes,
                expected: BLOCK_SIZE,
            });
        }
        if let Some((_, _, sync_writes)) = &mut self.rollback {
            if kind == QueryKind::Sync {
                *sync_writes += 1;
                report.stats.rollback_sync_writes += 1;
            } else {
                // Anything read-shaped inside the window types the
                // operation as a rollback, not a sync.
                report.violations.push(Violation::RollbackLeak { at, kind });
            }
        }
        if self.segment.is_some() {
            // Checkpointing touches layer 3 only; *any* ORAM traffic
            // inside the window types the pause.
            report.violations.push(Violation::SegmentLeak { at, kind });
        }
        if self.recovery.is_some() {
            // Log replay precedes service; query traffic inside the
            // window correlates the two.
            report.violations.push(Violation::RecoveryLeak { at, kind });
        }
        match kind {
            QueryKind::Kv => report.stats.kv_queries += 1,
            QueryKind::Code => report.stats.code_queries += 1,
            QueryKind::Prefetch => report.stats.prefetch_queries += 1,
            QueryKind::Sync => {
                // Sync page writes are checked for size and rollback
                // shape only: the gap and burst statistics model
                // in-bundle traffic, and sync happens between bundles.
                report.stats.sync_queries += 1;
                return;
            }
        }
        let is_code = kind == QueryKind::Code;
        match self.last_query {
            Some(last_at) => {
                let gap = at.saturating_sub(last_at);
                if kind == QueryKind::Prefetch {
                    self.prefetch_gaps.push(gap);
                } else {
                    self.real_gaps.push(gap);
                }
                // A Code query extends the tight run only when it follows
                // another query within the tight-gap bound; anything else
                // restarts the run.
                if is_code && gap < BURST_GAP_NS {
                    self.code_run += 1;
                } else {
                    self.code_run = usize::from(is_code);
                }
            }
            None => self.code_run = usize::from(is_code),
        }
        report.stats.longest_code_burst = report.stats.longest_code_burst.max(self.code_run);
        if self.code_run == MAX_CODE_BURST + 1 {
            // Report each offending burst once, as it crosses the bound.
            report.violations.push(Violation::CodeBurst {
                at,
                len: self.code_run,
                limit: MAX_CODE_BURST,
            });
        }
        self.last_query = Some(at);
    }

    /// The verdict on everything observed so far: windows still open are
    /// reported unterminated, then the statistical checks run. The fold
    /// itself is left as it was.
    pub(crate) fn report(&self) -> AuditReport {
        let mut report = self.report.clone();
        if let Some((at, _, _)) = self.rollback {
            report.violations.push(Violation::UnterminatedRollback { at });
        }
        if let Some((at, _, _)) = self.segment {
            report.violations.push(Violation::UnterminatedSegment { at });
        }
        if let Some(at) = self.recovery {
            report.violations.push(Violation::UnterminatedRecovery { at });
        }

        // Statistical checks, applied only with enough evidence per class.
        let enough = |class: &Moments| class.n >= MIN_CLASS_SAMPLES as u64;
        let (real_mean, real_cv) = self.real_gaps.mean_and_cv_x100();
        let (pf_mean, pf_cv) = self.prefetch_gaps.mean_and_cv_x100();
        report.stats.real_gap_mean_ns = real_mean;
        report.stats.prefetch_gap_mean_ns = pf_mean;
        if enough(&self.real_gaps) && enough(&self.prefetch_gaps) {
            report.stats.real_gap_cv_x100 = real_cv;
            report.stats.prefetch_gap_cv_x100 = pf_cv;
            if real_mean > 0.0 {
                let ratio_x100 = (pf_mean / real_mean * 100.0).round() as u64;
                let (lo, hi) = GAP_MEAN_RATIO_X100;
                if ratio_x100 < lo || ratio_x100 > hi {
                    report
                        .violations
                        .push(Violation::GapMeanRatio { ratio_x100, band: (lo, hi) });
                }
            }
            for (prefetch_class, cv_x100) in [(false, real_cv), (true, pf_cv)] {
                if cv_x100 > MAX_CV_X100 {
                    report.violations.push(Violation::GapCv {
                        prefetch_class,
                        cv_x100,
                        limit: MAX_CV_X100,
                    });
                }
            }
        }

        // Swap noise must exist across the run once there are enough swaps
        // for all-zero noise to be a signal rather than chance.
        if report.stats.swaps >= MIN_CLASS_SAMPLES as u64 && report.stats.noise_pages == 0 {
            report
                .violations
                .push(Violation::SwapNoiseAbsent { swaps: report.stats.swaps });
        }

        // Prefetch floor (lens 8): a class on the wire that nothing above
        // verified, judged only once enough real traffic ran for the
        // comparison to have been expected at all.
        if enough(&self.real_gaps)
            && report.stats.prefetch_queries > PREFETCH_IDLE_FLOOR as u64
            && !enough(&self.prefetch_gaps)
        {
            report.violations.push(Violation::PrefetchClassUnderpowered {
                queries: report.stats.prefetch_queries,
                floor: PREFETCH_IDLE_FLOOR,
                needed: MIN_CLASS_SAMPLES,
            });
        }

        report
    }
}

/// Audits a recorded slice — such as a copy of the ring, with `dropped`
/// events lost before it — against the §IV-D invariants. Lost events
/// make the slice partial evidence: [`Violation::Truncated`] leads the
/// report. The live audit of a [`Telemetry`](super::Telemetry) sink is
/// [`Telemetry::audit`](super::Telemetry::audit), which sees every event.
pub fn audit_events(events: &[TelemetryEvent], dropped: u64, _cfg: &AuditConfig) -> AuditReport {
    let mut auditor = Auditor::default();
    if dropped > 0 {
        auditor.report.violations.push(Violation::Truncated { dropped });
    }
    for event in events {
        auditor.observe(event);
    }
    auditor.report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::Telemetry;

    fn q(at: Nanos, kind: QueryKind) -> TelemetryEvent {
        TelemetryEvent::OramQuery { at, kind, bytes: 1024 }
    }

    #[test]
    fn clean_interleaved_stream_passes() {
        // kv / prefetch / paced-code queries on a ~2.3 ms cadence.
        let mut events = Vec::new();
        let mut t = 0;
        for i in 0..30u64 {
            t += 2_300_000;
            events.push(q(t, QueryKind::Kv));
            t += 2_270_000;
            events.push(q(t, QueryKind::Prefetch));
            if i % 3 == 0 {
                t += 3_000_000; // paced demand fetch: stall + wire
                events.push(q(t, QueryKind::Code));
            }
        }
        let report = audit_events(&events, 0, &AuditConfig);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert!(report.stats.longest_code_burst <= 1);
        assert!(report.stats.prefetch_queries >= 8);
    }

    #[test]
    fn drain_burst_is_detected() {
        // A realistic frame: sporadic kv queries, then the starved
        // prefetcher drains 8 code pages back-to-back at bare wire cost.
        let mut events = Vec::new();
        let mut t = 0;
        for _ in 0..10 {
            t += 2_300_000;
            events.push(q(t, QueryKind::Kv));
        }
        for _ in 0..8 {
            t += 2_270_000; // tight: bare query cost, no pacing
            events.push(q(t, QueryKind::Code));
        }
        let report = audit_events(&events, 0, &AuditConfig);
        assert!(!report.passed());
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::CodeBurst { len: 5, limit: 4, .. })));
        assert_eq!(report.stats.longest_code_burst, 8);
    }

    #[test]
    fn paced_code_queries_are_not_a_burst() {
        // 8 consecutive Code queries, but each gap includes the pacing
        // stall — above the tight-gap bound, so no burst.
        let mut events = Vec::new();
        let mut t = 0;
        for _ in 0..8 {
            t += 3_100_000;
            events.push(q(t, QueryKind::Code));
        }
        let report = audit_events(&events, 0, &AuditConfig);
        assert!(report.passed(), "violations: {:?}", report.violations);
    }

    #[test]
    fn non_uniform_block_flagged() {
        let events = [
            q(1_000, QueryKind::Kv),
            TelemetryEvent::OramQuery { at: 2_000_000, kind: QueryKind::Kv, bytes: 512 },
        ];
        let report = audit_events(&events, 0, &AuditConfig);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::NonUniformBlock { bytes: 512, .. })));
    }

    #[test]
    fn divergent_prefetch_gaps_flagged() {
        // Prefetch queries 10× slower than real ones: mean-ratio breach.
        let mut events = Vec::new();
        let mut t = 0;
        for _ in 0..10 {
            t += 2_000_000;
            events.push(q(t, QueryKind::Kv));
            t += 20_000_000;
            events.push(q(t, QueryKind::Prefetch));
        }
        let report = audit_events(&events, 0, &AuditConfig);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::GapMeanRatio { .. })));
    }

    #[test]
    fn small_samples_skip_statistics() {
        // 2 prefetch queries with wild gaps: not enough evidence.
        let events = [
            q(1_000, QueryKind::Kv),
            q(2_000_000, QueryKind::Prefetch),
            q(100_000_000, QueryKind::Prefetch),
            q(102_000_000, QueryKind::Kv),
        ];
        let report = audit_events(&events, 0, &AuditConfig);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.stats.prefetch_gap_cv_x100, 0, "not computed");
    }

    #[test]
    fn swap_noise_invariants() {
        // Uncovered swap: observed < true.
        let bad = [TelemetryEvent::Swap { at: 1, out: true, true_pages: 4, observed_pages: 2 }];
        let report = audit_events(&bad, 0, &AuditConfig);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::SwapUncovered { .. })));

        // Many swaps, all noise-free: flagged.
        let flat: Vec<TelemetryEvent> = (0..10)
            .map(|i| TelemetryEvent::Swap { at: i, out: i % 2 == 0, true_pages: 2, observed_pages: 2 })
            .collect();
        let report = audit_events(&flat, 0, &AuditConfig);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::SwapNoiseAbsent { swaps: 10 })));

        // Covered swaps with some noise: clean.
        let good: Vec<TelemetryEvent> = (0..10)
            .map(|i| TelemetryEvent::Swap { at: i, out: true, true_pages: 2, observed_pages: 2 + (i as u32 % 3) })
            .collect();
        let report = audit_events(&good, 0, &AuditConfig);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert!(report.stats.noise_pages > 0);
    }

    #[test]
    fn plan_coverage_cross_check() {
        let addr = [0xaa; 20];
        let plan = |page| TelemetryEvent::PlanPage { at: 100, address: addr, page };
        let fetch =
            |at, page| TelemetryEvent::CodePageFetch { at, address: addr, page };

        // Fetches inside the advertised plan: clean.
        let ok = [plan(0), plan(1), plan(3), fetch(1_000, 0), fetch(2_000, 3)];
        let report = audit_events(&ok, 0, &AuditConfig);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.stats.planned_pages, 3);
        assert_eq!(report.stats.code_page_fetches, 2);

        // A fetch outside the plan: leak-or-bug.
        let bad = [plan(0), plan(1), fetch(1_000, 0), fetch(2_000, 2)];
        let report = audit_events(&bad, 0, &AuditConfig);
        assert!(!report.passed());
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::UnplannedCodePage { page: 2, .. })));
        assert_eq!(report.stats.unplanned_fetches, 1);
    }

    #[test]
    fn unplanned_contract_is_exempt() {
        // One contract advertises a plan; a second never does. Fetches
        // for the second are unconstrained.
        let planned = [0xaa; 20];
        let wild = [0xbb; 20];
        let events = [
            TelemetryEvent::PlanPage { at: 100, address: planned, page: 0 },
            TelemetryEvent::CodePageFetch { at: 1_000, address: planned, page: 0 },
            TelemetryEvent::CodePageFetch { at: 2_000, address: wild, page: 7 },
        ];
        let report = audit_events(&events, 0, &AuditConfig);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.stats.code_page_fetches, 2);
        assert_eq!(report.stats.unplanned_fetches, 0);
    }

    #[test]
    fn fetch_is_judged_against_plans_advertised_before_it() {
        // One pass: a fetch ahead of its contract's first plan is exempt,
        // and the same fetch once a plan leaves its page out is flagged.
        let addr = [0xcc; 20];
        let fetch = TelemetryEvent::CodePageFetch { at: 1_000, address: addr, page: 4 };
        let plan = TelemetryEvent::PlanPage { at: 100, address: addr, page: 0 };
        let report = audit_events(&[fetch, plan], 0, &AuditConfig);
        assert!(report.passed(), "violations: {:?}", report.violations);
        let report = audit_events(&[plan, fetch], 0, &AuditConfig);
        assert_eq!(
            report.violations,
            [Violation::UnplannedCodePage { at: 1_000, address: addr, page: 4 }]
        );

        // State plans follow the same order rule.
        let fetch = TelemetryEvent::KvFetch { at: 1_000, address: addr, meta: true, group: [0; 32] };
        let plan = TelemetryEvent::PlanKv { at: 100, address: addr, meta: false, group: group_id(1) };
        assert!(audit_events(&[fetch, plan], 0, &AuditConfig).passed());
        let report = audit_events(&[plan, fetch], 0, &AuditConfig);
        assert!(matches!(report.violations[..], [Violation::UnplannedStateAccess { meta: true, .. }]));
    }

    fn group_id(g: u8) -> [u8; 32] {
        let mut id = [0u8; 32];
        id[31] = g;
        id
    }

    #[test]
    fn state_plan_binds_kv_fetches() {
        let addr = [0xdd; 20];
        let plan_meta = TelemetryEvent::PlanKv {
            at: 100,
            address: addr,
            meta: true,
            group: [0; 32],
        };
        let plan_group =
            |g| TelemetryEvent::PlanKv { at: 100, address: addr, meta: false, group: group_id(g) };
        let fetch = |at, meta, g| TelemetryEvent::KvFetch {
            at,
            address: addr,
            meta,
            group: if meta { [0; 32] } else { group_id(g) },
        };

        // Fetches inside the advertised plan: clean.
        let ok = [plan_meta, plan_group(1), fetch(1_000, true, 0), fetch(2_000, false, 1)];
        let report = audit_events(&ok, 0, &AuditConfig);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.stats.planned_kv_records, 2);
        assert_eq!(report.stats.kv_record_fetches, 2);

        // A group outside the plan: leak-or-bug.
        let bad = [plan_meta, plan_group(1), fetch(1_000, false, 2)];
        let report = audit_events(&bad, 0, &AuditConfig);
        assert!(!report.passed());
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::UnplannedStateAccess { meta: false, .. })));
        assert_eq!(report.stats.unplanned_kv_fetches, 1);

        // A meta fetch when only groups were advertised: same teeth.
        let bad_meta = [plan_group(1), fetch(1_000, true, 0)];
        let report = audit_events(&bad_meta, 0, &AuditConfig);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::UnplannedStateAccess { meta: true, .. })));
    }

    #[test]
    fn dynamic_state_plan_exempts_the_contract() {
        // A contract whose plan is declared dynamic may touch anything;
        // a contract that never advertised is equally unconstrained.
        let declared = [0xee; 20];
        let wild = [0xef; 20];
        let events = [
            TelemetryEvent::PlanKvDynamic { at: 100, address: declared },
            // Even an advertised group does not re-bind a dynamic plan.
            TelemetryEvent::PlanKv {
                at: 100,
                address: declared,
                meta: false,
                group: group_id(1),
            },
            TelemetryEvent::KvFetch {
                at: 1_000,
                address: declared,
                meta: false,
                group: group_id(9),
            },
            TelemetryEvent::KvFetch { at: 2_000, address: wild, meta: true, group: [0; 32] },
        ];
        let report = audit_events(&events, 0, &AuditConfig);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.stats.kv_record_fetches, 2);
        assert_eq!(report.stats.unplanned_kv_fetches, 0);
    }

    fn sync(at: Nanos) -> TelemetryEvent {
        TelemetryEvent::OramQuery { at, kind: QueryKind::Sync, bytes: 1024 }
    }

    #[test]
    fn sync_writes_do_not_skew_gap_statistics() {
        // A clean paced stream, then a back-to-back sync burst: without
        // the sync class the tight burst would wreck the real-gap CV.
        let mut events = Vec::new();
        let mut t = 0;
        for _ in 0..20u64 {
            t += 2_300_000;
            events.push(q(t, QueryKind::Kv));
            t += 2_270_000;
            events.push(q(t, QueryKind::Prefetch));
        }
        for _ in 0..50 {
            t += 1_000; // bare write-back cadence, far below burst_gap_ns
            events.push(sync(t));
        }
        let report = audit_events(&events, 0, &AuditConfig);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.stats.sync_queries, 50);
    }

    #[test]
    fn rollback_window_shaped_like_sync_passes() {
        let events = [
            sync(1_000), // forward sync
            TelemetryEvent::RollbackBegin { at: 10_000, height: 5, depth: 3, accounts: 2 },
            sync(11_000),
            sync(12_000),
            sync(13_000),
            TelemetryEvent::RollbackEnd { at: 14_000, pages: 3 },
            sync(20_000), // replay of the winning branch
        ];
        let report = audit_events(&events, 0, &AuditConfig);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.stats.rollbacks, 1);
        assert_eq!(report.stats.rollback_sync_writes, 3);
    }

    #[test]
    fn read_shaped_query_inside_rollback_is_a_leak() {
        let events = [
            TelemetryEvent::RollbackBegin { at: 10_000, height: 5, depth: 1, accounts: 1 },
            sync(11_000),
            q(12_000, QueryKind::Kv),
            TelemetryEvent::RollbackEnd { at: 14_000, pages: 1 },
        ];
        let report = audit_events(&events, 0, &AuditConfig);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::RollbackLeak { kind: QueryKind::Kv, .. })));
    }

    #[test]
    fn rollback_without_oram_writes_is_uncovered() {
        // The mirror-only ablation: accounts advertised, zero page
        // writes on the bus.
        let events = [
            TelemetryEvent::RollbackBegin { at: 10_000, height: 5, depth: 3, accounts: 4 },
            TelemetryEvent::RollbackEnd { at: 11_000, pages: 0 },
        ];
        let report = audit_events(&events, 0, &AuditConfig);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(
                v,
                Violation::RollbackUncovered { expected: 4, observed: 0, .. }
            )));
    }

    #[test]
    fn unterminated_rollback_is_a_violation() {
        let events =
            [TelemetryEvent::RollbackBegin { at: 9_000, height: 2, depth: 1, accounts: 1 }];
        let report = audit_events(&events, 0, &AuditConfig);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::UnterminatedRollback { at: 9_000 })));
    }

    fn cover_swap(at: Nanos) -> TelemetryEvent {
        TelemetryEvent::Swap { at, out: true, true_pages: 2, observed_pages: 3 }
    }

    #[test]
    fn segment_window_with_cover_swaps_passes() {
        let events = [
            cover_swap(1_000), // ordinary in-segment spill
            TelemetryEvent::SegmentYield { at: 10_000, segment: 1, frames: 2 },
            cover_swap(11_000),
            cover_swap(12_000),
            TelemetryEvent::SegmentEnd { at: 13_000, swaps: 2 },
            cover_swap(20_000), // execution resumes, spills continue
        ];
        let report = audit_events(&events, 0, &AuditConfig);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.stats.segments, 1);
        assert_eq!(report.stats.segment_cover_swaps, 2);
    }

    #[test]
    fn checkpoint_without_cover_traffic_is_uncovered() {
        // The in-enclave ablation: frames advertised, zero swap-outs on
        // the bus — the negative control the issue requires.
        let events = [
            TelemetryEvent::SegmentYield { at: 10_000, segment: 3, frames: 2 },
            TelemetryEvent::SegmentEnd { at: 10_500, swaps: 0 },
        ];
        let report = audit_events(&events, 0, &AuditConfig);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(
                v,
                Violation::CheckpointUncovered { expected: 2, observed: 0, .. }
            )));
    }

    #[test]
    fn swap_in_does_not_count_as_checkpoint_cover() {
        // Only swap-outs seal frames; a swap-in inside the window must
        // not satisfy the cover requirement.
        let events = [
            TelemetryEvent::SegmentYield { at: 10_000, segment: 1, frames: 1 },
            TelemetryEvent::Swap { at: 11_000, out: false, true_pages: 2, observed_pages: 3 },
            TelemetryEvent::SegmentEnd { at: 12_000, swaps: 0 },
        ];
        let report = audit_events(&events, 0, &AuditConfig);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::CheckpointUncovered { .. })));
    }

    #[test]
    fn oram_query_inside_segment_window_is_a_leak() {
        let events = [
            TelemetryEvent::SegmentYield { at: 10_000, segment: 1, frames: 1 },
            cover_swap(11_000),
            q(12_000, QueryKind::Kv),
            TelemetryEvent::SegmentEnd { at: 13_000, swaps: 1 },
        ];
        let report = audit_events(&events, 0, &AuditConfig);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::SegmentLeak { kind: QueryKind::Kv, .. })));
    }

    #[test]
    fn unterminated_segment_is_a_violation() {
        let events = [TelemetryEvent::SegmentYield { at: 9_000, segment: 1, frames: 1 }];
        let report = audit_events(&events, 0, &AuditConfig);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::UnterminatedSegment { at: 9_000 })));
    }

    #[test]
    fn idle_prefetcher_passes_the_floor() {
        // Plenty of real traffic, a single prefetch query: genuinely
        // idle — no distribution to type, no violation.
        let mut events = Vec::new();
        let mut t = 0;
        for _ in 0..20u64 {
            t += 2_300_000;
            events.push(q(t, QueryKind::Kv));
        }
        t += 2_270_000;
        events.push(q(t, QueryKind::Prefetch));
        let report = audit_events(&events, 0, &AuditConfig);
        assert!(report.passed(), "violations: {:?}", report.violations);
    }

    #[test]
    fn underpowered_prefetch_class_is_flagged() {
        // 5 prefetch queries: above the idle floor (2), below the 8 gap
        // samples the statistics need — the skip is no longer vacuous.
        let mut events = Vec::new();
        let mut t = 0;
        for i in 0..20u64 {
            t += 2_300_000;
            events.push(q(t, QueryKind::Kv));
            if i % 4 == 0 {
                t += 2_270_000;
                events.push(q(t, QueryKind::Prefetch));
            }
        }
        let report = audit_events(&events, 0, &AuditConfig);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(
                v,
                Violation::PrefetchClassUnderpowered { queries: 5, floor: 2, needed: 8 }
            )));
    }

    #[test]
    fn clean_recovery_window_passes() {
        let events = [
            TelemetryEvent::RecoveryBegin { at: 0, segments: 12 },
            TelemetryEvent::RecoveryEnd { at: 1_000, replayed: 3, discarded: 1 },
            q(2_000_000, QueryKind::Kv),
        ];
        let report = audit_events(&events, 0, &AuditConfig);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.stats.recoveries, 1);
        assert_eq!(report.stats.recovery_replayed, 3);
    }

    #[test]
    fn query_inside_recovery_window_is_a_leak() {
        let events = [
            TelemetryEvent::RecoveryBegin { at: 0, segments: 4 },
            q(500, QueryKind::Kv),
            TelemetryEvent::RecoveryEnd { at: 1_000, replayed: 1, discarded: 0 },
        ];
        let report = audit_events(&events, 0, &AuditConfig);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::RecoveryLeak { kind: QueryKind::Kv, .. })));
    }

    #[test]
    fn unterminated_recovery_is_a_violation() {
        let events = [TelemetryEvent::RecoveryBegin { at: 7_000, segments: 2 }];
        let report = audit_events(&events, 0, &AuditConfig);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::UnterminatedRecovery { at: 7_000 })));
    }

    #[test]
    fn unverified_disk_read_fails_the_audit() {
        // The checksum-ablation negative control: one unverified bucket
        // anywhere in the stream is a violation.
        let events = [
            q(2_000_000, QueryKind::Kv),
            TelemetryEvent::DiskUnverified { at: 2_100_000, bucket: 42 },
        ];
        let report = audit_events(&events, 0, &AuditConfig);
        assert!(!report.passed());
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::UnverifiedDiskRead { bucket: 42, .. })));
        assert_eq!(report.stats.unverified_disk_reads, 1);
    }

    #[test]
    fn live_audit_judges_events_the_ring_evicted() {
        let t = Telemetry::with_capacity(2);
        t.record(TelemetryEvent::OramQuery { at: 1_000, kind: QueryKind::Kv, bytes: 512 });
        for i in 1..=100 {
            t.record(q(i * 2_300_000, QueryKind::Kv));
        }
        let live = t.audit();
        assert_eq!(
            live.violations,
            [Violation::NonUniformBlock {
                at: 1_000,
                kind: QueryKind::Kv,
                bytes: 512,
                expected: 1024
            }]
        );
        assert_eq!(live.stats.kv_queries, 101);
        // The ring's copy lost the offending query: partial evidence.
        let sliced = audit_events(&t.events(), t.dropped(), &AuditConfig);
        assert_eq!(sliced.violations, [Violation::Truncated { dropped: 99 }]);
    }

    #[test]
    fn live_audit_equals_the_slice_audit_when_the_ring_holds_everything() {
        let t = Telemetry::new();
        let addr = [0xab; 20];
        t.record(TelemetryEvent::PlanPage { at: 0, address: addr, page: 0 });
        let mut at = 0;
        for i in 0..30u64 {
            at += 2_300_000;
            t.record(q(at, QueryKind::Kv));
            at += 2_270_000;
            t.record(q(at, QueryKind::Prefetch));
            t.record(cover_swap(at + 1));
            if i % 3 == 0 {
                at += 3_000_000;
                t.record(q(at, QueryKind::Code));
                t.record(TelemetryEvent::CodePageFetch { at, address: addr, page: i as u32 % 2 });
            }
        }
        t.record(TelemetryEvent::RollbackBegin { at, height: 1, depth: 1, accounts: 1 });
        // An open window reads as unterminated, and reading leaves it open.
        let open = t.audit();
        assert_eq!(open, audit_events(&t.events(), 0, &AuditConfig));
        assert_eq!(open.stats.unplanned_fetches, 5, "page 1 was never planned");
        assert!(matches!(open.violations.last(), Some(Violation::UnterminatedRollback { .. })));
        t.record(sync(at + 1_000));
        t.record(TelemetryEvent::RollbackEnd { at: at + 2_000, pages: 1 });
        let closed = t.audit();
        assert_eq!(closed, audit_events(&t.events(), 0, &AuditConfig));
        assert_eq!(closed.violations.len(), 5);
        assert!(closed.stats.real_gap_cv_x100 > 0, "the CV was computed");
    }

    #[test]
    fn truncated_stream_is_a_violation() {
        let report = audit_events(&[], 3, &AuditConfig);
        assert!(!report.passed());
        assert!(matches!(report.violations[0], Violation::Truncated { dropped: 3 }));
    }

    #[test]
    fn violations_render_readably() {
        let v = Violation::CodeBurst { at: 42, len: 9, limit: 4 };
        assert!(format!("{v}").contains("9 tight code queries"));
        let v = Violation::GapMeanRatio { ratio_x100: 1030, band: (25, 400) };
        assert!(format!("{v}").contains("10.30"));
    }
}
