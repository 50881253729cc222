//! Deterministic telemetry: metrics registry + structured event stream.
//!
//! The paper's claims are quantitative — query-type indistinguishability
//! (§IV-D), consistent ORAM timing, near-line-rate HEVM throughput — so
//! the repo needs a way to *observe* them. This module supplies:
//!
//! * a registry of monotonic counters ([`CounterId`]) and sample sums
//!   ([`HistId`]), fixed-size arrays indexed by `#[repr(usize)]` enums.
//!   No allocation on the record path, matching the hypervisor's no-heap
//!   constraint on TEE-side code. It holds only what a test, `repro` or
//!   `benchmark/` reads and no struct already counts.
//! * [`TelemetryEvent`] — a `Copy` event record for every instrumented
//!   layer (service phases, gateway admission, ORAM queries, HEVM swaps,
//!   node retries), kept in a bounded ring buffer.
//! * a running keccak **digest chain** over the canonical encoding of
//!   each event: two runs of the same seed must produce byte-identical
//!   digests, which makes cross-process replay comparison one string
//!   compare. The gateway's schedule [`EventLog`] is likewise a running
//!   digest, of its text lines, and keeps nothing else of them.
//! * [`audit`] — the leakage auditor, folded over every event as it is
//!   recorded ([`Telemetry::audit`]), which checks the §IV-D
//!   indistinguishability invariants mechanically.
//!
//! All timestamps are virtual-clock [`Nanos`]; nothing here reads wall
//! time, so the whole stream is deterministic by construction.
//!
//! [`EventLog`]: crate::queue::EventLog

pub mod audit;

use crate::Nanos;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Default ring-buffer capacity (events). Overflow is counted in
/// [`Telemetry::dropped`]; the digest chain and the live audit cover
/// every event regardless, so only the copy [`Telemetry::events`] is
/// partial.
pub const DEFAULT_EVENT_CAPACITY: usize = 1 << 18;

/// Declares a densely indexed id enum from one list of variants, each
/// with its doc comment: the `#[repr(usize)]` enum and its `COUNT`, so
/// the registry is a fixed array indexed by the id.
macro_rules! id_table {
    (
        $(#[$meta:meta])*
        pub enum $id:ident {
            $( $(#[$vmeta:meta])* $variant:ident, )+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum $id {
            $( $(#[$vmeta])* $variant, )+
        }

        impl $id {
            /// Number of ids in the registry.
            pub const COUNT: usize = [$($id::$variant),+].len();
        }
    };
}

id_table! {
    /// Monotonic counters, indexed densely for the heap-free registry.
    /// Each has a reader outside its writers (`every_metric_has_a_reader`
    /// in `tests/gates.rs`), and none repeats a field of `GatewayStats`,
    /// `QueryStats`, `PrefetchStats` or `FleetStats`.
    pub enum CounterId {
        /// Bundles fully pre-executed by the service.
        Bundles,
        /// Bundles refused by the static-analysis admission gate.
        AnalysisRejects,
        /// World-state records (account metas + storage groups) advertised
        /// in static state prefetch plans.
        PlannedKvRecords,
        /// ORAM page writes issued by block synchronization (forward sync
        /// *and* rollback — the two must be indistinguishable on the bus).
        OramSync,
        /// Feed equivocations detected by the multi-feed quorum.
        EquivocationsDetected,
        /// Feeds quarantined (forged proofs, equivocation, stalled heads).
        FeedsQuarantined,
        /// Disk store: records appended to the log (buckets + commits).
        DiskWrites,
        /// Disk store: fsync barriers issued at commit boundaries.
        DiskFsyncs,
        /// Disk store: committed transactions read back from the log
        /// during cold-start recovery.
        RecoveryReplays,
    }
}

id_table! {
    /// Sampled quantities, each kept as a sum and a count.
    pub enum HistId {
        /// Per-bundle total latency (ns).
        BundleLatencyNs,
        /// Execute-phase latency (ns).
        ExecuteNs,
    }
}

/// The samples of one [`HistId`]: their count and sum, all the registry
/// keeps of them.
#[derive(Debug, Clone, Copy, Default)]
pub struct Samples {
    count: u64,
    sum: u128,
}

impl Samples {
    /// Mean sample, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Which pre-execution phase a [`TelemetryEvent::Phase`] timing covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum PhaseKind {
    /// Transport + AES-GCM open of the bundle on the device.
    Receive = 0,
    /// ECDSA verification / decode of the bundle.
    Decode = 1,
    /// HEVM execution of every transaction.
    Execute = 2,
    /// ECDSA signing of the result.
    Sign = 3,
    /// AES-GCM seal of the trace back to the user.
    Seal = 4,
}

impl PhaseKind {
    /// Stable lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            PhaseKind::Receive => "receive",
            PhaseKind::Decode => "decode",
            PhaseKind::Execute => "execute",
            PhaseKind::Sign => "sign",
            PhaseKind::Seal => "seal",
        }
    }
}

/// ORAM query classification as the *adversary on the memory bus* would
/// need to distinguish it (the §IV-D threat).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum QueryKind {
    /// Account-meta or storage-group (K-V) query.
    Kv = 0,
    /// Demand code-page query.
    Code = 1,
    /// Timer-issued prefetch (real page or dummy).
    Prefetch = 2,
    /// Block-sync page write (forward sync or rollback; §IV-D requires
    /// the two to be indistinguishable on the bus).
    Sync = 3,
}

impl QueryKind {
    /// Stable lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            QueryKind::Kv => "kv",
            QueryKind::Code => "code",
            QueryKind::Prefetch => "prefetch",
            QueryKind::Sync => "sync",
        }
    }
}

/// Canonical wire form of one event field: fixed width, big-endian.
trait Enc {
    fn enc(&self, out: &mut Vec<u8>);
}

macro_rules! enc_impl {
    ($($ty:ty: |$v:ident| $bytes:expr;)+) => {
        $(impl Enc for $ty {
            fn enc(&self, out: &mut Vec<u8>) {
                let $v = *self;
                out.extend_from_slice(&$bytes);
            }
        })+
    };
}

enc_impl! {
    u8: |v| [v];
    bool: |v| [v as u8];
    PhaseKind: |v| [v as u8];
    QueryKind: |v| [v as u8];
    u32: |v| v.to_be_bytes();
    u64: |v| v.to_be_bytes();
    [u8; 20]: |v| v;
    [u8; 32]: |v| v;
}

/// Declares the event enum from one table: each row is a variant, its
/// tag byte and its fields in wire order (`at` first). Generates the
/// enum plus `at()`, `rebased()` and `encode()`.
macro_rules! event_table {
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $tag:literal {
                    $(#[$ameta:meta])*
                    at: Nanos,
                    $( $(#[$fmeta:meta])* $field:ident: $ty:ty, )*
                },
            )+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $name {
            $(
                $(#[$vmeta])*
                $variant {
                    $(#[$ameta])*
                    at: Nanos,
                    $( $(#[$fmeta])* $field: $ty, )*
                },
            )+
        }

        impl $name {
            /// The same event shifted `base` virtual nanoseconds later.
            /// Worker tasks record against a private clock that starts at
            /// zero; the commit step rebases every buffered event onto
            /// the shared timeline before replaying it into the global
            /// sink.
            pub fn rebased(mut self, base: Nanos) -> $name {
                match &mut self {
                    $( $name::$variant { at, .. } )|+ => *at = at.saturating_add(base),
                }
                self
            }

            /// Virtual timestamp of the event.
            pub fn at(&self) -> Nanos {
                match *self {
                    $( $name::$variant { at, .. } )|+ => at,
                }
            }

            /// Canonical fixed-width encoding: a tag byte followed by the
            /// fields big-endian. Equal streams ⇔ equal encodings ⇔ equal
            /// digests.
            pub fn encode(&self, buf: &mut Vec<u8>) {
                match self {
                    $( $name::$variant { at, $($field),* } => {
                        buf.push($tag);
                        at.enc(buf);
                        $( $field.enc(buf); )*
                    } )+
                }
            }
        }
    };
}

event_table! {
    /// One structured telemetry event. `Copy` so the ring buffer and the
    /// auditor never allocate per event.
    pub enum TelemetryEvent {
        /// A service phase completed in `ns` virtual time.
        Phase = 0x01 {
            /// Virtual time at phase end.
            at: Nanos,
            /// Which phase.
            phase: PhaseKind,
            /// Phase duration.
            ns: Nanos,
        },
        /// An ORAM query hit the wire.
        OramQuery = 0x02 {
            /// Virtual time of the query.
            at: Nanos,
            /// Query classification.
            kind: QueryKind,
            /// Block payload size on the wire.
            bytes: u32,
        },
        /// Pending prefetch pages were drained without riding the timer.
        PrefetchDrained = 0x03 {
            /// Virtual time of the drain.
            at: Nanos,
            /// Pages released.
            pages: u32,
        },
        /// A layer-2↔3 call-stack swap.
        Swap = 0x04 {
            /// Virtual time of the swap.
            at: Nanos,
            /// `true` for swap-out (L2→L3), `false` for swap-in.
            out: bool,
            /// Pages actually moved.
            true_pages: u32,
            /// Pages visible on the bus (true + noise).
            observed_pages: u32,
        },
        /// Gateway queue-depth sample (taken each scheduling round).
        QueueDepth = 0x05 {
            /// Virtual time of the sample.
            at: Nanos,
            /// Bundles queued across all tenants.
            queued: u32,
            /// Maximum per-tenant DRR deficit.
            max_deficit: u64,
        },
        /// Gateway admitted a submission.
        Admit = 0x06 {
            /// Virtual time of admission.
            at: Nanos,
            /// Submitting session id.
            session: u64,
            /// Ticket assigned.
            ticket: u64,
        },
        /// Gateway rejected a submission at admission.
        Reject = 0x07 {
            /// Virtual time of rejection.
            at: Nanos,
            /// Submitting session id.
            session: u64,
            /// `true` when the tenant's own queue was full (vs the global
            /// admission budget).
            tenant_local: bool,
            /// Backlog estimate at rejection time (undivided virtual-time
            /// work outstanding). Recorded instead of the quoted
            /// `retry_after` hint so the event stream stays byte-identical
            /// across worker counts: the hint divides this by the pool
            /// size, which is a host-side throughput knob, not a schedule
            /// input.
            backlog_ns: Nanos,
        },
        /// Gateway shed an admitted bundle past its deadline.
        Shed = 0x08 {
            /// Virtual time of the shed.
            at: Nanos,
            /// Owning session id.
            session: u64,
            /// Ticket shed.
            ticket: u64,
        },
        /// Circuit-breaker state transition (0=closed, 1=open, 2=half-open).
        Breaker = 0x09 {
            /// Virtual time of the transition.
            at: Nanos,
            /// New state.
            state: u8,
        },
        /// Node sync retried after a transient fault.
        NodeRetry = 0x0a {
            /// Virtual time of the retry decision.
            at: Nanos,
            /// Attempt number (1-based).
            attempt: u32,
            /// Backoff before the retry.
            backoff_ns: Nanos,
        },
        /// The static analyzer declared one code page reachable — part of a
        /// contract's advertised prefetch plan for the current bundle.
        PlanPage = 0x0b {
            /// Virtual time of plan registration.
            at: Nanos,
            /// Contract address owning the page.
            address: [u8; 20],
            /// Planned page index.
            page: u32,
        },
        /// A *real* code page crossed the ORAM wire (demand, paced, or
        /// prefetch — cache-hit dummies excluded). The auditor checks every
        /// one of these against the advertised plan.
        CodePageFetch = 0x0c {
            /// Virtual time of the fetch.
            at: Nanos,
            /// Contract address owning the page.
            address: [u8; 20],
            /// Fetched page index.
            page: u32,
        },
        /// The static analyzer declared one world-state record fetchable —
        /// part of a contract's advertised state prefetch plan for the
        /// current bundle: either the account's meta record (`meta`) or one
        /// 32-slot storage group (`group` = slot >> 5, big-endian).
        PlanKv = 0x11 {
            /// Virtual time of plan registration.
            at: Nanos,
            /// Account the record belongs to.
            address: [u8; 20],
            /// `true` for the account-meta record; `false` for a storage
            /// group (whose id is in `group`).
            meta: bool,
            /// Storage-group id (slot >> 5), big-endian; zero for meta
            /// records.
            group: [u8; 32],
        },
        /// The static analyzer could *not* enumerate this contract's state
        /// keys (calldata-affine or dynamic sites): its kv traffic is
        /// exempt from the plan cross-check, and the exemption itself is on
        /// the record.
        PlanKvDynamic = 0x12 {
            /// Virtual time of plan registration.
            at: Nanos,
            /// Account whose storage accesses are unpredictable.
            address: [u8; 20],
        },
        /// A *real* world-state record crossed the ORAM wire (demand or
        /// plan-driven batch — cache-hit dummies excluded). The auditor
        /// checks every one of these against the advertised state plan.
        KvFetch = 0x13 {
            /// Virtual time of the fetch.
            at: Nanos,
            /// Account the record belongs to.
            address: [u8; 20],
            /// `true` for the account-meta record.
            meta: bool,
            /// Storage-group id (slot >> 5), big-endian; zero for meta
            /// records.
            group: [u8; 32],
        },
        /// World-state rollback to a fork point began. Everything between
        /// this and the matching [`RollbackEnd`](TelemetryEvent::RollbackEnd)
        /// is the *rollback window*: the auditor requires it to contain only
        /// sync-shaped ORAM traffic, and at least one page write per account
        /// the rollback advertises.
        RollbackBegin = 0x0d {
            /// Virtual time the rollback started.
            at: Nanos,
            /// Height of the fork point being rolled back to.
            height: u64,
            /// Blocks being undone.
            depth: u32,
            /// Accounts whose pre-images will be restored.
            accounts: u32,
        },
        /// World-state rollback completed.
        RollbackEnd = 0x0e {
            /// Virtual time the rollback finished.
            at: Nanos,
            /// ORAM page writes issued by the rollback.
            pages: u32,
        },
        /// A gas-slice segment yielded the core mid-transaction. Everything
        /// between this and the matching
        /// [`SegmentEnd`](TelemetryEvent::SegmentEnd) is the *segment
        /// window*: the auditor requires the checkpoint to be observable
        /// only as ordinary swap traffic — at least one swap-out per frame
        /// the suspension advertises, and no ORAM queries riding along.
        SegmentYield = 0x0f {
            /// Virtual time of the yield (before cover traffic).
            at: Nanos,
            /// 1-based segment index within the transaction.
            segment: u32,
            /// Frames the suspension seals out (the advertised cover).
            frames: u32,
        },
        /// The segment's checkpoint finished flushing to layer 3.
        SegmentEnd = 0x10 {
            /// Virtual time the checkpoint was sealed.
            at: Nanos,
            /// Swap-out events emitted inside the segment window.
            swaps: u32,
        },
        /// Disk-store cold-start recovery began. Everything between this
        /// and the matching [`RecoveryEnd`](TelemetryEvent::RecoveryEnd) is
        /// the *recovery window*: the log is read back before the device
        /// serves anyone, so no ORAM query may appear inside it — query
        /// traffic there would let the adversary correlate recovery with
        /// specific world-state accesses.
        RecoveryBegin = 0x14 {
            /// Virtual time recovery started.
            at: Nanos,
            /// Segment files found on open.
            segments: u32,
        },
        /// Disk-store cold-start recovery finished.
        RecoveryEnd = 0x15 {
            /// Virtual time recovery finished.
            at: Nanos,
            /// Committed transactions read back from the log.
            replayed: u32,
            /// Torn/uncommitted trailing records discarded.
            discarded: u32,
        },
        /// A disk bucket record was served WITHOUT its checksum being verified
        /// (the checksum-ablation negative control). Any occurrence is an
        /// integrity-audit violation: the §IV-D argument assumes every
        /// off-chip byte is authenticated inside the trust boundary.
        DiskUnverified = 0x16 {
            /// Virtual time of the unverified read.
            at: Nanos,
            /// Bucket index served unverified.
            bucket: u64,
        },
    }
}

#[derive(Debug)]
struct TelemetryInner {
    counters: [u64; CounterId::COUNT],
    hists: [Samples; HistId::COUNT],
    events: VecDeque<TelemetryEvent>,
    capacity: usize,
    dropped: u64,
    recorded: u64,
    digest: [u8; 32],
    /// The chain's input, reused: previous digest ‖ event encoding.
    scratch: Vec<u8>,
    auditor: audit::Auditor,
}

/// A cloneable handle to one shared telemetry sink.
///
/// Every layer of the stack (service, gateway, ORAM page store, node
/// sync) holds a clone; the `Mutex` exists only to satisfy the shared
/// ownership pattern — the simulation is single-threaded, so the lock is
/// never contended (and a poisoned lock is recovered rather than
/// propagated: telemetry must never take the service down).
#[derive(Debug, Clone)]
pub struct Telemetry {
    inner: Arc<Mutex<TelemetryInner>>,
}

impl Telemetry {
    /// A sink with the default ring capacity.
    pub fn new() -> Self {
        Telemetry::with_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// A sink holding at most `capacity` events (older events are
    /// dropped and counted).
    pub fn with_capacity(capacity: usize) -> Self {
        Telemetry {
            inner: Arc::new(Mutex::new(TelemetryInner {
                counters: [0; CounterId::COUNT],
                hists: [Samples::default(); HistId::COUNT],
                events: VecDeque::with_capacity(capacity.min(1 << 12)),
                capacity: capacity.max(1),
                dropped: 0,
                recorded: 0,
                digest: [0; 32],
                scratch: Vec::new(),
                auditor: audit::Auditor::default(),
            })),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TelemetryInner> {
        self.inner.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Adds `n` to a counter.
    pub fn count(&self, id: CounterId, n: u64) {
        self.lock().counters[id as usize] += n;
    }

    /// Records a sample.
    pub fn observe(&self, id: HistId, value: u64) {
        let mut inner = self.lock();
        let samples = &mut inner.hists[id as usize];
        samples.count += 1;
        samples.sum += u128::from(value);
    }

    /// Appends an event to the ring, extends the digest chain and folds
    /// the event into the audit. The digest and the audit cover *every*
    /// recorded event, including any the ring later evicts.
    pub fn record(&self, event: TelemetryEvent) {
        let mut guard = self.lock();
        let inner = &mut *guard;
        inner.scratch.clear();
        inner.scratch.extend_from_slice(&inner.digest);
        event.encode(&mut inner.scratch);
        inner.digest = tape_crypto::keccak256(&inner.scratch).into_bytes();
        inner.auditor.observe(&event);
        inner.recorded += 1;
        if inner.events.len() >= inner.capacity {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        inner.events.push_back(event);
    }

    /// Reads a counter.
    pub fn counter(&self, id: CounterId) -> u64 {
        self.lock().counters[id as usize]
    }

    /// Reads a sample sum.
    pub fn hist(&self, id: HistId) -> Samples {
        self.lock().hists[id as usize]
    }

    /// The buffered events, oldest first.
    pub fn events(&self) -> Vec<TelemetryEvent> {
        self.lock().events.iter().copied().collect()
    }

    /// The §IV-D audit of every event recorded so far.
    pub fn audit(&self) -> audit::AuditReport {
        self.lock().auditor.report()
    }

    /// Events evicted from the ring.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Total events ever recorded (buffered + dropped).
    pub fn recorded(&self) -> u64 {
        self.lock().recorded
    }

    /// Hex digest of the running keccak chain over every recorded
    /// event. Two runs of the same seed must agree byte-for-byte.
    pub fn digest(&self) -> String {
        let inner = self.lock();
        let mut out = String::with_capacity(64);
        for byte in inner.digest {
            out.push_str(&format!("{byte:02x}"));
        }
        out
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

/// A telemetry recording surface: everything the execution path needs
/// to emit — counters, samples and events.
///
/// Two implementations exist: [`Telemetry`] records straight into the
/// shared registry/digest chain, and [`TaskBuffer`] queues the same
/// operations privately so a worker thread can run without touching
/// shared state; the buffered operations are replayed into the shared
/// sink — timestamps rebased onto the global clock — when the task's
/// result is committed in deterministic order.
pub trait Sink {
    /// Adds `n` to a counter.
    fn count(&mut self, id: CounterId, n: u64);
    /// Records a sample.
    fn observe(&mut self, id: HistId, value: u64);
    /// Appends an event.
    fn record(&mut self, event: TelemetryEvent);
}

impl Sink for Telemetry {
    fn count(&mut self, id: CounterId, n: u64) {
        Telemetry::count(self, id, n);
    }
    fn observe(&mut self, id: HistId, value: u64) {
        Telemetry::observe(self, id, value);
    }
    fn record(&mut self, event: TelemetryEvent) {
        Telemetry::record(self, event);
    }
}

/// One buffered telemetry operation (see [`TaskBuffer`]).
#[derive(Debug, Clone, Copy)]
enum TaskOp {
    Count(CounterId, u64),
    Observe(HistId, u64),
    Event(TelemetryEvent),
}

/// A task-private telemetry buffer for worker-pool execution.
///
/// A worker runs one bundle segment against a private virtual clock
/// that starts at zero and records every telemetry operation here, in
/// program order. The scheduler later replays the buffer into the
/// shared [`Telemetry`] with [`TaskBuffer::replay_into`], adding the
/// task's commit-time base timestamp to every event — so the merged
/// event stream (and its digest) is identical whether tasks executed
/// on one worker thread or many.
#[derive(Debug, Default)]
pub struct TaskBuffer {
    ops: Vec<TaskOp>,
}

impl TaskBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        TaskBuffer::default()
    }

    /// Operations buffered so far.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether nothing has been buffered.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Replays every buffered operation into `telemetry` in order,
    /// shifting each event `base` nanoseconds later (the task's commit
    /// position on the shared virtual timeline). Counters and samples are
    /// applied as-is — they carry no timestamps.
    pub fn replay_into(self, telemetry: &Telemetry, base: Nanos) {
        for op in self.ops {
            match op {
                TaskOp::Count(id, n) => telemetry.count(id, n),
                TaskOp::Observe(id, value) => telemetry.observe(id, value),
                TaskOp::Event(event) => telemetry.record(event.rebased(base)),
            }
        }
    }
}

impl Sink for TaskBuffer {
    fn count(&mut self, id: CounterId, n: u64) {
        self.ops.push(TaskOp::Count(id, n));
    }
    fn observe(&mut self, id: HistId, value: u64) {
        self.ops.push(TaskOp::Observe(id, value));
    }
    fn record(&mut self, event: TelemetryEvent) {
        self.ops.push(TaskOp::Event(event));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_samples_track() {
        let t = Telemetry::new();
        t.count(CounterId::Bundles, 2);
        t.count(CounterId::Bundles, 1);
        assert_eq!(t.counter(CounterId::Bundles), 3);
        assert_eq!(t.counter(CounterId::AnalysisRejects), 0);

        assert_eq!(t.hist(HistId::BundleLatencyNs).mean(), 0.0);
        for v in [500, 2_000, 10_000_000_000] {
            t.observe(HistId::BundleLatencyNs, v);
        }
        assert_eq!(t.hist(HistId::BundleLatencyNs).mean(), 10_000_002_500.0 / 3.0);
        assert_eq!(t.hist(HistId::ExecuteNs).mean(), 0.0);
    }

    #[test]
    fn digest_chain_is_deterministic_and_order_sensitive() {
        let ev1 = TelemetryEvent::OramQuery { at: 10, kind: QueryKind::Kv, bytes: 1024 };
        let ev2 = TelemetryEvent::OramQuery { at: 20, kind: QueryKind::Code, bytes: 1024 };

        let a = Telemetry::new();
        a.record(ev1);
        a.record(ev2);
        let b = Telemetry::new();
        b.record(ev1);
        b.record(ev2);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.digest().len(), 64);

        let c = Telemetry::new();
        c.record(ev2);
        c.record(ev1);
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn ring_buffer_drops_oldest_but_digest_covers_all() {
        let t = Telemetry::with_capacity(2);
        for at in 0..5u64 {
            t.record(TelemetryEvent::PrefetchDrained { at, pages: 1 });
        }
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.dropped(), 3);
        assert_eq!(t.recorded(), 5);
        assert_eq!(t.events()[0].at(), 3, "oldest surviving event");

        // Digest covers all five events, not just the surviving two.
        let full = Telemetry::new();
        for at in 0..5u64 {
            full.record(TelemetryEvent::PrefetchDrained { at, pages: 1 });
        }
        assert_eq!(t.digest(), full.digest());
    }

    #[test]
    fn encodings_are_unique_per_variant() {
        // Distinct variants with identical field bits must not collide.
        let events = [
            TelemetryEvent::Admit { at: 1, session: 2, ticket: 3 },
            TelemetryEvent::Shed { at: 1, session: 2, ticket: 3 },
        ];
        let mut bufs = Vec::new();
        for ev in events {
            let mut buf = Vec::new();
            ev.encode(&mut buf);
            bufs.push(buf);
        }
        assert_ne!(bufs[0], bufs[1]);

        // One sample of every variant, every field a distinct value: the
        // wire form is what every checked-in digest chains over, so its
        // bytes are pinned here.
        let (address, group) = ([0xA5; 20], [0x5A; 32]);
        let samples = [
            TelemetryEvent::Phase { at: 1, phase: PhaseKind::Sign, ns: 2 },
            TelemetryEvent::OramQuery { at: 3, kind: QueryKind::Prefetch, bytes: 4 },
            TelemetryEvent::PrefetchDrained { at: 5, pages: 6 },
            TelemetryEvent::Swap { at: 7, out: true, true_pages: 8, observed_pages: 9 },
            TelemetryEvent::QueueDepth { at: 10, queued: 11, max_deficit: 12 },
            TelemetryEvent::Admit { at: 13, session: 14, ticket: 15 },
            TelemetryEvent::Reject { at: 16, session: 17, tenant_local: true, backlog_ns: 18 },
            TelemetryEvent::Shed { at: 19, session: 20, ticket: 21 },
            TelemetryEvent::Breaker { at: 22, state: 2 },
            TelemetryEvent::NodeRetry { at: 23, attempt: 24, backoff_ns: 25 },
            TelemetryEvent::PlanPage { at: 26, address, page: 27 },
            TelemetryEvent::CodePageFetch { at: 28, address, page: 29 },
            TelemetryEvent::PlanKv { at: 30, address, meta: true, group },
            TelemetryEvent::PlanKvDynamic { at: 31, address },
            TelemetryEvent::KvFetch { at: 32, address, meta: false, group },
            TelemetryEvent::RollbackBegin { at: 33, height: 34, depth: 35, accounts: 36 },
            TelemetryEvent::RollbackEnd { at: 37, pages: 38 },
            TelemetryEvent::SegmentYield { at: 39, segment: 40, frames: 41 },
            TelemetryEvent::SegmentEnd { at: 42, swaps: 43 },
            TelemetryEvent::RecoveryBegin { at: 44, segments: 45 },
            TelemetryEvent::RecoveryEnd { at: 46, replayed: 47, discarded: 48 },
            TelemetryEvent::DiskUnverified { at: 49, bucket: 50 },
        ];
        let mut wire = Vec::new();
        let mut tags = std::collections::BTreeSet::new();
        for ev in samples {
            let start = wire.len();
            ev.encode(&mut wire);
            tags.insert(wire[start]);
        }
        assert_eq!(tags.len(), samples.len(), "two variants share a tag byte");
        assert_eq!(
            tape_crypto::keccak256(&wire).to_string(),
            "0x971752bbc699130eebebc310d8f9a7413ca78c74821db316790b84fa0d2733d5",
            "the canonical event encoding changed"
        );
    }

    #[test]
    fn task_buffer_replay_rebases_events_and_matches_direct_recording() {
        // A task recorded against a private clock (times 5 and 9),
        // replayed at base 100, must produce the same stream — and the
        // same digest — as recording the shifted events directly.
        let mut buffer = TaskBuffer::new();
        Sink::count(&mut buffer, CounterId::Bundles, 1);
        Sink::observe(&mut buffer, HistId::ExecuteNs, 9);
        Sink::record(
            &mut buffer,
            TelemetryEvent::Phase { at: 5, phase: PhaseKind::Decode, ns: 5 },
        );
        Sink::record(
            &mut buffer,
            TelemetryEvent::OramQuery { at: 9, kind: QueryKind::Kv, bytes: 64 },
        );
        assert_eq!(buffer.len(), 4);
        let replayed = Telemetry::new();
        buffer.replay_into(&replayed, 100);

        let direct = Telemetry::new();
        direct.count(CounterId::Bundles, 1);
        direct.observe(HistId::ExecuteNs, 9);
        direct.record(TelemetryEvent::Phase { at: 105, phase: PhaseKind::Decode, ns: 5 });
        direct.record(TelemetryEvent::OramQuery { at: 109, kind: QueryKind::Kv, bytes: 64 });

        assert_eq!(replayed.digest(), direct.digest());
        assert_eq!(replayed.counter(CounterId::Bundles), 1);
        assert_eq!(replayed.hist(HistId::ExecuteNs).mean(), 9.0);
        assert_eq!(replayed.events()[0].at(), 105);
    }

    #[test]
    fn id_tables_are_dense() {
        // The registry's arrays are `COUNT` long and indexed by `id as usize`.
        assert_eq!(CounterId::RecoveryReplays as usize + 1, CounterId::COUNT);
        assert_eq!(HistId::ExecuteNs as usize + 1, HistId::COUNT);
    }
}
