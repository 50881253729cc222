//! Crash-safe disk-backed bucket store: one append-only log.
//!
//! # Durability model
//!
//! [`DiskStore`] runs over a *buffered-file* disk model ([`SimFile`]):
//! appends accumulate in an in-process buffer and reach the real file
//! only at a logical fsync. The real file therefore always holds
//! exactly the bytes a crash would leave on the platter — whether the
//! crash is *simulated* (an injected [`FaultKind`] discards the buffer
//! and poisons the store) or *real* (`abort()` kills the process and
//! the unwritten buffer with it). One recovery path serves both.
//!
//! # Crash-consistency contract
//!
//! One ORAM access is one transaction: its bucket records followed by
//! one commit record (payload = the sealed client meta), appended to the
//! active `seg-NNNN.dat`. [`commit`] fsyncs that file — that fsync is
//! the durability point, and the commit record is the only thing
//! recovery has to believe. Segments roll only *between* transactions.
//! [`DiskStore::open`] is one pass over the segment files in order: a
//! transaction's records are held until its commit record arrives, then
//! applied (later records override earlier). Whatever trails the last
//! commit record of the last file — torn or merely uncommitted — is
//! truncated away, so a later commit can never adopt it; the same shape
//! anywhere else, a checksum failure or a gap in the commit sequence is
//! [`StoreError::Corrupt`], naming the first such record in log order.
//! Recovery is announced on the telemetry stream as a
//! [`RecoveryBegin`]/[`RecoveryEnd`] window so the §IV-D auditor can
//! prove no ORAM query leaked into it.
//!
//! # Checksums
//!
//! Every record carries a CRC-32C ([`super::codec`]). Recovery checks
//! each record as it walks the log, on the calling thread, and every
//! read of the in-memory mirror checks the record it serves, so bit rot
//! in the serving copy surfaces at the next read of that bucket.
//!
//! [`commit`]: super::BucketBackend::commit
//! [`RecoveryBegin`]: TelemetryEvent::RecoveryBegin
//! [`RecoveryEnd`]: TelemetryEvent::RecoveryEnd

use super::codec::{
    decode_record, encode_record_into, Decoded, Record, HEADER_LEN, RT_BUCKET, RT_COMMIT,
};
use super::{digest_bucket, overwrite, BucketBackend, Staged, StoreError};
use crate::OramConfig;
use std::io::{Read, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use tape_crypto::Keccak256;
use tape_primitives::B256;
use tape_sim::fault::{FaultDecision, FaultKind, FaultPlan, FaultSite};
use tape_sim::telemetry::{CounterId, Telemetry, TelemetryEvent};
use tape_sim::Clock;

/// Tuning for a [`DiskStore`].
#[derive(Debug, Clone)]
pub struct DiskStoreConfig {
    /// Directory holding the segment files.
    pub dir: PathBuf,
    /// Shim: the store reads it nowhere (there is no journal to trim).
    /// It stays, at 8, because the frozen `benchmark/` package still
    /// pads to it; delete it together with `pad_to_trim_boundary`.
    pub wal_trim_every: u64,
    /// Start a new segment file once the active one holds this many
    /// bytes (checked between transactions; at least 4 KiB).
    pub segment_roll_bytes: usize,
    /// Check record checksums in recovery and on every read (`false`
    /// only for the checksum-disabled ablation: nothing is checked, and
    /// every read announces itself and fails the audit).
    pub verify_checksums: bool,
}

impl DiskStoreConfig {
    /// Defaults for `dir`. Shim: `_key` is ignored (records carry a
    /// checksum, not a MAC). The argument stays because the frozen
    /// `benchmark/` package passes one; drop it with `wal_trim_every`.
    pub fn new(dir: impl Into<PathBuf>, _key: [u8; 32]) -> Self {
        DiskStoreConfig {
            dir: dir.into(),
            wal_trim_every: 8,
            segment_roll_bytes: 1 << 20,
            verify_checksums: true,
        }
    }
}

/// What cold-start recovery found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Committed transactions read back from the log. Shim: the log is
    /// never compacted, so this always equals `committed_seq`; it stays
    /// because the frozen `benchmark/` package reports it.
    pub replayed: u32,
    /// Trailing records (torn or uncommitted) truncated off the log.
    pub discarded: u32,
    /// Sequence number of the last committed transaction recovered.
    pub committed_seq: u64,
}

/// A buffered append-only file: the real file at `path` holds `durable`
/// bytes (what the platter has); `tail` is the in-process buffer past
/// them, which a crash loses.
#[derive(Debug)]
struct SimFile {
    path: PathBuf,
    durable: usize,
    tail: Vec<u8>,
}

fn io_err(op: &'static str, err: std::io::Error) -> StoreError {
    StoreError::Io { op, detail: err.to_string() }
}

fn seg_path(dir: &Path, index: u32) -> PathBuf {
    dir.join(format!("seg-{index:04}.dat"))
}

fn corrupt(segment: u32, off: usize, what: &dyn core::fmt::Display) -> StoreError {
    StoreError::Corrupt { detail: format!("segment {segment} offset {off}: {what}") }
}

/// How the walk over one segment ended.
struct Walk {
    /// Bytes up to the end of the segment's last commit record.
    committed: usize,
    /// Records past it: complete ones, plus one if the segment ends torn.
    discarded: u32,
}

impl SimFile {
    /// Writes the first `n` buffered bytes through to the real file.
    fn flush(&mut self, n: usize) -> Result<(), StoreError> {
        if n > 0 {
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&self.path)
                .map_err(|e| io_err("open for append", e))?;
            f.write_all(&self.tail[..n]).map_err(|e| io_err("append", e))?;
            f.flush().map_err(|e| io_err("flush", e))?;
            self.durable += n;
            self.tail.drain(..n);
        }
        Ok(())
    }
}

/// Which kind of I/O boundary the store is at (fault consultation and
/// crash-point countdown happen at every boundary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Io {
    Append,
    Fsync,
}

/// The crash-safe disk-backed bucket store. See the module docs for the
/// durability model and recovery contract.
#[derive(Debug)]
pub struct DiskStore {
    dir: PathBuf,
    capacity: usize,
    /// Bytes of one bucket: the only payload a bucket record may carry.
    bucket_len: usize,
    roll_bytes: usize,
    verify: bool,
    clock: Clock,
    /// Index of the active segment file.
    segment: u32,
    active: SimFile,
    /// Latest committed *encoded record* per bucket (empty = never
    /// written), overwritten in place — the in-memory mirror that serves
    /// reads (its checksum checked on every read).
    mirror: Vec<Box<[u8]>>,
    /// Open transaction: the encoded bucket records staged since the
    /// last commit.
    staged: Staged,
    pending_meta: Option<Vec<u8>>,
    meta: Option<Vec<u8>>,
    seq: u64,
    faults: Option<FaultPlan>,
    telemetry: Option<Telemetry>,
    /// Injected crash countdown: crash when it reaches 0 at a boundary.
    crash_in: Option<u32>,
    poisoned: bool,
}

impl DiskStore {
    /// Opens (creating or recovering) the store in `config.dir` for the
    /// given tree geometry. Recovery runs before this returns: the
    /// store is serving the last committed transaction, the log ends at
    /// its commit record, and the [`RecoveryReport`] says what was found.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on host filesystem failure;
    /// [`StoreError::Corrupt`] on anything no crash of this store can
    /// explain: checksum-bad, mis-framed or out-of-sequence records, a bucket
    /// record that does not hold exactly one bucket of this geometry, a
    /// torn or uncommitted tail anywhere but the end of the last
    /// segment, or a directory in an older format.
    pub fn open(
        config: DiskStoreConfig,
        geometry: &OramConfig,
        clock: &Clock,
        telemetry: Option<Telemetry>,
    ) -> Result<(Self, RecoveryReport), StoreError> {
        std::fs::create_dir_all(&config.dir).map_err(|e| io_err("create dir", e))?;

        let mut segments: Vec<(u32, PathBuf)> = Vec::new();
        let entries = std::fs::read_dir(&config.dir).map_err(|e| io_err("read dir", e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("read dir entry", e))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name == "wal.log" {
                // Skipping it would silently drop whatever it committed.
                return Err(StoreError::Corrupt {
                    detail: "wal.log found: a journal-plus-segments (v1) directory".into(),
                });
            }
            if let Some(idx) = name.strip_prefix("seg-").and_then(|s| s.strip_suffix(".dat")) {
                if let Ok(idx) = idx.parse::<u32>() {
                    segments.push((idx, entry.path()));
                }
            }
        }
        segments.sort();

        let buckets = geometry.buckets() as usize;
        let mut store = DiskStore {
            active: SimFile { path: seg_path(&config.dir, 0), durable: 0, tail: Vec::new() },
            dir: config.dir,
            capacity: geometry.bucket_capacity,
            bucket_len: geometry.bucket_capacity * geometry.slot_len(),
            roll_bytes: config.segment_roll_bytes.max(1 << 12),
            verify: config.verify_checksums,
            clock: clock.clone(),
            segment: 0,
            mirror: vec![Box::default(); buckets],
            staged: Staged::default(),
            pending_meta: None,
            meta: None,
            seq: 0,
            faults: None,
            telemetry,
            crash_in: None,
            poisoned: false,
        };
        let report = store.recover(&segments)?;
        Ok((store, report))
    }

    /// Arms deterministic disk fault injection ([`FaultSite::Disk`]).
    pub fn arm_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    fn count(&self, id: CounterId, n: u64) {
        if let Some(t) = &self.telemetry {
            t.count(id, n);
        }
    }

    fn record_event(&self, event: TelemetryEvent) {
        if let Some(t) = &self.telemetry {
            t.record(event);
        }
    }

    /// Reads the log back, applying each transaction at its commit
    /// record, and leaves the last file ending at its last one.
    fn recover(&mut self, segments: &[(u32, PathBuf)]) -> Result<RecoveryReport, StoreError> {
        let mut report = RecoveryReport::default();
        self.record_event(TelemetryEvent::RecoveryBegin {
            at: self.clock.now(),
            segments: segments.len() as u32,
        });
        if !segments.is_empty() {
            self.replay(segments, &mut report)?;
        }
        report.committed_seq = self.seq;
        self.count(CounterId::RecoveryReplays, u64::from(report.replayed));
        self.record_event(TelemetryEvent::RecoveryEnd {
            at: self.clock.now(),
            replayed: report.replayed,
            discarded: report.discarded,
        });
        Ok(report)
    }

    /// The one pass over the segment files: each is read, walked and
    /// applied, and the log truncated after its last commit record.
    fn replay(
        &mut self,
        segments: &[(u32, PathBuf)],
        report: &mut RecoveryReport,
    ) -> Result<(), StoreError> {
        // The one resident segment. One buffer, sized once to the longest
        // segment, serves the whole log, so recovery allocates the same
        // whatever order the lengths come in.
        let mut longest = 0;
        for (_, path) in segments {
            let len = std::fs::metadata(path).map_err(|e| io_err("read segment", e))?.len();
            longest = longest.max(len);
        }
        let mut bytes = Vec::with_capacity(longest as usize);
        for (i, (index, path)) in segments.iter().enumerate() {
            bytes.clear();
            std::fs::File::open(path)
                .and_then(|mut file| file.read_to_end(&mut bytes))
                .map_err(|e| io_err("read segment", e))?;
            let walk = self.apply_segment(*index, &bytes, report)?;
            if walk.committed < bytes.len() {
                // What trails the last commit record never became
                // visible. Only a crash mid-transaction leaves that,
                // and only at the very end of the log; it must go
                // before the next commit record could adopt it.
                if i + 1 != segments.len() {
                    let what = "torn or uncommitted records mid-log";
                    return Err(corrupt(*index, walk.committed, &what));
                }
                report.discarded += walk.discarded;
                std::fs::OpenOptions::new()
                    .write(true)
                    .open(path)
                    .and_then(|f| f.set_len(walk.committed as u64))
                    .map_err(|e| io_err("truncate", e))?;
            }
            // The last file read is the one appends continue in.
            self.segment = *index;
            self.active = SimFile { path: path.clone(), durable: walk.committed, tail: Vec::new() };
        }
        Ok(())
    }

    /// Walks every record of one segment, checking its checksum, sequence
    /// number and shape, and applies each transaction at its commit
    /// record.
    fn apply_segment(
        &mut self,
        index: u32,
        bytes: &[u8],
        report: &mut RecoveryReport,
    ) -> Result<Walk, StoreError> {
        let fail = |off: usize, what: &dyn core::fmt::Display| corrupt(index, off, what);
        // The transaction being read: its bucket records (as ranges of
        // `bytes`) are held until its commit record arrives.
        let mut held: Vec<(usize, Range<usize>)> = Vec::new();
        let (mut off, mut committed) = (0, 0);
        while off < bytes.len() {
            let (rec, used) = match decode_record(&bytes[off..], self.verify) {
                Ok(Decoded::Record(rec, used)) => (rec, used),
                Ok(Decoded::Incomplete) => break,
                Err(err) => return Err(fail(off, &err)),
            };
            if rec.seq != self.seq + 1 {
                let what = format!("sequence {} follows commit {}", rec.seq, self.seq);
                return Err(fail(off, &what));
            }
            if rec.rtype == RT_BUCKET {
                if rec.bucket >= self.mirror.len() as u64 {
                    return Err(fail(off, &format!("bucket {} outside the tree", rec.bucket)));
                }
                if rec.payload.len() != self.bucket_len {
                    return Err(fail(off, &format!("a {}-byte bucket", rec.payload.len())));
                }
                held.push((rec.bucket as usize, off..off + used));
            } else {
                for (bucket, range) in held.drain(..) {
                    overwrite(&mut self.mirror[bucket], &bytes[range]);
                }
                self.meta = (!rec.payload.is_empty()).then(|| rec.payload.to_vec());
                self.seq = rec.seq;
                report.replayed += 1;
                committed = off + used;
            }
            off += used;
        }
        let discarded = held.len() as u32 + u32::from(off < bytes.len());
        Ok(Walk { committed, discarded })
    }

    /// Everything that must happen at a disk I/O boundary: run the
    /// crash-point countdown, then consult the fault plan for new
    /// trouble. Returns a torn-write/fsync-lost decision for the fsync
    /// path to apply.
    fn boundary(&mut self, io: Io) -> Result<Option<FaultDecision>, StoreError> {
        if let Some(n) = self.crash_in {
            if n == 0 {
                return Err(self.crash());
            }
            self.crash_in = Some(n - 1);
            return Ok(None);
        }
        let Some(plan) = &self.faults else { return Ok(None) };
        let accept: &[FaultKind] = match io {
            Io::Append => &[FaultKind::CrashPoint { n: 0 }],
            Io::Fsync => &[
                FaultKind::TornWrite,
                FaultKind::FsyncLost,
                FaultKind::CrashPoint { n: 0 },
            ],
        };
        match plan.decide_for(FaultSite::Disk, accept) {
            Some(FaultDecision { kind: FaultKind::CrashPoint { n }, .. }) => {
                self.crash_in = Some(n);
                Ok(None)
            }
            other => Ok(other),
        }
    }

    /// The injected crash: buffered appends are lost, the store is
    /// poisoned, and only a fresh [`DiskStore::open`] recovers.
    fn crash(&mut self) -> StoreError {
        self.active.tail.clear();
        self.crash_in = None;
        self.poisoned = true;
        StoreError::Crashed
    }

    fn guard(&self) -> Result<(), StoreError> {
        if self.poisoned {
            Err(StoreError::Crashed)
        } else {
            Ok(())
        }
    }

    /// One append boundary; the caller then puts its record at the end
    /// of `active.tail`.
    fn before_append(&mut self) -> Result<(), StoreError> {
        self.boundary(Io::Append)?;
        self.count(CounterId::DiskWrites, 1);
        Ok(())
    }

    /// A logical fsync of the active segment, with torn-write /
    /// lost-fsync injection applied.
    fn fsync(&mut self) -> Result<(), StoreError> {
        let decision = self.boundary(Io::Fsync)?;
        self.count(CounterId::DiskFsyncs, 1);
        let pending = self.active.tail.len();
        let (reaches_platter, survives) = match decision {
            // Power dies mid-flush: a `param`-derived prefix of the
            // buffered tail reaches the platter, the rest never does.
            Some(FaultDecision { kind: FaultKind::TornWrite, param }) => {
                (param as usize % pending.max(1), false)
            }
            // The lying disk: success reported, nothing durable.
            Some(FaultDecision { kind: FaultKind::FsyncLost, .. }) => return Ok(()),
            _ => (pending, true),
        };
        match self.active.flush(reaches_platter) {
            Ok(()) if survives => Ok(()),
            Ok(()) => Err(self.crash()),
            // A failed host write leaves the file in an unknown state;
            // only a reopen, which truncates to the last commit record,
            // may append to it again.
            Err(err) => {
                self.crash();
                Err(err)
            }
        }
    }
}

impl BucketBackend for DiskStore {
    fn read_bucket(&mut self, bucket: u64, slots: &mut [u8]) -> Result<bool, StoreError> {
        self.guard()?;
        // Read-your-writes within the open transaction.
        if let Some(record) = self.staged.latest(bucket) {
            slots.copy_from_slice(&record[HEADER_LEN..][..self.bucket_len]);
            return Ok(true);
        }
        let at = bucket as usize;
        // Disk read-path faults: bit rot lands in the stored record, for
        // this read's checksum to catch; a short read returns a
        // truncated record without mutating it.
        let fault = self.faults.as_ref().and_then(|plan| {
            plan.decide_for(FaultSite::Disk, &[FaultKind::BitRot, FaultKind::ShortRead])
        });
        if self.mirror[at].is_empty() {
            return Ok(false);
        }
        if let Some(decision) = fault {
            let record = &mut self.mirror[at];
            let byte = (decision.param % record.len() as u64) as usize;
            if matches!(decision.kind, FaultKind::BitRot) {
                record[byte] ^= 1 << ((decision.param >> 24) % 8);
            } else {
                let (expected, actual) = (record.len() as u32, byte as u32);
                return Err(StoreError::ShortRead { bucket, expected, actual });
            }
        }
        if !self.verify {
            self.record_event(TelemetryEvent::DiskUnverified { at: self.clock.now(), bucket });
        }
        let what = match decode_record(&self.mirror[at], self.verify) {
            Ok(Decoded::Record(rec, _)) if rec.payload.len() == slots.len() => {
                slots.copy_from_slice(rec.payload);
                return Ok(true);
            }
            Ok(Decoded::Record(rec, _)) => format!("holds a {}-byte bucket", rec.payload.len()),
            // A bit flip in the length field can make a stored record
            // read as truncated: corruption, not a legal torn tail.
            Ok(Decoded::Incomplete) => "reads truncated".to_string(),
            // A checksum failure here is bit rot: recovery checked the
            // record, or `write_bucket` encoded it, before it was mirrored.
            Err(err) => err.to_string(),
        };
        Err(StoreError::Corrupt { detail: format!("bucket {bucket}: stored record {what}") })
    }

    fn write_bucket(&mut self, bucket: u64, slots: &[u8]) -> Result<(), StoreError> {
        self.guard()?;
        // Framed and checksummed once, here; `commit` moves the bytes.
        let rec = Record { rtype: RT_BUCKET, bucket, seq: self.seq + 1, payload: slots };
        self.staged.buckets.push(bucket);
        encode_record_into(&mut self.staged.bytes, &rec);
        Ok(())
    }

    fn commit(&mut self) -> Result<(), StoreError> {
        self.guard()?;
        // Segments roll only between transactions, and only once the
        // old one is wholly durable (after a lost fsync its records are
        // still in the buffer and must reach the file they belong to).
        if self.active.tail.is_empty() && self.active.durable >= self.roll_bytes {
            self.segment += 1;
            self.active.path = seg_path(&self.dir, self.segment);
            self.active.durable = 0;
        }
        let seq = self.seq + 1;
        let mut staged = std::mem::take(&mut self.staged);
        let meta = self.pending_meta.take();

        // The transaction: its bucket records, then the commit record,
        // which carries the new meta blob or, failing one, the last.
        for (_, record) in staged.iter() {
            self.before_append()?;
            self.active.tail.extend_from_slice(record);
        }
        self.before_append()?;
        let payload = meta.as_deref().or(self.meta.as_deref()).unwrap_or_default();
        let rec = Record { rtype: RT_COMMIT, bucket: 0, seq, payload };
        encode_record_into(&mut self.active.tail, &rec);

        // The durability point: the fsync gates visibility.
        self.fsync()?;

        for (bucket, record) in staged.iter() {
            overwrite(&mut self.mirror[bucket as usize], record);
        }
        staged.buckets.clear();
        staged.bytes.clear();
        self.staged = staged;
        self.seq = seq;
        if let Some(meta) = meta {
            self.meta = (!meta.is_empty()).then_some(meta);
        }
        Ok(())
    }

    fn committed_seq(&self) -> u64 {
        self.seq
    }

    fn put_meta(&mut self, meta: Vec<u8>) {
        self.pending_meta = Some(meta);
    }

    fn meta(&self) -> Option<&[u8]> {
        self.meta.as_deref()
    }

    fn state_digest(&self) -> B256 {
        let mut h = Keccak256::new();
        for (bucket, record) in self.mirror.iter().enumerate() {
            let slots = match decode_record(record, false) {
                _ if record.is_empty() => &[][..],
                Ok(Decoded::Record(rec, _)) => rec.payload,
                // Undecodable content still changes the digest (never
                // silently matches a healthy twin).
                _ => record,
            };
            digest_bucket(&mut h, bucket as u64, slots, self.capacity);
        }
        h.finalize()
    }
}
