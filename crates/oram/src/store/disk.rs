//! Crash-safe disk-backed bucket store.
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
//! One ORAM access is one transaction. [`commit`] appends the staged
//! bucket records plus a commit record to the write-ahead journal and
//! fsyncs it — that fsync is the durability point; the commit record
//! gates visibility. The same bucket records are then checkpointed into
//! the active append-only segment (buffered), and every
//! `wal_trim_every` commits the segment is fsynced and the journal
//! truncated. [`DiskStore::open`] rebuilds the tree: scan segments
//! (later records override earlier; a torn tail is legal only at the
//! end of the last file), then replay committed journal transactions
//! newer than the segment state, discarding any torn or uncommitted
//! journal tail. Recovery is announced on the telemetry stream as a
//! [`RecoveryBegin`]/[`RecoveryEnd`] window so the §IV-D auditor can
//! prove no ORAM query leaked into it.
//!
//! [`commit`]: super::BucketBackend::commit
//! [`RecoveryBegin`]: TelemetryEvent::RecoveryBegin
//! [`RecoveryEnd`]: TelemetryEvent::RecoveryEnd

use super::codec::{
    decode_record, decode_slots, encode_record, CodecError, Decoded, Record, RT_COMMIT, RT_META,
    RT_SEG_BUCKET, RT_WAL_BUCKET,
};
use super::{digest_bucket, BucketBackend, StoreError};
use crate::OramConfig;
use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use tape_crypto::Keccak256;
use tape_primitives::B256;
use tape_sim::fault::{FaultDecision, FaultKind, FaultPlan, FaultSite};
use tape_sim::telemetry::{CounterId, Telemetry, TelemetryEvent};
use tape_sim::Clock;

/// Tuning for a [`DiskStore`].
#[derive(Debug, Clone)]
pub struct DiskStoreConfig {
    /// Directory holding the journal and segment files.
    pub dir: PathBuf,
    /// Keyed-keccak MAC key for record framing (durability integrity;
    /// the client's AES-GCM remains the security boundary).
    pub key: [u8; 32],
    /// Tree levels (from the root) whose decoded buckets are cached in
    /// memory, skipping per-read MAC re-verification on the hot upper
    /// levels every access touches.
    pub tree_top_levels: u32,
    /// Commits between segment fsync + journal truncation.
    pub wal_trim_every: u64,
    /// Roll the active segment file once it reaches this many bytes.
    pub segment_roll_bytes: usize,
    /// Verify record MACs on read (`false` only for the
    /// checksum-disabled ablation, which must fail the audit).
    pub verify_macs: bool,
}

impl DiskStoreConfig {
    /// Defaults for `dir` with MAC key `key`.
    pub fn new(dir: impl Into<PathBuf>, key: [u8; 32]) -> Self {
        DiskStoreConfig {
            dir: dir.into(),
            key,
            tree_top_levels: 4,
            wal_trim_every: 8,
            segment_roll_bytes: 1 << 20,
            verify_macs: true,
        }
    }
}

/// What cold-start recovery found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Complete records found in the journal on open.
    pub journal_records: u32,
    /// Committed journal transactions replayed into segments.
    pub replayed: u32,
    /// Torn or uncommitted trailing journal records discarded.
    pub discarded: u32,
    /// Sequence number of the last committed transaction recovered.
    pub committed_seq: u64,
}

/// A buffered append-only file: `bytes[..durable]` is what the platter
/// (the real file) holds; the tail past `durable` is in-process buffer
/// that a crash loses.
#[derive(Debug)]
struct SimFile {
    path: PathBuf,
    bytes: Vec<u8>,
    durable: usize,
}

fn io_err(op: &'static str, err: std::io::Error) -> StoreError {
    StoreError::Io { op, detail: err.to_string() }
}

impl SimFile {
    /// Loads an existing file (everything on disk is durable) or an
    /// empty one.
    fn load(path: PathBuf) -> Result<Self, StoreError> {
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(err) => return Err(io_err("read file", err)),
        };
        let durable = bytes.len();
        Ok(SimFile { path, bytes, durable })
    }

    fn append(&mut self, record: &[u8]) {
        self.bytes.extend_from_slice(record);
    }

    /// Writes the buffered tail through to the real file.
    fn fsync(&mut self) -> Result<(), StoreError> {
        if self.durable < self.bytes.len() {
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&self.path)
                .map_err(|e| io_err("open for append", e))?;
            f.write_all(&self.bytes[self.durable..]).map_err(|e| io_err("append", e))?;
            f.flush().map_err(|e| io_err("flush", e))?;
            self.durable = self.bytes.len();
        }
        Ok(())
    }

    /// Power dies mid-flush: a `param`-derived prefix of the buffered
    /// tail reaches the platter, the rest never does.
    fn torn_flush(&mut self, param: u64) -> Result<(), StoreError> {
        let pending = self.bytes.len() - self.durable;
        if pending > 0 {
            let keep = (param as usize) % pending;
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&self.path)
                .map_err(|e| io_err("open for torn append", e))?;
            f.write_all(&self.bytes[self.durable..self.durable + keep])
                .map_err(|e| io_err("torn append", e))?;
            f.flush().map_err(|e| io_err("torn flush", e))?;
            self.durable += keep;
        }
        self.bytes.truncate(self.durable);
        Ok(())
    }

    /// Discards the un-fsynced buffer (a crash).
    fn drop_buffered(&mut self) {
        self.bytes.truncate(self.durable);
    }

    /// Rewrites the file as exactly `bytes[..n]` (recovery truncation of
    /// torn tails, journal trims).
    fn truncate_to(&mut self, n: usize) -> Result<(), StoreError> {
        self.bytes.truncate(n);
        std::fs::write(&self.path, &self.bytes).map_err(|e| io_err("truncate", e))?;
        self.durable = self.bytes.len();
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
    key: [u8; 32],
    capacity: usize,
    bucket_count: u64,
    tree_top: u64,
    wal_trim_every: u64,
    roll_bytes: usize,
    verify: bool,
    clock: Clock,
    wal: SimFile,
    segs: Vec<SimFile>,
    /// Latest committed *encoded segment record* per bucket — the
    /// in-memory mirror that serves reads (decode + MAC verify per read
    /// unless the bucket sits in the tree-top cache).
    mirror: HashMap<u64, Vec<u8>>,
    /// Decoded slots for the hot upper tree levels.
    cache: HashMap<u64, Vec<Vec<u8>>>,
    /// Open transaction: `(bucket, slots payload)` staged since the
    /// last commit.
    staged: Vec<(u64, Vec<u8>)>,
    pending_meta: Option<Vec<u8>>,
    meta: Option<Vec<u8>>,
    seq: u64,
    commits_since_trim: u64,
    faults: Option<FaultPlan>,
    telemetry: Option<Telemetry>,
    /// Injected crash countdown: crash when it reaches 0 at a boundary.
    crash_in: Option<u32>,
    poisoned: bool,
}

impl DiskStore {
    /// Opens (creating or recovering) the store in `config.dir` for the
    /// given tree geometry. Recovery runs before this returns: the
    /// store is serving the last committed transaction, the journal is
    /// clean, and the [`RecoveryReport`] says what was found.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on host filesystem failure;
    /// [`StoreError::Corrupt`] on corruption no crash can explain
    /// (MAC-bad or mis-framed records anywhere but a trailing torn
    /// write).
    pub fn open(
        config: DiskStoreConfig,
        geometry: &OramConfig,
        clock: &Clock,
        telemetry: Option<Telemetry>,
    ) -> Result<(Self, RecoveryReport), StoreError> {
        std::fs::create_dir_all(&config.dir).map_err(|e| io_err("create dir", e))?;

        let wal = SimFile::load(config.dir.join("wal.log"))?;
        let mut seg_paths: Vec<(u32, PathBuf)> = Vec::new();
        let entries = std::fs::read_dir(&config.dir).map_err(|e| io_err("read dir", e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("read dir entry", e))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some(idx) = name.strip_prefix("seg-").and_then(|s| s.strip_suffix(".dat")) {
                if let Ok(idx) = idx.parse::<u32>() {
                    seg_paths.push((idx, entry.path()));
                }
            }
        }
        seg_paths.sort();
        if seg_paths.is_empty() {
            seg_paths.push((0, config.dir.join("seg-0000.dat")));
        }
        let mut segs = Vec::with_capacity(seg_paths.len());
        for (_, path) in seg_paths {
            segs.push(SimFile::load(path)?);
        }

        let tree_top = (1u64 << config.tree_top_levels.min(geometry.height + 1)) - 1;
        let mut store = DiskStore {
            key: config.key,
            capacity: geometry.bucket_capacity,
            bucket_count: geometry.buckets(),
            tree_top,
            wal_trim_every: config.wal_trim_every.max(1),
            roll_bytes: config.segment_roll_bytes.max(1 << 12),
            verify: config.verify_macs,
            clock: clock.clone(),
            wal,
            segs,
            mirror: HashMap::new(),
            cache: HashMap::new(),
            staged: Vec::new(),
            pending_meta: None,
            meta: None,
            seq: 0,
            commits_since_trim: 0,
            faults: None,
            telemetry,
            crash_in: None,
            poisoned: false,
        };
        let report = store.recover()?;
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

    /// Replays segments then the journal, truncating torn tails; leaves
    /// the journal empty and the segment durable.
    fn recover(&mut self) -> Result<RecoveryReport, StoreError> {
        // Count complete journal records up front so RecoveryBegin can
        // announce them before any replay work.
        let mut report = RecoveryReport {
            journal_records: count_complete_records(&self.key, &self.wal.bytes),
            ..RecoveryReport::default()
        };
        self.record_event(TelemetryEvent::RecoveryBegin {
            at: self.clock.now(),
            journal_records: report.journal_records,
        });

        let mut seg_seq = 0u64;
        let mut meta: Option<(u64, Vec<u8>)> = None;
        let mut segs = std::mem::take(&mut self.segs);
        let last_seg = segs.len() - 1;
        let mut seg_result: Result<(), StoreError> = Ok(());
        'segs: for (i, seg) in segs.iter_mut().enumerate() {
            let mut off = 0;
            while off < seg.bytes.len() {
                match decode_record(&self.key, &seg.bytes[off..], self.verify) {
                    Ok(Decoded::Record(rec, used)) => {
                        match rec.rtype {
                            RT_SEG_BUCKET => {
                                self.mirror.insert(rec.bucket, seg.bytes[off..off + used].to_vec());
                            }
                            RT_META => {
                                if meta.as_ref().is_none_or(|(s, _)| rec.seq >= *s) {
                                    meta = Some((rec.seq, rec.payload.clone()));
                                }
                            }
                            _ => {
                                seg_result = Err(StoreError::Corrupt {
                                    detail: format!(
                                        "journal-type record {} inside segment {i}",
                                        rec.rtype
                                    ),
                                });
                                break 'segs;
                            }
                        }
                        seg_seq = seg_seq.max(rec.seq);
                        off += used;
                    }
                    Ok(Decoded::Incomplete) => {
                        if i != last_seg {
                            seg_result = Err(StoreError::Corrupt {
                                detail: format!("torn record mid-chain in segment {i}"),
                            });
                            break 'segs;
                        }
                        // Torn trailing segment write: discard it.
                        seg.truncate_to(off)?;
                        report.discarded += 1;
                        break;
                    }
                    Err(err) => {
                        seg_result = Err(StoreError::Corrupt {
                            detail: format!("segment {i} offset {off}: {err}"),
                        });
                        break 'segs;
                    }
                }
            }
        }
        self.segs = segs;
        seg_result?;

        // Journal replay: committed transactions newer than the
        // segment state are re-applied; anything trailing the last
        // commit record is a casualty of the crash and is discarded.
        let mut off = 0;
        let mut pending: Vec<(u64, u64, Vec<u8>)> = Vec::new();
        let mut max_seq = seg_seq;
        let wal_bytes = std::mem::take(&mut self.wal.bytes);
        let mut wal_result: Result<(), StoreError> = Ok(());
        while off < wal_bytes.len() {
            match decode_record(&self.key, &wal_bytes[off..], self.verify) {
                Ok(Decoded::Record(rec, used)) => {
                    match rec.rtype {
                        RT_WAL_BUCKET => pending.push((rec.bucket, rec.seq, rec.payload.clone())),
                        RT_COMMIT => {
                            if rec.seq > seg_seq {
                                for (bucket, seq, payload) in pending.drain(..) {
                                    let encoded = encode_record(
                                        &self.key,
                                        &Record {
                                            rtype: RT_SEG_BUCKET,
                                            bucket,
                                            seq,
                                            payload,
                                        },
                                    );
                                    self.append_seg_raw(&encoded)?;
                                    self.mirror.insert(bucket, encoded);
                                    self.count(CounterId::DiskWrites, 1);
                                }
                                if meta.as_ref().is_none_or(|(s, _)| rec.seq >= *s) {
                                    meta = Some((rec.seq, rec.payload.clone()));
                                }
                                report.replayed += 1;
                            } else {
                                pending.clear();
                            }
                            max_seq = max_seq.max(rec.seq);
                        }
                        other => {
                            wal_result = Err(StoreError::Corrupt {
                                detail: format!("segment-type record {other} inside journal"),
                            });
                            break;
                        }
                    }
                    off += used;
                }
                Ok(Decoded::Incomplete) => {
                    // Torn trailing journal write.
                    report.discarded += 1;
                    break;
                }
                Err(err) => {
                    wal_result = Err(StoreError::Corrupt {
                        detail: format!("journal offset {off}: {err}"),
                    });
                    break;
                }
            }
        }
        self.wal.bytes = wal_bytes;
        wal_result?;
        // Uncommitted trailing bucket records: staged but never
        // committed — the crash-consistency contract discards them.
        report.discarded += pending.len() as u32;

        self.seq = max_seq;
        self.meta = meta.and_then(|(_, m)| if m.is_empty() { None } else { Some(m) });
        report.committed_seq = self.seq;

        // Re-home the replayed meta into the segment: the journal is about
        // to be truncated, and a second cold start must recover the same
        // sealed client without it.
        if report.replayed > 0 {
            let meta_rec = encode_record(
                &self.key,
                &Record { rtype: RT_META, bucket: 0, seq: self.seq, payload: self.meta_payload() },
            );
            self.append_seg_raw(&meta_rec)?;
        }

        // Make the recovered state durable, then reset the journal: the
        // segment now owns everything the journal proved.
        if let Some(seg) = self.segs.last_mut() {
            seg.fsync()?;
        }
        self.count(CounterId::DiskFsyncs, 1);
        self.wal.truncate_to(0)?;

        // Warm the tree-top cache from the verified mirror.
        let top_buckets: Vec<u64> =
            self.mirror.keys().copied().filter(|b| *b < self.tree_top).collect();
        for bucket in top_buckets {
            let slots = self.decode_mirror(bucket)?;
            self.cache.insert(bucket, slots);
        }

        self.count(CounterId::RecoveryReplays, u64::from(report.replayed));
        self.record_event(TelemetryEvent::RecoveryEnd {
            at: self.clock.now(),
            replayed: report.replayed,
            discarded: report.discarded,
        });
        Ok(report)
    }

    /// Decodes the mirror record for `bucket` (MAC verified per
    /// [`DiskStoreConfig::verify_macs`]).
    fn decode_mirror(&self, bucket: u64) -> Result<Vec<Vec<u8>>, StoreError> {
        let Some(record) = self.mirror.get(&bucket) else {
            return Ok(vec![Vec::new(); self.capacity]);
        };
        if !self.verify {
            self.record_event(TelemetryEvent::DiskUnverified { at: self.clock.now(), bucket });
        }
        match decode_record(&self.key, record, self.verify) {
            Ok(Decoded::Record(rec, _)) => decode_slots(&rec.payload).map_err(|err| {
                StoreError::Corrupt { detail: format!("bucket {bucket} slots: {err}") }
            }),
            // A bit flip in the length field can make a stored record
            // read as truncated: corruption, not a legal torn tail.
            Ok(Decoded::Incomplete) => Err(StoreError::Corrupt {
                detail: format!("bucket {bucket}: stored record reads truncated"),
            }),
            Err(CodecError::BadMac { .. }) => Err(StoreError::Corrupt {
                detail: format!("bucket {bucket} failed MAC verification (bit rot)"),
            }),
            Err(err) => Err(StoreError::Corrupt { detail: format!("bucket {bucket}: {err}") }),
        }
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
        self.wal.drop_buffered();
        for seg in &mut self.segs {
            seg.drop_buffered();
        }
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

    fn append_wal(&mut self, record: &[u8]) -> Result<(), StoreError> {
        self.boundary(Io::Append)?;
        self.wal.append(record);
        self.count(CounterId::DiskWrites, 1);
        Ok(())
    }

    /// Segment append without fault consultation (recovery path).
    fn append_seg_raw(&mut self, record: &[u8]) -> Result<(), StoreError> {
        if self.segs.last().map_or(0, |s| s.bytes.len()) >= self.roll_bytes {
            self.roll_segment()?;
        }
        if let Some(seg) = self.segs.last_mut() {
            seg.append(record);
        }
        Ok(())
    }

    fn append_seg(&mut self, record: &[u8]) -> Result<(), StoreError> {
        self.boundary(Io::Append)?;
        self.append_seg_raw(record)?;
        self.count(CounterId::DiskWrites, 1);
        Ok(())
    }

    /// Finishes the active segment (flush it durable) and starts the
    /// next one.
    fn roll_segment(&mut self) -> Result<(), StoreError> {
        self.fsync_file(true)?;
        let idx = self.segs.len() as u32;
        let path = self
            .segs
            .last()
            .map(|s| s.path.clone())
            .and_then(|p| p.parent().map(|d| d.join(format!("seg-{idx:04}.dat"))))
            .ok_or(StoreError::Io { op: "roll segment", detail: "no parent dir".into() })?;
        self.segs.push(SimFile { path, bytes: Vec::new(), durable: 0 });
        Ok(())
    }

    /// A logical fsync of the journal (`seg` false) or active segment
    /// (`seg` true), with torn-write / lost-fsync injection applied.
    fn fsync_file(&mut self, seg: bool) -> Result<(), StoreError> {
        let decision = self.boundary(Io::Fsync)?;
        self.count(CounterId::DiskFsyncs, 1);
        match decision {
            Some(FaultDecision { kind: FaultKind::TornWrite, param }) => {
                if seg {
                    if let Some(f) = self.segs.last_mut() {
                        f.torn_flush(param)?;
                    }
                } else {
                    self.wal.torn_flush(param)?;
                }
                Err(self.crash())
            }
            // The lying disk: success reported, nothing durable.
            Some(FaultDecision { kind: FaultKind::FsyncLost, .. }) => Ok(()),
            _ => {
                if seg {
                    if let Some(f) = self.segs.last_mut() {
                        f.fsync()?;
                    }
                    Ok(())
                } else {
                    self.wal.fsync()
                }
            }
        }
    }

    fn meta_payload(&self) -> Vec<u8> {
        self.meta.clone().unwrap_or_default()
    }
}

/// Counts the complete records at the head of `bytes` (for the
/// [`TelemetryEvent::RecoveryBegin`] announcement; errors end the count
/// early and are re-diagnosed by the real scan).
fn count_complete_records(key: &[u8; 32], bytes: &[u8]) -> u32 {
    let mut off = 0;
    let mut n = 0;
    while off < bytes.len() {
        match decode_record(key, &bytes[off..], false) {
            Ok(Decoded::Record(_, used)) => {
                off += used;
                n += 1;
            }
            _ => break,
        }
    }
    n
}

impl BucketBackend for DiskStore {
    fn read_bucket(&mut self, bucket: u64) -> Result<Vec<Vec<u8>>, StoreError> {
        self.guard()?;
        // Read-your-writes within the open transaction.
        if let Some((_, payload)) = self.staged.iter().rev().find(|(b, _)| *b == bucket) {
            return decode_slots(payload)
                .map_err(|err| StoreError::Corrupt { detail: format!("staged bucket: {err}") });
        }
        // Disk read-path faults: bit rot lands in the stored record (and
        // evicts any cached copy so the MAC check actually runs); a
        // short read returns a truncated record without mutating it.
        if let Some(plan) = &self.faults {
            if let Some(decision) =
                plan.decide_for(FaultSite::Disk, &[FaultKind::BitRot, FaultKind::ShortRead])
            {
                match decision.kind {
                    FaultKind::BitRot => {
                        if let Some(record) = self.mirror.get_mut(&bucket) {
                            let byte = (decision.param % record.len() as u64) as usize;
                            record[byte] ^= 1 << ((decision.param >> 24) % 8);
                            self.cache.remove(&bucket);
                        }
                    }
                    _ => {
                        if let Some(record) = self.mirror.get(&bucket) {
                            let expected = record.len() as u32;
                            let actual = (decision.param % record.len() as u64) as u32;
                            return Err(StoreError::ShortRead { bucket, expected, actual });
                        }
                    }
                }
            }
        }
        if let Some(slots) = self.cache.get(&bucket) {
            return Ok(slots.clone());
        }
        self.decode_mirror(bucket)
    }

    fn write_bucket(&mut self, bucket: u64, slots: Vec<Vec<u8>>) -> Result<(), StoreError> {
        self.guard()?;
        self.staged.push((bucket, super::codec::encode_slots(&slots)));
        Ok(())
    }

    fn commit(&mut self) -> Result<(), StoreError> {
        self.guard()?;
        let seq = self.seq + 1;
        let staged = std::mem::take(&mut self.staged);
        let meta = match self.pending_meta.take() {
            Some(meta) => meta,
            None => self.meta_payload(),
        };

        // 1. Write-ahead: bucket records then the commit record.
        for (bucket, payload) in &staged {
            let rec = encode_record(
                &self.key,
                &Record { rtype: RT_WAL_BUCKET, bucket: *bucket, seq, payload: payload.clone() },
            );
            self.append_wal(&rec)?;
        }
        let commit = encode_record(
            &self.key,
            &Record { rtype: RT_COMMIT, bucket: 0, seq, payload: meta.clone() },
        );
        self.append_wal(&commit)?;

        // 2. The durability point: journal fsync gates visibility.
        self.fsync_file(false)?;

        // 3. Checkpoint into the active segment (buffered).
        for (bucket, payload) in staged {
            let encoded = encode_record(
                &self.key,
                &Record { rtype: RT_SEG_BUCKET, bucket, seq, payload: payload.clone() },
            );
            self.append_seg(&encoded)?;
            if bucket < self.tree_top {
                let slots = decode_slots(&payload)
                    .map_err(|err| StoreError::Corrupt { detail: format!("commit: {err}") })?;
                self.cache.insert(bucket, slots);
            }
            self.mirror.insert(bucket, encoded);
        }

        self.seq = seq;
        self.meta = if meta.is_empty() { None } else { Some(meta) };
        self.commits_since_trim += 1;

        // 4. Periodic checkpoint barrier: once the segment is durable
        //    (meta re-homed into it first), the journal can be trimmed.
        if self.commits_since_trim >= self.wal_trim_every {
            let meta_rec = encode_record(
                &self.key,
                &Record { rtype: RT_META, bucket: 0, seq, payload: self.meta_payload() },
            );
            self.append_seg(&meta_rec)?;
            self.fsync_file(true)?;
            self.boundary(Io::Append)?;
            self.wal.truncate_to(0)?;
            self.commits_since_trim = 0;
        }
        Ok(())
    }

    fn committed_seq(&self) -> u64 {
        self.seq
    }

    fn put_meta(&mut self, meta: &[u8]) {
        self.pending_meta = Some(meta.to_vec());
    }

    fn meta(&self) -> Option<Vec<u8>> {
        self.meta.clone()
    }

    fn state_digest(&self) -> B256 {
        let mut h = Keccak256::new();
        let empty = vec![Vec::new(); self.capacity];
        for bucket in 0..self.bucket_count {
            match self.mirror.get(&bucket) {
                Some(record) => match decode_record(&self.key, record, false) {
                    Ok(Decoded::Record(rec, _)) => match decode_slots(&rec.payload) {
                        Ok(slots) => digest_bucket(&mut h, bucket, &slots),
                        // Undecodable content still changes the digest
                        // (never silently matches a healthy twin).
                        Err(_) => h.update(record),
                    },
                    _ => h.update(record),
                },
                None => digest_bucket(&mut h, bucket, &empty),
            }
        }
        h.finalize()
    }

    fn corrupt_slots(&mut self, f: &mut dyn FnMut(u64, usize, &mut Vec<u8>)) {
        // The malicious SP rewrites its own storage: slots are mutated
        // and re-framed with valid MACs — only the client's AES-GCM can
        // catch this, which is exactly the layering under test.
        let buckets: Vec<u64> = self.mirror.keys().copied().collect();
        for bucket in buckets {
            let Ok(Decoded::Record(rec, _)) =
                decode_record(&self.key, &self.mirror[&bucket], false)
            else {
                continue;
            };
            let Ok(mut slots) = decode_slots(&rec.payload) else { continue };
            for (i, slot) in slots.iter_mut().enumerate() {
                f(bucket, i, slot);
            }
            let encoded = encode_record(
                &self.key,
                &Record {
                    rtype: RT_SEG_BUCKET,
                    bucket,
                    seq: rec.seq,
                    payload: super::codec::encode_slots(&slots),
                },
            );
            self.cache.remove(&bucket);
            self.mirror.insert(bucket, encoded);
        }
    }
}
