//! Crash-recovery suite for the disk-backed ORAM bucket store.
//!
//! The oracle throughout is an in-memory *twin*: the identical
//! checkpointed workload driven against a [`MemBackend`] server from the
//! same client seed. After any injected fault and reopen, the disk
//! store's bucket digest must be byte-identical to the twin advanced to
//! the recovered commit count — and the sealed client restored from the
//! store's meta slot must finish the workload bit-for-bit like the twin.

use tape_crypto::prop::{check, Gen};
use tape_crypto::{keccak256, SecureRng};
use tape_oram::store::codec;
use tape_oram::{
    BlockId, BucketBackend, DiskStore, DiskStoreConfig, OramClient, OramConfig, OramError,
    OramServer, RecoveryReport, StoreError,
};
use tape_primitives::B256;
use tape_sim::fault::{FaultKind, FaultPlan, FaultSite};
use tape_sim::telemetry::audit::Violation;
use tape_sim::telemetry::{CounterId, Telemetry};
use tape_sim::{Clock, CostModel, Scratch};

const KEY: [u8; 16] = [7u8; 16];
const MAC_KEY: [u8; 32] = [0x5Du8; 32];
const CLIENT_SEED: &[u8] = b"store crash suite";

fn geometry() -> OramConfig {
    OramConfig { block_size: 64, bucket_capacity: 4, height: 5 }
}

fn bid(i: u64) -> BlockId {
    keccak256(i.to_be_bytes())
}

fn data(i: u64) -> Vec<u8> {
    (0..64).map(|j| (i as u8).wrapping_mul(31).wrapping_add(j)).collect()
}

fn fresh_client() -> OramClient {
    OramClient::new(geometry(), &KEY, SecureRng::from_seed(CLIENT_SEED))
}

fn config(dir: &std::path::Path) -> DiskStoreConfig {
    DiskStoreConfig::new(dir, MAC_KEY)
}

/// [`config`] at the smallest segment size the store accepts. One
/// checkpointed op of this geometry appends ≈ 3.9 KB (six bucket records
/// and a sealed client), so a segment is full after two of them.
fn rolling(dir: &std::path::Path) -> DiskStoreConfig {
    DiskStoreConfig { segment_roll_bytes: 4096, ..config(dir) }
}

/// Opens the disk store `cfg` describes, arms `plan` underneath it, and
/// wraps it in a checkpointing server (autocommit off: every op seals
/// the client into its commit).
fn open_store(
    cfg: DiskStoreConfig,
    plan: Option<&FaultPlan>,
    clock: &Clock,
    telemetry: Option<Telemetry>,
) -> (OramServer, RecoveryReport) {
    let (mut store, report) =
        DiskStore::open(cfg, &geometry(), clock, telemetry).expect("open disk store");
    if let Some(plan) = plan {
        store.arm_faults(plan.clone());
    }
    let mut server = OramServer::with_backend(geometry(), Box::new(store));
    server.set_autocommit(false);
    (server, report)
}

fn open_disk(
    dir: &std::path::Path,
    telemetry: Option<Telemetry>,
) -> (OramServer, RecoveryReport) {
    open_store(config(dir), None, &Clock::new(), telemetry)
}

/// [`open_disk`], with the fault plan armed underneath the server.
fn open_armed(
    dir: &std::path::Path,
    plan: &FaultPlan,
    clock: &Clock,
) -> (OramServer, RecoveryReport) {
    open_store(config(dir), Some(plan), clock, None)
}

/// One checkpointed op: write block `i`, seal the client into the
/// commit, commit. Returns the store error if the commit (or the access
/// itself) hits an injected fault.
fn checkpointed_op(
    server: &mut OramServer,
    client: &mut OramClient,
    clock: &Clock,
    cost: &CostModel,
    i: u64,
) -> Result<(), OramError> {
    client.write(server, clock, cost, &bid(i), data(i))?;
    let sealed = client.seal_state();
    server.put_meta(sealed);
    server.commit()
}

/// Runs ops `start..end`; returns the op index and error of the first
/// failure.
fn run_ops(
    server: &mut OramServer,
    client: &mut OramClient,
    start: u64,
    end: u64,
) -> Result<(), (u64, OramError)> {
    let (clock, cost) = (Clock::new(), CostModel::default());
    for i in start..end {
        checkpointed_op(server, client, &clock, &cost, i).map_err(|e| (i, e))?;
    }
    Ok(())
}

/// The uninterrupted in-memory reference: digest after every op count
/// (`digests[s]` = bucket digest once `s` ops have committed).
fn twin_digests(total: u64) -> Vec<B256> {
    let mut server = OramServer::new(geometry());
    server.set_autocommit(false);
    let mut client = fresh_client();
    let (clock, cost) = (Clock::new(), CostModel::default());
    let mut digests = vec![server.state_digest()];
    for i in 0..total {
        checkpointed_op(&mut server, &mut client, &clock, &cost, i).expect("twin op");
        digests.push(server.state_digest());
    }
    digests
}

/// After a crash: reopen, check byte-identity against the twin at the
/// recovered commit count, restore the client from the durable meta
/// slot, finish the workload, and check byte-identity with the twin's
/// final state.
fn reopen_and_finish(cfg: DiskStoreConfig, total: u64, twins: &[B256]) -> RecoveryReport {
    let (mut server, report) = open_store(cfg, None, &Clock::new(), None);
    let s = report.committed_seq;
    assert!(s <= total, "recovered seq {s} beyond the {total} ops ever attempted");
    assert_eq!(
        server.state_digest(),
        twins[s as usize],
        "reopened store diverges from the twin at {s} committed ops"
    );
    let mut client = match server.meta() {
        Some(sealed) => {
            assert!(s > 0, "meta blob present with no committed transaction");
            OramClient::restore_state(geometry(), &KEY, sealed).expect("restore sealed client")
        }
        None => {
            assert_eq!(s, 0, "committed transactions but no sealed client recovered");
            fresh_client()
        }
    };
    run_ops(&mut server, &mut client, s, total).expect("post-recovery ops run clean");
    assert_eq!(
        server.state_digest(),
        twins[total as usize],
        "post-recovery completion diverges from the uninterrupted twin"
    );
    report
}

#[test]
fn disk_backed_roundtrip_matches_twin_and_survives_reopen() {
    let scratch = Scratch::new("store-roundtrip", 1);
    let total = 10u64;
    let twins = twin_digests(total);

    let (mut server, report) = open_disk(scratch.path(), None);
    assert_eq!(report, RecoveryReport::default(), "fresh dir recovers nothing");
    let mut client = fresh_client();
    run_ops(&mut server, &mut client, 0, total).expect("clean run");
    assert_eq!(server.committed_seq(), total);
    assert_eq!(server.state_digest(), twins[total as usize], "disk and twin diverge");

    // Reads come back through the disk path.
    let (clock, cost) = (Clock::new(), CostModel::default());
    for i in 0..total {
        assert_eq!(
            client.read(&mut server, &clock, &cost, &bid(i)).expect("read"),
            Some(data(i)),
            "block {i}"
        );
    }

    // Cold start from the durable files alone: same committed state,
    // and the sealed client keeps serving.
    drop(server);
    let (mut reopened, report) = open_disk(scratch.path(), None);
    assert_eq!(report.committed_seq, total);
    assert_eq!(reopened.state_digest(), twins[total as usize], "cold start diverges");
    let sealed = reopened.meta().expect("sealed client in meta slot");
    let mut restored =
        OramClient::restore_state(geometry(), &KEY, sealed).expect("restore client");
    // The in-process client did `total` post-commit reads the sealed
    // snapshot predates, so only durable state may be compared — the
    // restored client must serve every committed block.
    for i in (0..total).rev() {
        assert_eq!(
            restored.read(&mut reopened, &clock, &cost, &bid(i)).expect("restored read"),
            Some(data(i)),
            "restored client lost block {i}"
        );
    }
}

/// Crashes a `total`-op run at every I/O boundary in turn (the
/// `CrashPoint { n }` countdown) and recovers each one against the
/// twin. Returns how many crash points the sweep covered.
fn kill_matrix(total: u64, cfg: fn(&std::path::Path) -> DiskStoreConfig) -> u32 {
    let twins = twin_digests(total);
    let mut crashes = 0u32;
    loop {
        let scratch = Scratch::new("store-kill", total << 32 | u64::from(crashes));
        let clock = Clock::new();
        let plan = FaultPlan::new(0xC0FFEE, &clock);
        plan.arm(FaultSite::Disk, &[FaultKind::CrashPoint { n: crashes }], 1, 1);
        let (mut server, _) = open_store(cfg(scratch.path()), Some(&plan), &clock, None);
        let mut client = fresh_client();
        match run_ops(&mut server, &mut client, 0, total) {
            // The countdown outlived every I/O boundary of the run:
            // the whole matrix has been swept.
            Ok(()) => return crashes,
            Err((_, OramError::Store(StoreError::Crashed))) => {
                crashes += 1;
                // Poisoned store refuses everything until reopen.
                assert!(matches!(
                    server.commit(),
                    Err(OramError::Store(StoreError::Crashed))
                ));
                drop(server);
                reopen_and_finish(cfg(scratch.path()), total, &twins);
            }
            Err((i, err)) => panic!("op {i}: unexpected error {err}"),
        }
    }
}

#[test]
fn kill_matrix_every_crash_point_recovers_byte_identical() {
    let crashes = kill_matrix(3, config);
    assert!(crashes >= 20, "matrix swept only {crashes} crash points");
}

/// The same sweep with crash points landing on segment rolls too.
#[test]
fn kill_matrix_across_segment_rolls_recovers_byte_identical() {
    let crashes = kill_matrix(12, rolling);
    assert!(crashes >= 80, "matrix swept only {crashes} crash points");
}

/// A clean stop (the server is dropped, nothing is torn) after every
/// commit count in turn, with most transactions straddling a segment
/// roll: each reopen must find exactly the commits made and the twin's
/// tree at that count.
#[test]
fn clean_stop_at_every_commit_index_recovers_the_twin() {
    let total = 40u64;
    let twins = twin_digests(total);
    let mut wrong = Vec::new();
    for stop in 1..=total {
        let scratch = Scratch::new("store-clean-stop", stop);
        let (mut server, _) = open_store(rolling(scratch.path()), None, &Clock::new(), None);
        run_ops(&mut server, &mut fresh_client(), 0, stop).expect("clean run");
        drop(server);
        let (server, report) = open_store(rolling(scratch.path()), None, &Clock::new(), None);
        assert_eq!(report.committed_seq, stop, "a clean stop loses no commit");
        if server.state_digest() != twins[stop as usize] {
            wrong.push(stop);
        }
    }
    assert!(wrong.is_empty(), "stops that recovered a different tree: {wrong:?}");
}

#[test]
fn torn_write_is_discarded_on_recovery() {
    let total = 4u64;
    let twins = twin_digests(total);
    // Sweep the torn-prefix space: the fault param drives how much of
    // the buffered tail reaches the platter.
    for seed in 0..6u64 {
        let scratch = Scratch::new("store-torn", seed);
        let clock = Clock::new();
        let plan = FaultPlan::new(0x7042 + seed, &clock);
        plan.arm(FaultSite::Disk, &[FaultKind::TornWrite], 2, 1);
        let (mut server, _) = open_armed(scratch.path(), &plan, &clock);
        let mut client = fresh_client();
        let (i, err) =
            run_ops(&mut server, &mut client, 0, total).expect_err("torn write must crash");
        assert_eq!(err, OramError::Store(StoreError::Crashed), "op {i}");
        drop(server);
        let report = reopen_and_finish(config(scratch.path()), total, &twins);
        assert!(report.committed_seq <= i, "torn commit {i} must not be visible");
    }
}

#[test]
fn lost_fsync_surfaces_at_the_next_crash() {
    let total = 3u64;
    let twins = twin_digests(total);
    let scratch = Scratch::new("store-fsynclost", 1);
    let clock = Clock::new();
    let plan = FaultPlan::new(0xF5, &clock);
    plan.arm(FaultSite::Disk, &[FaultKind::FsyncLost], 1, 1);
    let (mut server, _) = open_armed(scratch.path(), &plan, &clock);
    let mut client = fresh_client();

    // Op 0 "succeeds": the disk lied about the commit fsync.
    let (c, cost) = (Clock::new(), CostModel::default());
    checkpointed_op(&mut server, &mut client, &c, &cost, 0).expect("lying disk reports success");
    assert_eq!(server.committed_seq(), 1, "in-process view believes the commit");

    // Power dies before the next real fsync: the commit evaporates.
    plan.arm(FaultSite::Disk, &[FaultKind::CrashPoint { n: 0 }], 1, 1);
    let err = checkpointed_op(&mut server, &mut client, &c, &cost, 1)
        .expect_err("crash after the lie");
    assert_eq!(err, OramError::Store(StoreError::Crashed));
    drop(server);

    let report = reopen_and_finish(config(scratch.path()), total, &twins);
    assert_eq!(
        report.committed_seq, 0,
        "the lost fsync means nothing was ever durable, whatever the store reported"
    );
}

/// Rot in the stored record of one bucket — the root, and a leaf-level
/// bucket — is read as typed corruption, whatever the store knew of that
/// record before the rot, and a reopen recovers.
#[test]
fn bit_rot_is_detected_and_reopen_recovers() {
    let total = 6u64;
    let twins = twin_digests(total);
    let g = geometry();
    for level in [0, g.height] {
        let scratch = Scratch::new("store-bitrot", u64::from(level));
        {
            let (mut server, _) = open_disk(scratch.path(), None);
            let mut client = fresh_client();
            run_ops(&mut server, &mut client, 0, total).expect("clean run");
        }

        // The first written bucket of the level, read clean once.
        let clock = Clock::new();
        let (mut store, _) =
            DiskStore::open(config(scratch.path()), &g, &clock, None).expect("open store");
        let mut slots = vec![0u8; g.bucket_capacity * g.slot_len()];
        let bucket = ((1u64 << level) - 1..(2u64 << level) - 1)
            .find(|&b| store.read_bucket(b, &mut slots).expect("clean read"))
            .expect("a written bucket at this level");

        // Arm at-rest rot: the next read decodes a flipped record and the
        // MAC catches it — a typed error, never a panic or silent serve.
        let plan = FaultPlan::new(0xB17, &clock);
        plan.arm(FaultSite::Disk, &[FaultKind::BitRot], 1, 1);
        store.arm_faults(plan.clone());
        let err = store.read_bucket(bucket, &mut slots).expect_err("rot must surface");
        assert_eq!(plan.injected(), 1, "level {level}: the rot landed on bucket {bucket}");
        assert!(
            matches!(err, StoreError::Corrupt { .. }),
            "level {level}, bucket {bucket}: expected typed corruption, got {err}"
        );

        // The rot lived in the serving copy; the durable bytes are intact,
        // so a fresh open recovers the full committed state.
        drop(store);
        reopen_and_finish(config(scratch.path()), total, &twins);
    }
}

#[test]
fn short_read_is_typed_and_transient() {
    let total = 5u64;
    let scratch = Scratch::new("store-shortread", 1);
    {
        let (mut server, _) = open_disk(scratch.path(), None);
        let mut client = fresh_client();
        run_ops(&mut server, &mut client, 0, total).expect("clean run");
    }

    let clock = Clock::new();
    let plan = FaultPlan::new(0x5407, &clock);
    plan.arm(FaultSite::Disk, &[FaultKind::ShortRead], 1, 1);
    let (mut server, report) = open_armed(scratch.path(), &plan, &clock);
    assert_eq!(report.committed_seq, total);
    let sealed = server.meta().expect("sealed client");
    let mut restored =
        OramClient::restore_state(geometry(), &KEY, sealed).expect("restore client");
    let (c, cost) = (Clock::new(), CostModel::default());
    let err = restored.read(&mut server, &c, &cost, &bid(1)).expect_err("short read surfaces");
    match err {
        OramError::Store(StoreError::ShortRead { expected, actual, .. }) => {
            assert!(actual < expected, "short read must return fewer bytes than held")
        }
        other => panic!("expected typed short read, got {other}"),
    }
    // The failed access never committed, and the fault was transient:
    // the very next access serves the same block.
    assert_eq!(server.committed_seq(), total);
    assert_eq!(
        restored.read(&mut server, &c, &cost, &bid(1)).expect("retry succeeds"),
        Some(data(1))
    );
}

/// Every file in `dir`, by name.
fn dir_bytes(dir: &std::path::Path) -> std::collections::BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("store dir")
        .map(|entry| {
            let entry = entry.expect("dir entry");
            let name = entry.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(entry.path()).expect("read store file"))
        })
        .collect()
}

#[test]
fn recovery_is_idempotent() {
    let total = 5u64;
    let scratch = Scratch::new("store-idempotent", 1);
    let clock = Clock::new();
    let plan = FaultPlan::new(0x1D, &clock);
    let (mut server, _) = open_armed(scratch.path(), &plan, &clock);
    let mut client = fresh_client();
    run_ops(&mut server, &mut client, 0, 3).expect("clean prefix");
    plan.arm(FaultSite::Disk, &[FaultKind::TornWrite], 1, 1);
    run_ops(&mut server, &mut client, 3, total).expect_err("torn write crashes");
    drop(server);

    // The first open has a torn transaction to truncate.
    let (first, report1) = open_disk(scratch.path(), None);
    assert_eq!(report1.committed_seq, 3);
    assert!(report1.discarded > 0, "seed must leave a torn tail on the platter");
    let digest1 = first.state_digest();
    drop(first);
    let files = dir_bytes(scratch.path());
    // The second and third find a clean log and leave it alone.
    for _ in 0..2 {
        let (again, report) = open_disk(scratch.path(), None);
        assert_eq!(report, RecoveryReport { discarded: 0, ..report1 });
        assert_eq!(again.state_digest(), digest1, "recovery must be a fixed point");
        drop(again);
        assert_eq!(dir_bytes(scratch.path()), files, "a clean recovery rewrote the directory");
    }
}

/// Where [`flip_bit`] strikes a record: the last bit of one of its
/// fields, or (`Relabel`) its bucket index rewritten to the next
/// bucket's, the checksum left as it was — a splice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Field {
    Type,
    Bucket,
    Seq,
    Length,
    Payload,
    Checksum,
    Relabel,
}

/// Every [`Field`], for a table of strikes on one bucket record.
const FIELDS: [Field; 7] = [
    Field::Type,
    Field::Bucket,
    Field::Seq,
    Field::Length,
    Field::Payload,
    Field::Checksum,
    Field::Relabel,
];

/// Strikes `field` of record `record` of segment file `segment` (`bytes`).
/// Returns the error recovery must name it by: an unknown record type for
/// the type field, and a checksum failure for every other, as a record's
/// checksum is checked before its sequence number or its shape.
fn flip_bit(bytes: &mut [u8], segment: usize, record: usize, field: Field) -> String {
    let (mut off, mut n) = (0, 0);
    loop {
        let Ok(codec::Decoded::Record(rec, used)) = codec::decode_record(&bytes[off..], false)
        else {
            panic!("segment {segment} has no record {record}");
        };
        if n == record {
            // Header: magic 0..2, type 2, bucket 3..11, seq 11..19, length
            // 19..23; the checksum is the record's last four bytes.
            let (rtype, mut bucket) = (rec.rtype, rec.bucket);
            match field {
                Field::Type => bytes[off + 2] ^= 1,
                Field::Bucket => {
                    bytes[off + 10] ^= 1;
                    bucket ^= 1;
                }
                Field::Seq => bytes[off + 18] ^= 1,
                Field::Length => bytes[off + 22] ^= 1,
                Field::Payload => bytes[off + codec::HEADER_LEN + 5] ^= 1,
                Field::Checksum => bytes[off + used - 1] ^= 1,
                Field::Relabel => {
                    bucket += 1;
                    bytes[off + 3..off + 11].copy_from_slice(&bucket.to_be_bytes());
                }
            }
            let err = match field {
                Field::Type => codec::CodecError::Malformed("unknown record type"),
                _ => codec::CodecError::BadChecksum { rtype, bucket },
            };
            return format!("segment {segment} offset {off}: {err}");
        }
        (off, n) = (off + used, n + 1);
    }
}

/// Records in one segment file.
fn record_count(bytes: &[u8]) -> usize {
    let mut off = 0;
    let mut n = 0;
    while let Ok(codec::Decoded::Record(_, used)) = codec::decode_record(&bytes[off..], false) {
        (off, n) = (off + used, n + 1);
        if off == bytes.len() {
            break;
        }
    }
    n
}

/// Checksum failures in two records of one segment, one early and one
/// late, and in a third in the last segment, which also ends torn.
/// Recovery names the earliest, by segment and offset, and changes no
/// byte of the directory; with the first two mended it names the third
/// and still leaves the torn tail in place. A bucket record with one bit
/// of any field flipped, or relabelled to another bucket, is named by its
/// checksum failure (by its unknown type, for the type field). Run once
/// with the early record
/// among the segment's even-numbered records and the late one among its
/// odd-numbered ones, and once the other way round.
#[test]
fn recovery_names_the_first_mac_failure_in_log_order() {
    let scratch = Scratch::new("store-mac-order", 1);
    let (mut server, _) = open_store(rolling(scratch.path()), None, &Clock::new(), None);
    run_ops(&mut server, &mut fresh_client(), 0, 8).expect("clean run");
    drop(server);
    let pristine = dir_bytes(scratch.path());
    let names: Vec<&String> = pristine.keys().collect();
    assert!(names.len() >= 3, "the log must span three segment files");
    for (i, name) in names.iter().enumerate() {
        assert_eq!(**name, format!("seg-{i:04}.dat"));
    }
    let last = names.len() - 1;
    let write_all = |files: &std::collections::BTreeMap<String, Vec<u8>>| {
        for (name, bytes) in files {
            std::fs::write(scratch.join(name), bytes).expect("write segment");
        }
    };
    let open_names = |expected: &str, case: &str| {
        let before = dir_bytes(scratch.path());
        match DiskStore::open(rolling(scratch.path()), &geometry(), &Clock::new(), None) {
            Err(StoreError::Corrupt { detail }) => assert_eq!(detail, expected, "{case}"),
            Err(err) => panic!("{case}: expected typed corruption, got {err}"),
            Ok(_) => panic!("{case}: a log with a bad checksum opened"),
        }
        assert_eq!(dir_bytes(scratch.path()), before, "{case}: a failed open wrote");
    };

    let records = record_count(&pristine[names[1]]);
    for parity in [0, 1] {
        let mut files = pristine.clone();
        let mid = files.get_mut(names[1]).expect("segment 1");
        let late = records - 1 - usize::from((records - 1) % 2 == parity);
        let early = flip_bit(mid, 1, 2 + parity, Field::Checksum);
        flip_bit(mid, 1, late, Field::Checksum);
        let tail = files.get_mut(names[last]).expect("last segment");
        let third = flip_bit(tail, last, parity, Field::Checksum);
        // The last segment ends inside its last record, as a crash
        // mid-fsync leaves it.
        tail.truncate(tail.len() - 7);
        write_all(&files);
        open_names(&early, &format!("parity {parity}, early and late"));
        files.insert(names[1].clone(), pristine[names[1]].clone());
        write_all(&files);
        open_names(&third, &format!("parity {parity}, the later segment"));

        for field in FIELDS {
            let mut files = pristine.clone();
            let mid = files.get_mut(names[1]).expect("segment 1");
            let broken = flip_bit(mid, 1, 2 + parity, field);
            write_all(&files);
            open_names(&broken, &format!("parity {parity}, {field:?}"));
        }
    }
}

/// Every read checks the checksum of the committed record it serves, and
/// the tree the reads serve is the twin's, block for block.
#[test]
fn marked_buckets_serve_the_twins_tree() {
    let total = 8u64;
    let twins = twin_digests(total);
    let scratch = Scratch::new("store-marks", 1);
    let (mut server, _) = open_disk(scratch.path(), None);
    let mut client = fresh_client();
    run_ops(&mut server, &mut client, 0, total).expect("clean run");
    assert_eq!(server.state_digest(), twins[total as usize], "the marked store diverges");
    let (c, cost) = (Clock::new(), CostModel::default());
    for i in 0..total {
        assert_eq!(
            client.read(&mut server, &c, &cost, &bid(i)).expect("read"),
            Some(data(i)),
            "block {i}"
        );
    }
}

#[test]
fn checksum_ablation_fails_the_audit() {
    let total = 6u64;
    // Ablation: checksum verification disabled. Every mirror decode
    // announces itself, and a single announcement fails the §IV-D audit.
    let scratch = Scratch::new("store-ablation", 1);
    let telemetry = Telemetry::new();
    let clock = Clock::new();
    let mut cfg = DiskStoreConfig::new(scratch.path(), MAC_KEY);
    cfg.verify_checksums = false;
    let (store, _) = DiskStore::open(cfg, &geometry(), &clock, Some(telemetry.clone()))
        .expect("open unverified store");
    let mut server = OramServer::with_backend(geometry(), Box::new(store));
    server.set_autocommit(false);
    let mut client = fresh_client();
    run_ops(&mut server, &mut client, 0, total).expect("ablated run still functions");

    let report = telemetry.audit();
    assert!(!report.passed(), "the checksum-disabled ablation must FAIL the audit");
    assert!(
        report.violations.iter().any(|v| matches!(v, Violation::UnverifiedDiskRead { .. })),
        "expected unverified disk reads, got {:?}",
        report.violations
    );
    assert!(report.stats.unverified_disk_reads > 0);

    // Reopened, the ablated store recovers without checking a checksum
    // either, and the restored client's reads fail the audit again.
    drop(server);
    let reopened = Telemetry::new();
    let mut cfg = DiskStoreConfig::new(scratch.path(), MAC_KEY);
    cfg.verify_checksums = false;
    let (store, _) = DiskStore::open(cfg, &geometry(), &clock, Some(reopened.clone()))
        .expect("reopen unverified store");
    // Autocommit on: each read's write-back is committed, so the next
    // read meets the mirror, not the open transaction.
    let mut server = OramServer::with_backend(geometry(), Box::new(store));
    let sealed = server.meta().expect("sealed client");
    let mut restored =
        OramClient::restore_state(geometry(), &KEY, sealed).expect("restore client");
    let (c, cost) = (Clock::new(), CostModel::default());
    for i in 0..total {
        let read = restored.read(&mut server, &c, &cost, &bid(i)).expect("ablated read");
        assert_eq!(read, Some(data(i)), "block {i}");
    }
    let report = reopened.audit();
    assert!(!report.passed(), "the ablation must FAIL the audit after a reopen too");
    // Nothing is checked under the ablation, in recovery or on a read:
    // every read announces itself, the root's on every access.
    let root_reads = report
        .violations
        .iter()
        .filter(|v| matches!(v, Violation::UnverifiedDiskRead { bucket: 0, .. }))
        .count();
    assert_eq!(root_reads as u64, total, "unverified root reads after the reopen");

    // Control: the verifying store on the same workload stays green.
    let scratch2 = Scratch::new("store-ablation", 2);
    let telemetry2 = Telemetry::new();
    let (store, _) = DiskStore::open(
        DiskStoreConfig::new(scratch2.path(), MAC_KEY),
        &geometry(),
        &clock,
        Some(telemetry2.clone()),
    )
    .expect("open verifying store");
    let mut server = OramServer::with_backend(geometry(), Box::new(store));
    server.set_autocommit(false);
    let mut client = fresh_client();
    run_ops(&mut server, &mut client, 0, total).expect("clean run");
    let report = telemetry2.audit();
    assert!(report.passed(), "verifying store must stay green: {:?}", report.violations);
}

#[test]
fn recovery_window_and_counters_land_on_the_telemetry_stream() {
    let total = 5u64;
    let scratch = Scratch::new("store-telemetry", 1);
    let telemetry = Telemetry::new();
    let clock = Clock::new();
    let (store, _) = DiskStore::open(
        DiskStoreConfig::new(scratch.path(), MAC_KEY),
        &geometry(),
        &clock,
        Some(telemetry.clone()),
    )
    .expect("open store");
    let mut server = OramServer::with_backend(geometry(), Box::new(store));
    server.set_autocommit(false);
    let mut client = fresh_client();
    run_ops(&mut server, &mut client, 0, total).expect("clean run");
    assert!(telemetry.counter(CounterId::DiskWrites) > 0, "writes must be counted");
    assert!(telemetry.counter(CounterId::DiskFsyncs) > 0, "fsyncs must be counted");
    drop(server);

    // Second open on the same stream: its recovery window must close
    // cleanly and keep the audit green over the disk path.
    let clock2 = Clock::new();
    let (_store, report) = DiskStore::open(
        DiskStoreConfig::new(scratch.path(), MAC_KEY),
        &geometry(),
        &clock2,
        Some(telemetry.clone()),
    )
    .expect("reopen store");
    assert_eq!(report.committed_seq, total);
    assert_eq!(
        telemetry.counter(CounterId::RecoveryReplays),
        u64::from(report.replayed),
        "replay counter mirrors the recovery report"
    );
    let audit = telemetry.audit();
    assert!(audit.passed(), "disk path must stay §IV-D green: {:?}", audit.violations);
    assert_eq!(audit.stats.recoveries, 2, "both opens announce their windows");
    // The whole report, pinned: keccak of its `Debug` form.
    assert_eq!(
        keccak256(format!("{audit:?}").as_bytes()).to_string(),
        "0xd02c0855b89e077bc9a05a656d9c33c52294f070ef93aca6b94471db82d192b4",
        "the recovery-lens report changed"
    );
}

#[test]
fn prop_disk_and_memory_backends_stay_in_lockstep() {
    check("disk/mem lockstep", 6, |g: &mut Gen| {
        let seed = g.u64();
        let scratch = Scratch::new("store-lockstep", seed);
        let clock = Clock::new();
        let (store, _) = DiskStore::open(
            DiskStoreConfig::new(scratch.path(), MAC_KEY),
            &geometry(),
            &clock,
            None,
        )
        .expect("open store");
        let mut disk = OramServer::with_backend(geometry(), Box::new(store));
        disk.set_autocommit(false);
        let mut mem = OramServer::new(geometry());
        mem.set_autocommit(false);
        let client_seed = seed.to_be_bytes();
        let mut disk_client =
            OramClient::new(geometry(), &KEY, SecureRng::from_seed(&client_seed));
        let mut mem_client = OramClient::new(geometry(), &KEY, SecureRng::from_seed(&client_seed));
        let (c, cost) = (Clock::new(), CostModel::default());

        let ops = g.range(2, 8);
        for _ in 0..ops {
            let id = bid(g.below(6));
            if g.bool() {
                let payload = data(g.below(16));
                let a = disk_client.write(&mut disk, &c, &cost, &id, payload.clone());
                let b = mem_client.write(&mut mem, &c, &cost, &id, payload);
                assert_eq!(a.expect("disk write"), b.expect("mem write"));
            } else {
                let a = disk_client.read(&mut disk, &c, &cost, &id);
                let b = mem_client.read(&mut mem, &c, &cost, &id);
                assert_eq!(a.expect("disk read"), b.expect("mem read"));
            }
            disk.put_meta(disk_client.seal_state());
            mem.put_meta(mem_client.seal_state());
            disk.commit().expect("disk commit");
            mem.commit().expect("mem commit");
            assert_eq!(disk.state_digest(), mem.state_digest(), "backends diverged");
        }
        // Cold start agrees too.
        drop(disk);
        let (reopened, report) = open_disk(scratch.path(), None);
        assert_eq!(report.committed_seq, ops);
        assert_eq!(reopened.state_digest(), mem.state_digest(), "cold start diverged");
    });
}

#[test]
fn prop_arbitrary_log_truncation_never_panics() {
    check("log truncation", 8, |g: &mut Gen| {
        let seed = g.u64();
        let scratch = Scratch::new("store-truncate", seed);
        let total = g.range(3, 8);
        let twins = twin_digests(total);
        let (mut server, _) = open_store(rolling(scratch.path()), None, &Clock::new(), None);
        run_ops(&mut server, &mut fresh_client(), 0, total).expect("clean run");
        drop(server);
        let pristine = dir_bytes(scratch.path());
        assert!(pristine.len() >= 2, "the roll size must spread the log over several files");
        let chop = |name: &String, cut: usize| {
            std::fs::write(scratch.join(name), &pristine[name][..cut]).expect("truncate segment");
        };

        // Chop the last segment file at an arbitrary byte: recovery must
        // come up with a typed verdict — a prefix of the commits, no
        // panic, and never an unverified bucket.
        let (last, bytes) = pristine.last_key_value().expect("a segment");
        let cut = g.index(bytes.len() + 1);
        chop(last, cut);
        let (server, report) = open_store(rolling(scratch.path()), None, &Clock::new(), None);
        assert!(report.committed_seq <= total, "truncation cannot invent commits");
        // What *was* recovered is a consistent prefix: byte-identical to
        // the twin at that op count.
        assert_eq!(
            server.state_digest(),
            twins[report.committed_seq as usize],
            "cut at byte {cut}: recovered state is not a committed prefix"
        );
        drop(server);

        // Chop any earlier file short instead: the log now has a hole
        // with commits after it, which no crash can explain — typed
        // corruption, never a panic or a silently shorter history.
        chop(last, bytes.len());
        let (earlier, bytes) =
            pristine.iter().nth(g.index(pristine.len() - 1)).expect("an earlier segment");
        let cut = g.index(bytes.len());
        chop(earlier, cut);
        let err = DiskStore::open(rolling(scratch.path()), &geometry(), &Clock::new(), None)
            .expect_err("a hole in the log must not open");
        assert!(
            matches!(err, StoreError::Corrupt { .. }),
            "{earlier} cut at byte {cut}: expected typed corruption, got {err}"
        );

        // Flip one bit anywhere in the whole log instead: typed corruption,
        // or a committed prefix the twin agrees with — never a panic.
        chop(earlier, bytes.len());
        let (name, bytes) = pristine.iter().nth(g.index(pristine.len())).expect("a segment");
        let bit = g.index(bytes.len() * 8);
        let mut flipped = bytes.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        std::fs::write(scratch.join(name), &flipped).expect("flip a bit");
        match DiskStore::open(rolling(scratch.path()), &geometry(), &Clock::new(), None) {
            Ok((store, report)) => assert_eq!(
                store.state_digest(),
                twins[report.committed_seq as usize],
                "{name} bit {bit}: recovered state is not a committed prefix"
            ),
            Err(StoreError::Corrupt { .. }) => {}
            Err(err) => panic!("{name} bit {bit}: expected typed corruption, got {err}"),
        }
    });
}

/// A directory written by a store this one replaced is refused, not
/// misread: its records carry an older magic, and a `wal.log` may hold
/// commits no segment has. So is a well-framed bucket record that does
/// not hold exactly one bucket of this geometry.
#[test]
fn old_format_directory_is_refused_as_corrupt() {
    let open = |dir: &std::path::Path| {
        DiskStore::open(config(dir), &geometry(), &Clock::new(), None).map(|(_, report)| report)
    };

    // A v1 segment record (magic 0xD15C, type 3), and a v2 and a v3 commit
    // record (0xD15D and 0xD15E, type 2): bucket 0, seq 1, empty payload,
    // a 32-byte MAC. Each is refused at its first record's magic.
    for (version, magic, rtype, scratch_id) in [(1, 0x5C, 3, 1), (2, 0x5D, 2, 3), (3, 0x5E, 2, 5)] {
        let scratch = Scratch::new("store-old-format", scratch_id);
        let mut old = vec![0xD1, magic, rtype];
        old.extend_from_slice(&[0; 8]);
        old.extend_from_slice(&1u64.to_be_bytes());
        old.extend_from_slice(&[0; 4 + 32]);
        std::fs::write(scratch.join("seg-0000.dat"), &old).expect("write old segment");
        let err = open(scratch.path()).expect_err("an old segment must not open");
        let at_magic = format!("segment 0 offset 0: {}", codec::CodecError::BadMagic);
        assert_eq!(err, StoreError::Corrupt { detail: at_magic }, "v{version}");
    }

    // Current framing, valid checksum, a bucket inside the tree — and a
    // payload one byte short of the bucket this geometry stores. The
    // same record at full length, behind its commit record, opens.
    let scratch = Scratch::new("store-old-format", 4);
    let bucket_len = geometry().bucket_capacity * geometry().slot_len();
    let log = |payload_len: usize| {
        let payload = vec![0xAB; payload_len];
        let mut log = Vec::new();
        for (rtype, payload) in [(codec::RT_BUCKET, &payload[..]), (codec::RT_COMMIT, &[][..])] {
            let rec = codec::Record { rtype, bucket: 0, seq: 1, payload };
            codec::encode_record_into(&mut log, &rec);
        }
        log
    };
    std::fs::write(scratch.join("seg-0000.dat"), log(bucket_len - 1)).expect("write short bucket");
    let err = open(scratch.path()).expect_err("a record that is not one bucket must not open");
    assert!(matches!(err, StoreError::Corrupt { .. }), "expected typed corruption, got {err}");
    std::fs::write(scratch.join("seg-0000.dat"), log(bucket_len)).expect("write whole bucket");
    assert_eq!(open(scratch.path()).expect("a whole bucket opens").committed_seq, 1);

    // A stray journal beside an otherwise healthy log.
    let scratch = Scratch::new("store-old-format", 2);
    let (mut server, _) = open_disk(scratch.path(), None);
    run_ops(&mut server, &mut fresh_client(), 0, 2).expect("clean run");
    drop(server);
    assert_eq!(open(scratch.path()).expect("healthy log opens").committed_seq, 2);
    std::fs::write(scratch.join("wal.log"), b"").expect("write stray journal");
    let err = open(scratch.path()).expect_err("a journal file must not be ignored");
    assert!(matches!(err, StoreError::Corrupt { .. }), "expected typed corruption, got {err}");
}

/// The full device boots on a disk store, serves bundles, and a reboot
/// over the same directory recovers the world state and client without
/// re-syncing genesis — the report it produces matches a device that
/// never went down.
#[test]
fn device_warm_restart_resumes_from_the_disk_store() {
    use hardtape::{Bundle, HarDTape, SecurityConfig, ServiceConfig};
    use tape_evm::{Env, Transaction};
    use tape_primitives::{Address, U256};
    use tape_state::{Account, InMemoryState};

    let scratch = Scratch::new("device-restart", 0x0DE);
    let alice = Address::from_low_u64(0xA11CE);
    let bob = Address::from_low_u64(0xB0B);
    let mut genesis = InMemoryState::new();
    genesis.put_account(alice, Account::with_balance(U256::from(u64::MAX)));
    genesis.put_account(bob, Account::with_balance(U256::from(7u64)));
    let config = || ServiceConfig {
        oram_height: 8,
        store_dir: Some(scratch.path().to_path_buf()),
        ..ServiceConfig::at_level(SecurityConfig::Full)
    };
    let transfer = Bundle::single(Transaction::transfer(alice, bob, U256::ONE));

    // Cold boot: genesis enters the tree, a bundle runs, state is
    // committed access-by-access.
    let (digest, seq, cold_report) = {
        let mut device = HarDTape::new(config(), Env::default(), &genesis).expect("cold boot");
        let report = device.recovery_report().expect("disk deployment reports recovery");
        assert_eq!(report.committed_seq, 0, "fresh directory has no commits");
        let mut user = device.connect_user(b"restart user").unwrap();
        let report = device.pre_execute(&mut user, &transfer).unwrap();
        assert!(report.results[0].success);
        // Durability must not change what the SP observes: the same
        // boot + bundle on the in-memory backend issues the same ORAM
        // queries, class by class.
        let mut twin = HarDTape::new(
            ServiceConfig { store_dir: None, ..config() },
            Env::default(),
            &genesis,
        )
        .expect("in-memory twin boots");
        let mut twin_user = twin.connect_user(b"restart user").unwrap();
        twin.pre_execute(&mut twin_user, &transfer).unwrap();
        assert_eq!(
            device.oram_stats(),
            twin.oram_stats(),
            "the disk backend changed the ORAM query count"
        );
        (
            device.oram_state_digest().expect("oram digest"),
            device.oram_committed_seq().expect("oram seq"),
            report,
        )
    };
    assert!(seq > 0, "durable device commits every access");
    // benchmark/'s restart only ever stops on a multiple of 8 commits
    // (its `pad_to_trim_boundary`); this one covers the other stops.
    assert_ne!(seq % 8, 0, "stop the device off a multiple of 8 commits");

    // Warm boot: recovery resumes at the committed sequence with a
    // byte-identical tree, skips the genesis sync, and the device still
    // serves the same bundle with the same execution results.
    let mut device = HarDTape::new(config(), Env::default(), &genesis).expect("warm boot");
    let report = device.recovery_report().expect("disk deployment reports recovery");
    assert_eq!(report.committed_seq, seq, "warm boot resumes at the committed access");
    assert_eq!(
        device.oram_state_digest().expect("oram digest"),
        digest,
        "recovered tree differs from the one the device shut down with"
    );
    let mut user = device.connect_user(b"restart user 2").unwrap();
    let warm_report = device.pre_execute(&mut user, &transfer).unwrap();
    assert_eq!(warm_report.results, cold_report.results, "restart changed execution results");
}

/// The sync table (what the ORAM's pages hold, per account) travels in
/// the sealed client checkpoint. A warm-booted device that forgot it
/// would never zero a storage group that vanished after the restart,
/// and a holder that sent its whole balance would keep reading it.
#[test]
fn warm_restart_keeps_the_sync_table() {
    use hardtape::{Bundle, HarDTape, SecurityConfig, ServiceConfig};
    use tape_evm::{Env, Transaction};
    use tape_node::Node;
    use tape_primitives::{Address, U256};
    use tape_state::{Account, InMemoryState};
    use tape_workload::contracts;

    let scratch = Scratch::new("sync-table-restart", 0x5AB);
    let (a, b, token) =
        (Address::from_low_u64(0xA), Address::from_low_u64(0xB), Address::from_low_u64(0x7E));
    let mut genesis = InMemoryState::new();
    genesis.put_account(a, Account::with_balance(U256::from(u64::MAX)));
    genesis.put_account(b, Account::with_balance(U256::from(u64::MAX)));
    let mut erc20 = Account::with_code(contracts::erc20_runtime());
    erc20.storage.insert(contracts::balance_slot(&a), U256::from(100u64));
    erc20.storage.insert(contracts::balance_slot(&b), U256::ONE);
    genesis.put_account(token, erc20);
    let config = || ServiceConfig {
        oram_height: 8,
        store_dir: Some(scratch.path().to_path_buf()),
        ..ServiceConfig::at_level(SecurityConfig::Full)
    };
    let call = |from: Address, selector: u32, args: &[U256]| Transaction {
        gas_limit: 300_000,
        ..Transaction::call(from, token, contracts::encode_call(selector, args))
    };

    let mut node = Node::new(genesis.clone(), Env::default());
    node.produce_block(vec![Transaction::transfer(a, b, U256::ONE)]);
    node.produce_block(vec![call(
        a,
        contracts::sel::transfer(),
        &[b.into_word(), U256::from(100u64)],
    )]);
    let block = |i: usize| {
        (node.block(i).expect("block exists").header.clone(), node.state_delta(i).expect("delta"))
    };

    {
        let mut device = HarDTape::new(config(), Env::default(), &genesis).expect("cold boot");
        let (header, delta) = block(0);
        device.sync_block(&header, &delta).expect("block 1 syncs");
    }
    let mut device = HarDTape::new(config(), Env::default(), &genesis).expect("warm boot");
    assert!(device.recovery_report().expect("disk store").committed_seq > 0, "a warm boot");
    let (header, delta) = block(1);
    device.sync_block(&header, &delta).expect("block 2 syncs");

    let mut user = device.connect_user(b"sync table reader").unwrap();
    let balance_of = |device: &mut HarDTape, user: &mut _, holder: Address| {
        let bundle =
            Bundle::single(call(b, contracts::sel::balance_of(), &[holder.into_word()]));
        let report = device.pre_execute(user, &bundle).expect("balanceOf runs");
        U256::from_be_slice(&report.results[0].output)
    };
    assert_eq!(balance_of(&mut device, &mut user, a), U256::ZERO, "A's emptied group was zeroed");
    assert_eq!(balance_of(&mut device, &mut user, b), U256::from(101u64));
}
