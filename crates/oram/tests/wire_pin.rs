//! Pins what one fixed schedule of ORAM accesses produces, end to end,
//! on both bucket backends: every result or error the client hands
//! back, every `(at, leaf)` the server observes, every sealed client
//! checkpoint, and the committed sequence number and `state_digest()`
//! after every commit — once against an honest server and once with a
//! [`FaultPlan`] armed at [`FaultSite::OramServer`] (wrong paths, bit
//! flips, dropped write-backs).
//!
//! Recorded on the `Vec<Vec<u8>>` path; whatever carries a path between
//! client, server and backend must leave every digest here equal.
//!
//! Nothing about segment-file bytes is pinned: the record framing on
//! disk is the store's own business and is free to change. What is
//! pinned on the disk side is what the store *serves* — the same tree,
//! sequence and sealed client as the in-memory backend, across a
//! drop-and-reopen in the middle of the schedule.
//!
//! Two calls are spelled so that this file compiles whether the meta
//! blob crosses the server by reference or by value:
//! `put_meta(sealed.as_slice().into())` and `meta().expect(..).to_vec()`.

use std::path::Path;
use tape_crypto::{keccak256, Keccak256, SecureRng};
use tape_oram::{
    BlockId, DiskStore, DiskStoreConfig, OramClient, OramConfig, OramError, OramServer,
};
use tape_primitives::B256;
use tape_sim::fault::{FaultKind, FaultPlan, FaultSite};
use tape_sim::{Clock, CostModel, Scratch};

const KEY: [u8; 16] = [0x0A; 16];
const MAC_KEY: [u8; 32] = [0x3C; 32];
/// Accesses per schedule; the client is restored (and the disk store
/// dropped and reopened) after half of them.
const OPS: u64 = 240;
/// Block ids the schedule writes and re-reads.
const LIVE_IDS: u64 = 40;

fn geometries() -> [OramConfig; 2] {
    [
        OramConfig { block_size: 64, bucket_capacity: 4, height: 6 },
        OramConfig { block_size: 1024, bucket_capacity: 4, height: 10 },
    ]
}

fn bid(i: u64) -> BlockId {
    keccak256(i.to_be_bytes())
}

/// Where the bucket tree lives for one run.
#[derive(Clone, Copy)]
enum Backend<'a> {
    Mem,
    Disk(&'a Path),
}

fn open_disk(dir: &Path, config: &OramConfig, clock: &Clock) -> OramServer {
    let (store, _) = DiskStore::open(DiskStoreConfig::new(dir, MAC_KEY), config, clock, None)
        .expect("open disk store");
    OramServer::with_backend(config.clone(), Box::new(store))
}

/// What one run saw, for the sanity checks beside the digest.
#[derive(Debug, Default, PartialEq, Eq)]
struct Tally {
    /// `Ok(Some(_))`: a read that found its block, or an overwrite.
    hits: u32,
    /// `Ok(None)`: a read miss, or the first write of an id.
    misses: u32,
    tampered: u32,
    missing: u32,
    other_errors: u32,
}

/// Runs the schedule for `config` on `backend` and folds everything
/// observable into one digest.
fn run(config: &OramConfig, backend: Backend<'_>, faulty: bool) -> (B256, Tally) {
    let clock = Clock::new();
    let cost = CostModel::default();
    let plan = faulty.then(|| {
        let plan = FaultPlan::new(0x5EED_0021, &clock);
        plan.arm(
            FaultSite::OramServer,
            &[FaultKind::WrongPath, FaultKind::BitFlip, FaultKind::DropWrite],
            6,
            u64::MAX,
        );
        plan
    });
    let serve = |mut server: OramServer| {
        server.set_autocommit(false);
        if let Some(plan) = &plan {
            server.arm_faults(plan.clone());
        }
        server
    };
    let mut server = serve(match backend {
        Backend::Mem => OramServer::new(config.clone()),
        Backend::Disk(dir) => open_disk(dir, config, &clock),
    });
    let mut client = OramClient::new(config.clone(), &KEY, SecureRng::from_seed(b"wire pin client"));
    let mut schedule = SecureRng::from_seed(b"wire pin schedule");
    let mut h = Keccak256::new();
    let mut tally = Tally::default();
    let mut seen = 0usize;

    for op in 0..OPS {
        if op == OPS / 2 {
            // Mid-schedule restart: the client comes back from its last
            // sealed checkpoint; a disk store comes back from its files.
            if let Backend::Disk(dir) = backend {
                drop(server);
                server = serve(open_disk(dir, config, &clock));
                seen = 0;
            }
            let sealed = server.meta().expect("a checkpoint rode every commit").to_vec();
            client = OramClient::restore_state(config.clone(), &KEY, &sealed).expect("restore");
            h.update(&server.committed_seq().to_be_bytes());
            h.update(server.state_digest().as_bytes());
        }

        let result = match schedule.next_below(20) {
            // A write, now and then of the wrong size (refused before
            // any query is made).
            0..=9 => {
                let id = schedule.next_below(LIVE_IDS);
                let len = if op % 61 == 60 { config.block_size - 1 } else { config.block_size };
                let data: Vec<u8> = (0..len).map(|j| (id * 7 + op + j as u64) as u8).collect();
                client.write(&mut server, &clock, &cost, &bid(id), data)
            }
            // A read of an id the schedule writes.
            10..=16 => {
                let id = schedule.next_below(LIVE_IDS);
                client.read(&mut server, &clock, &cost, &bid(id))
            }
            // A read of an id nothing ever writes.
            _ => client.read(&mut server, &clock, &cost, &bid(1_000 + op)),
        };
        match &result {
            Ok(Some(old)) => {
                tally.hits += 1;
                h.update(&[1]);
                h.update(old);
            }
            Ok(None) => {
                tally.misses += 1;
                h.update(&[0]);
            }
            Err(err) => {
                match err {
                    OramError::Tampered => tally.tampered += 1,
                    OramError::MissingBlock(_) => tally.missing += 1,
                    _ => tally.other_errors += 1,
                }
                h.update(&[2]);
                h.update(format!("{err:?}").as_bytes());
            }
        }
        for access in &server.observed()[seen..] {
            h.update(&access.at.to_be_bytes());
            h.update(&access.leaf.to_be_bytes());
        }
        seen = server.observed().len();

        // The checkpointed commit every durable deployment makes.
        let sealed = client.seal_state();
        h.update(keccak256(&sealed).as_bytes());
        server.put_meta(sealed.as_slice().into());
        server.commit().expect("no fault is armed below the server");
        h.update(&server.committed_seq().to_be_bytes());
        h.update(server.state_digest().as_bytes());
    }
    h.update(&(client.max_stash_seen() as u64).to_be_bytes());
    (h.finalize(), tally)
}

/// Both backends on both geometries; the two must agree with each other
/// before either is compared with the checked-in digest.
fn pinned(faulty: bool, expected: [&str; 2]) -> Vec<Tally> {
    let (mut tallies, mut digests) = (Vec::new(), Vec::new());
    for (i, config) in geometries().iter().enumerate() {
        let scratch = Scratch::new("wire-pin", (i as u64) << 1 | u64::from(faulty));
        let (mem, mem_tally) = run(config, Backend::Mem, faulty);
        let (disk, disk_tally) = run(config, Backend::Disk(scratch.path()), faulty);
        println!("WIRE_PIN faulty={faulty} height={} {mem} {mem_tally:?}", config.height);
        assert_eq!(mem_tally, disk_tally, "height {}: backends served differently", config.height);
        assert_eq!(mem, disk, "height {}: disk store diverges from memory", config.height);
        digests.push(mem.to_string());
        tallies.push(mem_tally);
    }
    assert_eq!(digests, expected, "faulty={faulty}: what the schedule produces has changed");
    tallies
}

#[test]
fn honest_schedule_is_pinned_on_both_backends() {
    let tallies = pinned(
        false,
        [
            "0xde70f3c94c891076180dccb1778ccb83a0a32a0ccc28c03df963a86cda2e1296",
            "0x5de67e0fc058c47600b26d315aed5246e761060ed0926d968aaf05228c2dc30e",
        ],
    );
    for tally in tallies {
        assert!(tally.hits > 60 && tally.misses > 30, "schedule lost its mix: {tally:?}");
        // The wrong-size writes are the only errors an honest server allows.
        assert_eq!((tally.tampered, tally.missing), (0, 0), "{tally:?}");
        assert!(tally.other_errors >= 1, "{tally:?}");
    }
}

#[test]
fn faulty_server_schedule_is_pinned_on_both_backends() {
    let tallies = pinned(
        true,
        [
            "0xcae6d0aeb6972090ee68b29f35776faa24bcff1aa5696319d1afded37b1a9e55",
            "0x13e9b2fbab2fc6d52595336f45ac923b4f32a1531deff7b3801ed587581dbbc9",
        ],
    );
    for tally in tallies {
        assert!(tally.tampered > 0 && tally.missing > 0, "no fault surfaced: {tally:?}");
        assert!(tally.hits > 20, "the faults drowned the schedule: {tally:?}");
    }
}
