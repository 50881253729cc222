//! Virtual-time pin for the frame driver.
//!
//! Every scenario below runs a fixed, seeded set of programs and folds
//! what any observer of the engine's time could have seen into one
//! keccak digest: the `clock.now()` visible to the state reader at
//! *every* account / code / storage / block-hash read, the clock at
//! each yield and at the end, [`HevmStats`], the swap log, and every
//! [`SliceOutcome`]. The digests were recorded on the stepwise driver
//! (one slot move, one layer-2 rebalance and one shared-clock tick per
//! instruction); any driver that defers clock ticks or skips rebalances
//! must reproduce them byte for byte — a stale clock at one observer, a
//! watchdog that fires one instruction late or a skipped rebalance
//! moves a digest.
//!
//! On a mismatch the test prints the digest it computed; re-record only
//! in a commit that *intends* to move virtual time.

use std::cell::{Cell, RefCell};
use std::sync::Arc;
use tape_crypto::{keccak256, SecureRng};
use tape_evm::asm::Asm;
use tape_evm::opcode::op;
use tape_evm::{Env, Transaction};
use tape_hevm::{Hevm, HevmAbort, HevmConfig, SliceOutcome};
use tape_primitives::{Address, B256, U256};
use tape_sim::resources::MemoryConfig;
use tape_sim::Clock;
use tape_state::{Account, AccountInfo, Code, InMemoryState, StateReader};

// ---------------------------------------------------------------------
// The recording reader and the transcript
// ---------------------------------------------------------------------

/// A [`StateReader`] that writes the shared clock's value into the
/// transcript at every read it serves — the position of an ORAM-backed
/// reader, which stamps its telemetry with exactly this value.
struct Recorder<'a> {
    inner: &'a InMemoryState,
    clock: Clock,
    transcript: RefCell<Vec<u8>>,
    reads: Cell<usize>,
}

impl<'a> Recorder<'a> {
    fn new(inner: &'a InMemoryState, clock: Clock) -> Self {
        Recorder { inner, clock, transcript: RefCell::new(Vec::new()), reads: Cell::new(0) }
    }

    fn note(&self, tag: u8, address: &Address, key: Option<&U256>) {
        self.reads.set(self.reads.get() + 1);
        let mut t = self.transcript.borrow_mut();
        t.push(tag);
        t.extend_from_slice(address.as_bytes());
        if let Some(key) = key {
            t.extend_from_slice(&key.to_be_bytes());
        }
        t.extend_from_slice(&self.clock.now().to_be_bytes());
    }

    /// Appends a line of driver-visible facts (outcomes, stats, clock).
    fn line(&self, text: String) {
        let mut t = self.transcript.borrow_mut();
        t.push(b'#');
        t.extend_from_slice(text.as_bytes());
        t.push(b'\n');
    }

    fn digest(&self) -> String {
        format!("{:x}", keccak256(&*self.transcript.borrow()))
    }
}

impl StateReader for Recorder<'_> {
    fn account(&self, address: &Address) -> Option<AccountInfo> {
        self.note(0, address, None);
        self.inner.account(address)
    }

    fn code(&self, address: &Address) -> Arc<Code> {
        self.note(1, address, None);
        self.inner.code(address)
    }

    fn storage(&self, address: &Address, key: &U256) -> U256 {
        self.note(2, address, Some(key));
        self.inner.storage(address, key)
    }

    fn block_hash(&self, number: u64) -> B256 {
        self.note(3, &Address::ZERO, Some(&U256::from(number)));
        self.inner.block_hash(number)
    }
}

/// Everything the harness reads off an engine once a transaction (or a
/// segment) has ended.
fn epilogue(rec: &Recorder<'_>, hevm: &Hevm<&Recorder<'_>>, clock: &Clock) {
    rec.line(format!("clock {}", clock.now()));
    rec.line(format!("stats {:?}", hevm.stats()));
    for event in hevm.swap_log() {
        rec.line(format!("swap {event:?}"));
    }
}

// ---------------------------------------------------------------------
// Programs
// ---------------------------------------------------------------------

fn sender() -> Address {
    Address::from_low_u64(0xAA)
}

fn bystander() -> Address {
    Address::from_low_u64(0xB0B)
}

const GASBOMB: u64 = 0xC001;
const MEMHOG: u64 = 0xC002;
const CRAWLER: u64 = 0xC003;
const HOPPER: u64 = 0xC004;
const JUMPSOUP: u64 = 0xC005;
const STORM: u64 = 0xC006;
const OBSERVER: u64 = 0xC007;
const FACTORY: u64 = 0xC008;
const BIG_PARENT: u64 = 0xC009;
const BIG_CHILD: u64 = 0xC00A;
const HOG: u64 = 0xC00B;
const BURNER: u64 = 0xC00C;
const SPINNER: u64 = 0xC00D;
const STACK_FITS: u64 = 0xC00E;
const STACK_OVER: u64 = 0xC00F;
const STACK_SHORT: u64 = 0xC010;

fn at(n: u64) -> Address {
    Address::from_low_u64(n)
}

/// `calldata[0]` iterations of a five-instruction loop (~26 gas each).
fn gasbomb() -> Vec<u8> {
    Asm::new()
        .push(0u64)
        .op(op::CALLDATALOAD)
        .op(op::DUP1)
        .op(op::ISZERO)
        .jumpi("done")
        .label("loop")
        .push(1u64)
        .op(op::SWAP1)
        .op(op::SUB)
        .op(op::DUP1)
        .jumpi("loop")
        .label("done")
        .op(op::POP)
        .push(1u64)
        .ret_top()
        .build()
}

/// Expands Memory to `calldata[0]` bytes in one store and hashes it.
fn memhog() -> Vec<u8> {
    Asm::new()
        .push(0xFFu64)
        .push(0u64)
        .op(op::CALLDATALOAD)
        .op(op::MSTORE8)
        .op(op::MSIZE)
        .push(0u64)
        .op(op::KECCAK256)
        .ret_top()
        .build()
}

/// Grows Memory by `calldata[32]` bytes per iteration for `calldata[0]`
/// iterations — many growth events, several of them across a page
/// boundary, with ALU work between them.
fn crawler() -> Vec<u8> {
    Asm::new()
        .push(0u64) // [offset]
        .push(0u64)
        .op(op::CALLDATALOAD) // [offset, n]
        .label("loop")
        .op(op::DUP1)
        .op(op::ISZERO)
        .jumpi("done")
        .op(op::SWAP1) // [n, offset]
        .op(op::DUP1)
        .op(op::DUP1)
        .op(op::MUL) // [n, offset, offset²]
        .op(op::DUP2)
        .op(op::MSTORE) // mem[offset] = offset²
        .push(32u64)
        .op(op::CALLDATALOAD)
        .op(op::ADD) // [n, offset + stride]
        .op(op::SWAP1)
        .push(1u64)
        .op(op::SWAP1)
        .op(op::SUB) // [offset', n - 1]
        .jump("loop")
        .label("done")
        .op(op::POP)
        .op(op::POP)
        .op(op::MSIZE)
        .ret_top()
        .build()
}

/// Self-calls `calldata[0]` times; padded so the code image spans
/// several pages (the `deep_hopper` shape).
fn hopper() -> Vec<u8> {
    let mut code = Asm::new()
        .push(0u64)
        .op(op::CALLDATALOAD)
        .op(op::DUP1)
        .op(op::ISZERO)
        .jumpi("base")
        .push(1u64)
        .op(op::SWAP1)
        .op(op::SUB)
        .push(0u64)
        .op(op::MSTORE)
        .push(32u64)
        .push(0u64)
        .push(32u64)
        .push(0u64)
        .push(0u64)
        .op(op::ADDRESS)
        .op(op::GAS)
        .op(op::CALL)
        .op(op::POP)
        .push(1u64)
        .ret_top()
        .label("base")
        .op(op::POP)
        .push(1u64)
        .ret_top()
        .build();
    code.resize(6 * 1024 + 100, op::JUMPDEST);
    code
}

/// Three chained three-way dispatches through shared computed `JUMP`s,
/// each arm bumping a constant storage slot. `calldata[0]` picks the arm.
fn jumpsoup() -> Vec<u8> {
    let mut a = Asm::new()
        .push(0u64)
        .op(op::CALLDATALOAD)
        .op(op::DUP1)
        .op(op::ISZERO)
        .jumpi("pick0")
        .op(op::DUP1)
        .push(1u64)
        .op(op::EQ)
        .jumpi("pick1")
        .push_label("work2")
        .jump("go1")
        .label("pick0")
        .push_label("work0")
        .jump("go1")
        .label("pick1")
        .push_label("work1")
        .jump("go1")
        .label("go1")
        .op(op::JUMP);
    let bump = |a: Asm, here: &'static str, slot: u64, cont: &'static str, via: &'static str| {
        a.label(here)
            .push(slot)
            .op(op::SLOAD)
            .push(1u64)
            .op(op::ADD)
            .push(slot)
            .op(op::SSTORE)
            .push_label(cont)
            .jump(via)
    };
    a = bump(a, "work0", 1, "end0", "go2");
    a = bump(a, "work1", 2, "end1", "go2");
    a = bump(a, "work2", 3, "end2", "go2");
    a = a.label("go2").op(op::JUMP);
    a = bump(a, "end0", 40, "fin", "go3");
    a = bump(a, "end1", 41, "fin", "go3");
    a = bump(a, "end2", 42, "fin", "go3");
    a.label("go3")
        .op(op::JUMP)
        .label("fin")
        .op(op::POP)
        .push(1u64)
        .ret_top()
        .build()
}

/// A dynamic two-way jump (`calldata[0] & 1`), calldata-scattered
/// `SSTORE`s and a storage-keyed `SLOAD`.
fn storm() -> Vec<u8> {
    let mut a = Asm::new()
        .push(0u64)
        .op(op::CALLDATALOAD)
        .push(1u64)
        .op(op::AND)
        .push_label("odd")
        .push_label("even")
        .op(op::DUP1)
        .op(op::SWAP2)
        .op(op::SUB)
        .op(op::SWAP1)
        .op(op::SWAP2)
        .op(op::MUL)
        .op(op::ADD)
        .op(op::JUMP);
    a = a.label("even").push(32u64).op(op::CALLDATALOAD);
    for _ in 0..3 {
        a = a
            .op(op::DUP1)
            .push(1u64)
            .op(op::SWAP1)
            .op(op::SSTORE)
            .push(1u64)
            .op(op::ADD);
    }
    a = a.op(op::POP).jump("fin");
    a = a
        .label("odd")
        .push(0u64)
        .op(op::SLOAD)
        .op(op::SLOAD)
        .op(op::POP)
        .push(7u64)
        .push(32u64)
        .op(op::CALLDATALOAD)
        .op(op::SSTORE)
        .jump("fin");
    a.label("fin").push(1u64).ret_top().build()
}

/// Touches every kind of state read with ALU work in front of each, so
/// a clock that lags behind retired instructions shows at the reader.
fn observer() -> Vec<u8> {
    let alu = |a: Asm| a.push(3u64).push(5u64).op(op::MUL).push(7u64).op(op::DIV).op(op::POP);
    let mut a = Asm::new();
    a = alu(a).push_address(bystander()).op(op::BALANCE).op(op::POP);
    a = alu(a).push_address(at(GASBOMB)).op(op::EXTCODESIZE).op(op::POP);
    a = alu(a).push_address(at(MEMHOG)).op(op::EXTCODEHASH).op(op::POP);
    a = alu(a)
        .push(16u64)
        .push(0u64)
        .push(64u64)
        .push_address(at(STORM))
        .op(op::EXTCODECOPY);
    a = alu(a).push(1u64).op(op::NUMBER).op(op::SUB).op(op::BLOCKHASH).op(op::POP);
    a = alu(a).op(op::SELFBALANCE).op(op::POP);
    a = alu(a).push(9u64).op(op::SLOAD).op(op::POP);
    a = alu(a).push(11u64).push(9u64).op(op::SSTORE);
    a = alu(a).push(13u64).push(2u64).op(op::TSTORE).push(2u64).op(op::TLOAD).op(op::POP);
    a = alu(a).push(0xFEEDu64).push(32u64).push(0u64).op(op::LOG1);
    // A call to a code-less account, one to a precompile and one that
    // fails for lack of balance: three boundaries that never push a frame.
    let call = |a: Asm, value: u64, to: Address| {
        a.push(0u64)
            .push(0u64)
            .push(0u64)
            .push(0u64)
            .push(value)
            .push_address(to)
            .push(30_000u64)
            .op(op::CALL)
            .op(op::POP)
    };
    a = call(alu(a), 0, bystander());
    a = call(alu(a), 0, at(2));
    a = call(alu(a), u64::MAX, bystander());
    alu(a).op(op::MSIZE).ret_top().build()
}

/// Deploys a two-instruction contract, calls it twice, then `CREATE2`s
/// a second copy.
fn factory() -> Vec<u8> {
    let init = Asm::deploy_wrapper(&Asm::new().push(5u64).ret_top().build());
    let mut word = [0u8; 32];
    word[..init.len()].copy_from_slice(&init);
    let call_top = |a: Asm| {
        a.push(32u64)
            .push(64u64)
            .push(0u64)
            .push(0u64)
            .push(0u64)
            .op(op::DUP6)
            .op(op::GAS)
            .op(op::CALL)
            .op(op::POP)
    };
    let mut a = Asm::new()
        .push(U256::from_be_bytes(word))
        .push(0u64)
        .op(op::MSTORE)
        .push(init.len() as u64)
        .push(0u64)
        .push(0u64)
        .op(op::CREATE); // [child]
    a = call_top(a);
    a = call_top(a);
    a.push(0x5A17u64)
        .push(init.len() as u64)
        .push(0u64)
        .push(0u64)
        .op(op::CREATE2)
        .op(op::ADD)
        .ret_top()
        .build()
}

/// Expands Memory to `calldata[0]` bytes, calls [`big_child`] asking
/// for `calldata[32]` bytes back into a 64-byte window, then works on:
/// the child's whole output lands in ReturnData *outside* any step.
fn big_parent() -> Vec<u8> {
    Asm::new()
        .push(1u64)
        .push(0u64)
        .op(op::CALLDATALOAD)
        .op(op::MSTORE8)
        .push(32u64)
        .op(op::CALLDATALOAD)
        .push(0u64)
        .op(op::MSTORE)
        .push(64u64)
        .push(0u64)
        .push(32u64)
        .push(0u64)
        .push(0u64)
        .push_address(at(BIG_CHILD))
        .op(op::GAS)
        .op(op::CALL)
        .op(op::POP)
        .push(2u64)
        .push(3u64)
        .op(op::ADD)
        .op(op::POP)
        .push(512u64)
        .push(1_000u64)
        .push(128u64)
        .op(op::RETURNDATACOPY)
        .op(op::RETURNDATASIZE)
        .ret_top()
        .build()
}

/// Returns `calldata[0]` bytes of (mostly zero) memory.
fn big_child() -> Vec<u8> {
    Asm::new()
        .push(0xABu64)
        .push(100u64)
        .op(op::MSTORE)
        .push(0u64)
        .op(op::CALLDATALOAD)
        .push(0u64)
        .op(op::RETURN)
        .build()
}

/// Expands Memory to `kb` KiB, then self-calls with all gas.
fn hog(kb: u64) -> Vec<u8> {
    Asm::new()
        .push(1u64)
        .push(kb * 1024 - 32)
        .op(op::MSTORE)
        .push(0u64)
        .push(0u64)
        .push(0u64)
        .push(0u64)
        .push(0u64)
        .push_address(at(HOG))
        .op(op::GAS)
        .op(op::CALL)
        .stop()
        .build()
}

/// `n` loop iterations, then a storage write, a log and a return.
fn burner(n: u64) -> Vec<u8> {
    Asm::new()
        .push(n)
        .label("loop")
        .push(1u64)
        .op(op::SWAP1)
        .op(op::SUB)
        .op(op::DUP1)
        .jumpi("loop")
        .op(op::POP)
        .push(0xBEEFu64)
        .push(1u64)
        .op(op::SSTORE)
        .push(0u64)
        .push(0u64)
        .op(op::LOG0)
        .push(42u64)
        .ret_top()
        .build()
}

fn spinner() -> Vec<u8> {
    Asm::new().label("top").push(1u64).op(op::POP).jump("top").build()
}

/// 1 022 `PUSH0`s and a `CALLVALUE` leave the stack at 1 023 words;
/// then `pushes` more pushes, the second of which overflows.
fn stack_tower(pushes: usize) -> Vec<u8> {
    let mut a = Asm::new();
    for _ in 0..1_022 {
        a = a.op(op::PUSH0);
    }
    a = a.op(op::CALLVALUE);
    for i in 0..pushes {
        a = a.push(i as u64 + 1);
    }
    a.stop().build()
}

/// A `CALLVALUE` leaves one word; the pure stretch after it needs two
/// on entry, so its second `ADD` underflows.
fn stack_short() -> Vec<u8> {
    Asm::new().op(op::CALLVALUE).push(1u64).op(op::ADD).op(op::ADD).stop().build()
}

fn world() -> InMemoryState {
    let mut b = InMemoryState::new();
    b.put_account(sender(), Account::with_balance(U256::from(u64::MAX)));
    b.put_account(bystander(), Account::with_balance(U256::from(77u64)));
    for (address, code) in [
        (GASBOMB, gasbomb()),
        (MEMHOG, memhog()),
        (CRAWLER, crawler()),
        (HOPPER, hopper()),
        (JUMPSOUP, jumpsoup()),
        (STORM, storm()),
        (OBSERVER, observer()),
        (FACTORY, factory()),
        (BIG_PARENT, big_parent()),
        (BIG_CHILD, big_child()),
        (HOG, hog(2)),
        (BURNER, burner(12_000)),
        (SPINNER, spinner()),
        (STACK_FITS, stack_tower(1)),
        (STACK_OVER, stack_tower(2)),
        (STACK_SHORT, stack_short()),
    ] {
        let mut account = Account::with_code(code);
        account.balance = U256::from(1_000u64);
        account.storage.insert(U256::ZERO, U256::from(5u64));
        account.storage.insert(U256::from(9u64), U256::from(3u64));
        b.put_account(at(address), account);
    }
    b
}

fn call(to: u64, gas_limit: u64, words: &[u64]) -> Transaction {
    let data = words.iter().flat_map(|w| U256::from(*w).to_be_bytes()).collect();
    Transaction { gas_limit, ..Transaction::call(sender(), at(to), data) }
}

fn tiny_layer2() -> MemoryConfig {
    MemoryConfig { layer2_bytes: 128 * 1024, ..MemoryConfig::default() }
}

// ---------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------

/// Runs `txs` to completion on one engine (so engine-lifetime state —
/// the journal overlay, anything memoized per code image — is shared
/// the way a bundle shares it) and returns the transcript digest.
fn run_bundle(config: HevmConfig, txs: &[Transaction]) -> String {
    let world = world();
    let clock = Clock::new();
    let rec = Recorder::new(&world, clock.clone());
    let mut hevm = Hevm::new(config, Env::default(), &rec, clock.clone());
    for tx in txs {
        match hevm.transact(tx) {
            Ok(result) => rec.line(format!("done {result:?}")),
            Err(abort) => rec.line(format!("abort {abort:?}")),
        }
        epilogue(&rec, &hevm, &clock);
    }
    assert!(rec.reads.get() > 0, "the recorder saw no read");
    rec.digest()
}

/// Drives every transaction segment by segment. `hop` decides, per
/// yield, whether the engine continues in place or goes through
/// `suspend` / `resume`.
fn run_sliced(config: HevmConfig, txs: &[Transaction], hop: impl Fn(u32) -> bool) -> String {
    let world = world();
    let clock = Clock::new();
    let rec = Recorder::new(&world, clock.clone());
    let mut hevm = Hevm::new(config.clone(), Env::default(), &rec, clock.clone());
    let mut yields = 0u32;
    for tx in txs {
        let mut outcome = hevm.transact_sliced(tx);
        loop {
            match outcome {
                Ok(SliceOutcome::Done(result)) => {
                    rec.line(format!("done {result:?}"));
                    break;
                }
                Err(abort) => {
                    rec.line(format!("abort {abort:?}"));
                    break;
                }
                Ok(SliceOutcome::Preempted { segment }) => {
                    yields += 1;
                    rec.line(format!("yield {segment}"));
                    epilogue(&rec, &hevm, &clock);
                    if hop(segment) {
                        let (reader, checkpoint) = hevm.suspend();
                        rec.line(format!(
                            "checkpoint {checkpoint:?} at {} frames {}/{} clock {}",
                            checkpoint.yield_at(),
                            checkpoint.covered_frames(),
                            checkpoint.suspended_frames(),
                            clock.now(),
                        ));
                        hevm = Hevm::resume(
                            config.clone(),
                            Env::default(),
                            reader,
                            clock.clone(),
                            checkpoint,
                        );
                    }
                    outcome = hevm.continue_transact();
                }
            }
        }
        epilogue(&rec, &hevm, &clock);
    }
    assert!(yields >= 3, "only {yields} yields: the slice never bit");
    rec.digest()
}

/// Runs each case on its own engine over one shared clock and records
/// its halt kind and gas used, the number of segments it took, its
/// [`HevmStats`] and the clock after it.
fn run_cases(cases: &[(HevmConfig, Transaction)]) -> String {
    let world = world();
    let clock = Clock::new();
    let rec = Recorder::new(&world, clock.clone());
    for (config, tx) in cases {
        let mut hevm = Hevm::new(config.clone(), Env::default(), &rec, clock.clone());
        let mut segments = 1u32;
        let mut outcome = hevm.transact_sliced(tx);
        while let Ok(SliceOutcome::Preempted { .. }) = outcome {
            segments += 1;
            outcome = hevm.continue_transact();
        }
        match outcome {
            Ok(SliceOutcome::Done(result)) => rec.line(format!("done {result:?}")),
            Ok(SliceOutcome::Preempted { .. }) => unreachable!("drained above"),
            Err(abort) => rec.line(format!("abort {abort:?}")),
        }
        rec.line(format!("segments {segments}"));
        epilogue(&rec, &hevm, &clock);
    }
    assert!(rec.reads.get() > 0, "the recorder saw no read");
    rec.digest()
}

/// The `compute_es` five plus the observer and the factory, with
/// parameters drawn from a fixed seed.
fn compute_bundle() -> Vec<Transaction> {
    let mut rng = SecureRng::from_seed(b"timing pin");
    let mut txs = Vec::new();
    for _ in 0..2 {
        txs.push(call(GASBOMB, 1_000_000, &[2_000 + rng.next_below(500)]));
        txs.push(call(MEMHOG, 2_000_000, &[1_024 + rng.next_below(7 * 1024)]));
        txs.push(call(CRAWLER, 2_000_000, &[40 + rng.next_below(20), 96 + 32 * rng.next_below(8)]));
        txs.push(call(HOPPER, 3_000_000, &[5 + rng.next_below(5)]));
        for mode in 0..3 {
            txs.push(call(JUMPSOUP, 300_000, &[mode]));
        }
        for bit in 0..2 {
            txs.push(call(STORM, 500_000, &[bit, rng.next_below(1 << 40)]));
        }
        txs.push(call(OBSERVER, 1_000_000, &[]));
        txs.push(call(FACTORY, 2_000_000, &[]));
    }
    // Out of gas mid-loop, and a loop that runs into its gas limit
    // inside a child frame.
    txs.push(call(GASBOMB, 60_000, &[50_000]));
    txs.push(call(HOPPER, 120_000, &[40]));
    txs
}

/// The recorded digests, one per scenario.
const PINS: &[(&str, &str)] = &[
    ("compute_five", "e8f9b7f872c5ad188ed227c29f6b7365e33dcb241de69ec8cf7079d51f2ebb9b"),
    ("large_return", "55ebafbadc4cfba5ea01a85d341b56ad50507531fb0ab4c463bac78ba716c85c"),
    ("large_return_overflow", "f57ca0af4a6e43cfa6d97cdf03e920f9b4b0b1a9fe3d5984d2ed1f5d4df32ae3"),
    ("tiny_layer2", "41fe845e2802aebdc89fb25112852ffddb271e251cdad9b7ee13dd0f71c55bd7"),
    ("sliced_in_place_coarse", "afc8a478513c03d3611cdca17fa13aa60c36e5dc8bdbbb245b0efed3c65e501f"),
    ("sliced_in_place_fine", "e0f171cdedd16e73d77417102f4e3efa1fe7208daa381775225276cabebf8a23"),
    ("sliced_hop_coarse", "28fb6c5ccc20f79245e475543a766b3b7d1dc51f8e768dcb22637f3ea0e505b1"),
    ("sliced_hop_odd", "cda834e5739418e7ed17fa4cd61978cc82e69d42e073e64f1ff69b1961a6dcda"),
    ("sliced_hop_fine", "8e8dba184441d785bdcfffa6901ec200b7589872a9b527557bcd080073743b02"),
    ("sliced_hop_uncovered", "0b71516739e1e5cd9a75e0537d4a2c6aced5b2afc62a22132e6f51115c3e53e1"),
    ("watchdog", "149105d0788aa0ce884489fc900eccc5c37ba97e34fbf0e58ab4340996da9a4f"),
    ("sweep_gas_limit", "6123382ac7ee8bc11262aff8c98d57fbb48f0516c9fb10601bb09370e0559db2"),
    ("sweep_gas_slice", "138aa4fa260e3d61b4a576b9f459e3b4ac25c772038ce56dbeba1f91abc8feb3"),
    ("sweep_watchdog", "9532ee2677c476f4e071b4c3e40f239ac9f2db36c4e2d732a33e7928768ac75b"),
    ("sweep_stack", "9a081646b8b24afaa3420bddfaeb3dcdfcb27690f5ab72557d1c4288c8dbe511"),
];

/// Prints every digest the test computed, then requires each to equal
/// its checked-in value.
fn assert_pinned(actual: &[(&str, String)]) {
    for (name, digest) in actual {
        println!("TIMING_PIN {name} {digest}");
    }
    for (name, digest) in actual {
        let pinned = PINS.iter().find(|(n, _)| n == name).map(|(_, d)| *d);
        assert_eq!(Some(digest.as_str()), pinned, "{name}: the virtual-time transcript moved");
    }
}

#[test]
fn compute_five_on_the_default_hierarchy() {
    assert_pinned(&[("compute_five", run_bundle(HevmConfig::default(), &compute_bundle()))]);
}

#[test]
fn large_return_lands_in_the_parent() {
    // 48 KiB of ReturnData delivered outside `step`: the parent's
    // footprint moves between two of its instructions.
    let txs = [
        call(BIG_PARENT, 5_000_000, &[600, 48 * 1024]),
        call(BIG_PARENT, 5_000_000, &[5_000, 3_000]),
    ];
    assert_pinned(&[("large_return", run_bundle(HevmConfig::default(), &txs))]);
}

#[test]
fn large_return_overflows_one_instruction_after_the_call() {
    // Tiny layer 2: 64-page frame limit. The child (37 fixed + 1 code +
    // 1 input + 25 memory pages) just fits; the parent with 3 KiB of
    // Memory and 25 KiB of ReturnData (37 + 1 + 1 + 3 + 25 = 67) does
    // not — and the overflow is raised after the parent's first
    // instruction past the CALL, which the pinned instruction count
    // and clock record.
    let config = HevmConfig { mem: tiny_layer2(), ..HevmConfig::default() };
    let tx = call(BIG_PARENT, 5_000_000, &[3_000, 25 * 1024 - 64]);
    let world = world();
    let mut hevm = Hevm::new(config.clone(), Env::default(), &world, Clock::new());
    assert_eq!(
        hevm.transact(&tx),
        Err(HevmAbort::MemoryOverflow { frame_pages: 67, limit_pages: 64 })
    );
    assert_pinned(&[("large_return_overflow", run_bundle(config, &[tx]))]);
}

#[test]
fn tiny_layer2_spills_a_deep_stack() {
    let config = HevmConfig { mem: tiny_layer2(), ..HevmConfig::default() };
    let txs = [
        call(HOG, 8_000_000, &[]),
        call(HOPPER, 3_000_000, &[9]),
        call(HOG, 3_000_000, &[]),
    ];
    assert_pinned(&[("tiny_layer2", run_bundle(config, &txs))]);
}

/// Long slices over a flat loop and a deep recursion.
fn coarse_txs() -> [Transaction; 2] {
    [call(BURNER, 2_000_000, &[]), call(HOG, 1_500_000, &[])]
}

/// Slices a few dozen instructions long over a frame whose Memory (and
/// layer-1 miss count) grows across every yield, and over a recursion.
fn fine_txs() -> [Transaction; 2] {
    [call(CRAWLER, 2_000_000, &[200, 96]), call(HOPPER, 3_000_000, &[9])]
}

#[test]
fn gas_slices_continued_in_place() {
    let coarse = HevmConfig { gas_slice: Some(40_000), ..HevmConfig::default() };
    let fine = HevmConfig { gas_slice: Some(2_000), ..HevmConfig::default() };
    assert_pinned(&[
        ("sliced_in_place_coarse", run_sliced(coarse, &coarse_txs(), |_| false)),
        ("sliced_in_place_fine", run_sliced(fine, &fine_txs(), |_| false)),
    ]);
}

#[test]
fn gas_slices_through_suspend_and_resume() {
    // A deep, partly spilled stack crossing every boundary through a
    // detached checkpoint; the same hopping on odd segments only; and
    // the fine slices, where the resumed frame's miss counter restarts.
    let coarse =
        HevmConfig { mem: tiny_layer2(), gas_slice: Some(30_000), ..HevmConfig::default() };
    let fine = HevmConfig { mem: tiny_layer2(), gas_slice: Some(2_000), ..HevmConfig::default() };
    let uncovered = HevmConfig { checkpoint_cover: false, ..fine.clone() };
    assert_pinned(&[
        ("sliced_hop_coarse", run_sliced(coarse.clone(), &coarse_txs(), |_| true)),
        ("sliced_hop_odd", run_sliced(coarse, &coarse_txs(), |segment| segment % 2 == 1)),
        ("sliced_hop_fine", run_sliced(fine, &fine_txs(), |_| true)),
        ("sliced_hop_uncovered", run_sliced(uncovered, &fine_txs(), |_| true)),
    ]);
}

#[test]
fn watchdog_fires_at_the_same_instruction() {
    // 50 µs past the per-transaction overhead: the short loop finishes,
    // the spinner trips the watchdog a few hundred iterations in. The
    // slice (≈ 118 µs of spinning) is longer than that budget, so the
    // sliced engine runs its per-instruction slice check but never
    // yields — and must abort at the very same instruction.
    let run = |gas_slice| {
        let config =
            HevmConfig { watchdog_ns: Some(1_050_000), gas_slice, ..HevmConfig::default() };
        let txs = [call(GASBOMB, 1_000_000, &[100]), call(SPINNER, 5_000_000, &[])];
        run_bundle(config, &txs)
    };
    assert_pinned(&[("watchdog", run(None)), ("watchdog", run(Some(25_000)))]);
}

#[test]
fn gas_runs_out_on_every_instruction_of_the_loop() {
    // One loop iteration costs 26 gas (JUMPDEST 1, PUSH1 3, SWAP1 3,
    // SUB 3, DUP1 3, PUSH 3, JUMPI 10): 27 consecutive limits run out
    // on every instruction of the body, some more than once.
    let cases: Vec<_> = (22_000..=22_026)
        .map(|limit| (HevmConfig::default(), call(GASBOMB, limit, &[50_000])))
        .collect();
    assert_pinned(&[("sweep_gas_limit", run_cases(&cases))]);
}

#[test]
fn gas_slices_end_before_every_instruction_of_the_loop() {
    let cases: Vec<_> = (1..=27)
        .map(|slice| {
            let config = HevmConfig { gas_slice: Some(slice), ..HevmConfig::default() };
            (config, call(GASBOMB, 1_000_000, &[30]))
        })
        .collect();
    assert_pinned(&[("sweep_gas_slice", run_cases(&cases))]);
}

#[test]
fn watchdog_budgets_step_across_one_iteration() {
    // One iteration is 13 cycles (130 ns): fourteen budgets 10 ns apart
    // put the deadline before every instruction of the body.
    let cases: Vec<_> = (0..=13u64)
        .map(|k| {
            let config =
                HevmConfig { watchdog_ns: Some(1_050_000 + 10 * k), ..HevmConfig::default() };
            (config, call(GASBOMB, 1_000_000, &[50_000]))
        })
        .collect();
    assert_pinned(&[("sweep_watchdog", run_cases(&cases))]);
}

#[test]
fn stack_limits_at_the_edge_of_a_straight_line_stretch() {
    let cases: Vec<_> = [STACK_FITS, STACK_OVER, STACK_SHORT]
        .into_iter()
        .map(|to| (HevmConfig::default(), call(to, 1_000_000, &[])))
        .collect();
    assert_pinned(&[("sweep_stack", run_cases(&cases))]);
}
