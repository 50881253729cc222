//! Regenerates the **§VI-B correctness experiment**: replays the
//! evaluation set on the HEVM (through the ORAM) and on the reference
//! engine (the node's ground truth), diffing structured traces
//! step-by-step — and demonstrates the Memory Overflow Error that
//! roll-up style frames trigger.

use hardtape::{HybridState, SecurityConfig};
use tape_bench::Verdict;
use tape_evm::{Evm, StructTracer, Transaction};
use tape_hevm::{Hevm, HevmAbort, HevmConfig};
use tape_oram::{ObliviousState, OramClient, OramConfig, OramServer};
use tape_primitives::{Address, U256};
use tape_sim::resources::MemoryConfig;
use tape_sim::{Clock, CostModel};
use tape_state::{Account, InMemoryState};
use tape_workload::EvalSet;

pub fn run() -> Verdict {
    let config = tape_bench::eval_config();
    let set = EvalSet::generate(&config);
    println!("§VI-B correctness: {} transactions, trace-for-trace\n", set.len());

    // The HEVM runs in the -full posture: world state only via ORAM.
    let oram_config = OramConfig { block_size: 1024, bucket_capacity: 4, height: 14 };
    let server = OramServer::new(oram_config.clone());
    let client = OramClient::new(
        oram_config,
        &[0x0Au8; 16],
        tape_crypto::SecureRng::from_seed(b"vi-b"),
    );
    let oram = ObliviousState::new(client, server, Clock::new(), CostModel::default(), None);
    oram.sync_full_state(set.genesis.iter().map(|(a, acc)| (*a, acc.clone())))
        .expect("sync");
    let empty_local = InMemoryState::new();
    let reader = HybridState::new(SecurityConfig::Full, &empty_local, Some(&oram));

    let mut reference = Evm::with_inspector(set.env.clone(), &set.genesis, StructTracer::new());
    let mut hevm = Hevm::with_inspector(
        HevmConfig { charge_local_fetch: false, ..HevmConfig::default() },
        set.env.clone(),
        reader,
        Clock::new(),
        StructTracer::new(),
    );

    let mut identical = 0usize;
    let mut divergent = 0usize;
    let mut steps_compared = 0usize;
    for (i, tx) in set.all_transactions().enumerate() {
        reference.inspector_mut().clear();
        hevm.inspector_mut().clear();
        let expected = reference.transact(tx).expect("ground truth accepts");
        let actual = hevm.transact(tx).expect("hevm accepts");
        steps_compared += reference.inspector().steps().len();
        let same_trace = reference.inspector().first_divergence(hevm.inspector()).is_none();
        if expected == actual && same_trace {
            identical += 1;
        } else {
            divergent += 1;
            println!("  DIVERGENCE at tx {i}");
        }
    }
    println!("  transactions identical: {identical}/{}", set.len());
    println!("  interpreter steps compared: {steps_compared}");
    println!("  divergences: {divergent}");

    // --- The roll-up caveat --------------------------------------------
    // Paper: "The Memory Overflow Error may occur when executing roll-up
    // transactions, which may exceed the layer 2 frame size limit."
    // Demonstrate with a memory-heavy frame against a reduced layer 2.
    println!("\nRoll-up style frame vs constrained layer 2:");
    let mut state = InMemoryState::new();
    let user = Address::from_low_u64(1);
    state.put_account(user, Account::with_balance(U256::from(u64::MAX)));
    let rollup = Address::from_low_u64(0xA0);
    state.put_account(
        rollup,
        Account::with_code(
            tape_evm::asm::Asm::new()
                .push(1u64)
                .push(200u64 * 1024)
                .op(tape_evm::opcode::op::MSTORE)
                .stop()
                .build(),
        ),
    );
    let constrained = HevmConfig {
        mem: MemoryConfig { layer2_bytes: 256 * 1024, ..MemoryConfig::default() },
        ..HevmConfig::default()
    };
    let mut hevm = Hevm::new(constrained, set.env.clone(), &state, Clock::new());
    let mut tx = Transaction::call(user, rollup, vec![]);
    tx.gas_limit = 10_000_000;
    match hevm.transact(&tx) {
        Err(HevmAbort::MemoryOverflow { frame_pages, limit_pages }) => println!(
            "  Memory Overflow Error raised: frame {frame_pages} pages > limit {limit_pages} pages (as in the paper)"
        ),
        other => println!("  unexpected: {other:?}"),
    }

    Verdict::check(divergent == 0, "all traces identical to ground truth")
}
