//! §VI-B pre-execution correctness: HarDTAPE's behavior must be
//! identical to a standard node. We replay the synthetic evaluation set
//! through (a) the node's `debug_traceTransaction` ground truth and
//! (b) the HEVM under the `-full` security configuration, comparing
//! step-by-step traces and results.

use hardtape::{HybridState, SecurityConfig};
use tape_evm::{Env, Evm, StructTracer, Transaction};
use tape_hevm::{Hevm, HevmConfig};
use tape_node::Node;
use tape_oram::{ObliviousState, OramClient, OramConfig, OramServer};
use tape_sim::Clock;
use tape_state::InMemoryState;
use tape_workload::{EvalSet, EvalSetConfig};

fn build_oram(genesis: &InMemoryState, height: u32) -> ObliviousState {
    let config = OramConfig { block_size: 1024, bucket_capacity: 4, height };
    let server = OramServer::new(config.clone());
    let client = OramClient::new(
        config,
        &[0x0Au8; 16],
        tape_crypto::SecureRng::from_seed(b"correctness"),
    );
    let state =
        ObliviousState::new(client, server, Clock::new(), tape_sim::CostModel::default(), None);
    state
        .sync_full_state(genesis.iter().map(|(a, acc)| (*a, acc.clone())))
        .unwrap();
    state
}

/// Replays the evaluation set on both engines — the reference EVM over
/// plain state and the HEVM over the ORAM — transaction by transaction,
/// comparing structured traces.
#[test]
fn evalset_traces_identical_on_both_engines() {
    let set = EvalSet::generate(&EvalSetConfig::small());
    let oram = build_oram(&set.genesis, 12);
    let local = InMemoryState::new(); // empty: -full uses only the ORAM
    let reader = HybridState::new(SecurityConfig::Full, &local, Some(&oram));

    let mut reference = Evm::with_inspector(set.env.clone(), &set.genesis, StructTracer::new());
    let mut hevm = Hevm::with_inspector(
        HevmConfig { charge_local_fetch: false, ..HevmConfig::default() },
        set.env.clone(),
        reader,
        Clock::new(),
        StructTracer::new(),
    );

    let mut compared = 0;
    for (i, tx) in set.all_transactions().enumerate() {
        reference.inspector_mut().clear();
        hevm.inspector_mut().clear();
        let expected = reference.transact(tx).expect("reference accepts");
        let actual = hevm.transact(tx).expect("hevm accepts");
        assert_eq!(expected, actual, "tx {i} result differs");

        let ref_trace = reference.inspector();
        let hevm_trace = hevm.inspector();
        if let Some(step) = ref_trace.first_divergence(hevm_trace) {
            panic!(
                "tx {i} trace diverges at step {step}:\n  ref:  {:?}\n  hevm: {:?}",
                ref_trace.steps().get(step),
                hevm_trace.steps().get(step)
            );
        }
        assert_eq!(ref_trace.digest(), hevm_trace.digest(), "tx {i} digest");
        compared += 1;
    }
    assert_eq!(compared, set.len());
    // Final cumulative state identical as well.
    assert_eq!(reference.state().changes(), hevm.state().changes());
}

/// The node's debug_traceTransaction ground truth matches a fresh
/// pre-execution of the same transactions in block order.
#[test]
fn node_ground_truth_matches_pre_execution() {
    let set = EvalSet::generate(&EvalSetConfig {
        blocks: 2,
        txs_per_block: 10,
        ..EvalSetConfig::small()
    });
    let mut node = Node::new(set.genesis.clone(), set.env.clone());
    for block in &set.blocks {
        node.produce_block(block.clone());
    }

    // For each transaction, the node's trace equals the HEVM's trace when
    // pre-executing the same prefix of the block.
    for (block_idx, block) in set.blocks.iter().enumerate() {
        let mut env = set.env.clone();
        env.block_number += block_idx as u64;
        env.timestamp += 12 * block_idx as u64;

        // The HEVM pre-executes the whole block as one bundle, starting
        // from the node's pre-block snapshot == our incremental state.
        let snapshot = if block_idx == 0 {
            set.genesis.clone()
        } else {
            // Rebuild by replaying earlier blocks on the reference EVM.
            let mut state = set.genesis.clone();
            let mut node_replay = Node::new(std::mem::take(&mut state), set.env.clone());
            for earlier in &set.blocks[..block_idx] {
                node_replay.produce_block(earlier.clone());
            }
            node_replay.state().clone()
        };

        let mut hevm = Hevm::with_inspector(
            HevmConfig::default(),
            env,
            &snapshot,
            Clock::new(),
            StructTracer::new(),
        );
        for (tx_idx, tx) in block.transactions_iter().enumerate() {
            hevm.inspector_mut().clear();
            let actual = hevm.transact(tx).expect("hevm accepts");
            let (expected_trace, expected_result) = node
                .debug_trace_transaction(block_idx, tx_idx)
                .expect("node has the tx");
            assert_eq!(expected_result, actual, "block {block_idx} tx {tx_idx}");
            let hevm_trace = hevm.inspector();
            assert_eq!(
                expected_trace.digest(),
                hevm_trace.digest(),
                "block {block_idx} tx {tx_idx}: trace digest"
            );
        }
    }
}

/// Convenience: iterate transactions of a generated block.
trait BlockTxs {
    fn transactions_iter(&self) -> std::slice::Iter<'_, Transaction>;
}

impl BlockTxs for Vec<Transaction> {
    fn transactions_iter(&self) -> std::slice::Iter<'_, Transaction> {
        self.iter()
    }
}

/// Gas usage across the evaluation set is identical between engines —
/// the strongest aggregate check on gas metering.
#[test]
fn aggregate_gas_identical() {
    let set = EvalSet::generate(&EvalSetConfig::small());
    let mut reference = Evm::new(set.env.clone(), &set.genesis);
    let mut hevm = Hevm::new(HevmConfig::default(), set.env.clone(), &set.genesis, Clock::new());
    let mut ref_gas = 0u64;
    let mut hevm_gas = 0u64;
    for tx in set.all_transactions() {
        ref_gas += reference.transact(tx).unwrap().gas_used;
        hevm_gas += hevm.transact(tx).unwrap().gas_used;
    }
    assert_eq!(ref_gas, hevm_gas);
    assert!(ref_gas > 21_000 * set.len() as u64);
}

/// The dedicated environment check used by `Env::default()` matches the
/// paper's first evaluation block.
#[test]
fn evaluation_env_constants() {
    assert_eq!(Env::default().block_number, 19_145_194);
}
