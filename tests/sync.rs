//! Block sync costs what the block changed, not what the contract holds
//! (paper step 11): one ERC-20 transfer a block must cost the same ORAM
//! writes and the same virtual sync time whether the token has 8
//! holders or thousands — the sender's meta page, the token's meta page
//! and the two balance groups the transfer moved.

use hardtape::{HarDTape, SecurityConfig, ServiceConfig};
use tape_evm::{Env, Transaction};
use tape_node::Node;
use tape_primitives::{Address, U256};
use tape_sim::telemetry::CounterId;
use tape_state::{Account, InMemoryState};
use tape_workload::contracts;

/// What one block's sync cost the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BlockSync {
    writes: u64,
    virt_ns: u64,
}

/// Syncs `blocks` blocks of one ERC-20 transfer each into a `-Full`
/// device of ORAM height `height`, against a token with `holders`
/// holders besides the sender.
fn sync_transfers(holders: u64, height: u32, blocks: u64) -> Vec<BlockSync> {
    let sender = Address::from_low_u64(0x5E);
    let token = Address::from_low_u64(0x70_0000);
    let holder = |i: u64| Address::from_low_u64(0x10_0000 + i);
    let mut genesis = InMemoryState::new();
    genesis.put_account(sender, Account::with_balance(U256::from(u64::MAX)));
    let mut erc20 = Account::with_code(contracts::erc20_runtime());
    erc20.storage.insert(contracts::balance_slot(&sender), U256::from(1_000_000u64));
    for i in 0..holders {
        erc20.storage.insert(contracts::balance_slot(&holder(i)), U256::from(1000u64));
    }
    genesis.put_account(token, erc20);

    let mut node = Node::new(genesis.clone(), Env::default());
    let config =
        ServiceConfig { oram_height: height, ..ServiceConfig::at_level(SecurityConfig::Full) };
    let mut device = HarDTape::new(config, Env::default(), &genesis).expect("device boots");
    (0..blocks)
        .map(|i| {
            let data = contracts::encode_call(
                contracts::sel::transfer(),
                &[holder(i % holders).into_word(), U256::ONE],
            );
            let tx = Transaction { gas_limit: 300_000, ..Transaction::call(sender, token, data) };
            node.produce_block(vec![tx]);
            let index = node.height() - 1;
            let header = node.block(index).expect("block exists").header.clone();
            let delta = node.state_delta(index).expect("delta exists");
            let writes = device.telemetry().counter(CounterId::OramSync);
            let at = device.clock().now();
            device.sync_block(&header, &delta).expect("block syncs");
            BlockSync {
                writes: device.telemetry().counter(CounterId::OramSync) - writes,
                virt_ns: device.clock().now() - at,
            }
        })
        .collect()
}

#[test]
fn sync_cost_per_block_does_not_grow_with_the_holders() {
    let small = sync_transfers(8, 11, 3);
    assert!(small.iter().all(|b| b.writes == 4), "sender meta, token meta, two groups: {small:?}");
    assert_eq!(sync_transfers(1024, 11, 3), small);
}

/// The same sweep at 8 192 holders, in release (`scripts/verify.sh
/// --soak` runs it): prints the per-block cost and fails unless it
/// equals the 8-holder cost.
#[test]
#[ignore = "8 192 holders: run in release with --ignored"]
fn sync_scale_at_8192_holders() {
    let small = sync_transfers(8, 14, 3);
    let large = sync_transfers(8192, 14, 3);
    let block = large[0];
    println!(
        "SYNC_SCALE holders=8192 writes_per_block={} virt_ms_per_block={:.3}",
        block.writes,
        block.virt_ns as f64 / 1e6
    );
    assert_eq!(large, small, "8 192 holders cost more a block than 8");
}
