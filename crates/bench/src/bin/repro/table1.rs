//! Regenerates **Table I**: the distribution of memory-like sizes per
//! frame, storage records per frame, and call depth per transaction,
//! measured from live execution of the synthetic evaluation set.
//!
//! Run with `TAPE_EVAL_SCALE=full` for the paper-sized 100×200 workload.

use tape_bench::Verdict;
use tape_evm::Evm;
use tape_workload::{table_one, EvalSet, TableOneCollector};

pub fn run() -> Verdict {
    let config = tape_bench::eval_config();
    println!(
        "Generating evaluation set: {} blocks x {} txs (seed {})",
        config.blocks, config.txs_per_block, config.seed
    );
    let set = EvalSet::generate(&config);

    let mut evm = Evm::with_inspector(set.env.clone(), &set.genesis, TableOneCollector::new());
    for tx in set.all_transactions() {
        let result = evm.transact(tx).expect("evaluation set txs are valid");
        assert!(result.success, "evaluation set tx failed");
        evm.inspector_mut().finish_transaction();
    }
    let table = table_one(evm.inspector());

    println!("\n=== Table I (measured from execution) ===\n");
    println!("{}", table.render());

    println!("=== Paper's published values (blocks #19145194-#19145293) ===\n");
    println!("(a) code: 9.5 / 25.3 / 39.6 / 25.6 / 0.0   input: 95.0 / 4.0 / 0.2 / 0.0 / 0.1");
    println!("    memory: 92.7 / 5.7 / 0.6 / 0.0 / 0.1   return: 100.0 / 0.0 / 0.0 / 0.0 / 0.0");
    println!("(b) keys <=4: 79.9  5-16: 19.0  17-64: 0.01  >64: 1.09");
    println!("(c) depth 1: 40.8  2-5: 52.6  6-10: 6.3  >10: 0.4");

    // Shape assertions: the generator is calibrated to the paper's
    // marginals; warn loudly if it drifts.
    let checks: [(&str, f64, f64, f64); 6] = [
        ("input <1k share", table.input[0], 0.85, 1.0),
        ("memory <1k share", table.memory[0], 0.80, 1.0),
        ("return <1k share", table.return_data[0], 0.95, 1.0),
        ("keys <=4 share", table.storage_keys[0], 0.60, 0.95),
        ("depth 1 share", table.depth[0], 0.25, 0.60),
        ("depth 2-5 share", table.depth[1], 0.35, 0.70),
    ];
    let mut ok = true;
    for (name, value, lo, hi) in checks {
        let status = if (lo..=hi).contains(&value) { "ok" } else { "OUT OF BAND" };
        if status != "ok" {
            ok = false;
        }
        println!("check {name}: {:.1}% [{:.0}%..{:.0}%] {status}", value * 100.0, lo * 100.0, hi * 100.0);
    }
    Verdict::check(ok, "every marginal inside its calibration band")
}
