//! Regenerates **Figure 4**: end-to-end per-transaction time of Geth and
//! HarDTAPE under `-raw`, `-E`, `-ES`, `-ESO`, `-full`, on the
//! evaluation set with each transaction as its own bundle.
//!
//! Expected shape (paper): Geth ≈ 1 ms; `-raw` +0.5 ms; `-E` +~3 ms;
//! `-ES` +80 ms (ECDSA); `-ESO` +~30 ms (K-V ORAM); `-full` +~50 ms
//! (code ORAM), totaling ≈ 164 ms — all under the 600 ms usability bound.

use hardtape::{Bundle, HarDTape, SecurityConfig, ServiceConfig};
use tape_bench::{ms, GethTimer, Verdict};
use tape_evm::Evm;
use tape_sim::{Clock, CostModel};
use tape_workload::EvalSet;

pub fn run() -> Verdict {
    let config = tape_bench::eval_config();
    let set = EvalSet::generate(&config);
    let total = set.len();
    println!("Fig. 4 — end-to-end per-transaction time ({total} txs, 1-tx bundles)\n");

    // --- Geth baseline -------------------------------------------------
    let clock = Clock::new();
    let timer = GethTimer::new(clock.clone(), CostModel::default());
    let mut geth = Evm::with_inspector(set.env.clone(), &set.genesis, timer);
    let mut geth_total = 0u64;
    for tx in set.all_transactions() {
        let before = clock.now();
        geth.inspector().charge_tx_overhead();
        geth.transact(tx).expect("valid tx");
        geth_total += clock.now() - before;
    }
    let geth_mean = geth_total as f64 / total as f64;
    println!("  Geth        {}", ms(geth_mean));

    // --- HarDTAPE ladder ------------------------------------------------
    let mut means = vec![("Geth", geth_mean)];
    for level in SecurityConfig::ALL {
        let service_config = ServiceConfig {
            oram_height: 14,
            ..ServiceConfig::at_level(level)
        };
        let mut device = HarDTape::new(service_config, set.env.clone(), &set.genesis).expect("device boots");
        let mut user = device.connect_user(b"fig4 user").expect("attestation");
        let mut sum = 0u64;
        for tx in set.all_transactions() {
            let report = device
                .pre_execute(&mut user, &Bundle::single(tx.clone()))
                .expect("bundle accepted");
            sum += report.total_ns;
        }
        let mean = sum as f64 / total as f64;
        println!("  HarDTAPE{:5} {}", level.label(), ms(mean));
        means.push((level.label(), mean));
    }

    println!("\nIncremental cost of each security feature:");
    for pair in means.windows(2) {
        println!(
            "  {:>6} -> {:<6} +{}",
            pair[0].0,
            pair[1].0,
            ms(pair[1].1 - pair[0].1)
        );
    }

    let full = means.last().expect("full config ran").1;
    println!("\n-full mean: {}  (usability bound: 600 ms)", ms(full));
    Verdict::check(
        full < 600_000_000.0 && means.windows(2).all(|w| w[0].1 < w[1].1),
        "monotonic ladder, under the latency bound",
    )
}
