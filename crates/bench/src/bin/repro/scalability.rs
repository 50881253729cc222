//! Regenerates the **§VI-D scalability estimate**: chip throughput vs
//! Ethereum's ~17 tx/s, and the number of full-load HEVMs one ORAM
//! server supports, from quantities measured on the `-full`
//! configuration.

use hardtape::{Bundle, HarDTape, SecurityConfig, ServiceConfig};
use tape_bench::Verdict;
use tape_sim::CostModel;
use tape_workload::EvalSet;

/// Ethereum Mainnet's approximate throughput (paper: ~200 txs / 12 s).
const ETHEREUM_TPS: f64 = 17.0;

/// The §VI-D arithmetic: transactions per second one chip sustains
/// (`hevm_count / per_tx_seconds`) and the full-load HEVMs one ORAM
/// server feeds (`⌊query_gap / server_op⌋`).
fn estimate(per_tx_ns: u64, hevm_count: usize, server_op_ns: u64, query_gap_ns: u64) -> (f64, u64) {
    let chip_tps = hevm_count as f64 / (per_tx_ns as f64 / 1e9);
    (chip_tps, query_gap_ns.checked_div(server_op_ns).unwrap_or(u64::MAX))
}

pub fn run() -> Verdict {
    let mut config = tape_bench::eval_config();
    config.blocks = config.blocks.min(4); // scalability needs a sample, not the full set
    let set = EvalSet::generate(&config);

    let service_config = ServiceConfig { oram_height: 14, ..ServiceConfig::at_level(SecurityConfig::Full) };
    let hevm_count = service_config.hevm_count;
    let mut device = HarDTape::new(service_config, set.env.clone(), &set.genesis).expect("device boots");
    let mut user = device.connect_user(b"scalability").expect("attestation");

    let sync_queries = device.oram_stats().expect("full config has an ORAM").total();
    let started = device.clock().now();
    let mut total_ns = 0u64;
    let mut executed = 0u64;
    for tx in set.all_transactions() {
        let report = device
            .pre_execute(&mut user, &Bundle::single(tx.clone()))
            .expect("bundle accepted");
        total_ns += report.total_ns;
        executed += 1;
    }
    let elapsed = device.clock().now() - started;
    let queries = device.oram_stats().expect("oram").total() - sync_queries;
    let per_tx_ns = total_ns / executed;
    // Average gap between ORAM queries from one full-load HEVM.
    let query_gap_ns = elapsed.checked_div(queries).unwrap_or(u64::MAX);
    let server_op_ns = CostModel::default().oram_server_op_ns;
    let (chip_tps, max_hevms_per_server) =
        estimate(per_tx_ns, hevm_count, server_op_ns, query_gap_ns);
    let keeps_up = chip_tps >= ETHEREUM_TPS;

    println!("§VI-D scalability ({executed} txs measured)\n");
    println!("  per-tx end-to-end:      {:>10.2} ms", per_tx_ns as f64 / 1e6);
    println!("  HEVMs per chip:         {:>10}", hevm_count);
    println!("  chip throughput:        {:>10.2} tx/s", chip_tps);
    println!("  Ethereum Mainnet:       {:>10.2} tx/s", ETHEREUM_TPS);
    println!("  keeps up with Mainnet:  {:>10}", if keeps_up { "yes" } else { "no" });
    println!("  ORAM queries issued:    {:>10}", queries);
    println!("  avg query gap:          {:>10.1} us  (paper: 630 us)", query_gap_ns as f64 / 1e3);
    println!("  server time per query:  {:>10.1} us  (paper: 25 us)", server_op_ns as f64 / 1e3);
    println!("  max HEVMs per server:   {:>10}  (paper: 25)", max_hevms_per_server);
    println!("  max chips per server:   {:>10}", max_hevms_per_server / hevm_count.max(1) as u64);

    Verdict::check(
        keeps_up && max_hevms_per_server >= hevm_count as u64,
        "one chip covers Mainnet; one ORAM server feeds multiple chips",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_numbers_reproduce() {
        // Paper §VI-D: 164.4 ms per tx, 3 HEVMs -> ~18 tx/s >= 17;
        // 25 µs server op, 630 µs gap -> 25 HEVMs per server.
        let (chip_tps, max_hevms) = estimate(164_400_000, 3, 25_000, 630_000);
        assert!((chip_tps - 18.25).abs() < 0.1);
        assert!(chip_tps >= ETHEREUM_TPS);
        assert_eq!(max_hevms, 25);
    }

    #[test]
    fn degenerate_inputs_neither_divide_by_zero_nor_overpromise() {
        assert_eq!(estimate(1, 1, 0, 100).1, u64::MAX, "a free server op is unbounded");
        assert_eq!(estimate(164_400_000, 3, 25_000, 0).1, 0, "a saturated server hosts none");
        assert_eq!(estimate(164_400_000, 0, 25_000, 630_000).0, 0.0, "no cores, no throughput");
        assert!(estimate(600_000_000, 3, 25_000, 630_000).0 < ETHEREUM_TPS, "a slow chip lags");
    }
}
