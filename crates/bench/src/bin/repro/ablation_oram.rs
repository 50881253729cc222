//! ORAM design-choice ablations (paper §IV-D):
//!
//! 1. **Tree height sweep** — the O(log n) bandwidth claim, evaluated on
//!    the Ethereum-shaped workload and extrapolated to the paper's
//!    1.1 TB world state (n ≈ 10⁹ → height ≈ 30).
//! 2. **Block size** — why 1 KB: small blocks violate the Ω(log² n)-bit
//!    bound and multiply code-fetch queries; larger blocks waste
//!    bandwidth on K-V queries.
//! 3. **Recursion** — the cost of storing the position map in
//!    higher-level ORAMs instead of on-chip.

use tape_bench::recursive::RecursiveOram;
use tape_bench::Verdict;
use tape_crypto::{keccak256, SecureRng};
use tape_oram::{OramClient, OramConfig, OramServer};
use tape_sim::{Clock, CostModel};

pub fn run() -> Verdict {
    let cost = CostModel::default();

    // ---- 1. height sweep -------------------------------------------------
    println!("=== Tree height sweep (1 KB blocks, Z=4) ===\n");
    println!("{:>7} {:>14} {:>14} {:>16}", "height", "blocks moved", "bytes/access", "virtual time");
    for height in [10u32, 14, 18, 22, 26, 30] {
        let config = OramConfig { block_size: 1024, bucket_capacity: 4, height };
        let per_access_blocks = config.blocks_per_access();
        let ns = cost.oram_query_ns(per_access_blocks);
        println!(
            "{height:>7} {per_access_blocks:>14} {:>14} {:>13.3} ms",
            per_access_blocks as usize * config.block_size,
            ns as f64 / 1e6,
        );
    }
    println!(
        "\nheight 30 ≈ the paper's 1.1 TB world state (n ≈ 10⁹ 1 KB blocks):\n\
         bandwidth grows linearly in height (O(log n)) while the 2 ms link\n\
         round-trip still dominates the latency — the paper's premise that\n\
         full-state ORAM is affordable."
    );

    // Measured (not just modeled): actual per-access wall behavior at two
    // heights on a live tree.
    println!("\nmeasured virtual time per access (live tree):");
    for height in [10u32, 16] {
        let config = OramConfig { block_size: 1024, bucket_capacity: 4, height };
        let mut server = OramServer::new(config.clone());
        let mut client = OramClient::new(config, &[1u8; 16], SecureRng::from_seed(b"sweep"));
        let clock = Clock::new();
        for i in 0..64u64 {
            client
                .write(&mut server, &clock, &cost, &keccak256(i.to_be_bytes()), vec![0; 1024])
                .expect("in-memory ORAM write");
        }
        let before = clock.now();
        for i in 0..64u64 {
            client
                .read(&mut server, &clock, &cost, &keccak256(i.to_be_bytes()))
                .expect("in-memory ORAM read");
        }
        println!("  height {height}: {:.3} ms/access", (clock.now() - before) as f64 / 64.0 / 1e6);
    }

    // ---- 2. block size ----------------------------------------------------
    println!("\n=== Block size ablation (height 20) ===\n");
    println!(
        "{:>8} {:>10} {:>12} {:>16} {:>16} {:>14}",
        "block", "bits", "log2(n)^2", "queries/10KB", "KV waste/query", "time/code-fetch"
    );
    let total_state: u64 = 1_100_000_000_000; // 1.1 TB
    for block in [32usize, 256, 1024, 4096] {
        let n = total_state / block as u64;
        let log2n = 64 - n.leading_zeros() as u64;
        let bound = log2n * log2n;
        let bits = (block * 8) as u64;
        let config = OramConfig { block_size: block, bucket_capacity: 4, height: 20 };
        // A 10 KB contract needs ceil(10240/block) code-page queries.
        // (At 32 B the "block" is a single storage record — the paper's
        // problem (1) example: 256 bits << log²n ≈ 1225.)
        let code_queries = 10_240usize.div_ceil(block);
        let fetch_ns = code_queries as u64 * cost.oram_query_ns(config.blocks_per_access());
        // A K-V query wants 32 bytes; the rest of the block is padding.
        let waste = block - 32;
        let meets = if bits >= bound { "ok" } else { "VIOLATES" };
        println!(
            "{block:>8} {bits:>10} {bound:>9} ({meets}) {code_queries:>12} {waste:>13} B {:>11.1} ms",
            fetch_ns as f64 / 1e6
        );
    }
    println!(
        "\n32 B blocks (one record per block) violate the Ω(log² n)-bit\n\
         bound — the paper's problem (1). 1 KB satisfies it, keeps a 10 KB\n\
         code fetch to 10 queries, and holds exactly 32 storage records —\n\
         the paper's choice; 4 KB wastes 4064/4096 of every K-V response."
    );

    // ---- 3. recursion -----------------------------------------------------
    println!("\n=== Recursive position map ablation ===\n");
    let config = OramConfig { block_size: 1024, bucket_capacity: 4, height: 12 };
    for (label, on_chip) in [("flat map (all on-chip)", u64::MAX), ("recursive (64 on-chip)", 64)] {
        let mut oram = RecursiveOram::new(
            config.clone(),
            1 << 16,
            on_chip.min(1 << 16),
            &[2u8; 16],
            SecureRng::from_seed(b"ablation"),
        );
        let clock = Clock::new();
        for i in 0..32u64 {
            oram.write(&clock, &CostModel::default(), i * 97, vec![0u8; 1024])
                .expect("recursive ORAM write");
        }
        let q0 = oram.total_queries();
        let t0 = clock.now();
        for i in 0..32u64 {
            oram.read(&clock, &CostModel::default(), i * 97).expect("recursive ORAM read");
        }
        println!(
            "  {label}: {} levels, {:.1} server queries/access, {:.2} ms/access",
            oram.levels(),
            (oram.total_queries() - q0) as f64 / 32.0,
            (clock.now() - t0) as f64 / 32.0 / 1e6
        );
    }
    println!(
        "\nRecursion multiplies queries by the level count — the price of an\n\
         O(1) on-chip map. The paper keeps the top map on-chip (1 MB stash\n\
         budget), i.e. the flat row; recursion is the documented scaling\n\
         path beyond that."
    );
    Verdict::Informational
}
