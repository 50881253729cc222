//! Regenerates the **§VI-A resource-utility table**: per-HEVM LUT/FF/
//! BlockRAM consumption, the 3-HEVM-per-chip LUT bottleneck, and the
//! Hypervisor's 248 KB memory footprint against the 256 KB OCM.
//!
//! BRAM is derived from the memory architecture; LUT/FF are the paper's
//! Vivado constants (synthesis cannot be re-run here — see DESIGN.md).

use tape_bench::Verdict;
use tape_sim::resources::{report, ChipCapacity, MemoryConfig};

pub fn run() -> Verdict {
    let config = MemoryConfig::default();
    let chip = ChipCapacity::default();
    let r = report(&config, &chip);

    println!("=== §VI-A Resource utility (XCZU15EV) ===\n");
    println!("Per-HEVM memory architecture:");
    println!("  layer-1 code cache        {:>8} B", config.code_cache);
    println!("  layer-1 input cache       {:>8} B", config.input_cache);
    println!("  layer-1 memory cache      {:>8} B", config.memory_cache);
    println!("  layer-1 return cache      {:>8} B", config.return_cache);
    println!("  layer-1 world-state cache {:>8} B", config.state_cache);
    println!("  runtime stack             {:>8} B", config.stack_bytes);
    println!("  frame state               {:>8} B", config.frame_state_bytes);
    println!("  layer-2 BRAM window       {:>8} B", config.layer2_bram_window);
    println!("  tracer buffer             {:>8} B", config.tracer_bytes);
    println!("  misc/pipeline             {:>8} B", config.misc_bytes);
    println!("  layer-2 total ring        {:>8} B (1 MB; frame limit {} B)",
        config.layer2_bytes, config.frame_size_limit());

    println!("\nPer-HEVM consumption:");
    println!("  LUTs  {:>8}   (paper: 103388)", r.luts_per_hevm);
    println!("  FFs   {:>8}   (paper: 37104)", r.ffs_per_hevm);
    println!("  BRAM  {:>8} B (paper: 509 KB = {} B)", r.bram_per_hevm, 509 * 1024);

    println!("\nChip capacity: {} LUTs, {} FFs, {} B BRAM", chip.luts, chip.ffs, chip.bram_bytes);
    println!("Max HEVMs per chip: {}  (bottleneck: {})", r.max_hevms, r.bottleneck);

    println!("\nHypervisor memory:");
    println!("  binary {:>7} B   (paper: 156 KB)", r.hypervisor.binary_bytes);
    println!("  stack  {:>7} B   (paper: 92 KB)", r.hypervisor.stack_bytes);
    println!(
        "  total  {:>7} B vs {} B OCM -> fits: {}",
        r.hypervisor.total(),
        chip.hypervisor_ocm,
        r.hypervisor_fits
    );

    let reproduced = r.max_hevms == 3
        && r.bottleneck == "LUT"
        && r.bram_per_hevm == 509 * 1024
        && r.hypervisor_fits;
    Verdict::check(reproduced, "3 HEVMs per chip, LUT-bound, 509 KB BRAM each, Hypervisor in OCM")
}
