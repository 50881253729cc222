//! Layer-3 pager ablation (paper §IV-B / threat A5): how much does the
//! random pre-evict/pre-load noise actually hide frame sizes?
//!
//! An adversary watches swap sizes and guesses each frame's true page
//! count (its best strategy against `observed = true + U[0, noise]` is
//! `observed - noise/2`, and with zero noise it reads sizes exactly).
//! We sweep the noise level and report the adversary's exact-hit rate
//! and mean absolute error — the quantified version of the paper's
//! "too imprecise to identify the running contract" argument.

use tape_bench::Verdict;
use tape_crypto::SecureRng;
use tape_hevm::Layer3Pager;
use tape_sim::{Clock, CostModel};

pub fn run() -> Verdict {
    let cost = CostModel::default();
    println!("=== Pre-evict/pre-load noise vs adversary inference (A5) ===\n");
    println!(
        "{:>10} {:>14} {:>16} {:>18}",
        "max noise", "exact hits", "mean abs error", "distinct sizes seen"
    );

    // Frames of known true sizes the adversary tries to recover.
    let true_sizes: Vec<usize> = (0..400).map(|i| 2 + (i % 7)).collect(); // 2..=8 pages

    for max_noise in [0usize, 2, 4, 6, 10] {
        let mut pager = Layer3Pager::new(
            &[9u8; 16],
            SecureRng::from_seed(&(max_noise as u64).to_be_bytes()),
            1024,
            max_noise,
        );
        let clock = Clock::new();

        let mut exact = 0usize;
        let mut abs_err = 0usize;
        let mut seen = std::collections::HashSet::new();
        for &pages in &true_sizes {
            let frame = vec![0u8; pages * 1024];
            let handle = pager.swap_out(&frame, &clock, &cost);
            let observed = pager.swap_log().last().expect("logged").pages_out;
            seen.insert(observed);
            // Adversary's maximum-likelihood guess.
            let guess = observed.saturating_sub(max_noise / 2).max(1);
            if guess == pages {
                exact += 1;
            }
            abs_err += guess.abs_diff(pages);
            let _ = pager.swap_in(handle, &clock, &cost).expect("honest pager");
        }
        println!(
            "{max_noise:>10} {:>12.1} % {:>13.2} pages {:>18}",
            exact as f64 * 100.0 / true_sizes.len() as f64,
            abs_err as f64 / true_sizes.len() as f64,
            seen.len()
        );
    }

    println!(
        "\nWith zero noise the adversary reads every frame size exactly\n\
         (100% hits); at the default noise of ~6 pages the exact-hit rate\n\
         collapses toward guessing and the mean error exceeds the spread\n\
         of real frame sizes — sizes and depths become 'too rough to\n\
         identify the pre-executed contract' (paper §IV-B).\n"
    );

    // Latency cost of the noise: observed pages move, true work constant.
    println!("=== Cost of the noise ===\n");
    for max_noise in [0usize, 6, 12] {
        let mut pager = Layer3Pager::new(
            &[9u8; 16],
            SecureRng::from_seed(b"cost"),
            1024,
            max_noise,
        );
        let clock = Clock::new();
        let before = clock.now();
        for _ in 0..100 {
            let h = pager.swap_out(&vec![0u8; 4096], &clock, &cost);
            pager.swap_in(h, &clock, &cost).expect("honest pager");
        }
        println!(
            "  noise {max_noise:>2}: {:>8.3} ms per swap-out+in pair",
            (clock.now() - before) as f64 / 100.0 / 1e6
        );
    }
    println!("\nNoise costs microseconds per swap; swaps are rare (Table I).");
    Verdict::Informational
}
