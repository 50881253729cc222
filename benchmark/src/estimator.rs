//! The estimators: how replica timings become one number, when a run has
//! enough replicas, and the contract's own spread-and-median rule.
//!
//! All pure functions, so the protocol is tested on synthetic data
//! (`cargo test --manifest-path benchmark/Cargo.toml`).

/// The value of each timed call is its minimum over replicas: on a shared
/// VM a disturbance only ever adds time, and it rarely hits the same
/// schedule index in every replica, so the per-index minima sum to a
/// total no single replica reached. All rows must have one length.
pub fn per_index_min(replicas: &[Vec<u64>]) -> Vec<u64> {
    let Some(first) = replicas.first() else {
        return Vec::new();
    };
    assert!(
        replicas.iter().all(|r| r.len() == first.len()),
        "replicas of one schedule"
    );
    (0..first.len())
        .map(|i| {
            replicas
                .iter()
                .map(|r| r[i])
                .min()
                .expect("at least one replica")
        })
        .collect()
}

/// The `p`-th percentile (nearest rank) of `sorted`, refused unless at
/// least ten samples lie beyond it — a tail percentile resting on a
/// couple of samples is a single sample's noise. The median is always
/// allowed.
pub fn percentile(sorted: &[u64], p: f64) -> Result<u64, String> {
    assert!((0.0..=100.0).contains(&p));
    if sorted.is_empty() {
        return Err("no samples".into());
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    let rank = rank.clamp(1, sorted.len());
    let beyond = sorted.len() - rank;
    if p > 50.0 && beyond < 10 {
        return Err(format!(
            "p{p} of {} samples has only {beyond} beyond it",
            sorted.len()
        ));
    }
    Ok(sorted[rank - 1])
}

/// Decides whether a run starts another replica.
///
/// At least [`ReplicaRule::MIN`] replicas and until `seconds` have
/// elapsed; then up to [`ReplicaRule::EXTRA`] more while the two quickest
/// replica totals still differ by more than 3 % (the workload is its own
/// sentinel: two undisturbed replicas agree closely, so disagreement
/// means fewer than two were undisturbed); never once `1.75 × seconds`
/// have elapsed, whatever the count.
pub struct ReplicaRule {
    seconds: f64,
    extras: usize,
}

impl ReplicaRule {
    /// Fewest replicas of a run.
    pub const MIN: usize = 5;
    /// Most replicas added for disagreement.
    pub const EXTRA: usize = 3;

    /// The rule for a run of `seconds`.
    pub fn new(seconds: f64) -> ReplicaRule {
        ReplicaRule { seconds, extras: 0 }
    }

    /// Whether to start another replica, given the totals of those
    /// finished and the seconds elapsed since the first one started.
    pub fn another(&mut self, totals: &[u64], elapsed: f64) -> bool {
        if elapsed >= 1.75 * self.seconds {
            return false;
        }
        if totals.len() < Self::MIN || elapsed < self.seconds {
            return true;
        }
        if self.extras < Self::EXTRA && two_quickest_disagree(totals) {
            self.extras += 1;
            return true;
        }
        false
    }
}

fn two_quickest_disagree(totals: &[u64]) -> bool {
    let mut sorted = totals.to_vec();
    sorted.sort_unstable();
    sorted.len() < 2 || sorted[1] as f64 > sorted[0] as f64 * 1.03
}

/// The first fact on which two replicas differ, if any: every replica of
/// a run must report identical receipts, virtual times, ORAM counts and
/// telemetry digest (allocator tallies go through [`near_exact`]).
pub fn disagreement(replicas: &[Vec<(String, String)>]) -> Option<String> {
    let first = replicas.first()?;
    for (r, other) in replicas.iter().enumerate().skip(1) {
        if other.len() != first.len() {
            return Some(format!(
                "replica {r} reports {} facts, replica 0 {}",
                other.len(),
                first.len()
            ));
        }
        for ((key, a), (other_key, b)) in first.iter().zip(other) {
            if key != other_key || a != b {
                let clip = |s: &str| s.chars().take(48).collect::<String>();
                return Some(format!(
                    "replica {r} differs on {key}: {} vs {} in replica 0",
                    clip(b),
                    clip(a)
                ));
            }
        }
    }
    None
}

/// The value of a count that repeats exactly in nearly every replica:
/// the (lower) median, so a stray replica cannot move it, refused unless
/// every replica is within `tolerance` of it — a count that really
/// varies is not one to gate regressions with.
pub fn near_exact(values: &[u64], tolerance: f64) -> Result<u64, String> {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let median = *sorted
        .get(sorted.len().saturating_sub(1) / 2)
        .ok_or("no replicas")?;
    let (low, high) = (sorted[0], sorted[sorted.len() - 1]);
    let allowed = median as f64 * tolerance;
    if (median - low) as f64 > allowed || (high - median) as f64 > allowed {
        return Err(format!("replicas range {low}..{high} around {median}"));
    }
    Ok(median)
}

/// The median, as Python's `statistics.median` gives it.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The first and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n >= 2, "quartiles need two values");
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// What two sets of runs of one workload × metric say.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Both spreads within the bound, second median not worse by more.
    Ok,
    /// Second median worse than the first by more than the bound.
    Regressed,
    /// Fewer than four runs in a set, or a spread wider than the bound:
    /// the sets cannot tell a regression from noise.
    Unresolved,
}

impl Verdict {
    /// As printed.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much of the first median the second is worse (negative:
/// better).
pub fn worsening(first: f64, second: f64, higher_is_better: bool) -> f64 {
    if higher_is_better {
        (first - second) / first.abs()
    } else {
        (second - first) / first.abs()
    }
}

/// The contract's rule for one workload × end-to-end metric.
pub fn verdict(first: &[f64], second: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    if first.len() < 4 || second.len() < 4 {
        return Verdict::Unresolved;
    }
    if quartile_spread(first) > bound || quartile_spread(second) > bound {
        return Verdict::Unresolved;
    }
    if worsening(median(first), median(second), higher_is_better) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny deterministic generator for synthetic matrices.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }
    }

    #[test]
    fn per_index_min_recovers_the_clean_total_under_stretches() {
        // 400 calls of 1–9 ms, 6 replicas. Each replica has 0.5 % jitter
        // and a 1.8× stretch over a random third of the schedule — the
        // speed levels the shared VM shows — and one replica is slow for
        // its whole life.
        let mut rng = Lcg(7);
        let clean: Vec<u64> = (0..400)
            .map(|_| 1_000_000 + rng.next() % 8_000_000)
            .collect();
        let clean_total: u64 = clean.iter().sum();
        let replicas: Vec<Vec<u64>> = (0..6)
            .map(|r| {
                let from = (rng.next() % 400) as usize;
                clean
                    .iter()
                    .enumerate()
                    .map(|(i, &ns)| {
                        let jitter = 1.0 + (rng.next() % 1000) as f64 / 200_000.0;
                        let stretched = r == 0 || (i + 400 - from) % 400 < 133;
                        (ns as f64 * jitter * if stretched { 1.8 } else { 1.0 }) as u64
                    })
                    .collect()
            })
            .collect();
        let best_single = replicas
            .iter()
            .map(|r| r.iter().sum::<u64>())
            .min()
            .unwrap();
        assert!(
            best_single as f64 > clean_total as f64 * 1.2,
            "every replica was disturbed"
        );
        let estimate: u64 = per_index_min(&replicas).iter().sum();
        let error = (estimate as f64 - clean_total as f64) / clean_total as f64;
        assert!((0.0..0.01).contains(&error), "estimate off by {error}");
    }

    #[test]
    #[should_panic(expected = "replicas of one schedule")]
    fn per_index_min_refuses_ragged_replicas() {
        per_index_min(&[vec![1, 2], vec![1]]);
    }

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        let v: Vec<u64> = (1..=200).collect();
        assert_eq!(percentile(&v, 50.0), Ok(100));
        assert_eq!(percentile(&v, 95.0), Ok(190)); // 191..=200: ten beyond
        assert!(percentile(&v[..180], 95.0).is_err()); // 172..=180: nine beyond
        assert!(percentile(&v, 99.0).is_err());
        assert_eq!(percentile(&v[..3], 50.0), Ok(2));
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn replica_rule_minimum_disagreement_and_cap() {
        let quiet = [100, 101, 102, 103, 104, 105, 106];
        // Fewer than five: always another, even late (but never past the cap).
        let mut rule = ReplicaRule::new(20.0);
        assert!(rule.another(&quiet[..4], 25.0));
        assert!(!rule.another(&quiet[..4], 35.0));
        // Five agreeing replicas but seconds not yet elapsed: continue.
        assert!(rule.another(&quiet[..5], 19.9));
        // Elapsed and the two quickest within 3 %: stop.
        assert!(!rule.another(&quiet[..5], 20.0));
        // Two quickest 5 % apart: up to three more, then stop regardless.
        let noisy = [100, 105, 110, 120, 130];
        let mut rule = ReplicaRule::new(20.0);
        assert!(rule.another(&noisy, 21.0));
        assert!(rule.another(&noisy, 25.0));
        assert!(rule.another(&noisy, 29.0));
        assert!(!rule.another(&noisy, 33.0));
        // An extra replica that agrees with the quickest ends it early.
        let mut rule = ReplicaRule::new(20.0);
        assert!(rule.another(&noisy, 21.0));
        assert!(!rule.another(&[100, 105, 110, 120, 130, 101], 25.0));
        // Never after 1.75 × seconds.
        let mut rule = ReplicaRule::new(20.0);
        assert!(!rule.another(&noisy, 35.0));
    }

    #[test]
    fn one_differing_fact_fails_the_run() {
        let facts = |digest: &str, queries: &str| {
            vec![
                ("telemetry_digest".to_string(), digest.to_string()),
                ("oram_kv".to_string(), queries.to_string()),
            ]
        };
        let same = vec![facts("ab", "10"), facts("ab", "10"), facts("ab", "10")];
        assert_eq!(disagreement(&same), None);
        let digest = vec![facts("ab", "10"), facts("ab", "10"), facts("ac", "10")];
        assert!(disagreement(&digest)
            .unwrap()
            .contains("replica 2 differs on telemetry_digest"));
        let queries = vec![facts("ab", "10"), facts("ab", "11")];
        assert!(disagreement(&queries).unwrap().contains("oram_kv"));
        let missing = vec![facts("ab", "10"), facts("ab", "10")[..1].to_vec()];
        assert!(disagreement(&missing).is_some());
    }

    #[test]
    fn a_stray_allocation_is_absorbed_and_a_real_difference_fails_the_run() {
        // What was seen: one replica in ~150 one allocation short.
        assert_eq!(
            near_exact(&[511_179, 511_178, 511_179, 511_179, 511_179], 0.01),
            Ok(511_179)
        );
        assert_eq!(near_exact(&[7, 7], 0.01), Ok(7));
        assert!(near_exact(&[100, 100, 100, 100, 103], 0.01).is_err());
        assert!(near_exact(&[97, 100, 100, 100, 100], 0.01).is_err());
        assert!(near_exact(&[], 0.01).is_err());
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn verdict_applies_spread_then_median() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2];
        let scaled = |f: f64| base.iter().map(|v| v * f).collect::<Vec<_>>();
        // lower is better
        assert_eq!(verdict(&base, &scaled(1.04), false, 0.05), Verdict::Ok);
        assert_eq!(
            verdict(&base, &scaled(1.06), false, 0.05),
            Verdict::Regressed
        );
        assert_eq!(verdict(&base, &scaled(0.5), false, 0.05), Verdict::Ok);
        // higher is better
        assert_eq!(
            verdict(&base, &scaled(0.94), true, 0.05),
            Verdict::Regressed
        );
        assert_eq!(verdict(&base, &scaled(1.5), true, 0.05), Verdict::Ok);
        // too few runs, or a set noisier than the bound
        assert_eq!(verdict(&base[..3], &base, false, 0.05), Verdict::Unresolved);
        let noisy = [100.0, 120.0, 80.0, 110.0, 90.0, 100.0];
        assert_eq!(verdict(&base, &noisy, false, 0.05), Verdict::Unresolved);
    }
}
