//! The parent side of a run: spawn replica processes one after the other,
//! require them to agree, reduce their timings to per-index minima, check
//! the receipts against the reference interpreter and compute the
//! end-to-end metrics.

use crate::estimator::{self, ReplicaRule};
use crate::replica::{Call, Plan, Report};
use crate::workloads::{self, Inputs, Receipt, Workload};
use std::process::{Command, Stdio};
use std::time::Instant;

/// A metric as printed: `(name, value, unit)`.
pub type Metric = (&'static str, f64, &'static str);

/// Inputs and reference receipts, with the untimed seconds they took.
pub struct Prepared {
    /// The generated inputs.
    pub inputs: Inputs,
    /// What `tape_evm::Evm` returns for every bundle.
    pub expected: Vec<Option<Receipt>>,
    /// Seconds spent generating and running the reference.
    pub gen_s: f64,
    /// Seconds of that spent in the reference interpreter.
    pub reference_s: f64,
}

/// Generates the inputs and runs the reference interpreter (untimed as
/// far as the metrics go; reported as `harness.gen_s`).
pub fn prepare(workload: Workload, seed: u64) -> Prepared {
    let started = Instant::now();
    let inputs = workloads::generate(workload, seed);
    let generated = started.elapsed().as_secs_f64();
    let expected = workloads::reference(&inputs);
    let gen_s = started.elapsed().as_secs_f64();
    Prepared {
        inputs,
        expected,
        gen_s,
        reference_s: gen_s - generated,
    }
}

/// Runs one replica of `plan` in a fresh child process of this binary.
pub fn spawn_replica(plan: &Plan) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .arg("--replica")
        .args(plan.to_args())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a replica: {e}"))?;
    if !output.status.success() {
        return Err(format!("replica exited with {}", output.status));
    }
    Report::parse(&String::from_utf8_lossy(&output.stdout))
        .ok_or_else(|| "replica printed an incomplete report".to_string())
}

/// The replicas of one plan, reduced.
pub struct Set {
    /// Every replica's report, in the order run.
    pub reports: Vec<Report>,
    /// Per-index minimum of every timed call.
    pub calls: Vec<(Call, u64)>,
    /// The allocator's tallies: the replicas' median (see
    /// [`Report::counts`]).
    counts: Vec<(String, u64)>,
}

/// How far from the median an allocator tally of a replica may lie.
const COUNT_TOLERANCE: f64 = 0.01;

impl Set {
    /// Reduces `reports`; fails unless they ran one schedule and agree on
    /// every exact fact.
    pub fn of(reports: Vec<Report>) -> Result<Set, String> {
        let first = reports.first().ok_or("no replica ran")?;
        let kinds: Vec<Call> = first.calls.iter().map(|c| c.0).collect();
        for (r, report) in reports.iter().enumerate() {
            if report.calls.iter().map(|c| c.0).ne(kinds.iter().copied()) {
                return Err(format!("replica {r} made a different sequence of calls"));
            }
        }
        let exact: Vec<_> = reports.iter().map(|r| r.exact.clone()).collect();
        if let Some(difference) = estimator::disagreement(&exact) {
            return Err(difference);
        }
        let rows: Vec<Vec<u64>> = reports
            .iter()
            .map(|r| r.calls.iter().map(|c| c.1).collect())
            .collect();
        let calls = kinds
            .into_iter()
            .zip(estimator::per_index_min(&rows))
            .collect();
        let mut counts = Vec::with_capacity(first.counts.len());
        for (i, (key, _)) in first.counts.iter().enumerate() {
            let values: Vec<u64> = reports
                .iter()
                .map(|r| r.counts.get(i).filter(|c| c.0 == *key).map(|c| c.1))
                .collect::<Option<_>>()
                .ok_or_else(|| format!("a replica does not report {key}"))?;
            let value = estimator::near_exact(&values, COUNT_TOLERANCE)
                .map_err(|why| format!("{key} is not steady: {why}"))?;
            if values.iter().any(|v| *v != value) {
                eprintln!("note: {key} reads {values:?} over the replicas; taking {value}");
            }
            counts.push((key.clone(), value));
        }
        Ok(Set {
            reports,
            calls,
            counts,
        })
    }

    /// An allocator tally (0 when absent).
    pub fn count(&self, key: &str) -> f64 {
        self.counts
            .iter()
            .find(|c| c.0 == key)
            .map_or(0.0, |c| c.1 as f64)
    }

    /// The exact facts (identical in every replica).
    pub fn facts(&self) -> &Report {
        &self.reports[0]
    }

    /// Minima of the calls of one kind, in schedule order.
    pub fn of_kind(&self, kind: Call) -> Vec<u64> {
        self.calls
            .iter()
            .filter(|c| c.0 == kind)
            .map(|c| c.1)
            .collect()
    }

    /// Σ minima of the set-up calls, nanoseconds.
    pub fn setup_ns(&self) -> u64 {
        self.calls
            .iter()
            .filter(|c| c.0.is_setup())
            .map(|c| c.1)
            .sum()
    }

    /// Σ minima of the measured phase, nanoseconds.
    pub fn measured_ns(&self) -> u64 {
        self.calls
            .iter()
            .filter(|c| !c.0.is_setup())
            .map(|c| c.1)
            .sum()
    }

    /// Each replica's own total, nanoseconds.
    pub fn replica_totals(&self) -> Vec<u64> {
        self.reports.iter().map(replica_total).collect()
    }

    /// Host latency of every bundle from the per-index minima: its
    /// `pre_execute`, or — through the gateway — from the start of its
    /// `submit` to the end of the round that completed it.
    pub fn bundle_host_ns(&self) -> Vec<u64> {
        let mut out = Vec::new();
        let mut pending: Vec<u64> = Vec::new();
        for &(call, ns) in &self.calls {
            match call {
                Call::Bundle => out.push(ns),
                Call::Submit => pending.push(ns),
                Call::Round => {
                    let mut rest: u64 = pending.iter().sum::<u64>() + ns;
                    for submit in pending.drain(..) {
                        out.push(rest);
                        rest -= submit;
                    }
                }
                _ => {}
            }
        }
        out
    }
}

fn replica_total(report: &Report) -> u64 {
    report.calls.iter().map(|c| c.1).sum()
}

/// Runs replicas of `plan` under the [`ReplicaRule`] for `seconds`.
pub fn measure(plan: &Plan, seconds: f64) -> Result<Set, String> {
    let started = Instant::now();
    let mut rule = ReplicaRule::new(seconds);
    let mut reports: Vec<Report> = Vec::new();
    loop {
        let totals: Vec<u64> = reports.iter().map(replica_total).collect();
        if !rule.another(&totals, started.elapsed().as_secs_f64()) {
            break;
        }
        reports.push(spawn_replica(plan)?);
    }
    Set::of(reports)
}

/// Bundles whose receipt differs from the reference in `success`,
/// `gas_used` or output (a bundle that did not complete differs).
pub fn mismatches(got: &[Option<Receipt>], expected: &[Option<Receipt>]) -> u64 {
    let differing = got
        .iter()
        .zip(expected)
        .filter(|(g, e)| g.is_none() || g != e)
        .count();
    (differing + got.len().abs_diff(expected.len())) as u64
}

/// Failed operations of a run: what the replica counted (errors,
/// rejections, sheds, refused blocks, a bad restart) plus receipts that
/// differ from the reference. A bundle counted for both is counted once.
pub fn failed_operations(set: &Set, prepared: &Prepared) -> u64 {
    let receipts = set.facts().receipts();
    let incomplete = receipts.iter().filter(|r| r.is_none()).count() as u64;
    set.facts().num("failed") as u64 - incomplete + mismatches(&receipts, &prepared.expected)
}

/// Why a run that completed must still be refused, if it must.
pub fn refusal(workload: Workload, set: &Set) -> Option<String> {
    let facts = set.facts();
    if facts.num("telemetry_dropped") != 0.0 {
        return Some(format!(
            "telemetry dropped {} events",
            facts.num("telemetry_dropped")
        ));
    }
    if workload.level().oram_code() && facts.fact("audit_passed") != Some("true") {
        return Some("the §IV-D audit failed on a -full workload".into());
    }
    None
}

/// The end-to-end metrics of a reduced set.
pub fn end_to_end(set: &Set) -> Result<Vec<Metric>, String> {
    let facts = set.facts();
    let bundles = facts.num("bundles");
    let mut virt = facts.list("virt_bundle_ns");
    virt.sort_unstable();
    let p50 = estimator::percentile(&virt, 50.0)?;
    let p95 = estimator::percentile(&virt, 95.0)?;
    const MIB: f64 = 1024.0 * 1024.0;
    Ok(vec![
        ("setup_s", set.setup_ns() as f64 / 1e9, "s"),
        (
            "host_bundles_per_s",
            bundles * 1e9 / set.measured_ns() as f64,
            "bundles/s",
        ),
        (
            "host_allocs_per_bundle",
            set.count("allocs_measured") / bundles,
            "count",
        ),
        (
            "host_alloc_kb_per_bundle",
            set.count("alloc_bytes_measured") / 1024.0 / bundles,
            "KiB",
        ),
        (
            "host_peak_heap_mb",
            set.count("peak_heap_bytes") / MIB,
            "MiB",
        ),
        ("virt_bundle_p50_ms", p50 as f64 / 1e6, "ms"),
        ("virt_bundle_p95_ms", p95 as f64 / 1e6, "ms"),
        (
            "virt_tps",
            facts.num("txs") * 1e9 / facts.num("virt_clock_ns"),
            "tx/s",
        ),
    ])
}

/// The result line: one JSON object with exactly the contract's keys.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn report(calls: &[(Call, u64)], digest: &str) -> Report {
        Report {
            calls: calls.to_vec(),
            rss_kb: 0,
            exact: vec![("telemetry_digest".into(), digest.into())],
            counts: vec![("allocs_measured".into(), 1000 + calls[0].1 % 2)],
        }
    }

    #[test]
    fn a_set_takes_per_index_minima_and_refuses_disagreement() {
        let a = report(
            &[(Call::Boot, 10), (Call::Submit, 5), (Call::Round, 50)],
            "d",
        );
        let b = report(
            &[(Call::Boot, 12), (Call::Submit, 3), (Call::Round, 40)],
            "d",
        );
        let set = Set::of(vec![a.clone(), b]).unwrap();
        assert_eq!(
            set.calls,
            vec![(Call::Boot, 10), (Call::Submit, 3), (Call::Round, 40)]
        );
        assert_eq!((set.setup_ns(), set.measured_ns()), (10, 43));
        assert_eq!(set.replica_totals(), vec![65, 55]);
        assert_eq!(
            set.count("allocs_measured"),
            1000.0,
            "1000 and 1001: the lower median"
        );

        let other_digest = report(&[(Call::Boot, 1), (Call::Submit, 1), (Call::Round, 1)], "e");
        assert!(Set::of(vec![a.clone(), other_digest]).is_err());
        let other_schedule = report(&[(Call::Boot, 1), (Call::Round, 1), (Call::Submit, 1)], "d");
        assert!(Set::of(vec![a, other_schedule]).is_err());
        assert!(Set::of(vec![]).is_err());
    }

    #[test]
    fn gateway_bundle_latency_runs_from_its_submit_to_the_round_end() {
        let calls = [
            (Call::Submit, 1),
            (Call::Submit, 2),
            (Call::Round, 10),
            (Call::Bundle, 7),
            (Call::Submit, 4),
            (Call::Round, 20),
        ];
        let set = Set::of(vec![report(&calls, "d")]).unwrap();
        assert_eq!(set.bundle_host_ns(), vec![13, 12, 7, 24]);
    }

    #[test]
    fn a_missing_or_wrong_receipt_is_a_mismatch() {
        let r = |gas| {
            Some(Receipt {
                success: true,
                gas_used: gas,
                output: Default::default(),
            })
        };
        assert_eq!(mismatches(&[r(1), r(2)], &[r(1), r(2)]), 0);
        assert_eq!(mismatches(&[r(1), r(3)], &[r(1), r(2)]), 1);
        assert_eq!(mismatches(&[r(1), None], &[r(1), r(2)]), 1);
        assert_eq!(mismatches(&[r(1)], &[r(1), r(2)]), 1);
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            true,
            221,
            0,
            &[("setup_s", 0.8127, "s"), ("x.y", 3.0, "count")],
        );
        assert!(!line.contains('\n'));
        let v = json::parse(&line).unwrap();
        let keys: Vec<&String> = v.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let setup = v.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(0.8127));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
    }
}
