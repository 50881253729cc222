//! `--compare A B`: the contract's own rule applied to two sets of runs,
//! and `--seed-check`: that the seed really reaches every number.
//!
//! A set is a file of run records, one JSON object a line, as `--out`
//! appends them (`benchmark/run.sh` collects a set).

use crate::estimator::{self, Verdict};
use crate::json::{self, Value};
use crate::metrics::END_TO_END;
use crate::replica::Plan;
use crate::run;
use crate::workloads::Workload;
use std::collections::BTreeMap;

/// One end-to-end run, as `--out` recorded it.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Failed operations.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// The record line `--out` appends for a run's result line.
pub fn record_line(workload: Workload, seed: u64, trace: bool, result_line: &str) -> String {
    format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"trace\": {}, \"result\": {result_line}}}",
        workload.name(),
        u8::from(trace)
    )
}

/// Parses the untraced records of a set.
pub fn parse_records(text: &str) -> Result<Vec<Record>, String> {
    let mut records = Vec::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let field = |key: &str| v.get(key).ok_or(format!("line {}: no \"{key}\"", n + 1));
        if field("trace")?.as_f64() != Some(0.0) {
            continue;
        }
        let result = field("result")?;
        let metrics = result
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or(format!("line {}: no metrics", n + 1))?
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect();
        records.push(Record {
            workload: field("workload")?.as_str().unwrap_or_default().to_string(),
            seed: field("seed")?.as_f64().unwrap_or(0.0) as u64,
            failed: result.get("failed").and_then(Value::as_f64).unwrap_or(0.0) as u64,
            metrics,
        });
    }
    Ok(records)
}

fn values(records: &[Record], workload: &str, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

/// Compares two sets workload by workload, metric by metric. Returns the
/// table and whether anything regressed.
pub fn compare(first: &[Record], second: &[Record]) -> (String, bool) {
    let mut table = format!(
        "{:<16} {:<25} {:>3} {:>14} {:>7} {:>3} {:>14} {:>7} {:>8} {:>6}  verdict\n",
        "workload",
        "metric",
        "n",
        "median A",
        "iqr/med",
        "n",
        "median B",
        "iqr/med",
        "worse by",
        "bound"
    );
    let mut regressed = false;
    for workload in Workload::ALL {
        for metric in &END_TO_END {
            let (a, b) = (
                values(first, workload.name(), metric.name),
                values(second, workload.name(), metric.name),
            );
            let verdict = estimator::verdict(&a, &b, metric.higher_is_better, metric.bound);
            regressed |= verdict == Verdict::Regressed;
            let describe = |v: &[f64]| match v.len() {
                0 => ("-".to_string(), "-".to_string()),
                1 => (format!("{:.6}", v[0]), "-".to_string()),
                _ => (
                    format!("{:.6}", estimator::median(v)),
                    format!("{:.2}%", 100.0 * estimator::quartile_spread(v)),
                ),
            };
            let ((median_a, spread_a), (median_b, spread_b)) = (describe(&a), describe(&b));
            let worse = if a.is_empty() || b.is_empty() {
                "-".to_string()
            } else {
                let by = estimator::worsening(
                    estimator::median(&a),
                    estimator::median(&b),
                    metric.higher_is_better,
                );
                format!("{:+.2}%", 100.0 * by)
            };
            table.push_str(&format!(
                "{:<16} {:<25} {:>3} {:>14} {:>7} {:>3} {:>14} {:>7} {:>8} {:>5.1}%  {}\n",
                workload.name(),
                metric.name,
                a.len(),
                median_a,
                spread_a,
                b.len(),
                median_b,
                spread_b,
                worse,
                100.0 * metric.bound,
                verdict.label()
            ));
        }
    }
    let failed: u64 = first.iter().chain(second).map(|r| r.failed).sum();
    table.push_str(&format!("failed operations over both sets: {failed}\n"));
    (table, regressed)
}

/// What one seed of one workload gave, for the seed check.
pub struct SeedRun {
    /// Telemetry digest of the run.
    pub digest: String,
    /// End-to-end metrics.
    pub metrics: Vec<run::Metric>,
}

/// Why two seeds of one workload do not pass the seed check, if so: the
/// digests must differ, every end-to-end *time* must differ, and every
/// end-to-end metric must stay within its bound between the two.
pub fn seed_check(workload: Workload, a: &SeedRun, b: &SeedRun) -> Vec<String> {
    let mut problems = Vec::new();
    if a.digest == b.digest {
        problems.push(format!(
            "{}: both seeds give one telemetry digest",
            workload.name()
        ));
    }
    for (metric, ((name, va, unit), (_, vb, _))) in
        END_TO_END.iter().zip(a.metrics.iter().zip(&b.metrics))
    {
        assert_eq!(metric.name, *name, "metrics in catalogue order");
        let is_time = matches!(*unit, "s" | "ms");
        if is_time && va == vb {
            problems.push(format!(
                "{}: {name} reads {va} {unit} on both seeds",
                workload.name()
            ));
        }
        let apart = estimator::worsening(*va, *vb, metric.higher_is_better).abs();
        if apart > metric.bound {
            problems.push(format!(
                "{}: {name} moves {:.1}% between seeds (bound {:.1}%)",
                workload.name(),
                100.0 * apart,
                100.0 * metric.bound
            ));
        }
    }
    problems
}

/// Runs every workload on `seed` and `seed + 1` and applies
/// [`seed_check`]; prints a table, returns the problems.
pub fn run_seed_check(seed: u64, seconds: f64) -> Result<Vec<String>, String> {
    let mut problems = Vec::new();
    for workload in Workload::ALL {
        let mut runs = Vec::new();
        for seed in [seed, seed + 1] {
            let set = run::measure(&Plan::measured(workload, seed), seconds)?;
            let digest = set
                .facts()
                .fact("telemetry_digest")
                .unwrap_or_default()
                .to_string();
            runs.push(SeedRun {
                digest,
                metrics: run::end_to_end(&set)?,
            });
        }
        for ((name, a, unit), (_, b, _)) in runs[0].metrics.iter().zip(&runs[1].metrics) {
            println!(
                "{:<16} {name:<25} {a:>16.6} {b:>16.6} {unit}",
                workload.name()
            );
        }
        problems.extend(seed_check(workload, &runs[0], &runs[1]));
    }
    Ok(problems)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(scale: f64) -> Vec<Record> {
        let mut records = Vec::new();
        for workload in Workload::ALL {
            for seed in 0..6u64 {
                let wobble = 1.0 + seed as f64 / 1000.0;
                let metrics = END_TO_END
                    .iter()
                    .map(|m| {
                        let scale = if m.name == "host_bundles_per_s" {
                            scale
                        } else {
                            1.0
                        };
                        (m.name.to_string(), 100.0 * wobble * scale)
                    })
                    .collect();
                records.push(Record {
                    workload: workload.name().into(),
                    seed,
                    failed: 0,
                    metrics,
                });
            }
        }
        records
    }

    #[test]
    fn compare_flags_only_a_worsening_beyond_the_bound() {
        let (table, regressed) = compare(&set(1.0), &set(0.9));
        assert!(!regressed, "{table}");
        let (table, regressed) = compare(&set(1.0), &set(0.7));
        assert!(regressed);
        assert_eq!(
            table.matches("regressed").count(),
            4,
            "one metric on four workloads\n{table}"
        );
        let (_, regressed) = compare(&set(0.7), &set(1.0));
        assert!(!regressed, "an improvement is not a regression");
        let (table, regressed) = compare(&set(1.0)[..3], &set(1.0));
        assert!(!regressed && table.contains("unresolved"));
    }

    #[test]
    fn records_round_trip_and_traced_runs_are_skipped() {
        let line = run::result_line(true, 221, 0, &[("setup_s", 0.5, "s")]);
        let text = format!(
            "{}\n{}\n",
            record_line(Workload::ComputeEs, 7, false, &line),
            record_line(Workload::ComputeEs, 7, true, &line)
        );
        let records = parse_records(&text).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(
            (records[0].workload.as_str(), records[0].seed),
            ("compute_es", 7)
        );
        assert_eq!(records[0].metrics["setup_s"], 0.5);
        assert!(parse_records("{not json}\n").is_err());
    }

    #[test]
    fn seed_check_wants_new_digest_new_times_and_bounded_moves() {
        let run = |digest: &str, f: f64| SeedRun {
            digest: digest.into(),
            metrics: END_TO_END
                .iter()
                .map(|m| (m.name, 10.0 * f, m.unit))
                .collect(),
        };
        assert!(seed_check(Workload::ComputeEs, &run("a", 1.0), &run("b", 1.001)).is_empty());
        let same = seed_check(Workload::ComputeEs, &run("a", 1.0), &run("a", 1.0));
        // one digest + the three times (setup_s, p50, p95) read the same
        assert_eq!(same.len(), 4, "{same:?}");
        let far = seed_check(Workload::ComputeEs, &run("a", 1.0), &run("b", 1.1));
        assert_eq!(far.len(), 6, "every exact metric moved 10 %: {far:?}");
    }
}
