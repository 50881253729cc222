//! # tape-bench
//!
//! The virtual-time evaluation harness: the dispatcher behind the
//! `repro` binary, whose experiments regenerate every table and figure
//! of the paper (`repro list` names them), and the plumbing those
//! experiments share. Nothing here reads a host clock — every number an
//! experiment prints or writes is a pure function of the code, which is
//! why the checked-in `BENCH_*.json` reports are compared byte for byte.
//! Host time is measured from outside, by `benchmark/`.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod recursive;

use tape_evm::{FrameStart, Inspector, StateAccess, StepInfo};
use tape_sim::fault::Ablation;
use tape_sim::{Clock, CostModel};

/// How an experiment ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Every check held; the payload names the shape that was matched.
    Reproduced(&'static str),
    /// A check failed; the payload says which.
    Drifted(String),
    /// A design-space study with no published figure to match.
    Informational,
}

impl Verdict {
    /// `Reproduced(shape)` when `holds`, otherwise `Drifted` naming the
    /// shape that was expected.
    pub fn check(holds: bool, shape: &'static str) -> Verdict {
        if holds {
            Verdict::Reproduced(shape)
        } else {
            Verdict::Drifted(format!("expected: {shape}"))
        }
    }
}

/// How the dispatcher invokes an experiment.
pub enum Run {
    /// Prints a table or figure. Takes no flags; `repro all` runs these.
    Figure(fn() -> Verdict),
    /// Writes a JSON report to `--out` (default `default_out`),
    /// optionally under one of the `--ablation` names it accepts.
    Report {
        /// Where the report goes without `--out`.
        default_out: &'static str,
        /// Accepted `--ablation` names.
        ablations: &'static [(&'static str, Ablation)],
        /// The experiment: `(out path, ablation)`.
        run: fn(&str, Option<Ablation>) -> Verdict,
    },
}

/// One row of the dispatch table.
pub struct Experiment {
    /// The subcommand.
    pub name: &'static str,
    /// One line for `repro list`.
    pub about: &'static str,
    /// How to run it.
    pub run: Run,
}

/// Prints the verdict line and maps it to an exit status.
fn conclude(verdict: Verdict) -> u8 {
    match verdict {
        Verdict::Reproduced(shape) => println!("\nShape: REPRODUCED ({shape})"),
        Verdict::Informational => println!("\nShape: not judged (design-space study)"),
        Verdict::Drifted(why) => {
            println!("\nShape: DRIFTED ({why})");
            return 1;
        }
    }
    0
}

/// `repro list | all | <experiment> [--out PATH] [--ablation NAME]` over
/// `table`. Returns the process exit status: 0 when every experiment run
/// reproduced, 1 when any drifted, 2 on a usage error.
pub fn dispatch(table: &[Experiment], args: &[String]) -> u8 {
    let usage = |problem: &str| {
        eprintln!("{problem}");
        eprintln!("usage: repro list | all | <experiment> [--out PATH] [--ablation NAME]");
        2
    };
    let Some((command, flags)) = args.split_first() else {
        return usage("no command given");
    };
    let experiment = match command.as_str() {
        "list" | "all" if !flags.is_empty() => return usage("list and all take no flags"),
        "list" => {
            for e in table {
                println!("{:<16} {}", e.name, e.about);
            }
            return 0;
        }
        "all" => {
            let mut status = 0;
            for e in table {
                if let Run::Figure(run) = e.run {
                    println!("==> {}", e.name);
                    status |= conclude(run());
                    println!();
                }
            }
            return status;
        }
        name => match table.iter().find(|e| e.name == name) {
            Some(e) => e,
            None => return usage(&format!("unknown experiment {name:?} (try `repro list`)")),
        },
    };
    match experiment.run {
        Run::Figure(_) if !flags.is_empty() => usage("this experiment takes no flags"),
        Run::Figure(run) => conclude(run()),
        Run::Report { default_out, ablations, run } => {
            let mut out = default_out;
            let mut ablation = None;
            for pair in flags.chunks(2) {
                match pair {
                    [flag, path] if flag == "--out" => out = path,
                    [flag, name] if flag == "--ablation" => {
                        match ablations.iter().find(|(known, _)| known == name) {
                            Some((_, value)) => ablation = Some(*value),
                            None => {
                                let known: Vec<_> = ablations.iter().map(|(n, _)| *n).collect();
                                return usage(&format!("--ablation takes one of {known:?}"));
                            }
                        }
                    }
                    _ => return usage(&format!("unexpected arguments {pair:?}")),
                }
            }
            conclude(run(out, ablation))
        }
    }
}

/// An [`Inspector`] that charges the *Geth software baseline* cost model
/// to a virtual clock — the "Geth" series of Figures 4 and 5.
#[derive(Debug)]
pub struct GethTimer {
    clock: Clock,
    cost: CostModel,
}

impl GethTimer {
    /// Creates a timer charging `clock`.
    pub fn new(clock: Clock, cost: CostModel) -> Self {
        GethTimer { clock, cost }
    }

    /// The underlying clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Adds the fixed per-transaction overhead (RPC handling, setup).
    pub fn charge_tx_overhead(&self) {
        self.clock.advance(self.cost.geth_tx_overhead_ns);
    }
}

impl Inspector for GethTimer {
    fn step(&mut self, step: &StepInfo<'_>) {
        self.clock.advance(self.cost.geth_instruction_ns(step.opcode));
    }

    fn call_start(&mut self, frame: &FrameStart) {
        // Geth allocates an interpreter + EVM object per contract frame;
        // plain value transfers skip it.
        if frame.code_len > 0 {
            self.clock.advance(self.cost.geth_frame_setup_ns);
        }
    }

    fn state_access(&mut self, access: &StateAccess) {
        match access {
            StateAccess::Account(_) | StateAccess::StorageRead(..) | StateAccess::Code(..) => {
                self.clock.advance(self.cost.geth_state_access_ns);
            }
            StateAccess::StorageWrite(..) => {}
        }
    }
}

/// Evaluation-set scale from the `TAPE_EVAL_SCALE` environment variable:
/// `full` (100×200, the paper's size), `medium` (20×50), anything else /
/// unset → `small` (8×25). All sizes use the same generator seed.
pub fn eval_config() -> tape_workload::EvalSetConfig {
    let scale = std::env::var("TAPE_EVAL_SCALE").unwrap_or_default();
    match scale.as_str() {
        "full" => tape_workload::EvalSetConfig::default(),
        "medium" => tape_workload::EvalSetConfig {
            blocks: 20,
            txs_per_block: 50,
            ..tape_workload::EvalSetConfig::default()
        },
        _ => tape_workload::EvalSetConfig {
            blocks: 8,
            txs_per_block: 25,
            ..tape_workload::EvalSetConfig::default()
        },
    }
}

/// Pretty-prints a virtual-nanosecond mean as milliseconds.
pub fn ms(ns: f64) -> String {
    format!("{:8.2} ms", ns / 1e6)
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Minimal JSON string escape (the only dynamic strings are digests and
/// violation messages — no exotic code points expected, but stay safe).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tape_evm::{Env, Evm, Transaction};
    use tape_primitives::{Address, U256};
    use tape_state::{Account, InMemoryState};

    #[test]
    fn geth_timer_charges_per_step() {
        let mut state = InMemoryState::new();
        let sender = Address::from_low_u64(1);
        state.put_account(sender, Account::with_balance(U256::from(u64::MAX)));
        let target = Address::from_low_u64(0xC0);
        state.put_account(
            target,
            Account::with_code(vec![0x60, 0x01, 0x60, 0x02, 0x01, 0x00]), // PUSH PUSH ADD STOP
        );
        let clock = Clock::new();
        let timer = GethTimer::new(clock.clone(), CostModel::default());
        let mut evm = Evm::with_inspector(Env::default(), &state, timer);
        evm.transact(&Transaction::call(sender, target, vec![])).unwrap();
        assert!(clock.now() > 0);
        assert!(clock.now() < 1_000_000); // far below a millisecond
    }

    #[test]
    fn scale_parsing_defaults_small() {
        let config = eval_config();
        assert!(config.blocks <= 100);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 99.0), 0);
        let sorted: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&sorted, 50.0), 5);
        assert_eq!(percentile(&sorted, 99.0), 10);
        assert_eq!(percentile(&sorted, 0.0), 1);
    }

    #[test]
    fn json_escape_covers_quotes_and_controls() {
        assert_eq!(json_escape("a\"b\\c\n\u{1}"), "a\\\"b\\\\c\\n\\u0001");
    }

    fn stub(name: &'static str, run: fn() -> Verdict) -> Experiment {
        Experiment { name, about: "stub", run: Run::Figure(run) }
    }

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn a_drifted_experiment_fails_the_run() {
        let table = [
            stub("good", || Verdict::Reproduced("stub shape")),
            stub("bad", || Verdict::check(false, "stub shape")),
            stub("study", || Verdict::Informational),
        ];
        assert_eq!(dispatch(&table, &args(&["good"])), 0);
        assert_eq!(dispatch(&table, &args(&["study"])), 0);
        assert_eq!(dispatch(&table, &args(&["bad"])), 1);
        assert_eq!(dispatch(&table, &args(&["all"])), 1, "one DRIFTED fails `all`");
        assert_eq!(dispatch(&table[..1], &args(&["all"])), 0);
    }

    #[test]
    fn reports_take_out_and_a_known_ablation_only() {
        fn run(out: &str, ablation: Option<Ablation>) -> Verdict {
            Verdict::check(out == "x.json" && ablation == Some(Ablation::Starve), "flags arrive")
        }
        let table = [Experiment {
            name: "report",
            about: "stub",
            run: Run::Report {
                default_out: "default.json",
                ablations: &[("starve", Ablation::Starve)],
                run,
            },
        }];
        let ok = ["report", "--ablation", "starve", "--out", "x.json"];
        assert_eq!(dispatch(&table, &args(&ok)), 0);
        assert_eq!(dispatch(&table, &args(&["report"])), 1, "defaults reach the experiment");
        assert_eq!(dispatch(&table, &args(&["report", "--ablation", "omit-plan"])), 2);
        assert_eq!(dispatch(&table, &args(&["report", "--out"])), 2);
        assert_eq!(dispatch(&table, &args(&["all"])), 0, "`all` runs figures only");
    }

    #[test]
    fn usage_errors_exit_2() {
        let table = [stub("good", || Verdict::Reproduced("stub shape"))];
        assert_eq!(dispatch(&table, &[]), 2);
        assert_eq!(dispatch(&table, &args(&["nope"])), 2);
        assert_eq!(dispatch(&table, &args(&["good", "--out", "x"])), 2);
        assert_eq!(dispatch(&table, &args(&["list", "extra"])), 2);
        assert_eq!(dispatch(&table, &args(&["list"])), 0);
    }
}
