//! `repro list | all | <experiment> [--out PATH] [--ablation NAME]` —
//! regenerates the paper's evaluation on the deterministic virtual
//! clock. The table below is the only list of experiments: `list`
//! prints it, `all` runs its figures and exits non-zero if any of them
//! drifted from the paper's shape.
//!
//! Scale follows `TAPE_EVAL_SCALE` (small unless set).

mod ablation_oram;
mod ablation_pager;
mod correctness;
mod fig4;
mod fig5;
mod fleet;
mod pre_execute;
mod prefetch_gaps;
mod resources;
mod scalability;
mod table1;

use tape_bench::{Experiment, Run};

const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "table1",
        about: "Table I: frame memory sizes, storage records and call depth, measured",
        run: Run::Figure(table1::run),
    },
    Experiment {
        name: "resources",
        about: "§VI-A: per-HEVM LUT/FF/BRAM, 3 HEVMs per chip, Hypervisor fits the OCM",
        run: Run::Figure(resources::run),
    },
    Experiment {
        name: "correctness",
        about: "§VI-B: HEVM traces identical to the reference EVM, step for step",
        run: Run::Figure(correctness::run),
    },
    Experiment {
        name: "fig4",
        about: "Fig. 4: end-to-end time per transaction, Geth and -raw … -full",
        run: Run::Figure(fig4::run),
    },
    Experiment {
        name: "fig5",
        about: "Fig. 5: time per warm local operation, Geth vs TSC-VEE vs HarDTAPE",
        run: Run::Figure(fig5::run),
    },
    Experiment {
        name: "scalability",
        about: "§VI-D: chip throughput vs Mainnet, HEVMs one ORAM server sustains",
        run: Run::Figure(scalability::run),
    },
    Experiment {
        name: "prefetch-gaps",
        about: "§IV-D: pagewise code prefetch evens out the adversary-visible query gaps",
        run: Run::Figure(prefetch_gaps::run),
    },
    Experiment {
        name: "ablation-oram",
        about: "§IV-D design space: tree height, block size, recursive position map",
        run: Run::Figure(ablation_oram::run),
    },
    Experiment {
        name: "ablation-pager",
        about: "§IV-B / A5: layer-3 swap noise vs what an adversary infers of frame sizes",
        run: Run::Figure(ablation_pager::run),
    },
    Experiment {
        name: "pre-execute",
        about: "-full latency, ORAM traffic, §IV-D audit, gas-bomb tail → BENCH_pre_execute.json",
        run: Run::Report {
            default_out: "BENCH_pre_execute.json",
            ablations: pre_execute::ABLATIONS,
            run: pre_execute::run,
        },
    },
    Experiment {
        name: "fleet",
        about: "K-device scaling, shard fairness, kill-one-device curve → BENCH_fleet.json",
        run: Run::Report {
            default_out: "BENCH_fleet.json",
            ablations: &[],
            run: |out, _none_accepted| fleet::run(out),
        },
    },
];

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    tape_bench::dispatch(EXPERIMENTS, &args).into()
}
