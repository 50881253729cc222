//! The `BENCHMARK.json` harness for the HarDTAPE reproduction.
//!
//! ```text
//! hardtape-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out FILE]
//! hardtape-benchmark --compare A B
//! hardtape-benchmark --seed-check [--seed <n>] [--seconds <s>]
//! hardtape-benchmark --print-benchmark-json
//! ```
//!
//! The program under test is timed from outside, through its public
//! functions only; nothing in the repository changes for it. See
//! `benchmark/README.md` for the protocol and the metric catalogue.

mod alloc;
mod compare;
mod estimator;
mod json;
mod layers;
mod metrics;
mod replica;
mod run;
mod trace;
mod workloads;

use std::io::Write;
use std::process::ExitCode;
use workloads::Workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: hardtape-benchmark --workload <name> --seed <n> --seconds <s> \
                     --trace <0|1> [--out FILE] | --compare A B | --seed-check [--seed <n>] \
                     [--seconds <s>] | --print-benchmark-json";

struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    seed_check: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        out: None,
        seed_check: false,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        if flag == "--seed-check" {
            options.seed_check = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => options.workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => options.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                options.seconds = value.parse().ok().filter(|s| *s > 0.0).ok_or_else(bad)?;
            }
            "--trace" => {
                options.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => options.out = Some(value.clone()),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(options)
}

/// One run of one workload: prints the result line last on stdout.
fn run_workload(workload: Workload, options: &Options) -> Result<(), String> {
    let prepared = run::prepare(workload, options.seed);
    let (set, metrics) = if options.trace {
        layers::traced(workload, options.seed, &prepared)?
    } else {
        let set = run::measure(
            &replica::Plan::measured(workload, options.seed),
            options.seconds,
        )?;
        let metrics = run::end_to_end(&set)?;
        (set, metrics)
    };
    if let Some(why) = run::refusal(workload, &set) {
        return Err(why);
    }
    let attempted = prepared.inputs.attempted() as u64;
    let failed = run::failed_operations(&set, &prepared);
    eprintln!(
        "{} seed {}: {} replicas, set-up {:.3} s, measured phase {:.3} s, inputs {:.3} s",
        workload.name(),
        options.seed,
        set.reports.len(),
        set.setup_ns() as f64 / 1e9,
        set.measured_ns() as f64 / 1e9,
        prepared.gen_s
    );
    let line = run::result_line(failed == 0, attempted, failed, &metrics);
    if let Some(path) = &options.out {
        let record = compare::record_line(workload, options.seed, options.trace, &line);
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open {path}: {e}"))?;
        writeln!(file, "{record}").map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    println!("{line}");
    Ok(())
}

fn compare_files(first: &str, second: &str) -> Result<bool, String> {
    let read = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        compare::parse_records(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (table, regressed) = compare::compare(&read(first)?, &read(second)?);
    print!("{table}");
    Ok(regressed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("--replica") => match replica::Plan::from_args(&args[1..]) {
            Some(plan) => {
                print!("{}", replica::run(&plan).print());
                Ok(true)
            }
            None => Err(format!("bad replica arguments\n{USAGE}")),
        },
        Some("--print-benchmark-json") => {
            print!("{}", metrics::benchmark_json());
            Ok(true)
        }
        Some("--compare") => match &args[1..] {
            [first, second] => compare_files(first, second).map(|regressed| !regressed),
            _ => Err(format!("--compare takes two files\n{USAGE}")),
        },
        _ => parse_options(&args).and_then(|options| {
            if options.seed_check {
                let problems = compare::run_seed_check(options.seed, options.seconds)?;
                problems.iter().for_each(|p| println!("seed check: {p}"));
                println!(
                    "seed check: {}",
                    if problems.is_empty() { "ok" } else { "FAILED" }
                );
                return Ok(problems.is_empty());
            }
            let workload = options.workload.ok_or(format!("no --workload\n{USAGE}"))?;
            run_workload(workload, &options).map(|()| true)
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("hardtape-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}
