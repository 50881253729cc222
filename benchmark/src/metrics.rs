//! The metric and workload catalogue: the single source `BENCHMARK.json`
//! is rendered from (`--print-benchmark-json`) and checked against.

use crate::json;
use crate::workloads::Workload;

/// An end-to-end metric: reported on every workload, bounded.
pub struct EndToEnd {
    /// Name in the result line.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub higher_is_better: bool,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
}

/// Every end-to-end metric. Host time is exactly `setup_s` and
/// `host_bundles_per_s` (bound 0.25: the planned gains are 1.5–3×);
/// everything else repeats exactly for a seed and gates small regressions
/// with a bound of three times the widest seed-to-seed quartile spread
/// measured (two ten-seed sets and one sixteen-seed sweep, see
/// `benchmark/README.md`), rounded up, at least 0.005 and at most 0.05.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "host_bundles_per_s",
        unit: "bundles/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "host_allocs_per_bundle",
        unit: "count",
        higher_is_better: false,
        bound: 0.02,
    },
    EndToEnd {
        name: "host_alloc_kb_per_bundle",
        unit: "KiB",
        higher_is_better: false,
        bound: 0.03,
    },
    EndToEnd {
        name: "host_peak_heap_mb",
        unit: "MiB",
        higher_is_better: false,
        bound: 0.04,
    },
    EndToEnd {
        name: "virt_bundle_p50_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.005,
    },
    EndToEnd {
        name: "virt_bundle_p95_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.005,
    },
    EndToEnd {
        name: "virt_tps",
        unit: "tx/s",
        higher_is_better: true,
        bound: 0.005,
    },
];

/// A per-layer metric: `(name, unit, higher_is_better)`. Reported by the
/// traced run, unbounded; 0 where a workload does not use the layer.
pub const PER_LAYER: [(&str, &str, bool); 78] = [
    // host: the unbounded siblings of host_bundles_per_s
    ("host.bundle_p50_us", "us", false),
    ("host.bundle_p95_us", "us", false),
    ("host.peak_rss_mb", "MiB", false),
    ("host.sync_ms_per_block", "ms", false),
    ("virt.sync_ms_per_block", "ms", false),
    // core.gateway
    ("gateway.submit_us_p50", "us", false),
    ("gateway.round_us_p50", "us", false),
    ("gateway.rounds", "count", false),
    ("gateway.admitted", "count", true),
    ("gateway.rejected", "count", false),
    ("gateway.shed", "count", false),
    ("gateway.preempted", "count", false),
    ("gateway.overhead_ratio", "ratio", false),
    ("gateway.allocs_per_bundle", "count", false),
    ("gateway.speedup_2w_x100", "x100", true),
    // core.service
    ("service.raw_host_us_per_bundle", "us", false),
    ("service.raw_virt_us_per_bundle", "us", false),
    ("service.connect_us", "us", false),
    ("service.virt_chip_tps", "tx/s", true),
    // tee
    ("tee.channel_host_us_per_bundle", "us", false),
    ("tee.channel_virt_us_per_bundle", "us", false),
    ("tee.sign_host_us_per_bundle", "us", false),
    ("tee.sign_virt_us_per_bundle", "us", false),
    // crypto
    ("crypto.aes_gcm_seal_1k_ns", "ns", false),
    ("crypto.aes_gcm_open_1k_ns", "ns", false),
    ("crypto.ecdsa_sign_us", "us", false),
    ("crypto.ecdsa_verify_us", "us", false),
    ("crypto.keccak_1k_ns", "ns", false),
    // primitives
    ("primitives.u256_mul_ns", "ns", false),
    ("primitives.u256_div_ns", "ns", false),
    ("primitives.u256_mulmod_ns", "ns", false),
    ("primitives.u256_exp_ns", "ns", false),
    // hevm
    ("hevm.instructions_per_bundle", "count", false),
    ("hevm.swaps_per_bundle", "count", false),
    ("hevm.l1_misses_per_bundle", "count", false),
    ("hevm.host_ns_per_instr", "ns", false),
    ("hevm.virt_ns_per_instr", "ns", false),
    ("hevm.allocs_per_tx", "count", false),
    // evm (the oracle)
    ("evm.host_ns_per_instr", "ns", false),
    ("evm.mismatches", "count", false),
    // analysis
    ("analysis.cold_us_per_contract", "us", false),
    ("analysis.contracts", "count", true),
    ("analysis.resolved_jump_ratio_x100", "x100", true),
    // oram
    ("oram.queries_per_bundle", "count", false),
    ("oram.kv_queries_per_bundle", "count", false),
    ("oram.code_queries_per_bundle", "count", false),
    ("oram.prefetch_queries", "count", false),
    ("oram.kv_host_us_per_bundle", "us", false),
    ("oram.code_host_us_per_bundle", "us", false),
    ("oram.host_us_per_query", "us", false),
    ("oram.virt_us_per_query", "us", false),
    ("oram.access_us", "us", false),
    ("oram.blocks_per_access", "count", false),
    ("oram.allocs_per_access", "count", false),
    ("oram.alloc_kb_per_access", "KiB", false),
    ("oram.stash_peak", "count", false),
    ("oram.sync_host_us_per_page", "us", false),
    // oram.store
    ("store.disk_host_us_per_query", "us", false),
    ("store.disk_writes_per_query", "count", false),
    ("store.fsyncs_per_query", "count", false),
    ("store.bytes_on_disk_mb", "MiB", false),
    ("store.recover_s", "s", false),
    ("store.recovery_replays", "count", false),
    // node + mpt + state
    ("node.delta_verify_us_per_account", "us", false),
    ("node.accounts_per_block", "count", false),
    ("sync.oram_writes_per_block", "count", false),
    ("mpt.proof_verify_us", "us", false),
    // sim.telemetry
    ("telemetry.events", "count", false),
    ("telemetry.dropped", "count", false),
    ("telemetry.audit_passed", "count", true),
    ("telemetry.digest_match", "count", true),
    // ladder / harness
    ("ladder.host_share_raw_x100", "x100", false),
    ("ladder.host_share_oram_x100", "x100", false),
    ("ledger.unattributed_ratio", "ratio", false),
    ("harness.replicas", "count", true),
    ("harness.replica_spread_x100", "x100", false),
    ("harness.gen_s", "s", false),
    ("harness.trace_overhead_ratio", "ratio", false),
];

/// Why each workload exists (one line, at most 200 characters).
pub fn why(workload: Workload) -> &'static str {
    match workload {
        Workload::MainnetFullGw => {
            "Table-I mix through the gateway at -full, in-memory ORAM: path re-encryption is \
             ~3/4 of host time, so AES/GHASH, ns/ORAM-query and allocation-per-access work show here"
        }
        Workload::ComputeEs => {
            "bounded loops, memory, deep calls and computed jumps, direct pre_execute at -ES: \
             interpreter, U256 and pager, zero ORAM queries; predicts no change for ORAM/AES/disk work"
        }
        Workload::TransfersEsGw => {
            "short ETH and ERC-20 transfers through the gateway at -ES: ECDSA, channel AES-GCM, \
             gateway and telemetry fixed costs dominate; predicts no change for ORAM and interpreter work"
        }
        Workload::SyncDiskFull => {
            "proven block sync, reads of the synced accounts and a warm restart on a disk-backed \
             -full device: ORAM and crypto used for writes and durability beside reads"
        }
    }
}

/// Seconds one run measures (`run_seconds`).
pub const RUN_SECONDS: u64 = 20;

/// Renders `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let better = |higher: bool| if higher { "higher" } else { "lower" };
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in Workload::ALL.into_iter().enumerate() {
        let sep = if i + 1 == Workload::ALL.len() {
            ""
        } else {
            ","
        };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}\n",
            w.name(),
            json::escape(why(w))
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}\n",
            m.name,
            m.unit,
            better(m.higher_is_better),
            m.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, higher)) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}{sep}\n",
            better(*higher)
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn catalogue_is_within_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let unique: std::collections::BTreeSet<&&str> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used once");
        assert!(END_TO_END
            .iter()
            .all(|m| valid_unit(m.unit) && m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| valid_unit(m.1)));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!(Workload::ALL
            .iter()
            .all(|w| why(*w).len() <= 200 && !why(*w).contains('\n')));
    }

    #[test]
    fn rendered_benchmark_json_parses_and_matches_the_committed_file() {
        let rendered = benchmark_json();
        assert!(rendered.len() < 64 * 1024);
        let v = json::parse(&rendered).expect("valid JSON");
        let keys: Vec<&String> = v.as_object().unwrap().keys().collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        if let Ok(text) = std::fs::read_to_string(committed) {
            assert_eq!(text, rendered, "regenerate with --print-benchmark-json");
        }
    }
}
