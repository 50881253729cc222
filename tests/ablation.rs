//! ORAM-layer negative controls (§IV-D): each ablation of the cover
//! traffic on a `-full` device must FAIL the leakage audit with its own
//! `Violation` variant, while the un-ablated twin passes.

use hardtape::{Bundle, HarDTape, SecurityConfig, ServiceConfig};
use tape_sim::fault::Ablation;
use tape_sim::telemetry::audit::{AuditReport, Violation};
use tape_workload::{EvalSet, EvalSetConfig};

/// keccak of the report's `Debug` form: every violation, in order, and
/// every statistic. Recorded on the batch auditor; the live one must
/// reproduce it byte for byte.
fn report_digest(report: &AuditReport) -> String {
    tape_crypto::keccak256(format!("{report:?}").as_bytes()).to_string()
}

/// The clean run's report, then the three ablations' in table order.
const REPORT_DIGESTS: [&str; 4] = [
    "0x9a6517340627bca61371e064b119fcc5c0c581eee1dd64f3abbd0043c677ea95",
    "0x789572aceae5071aa270e39068808f728cbee8b8f039f75dbeea9582a6cc7ba2",
    "0x9ade729bdd0b928a9de175dd414763a621056b5f3749b55edfdd5bdd794e3c7e",
    "0xea8ee83a509af65eb740a2cca4359cd3344b7c67eeffde68612d8fa525c7a362",
];

fn audit_under(set: &EvalSet, ablation: Option<Ablation>) -> AuditReport {
    let config = ServiceConfig {
        oram_height: 10,
        ablation,
        ..ServiceConfig::at_level(SecurityConfig::Full)
    };
    let mut device = HarDTape::new(config, set.env.clone(), &set.genesis).expect("device boots");
    let mut user = device.connect_user(b"ablation user").expect("attestation");
    for tx in set.all_transactions() {
        device.pre_execute(&mut user, &Bundle::single(tx.clone())).expect("bundle accepted");
    }
    device.telemetry().audit()
}

#[test]
fn every_oram_ablation_fails_the_audit_with_its_own_violation() {
    let set = EvalSet::generate(&EvalSetConfig { blocks: 2, ..EvalSetConfig::small() });
    let clean = audit_under(&set, None);
    assert!(clean.passed(), "un-ablated twin must pass: {:?}", clean.violations);
    let mut digests = vec![report_digest(&clean)];

    type Expected = fn(&Violation) -> bool;
    let table: [(Ablation, Expected); 3] = [
        (Ablation::Starve, |v| matches!(v, Violation::CodeBurst { .. })),
        (Ablation::OmitPlan, |v| matches!(v, Violation::UnplannedCodePage { .. })),
        (Ablation::OmitStatePlan, |v| matches!(v, Violation::UnplannedStateAccess { .. })),
    ];
    for (ablation, expected) in table {
        let report = audit_under(&set, Some(ablation));
        assert!(!report.passed(), "{ablation:?}: the ablated run must FAIL the audit");
        assert!(
            report.violations.iter().any(expected),
            "{ablation:?}: wrong violation kind: {:?}",
            report.violations.first()
        );
        digests.push(report_digest(&report));
    }
    assert_eq!(digests, REPORT_DIGESTS, "an audit report changed");
}
