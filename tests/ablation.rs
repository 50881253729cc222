//! ORAM-layer negative controls (§IV-D): each ablation of the cover
//! traffic on a `-full` device must FAIL the leakage audit with its own
//! `Violation` variant, while the un-ablated twin passes.

use hardtape::{Bundle, HarDTape, SecurityConfig, ServiceConfig};
use tape_sim::fault::Ablation;
use tape_sim::telemetry::audit::{audit_events, AuditConfig, AuditReport, Violation};
use tape_workload::{EvalSet, EvalSetConfig};

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
    let telemetry = device.telemetry();
    audit_events(&telemetry.events(), telemetry.dropped(), &AuditConfig::default())
}

#[test]
fn every_oram_ablation_fails_the_audit_with_its_own_violation() {
    let set = EvalSet::generate(&EvalSetConfig { blocks: 2, ..EvalSetConfig::small() });
    let clean = audit_under(&set, None);
    assert!(clean.passed(), "un-ablated twin must pass: {:?}", clean.violations);

    let table: [(Ablation, fn(&Violation) -> bool); 3] = [
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
    }
}
