//! ORAM-layer negative controls (§IV-D): each ablation of the cover
//! traffic on a `-full` device must FAIL the leakage audit with its own
//! `Violation` variant, while the un-ablated twin passes.

use hardtape::{Bundle, HarDTape, SecurityConfig, ServiceConfig};
use tape_sim::telemetry::audit::{audit_events, AuditConfig, AuditReport, Violation};
use tape_workload::{EvalSet, EvalSetConfig};

fn audit_after(set: &EvalSet, arm: fn(&HarDTape)) -> AuditReport {
    let config = ServiceConfig { oram_height: 10, ..ServiceConfig::at_level(SecurityConfig::Full) };
    let mut device = HarDTape::new(config, set.env.clone(), &set.genesis).expect("device boots");
    arm(&device);
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
    let clean = audit_after(&set, |_| {});
    assert!(clean.passed(), "un-ablated twin must pass: {:?}", clean.violations);

    type Row = (&'static str, fn(&HarDTape), fn(&Violation) -> bool);
    let table: [Row; 3] = [
        ("starve", |d| d.set_prefetch_ablation(true), |v| matches!(v, Violation::CodeBurst { .. })),
        ("omit-plan", |d| d.set_plan_ablation(true), |v| {
            matches!(v, Violation::UnplannedCodePage { .. })
        }),
        ("omit-state-plan", |d| d.set_state_plan_ablation(true), |v| {
            matches!(v, Violation::UnplannedStateAccess { .. })
        }),
    ];
    for (name, arm, expected) in table {
        let report = audit_after(&set, arm);
        assert!(!report.passed(), "{name}: the ablated run must FAIL the audit");
        assert!(
            report.violations.iter().any(expected),
            "{name}: wrong violation kind: {:?}",
            report.violations.first()
        );
    }
}
