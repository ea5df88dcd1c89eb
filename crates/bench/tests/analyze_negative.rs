//! Negative tests for `via-analyze`: start from a stream the analyzer is
//! quiet on, hand-corrupt it one way, and assert the corruption is
//! reported with the expected `analysis[VIAxxx]` diagnostic code — and
//! that the finding survives its brute-force oracle (`analyze::validate`),
//! so every negative is also a true positive.
//!
//! Mirrors `verify_negative.rs`, which plays the same game with the
//! dynamic verifier's VIA001–VIA012 codes.

use via_sim::compile::StreamEvent;
use via_sim::prog::{AluKind, Inst, VecOpKind};
use via_sim::verify::{verify_program, DiagCode, Severity, VerifyConfig};
use via_sim::{analyze, AnalyzeConfig, CompiledStream, CoreConfig, MemConfig};

fn compile(insts: Vec<Inst>) -> CompiledStream {
    CompiledStream::from_recording(insts, Vec::new())
}

fn base_cfg() -> AnalyzeConfig {
    AnalyzeConfig::from_machine(&CoreConfig::default(), &MemConfig::default())
}

/// A small stream the analyzer has nothing to say about: every register
/// write is read, every stored byte survives, the gather is ordered after
/// the scatter by a shared source register.
fn clean_insts() -> Vec<Inst> {
    vec![
        Inst::load(0x1000, 8, 0),
        Inst::load(0x1008, 8, 1),
        Inst::scalar(AluKind::FpAdd, &[0, 1], Some(2)),
        Inst::store(0x2000, 8, &[2]),
        Inst::scatter(vec![0x3000, 0x3040], 8, &[2]),
        Inst::gather(vec![0x3000, 0x3040], 8, &[2], 3),
        Inst::vec(VecOpKind::Reduce, &[3], Some(4)),
        Inst::store(0x2008, 8, &[4]),
    ]
}

fn codes(report: &via_sim::AnalysisReport) -> Vec<&'static str> {
    report.diags.iter().map(|d| d.code.code()).collect()
}

#[test]
fn the_uncorrupted_stream_is_quiet() {
    let stream = compile(clean_insts());
    let verified = verify_program(
        &clean_insts().into_iter().collect(),
        &VerifyConfig::default(),
    );
    assert!(verified.is_clean(), "{}", verified.render());
    let report = analyze::analyze(&stream, &base_cfg());
    assert!(report.diags.is_empty(), "unexpected: {:?}", codes(&report));
    assert_eq!(report.dead_writes, 0);
    assert_eq!(report.dead_stores, 0);
    assert_eq!(report.alias_conflicts, 0);
    analyze::validate(&stream, &report).expect("clean stream validates");
}

#[test]
fn dead_register_write_is_via101() {
    let mut insts = clean_insts();
    // Corrupt: r1's first definition is clobbered by a reload before the
    // add reads it — the original load is dead.
    insts.insert(2, Inst::load(0x1010, 8, 1));
    let stream = compile(insts);
    let report = analyze::analyze(&stream, &base_cfg());
    assert_eq!(codes(&report), ["VIA101"]);
    let diag = &report.diags[0];
    assert_eq!(diag.index, 1, "flags the dead definition, not the killer");
    assert_eq!(diag.severity(), Severity::Analysis);
    assert!(
        diag.render().starts_with("analysis[VIA101]"),
        "{}",
        diag.render()
    );
    analyze::validate(&stream, &report).expect("finding survives its oracle");
}

#[test]
fn dead_store_is_via102() {
    let mut insts = clean_insts();
    // Corrupt: a second store fully overwrites the first store's bytes
    // with no load of 0x2000 in between.
    insts.insert(4, Inst::store(0x2000, 8, &[2]));
    let stream = compile(insts);
    let report = analyze::analyze(&stream, &base_cfg());
    assert_eq!(codes(&report), ["VIA102"]);
    let diag = &report.diags[0];
    assert_eq!(diag.index, 3, "flags the overwritten store");
    assert_eq!(diag.severity(), Severity::Analysis);
    assert_eq!(report.dead_store_bytes, 8);
    analyze::validate(&stream, &report).expect("finding survives its oracle");
}

#[test]
fn partial_overwrite_is_not_a_dead_store() {
    let mut insts = clean_insts();
    // Only half of the first store's bytes are overwritten — not dead.
    insts.insert(4, Inst::store(0x2004, 4, &[2]));
    let stream = compile(insts);
    let report = analyze::analyze(&stream, &base_cfg());
    assert_eq!(report.dead_stores, 0, "{:?}", codes(&report));
}

#[test]
fn unordered_must_alias_is_via103() {
    // Corrupt ordering: the gather byte-overlaps the scatter but depends
    // only on a register defined *before* it, shares no source with it,
    // and no fence intervenes — the static twin of dynamic VIA008.
    let insts = vec![
        Inst::load(0x1000, 8, 0),
        Inst::load(0x1008, 8, 1),
        Inst::scatter(vec![0x3000, 0x3040], 8, &[0]),
        Inst::gather(vec![0x3000, 0x3040], 8, &[1], 2),
        Inst::vec(VecOpKind::Reduce, &[2], Some(3)),
        Inst::scalar(AluKind::FpAdd, &[3], Some(4)),
    ];
    // The dynamic verifier flags the same site at runtime (VIA008); the
    // analyzer proves it statically.
    let verified = verify_program(&insts.iter().cloned().collect(), &VerifyConfig::default());
    assert!(
        verified
            .diags
            .iter()
            .any(|d| d.code == DiagCode::UnorderedGatherAfterScatter),
        "dynamic check should agree"
    );
    let stream = compile(insts);
    let report = analyze::analyze(&stream, &base_cfg());
    assert_eq!(codes(&report), ["VIA103"]);
    let diag = &report.diags[0];
    assert_eq!(diag.index, 3, "anchored at the gather");
    assert_eq!(diag.severity(), Severity::Analysis);
    analyze::validate(&stream, &report).expect("finding survives its oracle");
}

#[test]
fn fence_silences_via103() {
    let insts = vec![
        Inst::load(0x1000, 8, 0),
        Inst::load(0x1008, 8, 1),
        Inst::scatter(vec![0x3000, 0x3040], 8, &[0]),
        Inst::fence(),
        Inst::gather(vec![0x3000, 0x3040], 8, &[1], 2),
        Inst::vec(VecOpKind::Reduce, &[2], Some(3)),
        Inst::scalar(AluKind::FpAdd, &[3], Some(4)),
    ];
    let stream = compile(insts);
    let report = analyze::analyze(&stream, &base_cfg());
    assert_eq!(report.alias_conflicts, 0, "{:?}", codes(&report));
}

/// A recorded VIA stream: CAM mode entered at inst 0, then `ops` custom
/// instructions (each inserting up to VL = 4 keys).
fn cam_stream(ops: usize) -> CompiledStream {
    let insts: Vec<Inst> = (0..ops)
        .map(|_| Inst::custom(1, 3, true, &[], None))
        .collect();
    CompiledStream::from_recording(insts, vec![(0, StreamEvent::Marker("sspm mode: cam"))])
}

#[test]
fn cam_occupancy_overflow_is_via104() {
    let stream = cam_stream(3); // insertion upper bound: 3 ops x VL 4 = 12
    let cfg = AnalyzeConfig::from_machine(
        &CoreConfig::default().with_custom_unit(),
        &MemConfig::default(),
    )
    .with_cam_entries(8);
    let report = analyze::analyze(&stream, &cfg);
    assert_eq!(codes(&report), ["VIA104"]);
    let diag = &report.diags[0];
    assert_eq!(diag.index, 2, "the op that pushes past capacity");
    assert_eq!(diag.severity(), Severity::Analysis);
    assert_eq!(report.cam.insert_upper, 12);
    assert_eq!(report.cam.proven_no_overflow, Some(false));
    analyze::validate(&stream, &report).expect("report validates");
}

#[test]
fn cam_occupancy_within_capacity_is_proven_safe() {
    let stream = cam_stream(3);
    let cfg = AnalyzeConfig::from_machine(
        &CoreConfig::default().with_custom_unit(),
        &MemConfig::default(),
    )
    .with_cam_entries(16);
    let report = analyze::analyze(&stream, &cfg);
    assert!(report.diags.is_empty(), "{:?}", codes(&report));
    assert_eq!(report.cam.proven_no_overflow, Some(true), "12 <= 16 proven");
}

#[test]
fn every_analyzer_corruption_has_a_distinct_analysis_code() {
    let all = [
        DiagCode::DeadRegisterWrite,
        DiagCode::DeadStore,
        DiagCode::MustAliasConflict,
        DiagCode::CamOccupancyBound,
    ];
    let mut codes: Vec<&str> = all.iter().map(|c| c.code()).collect();
    codes.sort_unstable();
    codes.dedup();
    assert_eq!(codes.len(), all.len());
    for code in all {
        assert_eq!(
            code.severity(),
            Severity::Analysis,
            "{code:?} must never gate a run"
        );
    }
}
