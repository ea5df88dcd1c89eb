//! Tests for the `via-analyze` static-analysis subsystem: pass-level
//! findings with their oracles, the CAM/marker pass, reuse profiles, the
//! analysis memo, the engine attachment, and — most importantly — the
//! randomized cross-validation that the static cycle lower bound never
//! exceeds the simulated cycle count.

use via_rng::StdRng;
use via_sim::analyze::{self, AnalyzeConfig};
use via_sim::prog::{AluKind, Inst};
use via_sim::verify::{DiagCode, Program, VerifyConfig};
use via_sim::{CompiledStream, CoreConfig, Engine, MemConfig};

fn compile(insts: Vec<Inst>, core: &CoreConfig) -> CompiledStream {
    let prog: Program = insts.into_iter().collect();
    CompiledStream::compile(prog, &VerifyConfig::from_core(core))
}

fn simulate(insts: &[Inst], core: &CoreConfig) -> u64 {
    let mut e = Engine::new(core.clone(), MemConfig::default());
    for inst in insts {
        e.push(inst.clone());
    }
    e.finish().cycles
}

/// A well-formed random stream: every source register is defined, no
/// self-dependences, occasional register reuse so dead writes occur.
fn random_stream(rng: &mut StdRng, len: usize, with_custom: bool) -> Vec<Inst> {
    let mut insts = Vec::new();
    let mut defined: Vec<u32> = Vec::new();
    for r in 0..4u32 {
        insts.push(Inst::scalar(AluKind::Int, &[], Some(r)));
        defined.push(r);
    }
    let mut next_reg = 4u32;
    while insts.len() < len {
        let a = defined[rng.below(defined.len() as u64) as usize];
        let b = defined[rng.below(defined.len() as u64) as usize];
        // Mostly fresh destinations; sometimes redefine an old register
        // (never a source of the same instruction: VIA003).
        let reuse_dst = rng.below(4) == 0;
        let mut dst = || -> u32 {
            if reuse_dst {
                if let Some(&r) = defined.iter().find(|&&r| r != a && r != b) {
                    return r;
                }
            }
            let r = next_reg;
            next_reg += 1;
            defined.push(r);
            r
        };
        let inst = match rng.below(if with_custom { 12 } else { 11 }) {
            0 => Inst::scalar(AluKind::Int, &[a], Some(dst())),
            1 => Inst::scalar(AluKind::FpFma, &[a, b], Some(dst())),
            2 => Inst::vec(via_sim::VecOpKind::Fma, &[a, b], Some(dst())),
            3 => Inst::load_dep(rng.below(1 << 14) * 4, 8, &[a], dst()),
            4 => Inst::store(rng.below(1 << 14) * 4, 8, &[a]),
            5 => {
                let addrs: Vec<u64> = (0..4).map(|_| rng.below(1 << 12) * 8).collect();
                Inst::gather(addrs, 8, &[a], dst())
            }
            6 => {
                let addrs: Vec<u64> = (0..4).map(|_| rng.below(1 << 12) * 8).collect();
                Inst::scatter(addrs, 8, &[a])
            }
            7 => Inst::branch(rng.below(2) == 0, rng.below(16) as u32, &[a]),
            8 => Inst::delay(rng.below(8) as u32, &[a], dst()),
            9 => Inst::fence(),
            10 => Inst::vec(via_sim::VecOpKind::Reduce, &[a], Some(dst())),
            _ => Inst::custom(
                rng.below(4) as u32 + 1,
                rng.below(6) as u32 + 1,
                rng.below(2) == 0,
                &[a],
                Some(dst()),
            ),
        };
        insts.push(inst);
    }
    insts
}

/// The acceptance property, randomized: for arbitrary well-formed streams
/// on both the baseline and the VIA core, the static bound never exceeds
/// the simulated cycle count, and every finding survives its brute-force
/// oracle (zero false positives).
#[test]
fn random_streams_bound_holds_and_findings_validate() {
    // Random gathers may legitimately trip the dynamic VIA008 *error*
    // (which panics debug runs); capture mode collects reports instead,
    // and keeps the overlapping traffic that exercises the alias oracle.
    let _guard = via_sim::verify::capture_guard();
    via_rng::cases(30, 0xA11A5E7, |i, rng| {
        let with_custom = i % 2 == 1;
        let core = if with_custom {
            CoreConfig::default().with_custom_unit()
        } else {
            CoreConfig::default()
        };
        let insts = random_stream(rng, 250, with_custom);
        let cycles = simulate(&insts, &core);
        let stream = compile(insts, &core);
        let cfg = AnalyzeConfig::from_machine(&core, &MemConfig::default());
        let report = analyze::analyze(&stream, &cfg);
        assert!(
            report.bound.lower_cycles <= cycles,
            "case {i}: bound {} > simulated {} (terms: {:?})",
            report.bound.lower_cycles,
            cycles,
            report.bound
        );
        assert!(report.bound.lower_cycles > 0, "case {i}: vacuous bound");
        analyze::validate(&stream, &report)
            .unwrap_or_else(|e| panic!("case {i}: false positive: {e}"));
    });
    let _ = via_sim::verify::drain_captured();
}

#[test]
fn dead_write_detected_and_renders_as_analysis() {
    let core = CoreConfig::default();
    let insts = vec![
        Inst::scalar(AluKind::Int, &[], Some(0)), // dead: redefined at #2
        Inst::scalar(AluKind::Int, &[], Some(1)),
        Inst::scalar(AluKind::Int, &[1], Some(0)),
        Inst::store(0x100, 8, &[0]),
    ];
    let stream = compile(insts, &core);
    let report = analyze::analyze(&stream, &AnalyzeConfig::default());
    assert_eq!(report.dead_writes, 1);
    assert_eq!(report.dead_write_sites[0].index, 0);
    assert_eq!(report.dead_write_sites[0].overwritten_at, 2);
    let diag = &report.diags[0];
    assert_eq!(diag.code, DiagCode::DeadRegisterWrite);
    assert!(
        diag.render().starts_with("analysis[VIA101]"),
        "{}",
        diag.render()
    );
    analyze::validate(&stream, &report).unwrap();
}

#[test]
fn read_register_is_not_a_dead_write() {
    let core = CoreConfig::default();
    let insts = vec![
        Inst::scalar(AluKind::Int, &[], Some(0)),
        Inst::store(0x100, 8, &[0]), // read before the redefinition
        Inst::scalar(AluKind::Int, &[], Some(0)),
    ];
    let report = analyze::analyze(&compile(insts, &core), &AnalyzeConfig::default());
    assert_eq!(report.dead_writes, 0);
    // The final definition is unread at stream end: informational only.
    assert_eq!(report.unread_at_end, 1);
}

#[test]
fn dead_store_is_byte_exact() {
    let core = CoreConfig::default();
    let fully_dead = vec![
        Inst::scalar(AluKind::Int, &[], Some(0)),
        Inst::store(0x100, 8, &[0]), // dead: fully overwritten at #2
        Inst::store(0x100, 8, &[0]),
    ];
    let stream = compile(fully_dead, &core);
    let report = analyze::analyze(&stream, &AnalyzeConfig::default());
    assert_eq!(report.dead_stores, 1);
    assert_eq!(report.dead_store_bytes, 8);
    assert_eq!(report.dead_store_sites[0].index, 1);
    assert_eq!(report.diags[0].code, DiagCode::DeadStore);
    analyze::validate(&stream, &report).unwrap();

    // One byte survives: not dead.
    let partial = vec![
        Inst::scalar(AluKind::Int, &[], Some(0)),
        Inst::store(0x100, 8, &[0]),
        Inst::store(0x101, 7, &[0]),
    ];
    let report = analyze::analyze(&compile(partial, &core), &AnalyzeConfig::default());
    assert_eq!(report.dead_stores, 0);

    // A gather observes one byte before the overwrite: not dead.
    let observed = vec![
        Inst::scalar(AluKind::Int, &[], Some(0)),
        Inst::store(0x100, 8, &[0]),
        Inst::gather(vec![0x104], 4, &[0], 1),
        Inst::store(0x100, 8, &[0]),
    ];
    let report = analyze::analyze(&compile(observed, &core), &AnalyzeConfig::default());
    assert_eq!(report.dead_stores, 0);

    // A scatter can be the killer (but is never itself a candidate).
    let scatter_kill = vec![
        Inst::scalar(AluKind::Int, &[], Some(0)),
        Inst::store(0x200, 4, &[0]),
        Inst::scatter(vec![0x200], 4, &[0]),
    ];
    let report = analyze::analyze(&compile(scatter_kill, &core), &AnalyzeConfig::default());
    assert_eq!(report.dead_stores, 1);
}

#[test]
fn must_alias_conflict_and_ordering_evidence() {
    let core = CoreConfig::default();
    // Gather overlaps the scatter byte-exactly, no ordering evidence.
    let conflict = vec![
        Inst::scalar(AluKind::Int, &[], Some(0)),
        Inst::scalar(AluKind::Int, &[], Some(1)),
        Inst::scatter(vec![0x100, 0x200], 8, &[0]),
        Inst::gather(vec![0x200, 0x300], 8, &[1], 2),
    ];
    let stream = compile(conflict, &core);
    let report = analyze::analyze(&stream, &AnalyzeConfig::default());
    assert_eq!(report.alias_conflicts, 1);
    assert_eq!(report.alias_sites[0].gather, 3);
    assert_eq!(report.alias_sites[0].scatter, 2);
    assert_eq!(report.diags[0].code, DiagCode::MustAliasConflict);
    analyze::validate(&stream, &report).unwrap();

    // Same lines but disjoint bytes: VIA008 would warn, VIA103 must not.
    let line_share_only = vec![
        Inst::scalar(AluKind::Int, &[], Some(0)),
        Inst::scalar(AluKind::Int, &[], Some(1)),
        Inst::scatter(vec![0x200], 8, &[0]),
        Inst::gather(vec![0x208], 8, &[1], 2),
    ];
    let report = analyze::analyze(&compile(line_share_only, &core), &AnalyzeConfig::default());
    assert_eq!(report.alias_conflicts, 0);

    // A fence orders them.
    let fenced = vec![
        Inst::scalar(AluKind::Int, &[], Some(0)),
        Inst::scalar(AluKind::Int, &[], Some(1)),
        Inst::scatter(vec![0x200], 8, &[0]),
        Inst::fence(),
        Inst::gather(vec![0x200], 8, &[1], 2),
    ];
    let report = analyze::analyze(&compile(fenced, &core), &AnalyzeConfig::default());
    assert_eq!(report.alias_conflicts, 0);

    // Shared source register is ordering evidence.
    let shared_src = vec![
        Inst::scalar(AluKind::Int, &[], Some(0)),
        Inst::scatter(vec![0x200], 8, &[0]),
        Inst::gather(vec![0x200], 8, &[0], 1),
    ];
    let report = analyze::analyze(&compile(shared_src, &core), &AnalyzeConfig::default());
    assert_eq!(report.alias_conflicts, 0);

    // A source defined after the scatter is ordering evidence.
    let later_def = vec![
        Inst::scalar(AluKind::Int, &[], Some(0)),
        Inst::scatter(vec![0x200], 8, &[0]),
        Inst::scalar(AluKind::Int, &[0], Some(1)),
        Inst::gather(vec![0x200], 8, &[1], 2),
    ];
    let report = analyze::analyze(&compile(later_def, &core), &AnalyzeConfig::default());
    assert_eq!(report.alias_conflicts, 0);
}

#[test]
fn reuse_profile_counts_exact_stack_distances() {
    let core = CoreConfig::default();
    // Line-granular access string: A B A (distance 1), then B (distance 1).
    let insts = vec![
        Inst::load(0x000, 8, 0),
        Inst::load(0x040, 8, 1),
        Inst::load(0x008, 8, 2), // line A again: 1 distinct line between
        Inst::load(0x048, 8, 3), // line B again: distance 1
    ];
    let report = analyze::analyze(&compile(insts, &core), &AnalyzeConfig::default());
    let whole = report.whole_stream();
    assert_eq!(whole.name, analyze::WHOLE_STREAM);
    assert_eq!(whole.accesses, 4);
    assert_eq!(whole.cold, 2);
    assert_eq!(whole.distinct_lines, 2);
    // Two reuses at distance 1 → bucket floor(log2(2)) = 1.
    assert_eq!(whole.hist[1], 2);
    assert_eq!(whole.hits_within(4), 2);
    assert_eq!(whole.hits_within(1), 0);
}

#[test]
fn reuse_attributes_to_regions_from_stream_events() {
    let core = CoreConfig::default();
    let mut e = Engine::new(core.clone(), MemConfig::default());
    e.enable_recording();
    e.region("hot");
    e.push(Inst::load(0x000, 8, 0));
    e.push(Inst::load(0x000, 8, 1));
    e.region_end();
    e.push(Inst::load(0x040, 8, 2));
    let stream = e.take_compiled().unwrap();
    let _ = e.finish();
    let report = analyze::analyze(&stream, &AnalyzeConfig::default());
    assert_eq!(report.whole_stream().accesses, 3);
    let hot = report.regions.iter().find(|r| r.name == "hot").unwrap();
    assert_eq!(hot.accesses, 2);
    assert_eq!(hot.distinct_lines, 1);
    assert_eq!(hot.hist[0], 1); // immediate reuse, distance 0
}

#[test]
fn cam_occupancy_bound_from_markers() {
    let core = CoreConfig::default().with_custom_unit();
    let mut e = Engine::new(core.clone(), MemConfig::default());
    e.enable_recording();
    e.trace_marker("sspm mode: cam");
    for _ in 0..3 {
        let r = e.fresh_reg();
        e.push(Inst::custom(1, 2, false, &[], Some(r)));
    }
    e.trace_marker("sspm mode: cleared");
    e.trace_marker("sspm mode: cam");
    let r = e.fresh_reg();
    e.push(Inst::custom(1, 2, false, &[], Some(r)));
    let stream = e.take_compiled().unwrap();
    let _ = e.finish();

    // vl = 4: worst segment proves at most 12 live entries.
    let mem = MemConfig::default();
    let roomy = AnalyzeConfig::from_machine(&core, &mem).with_cam_entries(16);
    let report = analyze::analyze(&stream, &roomy);
    assert_eq!(report.cam.cam_intervals, 2);
    assert_eq!(report.cam.cam_ops, 4);
    assert_eq!(report.cam.insert_upper, 12);
    assert_eq!(report.cam.proven_no_overflow, Some(true));
    assert!(report.diags.is_empty());

    let tight = AnalyzeConfig::from_machine(&core, &mem).with_cam_entries(8);
    let report = analyze::analyze(&stream, &tight);
    assert_eq!(report.cam.proven_no_overflow, Some(false));
    assert_eq!(report.diags.len(), 1);
    assert_eq!(report.diags[0].code, DiagCode::CamOccupancyBound);
    // The third op's insertions (12 > 8) are the first past capacity.
    assert_eq!(report.diags[0].index, 2);
}

#[test]
fn analysis_cache_memoizes_by_stream_and_config() {
    let core = CoreConfig::default();
    let insts = vec![Inst::scalar(AluKind::Int, &[], Some(0))];
    let stream = compile(insts, &core);
    let cache = via_sim::AnalysisCache::new();
    let cfg = AnalyzeConfig::default();
    let a = cache.get_or_analyze(&stream, &cfg);
    let b = cache.get_or_analyze(&stream, &cfg);
    assert!(std::sync::Arc::ptr_eq(&a, &b));
    assert_eq!(cache.hits(), 1);
    assert_eq!(cache.misses(), 1);
    // A different analyzer config is a different memo entry.
    let other = AnalyzeConfig::default().with_cam_entries(64);
    let c = cache.get_or_analyze(&stream, &other);
    assert!(!std::sync::Arc::ptr_eq(&a, &c));
    assert_eq!(cache.len(), 2);
}

/// Satellite regression: a reused engine must not leak a stale
/// `AnalysisReport` across `reset()`.
#[test]
fn engine_reset_clears_attached_analysis_report() {
    let core = CoreConfig::default();
    let insts = vec![Inst::scalar(AluKind::Int, &[], Some(0))];
    let stream = compile(insts, &core);
    let mut e = Engine::new(core, MemConfig::default());
    let report = e.analyze_compiled(&stream);
    assert_eq!(report.stream_hash, stream.stream_hash());
    assert!(e.analysis_report().is_some());
    e.reset();
    assert!(
        e.analysis_report().is_none(),
        "reset leaked a stale AnalysisReport"
    );
}

/// The report memoizes alongside the cycle memo: identical streams hash
/// identically, so the analysis keys match the sweep's stream keys.
#[test]
fn analysis_report_is_keyed_by_content() {
    let core = CoreConfig::default();
    let a = compile(vec![Inst::scalar(AluKind::Int, &[], Some(0))], &core);
    let b = compile(vec![Inst::scalar(AluKind::Int, &[], Some(0))], &core);
    let cfg = AnalyzeConfig::default();
    assert_eq!(
        analyze::analyze(&a, &cfg).stream_hash,
        analyze::analyze(&b, &cfg).stream_hash
    );
}
