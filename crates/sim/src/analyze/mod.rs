//! `via-analyze`: whole-stream static analysis over [`CompiledStream`].
//!
//! Everything the dynamic engine discovers by simulating is, for a
//! *recorded* stream, decidable up front: the stream is a flat array of
//! fully concrete instructions (every address and register id resolved at
//! emission), so forward abstract interpretation degenerates into exact
//! dataflow. The passes:
//!
//! | pass | module | emits |
//! |------|--------|-------|
//! | register liveness / dead writes  | [`liveness`] | `analysis[VIA101]` |
//! | store liveness (byte-exact)      | [`liveness`] | `analysis[VIA102]` |
//! | gather/scatter must-alias        | [`alias`]    | `analysis[VIA103]` |
//! | CAM index-table occupancy bound  | (here)       | `analysis[VIA104]` |
//! | static cycle lower bound         | [`bound`]    | report only |
//!
//! Diagnostics ride the existing [`DiagCode`] machinery at the new
//! [`Severity::Analysis`](crate::verify::Severity) level — they are
//! findings about *quality*, never correctness gates. The machine-readable
//! [`AnalysisReport`] is keyed by `(stream_hash, config hash)` and memoized
//! in an [`AnalysisCache`] exactly like cycle results memoize in the sweep
//! memo, so a sweep that reads the whole report pays for each distinct
//! stream once. A caller that needs only the cycle bound calls
//! [`static_bound`] (and [`liveness::dead_stores`] for the dead-store
//! count) directly instead of running every pass.
//!
//! Every finding is *continuation-sound* (still true if the stream were a
//! prefix of a longer run) and independently re-provable: [`validate`]
//! re-proves each reported site with a brute-force oracle that shares no
//! code with the pass, and the dynamic side cross-checks the cycle bound
//! (`bound.lower_cycles <= simulated cycles`) across the full
//! `verify_programs` sweep.

pub mod alias;
pub mod bound;
pub mod liveness;

pub use alias::{AliasAnalysis, AliasConflict};
pub use bound::{static_bound, StaticBound};
pub use liveness::{DeadStore, DeadWrite};

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::compile::{fnv1a64, CompiledStream, StreamEvent};
use crate::config::{CoreConfig, MemConfig};
use crate::prog::Op;
use crate::telemetry;
use crate::verify::{Diag, DiagCode};

/// Configuration for one analysis run: the machine the stream will run on
/// plus analyzer knobs. Hashed (via its `Debug` rendering, like
/// [`config_hash`](crate::compile::config_hash)) into the memo key.
#[derive(Debug, Clone)]
pub struct AnalyzeConfig {
    /// Core the bound models (use the exact config the engine will run).
    pub core: CoreConfig,
    /// Memory hierarchy the bound models.
    pub mem: MemConfig,
    /// CAM index-table capacity in entries, when the stream targets a VIA
    /// configuration (`None` disables the VIA104 occupancy check).
    pub cam_entries: Option<u64>,
    /// Cap on retained finding sites / diagnostics per code (counts are
    /// always exact; only the exemplar lists are truncated).
    pub max_exemplars: usize,
}

impl Default for AnalyzeConfig {
    fn default() -> Self {
        AnalyzeConfig::from_machine(&CoreConfig::default(), &MemConfig::default())
    }
}

impl AnalyzeConfig {
    /// An analyzer for the given machine, with default knobs.
    pub fn from_machine(core: &CoreConfig, mem: &MemConfig) -> Self {
        AnalyzeConfig {
            core: core.clone(),
            mem: mem.clone(),
            cam_entries: None,
            max_exemplars: 16,
        }
    }

    /// Enables the CAM occupancy check against `entries` capacity.
    pub fn with_cam_entries(mut self, entries: u64) -> Self {
        self.cam_entries = Some(entries);
        self
    }

    /// FNV-1a hash of the full configuration (memo key half).
    pub fn config_hash(&self) -> u64 {
        fnv1a64(format!("{self:?}").into_bytes())
    }
}

/// Proven facts about CAM index-table occupancy, from the stream's
/// `"sspm mode: *"` markers: insertions can only happen while CAM mode is
/// active, at most `vl` per VIA op, and a `cleared` marker resets the
/// table — so the running count is a sound upper bound on live entries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CamSummary {
    /// CAM-mode intervals seen in the stream.
    pub cam_intervals: u64,
    /// VIA (custom) ops issued while CAM mode was active.
    pub cam_ops: u64,
    /// Max proven upper bound on concurrently live index-table entries
    /// (max over clear-delimited segments of `cam ops × vl`).
    pub insert_upper: u64,
    /// The capacity checked against ([`AnalyzeConfig::cam_entries`]).
    pub capacity: Option<u64>,
    /// `Some(true)` when `insert_upper <= capacity` — the VIA011/VIA012
    /// runtime warnings can never fire for this stream. `None` when no
    /// capacity was configured.
    pub proven_no_overflow: Option<bool>,
}

/// The machine-readable result of analyzing one stream under one
/// [`AnalyzeConfig`]. Counts are exact; `*_sites` lists are exemplars
/// capped at [`AnalyzeConfig::max_exemplars`].
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisReport {
    /// Content hash of the analyzed stream ([`CompiledStream::stream_hash`]).
    pub stream_hash: u64,
    /// Hash of the [`AnalyzeConfig`] used (the other memo key half).
    pub config_hash: u64,
    /// Instructions analyzed.
    pub instructions: u64,
    /// Rendered `analysis[VIAxxx]` diagnostics (one per retained site).
    pub diags: Vec<Diag>,
    /// Total provably dead register writes (VIA101).
    pub dead_writes: u64,
    /// Exemplar dead-write sites.
    pub dead_write_sites: Vec<DeadWrite>,
    /// Total provably dead stores (VIA102).
    pub dead_stores: u64,
    /// Bytes across all dead stores.
    pub dead_store_bytes: u64,
    /// Exemplar dead-store sites.
    pub dead_store_sites: Vec<DeadStore>,
    /// Total must-alias conflicts (VIA103).
    pub alias_conflicts: u64,
    /// Exemplar conflict sites.
    pub alias_sites: Vec<AliasConflict>,
    /// Scatter candidates dropped by the alias window/per-line caps (0
    /// means the alias pass was exhaustive).
    pub alias_dropped: u64,
    /// CAM index-table occupancy facts.
    pub cam: CamSummary,
    /// The static cycle lower bound and its terms.
    pub bound: StaticBound,
}

/// Runs the CAM occupancy pass (see [`CamSummary`]). `first_overflow_at`
/// in the return is the index of the VIA op whose insertions first push
/// the proven bound past capacity, if any.
fn cam_occupancy(
    insts: &[crate::prog::Inst],
    events: &[(usize, StreamEvent)],
    cfg: &AnalyzeConfig,
) -> (CamSummary, Option<u64>) {
    let vl = cfg.core.vl.max(1) as u64;
    let mut summary = CamSummary {
        capacity: cfg.cam_entries,
        ..CamSummary::default()
    };
    let mut in_cam = false;
    let mut segment_ops = 0u64; // VIA ops since the last `cleared`
    let mut first_overflow = None;
    let mut ev = events.iter().peekable();
    for (i, inst) in insts.iter().enumerate() {
        while let Some(&&(pos, ref e)) = ev.peek() {
            if pos > i {
                break;
            }
            if let StreamEvent::Marker(m) = e {
                match *m {
                    "sspm mode: cam" if !in_cam => {
                        in_cam = true;
                        summary.cam_intervals += 1;
                    }
                    "sspm mode: direct" => in_cam = false,
                    "sspm mode: cleared" => {
                        in_cam = false;
                        segment_ops = 0;
                    }
                    _ => {}
                }
            }
            ev.next();
        }
        if in_cam && matches!(inst.op, Op::Custom { .. }) {
            summary.cam_ops += 1;
            segment_ops += 1;
            let upper = segment_ops * vl;
            summary.insert_upper = summary.insert_upper.max(upper);
            if first_overflow.is_none() {
                if let Some(cap) = cfg.cam_entries {
                    if upper > cap {
                        first_overflow = Some(i as u64);
                    }
                }
            }
        }
    }
    summary.proven_no_overflow = cfg.cam_entries.map(|cap| summary.insert_upper <= cap);
    (summary, first_overflow)
}

/// Analyzes one compiled stream: runs every pass and assembles the
/// [`AnalysisReport`] (including its `analysis[VIAxxx]` diagnostics).
pub fn analyze(stream: &CompiledStream, cfg: &AnalyzeConfig) -> AnalysisReport {
    let insts = stream.insts();
    let dead_writes = liveness::dead_register_writes(insts);
    let stores = liveness::dead_stores(insts);
    let aliases = alias::must_alias_conflicts(insts);
    let (cam, cam_overflow_at) = cam_occupancy(insts, stream.events(), cfg);
    let bound = bound::static_bound(insts, cfg);

    let cap = cfg.max_exemplars;
    let mut diags = Vec::new();
    let tag_of = |idx: u64| insts[idx as usize].op.tag();
    for w in dead_writes.iter().take(cap) {
        diags.push(Diag {
            code: DiagCode::DeadRegisterWrite,
            index: w.index,
            tag: tag_of(w.index),
            message: format!(
                "r{} written here is redefined at #{} with no intervening read",
                w.reg, w.overwritten_at
            ),
        });
    }
    for s in stores.dead_stores.iter().take(cap) {
        diags.push(Diag {
            code: DiagCode::DeadStore,
            index: s.index,
            tag: tag_of(s.index),
            message: format!(
                "all {} stored bytes are overwritten by #{} before any read",
                s.bytes, s.killed_at
            ),
        });
    }
    for c in aliases.conflicts.iter().take(cap) {
        diags.push(Diag {
            code: DiagCode::MustAliasConflict,
            index: c.gather,
            tag: tag_of(c.gather),
            message: format!(
                "gather byte-overlaps scatter #{} at {:#x} with no ordering evidence",
                c.scatter, c.addr
            ),
        });
    }
    if let Some(idx) = cam_overflow_at {
        diags.push(Diag {
            code: DiagCode::CamOccupancyBound,
            index: idx,
            tag: tag_of(idx),
            message: format!(
                "proven CAM insertion bound {} exceeds index-table capacity {}",
                cam.insert_upper,
                cam.capacity.unwrap_or(0)
            ),
        });
    }

    telemetry::record_analyzed(insts.len() as u64);
    AnalysisReport {
        stream_hash: stream.stream_hash(),
        config_hash: cfg.config_hash(),
        instructions: insts.len() as u64,
        diags,
        dead_writes: dead_writes.len() as u64,
        dead_write_sites: dead_writes.into_iter().take(cap).collect(),
        dead_stores: stores.dead_stores.len() as u64,
        dead_store_bytes: stores.dead_bytes,
        dead_store_sites: stores.dead_stores.into_iter().take(cap).collect(),
        alias_conflicts: aliases.conflicts.len() as u64,
        alias_sites: aliases.conflicts.into_iter().take(cap).collect(),
        alias_dropped: aliases.dropped_candidates,
        cam,
        bound,
    }
}

/// Re-proves every finding in `report` with the brute-force oracles (which
/// share no code with the passes) against the same stream — the replay
/// trace the findings claim to describe. Returns the first refutation.
///
/// `verify_programs` runs this over every recorded kernel stream; a
/// refutation is a false positive and fails the sweep.
pub fn validate(stream: &CompiledStream, report: &AnalysisReport) -> Result<(), String> {
    let insts = stream.insts();
    if report.stream_hash != stream.stream_hash() {
        return Err(format!(
            "report is for stream {:#x}, not {:#x}",
            report.stream_hash,
            stream.stream_hash()
        ));
    }
    for w in &report.dead_write_sites {
        liveness::confirm_dead_write(insts, w).map_err(|e| format!("VIA101 refuted: {e}"))?;
    }
    for s in &report.dead_store_sites {
        liveness::confirm_dead_store(insts, s).map_err(|e| format!("VIA102 refuted: {e}"))?;
    }
    for c in &report.alias_sites {
        alias::confirm_alias(insts, c).map_err(|e| format!("VIA103 refuted: {e}"))?;
    }
    let max_term = report
        .bound
        .replica_cycles
        .max(report.bound.scalar_term)
        .max(report.bound.vector_term)
        .max(report.bound.load_term)
        .max(report.bound.store_term)
        .max(report.bound.custom_term)
        .max(report.bound.dram_term);
    if report.bound.lower_cycles != max_term {
        return Err(format!(
            "bound is not the max of its terms: {} vs {}",
            report.bound.lower_cycles, max_term
        ));
    }
    Ok(())
}

/// Shared `(stream_hash, config_hash) → Arc<AnalysisReport>` memo, the
/// analysis counterpart of [`StreamCache`](crate::compile::StreamCache):
/// a DSE sweep analyzes each distinct `(stream, analyzer config)` pair
/// once, however many points replay it.
#[derive(Default)]
pub struct AnalysisCache {
    map: Mutex<HashMap<(u64, u64), Arc<AnalysisReport>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl AnalysisCache {
    /// An empty cache.
    pub fn new() -> Self {
        AnalysisCache::default()
    }

    fn map(&self) -> std::sync::MutexGuard<'_, HashMap<(u64, u64), Arc<AnalysisReport>>> {
        // Never held across pass code, so a poisoned map is consistent.
        self.map.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns the memoized report for `(stream, cfg)`, analyzing on a
    /// miss.
    pub fn get_or_analyze(
        &self,
        stream: &CompiledStream,
        cfg: &AnalyzeConfig,
    ) -> Arc<AnalysisReport> {
        let key = (stream.stream_hash(), cfg.config_hash());
        if let Some(found) = self.map().get(&key).cloned() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            telemetry::record_analysis_cache(true);
            return found;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        telemetry::record_analysis_cache(false);
        let report = Arc::new(analyze(stream, cfg));
        self.map().entry(key).or_insert(report).clone()
    }

    /// Number of memoized reports.
    pub fn len(&self) -> usize {
        self.map().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookup hits since construction.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookup misses since construction.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}
