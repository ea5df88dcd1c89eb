//! Process-wide simulated-work counters.
//!
//! The sweeps run thousands of independent engines across worker threads;
//! per-run [`RunStats`](crate::stats::RunStats) can't answer "how much did
//! the simulator do" without threading counters through every layer.
//! Instead, every finished engine adds its retired-instruction
//! count to one global atomic (and the compile, replay, memo and analysis
//! layers to theirs); two [`snapshot`]s bracket a sweep, and
//! [`TelemetrySnapshot::since`] attributes the work done in between.

use std::sync::atomic::{AtomicU64, Ordering};

static SIM_INSTRUCTIONS: AtomicU64 = AtomicU64::new(0);
static COMPILED_STREAMS: AtomicU64 = AtomicU64::new(0);
static COMPILED_INSTRUCTIONS: AtomicU64 = AtomicU64::new(0);
static REPLAYED_INSTRUCTIONS: AtomicU64 = AtomicU64::new(0);
static STREAM_CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static STREAM_CACHE_MISSES: AtomicU64 = AtomicU64::new(0);
static CYCLE_CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static CYCLE_CACHE_MISSES: AtomicU64 = AtomicU64::new(0);
static SKIPPED_INSTRUCTIONS: AtomicU64 = AtomicU64::new(0);
static ANALYZED_STREAMS: AtomicU64 = AtomicU64::new(0);
static ANALYZED_INSTRUCTIONS: AtomicU64 = AtomicU64::new(0);
static ANALYSIS_CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static ANALYSIS_CACHE_MISSES: AtomicU64 = AtomicU64::new(0);

/// Credits `n` retired instructions to the process-wide counter. Called by
/// [`Engine::finish`](crate::Engine::finish); an engine dropped unfinished
/// is not counted.
pub(crate) fn record_instructions(n: u64) {
    SIM_INSTRUCTIONS.fetch_add(n, Ordering::Relaxed);
}

/// Credits one compiled stream of `n` instructions (called when a
/// [`CompiledStream`](crate::compile::CompiledStream) is built).
pub(crate) fn record_compiled(n: u64) {
    COMPILED_STREAMS.fetch_add(1, Ordering::Relaxed);
    COMPILED_INSTRUCTIONS.fetch_add(n, Ordering::Relaxed);
}

/// Credits `n` instructions retired through the replay path (a subset of
/// the instructions [`record_instructions`] counts).
pub(crate) fn record_replayed(n: u64) {
    REPLAYED_INSTRUCTIONS.fetch_add(n, Ordering::Relaxed);
}

/// Counts a [`StreamCache`](crate::compile::StreamCache) lookup.
pub(crate) fn record_stream_cache(hit: bool) {
    let counter = if hit {
        &STREAM_CACHE_HITS
    } else {
        &STREAM_CACHE_MISSES
    };
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Counts a lookup in a (stream-hash, config-hash) → cycle-result memo
/// (the second cache level; `via-bench`'s sweep memo and `via-campaign`'s
/// persistent store both report through this).
pub fn record_cycle_cache(hit: bool) {
    let counter = if hit {
        &CYCLE_CACHE_HITS
    } else {
        &CYCLE_CACHE_MISSES
    };
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Credits `n` instructions whose simulation a cycle-cache hit skipped
/// entirely (they are *not* part of [`TelemetrySnapshot::instructions`]).
pub fn record_skipped_instructions(n: u64) {
    SKIPPED_INSTRUCTIONS.fetch_add(n, Ordering::Relaxed);
}

/// Credits one statically analyzed stream of `n` instructions (called by
/// [`analyze`](crate::analyze::analyze) on every non-memoized run).
pub(crate) fn record_analyzed(n: u64) {
    ANALYZED_STREAMS.fetch_add(1, Ordering::Relaxed);
    ANALYZED_INSTRUCTIONS.fetch_add(n, Ordering::Relaxed);
}

/// Counts an [`AnalysisCache`](crate::analyze::AnalysisCache) lookup.
pub(crate) fn record_analysis_cache(hit: bool) {
    let counter = if hit {
        &ANALYSIS_CACHE_HITS
    } else {
        &ANALYSIS_CACHE_MISSES
    };
    counter.fetch_add(1, Ordering::Relaxed);
}

/// A point-in-time reading of every process-wide counter. All counters are
/// monotonic; subtract two snapshots (see [`TelemetrySnapshot::since`]) to
/// attribute work to one stretch of a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TelemetrySnapshot {
    /// Instructions retired by engines (interpreted + replayed).
    pub instructions: u64,
    /// Compiled streams built.
    pub compiled_streams: u64,
    /// Instructions across all compiled streams.
    pub compiled_instructions: u64,
    /// Instructions retired through the replay path.
    pub replayed_instructions: u64,
    /// Compiled-stream cache hits.
    pub stream_cache_hits: u64,
    /// Compiled-stream cache misses.
    pub stream_cache_misses: u64,
    /// Cycle-memo hits ((stream-hash, config-hash) → cycles).
    pub cycle_cache_hits: u64,
    /// Cycle-memo misses.
    pub cycle_cache_misses: u64,
    /// Instructions never simulated thanks to cycle-memo hits.
    pub skipped_instructions: u64,
    /// Streams run through the static analyzer (non-memoized).
    pub analyzed_streams: u64,
    /// Instructions across all analyzed streams.
    pub analyzed_instructions: u64,
    /// Analysis-report memo hits ((stream-hash, analyze-config) → report).
    pub analysis_cache_hits: u64,
    /// Analysis-report memo misses.
    pub analysis_cache_misses: u64,
}

impl TelemetrySnapshot {
    /// The counter deltas accumulated since an `earlier` snapshot.
    pub fn since(&self, earlier: &TelemetrySnapshot) -> TelemetrySnapshot {
        TelemetrySnapshot {
            instructions: self.instructions - earlier.instructions,
            compiled_streams: self.compiled_streams - earlier.compiled_streams,
            compiled_instructions: self.compiled_instructions - earlier.compiled_instructions,
            replayed_instructions: self.replayed_instructions - earlier.replayed_instructions,
            stream_cache_hits: self.stream_cache_hits - earlier.stream_cache_hits,
            stream_cache_misses: self.stream_cache_misses - earlier.stream_cache_misses,
            cycle_cache_hits: self.cycle_cache_hits - earlier.cycle_cache_hits,
            cycle_cache_misses: self.cycle_cache_misses - earlier.cycle_cache_misses,
            skipped_instructions: self.skipped_instructions - earlier.skipped_instructions,
            analyzed_streams: self.analyzed_streams - earlier.analyzed_streams,
            analyzed_instructions: self.analyzed_instructions - earlier.analyzed_instructions,
            analysis_cache_hits: self.analysis_cache_hits - earlier.analysis_cache_hits,
            analysis_cache_misses: self.analysis_cache_misses - earlier.analysis_cache_misses,
        }
    }

    /// A one-line human-readable summary of the compile/replay/memo split
    /// (used by the `campaign`, `scorecard`, and `stall_report` binaries).
    pub fn render(&self) -> String {
        format!(
            "compile/replay: {} streams compiled ({} instr), {} instr replayed, \
             {} instr memo-skipped | stream cache {}/{} hit, cycle memo {}/{} hit \
             | analyzed {} streams ({} instr), analysis memo {}/{} hit",
            self.compiled_streams,
            self.compiled_instructions,
            self.replayed_instructions,
            self.skipped_instructions,
            self.stream_cache_hits,
            self.stream_cache_hits + self.stream_cache_misses,
            self.cycle_cache_hits,
            self.cycle_cache_hits + self.cycle_cache_misses,
            self.analyzed_streams,
            self.analyzed_instructions,
            self.analysis_cache_hits,
            self.analysis_cache_hits + self.analysis_cache_misses,
        )
    }
}

/// Reads every process-wide counter at once.
pub fn snapshot() -> TelemetrySnapshot {
    TelemetrySnapshot {
        instructions: SIM_INSTRUCTIONS.load(Ordering::Relaxed),
        compiled_streams: COMPILED_STREAMS.load(Ordering::Relaxed),
        compiled_instructions: COMPILED_INSTRUCTIONS.load(Ordering::Relaxed),
        replayed_instructions: REPLAYED_INSTRUCTIONS.load(Ordering::Relaxed),
        stream_cache_hits: STREAM_CACHE_HITS.load(Ordering::Relaxed),
        stream_cache_misses: STREAM_CACHE_MISSES.load(Ordering::Relaxed),
        cycle_cache_hits: CYCLE_CACHE_HITS.load(Ordering::Relaxed),
        cycle_cache_misses: CYCLE_CACHE_MISSES.load(Ordering::Relaxed),
        skipped_instructions: SKIPPED_INSTRUCTIONS.load(Ordering::Relaxed),
        analyzed_streams: ANALYZED_STREAMS.load(Ordering::Relaxed),
        analyzed_instructions: ANALYZED_INSTRUCTIONS.load(Ordering::Relaxed),
        analysis_cache_hits: ANALYSIS_CACHE_HITS.load(Ordering::Relaxed),
        analysis_cache_misses: ANALYSIS_CACHE_MISSES.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CoreConfig, MemConfig};
    use crate::engine::Engine;
    use crate::prog::AluKind;

    #[test]
    fn finished_engines_credit_the_global_counter() {
        let before = snapshot();
        for n in [25, 10] {
            let mut e = Engine::new(CoreConfig::default(), MemConfig::default());
            for _ in 0..n {
                e.scalar_op(AluKind::Int, &[]);
            }
            e.finish(); // n credited here
        }
        // Other tests run concurrently, so only a lower bound is exact.
        assert!(snapshot().since(&before).instructions >= 35);
    }

    #[test]
    fn snapshot_since_computes_deltas() {
        let before = snapshot();
        record_cycle_cache(true);
        record_cycle_cache(false);
        record_skipped_instructions(500);
        // Other tests run concurrently, so deltas are lower bounds.
        let d = snapshot().since(&before);
        assert!(d.cycle_cache_hits >= 1);
        assert!(d.cycle_cache_misses >= 1);
        assert!(d.skipped_instructions >= 500);
        assert!(d.render().contains("cycle memo"));
    }
}
