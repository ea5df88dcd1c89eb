//! Deterministic corpus sharding and the canonical store merger.
//!
//! A fleet-scale campaign splits its corpus over N independent processes
//! (or machines) with `--shard i/n`. The partition is **content-keyed**:
//! a job belongs to the shard given by the FNV-1a hash of its
//! `(matrix fingerprint, kernel, config)` identity modulo the shard count.
//! That makes the assignment a pure function of the job — stable across
//! worker counts, `--max-jobs` kills, resumes, and corpus orderings — and
//! guarantees every job lands in **exactly one** shard.
//!
//! [`merge_stores`] folds any number of shard stores (results, cycle
//! memos, quarantine) into one canonical store: rows are deduplicated by
//! exact sealed line, canonically sorted, and rewritten. Because both
//! dedup and sort are content-driven, merging the same stores in **any
//! order yields byte-identical output** — and merging a 3-shard run is
//! byte-identical to canonicalizing a solo run, which is exactly what the
//! CI `distributed` job `cmp`s.

use super::store::{
    cycles_path, load_cycles, load_quarantine, load_results, quarantine_path, results_path,
    rewrite_jsonl, write_meta, ResultRow, StoreMeta,
};
use super::{fnv1a64, CampaignError};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// One shard of a campaign corpus: `index` of `total` (zero-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardSpec {
    /// Zero-based shard index, `< total`.
    pub index: u32,
    /// Total shard count, `>= 1`.
    pub total: u32,
}

impl ShardSpec {
    /// The trivial solo "shard": the whole corpus in one store.
    pub const SOLO: ShardSpec = ShardSpec { index: 0, total: 1 };

    /// Builds a spec, rejecting `total == 0` and `index >= total`.
    pub fn new(index: u32, total: u32) -> Option<ShardSpec> {
        (total >= 1 && index < total).then_some(ShardSpec { index, total })
    }

    /// Parses the CLI form `i/n` (e.g. `--shard 1/3`).
    pub fn parse(spec: &str) -> Option<ShardSpec> {
        let (i, n) = spec.split_once('/')?;
        ShardSpec::new(i.trim().parse().ok()?, n.trim().parse().ok()?)
    }

    /// Whether this is the whole corpus (no partitioning).
    pub fn is_solo(&self) -> bool {
        self.total == 1
    }

    /// Whether this shard owns the job with the given [`shard_key`].
    pub fn owns(&self, key: u64) -> bool {
        key % u64::from(self.total) == u64::from(self.index)
    }
}

impl std::fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.total)
    }
}

/// The shard-assignment key of a job: FNV-1a over the job's full identity
/// `(matrix fingerprint, kernel, config)` — the same triple the resume
/// manifest is keyed on. NUL separators keep the encoding prefix-free.
pub fn shard_key(fingerprint: u64, kernel: &str, config: &str) -> u64 {
    fnv1a64(
        fingerprint
            .to_le_bytes()
            .into_iter()
            .chain(kernel.bytes())
            .chain([0u8])
            .chain(config.bytes()),
    )
}

/// Canonically sorts result rows (by fingerprint, kernel, config, then
/// matrix) — the order-independent view the resume and merge determinism
/// contracts are stated over.
pub fn canonical_sort(rows: &mut [ResultRow]) {
    rows.sort_by(|a, b| {
        (a.fingerprint, &a.kernel, &a.config, &a.matrix).cmp(&(
            b.fingerprint,
            &b.kernel,
            &b.config,
            &b.matrix,
        ))
    });
}

/// What [`merge_stores`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeSummary {
    /// Input store directories read.
    pub inputs: usize,
    /// Distinct result rows written.
    pub results: usize,
    /// Distinct cycle-memo rows written.
    pub cycles: usize,
    /// Distinct quarantine rows written.
    pub quarantined: usize,
    /// Exact-duplicate rows dropped across all three logs (overlapping
    /// shards, re-runs, or a store merged with itself).
    pub duplicates: usize,
    /// Result-manifest keys that appeared with **conflicting** bytes —
    /// always zero for stores produced by this orchestrator (rows are
    /// pure functions of the job); nonzero means a determinism violation
    /// or mixed timing configs. The lexicographically smallest row wins
    /// so the merge itself stays order-independent.
    pub conflicts: usize,
}

/// Dedups serialized lines (counting exact duplicates), detects
/// conflicting rows that share `key` but differ in bytes (keeping the
/// smallest line), and returns the kept lines keyed for sorting.
fn fold_lines<K: Ord + std::hash::Hash + Clone>(
    lines: Vec<(K, String)>,
    duplicates: &mut usize,
    conflicts: &mut usize,
) -> Vec<String> {
    let mut by_key: HashMap<K, Vec<String>> = HashMap::new();
    for (key, line) in lines {
        let bucket = by_key.entry(key).or_default();
        if bucket.contains(&line) {
            *duplicates += 1;
        } else {
            bucket.push(line);
        }
    }
    let mut keyed: Vec<(K, String)> = by_key
        .into_iter()
        .map(|(key, mut lines)| {
            if lines.len() > 1 {
                *conflicts += lines.len() - 1;
                lines.sort();
            }
            (key, lines.swap_remove(0))
        })
        .collect();
    keyed.sort();
    keyed.into_iter().map(|(_, line)| line).collect()
}

/// Merges any number of campaign store directories into one canonical
/// store at `out`: every intact row of every input, deduplicated and
/// canonically sorted, plus a solo-shard manifest (the merged store is a
/// normal store — resumable, reportable).
///
/// Order-independent: `merge(a, b, c)` and `merge(c, a, b)` write
/// byte-identical files. Merging a single store canonicalizes it.
///
/// # Errors
///
/// [`CampaignError::Io`] on store I/O failures; reading a directory that
/// was never a store simply contributes zero rows.
pub fn merge_stores(out: &Path, inputs: &[PathBuf]) -> Result<MergeSummary, CampaignError> {
    let mut results: Vec<((u64, String, String), String)> = Vec::new();
    let mut cycles: Vec<((u64, String, String, String), String)> = Vec::new();
    let mut quarantine: Vec<((String, String, String, String), String)> = Vec::new();
    let mut config = None;
    for dir in inputs {
        for r in load_results(dir)? {
            config.get_or_insert_with(|| r.config.clone());
            results.push((r.manifest_key(), r.to_jsonl()));
        }
        for c in load_cycles(dir)? {
            let line = c.to_jsonl();
            cycles.push(((c.fingerprint, c.kernel, c.config, line.clone()), line));
        }
        for q in load_quarantine(dir)? {
            let line = q.to_jsonl();
            quarantine.push(((q.matrix, q.kernel, q.config, line.clone()), line));
        }
    }
    let (mut duplicates, mut conflicts) = (0, 0);
    let results = fold_lines(results, &mut duplicates, &mut conflicts);
    // Cycle and quarantine lines key on their own full bytes: exact dups
    // collapse, distinct rows all survive (they cannot conflict).
    let cycles = fold_lines(cycles, &mut duplicates, &mut 0);
    let quarantine = fold_lines(quarantine, &mut duplicates, &mut 0);

    std::fs::create_dir_all(out).map_err(CampaignError::Io)?;
    let summary = MergeSummary {
        inputs: inputs.len(),
        results: results.len(),
        cycles: cycles.len(),
        quarantined: quarantine.len(),
        duplicates,
        conflicts,
    };
    rewrite_jsonl(&results_path(out), results)?;
    rewrite_jsonl(&cycles_path(out), cycles)?;
    rewrite_jsonl(&quarantine_path(out), quarantine)?;
    write_meta(
        out,
        &StoreMeta {
            shard: ShardSpec::SOLO,
            config: config.unwrap_or_default(),
        },
    )?;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_spec_parses_and_validates() {
        assert_eq!(ShardSpec::parse("1/3"), ShardSpec::new(1, 3));
        assert_eq!(ShardSpec::parse("0/1"), Some(ShardSpec::SOLO));
        assert_eq!(ShardSpec::parse("3/3"), None, "index must be < total");
        assert_eq!(ShardSpec::parse("0/0"), None, "total must be >= 1");
        assert_eq!(ShardSpec::parse("nope"), None);
        assert_eq!(ShardSpec::parse("1/3").unwrap().to_string(), "1/3");
        assert!(ShardSpec::SOLO.is_solo());
        assert!(!ShardSpec::new(0, 2).unwrap().is_solo());
    }

    #[test]
    fn every_key_lands_in_exactly_one_shard() {
        for total in 1..=5u32 {
            let shards: Vec<ShardSpec> = (0..total)
                .map(|i| ShardSpec::new(i, total).unwrap())
                .collect();
            for fp in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
                for kernel in ["spmv_csb", "spma"] {
                    let key = shard_key(fp, kernel, "16_2p");
                    let owners = shards.iter().filter(|s| s.owns(key)).count();
                    assert_eq!(owners, 1, "fp={fp:#x} kernel={kernel} total={total}");
                }
            }
        }
    }

    #[test]
    fn shard_key_separates_kernel_and_config() {
        // The NUL separator keeps ("ab","c") and ("a","bc") distinct.
        assert_ne!(shard_key(7, "ab", "c"), shard_key(7, "a", "bc"));
        assert_ne!(shard_key(7, "spma", "16_2p"), shard_key(8, "spma", "16_2p"));
        // And the key is a pure function of its inputs.
        assert_eq!(shard_key(7, "spma", "16_2p"), shard_key(7, "spma", "16_2p"));
    }
}
