//! Incremental aggregate reports: Fig-10/11 geomeans rebuilt row-by-row
//! as results land, instead of re-reading the whole store per render.
//!
//! [`ReportBuilder`] is the accumulator behind [`aggregate_report_dirs`],
//! the report `campaign report <store>...` prints: any subset of shard
//! stores, result rows deduplicated by manifest key and quarantine rows by
//! job key, so a partial distributed run always has a consistent report
//! without materializing the merge. [`super::aggregate_report`] is the
//! one-store case.
//!
//! Ingest is O(1) amortized (a duplicate-filtered push per row); render
//! re-buckets the retained `(key, speedup)` points, so the expensive part
//! is paid only when a report is actually requested.

use super::store::{load_quarantine, load_results, QuarantineRow, ResultRow};
use crate::report::{render_table, speedup};
use std::collections::{BTreeMap, HashSet};
use std::path::PathBuf;
use via_formats::stats::{geomean, split_categories};

/// Per-kernel accumulator: the `(bucketing key, speedup)` points seen so
/// far, plus the SSR rival-backend speedups of the rows that carried them
/// (campaigns run with `--backends`).
#[derive(Debug, Clone, Default)]
struct KernelAccum {
    points: Vec<(f64, f64)>,
    ssr: Vec<f64>,
}

/// An incremental aggregate-report accumulator. Feed it [`ResultRow`]s in
/// any order (duplicates by manifest key are ignored), render at any time.
#[derive(Debug, Clone, Default)]
pub struct ReportBuilder {
    kernels: BTreeMap<String, KernelAccum>,
    seen: HashSet<(u64, String, String)>,
    quarantined: HashSet<(String, String, String)>,
}

impl ReportBuilder {
    /// An empty builder.
    pub fn new() -> ReportBuilder {
        ReportBuilder::default()
    }

    /// Ingests one result row. Returns `false` (and changes nothing) if a
    /// row with the same manifest key was already ingested — the dedup
    /// that keeps a multi-shard live view consistent even while shard
    /// stores overlap mid-merge.
    pub fn ingest(&mut self, row: &ResultRow) -> bool {
        if !self.seen.insert(row.manifest_key()) {
            return false;
        }
        let accum = self.kernels.entry(row.kernel.clone()).or_default();
        accum.points.push((row.key, row.speedup()));
        if let Some(s) = row.ssr_speedup() {
            accum.ssr.push(s);
        }
        true
    }

    /// Counts one quarantined job for the footer line. Returns `false`
    /// (and changes nothing) if a row with the same job key was already
    /// ingested, so a job quarantined in two overlapping stores counts
    /// once.
    pub fn ingest_quarantined(&mut self, row: &QuarantineRow) -> bool {
        self.quarantined.insert(row.job_key())
    }

    /// Distinct result rows ingested so far.
    pub fn rows(&self) -> usize {
        self.seen.len()
    }

    /// Renders the Fig-10/11-style geomean tables: per kernel, speedups
    /// bucketed into four categories of the kernel's bucketing statistic
    /// (CSB block density for SpMV, nnz for SpMA, nnz/row for SpMM), plus
    /// the overall geomean and a store footer.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.kernels.is_empty() {
            out.push_str("no results in store\n");
        }
        for (kernel, accum) in &self.kernels {
            let header: Vec<String> = ["category (median key)", "matrices", "geomean speedup"]
                .iter()
                .map(|s| s.to_string())
                .collect();
            let mut table = Vec::new();
            if accum.points.len() >= 4 {
                let cats = split_categories(&accum.points, 4, |p| p.0);
                for c in &cats {
                    let sp: Vec<f64> = c.indices.iter().map(|&i| accum.points[i].1).collect();
                    table.push(vec![
                        format!("{:.2}", c.median_key),
                        c.indices.len().to_string(),
                        speedup(geomean(&sp)),
                    ]);
                }
            }
            let all: Vec<f64> = accum.points.iter().map(|p| p.1).collect();
            table.push(vec![
                "overall".to_string(),
                accum.points.len().to_string(),
                speedup(geomean(&all)),
            ]);
            out.push_str(&format!(
                "kernel {kernel} ({} matrices)\n",
                accum.points.len()
            ));
            out.push_str(&render_table(&header, &table));
        }
        // Backend bake-off footer: only kernels whose rows carried the
        // optional SSR column (plain campaigns never print this).
        let with_ssr: Vec<(&String, &KernelAccum)> = self
            .kernels
            .iter()
            .filter(|(_, a)| !a.ssr.is_empty())
            .collect();
        if !with_ssr.is_empty() {
            let header: Vec<String> = ["kernel", "matrices", "VIA geomean", "SSR geomean"]
                .iter()
                .map(|s| s.to_string())
                .collect();
            let rows: Vec<Vec<String>> = with_ssr
                .iter()
                .map(|(kernel, a)| {
                    let via: Vec<f64> = a.points.iter().map(|p| p.1).collect();
                    vec![
                        (*kernel).clone(),
                        a.ssr.len().to_string(),
                        speedup(geomean(&via)),
                        speedup(geomean(&a.ssr)),
                    ]
                })
                .collect();
            out.push_str("backend bake-off (speedup over baseline):\n");
            out.push_str(&render_table(&header, &rows));
        }
        out.push_str(&format!(
            "store: {} result rows, {} quarantined\n",
            self.rows(),
            self.quarantined.len()
        ));
        out
    }
}

/// Builds the live fleet report over any number of (possibly partial,
/// possibly overlapping) shard store directories: result and quarantine
/// rows deduplicated by key, rendered exactly like a single-store report,
/// plus a provenance line when more than one store contributed.
///
/// # Errors
///
/// Returns I/O errors from reading any store.
pub fn aggregate_report_dirs(dirs: &[PathBuf]) -> std::io::Result<String> {
    let mut builder = ReportBuilder::new();
    let mut duplicates = 0usize;
    for dir in dirs {
        for row in load_results(dir)? {
            if !builder.ingest(&row) {
                duplicates += 1;
            }
        }
        for row in load_quarantine(dir)? {
            if !builder.ingest_quarantined(&row) {
                duplicates += 1;
            }
        }
    }
    let mut out = builder.render();
    if dirs.len() > 1 {
        out.push_str(&format!(
            "live view: {} shard stores, {} overlapping rows deduplicated\n",
            dirs.len(),
            duplicates
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(fp: u64, kernel: &str, key: f64, base: u64, via: u64) -> ResultRow {
        ResultRow {
            matrix: format!("m{fp}"),
            fingerprint: fp,
            kernel: kernel.into(),
            config: "16_2p".into(),
            rows: 64,
            cols: 64,
            nnz: 256,
            key,
            base_cycles: base,
            via_cycles: via,
            ssr_cycles: None,
        }
    }

    #[test]
    fn builder_dedups_by_manifest_key() {
        let mut b = ReportBuilder::new();
        assert!(b.ingest(&row(1, "spma", 1.0, 100, 50)));
        assert!(!b.ingest(&row(1, "spma", 1.0, 100, 50)), "duplicate key");
        assert!(b.ingest(&row(2, "spma", 2.0, 100, 25)));
        assert_eq!(b.rows(), 2);
        let text = b.render();
        assert!(text.contains("kernel spma (2 matrices)"));
        // geomean(2.0, 4.0) = sqrt(8) ≈ 2.83
        assert!(text.contains("2.83"), "render: {text}");
    }

    fn quarantined(matrix: &str) -> QuarantineRow {
        QuarantineRow {
            matrix: matrix.into(),
            kernel: "spma".into(),
            config: "16_2p".into(),
            kind: "parse".into(),
            chain: vec!["bad header".into()],
        }
    }

    #[test]
    fn render_matches_store_footer_shape() {
        let mut b = ReportBuilder::new();
        for m in ["a", "b", "c"] {
            assert!(b.ingest_quarantined(&quarantined(m)));
        }
        assert!(!b.ingest_quarantined(&quarantined("b")), "duplicate key");
        let text = b.render();
        assert!(text.starts_with("no results in store"));
        assert!(text.contains("store: 0 result rows, 3 quarantined"));
    }

    #[test]
    fn ssr_rows_add_a_bakeoff_footer() {
        let mut b = ReportBuilder::new();
        b.ingest(&row(1, "spmv_csr", 1.0, 100, 50));
        assert!(
            !b.render().contains("backend bake-off"),
            "plain rows must not print the footer"
        );
        let mut with_ssr = row(2, "spmv_csr", 2.0, 100, 50);
        with_ssr.ssr_cycles = Some(80);
        b.ingest(&with_ssr);
        let text = b.render();
        assert!(text.contains("backend bake-off"), "{text}");
        assert!(text.contains("SSR geomean"), "{text}");
        // geomean of the single SSR point: 100/80 = 1.25x.
        assert!(text.contains("1.25"), "{text}");
    }

    #[test]
    fn incremental_render_is_stable_under_ingest_order() {
        let rows: Vec<ResultRow> = (0..12)
            .map(|i| row(i, "spmv_csb", i as f64, 1000 + i * 7, 200 + i))
            .collect();
        let mut fwd = ReportBuilder::new();
        let mut rev = ReportBuilder::new();
        for r in &rows {
            fwd.ingest(r);
        }
        for r in rows.iter().rev() {
            rev.ingest(r);
        }
        assert_eq!(fwd.render(), rev.render());
    }
}
