//! The aggregate report over one or more campaign stores: Fig-10/11
//! geomeans rebuilt from the JSONL rows alone.
//!
//! [`aggregate_report_dirs`] is the report `campaign report <store>...`
//! prints: any subset of shard stores, result rows deduplicated by
//! manifest key and quarantine rows by job key, so a partial distributed
//! run always has a consistent report without materializing the merge.
//! [`super::aggregate_report`] is the one-store case.

use super::store::{load_quarantine, load_results, QuarantineRow, ResultRow};
use crate::pair::buckets;
use crate::report::{render_table, speedup};
use std::collections::{BTreeMap, HashSet};
use std::path::PathBuf;
use via_formats::stats::geomean;

/// Per-kernel accumulator: the `(bucketing key, speedup)` points, plus
/// the SSR rival-backend speedups of the rows that carried them
/// (campaigns run with `--backends`).
#[derive(Debug, Default)]
struct KernelAccum {
    points: Vec<(f64, f64)>,
    ssr: Vec<f64>,
}

/// Renders the Fig-10/11-style geomean tables: per kernel, speedups
/// bucketed into four categories of the kernel's bucketing statistic
/// (CSB block density for SpMV, nnz for SpMA, nnz/row for SpMM) by the
/// figures' own [`buckets`], plus the overall geomean and a store footer.
/// Result rows count once per manifest key (the first occurrence wins)
/// and quarantine rows once per job key; the second value is the number
/// of duplicate rows dropped.
fn render_report(results: &[ResultRow], quarantined: &[QuarantineRow]) -> (String, usize) {
    let mut seen = HashSet::new();
    let mut kernels: BTreeMap<&str, KernelAccum> = BTreeMap::new();
    for row in results {
        if !seen.insert(row.manifest_key()) {
            continue;
        }
        let accum = kernels.entry(&row.kernel).or_default();
        accum.points.push((row.key, row.speedup()));
        if let Some(s) = row.ssr_speedup() {
            accum.ssr.push(s);
        }
    }
    let quarantined_jobs = quarantined
        .iter()
        .map(QuarantineRow::job_key)
        .collect::<HashSet<_>>()
        .len();
    let duplicates = results.len() - seen.len() + quarantined.len() - quarantined_jobs;

    let mut out = String::new();
    if kernels.is_empty() {
        out.push_str("no results in store\n");
    }
    for (kernel, accum) in &kernels {
        let header: Vec<String> = ["category (median key)", "matrices", "geomean speedup"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (mut cats, overall) = buckets(&accum.points);
        // Fewer than four matrices cannot fill four categories.
        if accum.points.len() < 4 {
            cats.clear();
        }
        let mut table: Vec<Vec<String>> = cats
            .iter()
            .map(|c| {
                vec![
                    format!("{:.2}", c.median_key),
                    c.matrices.to_string(),
                    speedup(c.speedup),
                ]
            })
            .collect();
        table.push(vec![
            "overall".to_string(),
            accum.points.len().to_string(),
            speedup(overall),
        ]);
        out.push_str(&format!(
            "kernel {kernel} ({} matrices)\n",
            accum.points.len()
        ));
        out.push_str(&render_table(&header, &table));
    }
    // Backend bake-off footer: only kernels whose rows carried the
    // optional SSR column (plain campaigns never print this).
    let with_ssr: Vec<(&str, &KernelAccum)> = kernels
        .iter()
        .filter(|(_, a)| !a.ssr.is_empty())
        .map(|(k, a)| (*k, a))
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
                    kernel.to_string(),
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
        seen.len(),
        quarantined_jobs
    ));
    (out, duplicates)
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
    let mut results = Vec::new();
    let mut quarantined = Vec::new();
    for dir in dirs {
        results.extend(load_results(dir)?);
        quarantined.extend(load_quarantine(dir)?);
    }
    let (mut out, duplicates) = render_report(&results, &quarantined);
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
        let rows = [
            row(1, "spma", 1.0, 100, 50),
            row(1, "spma", 1.0, 100, 50),
            row(2, "spma", 2.0, 100, 25),
        ];
        let (text, duplicates) = render_report(&rows, &[]);
        assert_eq!(duplicates, 1, "duplicate key");
        assert!(text.contains("store: 2 result rows, 0 quarantined"));
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
        let rows = ["a", "b", "c", "b"].map(quarantined);
        let (text, duplicates) = render_report(&[], &rows);
        assert_eq!(duplicates, 1, "duplicate key");
        assert!(text.starts_with("no results in store"));
        assert!(text.contains("store: 0 result rows, 3 quarantined"));
    }

    #[test]
    fn ssr_rows_add_a_bakeoff_footer() {
        let plain = row(1, "spmv_csr", 1.0, 100, 50);
        assert!(
            !render_report(std::slice::from_ref(&plain), &[])
                .0
                .contains("backend bake-off"),
            "plain rows must not print the footer"
        );
        let mut with_ssr = row(2, "spmv_csr", 2.0, 100, 50);
        with_ssr.ssr_cycles = Some(80);
        let (text, _) = render_report(&[plain, with_ssr], &[]);
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
        let reversed: Vec<ResultRow> = rows.iter().rev().cloned().collect();
        assert_eq!(render_report(&rows, &[]), render_report(&reversed, &[]));
    }
}
