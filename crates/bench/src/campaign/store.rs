//! The campaign's durable store: sealed JSONL rows, crash-safe loads,
//! line-atomic appends, and the store manifest.
//!
//! Every row type serializes to one flat JSON line carrying an FNV-1a
//! content hash over the line body (`"hash"` suffix field). Loaders
//! validate the seal and silently drop torn or tampered lines, so a store
//! written by a killed process is always readable. The workspace is
//! dependency-free by design: JSON is hand-rolled here, with strings
//! written by the Chrome-trace exporter's [`json_string`].

use super::fnv1a64;
use super::shard::ShardSpec;
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use via_sim::trace::json_string;

// ---------------------------------------------------------------------------
// JSON primitives
// ---------------------------------------------------------------------------

/// One scalar field of a flat JSONL row.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum JsonVal {
    /// A (decoded) string value.
    Str(String),
    /// A number kept as its raw token (re-parsed as needed).
    Num(String),
    /// An array of strings (the quarantine error chain).
    List(Vec<String>),
}

/// Parses one flat JSON object (`{"k":v,...}` with string / number /
/// string-array values). Returns `None` on any syntax error — the loader
/// treats that as a torn line.
fn parse_flat_object(line: &str) -> Option<Vec<(String, JsonVal)>> {
    let mut chars = line.trim().chars().peekable();
    fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) {
        while matches!(chars.peek(), Some(c) if c.is_whitespace()) {
            chars.next();
        }
    }
    fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Option<String> {
        if chars.next()? != '"' {
            return None;
        }
        let mut out = String::new();
        loop {
            match chars.next()? {
                '"' => return Some(out),
                '\\' => match chars.next()? {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'u' => {
                        let code: String = (0..4).map(|_| chars.next().unwrap_or('!')).collect();
                        let v = u32::from_str_radix(&code, 16).ok()?;
                        out.push(char::from_u32(v)?);
                    }
                    _ => return None,
                },
                c => out.push(c),
            }
        }
    }
    fn parse_number(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Option<String> {
        let mut out = String::new();
        while matches!(chars.peek(), Some(c) if c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E'))
        {
            out.push(chars.next()?);
        }
        if out.is_empty() {
            None
        } else {
            Some(out)
        }
    }
    skip_ws(&mut chars);
    if chars.next()? != '{' {
        return None;
    }
    let mut fields = Vec::new();
    loop {
        skip_ws(&mut chars);
        match chars.peek()? {
            '}' => {
                chars.next();
                break;
            }
            ',' => {
                chars.next();
                continue;
            }
            _ => {}
        }
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        if chars.next()? != ':' {
            return None;
        }
        skip_ws(&mut chars);
        let val = match chars.peek()? {
            '"' => JsonVal::Str(parse_string(&mut chars)?),
            '[' => {
                chars.next();
                let mut items = Vec::new();
                loop {
                    skip_ws(&mut chars);
                    match chars.peek()? {
                        ']' => {
                            chars.next();
                            break;
                        }
                        ',' => {
                            chars.next();
                        }
                        _ => items.push(parse_string(&mut chars)?),
                    }
                }
                JsonVal::List(items)
            }
            _ => JsonVal::Num(parse_number(&mut chars)?),
        };
        fields.push((key, val));
    }
    skip_ws(&mut chars);
    if chars.next().is_some() {
        return None; // trailing garbage
    }
    Some(fields)
}

fn field<'a>(fields: &'a [(String, JsonVal)], key: &str) -> Option<&'a JsonVal> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

pub(crate) fn str_field(fields: &[(String, JsonVal)], key: &str) -> Option<String> {
    match field(fields, key)? {
        JsonVal::Str(s) => Some(s.clone()),
        _ => None,
    }
}

pub(crate) fn num_field<T: std::str::FromStr>(
    fields: &[(String, JsonVal)],
    key: &str,
) -> Option<T> {
    match field(fields, key)? {
        JsonVal::Num(raw) => raw.parse().ok(),
        _ => None,
    }
}

/// A 64-bit hash or fingerprint written as a hex string by `{:016x}`.
pub(crate) fn hex_field(fields: &[(String, JsonVal)], key: &str) -> Option<u64> {
    u64::from_str_radix(&str_field(fields, key)?, 16).ok()
}

/// The fields of one sealed row: validates the `,"hash":"…"}` suffix
/// against the FNV-1a of the row body before it, then parses the object.
/// `None` for a torn, hand-edited or malformed line; every row decoder
/// starts here.
pub(crate) fn unseal(line: &str) -> Option<Vec<(String, JsonVal)>> {
    const MARK: &str = ",\"hash\":\"";
    let pos = line.rfind(MARK)?;
    let expect = format!("{:016x}\"}}", fnv1a64(line[..pos].bytes()));
    if line[pos + MARK.len()..] != expect {
        return None;
    }
    parse_flat_object(line)
}

pub(crate) fn seal_row(body: String) -> String {
    let h = fnv1a64(body.bytes());
    format!("{body},\"hash\":\"{h:016x}\"}}")
}

// ---------------------------------------------------------------------------
// Rows
// ---------------------------------------------------------------------------

/// One completed job in `results.jsonl`. Fully deterministic (no
/// timestamps), so a resumed campaign's merged log is byte-identical,
/// after canonical sort, to an uninterrupted run's.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultRow {
    /// Matrix name (spec name or file path).
    pub matrix: String,
    /// Matrix content fingerprint.
    pub fingerprint: u64,
    /// Kernel machine name.
    pub kernel: String,
    /// VIA configuration name (e.g. `16_2p`).
    pub config: String,
    /// Matrix rows.
    pub rows: usize,
    /// Matrix columns.
    pub cols: usize,
    /// Structural non-zeros.
    pub nnz: usize,
    /// The figure's bucketing statistic: CSB block density for SpMV
    /// kernels (Fig. 10), nnz for SpMA (Fig. 11), nnz/row for SpMM.
    pub key: f64,
    /// Baseline kernel cycles.
    pub base_cycles: u64,
    /// VIA kernel cycles.
    pub via_cycles: u64,
    /// SSR rival-backend cycles, when the campaign ran with `--backends`
    /// (absent in rows from plain campaigns — old stores parse unchanged).
    pub ssr_cycles: Option<u64>,
}

impl ResultRow {
    /// The manifest key identifying this unit of completed work.
    pub fn manifest_key(&self) -> (u64, String, String) {
        (self.fingerprint, self.kernel.clone(), self.config.clone())
    }

    /// Baseline-over-VIA speedup.
    pub fn speedup(&self) -> f64 {
        self.base_cycles as f64 / self.via_cycles.max(1) as f64
    }

    /// Baseline-over-SSR speedup, when the SSR leg was run.
    pub fn ssr_speedup(&self) -> Option<f64> {
        self.ssr_cycles
            .map(|c| self.base_cycles as f64 / c.max(1) as f64)
    }

    /// Serializes the row as one JSONL line (content-hashed, no newline).
    /// The `ssr_cycles` field is emitted only when present, so stores from
    /// plain campaigns stay byte-identical to the pre-backend format.
    pub fn to_jsonl(&self) -> String {
        let mut body = format!(
            "{{\"schema\":1,\"matrix\":{},\"fingerprint\":\"{:016x}\",\"kernel\":{},\"config\":{},\"rows\":{},\"cols\":{},\"nnz\":{},\"key\":{:?},\"base_cycles\":{},\"via_cycles\":{}",
            json_string(&self.matrix),
            self.fingerprint,
            json_string(&self.kernel),
            json_string(&self.config),
            self.rows,
            self.cols,
            self.nnz,
            self.key,
            self.base_cycles,
            self.via_cycles,
        );
        if let Some(ssr) = self.ssr_cycles {
            body.push_str(&format!(",\"ssr_cycles\":{ssr}"));
        }
        seal_row(body)
    }

    /// Parses one JSONL line, validating the integrity hash. `None` for
    /// torn or foreign lines.
    pub fn from_jsonl(line: &str) -> Option<ResultRow> {
        let fields = unseal(line)?;
        Some(ResultRow {
            matrix: str_field(&fields, "matrix")?,
            fingerprint: hex_field(&fields, "fingerprint")?,
            kernel: str_field(&fields, "kernel")?,
            config: str_field(&fields, "config")?,
            rows: num_field(&fields, "rows")?,
            cols: num_field(&fields, "cols")?,
            nnz: num_field(&fields, "nnz")?,
            key: num_field(&fields, "key")?,
            base_cycles: num_field(&fields, "base_cycles")?,
            via_cycles: num_field(&fields, "via_cycles")?,
            ssr_cycles: num_field(&fields, "ssr_cycles"),
        })
    }
}

/// One entry of the persistent cycle memo in `cycles.jsonl`: the timing
/// outcome of a simulated `(matrix, kernel, config)` job, keyed by the
/// compiled streams' content hashes and the core/memory timing-config
/// hash. A later campaign over the same inputs under the same timing
/// config rebuilds the [`ResultRow`] from this memo and **skips the
/// simulator entirely**. It is the campaign's only memo: nothing caches
/// compiled streams within a run.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleRow {
    /// Matrix name (spec name or file path).
    pub matrix: String,
    /// Matrix content fingerprint.
    pub fingerprint: u64,
    /// Kernel machine name.
    pub kernel: String,
    /// VIA configuration name.
    pub config: String,
    /// [`via_sim::config_hash`] of the core/memory timing configuration
    /// both engines were built from. A memo entry is only valid while
    /// this matches — a timing-model change invalidates the whole memo.
    pub config_hash: u64,
    /// [`via_sim::CompiledStream::stream_hash`] of the baseline kernel's
    /// recorded stream.
    pub base_stream: u64,
    /// Stream hash of the VIA kernel's recorded stream.
    pub via_stream: u64,
    /// Matrix rows.
    pub rows: usize,
    /// Matrix columns.
    pub cols: usize,
    /// Structural non-zeros.
    pub nnz: usize,
    /// The figure's bucketing statistic (see [`ResultRow::key`]).
    pub key: f64,
    /// Baseline kernel cycles.
    pub base_cycles: u64,
    /// VIA kernel cycles.
    pub via_cycles: u64,
    /// Instructions the baseline run simulated (what a memo hit skips).
    pub base_instructions: u64,
    /// Instructions the VIA run simulated.
    pub via_instructions: u64,
    /// SSR rival-backend cycles, when the campaign ran with `--backends`.
    /// A memo entry without this field cannot answer a `--backends` job
    /// (the run falls through to the simulator and re-records).
    pub ssr_cycles: Option<u64>,
    /// Instructions the SSR run simulated, when the SSR leg was run.
    pub ssr_instructions: Option<u64>,
}

impl CycleRow {
    /// The memo key: same identity as [`ResultRow::manifest_key`].
    pub fn memo_key(&self) -> (u64, String, String) {
        (self.fingerprint, self.kernel.clone(), self.config.clone())
    }

    /// Rebuilds the result row this memo entry stands in for.
    pub fn to_result_row(&self) -> ResultRow {
        ResultRow {
            matrix: self.matrix.clone(),
            fingerprint: self.fingerprint,
            kernel: self.kernel.clone(),
            config: self.config.clone(),
            rows: self.rows,
            cols: self.cols,
            nnz: self.nnz,
            key: self.key,
            base_cycles: self.base_cycles,
            via_cycles: self.via_cycles,
            ssr_cycles: self.ssr_cycles,
        }
    }

    /// Serializes the row as one JSONL line (content-hashed, no newline).
    /// SSR fields are emitted only when present (see [`ResultRow`]).
    pub fn to_jsonl(&self) -> String {
        let mut body = format!(
            "{{\"schema\":1,\"matrix\":{},\"fingerprint\":\"{:016x}\",\"kernel\":{},\"config\":{},\"config_hash\":\"{:016x}\",\"base_stream\":\"{:016x}\",\"via_stream\":\"{:016x}\",\"rows\":{},\"cols\":{},\"nnz\":{},\"key\":{:?},\"base_cycles\":{},\"via_cycles\":{},\"base_instructions\":{},\"via_instructions\":{}",
            json_string(&self.matrix),
            self.fingerprint,
            json_string(&self.kernel),
            json_string(&self.config),
            self.config_hash,
            self.base_stream,
            self.via_stream,
            self.rows,
            self.cols,
            self.nnz,
            self.key,
            self.base_cycles,
            self.via_cycles,
            self.base_instructions,
            self.via_instructions,
        );
        if let Some(ssr) = self.ssr_cycles {
            body.push_str(&format!(",\"ssr_cycles\":{ssr}"));
        }
        if let Some(ssr) = self.ssr_instructions {
            body.push_str(&format!(",\"ssr_instructions\":{ssr}"));
        }
        seal_row(body)
    }

    /// Parses one JSONL line, validating the integrity hash.
    pub fn from_jsonl(line: &str) -> Option<CycleRow> {
        let fields = unseal(line)?;
        Some(CycleRow {
            matrix: str_field(&fields, "matrix")?,
            fingerprint: hex_field(&fields, "fingerprint")?,
            kernel: str_field(&fields, "kernel")?,
            config: str_field(&fields, "config")?,
            config_hash: hex_field(&fields, "config_hash")?,
            base_stream: hex_field(&fields, "base_stream")?,
            via_stream: hex_field(&fields, "via_stream")?,
            rows: num_field(&fields, "rows")?,
            cols: num_field(&fields, "cols")?,
            nnz: num_field(&fields, "nnz")?,
            key: num_field(&fields, "key")?,
            base_cycles: num_field(&fields, "base_cycles")?,
            via_cycles: num_field(&fields, "via_cycles")?,
            base_instructions: num_field(&fields, "base_instructions")?,
            via_instructions: num_field(&fields, "via_instructions")?,
            ssr_cycles: num_field(&fields, "ssr_cycles"),
            ssr_instructions: num_field(&fields, "ssr_instructions"),
        })
    }
}

/// One quarantined job in `quarantine.jsonl`.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantineRow {
    /// Matrix name (spec name or file path).
    pub matrix: String,
    /// Kernel machine name.
    pub kernel: String,
    /// VIA configuration name.
    pub config: String,
    /// Failure category (stable machine name).
    pub kind: String,
    /// Error chain, outermost first.
    pub chain: Vec<String>,
}

impl QuarantineRow {
    /// The job identity `(matrix, kernel, config)` this row quarantines.
    pub fn job_key(&self) -> (String, String, String) {
        (
            self.matrix.clone(),
            self.kernel.clone(),
            self.config.clone(),
        )
    }

    /// Serializes the row as one JSONL line (content-hashed, no newline).
    pub fn to_jsonl(&self) -> String {
        let chain = self
            .chain
            .iter()
            .map(|s| json_string(s))
            .collect::<Vec<_>>()
            .join(",");
        let body = format!(
            "{{\"schema\":1,\"matrix\":{},\"kernel\":{},\"config\":{},\"kind\":{},\"error\":[{}]",
            json_string(&self.matrix),
            json_string(&self.kernel),
            json_string(&self.config),
            json_string(&self.kind),
            chain,
        );
        seal_row(body)
    }

    /// Parses one JSONL line, validating the integrity hash.
    pub fn from_jsonl(line: &str) -> Option<QuarantineRow> {
        let fields = unseal(line)?;
        let chain = match field(&fields, "error")? {
            JsonVal::List(items) => items.clone(),
            _ => return None,
        };
        Some(QuarantineRow {
            matrix: str_field(&fields, "matrix")?,
            kernel: str_field(&fields, "kernel")?,
            config: str_field(&fields, "config")?,
            kind: str_field(&fields, "kind")?,
            chain,
        })
    }
}

// ---------------------------------------------------------------------------
// Store manifest
// ---------------------------------------------------------------------------

/// The store manifest (`manifest.json`): one sealed line recording the
/// shard spec and VIA config the store was produced under. `--resume`
/// refuses a store whose manifest names a different shard spec — without
/// this, resuming shard `0/3`'s store as shard `1/3` (or solo) would
/// silently mix rows from incompatible partitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreMeta {
    /// The shard of the corpus this store holds.
    pub shard: ShardSpec,
    /// VIA configuration name the campaign swept.
    pub config: String,
}

impl StoreMeta {
    /// Serializes the manifest as one sealed JSON line.
    pub fn to_json(&self) -> String {
        let body = format!(
            "{{\"schema\":1,\"kind\":\"campaign_manifest\",\"shard_index\":{},\"shard_total\":{},\"config\":{}",
            self.shard.index,
            self.shard.total,
            json_string(&self.config),
        );
        seal_row(body)
    }

    /// Parses a manifest line, validating the integrity hash.
    pub fn from_json(line: &str) -> Option<StoreMeta> {
        let fields = unseal(line)?;
        if str_field(&fields, "kind")? != "campaign_manifest" {
            return None;
        }
        let shard = ShardSpec::new(
            num_field(&fields, "shard_index")?,
            num_field(&fields, "shard_total")?,
        )?;
        Some(StoreMeta {
            shard,
            config: str_field(&fields, "config")?,
        })
    }
}

/// Path of the store manifest inside a campaign directory.
pub fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("manifest.json")
}

/// Loads the store manifest, if present and intact. A missing file (a
/// pre-sharding store) and a corrupt file both read as `None`.
///
/// # Errors
///
/// Returns I/O errors other than `NotFound`.
pub fn load_meta(dir: &Path) -> std::io::Result<Option<StoreMeta>> {
    match std::fs::read_to_string(manifest_path(dir)) {
        Ok(text) => Ok(StoreMeta::from_json(text.trim())),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// Atomically writes the store manifest (tmp + rename).
///
/// # Errors
///
/// Returns underlying I/O errors.
pub fn write_meta(dir: &Path, meta: &StoreMeta) -> std::io::Result<()> {
    let path = manifest_path(dir);
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, format!("{}\n", meta.to_json()))?;
    std::fs::rename(&tmp, &path)
}

// ---------------------------------------------------------------------------
// Durable store I/O
// ---------------------------------------------------------------------------

/// Path of the result log inside a campaign directory.
pub fn results_path(dir: &Path) -> PathBuf {
    dir.join("results.jsonl")
}

/// Path of the quarantine log inside a campaign directory.
pub fn quarantine_path(dir: &Path) -> PathBuf {
    dir.join("quarantine.jsonl")
}

/// Path of the persistent cycle memo inside a campaign directory.
pub fn cycles_path(dir: &Path) -> PathBuf {
    dir.join("cycles.jsonl")
}

/// Loads every intact result row from a campaign directory (torn lines are
/// dropped; missing file ⇒ empty).
///
/// # Errors
///
/// Returns I/O errors other than `NotFound`.
pub fn load_results(dir: &Path) -> std::io::Result<Vec<ResultRow>> {
    load_rows(&results_path(dir), ResultRow::from_jsonl)
}

/// Loads every intact quarantine row from a campaign directory.
///
/// # Errors
///
/// Returns I/O errors other than `NotFound`.
pub fn load_quarantine(dir: &Path) -> std::io::Result<Vec<QuarantineRow>> {
    load_rows(&quarantine_path(dir), QuarantineRow::from_jsonl)
}

/// Loads every intact cycle-memo row from a campaign directory.
///
/// # Errors
///
/// Returns I/O errors other than `NotFound`.
pub fn load_cycles(dir: &Path) -> std::io::Result<Vec<CycleRow>> {
    load_rows(&cycles_path(dir), CycleRow::from_jsonl)
}

pub(crate) fn load_rows<T>(
    path: &Path,
    parse: impl Fn(&str) -> Option<T>,
) -> std::io::Result<Vec<T>> {
    let file = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut rows = Vec::new();
    for line in std::io::BufReader::new(file).split(b'\n') {
        let line = line?;
        // A torn or corrupt line (killed writer, possibly cut inside a
        // multi-byte character) is dropped; the job it described is simply
        // not in the manifest and will re-run.
        let Ok(line) = std::str::from_utf8(&line) else {
            continue;
        };
        let line = line.strip_suffix('\r').unwrap_or(line);
        if line.trim().is_empty() {
            continue;
        }
        if let Some(row) = parse(line) {
            rows.push(row);
        }
    }
    Ok(rows)
}

/// Atomically rewrites a JSONL file with the given lines (tmp + rename),
/// compacting away torn lines after a crash.
pub(crate) fn rewrite_jsonl(
    path: &Path,
    lines: impl IntoIterator<Item = String>,
) -> std::io::Result<()> {
    let tmp = path.with_extension("jsonl.tmp");
    {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
        for line in lines {
            writeln!(f, "{line}")?;
        }
        f.flush()?;
    }
    std::fs::rename(&tmp, path)
}

/// A line-atomic appender shared by all workers.
pub(crate) struct Appender {
    file: Mutex<std::fs::File>,
}

impl Appender {
    pub(crate) fn open(path: &Path) -> std::io::Result<Appender> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(Appender {
            file: Mutex::new(file),
        })
    }

    pub(crate) fn append(&self, line: &str) -> std::io::Result<()> {
        let mut file = self.file.lock().expect("appender poisoned");
        file.write_all(line.as_bytes())?;
        file.write_all(b"\n")?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use via_rng::{cases, mutate};

    fn sample_row() -> ResultRow {
        ResultRow {
            matrix: "s0001_banded_r128 \"quoted\\path\"".into(),
            fingerprint: 0xDEAD_BEEF_0123_4567,
            kernel: "spmv_csb".into(),
            config: "16_2p".into(),
            rows: 128,
            cols: 128,
            nnz: 512,
            key: 7.25,
            base_cycles: 10_000,
            via_cycles: 2_500,
            ssr_cycles: None,
        }
    }

    #[test]
    fn result_row_round_trips() {
        let row = sample_row();
        let line = row.to_jsonl();
        assert!(unseal(&line).is_some());
        let back = ResultRow::from_jsonl(&line).expect("parse");
        assert_eq!(back, row);
        assert!((back.speedup() - 4.0).abs() < 1e-12);
    }

    /// A file of rows torn anywhere (inside a multi-byte character too) or
    /// edited loads as exactly its intact rows.
    #[test]
    fn torn_lines_are_rejected() {
        let dir = std::env::temp_dir().join(format!("via_torn_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("results.jsonl");
        cases(40, 0x7042, |case, rng| {
            let (mut file, mut intact) = (Vec::new(), Vec::new());
            for n in 0..rng.below(24) {
                let row = ResultRow {
                    matrix: format!("m/café_{n}/矩阵.mtx"),
                    ..sample_row()
                };
                let line = row.to_jsonl().into_bytes();
                match rng.below(4) {
                    0 => file.extend_from_slice(&line[..rng.below(line.len() as u64) as usize]),
                    1 => file.extend(mutate(&line, rng)),
                    _ => {
                        file.extend_from_slice(&line);
                        intact.push(row);
                    }
                }
                file.push(b'\n');
            }
            // The writer died mid-append: a last line with no newline.
            let last = sample_row().to_jsonl().into_bytes();
            file.extend_from_slice(&last[..rng.below(last.len() as u64) as usize]);
            std::fs::write(&path, &file).unwrap();
            let rows = load_rows(&path, ResultRow::from_jsonl).expect("a torn file loads");
            assert_eq!(rows, intact, "case {case}");
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cycle_row_round_trips() {
        let row = CycleRow {
            matrix: "s0001_banded_r128".into(),
            fingerprint: 0xDEAD_BEEF_0123_4567,
            kernel: "spmv_csb".into(),
            config: "16_2p".into(),
            config_hash: 0x0123_4567_89AB_CDEF,
            base_stream: 0xFEDC_BA98_7654_3210,
            via_stream: 0x0F1E_2D3C_4B5A_6978,
            rows: 128,
            cols: 128,
            nnz: 512,
            key: 7.25,
            base_cycles: 10_000,
            via_cycles: 2_500,
            base_instructions: 4_000,
            via_instructions: 1_200,
            ssr_cycles: None,
            ssr_instructions: None,
        };
        let line = row.to_jsonl();
        assert!(unseal(&line).is_some());
        let back = CycleRow::from_jsonl(&line).expect("parse");
        assert_eq!(back, row);
        assert_eq!(back.memo_key(), back.to_result_row().manifest_key());
        assert_eq!(back.to_result_row().base_cycles, 10_000);
    }

    #[test]
    fn ssr_fields_round_trip_and_stay_optional() {
        // A backends row carries SSR data through serialization...
        let mut row = sample_row();
        row.ssr_cycles = Some(6_000);
        let back = ResultRow::from_jsonl(&row.to_jsonl()).expect("parse");
        assert_eq!(back.ssr_cycles, Some(6_000));
        assert!((back.ssr_speedup().unwrap() - 10_000.0 / 6_000.0).abs() < 1e-12);
        // ...while a plain row serializes without the field at all, so
        // pre-backend stores and new plain stores are byte-compatible.
        let plain = sample_row();
        assert!(!plain.to_jsonl().contains("ssr_cycles"));
        assert_eq!(plain.ssr_speedup(), None);
    }

    #[test]
    fn quarantine_row_round_trips() {
        let row = QuarantineRow {
            matrix: "bad.mtx".into(),
            kernel: "spma".into(),
            config: "16_2p".into(),
            kind: "parse".into(),
            chain: vec![
                "parse error at line 3, column 5: bad value".into(),
                "io".into(),
            ],
        };
        let line = row.to_jsonl();
        let back = QuarantineRow::from_jsonl(&line).expect("parse");
        assert_eq!(back, row);
    }

    #[test]
    fn store_meta_round_trips_and_rejects_tampering() {
        let meta = StoreMeta {
            shard: ShardSpec::new(1, 3).unwrap(),
            config: "16_2p".into(),
        };
        let line = meta.to_json();
        assert_eq!(StoreMeta::from_json(&line), Some(meta.clone()));
        let tampered = line.replace("\"shard_index\":1", "\"shard_index\":2");
        assert_eq!(
            StoreMeta::from_json(&tampered),
            None,
            "seal must catch edits"
        );
        assert_eq!(StoreMeta::from_json("{\"kind\":\"nope\"}"), None);
    }

    #[test]
    fn store_meta_persists_through_the_manifest_file() {
        let dir = std::env::temp_dir().join(format!("via_meta_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(
            load_meta(&dir).unwrap(),
            None,
            "missing manifest reads None"
        );
        let meta = StoreMeta {
            shard: ShardSpec::new(2, 5).unwrap(),
            config: "16_2p".into(),
        };
        write_meta(&dir, &meta).unwrap();
        assert_eq!(load_meta(&dir).unwrap(), Some(meta));
        std::fs::write(manifest_path(&dir), "garbage").unwrap();
        assert_eq!(
            load_meta(&dir).unwrap(),
            None,
            "corrupt manifest reads None"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flat_object_parser_handles_escapes_and_arrays() {
        let fields =
            parse_flat_object(r#"{"a":"x\"y\\z","b":-1.5e3,"c":["p","q\n"]}"#).expect("parse");
        assert_eq!(str_field(&fields, "a").unwrap(), "x\"y\\z");
        assert_eq!(num_field::<f64>(&fields, "b").unwrap(), -1500.0);
        assert_eq!(
            field(&fields, "c"),
            Some(&JsonVal::List(vec!["p".into(), "q\n".into()]))
        );
        assert!(parse_flat_object("{\"a\":1} trailing").is_none());
        assert!(parse_flat_object("{\"a\":").is_none());
    }

    /// One literal sealed line per row type (`ResultRow` with and without
    /// `ssr_cycles`): the on-disk format every existing store, memo and
    /// `tuned.jsonl` depends on.
    const PINNED: [&str; 6] = [
        r#"{"schema":1,"matrix":"s0003_powerlaw_r96","fingerprint":"0123456789abcdef","kernel":"spmv_csb","config":"16_2p","rows":96,"cols":96,"nnz":410,"key":3.5,"base_cycles":12345,"via_cycles":3210,"hash":"cebc21040a613079"}"#,
        r#"{"schema":1,"matrix":"s0003_powerlaw_r96","fingerprint":"0123456789abcdef","kernel":"spmv_csb","config":"16_2p","rows":96,"cols":96,"nnz":410,"key":3.5,"base_cycles":12345,"via_cycles":3210,"ssr_cycles":7777,"hash":"80c61b53a6144975"}"#,
        r#"{"schema":1,"matrix":"bad \"q\".mtx","fingerprint":"0000000000000f0f","kernel":"spma","config":"16_2p","config_hash":"fedcba9876543210","base_stream":"000000000000000a","via_stream":"000000000000000b","rows":48,"cols":48,"nnz":100,"key":100.0,"base_cycles":900,"via_cycles":300,"base_instructions":400,"via_instructions":120,"hash":"761d47152fc23a9f"}"#,
        r#"{"schema":1,"matrix":"empty.mtx","kernel":"spmv_csb","config":"16_2p","kind":"parse","error":["empty input","line 1"],"hash":"b93108a049420df8"}"#,
        r#"{"schema":1,"kind":"campaign_manifest","shard_index":1,"shard_total":3,"config":"16_2p","hash":"19cb52b888b92e7e"}"#,
        r#"{"schema":1,"matrix":"banded_0","fingerprint":"000000000000dead","kernel":"sptrsv","config":"16_2p","variant":"sptrsv/levels/fg8","variant_hash":"000000000000beef","default_cycles":1000,"best_cycles":400,"candidates":6,"pruned":2,"hash":"a61536cef74e5b50"}"#,
    ];

    #[test]
    fn sealed_lines_are_pinned_per_row_type() {
        let mut result = ResultRow {
            matrix: "s0003_powerlaw_r96".into(),
            fingerprint: 0x0123_4567_89AB_CDEF,
            kernel: "spmv_csb".into(),
            config: "16_2p".into(),
            rows: 96,
            cols: 96,
            nnz: 410,
            key: 3.5,
            base_cycles: 12_345,
            via_cycles: 3_210,
            ssr_cycles: None,
        };
        let line = PINNED[0];
        assert_eq!(result.to_jsonl(), line);
        assert_eq!(ResultRow::from_jsonl(line), Some(result.clone()));

        result.ssr_cycles = Some(7_777);
        let line = PINNED[1];
        assert_eq!(result.to_jsonl(), line);
        assert_eq!(ResultRow::from_jsonl(line), Some(result));

        let cycle = CycleRow {
            matrix: "bad \"q\".mtx".into(),
            fingerprint: 0x0F0F,
            kernel: "spma".into(),
            config: "16_2p".into(),
            config_hash: 0xFEDC_BA98_7654_3210,
            base_stream: 0xA,
            via_stream: 0xB,
            rows: 48,
            cols: 48,
            nnz: 100,
            key: 100.0,
            base_cycles: 900,
            via_cycles: 300,
            base_instructions: 400,
            via_instructions: 120,
            ssr_cycles: None,
            ssr_instructions: None,
        };
        let line = PINNED[2];
        assert_eq!(cycle.to_jsonl(), line);
        assert_eq!(CycleRow::from_jsonl(line), Some(cycle));

        let quarantine = QuarantineRow {
            matrix: "empty.mtx".into(),
            kernel: "spmv_csb".into(),
            config: "16_2p".into(),
            kind: "parse".into(),
            chain: vec!["empty input".into(), "line 1".into()],
        };
        let line = PINNED[3];
        assert_eq!(quarantine.to_jsonl(), line);
        assert_eq!(QuarantineRow::from_jsonl(line), Some(quarantine));

        let meta = StoreMeta {
            shard: ShardSpec::new(1, 3).unwrap(),
            config: "16_2p".into(),
        };
        let line = PINNED[4];
        assert_eq!(meta.to_json(), line);
        assert_eq!(StoreMeta::from_json(line), Some(meta));

        let tuned = crate::tune::TunedRow {
            matrix: "banded_0".into(),
            fingerprint: 0xDEAD,
            kernel: "sptrsv".into(),
            config: "16_2p".into(),
            variant: "sptrsv/levels/fg8".into(),
            variant_hash: 0xBEEF,
            default_cycles: 1000,
            best_cycles: 400,
            candidates: 6,
            pruned: 2,
        };
        let line = PINNED[5];
        assert_eq!(tuned.to_jsonl(), line);
        assert_eq!(crate::tune::TunedRow::from_jsonl(line), Some(tuned));
    }

    /// Decodes a line as the row type of the same index in [`PINNED`] and
    /// re-encodes it.
    const CODECS: [fn(&str) -> Option<String>; 6] = [
        |l| ResultRow::from_jsonl(l).map(|r| r.to_jsonl()),
        |l| ResultRow::from_jsonl(l).map(|r| r.to_jsonl()),
        |l| CycleRow::from_jsonl(l).map(|r| r.to_jsonl()),
        |l| QuarantineRow::from_jsonl(l).map(|r| r.to_jsonl()),
        |l| StoreMeta::from_json(l).map(|m| m.to_json()),
        |l| crate::tune::TunedRow::from_jsonl(l).map(|r| r.to_jsonl()),
    ];

    #[test]
    fn fuzzed_sealed_lines_never_panic_and_accept_only_exact_lines() {
        for (i, (line, codec)) in PINNED.iter().zip(CODECS).enumerate() {
            let body = &line[..line.rfind(",\"hash\":\"").expect("sealed")];
            cases(10_000, 0x5EA1 + i as u64, |case, rng| {
                let decode = |text: &str| {
                    std::panic::catch_unwind(|| codec(text))
                        .unwrap_or_else(|_| panic!("line {i} case {case}: panicked on {text:?}"))
                };
                // The seal rejects every edit, so an accepted mutant is one
                // that re-encodes to itself.
                if let Ok(mutant) = String::from_utf8(mutate(line.as_bytes(), rng)) {
                    if let Some(again) = decode(&mutant) {
                        assert_eq!(again, mutant, "line {i} case {case}: accepted an edit");
                    }
                }
                // A mutated body sealed again reaches the JSON parser and
                // the field decoders behind the seal.
                if let Ok(body) = String::from_utf8(mutate(body.as_bytes(), rng)) {
                    decode(&seal_row(body));
                }
            });
        }
    }
}
