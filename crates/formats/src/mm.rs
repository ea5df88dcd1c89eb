//! Matrix Market I/O.
//!
//! Supports the `matrix coordinate real/integer/pattern general/symmetric`
//! subset, which covers the SuiteSparse matrices the paper selects (real,
//! square). This lets real SuiteSparse files be dropped into the
//! experiments in place of the synthetic suite (see the campaign corpus
//! manifest in `via-bench`).
//!
//! Every parse failure is a structured [`FormatError::Parse`] carrying the
//! 1-based line and, where a single token is at fault, the 1-based column —
//! the campaign quarantine log (`via-bench::campaign`) preserves this chain
//! so a corrupt corpus file is diagnosable from the log alone.

use crate::{Coo, FormatError, Index};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Parses a Matrix Market stream into a canonical [`Coo`] matrix.
///
/// A `&mut` reference may be passed as the reader.
///
/// # Examples
///
/// Parsing a well-formed file:
///
/// ```
/// use via_formats::mm;
///
/// let text = "%%MatrixMarket matrix coordinate real general\n\
///             % 2x2 with two entries\n\
///             2 2 2\n\
///             1 1 1.5\n\
///             2 2 -2.0\n";
/// let coo = mm::read_matrix_market(text.as_bytes())?;
/// assert_eq!((coo.rows(), coo.cols(), coo.nnz()), (2, 2, 2));
/// assert_eq!(coo.entries(), &[(0, 0, 1.5), (1, 1, -2.0)]);
/// # Ok::<(), via_formats::FormatError>(())
/// ```
///
/// Malformed content fails with a line/column-located error instead of a
/// silent skip:
///
/// ```
/// use via_formats::{mm, FormatError};
///
/// let bad = "%%MatrixMarket matrix coordinate real general\n\
///            2 2 1\n\
///            1 oops 1.0\n";
/// let err = mm::read_matrix_market(bad.as_bytes()).unwrap_err();
/// assert_eq!(err.parse_location(), Some((3, Some(3))));
/// assert!(err.to_string().contains("bad column index"));
/// ```
///
/// # Errors
///
/// Returns [`FormatError::Parse`] (with line/column) for malformed content
/// and for a row or column count above 2^32 (what a 32-bit [`Index`]
/// addresses), [`FormatError::IndexOutOfBounds`] for entries outside the
/// declared dimensions, and [`FormatError::Io`] for underlying I/O
/// failures. Only `matrix coordinate {real,integer,pattern}
/// {general,symmetric}` headers are accepted, and non-finite values
/// (`NaN`, `inf`) are rejected.
pub fn read_matrix_market<R: Read>(reader: R) -> Result<Coo, FormatError> {
    let mut lines = BufReader::new(reader).lines().enumerate();

    let (first_no, first) = lines
        .next()
        .ok_or_else(|| parse_err(1, "empty input: expected %%MatrixMarket header"))?
        .map_parse(1)?;
    let header: Vec<&str> = first.split_whitespace().collect();
    if header.is_empty() {
        return Err(parse_err(
            first_no + 1,
            "empty input: expected %%MatrixMarket header",
        ));
    }
    if header.len() < 4 || !header[0].eq_ignore_ascii_case("%%MatrixMarket") {
        return Err(parse_err(
            first_no + 1,
            "missing or truncated %%MatrixMarket header (need `%%MatrixMarket matrix coordinate <field> [symmetry]`)",
        ));
    }
    if !header[1].eq_ignore_ascii_case("matrix") || !header[2].eq_ignore_ascii_case("coordinate") {
        return Err(parse_err(
            first_no + 1,
            "only `matrix coordinate` files are supported",
        ));
    }
    let field = header[3].to_ascii_lowercase();
    if !matches!(field.as_str(), "real" | "integer" | "pattern") {
        return Err(parse_err(
            first_no + 1,
            format!("unsupported field type `{field}`"),
        ));
    }
    let symmetry = header
        .get(4)
        .map(|s| s.to_ascii_lowercase())
        .unwrap_or_else(|| "general".into());
    if !matches!(symmetry.as_str(), "general" | "symmetric") {
        return Err(parse_err(
            first_no + 1,
            format!("unsupported symmetry `{symmetry}`"),
        ));
    }

    // Skip comments, find the size line.
    let mut size_line = None;
    for (no, line) in &mut lines {
        let line = line.map_err(FormatError::Io)?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        size_line = Some((no, line));
        break;
    }
    let (size_no, size_line) = size_line.ok_or_else(|| {
        parse_err(
            first_no + 2,
            "truncated file: missing `rows cols nnz` size line",
        )
    })?;
    let size_toks = tokens(&size_line);
    if size_toks.len() != 3 {
        return Err(parse_err(
            size_no + 1,
            format!(
                "size line needs exactly `rows cols nnz` (got {} tokens)",
                size_toks.len()
            ),
        ));
    }
    let mut dims = [0usize; 3];
    for (slot, &(col, tok)) in dims.iter_mut().zip(&size_toks) {
        *slot = tok
            .parse::<usize>()
            .map_err(|e| parse_err_at(size_no + 1, col, format!("bad size entry `{tok}`: {e}")))?;
    }
    // 32-bit indices address at most 2^32 rows or columns; a larger
    // dimension would wrap entries onto low indices or overflow memory.
    for (&dim, &(col, tok)) in dims[..2].iter().zip(&size_toks) {
        if dim as u64 > u64::from(Index::MAX) + 1 {
            return Err(parse_err_at(
                size_no + 1,
                col,
                format!(
                    "dimension {tok} exceeds 2^32, the most rows or columns 32-bit indices address"
                ),
            ));
        }
    }
    let (rows, cols, nnz) = (dims[0], dims[1], dims[2]);

    let mut coo = Coo::new(rows, cols);
    let mut read = 0usize;
    for (no, line) in &mut lines {
        let line = line.map_err(FormatError::Io)?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        let toks = tokens(&line);
        let need = if field == "pattern" { 2 } else { 3 };
        if toks.len() < need {
            return Err(parse_err(
                no + 1,
                format!(
                    "entry line too short: need {need} tokens, got {}",
                    toks.len()
                ),
            ));
        }
        let (rcol, rtok) = toks[0];
        let r: usize = rtok
            .parse()
            .map_err(|e| parse_err_at(no + 1, rcol, format!("bad row index `{rtok}`: {e}")))?;
        let (ccol, ctok) = toks[1];
        let c: usize = ctok
            .parse()
            .map_err(|e| parse_err_at(no + 1, ccol, format!("bad column index `{ctok}`: {e}")))?;
        if r == 0 || c == 0 {
            let col = if r == 0 { rcol } else { ccol };
            return Err(parse_err_at(
                no + 1,
                col,
                "matrix market indices are 1-based (found 0)",
            ));
        }
        let v: f64 = if field == "pattern" {
            1.0
        } else {
            let (vcol, vtok) = toks[2];
            let v: f64 = vtok
                .parse()
                .map_err(|e| parse_err_at(no + 1, vcol, format!("bad value `{vtok}`: {e}")))?;
            if !v.is_finite() {
                return Err(parse_err_at(
                    no + 1,
                    vcol,
                    format!("non-finite value `{vtok}` (NaN/inf entries are rejected)"),
                ));
            }
            v
        };
        coo.try_push(r - 1, c - 1, v)?;
        if symmetry == "symmetric" && r != c {
            coo.try_push(c - 1, r - 1, v)?;
        }
        read += 1;
    }
    if read != nnz {
        return Err(parse_err(
            size_no + 1,
            format!("size line promised {nnz} entries but file has {read}"),
        ));
    }
    Ok(coo.into_canonical())
}

/// Reads a Matrix Market file from disk.
///
/// # Errors
///
/// Same conditions as [`read_matrix_market`].
pub fn read_matrix_market_file(path: impl AsRef<Path>) -> Result<Coo, FormatError> {
    let file = std::fs::File::open(path)?;
    read_matrix_market(file)
}

/// Writes a matrix in `matrix coordinate real general` form.
///
/// Values are written with shortest-round-trip formatting, so a
/// write-then-read cycle reproduces every `f64` bit-exactly:
///
/// ```
/// use via_formats::{mm, Coo};
///
/// let mut coo = Coo::new(2, 3);
/// coo.push(0, 0, 0.1 + 0.2); // not representable in short decimal
/// coo.push(1, 2, -4.0);
/// let mut buf = Vec::new();
/// mm::write_matrix_market(&mut buf, &coo)?;
/// let back = mm::read_matrix_market(buf.as_slice())?;
/// assert_eq!(back, coo.into_canonical());
/// # Ok::<(), via_formats::FormatError>(())
/// ```
///
/// A `&mut` reference may be passed as the writer.
///
/// # Errors
///
/// Returns [`FormatError::Io`] on write failure.
pub fn write_matrix_market<W: Write>(mut writer: W, coo: &Coo) -> Result<(), FormatError> {
    writeln!(writer, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(writer, "% written by via-formats")?;
    writeln!(writer, "{} {} {}", coo.rows(), coo.cols(), coo.nnz())?;
    for &(r, c, v) in coo.entries() {
        writeln!(writer, "{} {} {:?}", r + 1, c + 1, v)?;
    }
    Ok(())
}

/// Whitespace tokens of `line` with their 1-based character columns.
fn tokens(line: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut start: Option<usize> = None;
    for (i, ch) in line.char_indices() {
        if ch.is_whitespace() {
            if let Some(s) = start.take() {
                out.push((s, &line[s..i]));
            }
        } else if start.is_none() {
            start = Some(i);
        }
    }
    if let Some(s) = start {
        out.push((s, &line[s..]));
    }
    // Byte offset → 1-based character column.
    out.into_iter()
        .map(|(s, tok)| (line[..s].chars().count() + 1, tok))
        .collect()
}

fn parse_err(line: usize, message: impl Into<String>) -> FormatError {
    FormatError::Parse {
        line,
        col: None,
        message: message.into(),
    }
}

fn parse_err_at(line: usize, col: usize, message: impl Into<String>) -> FormatError {
    FormatError::Parse {
        line,
        col: Some(col),
        message: message.into(),
    }
}

trait MapParse<T> {
    fn map_parse(self, line: usize) -> Result<(usize, T), FormatError>;
}

impl MapParse<String> for (usize, std::io::Result<String>) {
    fn map_parse(self, _line: usize) -> Result<(usize, String), FormatError> {
        let (no, res) = self;
        res.map(|s| (no, s)).map_err(FormatError::Io)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "%%MatrixMarket matrix coordinate real general\n\
        % a comment\n\
        3 3 4\n\
        1 1 1.5\n\
        2 3 -2.0\n\
        3 1 4.0\n\
        3 3 0.5\n";

    #[test]
    fn parses_general_real() {
        let coo = read_matrix_market(SAMPLE.as_bytes()).unwrap();
        assert_eq!(coo.rows(), 3);
        assert_eq!(coo.nnz(), 4);
        assert_eq!(
            coo.entries(),
            &[(0, 0, 1.5), (1, 2, -2.0), (2, 0, 4.0), (2, 2, 0.5)]
        );
    }

    #[test]
    fn parses_symmetric_mirrors_entries() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
            2 2 2\n\
            1 1 1.0\n\
            2 1 5.0\n";
        let coo = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(coo.nnz(), 3);
        assert_eq!(coo.entries(), &[(0, 0, 1.0), (0, 1, 5.0), (1, 0, 5.0)]);
    }

    #[test]
    fn parses_pattern_as_ones() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n\
            2 2 1\n\
            2 2\n";
        let coo = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(coo.entries(), &[(1, 1, 1.0)]);
    }

    #[test]
    fn rejects_missing_header() {
        assert!(read_matrix_market("3 3 0\n".as_bytes()).is_err());
    }

    #[test]
    fn rejects_empty_input_with_location() {
        let err = read_matrix_market("".as_bytes()).unwrap_err();
        assert_eq!(err.parse_location(), Some((1, None)));
        assert!(err.to_string().contains("empty input"));
    }

    #[test]
    fn rejects_array_format() {
        let text = "%%MatrixMarket matrix array real general\n2 2\n1.0\n";
        assert!(read_matrix_market(text.as_bytes()).is_err());
    }

    #[test]
    fn rejects_wrong_count() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 5\n1 1 1.0\n";
        let err = read_matrix_market(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("promised 5"));
    }

    #[test]
    fn rejects_zero_based_indices() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n";
        let err = read_matrix_market(text.as_bytes()).unwrap_err();
        assert_eq!(err.parse_location(), Some((3, Some(1))));
    }

    #[test]
    fn rejects_out_of_bounds_structurally() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        let err = read_matrix_market(text.as_bytes()).unwrap_err();
        assert_eq!(err.kind(), "index_out_of_bounds");
    }

    #[test]
    fn rejects_non_finite_values_with_column() {
        for bad in ["NaN", "inf", "-inf"] {
            let text = format!("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 {bad}\n");
            let err = read_matrix_market(text.as_bytes()).unwrap_err();
            assert_eq!(err.parse_location(), Some((3, Some(5))), "{bad}");
            assert!(err.to_string().contains("non-finite"), "{bad}: {err}");
        }
    }

    #[test]
    fn rejects_dimensions_wider_than_index_at_the_size_line() {
        // Rows beyond 2^32: the entry would otherwise wrap onto row 0.
        let text = "%%MatrixMarket matrix coordinate real general\n\
            5000000000 4 1\n\
            4294967297 1 1.0\n";
        let err = read_matrix_market(text.as_bytes()).unwrap_err();
        assert_eq!(err.parse_location(), Some((2, Some(1))));
        assert!(err.to_string().contains("2^32"), "{err}");
        // 10^12 rows and no entries: rejected before anything sized by the
        // dimensions is allocated. The column names the offending token.
        let text = "%%MatrixMarket matrix coordinate real general\n1000000000000 4 0\n";
        let err = read_matrix_market(text.as_bytes()).unwrap_err();
        assert_eq!(err.parse_location(), Some((2, Some(1))));
        let text = "%%MatrixMarket matrix coordinate real general\n4 1000000000000 0\n";
        let err = read_matrix_market(text.as_bytes()).unwrap_err();
        assert_eq!(err.parse_location(), Some((2, Some(3))));
        // Exactly 2^32 rows is addressable.
        let text =
            "%%MatrixMarket matrix coordinate pattern general\n4294967296 1 1\n4294967296 1\n";
        let coo = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(coo.entries(), &[(u32::MAX, 0, 1.0)]);
    }

    #[test]
    fn bad_coordinate_reports_column() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 x 1.0\n";
        let err = read_matrix_market(text.as_bytes()).unwrap_err();
        assert_eq!(err.parse_location(), Some((3, Some(3))));
    }

    #[test]
    fn truncated_file_reports_missing_size_line() {
        let text = "%%MatrixMarket matrix coordinate real general\n% only comments\n";
        let err = read_matrix_market(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("missing `rows cols nnz`"));
    }

    #[test]
    fn write_read_round_trip() {
        let coo = read_matrix_market(SAMPLE.as_bytes()).unwrap();
        let mut buf = Vec::new();
        write_matrix_market(&mut buf, &coo).unwrap();
        let back = read_matrix_market(buf.as_slice()).unwrap();
        assert_eq!(coo, back);
    }

    #[test]
    fn round_trip_preserves_precision() {
        let mut coo = Coo::new(1, 1);
        coo.push(0, 0, 0.1 + 0.2); // not exactly representable in short decimal
        let mut buf = Vec::new();
        write_matrix_market(&mut buf, &coo).unwrap();
        let back = read_matrix_market(buf.as_slice()).unwrap();
        assert_eq!(coo.entries()[0].2, back.entries()[0].2);
    }

    #[test]
    fn token_columns_are_one_based_chars() {
        let toks = tokens("  10  x\t3.5");
        assert_eq!(toks, vec![(3, "10"), (7, "x"), (9, "3.5")]);
    }
}
