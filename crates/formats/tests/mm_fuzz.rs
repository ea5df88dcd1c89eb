//! Deterministic fuzz loop over the Matrix Market reader: every truncation
//! of valid texts, and mutants with flipped bytes, deleted spans, inserted
//! digits, signs, out-of-range numbers, whitespace and invalid UTF-8. The
//! reader must return a matrix or a `FormatError`, never panic, and a
//! matrix keeps every entry in bounds. Cases are seeded draws (via-rng),
//! so a failure names a reproducible case and prints the input.

use std::panic::{catch_unwind, AssertUnwindSafe};
use via_formats::mm;
use via_rng::{cases, mutate};

const VALID: [&str; 5] = [
    "%%MatrixMarket matrix coordinate real general\n% a comment\n\
     3 3 4\n1 1 1.5\n2 3 -2.0\n3 1 4.0e-3\n3 3 0.5\n",
    "%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n1 1 1.0\n2 1 5.0\n3 2 -7.25\n",
    "%%MatrixMarket matrix coordinate pattern general\n\n2 4 2\n2 2\n1 4\n",
    "%%MatrixMarket matrix coordinate integer general\r\n2 2 2\r\n1 2 -3\r\n2 1 +4\r\n",
    "%%MatrixMarket matrix coordinate real general\n4294967296 1 1\n4294967296 1 1\n",
];

/// Whether `bytes` parsed. Fails the test, naming `case` and the input,
/// if the reader panics or returns an entry outside the matrix.
fn parses(case: &str, bytes: &[u8]) -> bool {
    let text = String::from_utf8_lossy(bytes);
    let read = catch_unwind(AssertUnwindSafe(|| mm::read_matrix_market(bytes)))
        .unwrap_or_else(|_| panic!("{case}: reader panicked on {text:?}"));
    let Ok(coo) = read else {
        return false;
    };
    let in_bounds = |&(r, c, v): &(u32, u32, f64)| {
        (r as usize) < coo.rows() && (c as usize) < coo.cols() && v.is_finite()
    };
    assert!(coo.entries().iter().all(in_bounds), "{case}: {text:?}");
    true
}

#[test]
fn every_truncation_is_a_matrix_or_an_error() {
    for (i, text) in VALID.iter().enumerate() {
        for cut in 0..=text.len() {
            let parsed = parses(&format!("text {i} cut at {cut}"), &text.as_bytes()[..cut]);
            assert!(parsed || cut < text.len(), "text {i} parses whole");
        }
    }
}

#[test]
fn mutated_texts_are_a_matrix_or_an_error() {
    let mut parsed = 0;
    for (i, text) in VALID.iter().enumerate() {
        cases(10_000, 0x3F00 + i as u64, |case, rng| {
            let mut bytes = mutate(text.as_bytes(), rng);
            if rng.random::<bool>() {
                bytes = mutate(&bytes, rng);
            }
            parsed += usize::from(parses(&format!("text {i} case {case}"), &bytes));
        });
    }
    // Both outcomes occur (about 1% of the mutants still parse).
    assert!(parsed > 0 && parsed < 50_000, "{parsed} of 50000 parsed");
}
