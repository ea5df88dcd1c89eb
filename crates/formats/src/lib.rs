//! Sparse matrix formats, generators, and I/O for the VIA reproduction.
//!
//! This crate provides every sparse matrix representation the VIA paper
//! (Pavón et al., HPCA 2021) evaluates:
//!
//! * [`Coo`] — triplet form, the universal construction/interchange format.
//! * [`Csr`] / [`Csc`] — compressed sparse row/column, the baseline formats
//!   used by Eigen-style kernels (paper §II-A).
//! * [`Csb`] — compressed sparse blocks (Buluç et al.), the format VIA's
//!   `vldxblkmult` instruction targets (paper §II-B).
//! * [`SellCSigma`] — the Sell-C-σ SIMD-friendly sliced-ELL format.
//! * [`Spc5`] — an SPC5-style row-block/bitmask format (Bramas et al.).
//!
//! It also contains deterministic synthetic matrix [`gen`]erators standing in
//! for the SuiteSparse collection (documented substitution — see DESIGN.md),
//! [Matrix Market](mm) I/O so real SuiteSparse files can be used when
//! available, category bucketing and geomeans in [`stats`], and dense
//! [`reference`](mod@reference) kernels that every simulated kernel is
//! validated against.
//!
//! # Example
//!
//! ```
//! use via_formats::{Coo, Csr};
//!
//! let mut coo = Coo::new(3, 3);
//! coo.push(0, 0, 1.0);
//! coo.push(1, 2, 2.0);
//! coo.push(2, 1, 3.0);
//! let csr = Csr::from_coo(&coo);
//! let y = via_formats::reference::spmv(&csr, &[1.0, 1.0, 1.0]);
//! assert_eq!(y, vec![1.0, 2.0, 3.0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coo;
mod csb;
mod csc;
mod csr;
mod dense;
mod error;
pub mod gen;
pub mod levels;
pub mod mm;
pub mod reference;
mod sell;
mod spc5;
pub mod stats;

pub use coo::Coo;
pub use csb::{Csb, CsbBlock};
pub use csc::Csc;
pub use csr::Csr;
pub use dense::{vec_approx_eq, DenseMatrix};
pub use error::FormatError;
pub use levels::LevelSchedule;
pub use sell::SellCSigma;
pub use spc5::{Spc5, Spc5Segment};

/// Numeric value type used throughout the reproduction (the paper evaluates
/// real-valued matrices).
pub type Value = f64;

/// Storage index type for row/column indices (4-byte indices, as the paper's
/// formats assume).
pub type Index = u32;
