//! Per-matrix operand derivation: one corpus matrix serves every kernel.

use via_formats::{gen, reference, Csc, Csr};

/// Every operand the generator's kernels need, derived deterministically
/// from one corpus matrix and a seed — so a single matrix sweep tunes the
/// whole portfolio and two tuner runs over the same corpus see identical
/// inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct GenInputs {
    /// Corpus matrix name (carried into tuner records).
    pub name: String,
    /// Seed the dense operands were drawn from.
    pub seed: u64,
    /// The corpus matrix itself — SpMV's and SpMM's left operand.
    pub a: Csr,
    /// SpMV's dense operand vector (length `a.cols()`).
    pub x: Vec<f64>,
    /// SpMM's right operand: `a`'s own CSC when square (self-product,
    /// the graph two-hop pattern), else a density-matched random matrix
    /// with compatible dimensions.
    pub b_mat: Csc,
    /// SpTRSV's lower-triangular system, `gen::make_lower_triangular(a)`.
    pub l: Csr,
    /// SymGS's diagonally dominant system,
    /// `gen::make_diagonally_dominant(a)`.
    pub sym: Csr,
    /// Right-hand side shared by SpTRSV and SymGS (length `l.rows()`).
    pub rhs: Vec<f64>,
    /// SymGS's initial guess (length `sym.rows()`).
    pub x0: Vec<f64>,
}

impl GenInputs {
    /// Derives the full operand set from `a`. Deterministic in
    /// `(a, seed)`; `name` is only a label.
    pub fn from_matrix(name: &str, a: &Csr, seed: u64) -> Self {
        let b_mat = if a.rows() == a.cols() {
            a.to_csc()
        } else {
            gen::uniform(
                a.cols(),
                a.rows(),
                a.density().clamp(0.005, 0.2),
                seed ^ 0xB,
            )
            .to_csc()
        };
        let l = gen::make_lower_triangular(a);
        let sym = gen::make_diagonally_dominant(a);
        let n = l.rows();
        GenInputs {
            name: name.to_string(),
            seed,
            a: a.clone(),
            x: gen::dense_vector(a.cols(), seed),
            b_mat,
            l,
            sym,
            rhs: gen::dense_vector(n, seed.wrapping_add(1)),
            x0: gen::dense_vector(n, seed.wrapping_add(2)),
        }
    }

    /// The golden result for `kernel` on these inputs, from the dense
    /// reference models — every variant of a kernel must reproduce it
    /// exactly (the tuner refuses to rank a variant that doesn't).
    pub fn expected(&self, kernel: crate::Kernel) -> GenOutput {
        match kernel {
            crate::Kernel::Spmv => GenOutput::Vector(reference::spmv(&self.a, &self.x)),
            crate::Kernel::Spmm => GenOutput::Matrix(
                reference::spmm(&self.a, &self.b_mat).expect("dimensions agree by construction"),
            ),
            crate::Kernel::Sptrsv => GenOutput::Vector(reference::sptrsv(&self.l, &self.rhs)),
            crate::Kernel::Symgs => {
                let mut x = self.x0.clone();
                reference::symgs(&self.sym, &self.rhs, &mut x);
                GenOutput::Vector(x)
            }
        }
    }
}

/// A kernel's functional result — vector-valued for SpMV/SpTRSV/SymGS,
/// matrix-valued for SpMA/SpMM (a generated variant's, or a leg of one of
/// `via-bench`'s paper kernel pairs).
#[derive(Debug, Clone, PartialEq)]
pub enum GenOutput {
    /// A dense output vector.
    Vector(Vec<f64>),
    /// A sparse output matrix.
    Matrix(Csr),
}

impl GenOutput {
    /// The vector payload, or a panic for matrix-valued outputs.
    pub fn as_vector(&self) -> &[f64] {
        match self {
            GenOutput::Vector(v) => v,
            GenOutput::Matrix(_) => panic!("matrix-valued output"),
        }
    }

    /// The matrix payload, or a panic for vector-valued outputs.
    pub fn as_matrix(&self) -> &Csr {
        match self {
            GenOutput::Matrix(m) => m,
            GenOutput::Vector(_) => panic!("vector-valued output"),
        }
    }
}
