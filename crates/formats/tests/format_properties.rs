//! Randomized property tests over the sparse matrix formats: every format
//! must represent exactly the same matrix as the COO it was built from, and
//! the reference kernels must agree with the dense golden model. Cases are
//! deterministic seeded draws (via-rng), so failures name a reproducible
//! case index.

use via_formats::{reference, Coo, Csb, Csc, Csr, DenseMatrix, SellCSigma, Spc5};
use via_rng::{cases, StdRng};

/// An arbitrary small sparse matrix in canonical COO form.
fn arb_coo(rng: &mut StdRng, max_dim: usize, max_nnz: usize) -> Coo {
    let rows = rng.random_range(1..=max_dim);
    let cols = rng.random_range(1..=max_dim);
    let nnz = rng.random_range(0..=max_nnz);
    let entries: Vec<(usize, usize, f64)> = (0..nnz)
        .map(|_| {
            (
                rng.random_range(0..rows),
                rng.random_range(0..cols),
                rng.random_range(-100i32..100) as f64 / 4.0,
            )
        })
        .collect();
    Coo::from_triplets(rows, cols, entries)
        .expect("in bounds")
        .into_canonical()
}

#[test]
fn csr_coo_round_trip() {
    cases(64, 0xF1, |i, rng| {
        let coo = arb_coo(rng, 24, 64);
        let csr = Csr::from_coo(&coo);
        assert_eq!(csr.to_coo(), coo, "case {i}");
    });
}

#[test]
fn csc_represents_same_matrix() {
    cases(64, 0xF2, |i, rng| {
        let coo = arb_coo(rng, 24, 64);
        let csr = Csr::from_coo(&coo);
        let csc = Csc::from_coo(&coo);
        assert_eq!(csc.to_csr(), csr, "case {i}");
        assert_eq!(csr.to_csc(), csc, "case {i}: CSR's own conversion");
    });
}

#[test]
fn csb_round_trip_all_block_sizes() {
    cases(64, 0xF3, |i, rng| {
        let coo = arb_coo(rng, 24, 64);
        let bs = 1usize << rng.random_range(0u32..5);
        let csb = Csb::from_coo(&coo, bs).unwrap();
        assert_eq!(csb.nnz(), coo.nnz(), "case {i}");
        assert_eq!(csb.to_coo(), coo, "case {i}");
    });
}

#[test]
fn sell_spmv_matches_reference() {
    cases(64, 0xF4, |i, rng| {
        let coo = arb_coo(rng, 24, 64);
        let c = rng.random_range(1usize..8);
        let csr = Csr::from_coo(&coo);
        let sigma = c * 2;
        let sell = SellCSigma::from_csr(&csr, c, sigma).unwrap();
        let x: Vec<f64> = (0..csr.cols()).map(|j| (j % 7) as f64 - 3.0).collect();
        let expected = reference::spmv(&csr, &x);
        let got = sell.spmv(&x);
        assert!(
            via_formats::vec_approx_eq(&got, &expected, 1e-9),
            "case {i}"
        );
    });
}

#[test]
fn spc5_spmv_matches_reference() {
    cases(64, 0xF5, |i, rng| {
        let coo = arb_coo(rng, 24, 64);
        let h = rng.random_range(1usize..=8);
        let csr = Csr::from_coo(&coo);
        let spc5 = Spc5::from_csr(&csr, h).unwrap();
        assert_eq!(spc5.nnz(), csr.nnz(), "case {i}");
        let x: Vec<f64> = (0..csr.cols()).map(|j| (j % 5) as f64 * 0.5).collect();
        let expected = reference::spmv(&csr, &x);
        let got = spc5.spmv(&x);
        assert!(
            via_formats::vec_approx_eq(&got, &expected, 1e-9),
            "case {i}"
        );
    });
}

#[test]
fn spmv_matches_dense() {
    cases(64, 0xF6, |i, rng| {
        let coo = arb_coo(rng, 16, 48);
        let csr = Csr::from_coo(&coo);
        let x: Vec<f64> = (0..csr.cols()).map(|j| j as f64 * 0.25 - 1.0).collect();
        let dense = DenseMatrix::from_coo(&coo);
        assert!(
            via_formats::vec_approx_eq(&reference::spmv(&csr, &x), &dense.matvec(&x), 1e-9),
            "case {i}"
        );
    });
}

#[test]
fn spma_matches_dense() {
    cases(48, 0xF7, |i, rng| {
        let a = arb_coo(rng, 16, 48);
        let b = arb_coo(rng, 16, 48);
        // Force equal shapes by embedding both into the max shape.
        let rows = a.rows().max(b.rows());
        let cols = a.cols().max(b.cols());
        let embed = |m: &Coo| {
            Coo::from_triplets(
                rows,
                cols,
                m.entries()
                    .iter()
                    .map(|&(r, c, v)| (r as usize, c as usize, v)),
            )
            .unwrap()
            .into_canonical()
        };
        let (a, b) = (embed(&a), embed(&b));
        let (ca, cb) = (Csr::from_coo(&a), Csr::from_coo(&b));
        let c = reference::spma(&ca, &cb).unwrap();
        let expected = DenseMatrix::from_coo(&a).add(&DenseMatrix::from_coo(&b));
        assert!(
            DenseMatrix::from_csr(&c).approx_eq(&expected, 1e-9),
            "case {i}"
        );
    });
}

#[test]
fn spmm_matches_dense_and_gustavson() {
    cases(48, 0xF8, |i, rng| {
        let a = arb_coo(rng, 12, 32);
        let b = arb_coo(rng, 12, 32);
        // Make shapes compatible: a is rows x k, b is k x cols.
        let k = a.cols().max(b.rows());
        let a = Coo::from_triplets(
            a.rows(),
            k,
            a.entries()
                .iter()
                .map(|&(r, c, v)| (r as usize, c as usize, v)),
        )
        .unwrap()
        .into_canonical();
        let b = Coo::from_triplets(
            k,
            b.cols(),
            b.entries()
                .iter()
                .map(|&(r, c, v)| (r as usize, c as usize, v)),
        )
        .unwrap()
        .into_canonical();
        let ca = Csr::from_coo(&a);
        let cb = Csr::from_coo(&b);
        let inner = reference::spmm(&ca, &cb.to_csc()).unwrap();
        let expected = DenseMatrix::from_coo(&a).matmul(&DenseMatrix::from_coo(&b));
        assert!(
            DenseMatrix::from_csr(&inner).approx_eq(&expected, 1e-9),
            "case {i}"
        );
        let gust = reference::spmm_gustavson(&ca, &cb).unwrap();
        assert!(
            DenseMatrix::from_csr(&gust).approx_eq(&expected, 1e-9),
            "case {i}"
        );
    });
}

#[test]
fn matrix_market_round_trip() {
    cases(64, 0xF9, |i, rng| {
        let coo = arb_coo(rng, 24, 64);
        let mut buf = Vec::new();
        via_formats::mm::write_matrix_market(&mut buf, &coo).unwrap();
        let back = via_formats::mm::read_matrix_market(buf.as_slice()).unwrap();
        assert_eq!(back, coo, "case {i}");
    });
}

#[test]
fn csb_block_density_at_least_one_when_nonempty() {
    cases(64, 0xFA, |i, rng| {
        let coo = arb_coo(rng, 24, 64);
        if coo.nnz() == 0 {
            return;
        }
        let csb = Csb::from_coo(&coo, 4).unwrap();
        assert!(csb.mean_block_density() >= 1.0, "case {i}");
        assert!(csb.occupied_blocks() <= coo.nnz(), "case {i}");
    });
}

#[test]
fn transpose_preserves_nnz_and_values() {
    cases(64, 0xFB, |i, rng| {
        let coo = arb_coo(rng, 24, 64);
        let t = coo.transpose();
        assert_eq!(t.nnz(), coo.nnz(), "case {i}");
        let sum: f64 = coo.entries().iter().map(|e| e.2).sum();
        let tsum: f64 = t.entries().iter().map(|e| e.2).sum();
        assert!((sum - tsum).abs() < 1e-9, "case {i}");
    });
}
