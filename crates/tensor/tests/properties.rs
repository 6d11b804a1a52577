//! Property-based tests for the tensor kernels.

use insitu_tensor::{
    col2im, conv2d_backward_ws, conv2d_forward_ws, im2col, matmul, matmul_naive, matmul_nt,
    matmul_tn, matvec, num_threads, set_num_threads, ConvGeometry, ConvWorkspace, Rng, Shape,
    Tensor,
};
use proptest::prelude::*;
use std::sync::Mutex;

/// Serializes tests that sweep the global kernel thread count. (The
/// count never affects results — that is what these tests prove — but
/// each sweep needs a stable setting while it computes.)
static THREADS_LOCK: Mutex<()> = Mutex::new(());

fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let _guard = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prev = num_threads();
    set_num_threads(n);
    let out = f();
    set_num_threads(prev);
    out
}

/// Raw bit patterns — equality here is bitwise, stricter than `==`
/// (which would let `-0.0 == 0.0` slip through).
fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn blocked_gemm_matches_naive(
        m in 1usize..24, k in 1usize..24, n in 1usize..24, seed in 0u64..1000
    ) {
        let mut rng = Rng::seed_from(seed);
        let a = Tensor::rand_uniform([m, k], -2.0, 2.0, &mut rng);
        let b = Tensor::rand_uniform([k, n], -2.0, 2.0, &mut rng);
        let fast = matmul(&a, &b).unwrap();
        let slow = matmul_naive(&a, &b).unwrap();
        prop_assert!(fast.max_abs_diff(&slow).unwrap() < 1e-3);
    }

    #[test]
    fn gemm_distributes_over_addition(seed in 0u64..1000) {
        let mut rng = Rng::seed_from(seed);
        let a = Tensor::rand_uniform([5, 7], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform([7, 3], -1.0, 1.0, &mut rng);
        let c = Tensor::rand_uniform([7, 3], -1.0, 1.0, &mut rng);
        let lhs = matmul(&a, &b.add(&c).unwrap()).unwrap();
        let rhs = matmul(&a, &b).unwrap().add(&matmul(&a, &c).unwrap()).unwrap();
        prop_assert!(lhs.max_abs_diff(&rhs).unwrap() < 1e-3);
    }

    #[test]
    fn tn_and_nt_consistent_with_plain(seed in 0u64..1000) {
        let mut rng = Rng::seed_from(seed);
        let a = Tensor::rand_uniform([6, 4], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform([6, 5], -1.0, 1.0, &mut rng);
        let tn = matmul_tn(&a, &b).unwrap(); // (4, 5)
        let direct = matmul(&a.transpose2d().unwrap(), &b).unwrap();
        prop_assert!(tn.max_abs_diff(&direct).unwrap() < 1e-4);
        let nt = matmul_nt(&tn, &b).unwrap(); // (4,5)x(6,5)ᵀ = (4,6)
        let direct2 = matmul(&tn, &b.transpose2d().unwrap()).unwrap();
        prop_assert!(nt.max_abs_diff(&direct2).unwrap() < 1e-3);
    }

    #[test]
    fn im2col_col2im_adjoint(
        c in 1usize..4, h in 3usize..8, k in 1usize..4, pad in 0usize..2, seed in 0u64..500
    ) {
        prop_assume!(k <= h + 2 * pad);
        let g = ConvGeometry::new(c, h, h, 1, k, 1, pad).unwrap();
        let mut rng = Rng::seed_from(seed);
        let x = Tensor::rand_uniform([c, h, h], -1.0, 1.0, &mut rng);
        let y = Tensor::rand_uniform([g.col_rows(), g.col_cols()], -1.0, 1.0, &mut rng);
        let lhs: f32 = im2col(&x, &g).unwrap().as_slice().iter()
            .zip(y.as_slice()).map(|(&a, &b)| a * b).sum();
        let rhs: f32 = x.as_slice().iter()
            .zip(col2im(&y, &g).unwrap().as_slice()).map(|(&a, &b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()));
    }

    #[test]
    fn shape_offset_unravel_roundtrip(dims in proptest::collection::vec(1usize..6, 1..4)) {
        let s = Shape::new(dims);
        for lin in 0..s.len() {
            let idx = s.unravel(lin);
            prop_assert_eq!(s.offset(&idx).unwrap(), lin);
        }
    }

    #[test]
    fn rng_below_in_range(seed in 0u64..10_000, n in 1usize..1000) {
        let mut rng = Rng::seed_from(seed);
        for _ in 0..16 {
            prop_assert!(rng.below(n) < n);
        }
    }

    #[test]
    fn elementwise_ops_commute_and_associate(seed in 0u64..1000) {
        let mut rng = Rng::seed_from(seed);
        let a = Tensor::rand_uniform([4, 4], -5.0, 5.0, &mut rng);
        let b = Tensor::rand_uniform([4, 4], -5.0, 5.0, &mut rng);
        prop_assert_eq!(a.add(&b).unwrap(), b.add(&a).unwrap());
        prop_assert_eq!(a.mul(&b).unwrap(), b.mul(&a).unwrap());
    }

    #[test]
    fn argmax_is_maximal(v in proptest::collection::vec(-100f32..100.0, 1..64)) {
        let n = v.len();
        let t = Tensor::from_vec([n], v.clone()).unwrap();
        let idx = t.argmax().unwrap();
        let max = t.max().unwrap();
        prop_assert_eq!(v[idx], max);
        prop_assert!(v.iter().all(|&x| x <= max));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// All three GEMM variants must be bitwise identical at 1, 2 and 4
    /// threads. The ranges include degenerate edges (1×1×1) and sizes
    /// straddling the 64-wide cache block.
    #[test]
    fn gemm_bitwise_identical_across_threads(
        m in 1usize..96, k in 1usize..80, n in 1usize..80, seed in 0u64..1000
    ) {
        let mut rng = Rng::seed_from(seed);
        let a = Tensor::rand_uniform([m, k], -2.0, 2.0, &mut rng);
        let b = Tensor::rand_uniform([k, n], -2.0, 2.0, &mut rng);
        let a_tn = Tensor::rand_uniform([k, m], -2.0, 2.0, &mut rng);
        let b_nt = Tensor::rand_uniform([n, k], -2.0, 2.0, &mut rng);
        let x = Tensor::rand_uniform([k], -2.0, 2.0, &mut rng);
        let run = || {
            (
                matmul(&a, &b).unwrap(),
                matmul_tn(&a_tn, &b).unwrap(),
                matmul_nt(&a, &b_nt).unwrap(),
                matvec(&a, &x).unwrap(),
            )
        };
        let reference = with_threads(1, run);
        for threads in [2usize, 4] {
            let got = with_threads(threads, run);
            prop_assert_eq!(bits(&got.0), bits(&reference.0));
            prop_assert_eq!(bits(&got.1), bits(&reference.1));
            prop_assert_eq!(bits(&got.2), bits(&reference.2));
            prop_assert_eq!(bits(&got.3), bits(&reference.3));
        }
    }

    /// Batched conv forward + backward must be bitwise identical at 1, 2
    /// and 4 threads (batch sizes straddle the thread counts).
    #[test]
    fn conv_bitwise_identical_across_threads(
        b in 1usize..9, c in 1usize..3, h in 5usize..11, m in 1usize..9,
        k in 1usize..4, pad in 0usize..2, seed in 0u64..1000
    ) {
        prop_assume!(k <= h + 2 * pad);
        let g = ConvGeometry::new(c, h, h, m, k, 1, pad).unwrap();
        let mut rng = Rng::seed_from(seed);
        let x = Tensor::rand_uniform([b, c, h, h], -1.0, 1.0, &mut rng);
        let w = Tensor::rand_uniform([m, c, k, k], -0.5, 0.5, &mut rng);
        let bias = Tensor::rand_uniform([m], -0.1, 0.1, &mut rng);
        let dout = Tensor::rand_uniform([b, m, g.out_h, g.out_w], -1.0, 1.0, &mut rng);
        let run = || {
            let mut ws = ConvWorkspace::new();
            let y = conv2d_forward_ws(&x, &w, &bias, &g, &mut ws).unwrap();
            let (dx, dw, db) = conv2d_backward_ws(&dout, &w, &g, &mut ws).unwrap();
            (y, dx, dw, db)
        };
        let reference = with_threads(1, run);
        for threads in [2usize, 4] {
            let got = with_threads(threads, run);
            prop_assert_eq!(bits(&got.0), bits(&reference.0));
            prop_assert_eq!(bits(&got.1), bits(&reference.1));
            prop_assert_eq!(bits(&got.2), bits(&reference.2));
            prop_assert_eq!(bits(&got.3), bits(&reference.3));
        }
    }
}

/// Shapes big enough to take the pooled path for real (the property
/// sweep above mostly stays under the work threshold): the im2col GEMMs
/// of the paper-scale networks, plus awkward non-multiples of the cache
/// block and degenerate extremes.
#[test]
fn parallel_gemm_bitwise_on_paper_shapes() {
    let shapes = [
        (24usize, 144usize, 324 * 8usize), // mini_alexnet conv2 im2col, batch 8
        (32, 216, 81 * 8),                 // mini_alexnet conv3 im2col, batch 8
        (130, 65, 67),                     // straddles the 64-wide block
        (1, 300, 1000),                    // single output row
        (257, 1000, 1),                    // single output column
        (1, 1, 1),                         // fully degenerate
    ];
    let mut rng = Rng::seed_from(2024);
    for (m, k, n) in shapes {
        let a = Tensor::rand_uniform([m, k], -2.0, 2.0, &mut rng);
        let b = Tensor::rand_uniform([k, n], -2.0, 2.0, &mut rng);
        let a_tn = Tensor::rand_uniform([k, m], -2.0, 2.0, &mut rng);
        let b_nt = Tensor::rand_uniform([n, k], -2.0, 2.0, &mut rng);
        let run = || {
            (
                matmul(&a, &b).unwrap(),
                matmul_tn(&a_tn, &b).unwrap(),
                matmul_nt(&a, &b_nt).unwrap(),
            )
        };
        let reference = with_threads(1, run);
        for threads in [2usize, 3, 4] {
            let got = with_threads(threads, run);
            assert_eq!(bits(&got.0), bits(&reference.0), "matmul {m}x{k}x{n} @ {threads}");
            assert_eq!(bits(&got.1), bits(&reference.1), "matmul_tn {m}x{k}x{n} @ {threads}");
            assert_eq!(bits(&got.2), bits(&reference.2), "matmul_nt {m}x{k}x{n} @ {threads}");
        }
    }
}

/// Conv at a paper-realistic batch/geometry engages the batch-parallel
/// path; gradients must still match single-threaded bit for bit.
#[test]
fn parallel_conv_bitwise_on_paper_batch() {
    let g = ConvGeometry::new(16, 18, 18, 24, 3, 1, 1).unwrap(); // mini_alexnet conv2
    let b = 8;
    let mut rng = Rng::seed_from(77);
    let x = Tensor::rand_uniform([b, 16, 18, 18], -1.0, 1.0, &mut rng);
    let w = Tensor::rand_uniform([24, 16, 3, 3], -0.2, 0.2, &mut rng);
    let bias = Tensor::rand_uniform([24], -0.1, 0.1, &mut rng);
    let dout = Tensor::rand_uniform([b, 24, 18, 18], -1.0, 1.0, &mut rng);
    let run = || {
        let mut ws = ConvWorkspace::new();
        let y = conv2d_forward_ws(&x, &w, &bias, &g, &mut ws).unwrap();
        let (dx, dw, db) = conv2d_backward_ws(&dout, &w, &g, &mut ws).unwrap();
        (y, dx, dw, db)
    };
    let reference = with_threads(1, run);
    for threads in [2usize, 4] {
        let got = with_threads(threads, run);
        assert_eq!(bits(&got.0), bits(&reference.0), "forward @ {threads}");
        assert_eq!(bits(&got.1), bits(&reference.1), "dinput @ {threads}");
        assert_eq!(bits(&got.2), bits(&reference.2), "dweight @ {threads}");
        assert_eq!(bits(&got.3), bits(&reference.3), "dbias @ {threads}");
    }
}
