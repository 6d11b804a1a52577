//! Scalar↔SIMD equivalence for every dispatched op.
//!
//! The scalar body of each [`SimdOp`] is the reference semantics;
//! these properties hold every other runnable body
//! ([`Isa::supported`]) to it **bitwise** (compared via `to_bits`)
//! across ragged shapes and 1/2/4 threads, per the policy in
//! `insitu_tensor::simd`: relu forward / train / backward, clamp,
//! affine, quantize_i8, max_abs, max_abs_diff, sum8, softmax, maxpool
//! values *and* argmax, and the f32 / i8 index gathers. Softmax is
//! additionally checked against a plain libm reference within 1e-6
//! absolute, pinning the documented accuracy of its polynomial `exp`.
//!
//! Beyond scalar↔vector, `cross_isa_all_pairs_bitwise` holds every
//! *pair* of host-supported ISAs to each other at 1/2/4 threads, and
//! prints a `skipped:` note for universe ISAs the host cannot run.
//!
//! CI runs this suite several times: with auto detection, with
//! `INSITU_SIMD=scalar` (which `dispatch_env_override_is_honored`
//! checks is actually in force), and — where the host supports it —
//! with `INSITU_SIMD=avx512`.

use insitu_tensor::simd::{
    dispatch_on, simd_isa_name, Affine, Clamp, GatherF32, GatherI8, Isa, MaxAbs, MaxAbsDiff,
    MaxPool2d, MinMax, QuantizeI8, Relu, ReluBackward, ReluTrain, SoftmaxRows, Sum8,
    GATHER_I8_SLACK, ISA_NAMES,
};
use insitu_tensor::{
    conv2d_forward_i8_ws, conv2d_forward_ws, maxpool2d_forward, num_threads, set_num_threads,
    ConvGeometry, ConvWorkspace, PoolGeometry, QuantizedMatrix, Rng, Tensor, TensorError,
};
use proptest::prelude::*;
use std::sync::Mutex;

/// Serializes tests that sweep the global kernel thread count.
static THREADS_LOCK: Mutex<()> = Mutex::new(());

fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let _guard = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prev = num_threads();
    set_num_threads(n);
    let out = f();
    set_num_threads(prev);
    out
}

/// Values with sign changes, exact zeros (both signs) and magnitude
/// spread down to the denormal range, from the repo's seeded RNG.
fn values(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = Rng::seed_from(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
    (0..len)
        .map(|_| match rng.below(8) {
            0 => 0.0,
            1 => -0.0,
            2 => rng.uniform(-1e-30, 1e-30),
            _ => rng.uniform(-100.0, 100.0),
        })
        .collect()
}

/// A gather table over a source of `src_len` elements: every third
/// entry −1 (a padding tap), the rest uniform over the source.
fn gather_table(len: usize, src_len: usize, seed: u64) -> Vec<i32> {
    let mut rng = Rng::seed_from(seed);
    (0..len)
        .map(|_| if rng.below(3) == 0 || src_len == 0 { -1 } else { rng.below(src_len) as i32 })
        .collect()
}

/// `src` quantized, followed by the slack the i8 gather requires.
fn quantized_with_slack(src: &[f32], inv_scale: f32) -> Vec<i8> {
    let mut q = vec![0i8; src.len() + GATHER_I8_SLACK];
    dispatch_on(Isa::Scalar, QuantizeI8 { src, inv_scale, dst: &mut q[..src.len()] });
    q
}

fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}]: {x} vs {y}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn relu_eval_bitwise(n in 0usize..300, seed in 0u64..1000) {
        let src = values(n, seed);
        let mut oracle = src.clone();
        dispatch_on(Isa::Scalar, Relu { buf: &mut oracle });
        for isa in Isa::supported() {
            let mut got = src.clone();
            dispatch_on(isa, Relu { buf: &mut got });
            assert_bits_eq(&got, &oracle, isa.name());
        }
    }

    #[test]
    fn relu_train_and_backward_bitwise(n in 0usize..300, seed in 0u64..1000) {
        let src = values(n, seed);
        let grad = values(n, seed.wrapping_add(7001));
        let (src, grad) = (&src[..], &grad[..]);
        let mut obuf = src.to_vec();
        let mut omask = vec![0u8; n.div_ceil(8)];
        dispatch_on(Isa::Scalar, ReluTrain { buf: &mut obuf, mask: &mut omask });
        let mut ograd = grad.to_vec();
        dispatch_on(Isa::Scalar, ReluBackward { grad: &mut ograd, mask: &omask });
        for isa in Isa::supported() {
            let mut buf = src.to_vec();
            let mut mask = vec![0u8; n.div_ceil(8)];
            dispatch_on(isa, ReluTrain { buf: &mut buf, mask: &mut mask });
            assert_bits_eq(&buf, &obuf, "relu_train values");
            prop_assert!(mask == omask, "relu_train mask @ {}", isa.name());
            let mut g = grad.to_vec();
            dispatch_on(isa, ReluBackward { grad: &mut g, mask: &mask });
            assert_bits_eq(&g, &ograd, "relu_backward");
        }
    }

    #[test]
    fn affine_and_clamp_bitwise(
        n in 0usize..300,
        seed in 0u64..1000,
        gain in -3.0f32..3.0,
        bias in -1.0f32..1.0,
    ) {
        let src = values(n, seed);
        let mut oracle = src.clone();
        dispatch_on(Isa::Scalar, Affine { buf: &mut oracle, gain, bias });
        dispatch_on(Isa::Scalar, Clamp { buf: &mut oracle, lo: 0.0, hi: 1.0 });
        for isa in Isa::supported() {
            let mut got = src.clone();
            dispatch_on(isa, Affine { buf: &mut got, gain, bias });
            dispatch_on(isa, Clamp { buf: &mut got, lo: 0.0, hi: 1.0 });
            assert_bits_eq(&got, &oracle, isa.name());
        }
    }

    #[test]
    fn quantize_i8_bitwise(
        n in 0usize..300,
        seed in 0u64..1000,
        scale in 1e-3f32..10.0,
    ) {
        let src = values(n, seed);
        let mut oracle = vec![0i8; src.len()];
        dispatch_on(
            Isa::Scalar,
            QuantizeI8 { src: &src, inv_scale: 1.0 / scale, dst: &mut oracle },
        );
        for isa in Isa::supported() {
            let mut got = vec![0i8; src.len()];
            dispatch_on(isa, QuantizeI8 { src: &src, inv_scale: 1.0 / scale, dst: &mut got });
            prop_assert!(got == oracle, "quantize_i8 @ {}", isa.name());
        }
    }

    #[test]
    fn gathers_bitwise(n in 0usize..300, src_len in 0usize..200, seed in 0u64..1000) {
        let src = values(src_len, seed);
        let qsrc = quantized_with_slack(&src, 0.5);
        let idx = gather_table(n, src_len, seed);
        let mut oracle = vec![0f32; n];
        dispatch_on(Isa::Scalar, GatherF32 { src: &src, idx: &idx, dst: &mut oracle });
        let mut qoracle = vec![0i8; n];
        dispatch_on(Isa::Scalar, GatherI8 { src: &qsrc, idx: &idx, dst: &mut qoracle });
        for isa in Isa::supported() {
            let mut got = vec![f32::NAN; n];
            dispatch_on(isa, GatherF32 { src: &src, idx: &idx, dst: &mut got });
            assert_bits_eq(&got, &oracle, isa.name());
            let mut qgot = vec![i8::MIN; n];
            dispatch_on(isa, GatherI8 { src: &qsrc, idx: &idx, dst: &mut qgot });
            prop_assert!(qgot == qoracle, "gather_i8 @ {}", isa.name());
        }
    }

    #[test]
    fn reductions_match_scalar(n in 1usize..300, seed in 0u64..1000) {
        let a = values(n, seed);
        let b = values(n, seed.wrapping_add(7919));
        let (a, b) = (&a[..], &b[..]);
        let o_abs = dispatch_on(Isa::Scalar, MaxAbs { src: a });
        let o_diff = dispatch_on(Isa::Scalar, MaxAbsDiff { a, b });
        let o_sum = dispatch_on(Isa::Scalar, Sum8 { src: a });
        let o_mm = dispatch_on(Isa::Scalar, MinMax { src: a });
        for isa in Isa::supported() {
            prop_assert_eq!(dispatch_on(isa, MaxAbs { src: a }).to_bits(), o_abs.to_bits());
            prop_assert_eq!(dispatch_on(isa, MaxAbsDiff { a, b }).to_bits(), o_diff.to_bits());
            prop_assert_eq!(dispatch_on(isa, Sum8 { src: a }).to_bits(), o_sum.to_bits());
            // min/max: value-exact (±0 sign may legally differ).
            prop_assert_eq!(dispatch_on(isa, MinMax { src: a }), o_mm);
        }
    }

    #[test]
    fn softmax_bitwise_and_near_libm(
        rows in 0usize..24,
        k in 1usize..40,
        seed in 0u64..1000,
    ) {
        let mut rng = Rng::seed_from(seed);
        let src: Vec<f32> = (0..rows * k).map(|_| rng.uniform(-12.0, 12.0)).collect();
        let mut oracle = src.clone();
        dispatch_on(Isa::Scalar, SoftmaxRows { buf: &mut oracle, k });
        for isa in Isa::supported() {
            let mut got = src.clone();
            dispatch_on(isa, SoftmaxRows { buf: &mut got, k });
            assert_bits_eq(&got, &oracle, isa.name());
        }
        // Documented accuracy: the polynomial exp keeps probabilities
        // within 1e-6 absolute of a plain libm softmax.
        for (row, orow) in src.chunks(k).zip(oracle.chunks(k)) {
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let exps: Vec<f32> = row.iter().map(|v| (v - max).exp()).collect();
            let sum: f32 = exps.iter().sum();
            for (i, (e, o)) in exps.iter().zip(orow).enumerate() {
                prop_assert!(
                    (e / sum - o).abs() <= 1e-6,
                    "softmax[{}] {} vs libm {}", i, o, e / sum
                );
            }
        }
    }

    #[test]
    fn maxpool_bitwise_across_geometries(
        b in 1usize..3,
        c in 1usize..3,
        hw_pick in 0usize..6,
        ws_pick in 0usize..3,
        seed in 0u64..1000,
    ) {
        const HW: [(usize, usize); 6] = [(4, 4), (5, 7), (16, 16), (17, 19), (36, 36), (37, 18)];
        const WS: [(usize, usize); 3] = [(2, 2), (3, 2), (2, 1)];
        let (h, w) = HW[hw_pick];
        let (window, stride) = WS[ws_pick];
        prop_assume!(window <= h && window <= w);
        let g = PoolGeometry::new(c, h, w, window, stride).unwrap();
        let mut rng = Rng::seed_from(seed);
        let x: Vec<f32> = (0..b * c * h * w).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let out_len = b * c * g.out_h * g.out_w;
        let mut o_out = vec![0f32; out_len];
        let mut o_arg = vec![0usize; out_len];
        dispatch_on(
            Isa::Scalar,
            MaxPool2d { x: &x, g, planes: b * c, out: &mut o_out, argmax: &mut o_arg },
        );
        for isa in Isa::supported() {
            let mut out = vec![0f32; out_len];
            let mut arg = vec![0usize; out_len];
            dispatch_on(
                isa,
                MaxPool2d { x: &x, g, planes: b * c, out: &mut out, argmax: &mut arg },
            );
            assert_bits_eq(&out, &o_out, "maxpool values");
            prop_assert!(arg == o_arg, "maxpool argmax @ {}", isa.name());
        }
    }
}

/// Large enough to cross the parallel-split threshold: every op must
/// produce identical bits at 1, 2 and 4 threads on every runnable ISA.
#[test]
fn thread_count_never_changes_bits() {
    let mut rng = Rng::seed_from(77);
    let n: usize = 300_000;
    let src: Vec<f32> = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();
    let grad: Vec<f32> = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();
    // Softmax: enough rows × width to split; narrow (paper head
    // width, gather path) and wide (row-at-a-time path).
    let k = 10;
    let soft: Vec<f32> = (0..4096 * k).map(|_| rng.uniform(-12.0, 12.0)).collect();
    let kw = 24;
    let soft_w: Vec<f32> = (0..2048 * kw).map(|_| rng.uniform(-12.0, 12.0)).collect();
    for isa in Isa::supported() {
        let run = |threads: usize| {
            with_threads(threads, || {
                let mut relu = src.clone();
                let mut mask = vec![0u8; n.div_ceil(8)];
                dispatch_on(isa, ReluTrain { buf: &mut relu, mask: &mut mask });
                let mut g = grad.clone();
                dispatch_on(isa, ReluBackward { grad: &mut g, mask: &mask });
                let mut q = vec![0i8; n];
                dispatch_on(isa, QuantizeI8 { src: &src, inv_scale: 93.7, dst: &mut q });
                let mut sm = soft.clone();
                dispatch_on(isa, SoftmaxRows { buf: &mut sm, k });
                let mut smw = soft_w.clone();
                dispatch_on(isa, SoftmaxRows { buf: &mut smw, k: kw });
                (relu, mask, g, q, sm, smw)
            })
        };
        let base = run(1);
        for threads in [2usize, 4] {
            let got = run(threads);
            assert_eq!(got.1, base.1, "mask @ t{threads} {}", isa.name());
            assert_eq!(got.3, base.3, "quantize @ t{threads} {}", isa.name());
            for (name, a, b) in [
                ("relu", &got.0, &base.0),
                ("relu_bwd", &got.2, &base.2),
                ("softmax", &got.4, &base.4),
                ("softmax_wide", &got.5, &base.5),
            ] {
                assert_bits_eq(a, b, &format!("{name} @ t{threads} {}", isa.name()));
            }
        }
    }
}

/// Maxpool at a parallel-sized shape: the public entry point must be
/// thread-invariant too (values and argmax).
#[test]
fn maxpool_thread_invariance_at_scale() {
    let g = PoolGeometry::new(32, 64, 64, 2, 2).unwrap();
    let mut rng = Rng::seed_from(78);
    let x = Tensor::rand_uniform([8, 32, 64, 64], -1.0, 1.0, &mut rng);
    let (base_y, base_arg) = with_threads(1, || maxpool2d_forward(&x, &g).unwrap());
    for threads in [2usize, 4] {
        let (y, arg) = with_threads(threads, || maxpool2d_forward(&x, &g).unwrap());
        assert_bits_eq(y.as_slice(), base_y.as_slice(), "maxpool values");
        assert_eq!(arg, base_arg, "maxpool argmax @ t{threads}");
    }
}

/// Special values: NaN, infinities and -0.0 follow the scalar oracle
/// bit for bit through the bitwise ops.
#[test]
fn special_values_follow_the_oracle() {
    let src = vec![
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        -0.0,
        0.0,
        1.5,
        -1.5,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        f32::MAX,
        f32::MIN,
        42.0,
        -42.0,
        7.25,
        -7.25,
        1e-40,
        -1e-40,
    ];
    let mut o_relu = src.clone();
    let mut o_mask = vec![0u8; src.len().div_ceil(8)];
    dispatch_on(Isa::Scalar, ReluTrain { buf: &mut o_relu, mask: &mut o_mask });
    let mut o_clamp = src.clone();
    dispatch_on(Isa::Scalar, Clamp { buf: &mut o_clamp, lo: 0.0, hi: 1.0 });
    let mut o_q = vec![0i8; src.len()];
    dispatch_on(Isa::Scalar, QuantizeI8 { src: &src, inv_scale: 2.0, dst: &mut o_q });
    let o_abs = dispatch_on(Isa::Scalar, MaxAbs { src: &src });
    assert_eq!(o_q[0], 0, "NaN must quantize to 0");
    assert_eq!(o_q[1], 127, "inf must saturate to 127");
    assert_eq!(o_q[2], -127, "-inf must saturate to -127");
    assert!(o_abs.is_finite(), "max_abs must skip non-finite values");
    for isa in Isa::supported() {
        let mut relu = src.clone();
        let mut mask = vec![0u8; src.len().div_ceil(8)];
        dispatch_on(isa, ReluTrain { buf: &mut relu, mask: &mut mask });
        assert_bits_eq(&relu, &o_relu, "relu specials");
        assert_eq!(mask, o_mask, "relu mask specials @ {}", isa.name());
        let mut cl = src.clone();
        dispatch_on(isa, Clamp { buf: &mut cl, lo: 0.0, hi: 1.0 });
        assert_bits_eq(&cl, &o_clamp, "clamp specials");
        let mut q = vec![0i8; src.len()];
        dispatch_on(isa, QuantizeI8 { src: &src, inv_scale: 2.0, dst: &mut q });
        assert_eq!(q, o_q, "quantize specials @ {}", isa.name());
        assert_eq!(
            dispatch_on(isa, MaxAbs { src: &src }).to_bits(),
            o_abs.to_bits(),
            "max_abs specials @ {}",
            isa.name()
        );
    }
    gathers_follow_the_oracle_on_special_values(&src);
}

/// The gathers move bits: NaN payloads (quiet and signalling), ±0 and
/// ±inf arrive unchanged, −1 entries read as zero, and an index past
/// the end panics on every ISA alike. For the i8 gather "past the end"
/// includes the slack: the last byte of an exactly-sized source is not
/// indexable, the same byte with the slack after it is.
fn gathers_follow_the_oracle_on_special_values(specials: &[f32]) {
    let mut src = specials.to_vec();
    src.extend([
        f32::from_bits(0x7fc0_1234),
        f32::from_bits(0xff80_0001),
        f32::from_bits(0x7f80_0042),
    ]);
    // Every source element twice, −1 between runs, length not a
    // multiple of any vector width.
    let mut idx: Vec<i32> = (0..src.len() as i32).chain((0..src.len() as i32).rev()).collect();
    for i in (0..idx.len()).step_by(5) {
        idx.insert(i, -1);
    }
    let mut oracle = vec![0f32; idx.len()];
    dispatch_on(Isa::Scalar, GatherF32 { src: &src, idx: &idx, dst: &mut oracle });
    for (&i, &v) in idx.iter().zip(&oracle) {
        let want = if i < 0 { 0 } else { src[i as usize].to_bits() };
        assert_eq!(v.to_bits(), want, "scalar gather of index {i}");
    }
    let bytes: Vec<i8> = (0..src.len()).map(|i| (i as i8).wrapping_mul(37)).collect();
    let mut exact = bytes.clone();
    exact.extend([0; GATHER_I8_SLACK]);
    let mut qoracle = vec![0i8; idx.len()];
    dispatch_on(Isa::Scalar, GatherI8 { src: &exact, idx: &idx, dst: &mut qoracle });
    // Whole vector blocks only (16 = one AVX-512 or two AVX2 blocks), so
    // the vector bodies' own index checks are what must catch the end.
    let last = [bytes.len() as i32 - 1; 16];
    for isa in Isa::supported() {
        let mut got = vec![1f32; idx.len()];
        dispatch_on(isa, GatherF32 { src: &src, idx: &idx, dst: &mut got });
        assert_bits_eq(&got, &oracle, &format!("gather specials @ {}", isa.name()));
        let mut qgot = vec![1i8; idx.len()];
        dispatch_on(isa, GatherI8 { src: &exact, idx: &idx, dst: &mut qgot });
        assert_eq!(qgot, qoracle, "gather_i8 specials @ {}", isa.name());
        // The last byte with its slack: fine.
        let mut q = [0i8; 16];
        dispatch_on(isa, GatherI8 { src: &exact, idx: &last, dst: &mut q });
        assert_eq!(q, [bytes[bytes.len() - 1]; 16], "last byte @ {}", isa.name());
        let panics =
            |f: &dyn Fn()| std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err();
        // The same byte at the very end of the source: no slack.
        assert!(
            panics(&|| dispatch_on(isa, GatherI8 { src: &bytes, idx: &last, dst: &mut [0; 16] })),
            "gather_i8 without slack must panic @ {}",
            isa.name()
        );
        let past = [src.len() as i32; 16];
        assert!(
            panics(&|| dispatch_on(isa, GatherF32 { src: &src, idx: &past, dst: &mut [0.0; 16] })),
            "gather past the end must panic @ {}",
            isa.name()
        );
    }
}

/// A conv whose input indices do not fit the i32 gather table is an
/// `InvalidGeometry` error, never a wrapped index. The batch is empty,
/// so the check must come before any table for the huge input is
/// sized: this test allocates nothing of that size.
#[test]
fn conv_index_overflow_is_an_error() {
    let g = ConvGeometry::new(1, 46341, 46341, 1, 1, 1, 0).unwrap(); // 46341² > i32::MAX
    let x = Tensor::zeros([0, 1, 46341, 46341]);
    let (w, bias) = (Tensor::zeros([1, 1, 1, 1]), Tensor::zeros([1]));
    let mut ws = ConvWorkspace::new();
    let err = conv2d_forward_ws(&x, &w, &bias, &g, &mut ws).unwrap_err();
    assert!(matches!(err, TensorError::InvalidGeometry { .. }), "{err:?}");
    let qw = QuantizedMatrix::from_rows(&[0.5], 1, 1).unwrap();
    let err = conv2d_forward_i8_ws(&x, &qw, &bias, &g, 0.01, &mut ws).unwrap_err();
    assert!(matches!(err, TensorError::InvalidGeometry { .. }), "{err:?}");
    assert_eq!(ws.reallocations(), 0);
}

/// The `INSITU_SIMD=scalar` CI leg must actually pin the portable
/// path (and the default leg must resolve to a supported ISA).
#[test]
fn dispatch_env_override_is_honored() {
    let want = std::env::var("INSITU_SIMD").unwrap_or_default();
    if want.trim() == "scalar" {
        assert_eq!(simd_isa_name(), "scalar");
        assert_eq!(Isa::select(), Isa::Scalar);
    } else {
        assert!(Isa::supported().contains(&Isa::select()));
    }
}

/// Every output of one [`op_battery`] run, so ISAs can be compared
/// pairwise field by field.
struct Battery {
    relu: Vec<f32>,
    mask: Vec<u8>,
    bwd: Vec<f32>,
    quant: Vec<i8>,
    softmax: Vec<f32>,
    pool: Vec<f32>,
    argmax: Vec<usize>,
    reductions: [u32; 4],
    gather: Vec<f32>,
    gather_i8: Vec<i8>,
}

/// One battery of every dispatched op on one ISA at one thread count.
fn op_battery(isa: Isa, threads: usize) -> Battery {
    // Sized past the parallel-split threshold so the thread count is
    // exercised, with denormals / signed zeros from `values`.
    let n: usize = 120_000;
    let src = values(n, 0xC0FFEE);
    let grad = values(n, 0xBEEF);
    let qsrc = quantized_with_slack(&src, 37.5);
    let table = gather_table(90_001, n, 0xFEED);
    with_threads(threads, || {
        let mut relu = src.clone();
        let mut mask = vec![0u8; n.div_ceil(8)];
        dispatch_on(isa, ReluTrain { buf: &mut relu, mask: &mut mask });
        let mut g = grad.clone();
        dispatch_on(isa, ReluBackward { grad: &mut g, mask: &mask });
        dispatch_on(isa, Affine { buf: &mut g, gain: 1.25, bias: -0.5 });
        dispatch_on(isa, Clamp { buf: &mut g, lo: -0.75, hi: 0.75 });
        let mut q = vec![0i8; n];
        dispatch_on(isa, QuantizeI8 { src: &src, inv_scale: 37.5, dst: &mut q });
        let k = 10;
        let mut sm = src[..4096 * k].to_vec();
        dispatch_on(isa, SoftmaxRows { buf: &mut sm, k });
        let pg = PoolGeometry::new(4, 50, 100, 2, 2).unwrap();
        let planes = 6 * 4;
        let mut pool = vec![0f32; planes * pg.out_h * pg.out_w];
        let mut arg = vec![0usize; pool.len()];
        dispatch_on(
            isa,
            MaxPool2d { x: &src[..planes * 50 * 100], g: pg, planes, out: &mut pool, argmax: &mut arg },
        );
        let reds = [
            dispatch_on(isa, MaxAbs { src: &src }).to_bits(),
            dispatch_on(isa, MaxAbsDiff { a: &src, b: &grad }).to_bits(),
            dispatch_on(isa, Sum8 { src: &src }).to_bits(),
            {
                let (lo, hi) = dispatch_on(isa, MinMax { src: &src });
                lo.to_bits() ^ hi.to_bits().rotate_left(16)
            },
        ];
        let mut gather = vec![0f32; table.len()];
        dispatch_on(isa, GatherF32 { src: &src, idx: &table, dst: &mut gather });
        let mut gather_i8 = vec![0i8; table.len()];
        dispatch_on(isa, GatherI8 { src: &qsrc, idx: &table, dst: &mut gather_i8 });
        Battery {
            relu,
            mask,
            bwd: g,
            quant: q,
            softmax: sm,
            pool,
            argmax: arg,
            reductions: reds,
            gather,
            gather_i8,
        }
    })
}

/// Cross-ISA equivalence matrix: every host-supported ISA pair must
/// agree **bitwise** on every dispatched op at 1, 2 and 4 threads.
/// ISAs in the universe (`ISA_NAMES` minus `auto`) that this host
/// cannot run are skipped with a visible note, so CI logs show
/// exactly which cells of the matrix were exercised.
#[test]
fn cross_isa_all_pairs_bitwise() {
    let supported = Isa::supported();
    for name in ISA_NAMES.iter().filter(|&&n| n != "auto") {
        if !supported.iter().any(|i| i.name() == *name) {
            eprintln!("skipped: ISA `{name}` not supported on this host");
        }
    }
    for threads in [1usize, 2, 4] {
        let batteries: Vec<_> =
            supported.iter().map(|&isa| (isa, op_battery(isa, threads))).collect();
        for (ai, (isa_a, a)) in batteries.iter().enumerate() {
            for (isa_b, b) in &batteries[ai + 1..] {
                let pair = format!("{} vs {} @ t{threads}", isa_a.name(), isa_b.name());
                assert_bits_eq(&a.relu, &b.relu, &format!("relu_train {pair}"));
                assert_eq!(a.mask, b.mask, "mask {pair}");
                assert_bits_eq(&a.bwd, &b.bwd, &format!("bwd/affine/clamp {pair}"));
                assert_eq!(a.quant, b.quant, "quantize {pair}");
                assert_bits_eq(&a.softmax, &b.softmax, &format!("softmax {pair}"));
                assert_bits_eq(&a.pool, &b.pool, &format!("maxpool {pair}"));
                assert_eq!(a.argmax, b.argmax, "argmax {pair}");
                assert_eq!(a.reductions, b.reductions, "reductions {pair}");
                assert_bits_eq(&a.gather, &b.gather, &format!("gather_f32 {pair}"));
                assert_eq!(a.gather_i8, b.gather_i8, "gather_i8 {pair}");
            }
        }
    }
}
