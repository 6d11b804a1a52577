//! Direct timings of the public GEMM entry points at the Mini-AlexNet
//! layer shapes: the forward pass at the node's batch (f32 and i8) and
//! the backward pass of the Cloud's trainable suffix at its batch.

use insitu_tensor::{matmul, matmul_i8, matmul_nt, matmul_tn, Rng, Tensor};
use std::hint::black_box;
use std::time::Instant;

/// Conv layers as (out channels, in channels × 3², output positions)
/// over 36×36×3 inputs.
const CONVS: [(usize, usize, usize); 5] =
    [(16, 27, 1296), (24, 144, 324), (32, 216, 81), (32, 288, 81), (24, 288, 81)];
/// Fully connected layers as (in, out).
const FCS: [(usize, usize); 3] = [(384, 128), (128, 64), (64, crate::deploy::CLASSES)];
/// Layers the Cloud fine-tunes (the first three convs are frozen).
const TRAINABLE_CONVS: usize = 2;

/// Measured GEMM throughput, in G(FL)OP/s.
pub struct GemmRates {
    pub f32_gflops: f64,
    pub i8_gops: f64,
    pub train_gflops: f64,
}

/// One GEMM call of a pass: (m, k, n).
type Shape = (usize, usize, usize);

/// Forward GEMMs of one batch: one per sample for each conv (the conv
/// kernels run per sample), one batched call per fc layer.
fn forward_shapes(batch: usize) -> Vec<Shape> {
    let convs = CONVS.iter().flat_map(|&(m, k, p)| std::iter::repeat_n((m, k, p), batch));
    let fcs = FCS.iter().map(|&(i, o)| (batch, i, o));
    convs.chain(fcs).collect()
}

fn flops(shapes: &[Shape]) -> f64 {
    shapes.iter().map(|&(m, k, n)| 2.0 * (m * k * n) as f64).sum()
}

/// Median wall time of `pass` in seconds over at least five passes and
/// about 100 ms, after two warm-up passes.
fn median_pass_s(mut pass: impl FnMut()) -> f64 {
    pass();
    pass();
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < 5 || start.elapsed().as_secs_f64() < 0.1 {
        let t0 = Instant::now();
        pass();
        times.push(t0.elapsed().as_secs_f64());
    }
    crate::stats::median(&times)
}

fn rand(rows: usize, cols: usize, rng: &mut Rng) -> Tensor {
    Tensor::rand_uniform([rows, cols], -1.0, 1.0, rng)
}

fn rand_i8(len: usize, rng: &mut Rng) -> Vec<i8> {
    (0..len).map(|_| (rng.below(255) as i32 - 127) as i8).collect()
}

/// Times `matmul` and `matmul_i8` over the forward shapes at `batch`,
/// and `matmul_nt` / `matmul_tn` over the weight- and input-gradient
/// GEMMs of the trainable layers at `train_batch`.
pub fn measure(batch: usize, train_batch: usize, rng: &mut Rng) -> GemmRates {
    let fwd = forward_shapes(batch);
    let f32_ops: Vec<(Tensor, Tensor)> =
        fwd.iter().map(|&(m, k, n)| (rand(m, k, rng), rand(k, n, rng))).collect();
    let f32_s = median_pass_s(|| {
        for (a, b) in &f32_ops {
            black_box(matmul(a, b).expect("operand shapes agree by construction"));
        }
    });
    let i8_ops: Vec<(Vec<i8>, Vec<i8>, Shape)> = fwd
        .iter()
        .map(|&(m, k, n)| (rand_i8(m * k, rng), rand_i8(k * n, rng), (m, k, n)))
        .collect();
    let i8_s = median_pass_s(|| {
        for (a, b, (m, k, n)) in &i8_ops {
            black_box(matmul_i8(a, b, *m, *k, *n).expect("operand lengths agree by construction"));
        }
    });

    // Backward of the trainable suffix: per conv sample, dW = dout·colᵀ
    // (matmul_nt) and dcol = Wᵀ·dout (matmul_tn); per fc layer,
    // dW = doutᵀ·x (matmul_tn) and dx = dout·W (matmul_nt over Wᵀ).
    let mut nt: Vec<(Tensor, Tensor)> = Vec::new();
    let mut tn: Vec<(Tensor, Tensor)> = Vec::new();
    let mut train_shapes: Vec<Shape> = Vec::new();
    for &(m, k, p) in &CONVS[CONVS.len() - TRAINABLE_CONVS..] {
        for _ in 0..train_batch {
            nt.push((rand(m, p, rng), rand(k, p, rng)));
            tn.push((rand(m, k, rng), rand(m, p, rng)));
            train_shapes.extend([(m, p, k), (k, m, p)]);
        }
    }
    for &(i, o) in &FCS {
        tn.push((rand(train_batch, o, rng), rand(train_batch, i, rng)));
        nt.push((rand(train_batch, o, rng), rand(i, o, rng)));
        train_shapes.extend([(o, train_batch, i), (train_batch, o, i)]);
    }
    let train_s = median_pass_s(|| {
        for (a, b) in &nt {
            black_box(matmul_nt(a, b).expect("operand shapes agree by construction"));
        }
        for (a, b) in &tn {
            black_box(matmul_tn(a, b).expect("operand shapes agree by construction"));
        }
    });
    GemmRates {
        f32_gflops: flops(&fwd) / f32_s / 1e9,
        i8_gops: flops(&fwd) / i8_s / 1e9,
        train_gflops: flops(&train_shapes) / train_s / 1e9,
    }
}
