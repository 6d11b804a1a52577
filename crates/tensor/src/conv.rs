//! 2-D convolution lowered to GEMM.
//!
//! This is the lowering the paper describes for GPU execution (its
//! Fig. 8): local input regions become the columns of a data matrix
//! `Dm`, the filters are flattened into a filter matrix `Fm`, and the
//! convolution becomes the GEMM `Fm × Dm`. The batched passes never
//! build `Dm` itself: a table computed once per geometry says where
//! every element of `Dm`'s packed GEMM panels comes from in the input,
//! and each sample's panels are one vector gather over that table
//! ([`crate::simd::GatherF32`] / [`crate::simd::GatherI8`]). The
//! backward pass gathers its `Dmᵀ` operand from the saved input the
//! same way, and scatters the input gradient with the adjoint
//! [`col2im`].
//!
//! Batched passes parallelize over the batch dimension on the shared
//! worker pool (see [`crate::parallel`]): samples are independent, and
//! the per-sample gradients are reduced in ascending sample order, so
//! results are bitwise identical for any thread count. Every buffer a
//! pass needs lives in a reusable [`ConvWorkspace`], so steady-state
//! passes allocate nothing beyond their output tensors.

use crate::error::TensorError;
use crate::microkernel::Kernel;
use crate::pack::{grow_scratch, pack_a, pack_a_i8, pack_b, packed_a_len, packed_b_len};
use crate::parallel::{parallel_for, plan_parts, SendPtr};
use crate::quant::{quantize_i8, QuantizedMatrix};
use crate::simd::{dispatch, GatherF32, GatherI8, GATHER_I8_SLACK};
use crate::tensor::Tensor;
use crate::Result;
use insitu_telemetry as telemetry;

/// Opens the per-call telemetry span and bytes counter for one batched
/// convolution pass (inert while telemetry is disabled). `bytes` counts
/// the f32 traffic of the pass: activations, weights and outputs (the
/// backward pass also reads the saved input).
fn conv_telemetry(kernel: &'static str, b: usize, g: &ConvGeometry, bytes: u64) -> telemetry::Span {
    let span = telemetry::span_with(kernel, || {
        format!(
            "b{b} {}x{}x{} -> {}x{}x{} k{} s{} p{}",
            g.in_channels, g.in_h, g.in_w, g.out_channels, g.out_h, g.out_w, g.kernel, g.stride,
            g.pad
        )
    });
    let short = kernel.rsplit('.').next().unwrap_or(kernel);
    telemetry::counter_add("tensor.bytes", short, bytes);
    span
}

/// Static description of one 2-D convolution: input geometry, kernel,
/// stride and zero padding.
///
/// # Examples
///
/// ```
/// use insitu_tensor::ConvGeometry;
/// # fn main() -> Result<(), insitu_tensor::TensorError> {
/// let g = ConvGeometry::new(3, 36, 36, 8, 3, 1, 1)?; // 3→8 channels, 3x3 kernel
/// assert_eq!((g.out_h, g.out_w), (36, 36));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeometry {
    /// Input channels (the paper's `N`).
    pub in_channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Output channels / number of filters (the paper's `M`).
    pub out_channels: usize,
    /// Square kernel edge (the paper's `K`).
    pub kernel: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding on every edge.
    pub pad: usize,
    /// Output height (the paper's `R`).
    pub out_h: usize,
    /// Output width (the paper's `C`).
    pub out_w: usize,
}

impl ConvGeometry {
    /// Computes output geometry, validating the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] if the stride is zero or
    /// the kernel does not fit in the padded input.
    pub fn new(
        in_channels: usize,
        in_h: usize,
        in_w: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> Result<Self> {
        if stride == 0 {
            return Err(TensorError::InvalidGeometry { reason: "stride must be nonzero".into() });
        }
        if kernel == 0 || in_channels == 0 || out_channels == 0 {
            return Err(TensorError::InvalidGeometry {
                reason: "channels and kernel must be nonzero".into(),
            });
        }
        let padded_h = in_h + 2 * pad;
        let padded_w = in_w + 2 * pad;
        if kernel > padded_h || kernel > padded_w {
            return Err(TensorError::InvalidGeometry {
                reason: format!(
                    "kernel {kernel} larger than padded input {padded_h}x{padded_w}"
                ),
            });
        }
        Ok(ConvGeometry {
            in_channels,
            in_h,
            in_w,
            out_channels,
            kernel,
            stride,
            pad,
            out_h: (padded_h - kernel) / stride + 1,
            out_w: (padded_w - kernel) / stride + 1,
        })
    }

    /// Rows of the im2col matrix: `N·K²`.
    pub fn col_rows(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    /// Columns of the im2col matrix: `R·C` output positions.
    pub fn col_cols(&self) -> usize {
        self.out_h * self.out_w
    }

    /// Multiply-accumulate operation count for one sample, following the
    /// paper's Eq. (1): `CONVops = 2·M·N·K²·R·C`.
    pub fn ops(&self) -> u64 {
        2 * self.out_channels as u64
            * self.in_channels as u64
            * (self.kernel * self.kernel) as u64
            * self.out_h as u64
            * self.out_w as u64
    }
}

/// Stretches one `(C, H, W)` sample into the `(N·K², R·C)` data matrix.
///
/// # Errors
///
/// Returns an error if `input` does not have shape `(C, H, W)` matching
/// the geometry, or if `C·H·W` does not fit the `i32` gather index.
pub fn im2col(input: &Tensor, g: &ConvGeometry) -> Result<Tensor> {
    let expected = [g.in_channels, g.in_h, g.in_w];
    if input.dims() != expected {
        return Err(TensorError::ShapeMismatch {
            expected: expected.to_vec(),
            actual: input.dims().to_vec(),
            op: "im2col",
        });
    }
    check_index_range(g)?;
    // One packed panel as wide as the matrix is the matrix itself, in
    // row-major order.
    let (rows, cols) = (g.col_rows(), g.col_cols());
    let mut idx = vec![0i32; rows * cols];
    gather_table(g, cols, false, &mut idx);
    let mut out = vec![0.0f32; rows * cols];
    dispatch(GatherF32 { src: input.as_slice(), idx: &idx, dst: &mut out });
    Tensor::from_vec([rows, cols], out)
}

/// Rejects a geometry whose input indices do not fit the `i32` gather
/// table, before any table is sized.
fn check_index_range(g: &ConvGeometry) -> Result<()> {
    let len = g.in_channels.checked_mul(g.in_h).and_then(|n| n.checked_mul(g.in_w));
    match len {
        Some(n) if n <= i32::MAX as usize => Ok(()),
        _ => Err(TensorError::InvalidGeometry {
            reason: format!(
                "input {}x{}x{} has more elements than an i32 gather index can address",
                g.in_channels, g.in_h, g.in_w
            ),
        }),
    }
}

/// Fills the gather table of one packed GEMM B-operand of `g` at tile
/// width `nr`: `idx[i]` is the flat `(C, H, W)` input index of packed
/// element `i`, or −1 where the element is a padding tap or a zero lane
/// of the last, ragged panel.
///
/// Without `trans` the operand is `Dm` (`N·K² × R·C`, the forward
/// B-panels): `idx[q·nr·N·K² + row·nr + c]` holds column `q·nr + c`.
/// With `trans` it is `Dmᵀ` (`R·C × N·K²`, the weight-gradient
/// B-panels): `idx[q·nr·R·C + col·nr + c]` holds row `q·nr + c`. Either
/// way `gather(x, idx)` equals `pack_b` of the im2col matrix of `x`.
/// The caller has checked the geometry with [`check_index_range`].
fn gather_table(g: &ConvGeometry, nr: usize, trans: bool, idx: &mut [i32]) {
    let (rows, cols, s) = (g.col_rows(), g.col_cols(), g.stride);
    idx.fill(-1);
    for_each_run(g, |at, x_at, len| {
        let (row, col0) = (at / cols, at % cols);
        for j in 0..len {
            let col = col0 + j;
            let slot = if trans {
                (row / nr * cols + col) * nr + row % nr
            } else {
                (col / nr * rows + row) * nr + col % nr
            };
            idx[slot] = (x_at + j * s) as i32;
        }
    });
}

/// Walks the im2col matrix of `g` in row runs: for each
/// `(c, ky, kx)` row and each output row `oy` whose tap lands inside
/// the input, calls `f(at, x_at, len)` once for the `len` contiguous
/// output columns `lo..hi` whose tap also lands inside horizontally.
/// `at` is the run's first flat index into the `(N·K², R·C)` matrix,
/// `x_at` the flat `(C, H, W)` index of its first tap; the taps that
/// follow sit `stride` apart in the same input row. The in-bounds
/// ranges are computed once per kernel offset ([`tap_range`]), not
/// per tap. Runs come in ascending `(c, ky, kx, oy)` order, and no
/// run touches a padding position.
fn for_each_run(g: &ConvGeometry, mut f: impl FnMut(usize, usize, usize)) {
    let (h, w, k, s, pad) = (g.in_h, g.in_w, g.kernel, g.stride, g.pad);
    let cols = g.col_cols();
    for c in 0..g.in_channels {
        for ky in 0..k {
            let (oy_lo, oy_hi) = tap_range(ky, h, g.out_h, g);
            for kx in 0..k {
                let (lo, hi) = tap_range(kx, w, g.out_w, g);
                if lo == hi {
                    continue;
                }
                let (row, ix) = ((c * k + ky) * k + kx, lo * s + kx - pad);
                for oy in oy_lo..oy_hi {
                    let iy = oy * s + ky - pad;
                    f(row * cols + oy * g.out_w + lo, (c * h + iy) * w + ix, hi - lo);
                }
            }
        }
    }
}

/// The output positions `lo..hi` along one axis whose tap at kernel
/// offset `kk` lands inside an input of extent `n`, i.e.
/// `0 <= o·stride + kk − pad < n`; `lo == hi` when none does.
fn tap_range(kk: usize, n: usize, out_n: usize, g: &ConvGeometry) -> (usize, usize) {
    let lo = g.pad.saturating_sub(kk).div_ceil(g.stride);
    let hi = (n + g.pad).saturating_sub(kk).div_ceil(g.stride).min(out_n);
    (lo, hi.max(lo))
}

/// Adjoint of [`im2col`]: scatters a `(N·K², R·C)` matrix back into a
/// `(C, H, W)` tensor, *accumulating* values that came from the same
/// input element.
///
/// # Errors
///
/// Returns an error if `col` does not match the geometry's im2col shape.
pub fn col2im(col: &Tensor, g: &ConvGeometry) -> Result<Tensor> {
    let expected = [g.col_rows(), g.col_cols()];
    if col.dims() != expected {
        return Err(TensorError::ShapeMismatch {
            expected: expected.to_vec(),
            actual: col.dims().to_vec(),
            op: "col2im",
        });
    }
    let mut out = Tensor::zeros([g.in_channels, g.in_h, g.in_w]);
    col2im_into(col.as_slice(), g, out.as_mut_slice());
    Ok(out)
}

/// Core of [`col2im`]: scatters a flattened `(N·K², R·C)` matrix into
/// the flattened `(C, H, W)` buffer `o`, accumulating into it.
///
/// Adds whole row runs (see [`for_each_run`]). Runs come in
/// `(c, ky, kx, oy)` order and the taps of one run hit distinct input
/// elements, so every element sums its contributions in that order:
/// the f32 result is bitwise that of a per-tap scatter.
fn col2im_into(col: &[f32], g: &ConvGeometry, o: &mut [f32]) {
    let s = g.stride;
    for_each_run(g, |at, x_at, len| {
        let src = &col[at..at + len];
        if s == 1 {
            for (d, &v) in o[x_at..x_at + len].iter_mut().zip(src) {
                *d += v;
            }
        } else {
            for (d, &v) in o[x_at..].iter_mut().step_by(s).zip(src) {
                *d += v;
            }
        }
    });
}

/// One gather table (see [`gather_table`]) and the geometry and GEMM
/// tile width it describes.
#[derive(Debug, Clone, Default)]
struct GatherTable {
    key: Option<(ConvGeometry, usize)>,
    idx: Vec<i32>,
}

impl GatherTable {
    /// Builds the table of `g` at tile width `nr` (`trans`: the
    /// weight-gradient operand) unless it already describes them. A
    /// geometry switch rebuilds in place, inside the grow-only buffer.
    fn prepare(
        &mut self,
        g: &ConvGeometry,
        nr: usize,
        trans: bool,
        grows: &mut usize,
    ) -> Result<()> {
        if self.key != Some((*g, nr)) {
            check_index_range(g)?;
            let (rows, cols) = (g.col_rows(), g.col_cols());
            let len =
                if trans { packed_b_len(cols, rows, nr) } else { packed_b_len(rows, cols, nr) };
            grow_scratch(&mut self.idx, len, grows, "conv");
            gather_table(g, nr, trans, &mut self.idx[..len]);
            self.key = Some((*g, nr));
        }
        Ok(())
    }
}

/// Reusable scratch buffers for batched convolution passes.
///
/// A fresh workspace allocates on first use; subsequent passes with the
/// same batch size and geometry reuse every buffer, so the steady-state
/// training loop performs no per-call conv allocations beyond the output
/// tensors themselves. The workspace holds the gather tables of its
/// current geometry (built once, then reused by every pass) and a copy
/// of the last f32 forward's input, from which the backward pass
/// gathers its weight-gradient operand (the paper's C-INTERMEDIATE
/// reuse) — call [`conv2d_forward_ws`] before [`conv2d_backward_ws`].
///
/// Workspaces are cheap to create (`Default`) and independent; use one
/// per layer (or per thread when running models concurrently).
#[derive(Debug, Clone, Default)]
pub struct ConvWorkspace {
    /// The last f32 forward's input, `b × (C·H·W)`.
    saved_x: Vec<f32>,
    /// Batch size and geometry of the last f32 forward, if any: what a
    /// backward pass must match.
    key: Option<(usize, ConvGeometry)>,
    /// Gather table of the packed forward B-operand `Dm`; one table
    /// serves every sample, f32 and i8.
    fwd_table: GatherTable,
    /// Gather table of the packed weight-gradient B-operand `Dmᵀ`,
    /// built on the first backward pass at a geometry.
    dw_table: GatherTable,
    /// Per-sample `dcol` scratch (assigned by the packed kernel, then
    /// scattered by `col2im_into`).
    dcols: Vec<f32>,
    /// Per-sample flattened weight-gradient partials (fully overwritten
    /// each backward pass, then reduced in sample order).
    dw_parts: Vec<f32>,
    /// Per-sample bias-gradient partials (fully overwritten each pass).
    db_parts: Vec<f32>,
    /// Packed filter matrix `Fm` (forward A-operand, shared by the
    /// whole batch).
    packed_w: Vec<f32>,
    /// Packed `Fmᵀ` (backward dcol A-operand, shared by the batch).
    packed_wt: Vec<f32>,
    /// Per-sample packed `Dm` (forward B-operand), gathered from the
    /// input.
    packed_cols: Vec<f32>,
    /// Per-sample packed `dY` as A-operand (dW GEMM).
    packed_dy_a: Vec<f32>,
    /// Per-sample packed `Dmᵀ` (dW B-operand), gathered from `saved_x`.
    packed_colt: Vec<f32>,
    /// Per-sample packed `dY` as B-operand (dcol GEMM).
    packed_dy_b: Vec<f32>,
    /// Packed quantized filter matrix (i8 forward A-operand).
    packed_w_i8: Vec<i8>,
    /// Per-sample quantized input samples, each followed by the
    /// [`GATHER_I8_SLACK`] bytes the i8 gather may read past it (their
    /// values never reach a panel). The input is quantized *once*
    /// here, then gathered — quantizing the stretched matrix instead
    /// would round every input element K² times.
    qx: Vec<i8>,
    /// Per-sample packed quantized `Dm` (i8 B-operand), gathered from
    /// `qx`.
    packed_cols_i8: Vec<i8>,
    /// Per-sample i32 accumulators of the i8 forward, dequantized into
    /// the f32 output.
    acc_i32: Vec<i32>,
    /// How many times any buffer above has grown (see
    /// [`ConvWorkspace::reallocations`]).
    grows: usize,
}

impl ConvWorkspace {
    /// Creates an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// How many times any internal buffer has grown. Constant between
    /// two passes ⇒ the kernel path performed no heap allocation in
    /// between (the zero-steady-state-allocation guarantee).
    pub fn reallocations(&self) -> usize {
        self.grows
    }

    /// Grows `buf` (never shrinks) via the shared scratch accounting.
    fn grow(buf: &mut Vec<f32>, len: usize, grows: &mut usize) {
        grow_scratch(buf, len, grows, "conv");
    }

    /// Readies the forward table and buffers for `b` samples of
    /// geometry `g`, and records `(b, g)` for the backward pass.
    fn prepare_forward(&mut self, b: usize, g: &ConvGeometry, kern: Kernel) -> Result<()> {
        self.fwd_table.prepare(g, kern.nr(), false, &mut self.grows)?;
        self.key = Some((b, *g));
        let grows = &mut self.grows;
        Self::grow(&mut self.saved_x, b * g.in_channels * g.in_h * g.in_w, grows);
        Self::grow(
            &mut self.packed_w,
            packed_a_len(g.out_channels, g.col_rows(), kern.mr()),
            grows,
        );
        Self::grow(
            &mut self.packed_cols,
            b * packed_b_len(g.col_rows(), g.col_cols(), kern.nr()),
            grows,
        );
        Ok(())
    }

    /// Readies the forward table and the quantized-forward buffers: the
    /// i8 input staging with its per-sample slack, the i8 panels and
    /// the i32 accumulators.
    fn prepare_forward_i8(&mut self, b: usize, g: &ConvGeometry, kern: Kernel) -> Result<()> {
        self.fwd_table.prepare(g, kern.nr(), false, &mut self.grows)?;
        let (nk2, p) = (g.col_rows(), g.col_cols());
        let qx_stride = g.in_channels * g.in_h * g.in_w + GATHER_I8_SLACK;
        let grows = &mut self.grows;
        grow_scratch(
            &mut self.packed_w_i8,
            packed_a_len(g.out_channels, nk2, kern.mr()),
            grows,
            "conv_i8",
        );
        grow_scratch(&mut self.qx, b * qx_stride, grows, "conv_i8");
        grow_scratch(&mut self.packed_cols_i8, b * packed_b_len(nk2, p, kern.nr()), grows, "conv_i8");
        grow_scratch(&mut self.acc_i32, b * g.out_channels * p, grows, "conv_i8");
        Ok(())
    }

    /// Readies the weight-gradient table and sizes the backward scratch
    /// and packing buffers (contents need no zeroing: the packed
    /// kernels, packers and gathers assign every element).
    fn prepare_backward(&mut self, b: usize, g: &ConvGeometry, kern: Kernel) -> Result<()> {
        self.dw_table.prepare(g, kern.nr(), true, &mut self.grows)?;
        let (m, nk2, p) = (g.out_channels, g.col_rows(), g.col_cols());
        let (mr, nr) = (kern.mr(), kern.nr());
        let grows = &mut self.grows;
        Self::grow(&mut self.dcols, b * nk2 * p, grows);
        Self::grow(&mut self.dw_parts, b * m * nk2, grows);
        Self::grow(&mut self.db_parts, b * m, grows);
        Self::grow(&mut self.packed_wt, packed_a_len(nk2, m, mr), grows);
        Self::grow(&mut self.packed_dy_a, b * packed_a_len(m, p, mr), grows);
        Self::grow(&mut self.packed_colt, b * packed_b_len(p, nk2, nr), grows);
        Self::grow(&mut self.packed_dy_b, b * packed_b_len(m, p, nr), grows);
        Ok(())
    }
}

/// Batched convolution forward pass into a reusable [`ConvWorkspace`].
///
/// * `input`: `(B, C, H, W)`
/// * `weight`: `(M, C, K, K)`
/// * `bias`: `(M,)`
///
/// Returns the output `(B, M, R, C)`, bitwise identical for any thread
/// count. Each sample's GEMM B-panels are gathered straight from its
/// input through the workspace's gather table, and the input is kept
/// in `ws` for [`conv2d_backward_ws`]; repeated calls with a stable
/// batch size and geometry do not allocate. Samples are processed in
/// parallel on the shared worker pool when the batch is large enough.
///
/// # Errors
///
/// Returns an error on any shape disagreement with the geometry, or if
/// `C·H·W` does not fit the `i32` gather index.
pub fn conv2d_forward_ws(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    g: &ConvGeometry,
    ws: &mut ConvWorkspace,
) -> Result<Tensor> {
    let b = batch_of(input, g)?;
    check_weight_bias(weight, bias, g)?;
    let kern = Kernel::select();
    ws.prepare_forward(b, g, kern)?;
    let sample_len = g.in_channels * g.in_h * g.in_w;
    let out_len = g.out_channels * g.out_h * g.out_w;
    let _t = conv_telemetry(
        "tensor.conv2d_fwd",
        b,
        g,
        4 * (b * sample_len + weight.len() + bias.len() + b * out_len) as u64,
    );
    let nk2 = g.col_rows();
    let positions = g.col_cols();
    let pa_len = packed_a_len(g.out_channels, nk2, kern.mr());
    let pb_len = packed_b_len(nk2, positions, kern.nr());
    let mut out = Tensor::zeros([b, g.out_channels, g.out_h, g.out_w]);
    let xv = input.as_slice();
    ws.saved_x[..xv.len()].copy_from_slice(xv);
    {
        // (M, N, K, K) weights are row-major, so the flat slice *is* the
        // (M, N·K²) filter matrix Fm; pack it once for the whole batch.
        let _p = telemetry::span_with("tensor.pack", || format!("conv_fwd_w b{b}"));
        pack_a(weight.as_slice(), g.out_channels, nk2, false, kern.mr(), &mut ws.packed_w[..pa_len]);
    }
    let bv = bias.as_slice();
    let parts = plan_parts(b, b as u64 * g.ops());
    {
        let out_base = SendPtr(out.as_mut_slice().as_mut_ptr());
        let pcols_base = SendPtr(ws.packed_cols.as_mut_ptr());
        let pw = &ws.packed_w[..pa_len];
        let idx = &ws.fwd_table.idx[..pb_len];
        let run = |s: usize| {
            // SAFETY: task `s` touches only sample `s`'s slice of each
            // buffer; samples are disjoint.
            let pcol = unsafe {
                std::slice::from_raw_parts_mut(pcols_base.get().add(s * pb_len), pb_len)
            };
            let dst = unsafe {
                std::slice::from_raw_parts_mut(out_base.get().add(s * out_len), out_len)
            };
            let xs = &xv[s * sample_len..(s + 1) * sample_len];
            // Fm × Dm: the gather assigns every panel element, the
            // micro-kernel every output element, then the bias is
            // added on top.
            dispatch(GatherF32 { src: xs, idx, dst: pcol });
            kern.run_band(pw, pcol, nk2, positions, 0..g.out_channels, dst);
            for m in 0..g.out_channels {
                let bm = bv[m];
                for v in &mut dst[m * positions..(m + 1) * positions] {
                    *v += bm;
                }
            }
        };
        if parts == 1 {
            for s in 0..b {
                run(s);
            }
        } else {
            parallel_for(b, run);
        }
    }
    Ok(out)
}

/// Batched **quantized** convolution forward pass (the software twin of
/// the paper's fixed-point FPGA PEs).
///
/// * `input`: `(B, C, H, W)` f32 activations, quantized per tensor with
///   the static `in_scale` from calibration (see [`crate::quant`]).
/// * `qweight`: the filter bank flattened to `(M, N·K²)` and quantized
///   per output channel ([`QuantizedMatrix`]).
///
/// Each sample is quantized once, then its B-panels are gathered in the
/// i8 domain through the same table as the f32 pass (a gather only
/// moves values, and padding taps read as `0 == quantize(0)` —
/// quantizing the stretched matrix instead would round each element K²
/// times for bit-identical output), the GEMM runs in i8 with i32
/// accumulation, and each output channel dequantizes with
/// `in_scale · w_scale[m]` before the f32 bias is added. Integer
/// accumulation is exact and the dequantization is element-wise, so the
/// result is deterministic at any kernel and thread count. Buffers live
/// in `ws` and only ever grow: steady state allocates nothing beyond
/// the returned output tensor. The pass leaves the state a later
/// [`conv2d_backward_ws`] reads untouched.
///
/// # Errors
///
/// Returns an error on any shape disagreement with the geometry, or if
/// `C·H·W` does not fit the `i32` gather index.
pub fn conv2d_forward_i8_ws(
    input: &Tensor,
    qweight: &QuantizedMatrix,
    bias: &Tensor,
    g: &ConvGeometry,
    in_scale: f32,
    ws: &mut ConvWorkspace,
) -> Result<Tensor> {
    let b = batch_of(input, g)?;
    if qweight.rows() != g.out_channels || qweight.cols() != g.col_rows() {
        return Err(TensorError::InvalidGeometry {
            reason: format!(
                "conv2d_forward_i8: quantized weight {}x{} incompatible with geometry \
                 ({} filters of {} taps)",
                qweight.rows(),
                qweight.cols(),
                g.out_channels,
                g.col_rows()
            ),
        });
    }
    if bias.len() != g.out_channels {
        return Err(TensorError::InvalidGeometry {
            reason: format!(
                "conv2d_forward_i8: bias {} != out channels {}",
                bias.len(),
                g.out_channels
            ),
        });
    }
    let kern = Kernel::select();
    ws.prepare_forward_i8(b, g, kern)?;
    let sample_len = g.in_channels * g.in_h * g.in_w;
    let qx_stride = sample_len + GATHER_I8_SLACK;
    let out_len = g.out_channels * g.out_h * g.out_w;
    let _t = telemetry::span_with("tensor.quant.conv2d_fwd", || {
        format!(
            "b{b} {}x{}x{} -> {}x{}x{} k{} s{} p{}",
            g.in_channels, g.in_h, g.in_w, g.out_channels, g.out_h, g.out_w, g.kernel, g.stride,
            g.pad
        )
    });
    let nk2 = g.col_rows();
    let positions = g.col_cols();
    let pa_len = packed_a_len(g.out_channels, nk2, kern.mr());
    let pb_len = packed_b_len(nk2, positions, kern.nr());
    telemetry::counter_add(
        "tensor.quant.bytes",
        "conv_i8",
        (4 * b * sample_len + qweight.data().len() + b * pb_len + 4 * b * out_len) as u64,
    );
    let acc_len = g.out_channels * positions;
    let mut out = Tensor::zeros([b, g.out_channels, g.out_h, g.out_w]);
    let xv = input.as_slice();
    {
        let _p = telemetry::span_with("tensor.quant.pack", || format!("conv_fwd_w_i8 b{b}"));
        pack_a_i8(
            qweight.data(),
            g.out_channels,
            nk2,
            false,
            kern.mr(),
            &mut ws.packed_w_i8[..pa_len],
        );
    }
    let bv = bias.as_slice();
    let scales = qweight.scales();
    let parts = plan_parts(b, b as u64 * g.ops());
    {
        let out_base = SendPtr(out.as_mut_slice().as_mut_ptr());
        let qx_base = SendPtr(ws.qx.as_mut_ptr());
        let pcols_base = SendPtr(ws.packed_cols_i8.as_mut_ptr());
        let acc_base = SendPtr(ws.acc_i32.as_mut_ptr());
        let pw = &ws.packed_w_i8[..pa_len];
        let idx = &ws.fwd_table.idx[..pb_len];
        let run = |s: usize| {
            // SAFETY: task `s` touches only sample `s`'s slice of each
            // buffer; samples are disjoint.
            let qxs = unsafe {
                std::slice::from_raw_parts_mut(qx_base.get().add(s * qx_stride), qx_stride)
            };
            let pcol = unsafe {
                std::slice::from_raw_parts_mut(pcols_base.get().add(s * pb_len), pb_len)
            };
            let acc = unsafe {
                std::slice::from_raw_parts_mut(acc_base.get().add(s * acc_len), acc_len)
            };
            let dst = unsafe {
                std::slice::from_raw_parts_mut(out_base.get().add(s * out_len), out_len)
            };
            let xs = &xv[s * sample_len..(s + 1) * sample_len];
            // Quantize the sample once, then gather in the i8 domain
            // (the gather may read the slack bytes after it).
            quantize_i8(xs, in_scale, &mut qxs[..sample_len]);
            dispatch(GatherI8 { src: qxs, idx, dst: pcol });
            kern.run_band_i8(pw, pcol, nk2, positions, 0..g.out_channels, acc);
            for m in 0..g.out_channels {
                let factor = in_scale * scales[m];
                let bm = bv[m];
                let arow = &acc[m * positions..(m + 1) * positions];
                let drow = &mut dst[m * positions..(m + 1) * positions];
                for (d, &a) in drow.iter_mut().zip(arow) {
                    *d = a as f32 * factor + bm;
                }
            }
        };
        if parts == 1 {
            for s in 0..b {
                run(s);
            }
        } else {
            parallel_for(b, run);
        }
    }
    Ok(out)
}

/// Gradients of a batched convolution, given the upstream gradient
/// `dout: (B, M, R, C)` and the input that [`conv2d_forward_ws`] saved
/// in `ws`. Returns `(dinput, dweight, dbias)`.
///
/// Each sample's weight-gradient operand `Dmᵀ` is gathered from the
/// saved input through a second gather table, built on the first
/// backward pass at a geometry. Gradients are bitwise identical for
/// any thread count: samples run in parallel into per-sample partial
/// buffers, which are then reduced in ascending sample order exactly as
/// the sequential loop accumulates them.
///
/// # Errors
///
/// Returns an error if `ws` holds no f32 forward pass for this batch
/// size and geometry, or on any shape disagreement with the geometry.
pub fn conv2d_backward_ws(
    dout: &Tensor,
    weight: &Tensor,
    g: &ConvGeometry,
    ws: &mut ConvWorkspace,
) -> Result<(Tensor, Tensor, Tensor)> {
    let b = match ws.key {
        Some((b, key_g)) if key_g == *g => b,
        _ => {
            return Err(TensorError::InvalidGeometry {
                reason: "conv2d_backward_ws: workspace holds no forward pass for this geometry"
                    .into(),
            })
        }
    };
    let expected = [b, g.out_channels, g.out_h, g.out_w];
    if dout.dims() != expected {
        return Err(TensorError::ShapeMismatch {
            expected: expected.to_vec(),
            actual: dout.dims().to_vec(),
            op: "conv2d_backward",
        });
    }
    let nk2 = g.col_rows();
    if weight.len() != g.out_channels * nk2 {
        return Err(TensorError::ShapeMismatch {
            expected: vec![g.out_channels, g.in_channels, g.kernel, g.kernel],
            actual: weight.dims().to_vec(),
            op: "conv2d_backward(weight)",
        });
    }
    let kern = Kernel::select();
    ws.prepare_backward(b, g, kern)?;
    let (mr, nr) = (kern.mr(), kern.nr());
    let m_ch = g.out_channels;
    let positions = g.col_cols();
    let out_len = m_ch * positions;
    let sample_len = g.in_channels * g.in_h * g.in_w;
    let col_len = nk2 * positions;
    let dw_len = m_ch * nk2;
    let _t = conv_telemetry(
        "tensor.conv2d_bwd",
        b,
        g,
        4 * (b * (out_len + 2 * sample_len) + weight.len() + dw_len) as u64,
    );

    let mut dinput = Tensor::zeros([b, g.in_channels, g.in_h, g.in_w]);
    let dv = dout.as_slice();
    let pwt_len = packed_a_len(nk2, m_ch, mr);
    {
        // W is flat (M, N·K²) — i.e. (k, m) for the dcol GEMM — so the
        // transposed packing of it serves every sample; pack it once.
        let _p = telemetry::span_with("tensor.pack", || format!("conv_bwd_wt b{b}"));
        pack_a(weight.as_slice(), nk2, m_ch, true, mr, &mut ws.packed_wt[..pwt_len]);
    }
    let pdya_len = packed_a_len(m_ch, positions, mr);
    let pcolt_len = packed_b_len(positions, nk2, nr);
    let pdyb_len = packed_b_len(m_ch, positions, nr);
    let parts = plan_parts(b, 2 * b as u64 * g.ops());
    {
        let din_base = SendPtr(dinput.as_mut_slice().as_mut_ptr());
        let dcol_base = SendPtr(ws.dcols.as_mut_ptr());
        let dw_base = SendPtr(ws.dw_parts.as_mut_ptr());
        let db_base = SendPtr(ws.db_parts.as_mut_ptr());
        let pdya_base = SendPtr(ws.packed_dy_a.as_mut_ptr());
        let pcolt_base = SendPtr(ws.packed_colt.as_mut_ptr());
        let pdyb_base = SendPtr(ws.packed_dy_b.as_mut_ptr());
        let saved_x = &ws.saved_x;
        let dw_idx = &ws.dw_table.idx[..pcolt_len];
        let pwt = &ws.packed_wt[..pwt_len];
        let run = |s: usize| {
            let dy = &dv[s * out_len..(s + 1) * out_len]; // (M, P)
            let xs = &saved_x[s * sample_len..(s + 1) * sample_len];
            // SAFETY: task `s` touches only sample `s`'s slice of each
            // scratch/output buffer; samples are disjoint.
            let pdya = unsafe {
                std::slice::from_raw_parts_mut(pdya_base.get().add(s * pdya_len), pdya_len)
            };
            let pcolt = unsafe {
                std::slice::from_raw_parts_mut(pcolt_base.get().add(s * pcolt_len), pcolt_len)
            };
            let pdyb = unsafe {
                std::slice::from_raw_parts_mut(pdyb_base.get().add(s * pdyb_len), pdyb_len)
            };
            let dw = unsafe { std::slice::from_raw_parts_mut(dw_base.get().add(s * dw_len), dw_len) };
            // dW_s = dY · Dmᵀ → (M, N·K²); the packed Dmᵀ B-operand is
            // gathered from the saved input. The kernel assigns every
            // element, so `dw` needs no pre-zeroing.
            pack_a(dy, m_ch, positions, false, mr, pdya);
            dispatch(GatherF32 { src: xs, idx: dw_idx, dst: pcolt });
            kern.run_band(pdya, pcolt, positions, nk2, 0..m_ch, dw);
            // db_s = row sums of dY.
            let db = unsafe {
                std::slice::from_raw_parts_mut(db_base.get().add(s * m_ch), m_ch)
            };
            for m in 0..m_ch {
                db[m] = dy[m * positions..(m + 1) * positions].iter().sum::<f32>();
            }
            // dX_s = col2im(Wᵀ · dY); the kernel assigns every element
            // of dcol, which col2im then scatters into dx.
            let dcol =
                unsafe { std::slice::from_raw_parts_mut(dcol_base.get().add(s * col_len), col_len) };
            pack_b(dy, m_ch, positions, false, nr, pdyb);
            kern.run_band(pwt, pdyb, m_ch, positions, 0..nk2, dcol);
            let dx = unsafe {
                std::slice::from_raw_parts_mut(din_base.get().add(s * sample_len), sample_len)
            };
            col2im_into(dcol, g, dx);
        };
        if parts == 1 {
            for s in 0..b {
                run(s);
            }
        } else {
            parallel_for(b, run);
        }
    }

    // Deterministic reduction: ascending sample order, independent of
    // which worker produced each partial — the same fold the sequential
    // loop performs.
    let mut dwmat = vec![0.0f32; dw_len];
    let mut dbias = Tensor::zeros([g.out_channels]);
    let dbv = dbias.as_mut_slice();
    for s in 0..b {
        for (acc, &p) in dwmat.iter_mut().zip(&ws.dw_parts[s * dw_len..(s + 1) * dw_len]) {
            *acc += p;
        }
        let db = &ws.db_parts[s * g.out_channels..(s + 1) * g.out_channels];
        for (acc, &p) in dbv.iter_mut().zip(db) {
            *acc += p;
        }
    }
    let dweight =
        Tensor::from_vec([g.out_channels, g.in_channels, g.kernel, g.kernel], dwmat)?;
    Ok((dinput, dweight, dbias))
}

fn batch_of(input: &Tensor, g: &ConvGeometry) -> Result<usize> {
    let d = input.dims();
    if d.len() != 4 || d[1] != g.in_channels || d[2] != g.in_h || d[3] != g.in_w {
        return Err(TensorError::ShapeMismatch {
            expected: vec![0, g.in_channels, g.in_h, g.in_w],
            actual: d.to_vec(),
            op: "conv2d",
        });
    }
    Ok(d[0])
}

fn check_weight_bias(weight: &Tensor, bias: &Tensor, g: &ConvGeometry) -> Result<()> {
    let expected = [g.out_channels, g.in_channels, g.kernel, g.kernel];
    if weight.dims() != expected {
        return Err(TensorError::ShapeMismatch {
            expected: expected.to_vec(),
            actual: weight.dims().to_vec(),
            op: "conv2d(weight)",
        });
    }
    if bias.dims() != [g.out_channels] {
        return Err(TensorError::ShapeMismatch {
            expected: vec![g.out_channels],
            actual: bias.dims().to_vec(),
            op: "conv2d(bias)",
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::matmul_naive;
    use crate::quant::{matmul_i8_naive, max_abs, quant_scale};
    use crate::rng::Rng;
    use proptest::prelude::*;

    fn small_geom() -> ConvGeometry {
        ConvGeometry::new(2, 5, 5, 3, 3, 1, 1).unwrap()
    }

    /// A forward pass on a fresh workspace.
    fn forward(x: &Tensor, w: &Tensor, bias: &Tensor, g: &ConvGeometry) -> Result<Tensor> {
        conv2d_forward_ws(x, w, bias, g, &mut ConvWorkspace::new())
    }

    /// A forward and backward pass on one fresh workspace:
    /// `(y, dx, dw, db)`.
    fn forward_backward(
        x: &Tensor,
        w: &Tensor,
        bias: &Tensor,
        dout: &Tensor,
        g: &ConvGeometry,
    ) -> (Tensor, Tensor, Tensor, Tensor) {
        let mut ws = ConvWorkspace::new();
        let y = conv2d_forward_ws(x, w, bias, g, &mut ws).unwrap();
        let (dx, dw, db) = conv2d_backward_ws(dout, w, g, &mut ws).unwrap();
        (y, dx, dw, db)
    }

    #[test]
    fn geometry_math() {
        let g = ConvGeometry::new(3, 36, 36, 8, 3, 1, 1).unwrap();
        assert_eq!((g.out_h, g.out_w), (36, 36));
        let g2 = ConvGeometry::new(3, 227, 227, 96, 11, 4, 0).unwrap();
        assert_eq!((g2.out_h, g2.out_w), (55, 55)); // AlexNet conv1
        assert!(ConvGeometry::new(1, 4, 4, 1, 3, 0, 0).is_err());
        assert!(ConvGeometry::new(1, 2, 2, 1, 5, 1, 0).is_err());
    }

    #[test]
    fn ops_matches_eq1() {
        // AlexNet conv1: 2*96*3*11^2*55*55 = 210,830,400 ops
        let g = ConvGeometry::new(3, 227, 227, 96, 11, 4, 0).unwrap();
        assert_eq!(g.ops(), 2 * 96 * 3 * 121 * 55 * 55);
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1, no pad: col matrix equals input flattened.
        let g = ConvGeometry::new(2, 3, 3, 1, 1, 1, 0).unwrap();
        let x = Tensor::from_vec([2, 3, 3], (0..18).map(|i| i as f32).collect()).unwrap();
        let col = im2col(&x, &g).unwrap();
        assert_eq!(col.dims(), &[2, 9]);
        assert_eq!(col.as_slice(), x.as_slice());
    }

    #[test]
    fn im2col_known_values() {
        // 1 channel, 3x3 input, 2x2 kernel, stride 1, no pad.
        let g = ConvGeometry::new(1, 3, 3, 1, 2, 1, 0).unwrap();
        let x = Tensor::from_vec([1, 3, 3], (1..=9).map(|i| i as f32).collect()).unwrap();
        let col = im2col(&x, &g).unwrap();
        // Rows: k-position; cols: 4 output positions (2x2).
        assert_eq!(col.dims(), &[4, 4]);
        assert_eq!(col.row(0).unwrap().as_slice(), &[1.0, 2.0, 4.0, 5.0]); // top-left taps
        assert_eq!(col.row(3).unwrap().as_slice(), &[5.0, 6.0, 8.0, 9.0]); // bottom-right taps
    }

    #[test]
    fn conv_forward_known_values() {
        // Sum filter over 2x2 windows.
        let g = ConvGeometry::new(1, 3, 3, 1, 2, 1, 0).unwrap();
        let x = Tensor::from_vec([1, 1, 3, 3], (1..=9).map(|i| i as f32).collect()).unwrap();
        let w = Tensor::filled([1, 1, 2, 2], 1.0);
        let bias = Tensor::zeros([1]);
        let y = forward(&x, &w, &bias, &g).unwrap();
        assert_eq!(y.as_slice(), &[12.0, 16.0, 24.0, 28.0]);
    }

    #[test]
    fn bias_is_added_per_filter() {
        let g = ConvGeometry::new(1, 2, 2, 2, 1, 1, 0).unwrap();
        let x = Tensor::zeros([1, 1, 2, 2]);
        let w = Tensor::zeros([2, 1, 1, 1]);
        let bias = Tensor::from_vec([2], vec![0.5, -1.5]).unwrap();
        let y = forward(&x, &w, &bias, &g).unwrap();
        assert_eq!(&y.as_slice()[0..4], &[0.5; 4]);
        assert_eq!(&y.as_slice()[4..8], &[-1.5; 4]);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y.
        let g = small_geom();
        let mut rng = Rng::seed_from(6);
        let x = Tensor::rand_uniform([2, 5, 5], -1.0, 1.0, &mut rng);
        let y = Tensor::rand_uniform([g.col_rows(), g.col_cols()], -1.0, 1.0, &mut rng);
        let lhs: f32 = im2col(&x, &g)
            .unwrap()
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .map(|(&a, &b)| a * b)
            .sum();
        let rhs: f32 = x
            .as_slice()
            .iter()
            .zip(col2im(&y, &g).unwrap().as_slice())
            .map(|(&a, &b)| a * b)
            .sum();
        assert!((lhs - rhs).abs() < 1e-3, "lhs={lhs} rhs={rhs}");
    }

    #[test]
    fn gradient_check_weights_and_input() {
        // Central finite differences against analytic gradients on a tiny conv.
        let g = ConvGeometry::new(2, 4, 4, 2, 3, 1, 1).unwrap();
        let mut rng = Rng::seed_from(7);
        let x = Tensor::rand_uniform([1, 2, 4, 4], -1.0, 1.0, &mut rng);
        let w = Tensor::rand_uniform([2, 2, 3, 3], -0.5, 0.5, &mut rng);
        let bias = Tensor::rand_uniform([2], -0.1, 0.1, &mut rng);
        // Loss = sum(output); so dout = ones.
        let dout = Tensor::filled([1, 2, g.out_h, g.out_w], 1.0);
        let (_, dx, dw, db) = forward_backward(&x, &w, &bias, &dout, &g);

        let eps = 1e-2f32;
        let loss = |x: &Tensor, w: &Tensor, b: &Tensor| -> f32 {
            forward(x, w, b, &g).unwrap().sum()
        };
        // Check a scattering of weight coordinates.
        for idx in [0usize, 5, 17, 35] {
            let mut wp = w.clone();
            wp.as_mut_slice()[idx] += eps;
            let mut wm = w.clone();
            wm.as_mut_slice()[idx] -= eps;
            let num = (loss(&x, &wp, &bias) - loss(&x, &wm, &bias)) / (2.0 * eps);
            let ana = dw.as_slice()[idx];
            assert!((num - ana).abs() < 2e-2, "dW[{idx}]: num {num} vs ana {ana}");
        }
        for idx in [0usize, 9, 20, 31] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let num = (loss(&xp, &w, &bias) - loss(&xm, &w, &bias)) / (2.0 * eps);
            let ana = dx.as_slice()[idx];
            assert!((num - ana).abs() < 2e-2, "dX[{idx}]: num {num} vs ana {ana}");
        }
        for idx in [0usize, 1] {
            let mut bp = bias.clone();
            bp.as_mut_slice()[idx] += eps;
            let mut bm = bias.clone();
            bm.as_mut_slice()[idx] -= eps;
            let num = (loss(&x, &w, &bp) - loss(&x, &w, &bm)) / (2.0 * eps);
            let ana = db.as_slice()[idx];
            assert!((num - ana).abs() < 2e-1, "db[{idx}]: num {num} vs ana {ana}");
        }
    }

    #[test]
    fn batch_independence() {
        // Convolving a batch equals convolving each sample separately.
        let g = small_geom();
        let mut rng = Rng::seed_from(8);
        let x = Tensor::rand_uniform([3, 2, 5, 5], -1.0, 1.0, &mut rng);
        let w = Tensor::rand_uniform([3, 2, 3, 3], -0.5, 0.5, &mut rng);
        let bias = Tensor::rand_uniform([3], -0.1, 0.1, &mut rng);
        let y = forward(&x, &w, &bias, &g).unwrap();
        let sample_len = 2 * 5 * 5;
        let out_len = 3 * g.out_h * g.out_w;
        for s in 0..3 {
            let xs = Tensor::from_vec(
                [1, 2, 5, 5],
                x.as_slice()[s * sample_len..(s + 1) * sample_len].to_vec(),
            )
            .unwrap();
            let ys = forward(&xs, &w, &bias, &g).unwrap();
            assert_eq!(&y.as_slice()[s * out_len..(s + 1) * out_len], ys.as_slice());
        }
    }

    #[test]
    fn shape_errors() {
        let g = small_geom();
        let bad_x = Tensor::zeros([1, 3, 5, 5]);
        let w = Tensor::zeros([3, 2, 3, 3]);
        let bias = Tensor::zeros([3]);
        assert!(forward(&bad_x, &w, &bias, &g).is_err());
        let x = Tensor::zeros([1, 2, 5, 5]);
        assert!(forward(&x, &Tensor::zeros([3, 2, 2, 2]), &bias, &g).is_err());
        assert!(forward(&x, &w, &Tensor::zeros([4]), &g).is_err());
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn workspace_reuse_matches_fresh() {
        // The whole point of the workspace is that reusing it across
        // passes — same geometry, different inputs — changes nothing.
        let g = small_geom();
        let mut rng = Rng::seed_from(31);
        let w = Tensor::rand_uniform([3, 2, 3, 3], -0.5, 0.5, &mut rng);
        let bias = Tensor::rand_uniform([3], -0.1, 0.1, &mut rng);
        let mut ws = ConvWorkspace::new();
        for _ in 0..4 {
            let x = Tensor::rand_uniform([2, 2, 5, 5], -1.0, 1.0, &mut rng);
            let dout = Tensor::rand_uniform([2, 3, g.out_h, g.out_w], -1.0, 1.0, &mut rng);
            let y = conv2d_forward_ws(&x, &w, &bias, &g, &mut ws).unwrap();
            let (dx, dw, db) = conv2d_backward_ws(&dout, &w, &g, &mut ws).unwrap();
            let (y2, dx2, dw2, db2) = forward_backward(&x, &w, &bias, &dout, &g);
            assert_eq!(bits(&y), bits(&y2));
            assert_eq!(bits(&dx), bits(&dx2));
            assert_eq!(bits(&dw), bits(&dw2));
            assert_eq!(bits(&db), bits(&db2));
        }
    }

    #[test]
    fn workspace_survives_geometry_switch() {
        // Switching batch size or geometry must rebuild the gather
        // table; a stale table from the previous shape would otherwise
        // read the wrong taps in the new pass.
        let g1 = small_geom();
        let g2 = ConvGeometry::new(2, 7, 7, 4, 3, 1, 1).unwrap();
        let mut rng = Rng::seed_from(32);
        let mut ws = ConvWorkspace::new();
        for (g, b, m) in [(&g1, 3usize, 3usize), (&g2, 2, 4), (&g1, 1, 3), (&g1, 3, 3)] {
            let x = Tensor::rand_uniform([b, 2, g.in_h, g.in_w], -1.0, 1.0, &mut rng);
            let w = Tensor::rand_uniform([m, 2, 3, 3], -0.5, 0.5, &mut rng);
            let bias = Tensor::rand_uniform([m], -0.1, 0.1, &mut rng);
            let y = conv2d_forward_ws(&x, &w, &bias, g, &mut ws).unwrap();
            let y2 = forward(&x, &w, &bias, g).unwrap();
            assert_eq!(bits(&y), bits(&y2));
        }
    }

    #[test]
    fn workspace_backward_needs_matching_forward() {
        let g = small_geom();
        let mut rng = Rng::seed_from(33);
        let w = Tensor::rand_uniform([3, 2, 3, 3], -0.5, 0.5, &mut rng);
        let dout = Tensor::rand_uniform([2, 3, g.out_h, g.out_w], -1.0, 1.0, &mut rng);
        // No forward pass at all.
        let mut ws = ConvWorkspace::new();
        assert!(conv2d_backward_ws(&dout, &w, &g, &mut ws).is_err());
        // Forward ran, but with a different batch size than dout claims.
        let x = Tensor::rand_uniform([1, 2, 5, 5], -1.0, 1.0, &mut rng);
        let bias = Tensor::zeros([3]);
        conv2d_forward_ws(&x, &w, &bias, &g, &mut ws).unwrap();
        assert!(conv2d_backward_ws(&dout, &w, &g, &mut ws).is_err());
    }

    /// The per-element im2col the row-run walker replaced: one signed
    /// bounds check per tap. Kept as the bitwise oracle of every gather
    /// table.
    fn im2col_oracle<T: Copy>(x: &[T], g: &ConvGeometry, out: &mut [T]) {
        let cols = g.col_cols();
        let (h, w, k) = (g.in_h, g.in_w, g.kernel);
        for c in 0..g.in_channels {
            for ky in 0..k {
                for kx in 0..k {
                    let row = (c * k + ky) * k + kx;
                    let out_row = &mut out[row * cols..(row + 1) * cols];
                    for oy in 0..g.out_h {
                        let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for ox in 0..g.out_w {
                            let ix = (ox * g.stride + kx) as isize - g.pad as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            out_row[oy * g.out_w + ox] =
                                x[(c * h + iy as usize) * w + ix as usize];
                        }
                    }
                }
            }
        }
    }

    /// The per-element col2im the row runs replaced, kept as the
    /// bitwise oracle.
    fn col2im_oracle(c_: &[f32], g: &ConvGeometry, o: &mut [f32]) {
        let (h, w, k, cols) = (g.in_h, g.in_w, g.kernel, g.col_cols());
        for c in 0..g.in_channels {
            for ky in 0..k {
                for kx in 0..k {
                    let row = (c * k + ky) * k + kx;
                    let col_row = &c_[row * cols..(row + 1) * cols];
                    for oy in 0..g.out_h {
                        let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for ox in 0..g.out_w {
                            let ix = (ox * g.stride + kx) as isize - g.pad as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            o[(c * h + iy as usize) * w + ix as usize] +=
                                col_row[oy * g.out_w + ox];
                        }
                    }
                }
            }
        }
    }

    /// Asserts the lowering equals the oracles bit for bit at `g`. At
    /// every GEMM tile width (4, 8, 16), the gathered f32 and i8
    /// forward panels must equal `pack_b` of the oracle im2col matrix,
    /// and the gathered weight-gradient panel its transposed `pack_b`;
    /// each gather writes over a sentinel (a value neither domain
    /// produces), so an element it skips shows. The public `im2col`
    /// must equal the oracle matrix, and col2im accumulating into a
    /// non-zero `dx` its oracle.
    fn assert_lowering_matches_oracle(g: &ConvGeometry, seed: u64) {
        let mut rng = Rng::seed_from(seed);
        let x = Tensor::rand_uniform([g.in_channels, g.in_h, g.in_w], -1.0, 1.0, &mut rng);
        let (rows, cols) = (g.col_rows(), g.col_cols());
        let n = rows * cols;
        let f32_bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut col = vec![0.0f32; n];
        im2col_oracle(x.as_slice(), g, &mut col);
        let stretched = im2col(&x, g).unwrap();
        assert_eq!(f32_bits(stretched.as_slice()), f32_bits(&col), "im2col at {g:?}");

        let mut qx = vec![0i8; x.len() + GATHER_I8_SLACK];
        quantize_i8(x.as_slice(), 1.0 / 127.0, &mut qx[..x.len()]);
        let mut qcol = vec![0i8; n];
        im2col_oracle(&qx, g, &mut qcol);
        for nr in [4, 8, 16] {
            let len = packed_b_len(rows, cols, nr);
            let mut idx = vec![0i32; len];
            gather_table(g, nr, false, &mut idx);
            let (mut want, mut got) = (vec![0.0f32; len], vec![7.5f32; len]);
            pack_b(&col, rows, cols, false, nr, &mut want);
            dispatch(GatherF32 { src: x.as_slice(), idx: &idx, dst: &mut got });
            assert_eq!(f32_bits(&got), f32_bits(&want), "f32 panel nr{nr} at {g:?}");
            let (mut qwant, mut qgot) = (vec![0i8; len], vec![i8::MIN; len]);
            pack_b(&qcol, rows, cols, false, nr, &mut qwant);
            dispatch(GatherI8 { src: &qx, idx: &idx, dst: &mut qgot });
            assert_eq!(qgot, qwant, "i8 panel nr{nr} at {g:?}");

            let len = packed_b_len(cols, rows, nr);
            let mut idx = vec![0i32; len];
            gather_table(g, nr, true, &mut idx);
            let (mut want, mut got) = (vec![0.0f32; len], vec![7.5f32; len]);
            pack_b(&col, cols, rows, true, nr, &mut want);
            dispatch(GatherF32 { src: x.as_slice(), idx: &idx, dst: &mut got });
            assert_eq!(f32_bits(&got), f32_bits(&want), "dW panel nr{nr} at {g:?}");
        }

        let dcol = Tensor::rand_uniform([n], -1.0, 1.0, &mut rng);
        let dx = Tensor::rand_uniform([x.len()], -1.0, 1.0, &mut rng);
        let (mut fast, mut slow) = (dx.as_slice().to_vec(), dx.as_slice().to_vec());
        col2im_into(dcol.as_slice(), g, &mut fast);
        col2im_oracle(dcol.as_slice(), g, &mut slow);
        assert_eq!(f32_bits(&fast), f32_bits(&slow), "col2im at {g:?}");
    }

    #[test]
    fn row_runs_match_the_oracle_on_every_geometry() {
        let mut checked = 0u64;
        for c in 1..=4 {
            for (h, w) in (1..=12).flat_map(|h| (1..=12).map(move |w| (h, w))) {
                for (k, s, p) in (1..=5).flat_map(|k| {
                    (1..=3).flat_map(move |s| (0..=3).map(move |p| (k, s, p)))
                }) {
                    if let Ok(g) = ConvGeometry::new(c, h, w, 1, k, s, p) {
                        assert_lowering_matches_oracle(&g, checked);
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 20_000, "only {checked} geometries swept");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn row_runs_match_the_oracle(
            c in 1usize..5, h in 1usize..13, w in 1usize..13, k in 1usize..6,
            s in 1usize..4, p in 0usize..4, seed in 0u64..1_000_000
        ) {
            let g = ConvGeometry::new(c, h, w, 1, k, s, p);
            prop_assume!(g.is_ok());
            assert_lowering_matches_oracle(&g.unwrap(), seed);
        }
    }

    /// The convolution built on the oracles: per-sample oracle im2col,
    /// the naive GEMMs the packed kernels match bitwise, and the same
    /// bias and ascending-sample reduction order as the batched pass.
    /// Returns `(y, dx, dw, db)`.
    fn oracle_conv(
        x: &Tensor,
        w: &Tensor,
        bias: &Tensor,
        dout: &Tensor,
        g: &ConvGeometry,
    ) -> (Tensor, Tensor, Tensor, Tensor) {
        let (b, m, nk2, p) = (x.dims()[0], g.out_channels, g.col_rows(), g.col_cols());
        let sample_len = g.in_channels * g.in_h * g.in_w;
        let fm = Tensor::from_vec([m, nk2], w.as_slice().to_vec()).unwrap();
        let (mut y, mut dx) = (Vec::new(), Vec::new());
        let (mut dw, mut db) = (vec![0.0f32; m * nk2], vec![0.0f32; m]);
        for s in 0..b {
            let mut col = vec![0.0f32; nk2 * p];
            im2col_oracle(&x.as_slice()[s * sample_len..(s + 1) * sample_len], g, &mut col);
            let col = Tensor::from_vec([nk2, p], col).unwrap();
            let ys = matmul_naive(&fm, &col).unwrap();
            for (i, v) in ys.as_slice().iter().enumerate() {
                y.push(v + bias.as_slice()[i / p]);
            }
            let dy = dout.as_slice()[s * m * p..(s + 1) * m * p].to_vec();
            let dy = Tensor::from_vec([m, p], dy).unwrap();
            let dws = matmul_naive(&dy, &col.transpose2d().unwrap()).unwrap();
            for (acc, &v) in dw.iter_mut().zip(dws.as_slice()) {
                *acc += v;
            }
            for (r, acc) in db.iter_mut().enumerate() {
                *acc += dy.as_slice()[r * p..(r + 1) * p].iter().sum::<f32>();
            }
            let dcol = matmul_naive(&fm.transpose2d().unwrap(), &dy).unwrap();
            let mut dxs = vec![0.0f32; sample_len];
            col2im_oracle(dcol.as_slice(), g, &mut dxs);
            dx.extend(dxs);
        }
        (
            Tensor::from_vec([b, m, g.out_h, g.out_w], y).unwrap(),
            Tensor::from_vec(x.dims().to_vec(), dx).unwrap(),
            Tensor::from_vec(w.dims().to_vec(), dw).unwrap(),
            Tensor::from_vec([m], db).unwrap(),
        )
    }

    #[test]
    fn strided_conv_matches_the_oracle_conv() {
        let mut rng = Rng::seed_from(34);
        for g in [
            ConvGeometry::new(3, 11, 9, 4, 3, 2, 1).unwrap(),
            ConvGeometry::new(2, 8, 13, 5, 5, 3, 2).unwrap(),
        ] {
            let (b, m) = (3, g.out_channels);
            let x = Tensor::rand_uniform([b, g.in_channels, g.in_h, g.in_w], -1.0, 1.0, &mut rng);
            let w_dims = [m, g.in_channels, g.kernel, g.kernel];
            let w = Tensor::rand_uniform(w_dims, -0.5, 0.5, &mut rng);
            let bias = Tensor::rand_uniform([m], -0.1, 0.1, &mut rng);
            let dout = Tensor::rand_uniform([b, m, g.out_h, g.out_w], -1.0, 1.0, &mut rng);
            let (y0, dx0, dw0, db0) = oracle_conv(&x, &w, &bias, &dout, &g);
            let mut ws = ConvWorkspace::new();
            let y = conv2d_forward_ws(&x, &w, &bias, &g, &mut ws).unwrap();
            let (dx, dw, db) = conv2d_backward_ws(&dout, &w, &g, &mut ws).unwrap();
            assert_eq!(bits(&y), bits(&y0));
            assert_eq!(bits(&dx), bits(&dx0));
            assert_eq!(bits(&dw), bits(&dw0));
            assert_eq!(bits(&db), bits(&db0));

            // i8: quantize each sample, oracle im2col, exact i32 GEMM,
            // per-channel dequantization plus bias.
            let nk2 = g.col_rows();
            let qw = QuantizedMatrix::from_rows(w.as_slice(), m, nk2).unwrap();
            let in_scale = quant_scale(max_abs(x.as_slice()));
            let yq = conv2d_forward_i8_ws(&x, &qw, &bias, &g, in_scale, &mut ws).unwrap();
            let sample_len = g.in_channels * g.in_h * g.in_w;
            let p = g.col_cols();
            let mut want = Vec::new();
            for xs in x.as_slice().chunks(sample_len) {
                let mut qx = vec![0i8; sample_len];
                quantize_i8(xs, in_scale, &mut qx);
                let mut qcol = vec![0i8; nk2 * p];
                im2col_oracle(&qx, &g, &mut qcol);
                let acc = matmul_i8_naive(qw.data(), &qcol, m, nk2, p);
                for (i, &a) in acc.iter().enumerate() {
                    want.push(a as f32 * (in_scale * qw.scales()[i / p]) + bias.as_slice()[i / p]);
                }
            }
            assert_eq!(bits(&yq), want.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn steady_state_passes_never_grow_the_workspace() {
        // Once every pass kind has run at both geometries, f32 → i8 →
        // f32 passes and a geometry switch and back reuse every buffer,
        // gather tables included, and still match a fresh workspace.
        let g1 = small_geom();
        let g2 = ConvGeometry::new(2, 7, 6, 3, 3, 2, 1).unwrap();
        let mut rng = Rng::seed_from(35);
        let w = Tensor::rand_uniform([3, 2, 3, 3], -0.5, 0.5, &mut rng);
        let bias = Tensor::rand_uniform([3], -0.1, 0.1, &mut rng);
        let qw = QuantizedMatrix::from_rows(w.as_slice(), 3, 18).unwrap();
        let mut ws = ConvWorkspace::new();
        let mut pass = |g: &ConvGeometry, ws: &mut ConvWorkspace| {
            let x = Tensor::rand_uniform([2, 2, g.in_h, g.in_w], -1.0, 1.0, &mut rng);
            let dout = Tensor::rand_uniform([2, 3, g.out_h, g.out_w], -1.0, 1.0, &mut rng);
            conv2d_forward_ws(&x, &w, &bias, g, ws).unwrap();
            conv2d_backward_ws(&dout, &w, g, ws).unwrap();
            let yq = conv2d_forward_i8_ws(&x, &qw, &bias, g, 0.01, ws).unwrap();
            let y = conv2d_forward_ws(&x, &w, &bias, g, ws).unwrap();
            let (dx, dw, db) = conv2d_backward_ws(&dout, &w, g, ws).unwrap();
            let fresh = forward_backward(&x, &w, &bias, &dout, g);
            let mut fresh_ws = ConvWorkspace::new();
            let fresh_q = conv2d_forward_i8_ws(&x, &qw, &bias, g, 0.01, &mut fresh_ws).unwrap();
            assert_eq!(bits(&yq), bits(&fresh_q));
            for (a, b) in [(&y, &fresh.0), (&dx, &fresh.1), (&dw, &fresh.2), (&db, &fresh.3)] {
                assert_eq!(bits(a), bits(b));
            }
        };
        pass(&g1, &mut ws);
        pass(&g2, &mut ws);
        let warm = ws.reallocations();
        for g in [&g1, &g2, &g1] {
            pass(g, &mut ws);
            assert_eq!(ws.reallocations(), warm, "grew at {g:?}");
        }
    }

    #[test]
    fn index_range_is_checked_before_any_table_is_sized() {
        // 46341² > i32::MAX: the indices of this input would wrap.
        let big = ConvGeometry::new(1, 46341, 46341, 1, 1, 1, 0).unwrap();
        assert!(matches!(check_index_range(&big), Err(TensorError::InvalidGeometry { .. })));
        let fits = ConvGeometry::new(1, 46340, 46340, 1, 1, 1, 0).unwrap();
        assert!(check_index_range(&fits).is_ok());
    }
}
