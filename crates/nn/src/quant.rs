//! Post-training i8 quantization of an inference network.
//!
//! [`QuantizedNet::calibrate`] walks a trained [`Sequential`] once over
//! a held-out calibration split, recording the absolute-max of every
//! quantizable layer's *input* (the standard static min/max method —
//! symmetric scheme, so only the magnitude matters). Conv2d and Linear
//! layers become fixed-point layers running the i8 GEMM/conv kernels
//! from `insitu-tensor` (per-tensor activation scale, per-row weight
//! scales, i32 accumulation); every other layer (ReLU, pooling,
//! flatten, dropout-in-eval) is cloned as an f32 passthrough — those
//! are cheap, memory-bound ops where quantization buys nothing.
//!
//! The calibration forward runs in `Eval` mode on the source network
//! itself — no clone: an Eval forward leaves weights, RNG streams and
//! outputs untouched and only drops training caches.
//!
//! Scales are only valid for the weights they were measured with, so
//! re-run [`QuantizedNet::recalibrate`] after every model update. It is
//! incremental and bitwise identical to a fresh
//! [`calibrate`](QuantizedNet::calibrate) (which is `recalibrate` on
//! an empty net): the `QuantizedNet` keeps its calibration batch, the
//! f32 parameter bits each layer was quantized from, and the
//! calibration activation at the network's frozen cut
//! ([`Sequential::first_unfrozen`]). A weight-shared update that
//! leaves the frozen prefix bitwise unchanged therefore resumes the
//! forward at the cut and requantizes only the suffix, in place,
//! keeping every layer's warm i8 workspace.
//!
//! A `QuantizedNet` is inference-only: it deliberately does not
//! implement [`Network`](crate::Network), because the fixed-point path
//! has no backward pass (the paper's FPGA PEs are likewise
//! inference/diagnosis engines; incremental training happens in f32 on
//! the cloud).

use crate::error::NnError;
use crate::layer::{Layer, LayerKind, Mode};
use crate::layers::{Conv2d, Linear};
use crate::net::Sequential;
use crate::Result;
use insitu_tensor::{
    conv2d_forward_i8_ws, linear_forward_i8_ws, max_abs, quant_scale, ConvGeometry,
    ConvWorkspace, GemmScratch, QuantizedMatrix, Tensor,
};

/// Calibration record for one quantized layer, for reports and tests.
#[derive(Debug, Clone)]
pub struct LayerCalibration {
    /// Layer name (e.g. `"conv2"`).
    pub name: String,
    /// Static per-tensor scale of the layer's input activations.
    pub in_scale: f32,
    /// Largest per-row weight scale of the layer.
    pub max_weight_scale: f32,
}

/// What one [`QuantizedNet::recalibrate`] did, for spans and
/// post-mortems.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recalibration {
    /// Layer the calibration forward resumed at: `0` (the calibration
    /// batch), the cached frozen cut, or the network's length when
    /// nothing changed and no forward ran.
    pub resumed_at: usize,
    /// Fixed-point layers whose input scale (and, where their weights
    /// changed, quantized weights) were re-measured.
    pub requantized: usize,
}

/// One layer of a [`QuantizedNet`]: fixed-point conv/linear, or an f32
/// passthrough clone of the original layer.
#[derive(Debug)]
enum QLayer {
    Conv {
        geom: ConvGeometry,
        qweight: QuantizedMatrix,
        bias: Tensor,
        in_scale: f32,
        // Boxed: the workspace is a bundle of arena Vecs that would
        // otherwise dominate the enum's footprint.
        ws: Box<ConvWorkspace>,
    },
    Linear {
        qweight: QuantizedMatrix,
        bias: Tensor,
        in_scale: f32,
        scratch: GemmScratch,
    },
    Passthrough(Box<dyn Layer>),
}

impl QLayer {
    /// Quantizes `layer`, whose calibration input is `x`, with fresh
    /// (empty) kernel buffers.
    fn quantize(layer: &dyn Layer, x: &Tensor) -> Result<QLayer> {
        Ok(if let Some(conv) = layer.as_any().downcast_ref::<Conv2d>() {
            let geom = *conv.geometry();
            QLayer::Conv {
                geom,
                qweight: QuantizedMatrix::from_rows(
                    conv.weight().as_slice(),
                    geom.out_channels,
                    geom.col_rows(),
                )?,
                bias: conv.bias().clone(),
                in_scale: input_scale(x),
                ws: Box::default(),
            }
        } else if let Some(lin) = layer.as_any().downcast_ref::<Linear>() {
            QLayer::Linear {
                qweight: QuantizedMatrix::from_rows(
                    lin.weight().as_slice(),
                    lin.out_features(),
                    lin.in_features(),
                )?,
                bias: lin.bias().clone(),
                in_scale: input_scale(x),
                scratch: GemmScratch::new(),
            }
        } else {
            QLayer::Passthrough(layer.clone_box())
        })
    }

    /// The static input scale, for fixed-point layers.
    fn in_scale_mut(&mut self) -> Option<&mut f32> {
        match self {
            QLayer::Conv { in_scale, .. } | QLayer::Linear { in_scale, .. } => Some(in_scale),
            QLayer::Passthrough(_) => None,
        }
    }

    /// Takes over `old`'s grow-only kernel buffers when both are the
    /// same kind of fixed-point layer. The buffers hold nothing derived
    /// from the weights (the i8 filter panel is repacked every pass),
    /// so a requantized layer runs warm from its first predict.
    fn inherit_buffers(&mut self, old: &mut QLayer) {
        match (self, old) {
            (QLayer::Conv { ws, .. }, QLayer::Conv { ws: old, .. }) => std::mem::swap(ws, old),
            (QLayer::Linear { scratch, .. }, QLayer::Linear { scratch: old, .. }) => {
                std::mem::swap(scratch, old);
            }
            _ => {}
        }
    }
}

/// Static per-tensor scale of a calibration activation.
fn input_scale(x: &Tensor) -> f32 {
    quant_scale(max_abs(x.as_slice()))
}

/// A staged change to one layer, applied only once the whole
/// recalibration forward has succeeded.
enum Refresh {
    /// The source layer changed (or is new): its requantized twin.
    Rebuild(Box<QLayer>, LayerSource),
    /// The parameters are unchanged but the input is not: a new scale.
    Rescale(f32),
}

/// What one layer of a [`QuantizedNet`] was quantized from: enough to
/// tell whether the source layer has changed since.
#[derive(Debug)]
struct LayerSource {
    name: String,
    kind: LayerKind,
    /// Output shape over the calibration batch.
    out_dims: Vec<usize>,
    params: Vec<Tensor>,
}

impl LayerSource {
    fn of(layer: &mut dyn Layer, out_dims: &[usize]) -> LayerSource {
        let mut params = Vec::new();
        layer.visit_params(&mut |p, _| params.push(p.clone()));
        LayerSource {
            name: layer.name().to_string(),
            kind: layer.kind(),
            out_dims: out_dims.to_vec(),
            params,
        }
    }

    /// Whether `layer` is still this source: same name, kind, output
    /// shape and exact parameter bits.
    fn matches(&self, layer: &mut dyn Layer, out_dims: &[usize]) -> bool {
        if self.name != layer.name() || self.kind != layer.kind() || self.out_dims != out_dims {
            return false;
        }
        let mut seen = 0usize;
        let mut same = true;
        layer.visit_params(&mut |p, _| {
            same &= self.params.get(seen).is_some_and(|q| {
                let mut pairs = q.as_slice().iter().zip(p.as_slice());
                q.dims() == p.dims() && pairs.all(|(a, b)| a.to_bits() == b.to_bits())
            });
            seen += 1;
        });
        same && seen == self.params.len()
    }
}

/// An inference network quantized to symmetric i8 by post-training
/// calibration. Build with [`QuantizedNet::calibrate`], refresh with
/// [`QuantizedNet::recalibrate`], run with [`QuantizedNet::predict`].
/// See the module docs for the scheme.
#[derive(Debug)]
pub struct QuantizedNet {
    layers: Vec<QLayer>,
    sources: Vec<LayerSource>,
    report: Vec<LayerCalibration>,
    calib: Tensor,
    /// The calibration activation entering layer `.0` — the source
    /// network's frozen cut when it was last measured.
    cut: Option<(usize, Tensor)>,
}

impl QuantizedNet {
    /// Calibrates `net` over `calib` (a held-out batch of images,
    /// `(B, C, H, W)`, kept for later
    /// [`recalibrate`](QuantizedNet::recalibrate) calls) and quantizes
    /// every Conv2d/Linear layer.
    ///
    /// The calibration forward runs on `net` itself in `Eval` mode,
    /// which leaves its parameters untouched.
    ///
    /// # Errors
    ///
    /// Returns an error if the calibration batch is empty or does not
    /// flow through the network.
    pub fn calibrate(net: &mut Sequential, calib: &Tensor) -> Result<QuantizedNet> {
        if calib.is_empty() {
            return Err(NnError::BadInputShape {
                layer: "quantize".to_string(),
                expected: vec![0, 3, 36, 36], // 0 marks a free (but non-empty) batch
                actual: calib.dims().to_vec(),
            });
        }
        let mut q = QuantizedNet {
            layers: Vec::new(),
            sources: Vec::new(),
            report: Vec::new(),
            calib: calib.clone(),
            cut: None,
        };
        q.recalibrate(net)?;
        Ok(q)
    }

    /// Brings the quantized network up to date with `net` after a
    /// model update, bitwise identical to a fresh
    /// [`calibrate`](QuantizedNet::calibrate) over the same batch.
    ///
    /// It finds the first layer whose name, kind, output shape or
    /// parameter bits differ from what it was quantized from, resumes
    /// the `Eval` forward at the cached frozen-cut activation when
    /// nothing before the cut changed (from the calibration batch
    /// otherwise), re-measures the input scale of every fixed-point
    /// layer from the first change on, and requantizes the changed
    /// layers in place, keeping their kernel workspaces. Nothing is
    /// committed until the whole forward has succeeded.
    ///
    /// # Errors
    ///
    /// Returns an error if the calibration batch no longer flows
    /// through `net`; `self` is then unchanged.
    pub fn recalibrate(&mut self, net: &mut Sequential) -> Result<Recalibration> {
        let n = net.len();
        // Every layer's output shape over the calibration batch: part
        // of its identity, and a shape check before any compute.
        let mut out_dims = Vec::with_capacity(n);
        let mut dims = self.calib.dims().to_vec();
        for i in 0..n {
            dims = net.layer(i)?.output_shape(&dims)?;
            out_dims.push(dims.clone());
        }
        let mut changed = Vec::with_capacity(n);
        for (i, dims) in out_dims.iter().enumerate() {
            let layer = net.layer_mut(i)?;
            changed.push(!self.sources.get(i).is_some_and(|s| s.matches(layer, dims)));
        }
        let first = changed.iter().position(|&c| c).unwrap_or(n);
        if first == n && n == self.layers.len() {
            return Ok(Recalibration { resumed_at: n, requantized: 0 });
        }

        // Stage: resume the forward as late as the cache allows and
        // quantize from the first change on.
        let (resumed_at, mut x) = match &self.cut {
            Some((at, act)) if *at <= first => (*at, act.clone()),
            _ => (0, self.calib.clone()),
        };
        let cut = net.first_unfrozen();
        let mut cut_act = None;
        let mut staged = Vec::new();
        for i in resumed_at..n {
            if i == cut {
                cut_act = Some(x.clone());
            }
            let layer = net.layer_mut(i)?;
            if changed[i] {
                let source = LayerSource::of(layer, &out_dims[i]);
                let twin = Box::new(QLayer::quantize(layer, &x)?);
                staged.push((i, Refresh::Rebuild(twin, source)));
            } else if i >= first && !matches!(self.layers[i], QLayer::Passthrough(_)) {
                staged.push((i, Refresh::Rescale(input_scale(&x))));
            }
            x = layer.forward_owned(x, Mode::Eval)?;
        }
        if cut == n {
            cut_act = Some(x);
        }

        // Commit.
        self.layers.truncate(n);
        self.sources.truncate(n);
        let mut requantized = 0;
        for (i, refresh) in staged {
            match refresh {
                Refresh::Rebuild(mut layer, source) => {
                    requantized += usize::from(layer.in_scale_mut().is_some());
                    if let Some(old) = self.layers.get_mut(i) {
                        layer.inherit_buffers(old);
                        *old = *layer;
                        self.sources[i] = source;
                    } else {
                        self.layers.push(*layer);
                        self.sources.push(source);
                    }
                }
                Refresh::Rescale(scale) => {
                    requantized += 1;
                    if let Some(s) = self.layers[i].in_scale_mut() {
                        *s = scale;
                    }
                }
            }
        }
        if let Some(act) = cut_act {
            self.cut = Some((cut, act));
        }
        self.report = self
            .layers
            .iter()
            .zip(&self.sources)
            .filter_map(|(layer, source)| match layer {
                QLayer::Conv { qweight, in_scale, .. }
                | QLayer::Linear { qweight, in_scale, .. } => Some(LayerCalibration {
                    name: source.name.clone(),
                    in_scale: *in_scale,
                    max_weight_scale: max_abs(qweight.scales()),
                }),
                QLayer::Passthrough(_) => None,
            })
            .collect();
        Ok(Recalibration { resumed_at, requantized })
    }

    /// Fixed-point inference forward: `(B, C, H, W)` → logits.
    ///
    /// Deterministic at any kernel and thread count (integer
    /// accumulation is exact; all f32 work is element-wise). Steady
    /// state allocates only the per-layer output tensors — the i8
    /// panels and accumulators live in grow-only workspaces.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape does not flow through the
    /// network.
    pub fn predict(&mut self, input: &Tensor) -> Result<Tensor> {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = match layer {
                QLayer::Conv { geom, qweight, bias, in_scale, ws } => {
                    conv2d_forward_i8_ws(&x, qweight, bias, geom, *in_scale, ws)?
                }
                QLayer::Linear { qweight, bias, in_scale, scratch } => {
                    linear_forward_i8_ws(&x, qweight, bias, *in_scale, scratch)?
                }
                // forward_owned: in-place layers (ReLU) rewrite x
                // instead of allocating.
                QLayer::Passthrough(l) => l.forward_owned(x, Mode::Eval)?,
            };
        }
        Ok(x)
    }

    /// Classification accuracy of the quantized network over a labeled
    /// set, evaluated in chunks of `batch`.
    ///
    /// # Errors
    ///
    /// Returns an error on shape disagreement or an empty set.
    pub fn accuracy_on(&mut self, images: &Tensor, labels: &[usize], batch: usize) -> Result<f32> {
        let n = images.dims()[0];
        if n == 0 || n != labels.len() {
            return Err(NnError::BadLabels {
                reason: format!("{n} images vs {} labels", labels.len()),
            });
        }
        let sample_len = images.len() / n;
        let chunk = batch.max(1);
        let mut dims = images.dims().to_vec();
        let mut correct = 0usize;
        let mut start = 0usize;
        while start < n {
            let end = (start + chunk).min(n);
            dims[0] = end - start;
            let sub = Tensor::from_vec(
                dims.clone(),
                images.as_slice()[start * sample_len..end * sample_len].to_vec(),
            )?;
            let logits = self.predict(&sub)?;
            for (p, &want) in crate::predictions(&logits)?.iter().zip(&labels[start..end]) {
                correct += usize::from(*p == want);
            }
            start = end;
        }
        Ok(correct as f32 / n as f32)
    }

    /// Number of layers running in fixed point (quantized conv+linear).
    pub fn quantized_layers(&self) -> usize {
        self.report.len()
    }

    /// Per-layer calibration records, in network order.
    pub fn calibration(&self) -> &[LayerCalibration] {
        &self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::mini_alexnet;
    use insitu_tensor::Rng;

    #[test]
    fn calibrate_quantizes_every_conv_and_linear() {
        let mut rng = Rng::seed_from(31);
        let mut net = mini_alexnet(4, &mut rng).unwrap();
        let calib = Tensor::rand_uniform([4, 3, 36, 36], 0.0, 1.0, &mut rng);
        let q = QuantizedNet::calibrate(&mut net, &calib).unwrap();
        // Mini-AlexNet: 5 conv + 3 fc, everything else passes through.
        assert_eq!(q.quantized_layers(), 8);
        assert_eq!(q.layers.len(), net.len());
        for rec in q.calibration() {
            assert!(rec.in_scale > 0.0, "{}: degenerate input scale", rec.name);
            assert!(rec.max_weight_scale > 0.0, "{}: degenerate weight scale", rec.name);
        }
    }

    #[test]
    fn quantized_logits_track_f32_logits() {
        let mut rng = Rng::seed_from(37);
        let mut net = mini_alexnet(4, &mut rng).unwrap();
        let calib = Tensor::rand_uniform([6, 3, 36, 36], 0.0, 1.0, &mut rng);
        let mut q = QuantizedNet::calibrate(&mut net, &calib).unwrap();
        let x = Tensor::rand_uniform([3, 3, 36, 36], 0.0, 1.0, &mut rng);
        let f32_logits = net.predict(&x).unwrap();
        let i8_logits = q.predict(&x).unwrap();
        assert_eq!(i8_logits.dims(), f32_logits.dims());
        let range = insitu_tensor::max_abs(f32_logits.as_slice()).max(1e-3);
        let err = i8_logits.max_abs_diff(&f32_logits).unwrap();
        assert!(err < 0.15 * range, "quantization error {err} vs logit range {range}");
    }

    #[test]
    fn predict_is_deterministic_and_allocation_stable() {
        let mut rng = Rng::seed_from(41);
        let mut net = mini_alexnet(4, &mut rng).unwrap();
        let calib = Tensor::rand_uniform([2, 3, 36, 36], 0.0, 1.0, &mut rng);
        let mut q = QuantizedNet::calibrate(&mut net, &calib).unwrap();
        let x = Tensor::rand_uniform([2, 3, 36, 36], 0.0, 1.0, &mut rng);
        let first = q.predict(&x).unwrap();
        for _ in 0..2 {
            let again = q.predict(&x).unwrap();
            assert_eq!(
                first.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                again.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn empty_calibration_batch_is_rejected() {
        let mut rng = Rng::seed_from(43);
        let mut net = mini_alexnet(4, &mut rng).unwrap();
        assert!(QuantizedNet::calibrate(&mut net, &Tensor::zeros([0, 3, 36, 36])).is_err());
    }

    /// Mini-AlexNet with conv1–3 frozen (the frozen cut is layer 7,
    /// relu3), a calibration batch and a probe batch.
    fn fixture(seed: u64) -> (Sequential, Tensor, Tensor) {
        let mut rng = Rng::seed_from(seed);
        let mut net = mini_alexnet(4, &mut rng).unwrap();
        net.freeze_first_convs(3).unwrap();
        assert_eq!(net.first_unfrozen(), 7);
        let calib = Tensor::rand_uniform([6, 3, 36, 36], 0.0, 1.0, &mut rng);
        let probe = Tensor::rand_uniform([3, 3, 36, 36], 0.0, 1.0, &mut rng);
        (net, calib, probe)
    }

    /// Rescales every parameter of layer `i`, as a fine-tune would.
    fn nudge(net: &mut Sequential, i: usize, factor: f32) {
        net.layer_mut(i).unwrap().visit_params(&mut |p, _| {
            for v in p.as_mut_slice() {
                *v = *v * factor + 1e-3;
            }
        });
    }

    /// Asserts `q` is bitwise a fresh calibration of `net` over `calib`:
    /// every calibration record, and the logits on `probe`.
    fn assert_matches_fresh(
        q: &mut QuantizedNet,
        net: &mut Sequential,
        calib: &Tensor,
        probe: &Tensor,
    ) {
        let mut fresh = QuantizedNet::calibrate(net, calib).unwrap();
        let records = |q: &QuantizedNet| {
            q.calibration()
                .iter()
                .map(|c| (c.name.clone(), c.in_scale.to_bits(), c.max_weight_scale.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(records(q), records(&fresh));
        let bits = |t: Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(q.predict(probe).unwrap()), bits(fresh.predict(probe).unwrap()));
    }

    #[test]
    fn recalibrate_without_changes_runs_nothing() {
        let (mut net, calib, probe) = fixture(51);
        let mut q = QuantizedNet::calibrate(&mut net, &calib).unwrap();
        let r = q.recalibrate(&mut net).unwrap();
        assert_eq!(r, Recalibration { resumed_at: net.len(), requantized: 0 });
        assert_matches_fresh(&mut q, &mut net, &calib, &probe);
    }

    #[test]
    fn recalibrate_after_suffix_change_resumes_at_the_cut() {
        let (mut net, calib, probe) = fixture(53);
        let mut q = QuantizedNet::calibrate(&mut net, &calib).unwrap();
        for (round, factor) in [1.1f32, 0.9, 1.05].into_iter().enumerate() {
            // A weight-shared update: every unfrozen layer moves.
            for i in [8, 10, 14, 17, 19] {
                nudge(&mut net, i, factor + round as f32 * 0.01);
            }
            let r = q.recalibrate(&mut net).unwrap();
            // conv4, conv5, fc6, fc7, fc8.
            assert_eq!(r, Recalibration { resumed_at: 7, requantized: 5 });
            assert_matches_fresh(&mut q, &mut net, &calib, &probe);
        }
        // Only fc8 moves: the forward still resumes at the cut, and
        // only fc8 is requantized.
        nudge(&mut net, 19, 1.2);
        let r = q.recalibrate(&mut net).unwrap();
        assert_eq!(r, Recalibration { resumed_at: 7, requantized: 1 });
        assert_matches_fresh(&mut q, &mut net, &calib, &probe);
    }

    #[test]
    fn recalibrate_after_prefix_change_restarts_from_the_batch() {
        let (mut net, calib, probe) = fixture(57);
        let mut q = QuantizedNet::calibrate(&mut net, &calib).unwrap();
        nudge(&mut net, 3, 1.1); // conv2, inside the frozen prefix
        let r = q.recalibrate(&mut net).unwrap();
        // conv2 … fc8: every fixed-point layer but conv1.
        assert_eq!(r, Recalibration { resumed_at: 0, requantized: 7 });
        assert_matches_fresh(&mut q, &mut net, &calib, &probe);
    }

    #[test]
    fn recalibrate_after_every_layer_changed() {
        let (mut net, calib, probe) = fixture(59);
        let mut q = QuantizedNet::calibrate(&mut net, &calib).unwrap();
        let mut other = mini_alexnet(4, &mut Rng::seed_from(60)).unwrap();
        crate::serialize::load_state_dict(&mut net, &crate::serialize::state_dict(&mut other))
            .unwrap();
        let r = q.recalibrate(&mut net).unwrap();
        assert_eq!(r, Recalibration { resumed_at: 0, requantized: 8 });
        assert_matches_fresh(&mut q, &mut net, &calib, &probe);
    }

    #[test]
    fn recalibrate_follows_a_net_mutated_between_calls() {
        let (mut net, calib, probe) = fixture(61);
        let mut q = QuantizedNet::calibrate(&mut net, &calib).unwrap();
        // The cut moves earlier and a layer behind the old cut but
        // after the new one changes: the cache no longer covers it.
        net.freeze_first_convs(1).unwrap();
        nudge(&mut net, 6, 0.95);
        assert_eq!(q.recalibrate(&mut net).unwrap().resumed_at, 0);
        assert_matches_fresh(&mut q, &mut net, &calib, &probe);
        // The cache now sits at the new cut (layer 1).
        nudge(&mut net, 14, 1.1);
        assert_eq!(q.recalibrate(&mut net).unwrap().resumed_at, 1);
        assert_matches_fresh(&mut q, &mut net, &calib, &probe);
        // The cut moves later without any weight change: the old cache
        // stays valid and nothing reruns until a layer changes.
        net.freeze_first_convs(3).unwrap();
        assert_eq!(q.recalibrate(&mut net).unwrap().requantized, 0);
        nudge(&mut net, 17, 1.1);
        assert_eq!(q.recalibrate(&mut net).unwrap().resumed_at, 1);
        assert_matches_fresh(&mut q, &mut net, &calib, &probe);
        // A layer appended to the net.
        net.push(crate::layers::Relu::new("relu8"));
        let r = q.recalibrate(&mut net).unwrap();
        assert_eq!(r, Recalibration { resumed_at: 7, requantized: 0 });
        assert_matches_fresh(&mut q, &mut net, &calib, &probe);
    }

    #[test]
    fn recalibrate_keeps_warm_workspaces() {
        let (mut net, calib, probe) = fixture(67);
        let mut q = QuantizedNet::calibrate(&mut net, &calib).unwrap();
        q.predict(&probe).unwrap();
        let grows = |q: &QuantizedNet| {
            q.layers
                .iter()
                .map(|l| match l {
                    QLayer::Conv { ws, .. } => ws.reallocations(),
                    _ => 0,
                })
                .sum::<usize>()
        };
        nudge(&mut net, 8, 1.1);
        nudge(&mut net, 10, 1.1);
        q.recalibrate(&mut net).unwrap();
        let before = grows(&q);
        q.predict(&probe).unwrap();
        assert_eq!(grows(&q), before, "a requantized conv layer started cold");
    }

    #[test]
    fn failed_recalibrate_leaves_the_quantized_net_unchanged() {
        let (mut net, calib, probe) = fixture(71);
        let mut q = QuantizedNet::calibrate(&mut net, &calib).unwrap();
        let before = q.predict(&probe).unwrap();
        let records = q.calibration().to_vec();
        nudge(&mut net, 19, 1.1);
        // A layer the logits cannot flow through.
        net.push(crate::layers::MaxPool2d::new("bad", 4, 2, 2, 2, 2).unwrap());
        assert!(q.recalibrate(&mut net).is_err());
        assert_eq!(q.predict(&probe).unwrap(), before);
        assert_eq!(
            q.calibration().iter().map(|c| c.in_scale.to_bits()).collect::<Vec<_>>(),
            records.iter().map(|c| c.in_scale.to_bits()).collect::<Vec<_>>()
        );
    }
}
