//! The full In-situ AI FPGA architecture: a WSS Group feeding an NWS
//! FCN stage through a two-stage pipeline (paper Figs. 19–20,
//! Eqs. 10–14), plus the three baseline designs of the paper's Fig. 23.

use crate::arch::PATCHES;
use crate::engine::{DotProductEngine, PeArrayEngine};
use crate::memory::{corun_traffic, SharingLevel};
use insitu_devices::{ConvShape, FcShape, FpgaSpec, NetworkShapes};

/// The four end-to-end designs compared in the paper's Fig. 23.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Design {
    /// Dot-product engines, no weight sharing, no FCN batching.
    Nws,
    /// NWS plus the FCN batch-reuse loop.
    NwsBatch,
    /// Uniform weight-shared engines (idle diagnosis PEs) + batched FCN.
    Ws,
    /// The proposed WSS Group + NWS pipeline.
    WssNws,
}

impl Design {
    /// All four, in presentation order.
    pub fn all() -> [Design; 4] {
        [Design::Nws, Design::NwsBatch, Design::Ws, Design::WssNws]
    }

    /// Display name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Design::Nws => "NWS",
            Design::NwsBatch => "NWS-batch",
            Design::Ws => "WS",
            Design::WssNws => "WSS-NWS",
        }
    }
}

/// The configured WSS-Group + NWS pipeline.
#[derive(Debug, Clone)]
pub struct WssNwsPipeline {
    spec: FpgaSpec,
    inf_engine: PeArrayEngine,
    diag_engine: PeArrayEngine,
    /// WSS instances ganged over the `M` filters (paper's
    /// `WSS_Groupsize`).
    pub group_size: usize,
    /// The FCN stage's dot-product engine.
    pub nws_engine: DotProductEngine,
}

/// One throughput evaluation point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputPoint {
    /// Chosen batch size.
    pub batch: usize,
    /// Achieved throughput, images/second.
    pub throughput: f64,
    /// End-to-end latency at that batch, seconds.
    pub latency_s: f64,
}

impl WssNwsPipeline {
    /// Configures the pipeline under the DSP constraint of Eq. (10):
    /// `WSS_Groupsize · DSP_WSS + DSP_NWS ≤ DSP_total`. The search
    /// balances the two pipeline stages (Fig. 20 wants equal stage
    /// times) across group sizes.
    pub fn configure(spec: FpgaSpec, convs: &[ConvShape], fcs: &[FcShape]) -> WssNwsPipeline {
        let inf_engine = PeArrayEngine { tr: 14, tc: 14 };
        let diag_engine = PeArrayEngine { tr: 7, tc: 7 };
        let per_wss = inf_engine.pe_count() + PATCHES as u32 * diag_engine.pe_count();
        let max_group = (spec.dsp_total / per_wss).max(1) as usize;
        let mut best: Option<(WssNwsPipeline, f64)> = None;
        for group in 1..=max_group {
            let nws_budget = spec.dsp_total - group as u32 * per_wss;
            if nws_budget < 16 {
                continue;
            }
            // FCN layers are 1x1 convs for the fitting purpose.
            let fc_as_conv: Vec<ConvShape> = fcs
                .iter()
                .map(|f| ConvShape { m: f.output, n: f.input, k: 1, r: 1, c: 1 })
                .collect();
            let nws_engine = DotProductEngine::fit(&fc_as_conv, nws_budget);
            let candidate = WssNwsPipeline {
                spec,
                inf_engine,
                diag_engine,
                group_size: group,
                nws_engine,
            };
            // Balance criterion: steady-state throughput at a medium batch.
            let tput = candidate.throughput(convs, fcs, 8);
            if best.as_ref().is_none_or(|(_, t)| tput > *t) {
                best = Some((candidate, tput));
            }
        }
        best.expect("at least one group size fits").0
    }

    /// Configures the pipeline with a *forced* WSS group size (used by
    /// the design-space ablation). Returns `None` when the group plus a
    /// minimal NWS engine does not fit the DSP budget of Eq. (10).
    pub fn configure_fixed_group(
        spec: FpgaSpec,
        fcs: &[FcShape],
        group_size: usize,
    ) -> Option<WssNwsPipeline> {
        let inf_engine = PeArrayEngine { tr: 14, tc: 14 };
        let diag_engine = PeArrayEngine { tr: 7, tc: 7 };
        let per_wss = inf_engine.pe_count() + PATCHES as u32 * diag_engine.pe_count();
        let used = group_size as u32 * per_wss;
        if group_size == 0 || used + 16 > spec.dsp_total {
            return None;
        }
        let fc_as_conv: Vec<ConvShape> = fcs
            .iter()
            .map(|f| ConvShape { m: f.output, n: f.input, k: 1, r: 1, c: 1 })
            .collect();
        let nws_engine = DotProductEngine::fit(&fc_as_conv, spec.dsp_total - used);
        Some(WssNwsPipeline { spec, inf_engine, diag_engine, group_size, nws_engine })
    }

    /// Paper Eq. (11): CONV-stage time for ONE image through the WSS
    /// Group (inference and diagnosis run concurrently; each layer is
    /// paced by the slower of the two).
    pub fn conv_stage_s(&self, convs: &[ConvShape]) -> f64 {
        let mut cycles = 0u64;
        for s in convs {
            let inf = self.inf_engine.conv_cycles(s, self.group_size);
            let diag = self.diag_engine.conv_cycles(&s.halved_spatial(), self.group_size);
            cycles += inf.max(diag);
        }
        cycles as f64 / self.spec.freq_hz
    }

    /// Paper Eq. (12): FCN-stage time for a batch on the NWS engine
    /// (compute vs memory roofline; batched weight reuse).
    pub fn fcn_stage_s(&self, fcs: &[FcShape], batch: usize) -> f64 {
        let mut total = 0.0;
        for f in fcs {
            let compute =
                self.nws_engine.fc_cycles(f) as f64 * batch as f64 / self.spec.freq_hz;
            let bytes = f.dw_elems() * 4 + 4 * (f.input + f.output) as u64 * batch as u64;
            let mem = bytes as f64 / self.spec.mem_bw;
            total += compute.max(mem);
        }
        total
    }

    /// Paper Eq. (13): end-to-end latency of one batch through the
    /// two-stage pipeline.
    pub fn latency_s(&self, convs: &[ConvShape], fcs: &[FcShape], batch: usize) -> f64 {
        2.0 * (self.conv_stage_s(convs) * batch as f64).max(self.fcn_stage_s(fcs, batch))
    }

    /// Steady-state throughput at a batch size: the pipeline initiates
    /// a new batch every `max(stage)` seconds.
    pub fn throughput(&self, convs: &[ConvShape], fcs: &[FcShape], batch: usize) -> f64 {
        let stage = (self.conv_stage_s(convs) * batch as f64).max(self.fcn_stage_s(fcs, batch));
        batch as f64 / stage
    }

    /// Paper Eq. (14): the best batch meeting the user latency bound,
    /// maximizing throughput. Returns `None` when even batch 1 misses.
    pub fn best_under_latency(
        &self,
        convs: &[ConvShape],
        fcs: &[FcShape],
        t_user: f64,
        max_batch: usize,
    ) -> Option<ThroughputPoint> {
        (1..=max_batch)
            .filter_map(|b| {
                let latency = self.latency_s(convs, fcs, b);
                (latency <= t_user).then(|| ThroughputPoint {
                    batch: b,
                    throughput: self.throughput(convs, fcs, b),
                    latency_s: latency,
                })
            })
            .max_by(|a, b| {
                a.throughput.partial_cmp(&b.throughput).unwrap_or(std::cmp::Ordering::Equal)
            })
    }
}

/// Evaluates one of the paper's four designs at a latency requirement,
/// on the co-running pair (inference network + diagnosis twin):
/// returns the best feasible throughput point, or `None` when the
/// design cannot meet the bound (the paper's ✗ for WS at 50 ms).
pub fn design_throughput(
    design: Design,
    spec: FpgaSpec,
    net: &NetworkShapes,
    t_user: f64,
    max_batch: usize,
) -> Option<ThroughputPoint> {
    let convs = net.convs();
    let fcs = net.fcs();
    match design {
        Design::WssNws => {
            let pipe = WssNwsPipeline::configure(spec, &convs, &fcs);
            pipe.best_under_latency(&convs, &fcs, t_user, max_batch)
        }
        Design::Nws | Design::NwsBatch | Design::Ws => {
            let batch_opt = design != Design::Nws;
            // Non-pipelined designs split the fabric ~3:1 between the
            // CONV engines and the FCN engine.
            let conv_budget = spec.dsp_total * 3 / 4;
            // CONV engine setup per design.
            let conv_s_per_image: f64 = match design {
                Design::Ws => {
                    let per_engine = conv_budget / (PATCHES as u32 + 1);
                    let engine = DotProductEngine::fit(&convs, per_engine);
                    // Lockstep uniform engines: paced by inference.
                    convs.iter().map(|s| engine.conv_cycles(s)).sum::<u64>() as f64
                        / spec.freq_hz
                }
                _ => {
                    let engine = DotProductEngine::fit(&convs, conv_budget);
                    // Serial inference + 9 diagnosis patches.
                    convs
                        .iter()
                        .map(|s| {
                            engine.conv_cycles(s)
                                + PATCHES as u64
                                    * engine.conv_cycles(&s.halved_spatial())
                        })
                        .sum::<u64>() as f64
                        / spec.freq_hz
                }
            };
            let fc_engine = {
                let fc_as_conv: Vec<ConvShape> = fcs
                    .iter()
                    .map(|f| ConvShape { m: f.output, n: f.input, k: 1, r: 1, c: 1 })
                    .collect();
                DotProductEngine::fit(&fc_as_conv, spec.dsp_total / 4)
            };
            let fc_s = |batch: usize| -> f64 {
                fcs.iter()
                    .map(|f| {
                        let compute = fc_engine.fc_cycles(f) as f64 * batch as f64
                            / spec.freq_hz;
                        let loads = if batch_opt { 1 } else { batch as u64 };
                        let bytes = f.dw_elems() * 4 * loads
                            + 4 * (f.input + f.output) as u64 * batch as u64;
                        compute.max(bytes as f64 / spec.mem_bw)
                    })
                    .sum()
            };
            // Non-pipelined designs cannot overlap conv weight
            // streaming with compute. Plain NWS has *no* reuse
            // provision at all: it re-streams the co-run weights for
            // every image. The batch-optimized and weight-shared
            // designs stream once per batch (WS additionally shares
            // the CONV-3 task prefix).
            let level = if design == Design::Ws {
                SharingLevel::TwoLevel
            } else {
                SharingLevel::None
            };
            let conv_access_s =
                corun_traffic(&convs, 3, PATCHES, level).total_bytes() as f64 / spec.mem_bw;
            let access_per_image = design == Design::Nws;
            (1..=max_batch)
                .filter_map(|b| {
                    // Non-pipelined: weight load, conv, then fc — serial.
                    let access = if access_per_image {
                        conv_access_s * b as f64
                    } else {
                        conv_access_s
                    };
                    let latency = access + conv_s_per_image * b as f64 + fc_s(b);
                    (latency <= t_user).then(|| ThroughputPoint {
                        batch: b,
                        throughput: b as f64 / latency,
                        latency_s: latency,
                    })
                })
                .max_by(|a, b| {
                    a.throughput
                        .partial_cmp(&b.throughput)
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> NetworkShapes {
        NetworkShapes::alexnet()
    }

    fn spec() -> FpgaSpec {
        FpgaSpec::vx690t()
    }

    #[test]
    fn pipeline_configures_within_dsp_budget() {
        let n = net();
        let pipe = WssNwsPipeline::configure(spec(), &n.convs(), &n.fcs());
        let per_wss = 196 + 9 * 49;
        let used = pipe.group_size as u32 * per_wss + pipe.nws_engine.pe_count();
        assert!(used <= spec().dsp_total, "used {used}");
        assert!(pipe.group_size >= 1);
    }

    #[test]
    fn latency_is_eq13() {
        let n = net();
        let pipe = WssNwsPipeline::configure(spec(), &n.convs(), &n.fcs());
        let b = 4;
        let conv = pipe.conv_stage_s(&n.convs()) * b as f64;
        let fcn = pipe.fcn_stage_s(&n.fcs(), b);
        assert!((pipe.latency_s(&n.convs(), &n.fcs(), b) - 2.0 * conv.max(fcn)).abs() < 1e-12);
    }

    #[test]
    fn throughput_grows_with_latency_budget() {
        // Paper Fig. 23: looser latency → bigger batch → higher
        // throughput, until the FCN compute bound.
        let n = net();
        let points: Vec<f64> = [0.05, 0.1, 0.2, 0.4, 0.8]
            .iter()
            .map(|&t| {
                design_throughput(Design::WssNws, spec(), &n, t, 256)
                    .expect("WSS-NWS always feasible")
                    .throughput
            })
            .collect();
        for w in points.windows(2) {
            assert!(w[1] >= w[0] * 0.999, "{points:?}");
        }
        assert!(points[4] > points[0]);
    }

    #[test]
    fn nws_throughput_is_flat() {
        let n = net();
        let t50 = design_throughput(Design::Nws, spec(), &n, 0.2, 256);
        let t800 = design_throughput(Design::Nws, spec(), &n, 0.8, 256);
        if let (Some(a), Some(b)) = (t50, t800) {
            assert!((b.throughput - a.throughput).abs() / a.throughput < 0.1);
        } else {
            panic!("NWS should be feasible at 200/800 ms");
        }
    }

    #[test]
    fn nws_batch_beats_nws() {
        let n = net();
        let plain = design_throughput(Design::Nws, spec(), &n, 0.8, 256).unwrap();
        let batched = design_throughput(Design::NwsBatch, spec(), &n, 0.8, 256).unwrap();
        assert!(batched.throughput > plain.throughput);
    }

    #[test]
    fn ws_infeasible_at_tight_latency() {
        // Paper Fig. 23 marks WS with ✗ at 50 ms.
        let n = net();
        assert!(design_throughput(Design::Ws, spec(), &n, 0.05, 256).is_none());
        assert!(design_throughput(Design::Ws, spec(), &n, 0.8, 256).is_some());
    }

    #[test]
    fn wss_nws_wins_everywhere() {
        let n = net();
        for &t in &[0.05, 0.1, 0.2, 0.4, 0.8] {
            let ours = design_throughput(Design::WssNws, spec(), &n, t, 256)
                .expect("feasible")
                .throughput;
            for d in [Design::Nws, Design::NwsBatch, Design::Ws] {
                if let Some(p) = design_throughput(d, spec(), &n, t, 256) {
                    assert!(
                        ours > p.throughput,
                        "{} beat us at {t}: {} vs {ours}",
                        d.name(),
                        p.throughput
                    );
                }
            }
        }
    }

    #[test]
    fn wss_nws_tightest_beats_nws_batch_loosest() {
        // Paper: NWS-batch's best (800 ms) is below WSS-NWS at 50 ms.
        let n = net();
        let ours_tight =
            design_throughput(Design::WssNws, spec(), &n, 0.05, 256).unwrap().throughput;
        let theirs_loose =
            design_throughput(Design::NwsBatch, spec(), &n, 0.8, 256).unwrap().throughput;
        assert!(
            ours_tight > theirs_loose,
            "ours@50ms {ours_tight} vs nws-batch@800ms {theirs_loose}"
        );
    }

    #[test]
    fn design_names() {
        assert_eq!(
            Design::all().map(|d| d.name()),
            ["NWS", "NWS-batch", "WS", "WSS-NWS"]
        );
    }
}
