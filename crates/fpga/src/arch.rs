//! The three co-running CONV architectures the paper compares at equal
//! PE count (its Fig. 22): NWS, WS and the proposed two-level
//! weight-shared WSS.

use crate::engine::{DotProductEngine, PeArrayEngine};
use crate::memory::{corun_traffic, SharingLevel, TrafficReport};
use insitu_devices::{ConvShape, FpgaSpec};

/// Number of diagnosis patch inputs (3×3 jigsaw grid).
pub const PATCHES: usize = 9;

/// Which CONV architecture executes the co-running tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArchKind {
    /// No weight sharing: one large dot-product engine time-multiplexed
    /// over the inference task and the 9 diagnosis patches.
    Nws,
    /// Weight-shared uniform engines (paper Fig. 17): one inference
    /// engine + 9 diagnosis engines with the *same* unrolling, fed in
    /// lockstep — the diagnosis engines idle on their lighter load.
    Ws,
    /// The proposed two-level Weight-Share-Share design (paper
    /// Fig. 18): PE arrays unrolled over output neurons, sized
    /// proportionally to load (14×14 inference, 9× 7×7 diagnosis).
    Wss,
}

impl ArchKind {
    /// All three, in presentation order.
    pub fn all() -> [ArchKind; 3] {
        [ArchKind::Nws, ArchKind::Ws, ArchKind::Wss]
    }

    /// Display name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            ArchKind::Nws => "NWS",
            ArchKind::Ws => "WS",
            ArchKind::Wss => "WSS",
        }
    }
}

/// Result of co-running all CONV layers once through an architecture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorunReport {
    /// Architecture evaluated.
    pub arch: ArchKind,
    /// Seconds of compute (engine-limited).
    pub compute_s: f64,
    /// Seconds of off-chip weight access.
    pub data_access_s: f64,
    /// Fraction of diagnosis-engine cycles spent idle (the paper
    /// reports ~75% for WS).
    pub diagnosis_idle_fraction: f64,
    /// Weight traffic detail.
    pub traffic: TrafficReport,
}

impl CorunReport {
    /// Total runtime: weights are loaded per layer before computing, so
    /// the phases serialize (the paper's Fig. 22 experiment does
    /// exactly this).
    pub fn total_s(&self) -> f64 {
        self.compute_s + self.data_access_s
    }
}

/// A co-running CONV evaluation at a fixed PE budget.
#[derive(Debug, Clone)]
pub struct CorunConfig {
    /// FPGA device constants.
    pub spec: FpgaSpec,
    /// Total processing elements shared by all engines (the paper
    /// uses 2628).
    pub pe_budget: u32,
    /// Number of leading CONV layers that are weight-shared between
    /// the tasks (the paper's CONV-0/3/5).
    pub shared_layers: usize,
}

impl CorunConfig {
    /// The paper's configuration: VX690T, 2628 PEs.
    pub fn paper(shared_layers: usize) -> CorunConfig {
        CorunConfig { spec: FpgaSpec::vx690t(), pe_budget: 2628, shared_layers }
    }

    /// Evaluates one architecture on the inference CONV stack
    /// (diagnosis layers are the spatially-halved twins, 9 patches).
    pub fn run(&self, arch: ArchKind, inference_convs: &[ConvShape]) -> CorunReport {
        let diag_convs: Vec<ConvShape> =
            inference_convs.iter().map(ConvShape::halved_spatial).collect();
        let freq = self.spec.freq_hz;
        let (compute_s, idle) = match arch {
            ArchKind::Nws => {
                let engine = DotProductEngine::fit(inference_convs, self.pe_budget);
                let inf: u64 = inference_convs.iter().map(|s| engine.conv_cycles(s)).sum();
                let diag: u64 = diag_convs
                    .iter()
                    .map(|s| engine.conv_cycles(s) * PATCHES as u64)
                    .sum();
                ((inf + diag) as f64 / freq, 0.0)
            }
            ArchKind::Ws => {
                // 10 uniform engines share the budget; the input stream
                // paces everyone at the inference engine's rate.
                let per_engine = self.pe_budget / (PATCHES as u32 + 1);
                let engine = DotProductEngine::fit(inference_convs, per_engine);
                let inf: u64 = inference_convs.iter().map(|s| engine.conv_cycles(s)).sum();
                let diag_per_patch: u64 =
                    diag_convs.iter().map(|s| engine.conv_cycles(s)).sum();
                let stage = inf.max(diag_per_patch);
                let idle = 1.0 - diag_per_patch as f64 / stage as f64;
                (stage as f64 / freq, idle)
            }
            ArchKind::Wss => {
                // Load-proportional PE arrays: 14x14 inference + 9x 7x7
                // diagnosis per WSS instance; instances gang into a
                // group that splits the M filters (paper Eq. 11).
                let inf_engine = PeArrayEngine { tr: 14, tc: 14 };
                let diag_engine = PeArrayEngine { tr: 7, tc: 7 };
                let per_wss =
                    inf_engine.pe_count() + PATCHES as u32 * diag_engine.pe_count();
                let group = (self.pe_budget / per_wss).max(1) as usize;
                let mut total = 0u64;
                let mut idle_acc = 0.0;
                for (s, d) in inference_convs.iter().zip(&diag_convs) {
                    let inf = inf_engine.conv_cycles(s, group);
                    let diag = diag_engine.conv_cycles(d, group);
                    let stage = inf.max(diag);
                    total += stage;
                    idle_acc += 1.0 - diag.min(stage) as f64 / stage as f64;
                }
                (total as f64 / freq, idle_acc / inference_convs.len() as f64)
            }
        };
        let level = match arch {
            ArchKind::Nws => SharingLevel::None,
            ArchKind::Ws | ArchKind::Wss => SharingLevel::TwoLevel,
        };
        let traffic = corun_traffic(inference_convs, self.shared_layers, PATCHES, level);
        CorunReport {
            arch,
            compute_s,
            data_access_s: traffic.total_bytes() as f64 / self.spec.mem_bw,
            diagnosis_idle_fraction: idle,
            traffic,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insitu_devices::NetworkShapes;

    fn convs() -> Vec<ConvShape> {
        NetworkShapes::alexnet().convs()
    }

    #[test]
    fn wss_has_best_compute_time() {
        // Paper Fig. 22: WSS < NWS < WS on compute time.
        let cfg = CorunConfig::paper(3);
        let convs = convs();
        let nws = cfg.run(ArchKind::Nws, &convs);
        let ws = cfg.run(ArchKind::Ws, &convs);
        let wss = cfg.run(ArchKind::Wss, &convs);
        assert!(
            wss.compute_s < nws.compute_s,
            "wss {} vs nws {}",
            wss.compute_s,
            nws.compute_s
        );
        assert!(nws.compute_s < ws.compute_s, "nws {} vs ws {}", nws.compute_s, ws.compute_s);
    }

    #[test]
    fn ws_diagnosis_idles_about_75_percent() {
        let cfg = CorunConfig::paper(3);
        let ws = cfg.run(ArchKind::Ws, &convs());
        assert!(
            ws.diagnosis_idle_fraction > 0.6 && ws.diagnosis_idle_fraction < 0.85,
            "idle {}",
            ws.diagnosis_idle_fraction
        );
    }

    #[test]
    fn wss_engines_balanced() {
        let cfg = CorunConfig::paper(3);
        let wss = cfg.run(ArchKind::Wss, &convs());
        assert!(wss.diagnosis_idle_fraction < 0.25, "idle {}", wss.diagnosis_idle_fraction);
    }

    #[test]
    fn data_access_falls_with_sharing_depth_for_wss() {
        let convs = convs();
        let t0 = CorunConfig::paper(0).run(ArchKind::Wss, &convs).data_access_s;
        let t3 = CorunConfig::paper(3).run(ArchKind::Wss, &convs).data_access_s;
        let t5 = CorunConfig::paper(5).run(ArchKind::Wss, &convs).data_access_s;
        assert!(t0 > t3 && t3 > t5);
    }

    #[test]
    fn nws_data_access_exceeds_wss() {
        let cfg = CorunConfig::paper(0);
        let convs = convs();
        let nws = cfg.run(ArchKind::Nws, &convs);
        let wss = cfg.run(ArchKind::Wss, &convs);
        assert!(nws.data_access_s > 2.0 * wss.data_access_s);
    }

    #[test]
    fn total_time_ordering_matches_fig22() {
        // End to end (compute + access), WSS wins under every sharing
        // strategy.
        let convs = convs();
        for shared in [0usize, 3, 5] {
            let cfg = CorunConfig::paper(shared);
            let wss = cfg.run(ArchKind::Wss, &convs).total_s();
            let ws = cfg.run(ArchKind::Ws, &convs).total_s();
            let nws = cfg.run(ArchKind::Nws, &convs).total_s();
            assert!(wss < ws && wss < nws, "shared={shared}: wss {wss} ws {ws} nws {nws}");
        }
    }

    #[test]
    fn arch_names() {
        assert_eq!(ArchKind::all().map(|a| a.name()), ["NWS", "WS", "WSS"]);
    }
}
