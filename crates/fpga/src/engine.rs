//! The two convolution-engine styles the paper contrasts.
//!
//! * [`DotProductEngine`] — the classical design (paper Fig. 10): `Tm`
//!   vector dot-product units of width `Tn`, unrolling input/output
//!   feature maps. Its efficiency follows Eq. (4) and suffers when `N`
//!   or `M` does not divide evenly.
//! * [`PeArrayEngine`] — the WSS building block (paper Fig. 18): a
//!   `Tr x Tc` grid of processing elements, one per output neuron, with
//!   a single kernel weight broadcast to all PEs each cycle. Because
//!   every PE computes a real output neuron, compute resources can be
//!   allocated *proportionally to layer load*, which is what removes
//!   the idleness of the uniform design.

use insitu_devices::{ConvShape, FcShape};

/// A `Tm x Tn` dot-product convolution engine (paper Fig. 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DotProductEngine {
    /// Output-feature-map unroll factor.
    pub tm: u32,
    /// Input-feature-map unroll factor.
    pub tn: u32,
}

impl DotProductEngine {
    /// Processing elements (multipliers) in the engine.
    pub fn pe_count(&self) -> u32 {
        self.tm * self.tn
    }

    /// Cycles to execute one CONV layer for one sample.
    pub fn conv_cycles(&self, s: &ConvShape) -> u64 {
        (s.n.div_ceil(self.tn as usize) * s.m.div_ceil(self.tm as usize)) as u64
            * (s.r * s.c) as u64
            * (s.k * s.k) as u64
    }

    /// Cycles to execute one FCN layer for one sample (`K = R = C = 1`).
    pub fn fc_cycles(&self, s: &FcShape) -> u64 {
        (s.input.div_ceil(self.tn as usize) * s.output.div_ceil(self.tm as usize)) as u64
    }

    /// Paper Eq. (4): fraction of multipliers doing useful work.
    pub fn utilization(&self, s: &ConvShape) -> f64 {
        let (tn, tm) = (self.tn as usize, self.tm as usize);
        (s.n * s.m) as f64 / (tn * tm * s.n.div_ceil(tn) * s.m.div_ceil(tm)) as f64
    }

    /// Chooses the best `(Tm, Tn)` under a PE budget for a layer set:
    /// minimizes total conv cycles. Unroll factors are restricted to
    /// powers of two, matching realistic RTL generators (and the
    /// uniform-unrolling constraint of the paper's WS design).
    pub fn fit(convs: &[ConvShape], pe_budget: u32) -> DotProductEngine {
        let mut best = DotProductEngine { tm: 1, tn: 1 };
        let mut best_cycles = u64::MAX;
        let candidates: Vec<u32> =
            (0..=12).map(|p| 1u32 << p).filter(|&x| x <= pe_budget.max(1)).collect();
        for &tm in &candidates {
            for &tn in &candidates {
                if tm * tn > pe_budget {
                    continue;
                }
                let e = DotProductEngine { tm, tn };
                let cycles: u64 = convs.iter().map(|s| e.conv_cycles(s)).sum();
                if cycles < best_cycles
                    || (cycles == best_cycles && e.pe_count() < best.pe_count())
                {
                    best_cycles = cycles;
                    best = e;
                }
            }
        }
        best
    }
}

/// A `Tr x Tc` output-neuron PE array (paper Fig. 18, one convolution
/// engine of the WSS architecture).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeArrayEngine {
    /// Output-row unroll factor.
    pub tr: u32,
    /// Output-column unroll factor.
    pub tc: u32,
}

impl PeArrayEngine {
    /// Processing elements in the array.
    pub fn pe_count(&self) -> u32 {
        self.tr * self.tc
    }

    /// Cycles to execute one CONV layer for one sample when this engine
    /// is one of `group_size` engines splitting the `M` filters
    /// (paper Eq. (11)).
    pub fn conv_cycles(&self, s: &ConvShape, group_size: usize) -> u64 {
        s.m.div_ceil(group_size.max(1)) as u64
            * (s.n * s.k * s.k) as u64
            * s.r.div_ceil(self.tr as usize) as u64
            * s.c.div_ceil(self.tc as usize) as u64
    }

    /// Fraction of PEs holding a real output neuron on the final
    /// row/column tiles.
    pub fn utilization(&self, s: &ConvShape) -> f64 {
        let (tr, tc) = (self.tr as usize, self.tc as usize);
        (s.r * s.c) as f64 / (tr * tc * s.r.div_ceil(tr) * s.c.div_ceil(tc)) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv() -> ConvShape {
        ConvShape { m: 96, n: 3, k: 11, r: 55, c: 55 }
    }

    #[test]
    fn dot_product_cycles_formula() {
        let e = DotProductEngine { tm: 32, tn: 3 };
        // ceil(3/3)*ceil(96/32) * 55*55*121 = 3 * 55*55*121
        assert_eq!(e.conv_cycles(&conv()), 3 * 55 * 55 * 121);
        assert_eq!(e.pe_count(), 96);
    }

    #[test]
    fn dot_product_fc_cycles() {
        let e = DotProductEngine { tm: 64, tn: 32 };
        let fc = FcShape { input: 9216, output: 4096 };
        assert_eq!(e.fc_cycles(&fc), (9216 / 32 * 4096 / 64) as u64);
    }

    #[test]
    fn eq4_utilization() {
        let e = DotProductEngine { tm: 32, tn: 4 };
        // N=3, M=96: 288 / (4*32*1*3) = 0.75
        assert!((e.utilization(&conv()) - 0.75).abs() < 1e-12);
        let perfect = DotProductEngine { tm: 96, tn: 3 };
        assert!((perfect.utilization(&conv()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fit_respects_budget_and_beats_naive() {
        let convs = [conv(), ConvShape { m: 256, n: 96, k: 5, r: 27, c: 27 }];
        let e = DotProductEngine::fit(&convs, 512);
        assert!(e.pe_count() <= 512);
        let naive = DotProductEngine { tm: 16, tn: 16 };
        let fit_cycles: u64 = convs.iter().map(|s| e.conv_cycles(s)).sum();
        let naive_cycles: u64 = convs.iter().map(|s| naive.conv_cycles(s)).sum();
        assert!(fit_cycles <= naive_cycles);
    }

    #[test]
    fn pe_array_cycles_eq11() {
        let e = PeArrayEngine { tr: 14, tc: 14 };
        let s = conv();
        // ceil(M/G)*N*K²*ceil(R/Tr)*ceil(C/Tc)
        let expect = (96f64 / 4.0).ceil() as u64 * 3 * 121 * 4 * 4;
        assert_eq!(e.conv_cycles(&s, 4), expect);
        assert_eq!(e.pe_count(), 196);
    }

    #[test]
    fn pe_array_more_cycles_with_smaller_group() {
        let e = PeArrayEngine { tr: 14, tc: 14 };
        let s = conv();
        assert!(e.conv_cycles(&s, 1) > e.conv_cycles(&s, 4));
        assert_eq!(e.conv_cycles(&s, 0), e.conv_cycles(&s, 1)); // clamped
    }

    #[test]
    fn pe_array_utilization_tail_effect() {
        let e = PeArrayEngine { tr: 14, tc: 14 };
        // 55x55 output over 14x14 tiles: 3025 / (196 * 4 * 4) ≈ 0.965
        let u = e.utilization(&conv());
        assert!(u > 0.9 && u < 1.0);
        let exact = PeArrayEngine { tr: 11, tc: 11 };
        assert!((exact.utilization(&conv()) - 1.0).abs() < 1e-12);
    }
}
