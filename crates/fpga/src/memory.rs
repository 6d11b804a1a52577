//! Off-chip weight traffic accounting under the sharing strategies.
//!
//! The paper's two-level sharing works on two axes:
//!
//! 1. **Task-level** — the first `n` CONV layers of the inference and
//!    diagnosis networks hold identical weights (transfer learning), so
//!    a shared weight buffer serves both tasks (paper Fig. 17's `SW`
//!    source). The evaluation sweeps `n` ∈ {0, 3, 5} as CONV-0/3/5.
//! 2. **Patch-level** — the 9 diagnosis patch engines always share one
//!    weight stream (they run the *same* network on different tiles),
//!    and inside a PE-array engine one weight is broadcast to all PEs.
//!
//! An architecture without any provision for sharing (NWS) must stream
//! the diagnosis weights once per patch engine.

use insitu_devices::ConvShape;

/// How weights reach the convolution engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharingLevel {
    /// No sharing at all: every consumer streams its own copy.
    None,
    /// Task-level and patch-level sharing (WS and WSS).
    TwoLevel,
}

/// Weight-traffic accounting for one co-running CONV execution
/// (inference + 9-patch diagnosis).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficReport {
    /// Bytes streamed for the inference task's weights.
    pub inference_bytes: u64,
    /// Bytes streamed for the diagnosis task's weights.
    pub diagnosis_bytes: u64,
}

impl TrafficReport {
    /// Total bytes.
    pub fn total_bytes(&self) -> u64 {
        self.inference_bytes + self.diagnosis_bytes
    }
}

/// Weight bytes of one conv layer (fp32).
pub fn conv_weight_bytes(s: &ConvShape) -> u64 {
    (s.m * s.n * s.k * s.k) as u64 * 4
}

/// Computes the weight traffic to execute all `convs` layers of the
/// inference network co-run with the diagnosis network (same conv
/// shapes, `patches` tiles), with the first `shared_layers` layers
/// weight-shared between tasks.
pub fn corun_traffic(
    convs: &[ConvShape],
    shared_layers: usize,
    patches: usize,
    level: SharingLevel,
) -> TrafficReport {
    let mut inference_bytes = 0u64;
    let mut diagnosis_bytes = 0u64;
    for (i, s) in convs.iter().enumerate() {
        let w = conv_weight_bytes(s);
        match level {
            SharingLevel::None => {
                // Inference streams its copy; every patch engine
                // streams its own diagnosis copy.
                inference_bytes += w;
                diagnosis_bytes += w * patches as u64;
            }
            SharingLevel::TwoLevel => {
                if i < shared_layers {
                    // One stream feeds both tasks and all patch engines.
                    inference_bytes += w;
                } else {
                    // Dedicated per task, but patch engines still share.
                    inference_bytes += w;
                    diagnosis_bytes += w;
                }
            }
        }
    }
    TrafficReport { inference_bytes, diagnosis_bytes }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn convs() -> Vec<ConvShape> {
        vec![
            ConvShape { m: 96, n: 3, k: 11, r: 55, c: 55 },
            ConvShape { m: 256, n: 96, k: 5, r: 27, c: 27 },
            ConvShape { m: 384, n: 256, k: 3, r: 13, c: 13 },
            ConvShape { m: 384, n: 384, k: 3, r: 13, c: 13 },
            ConvShape { m: 256, n: 384, k: 3, r: 13, c: 13 },
        ]
    }

    #[test]
    fn weight_bytes_formula() {
        let s = ConvShape { m: 4, n: 3, k: 2, r: 1, c: 1 };
        assert_eq!(conv_weight_bytes(&s), 4 * 3 * 4 * 4);
    }

    #[test]
    fn nws_pays_per_patch() {
        let t = corun_traffic(&convs(), 0, 9, SharingLevel::None);
        let w_total: u64 = convs().iter().map(conv_weight_bytes).sum();
        assert_eq!(t.inference_bytes, w_total);
        assert_eq!(t.diagnosis_bytes, 9 * w_total);
    }

    #[test]
    fn two_level_sharing_collapses_patches() {
        let t = corun_traffic(&convs(), 0, 9, SharingLevel::TwoLevel);
        let w_total: u64 = convs().iter().map(conv_weight_bytes).sum();
        // CONV-0: no task sharing, but patch engines share one stream.
        assert_eq!(t.total_bytes(), 2 * w_total);
    }

    #[test]
    fn traffic_decreases_with_shared_layers() {
        // Paper Fig. 22: data-access time decreases as the number of
        // shared layers increases (CONV-0 → CONV-3 → CONV-5).
        let t0 = corun_traffic(&convs(), 0, 9, SharingLevel::TwoLevel).total_bytes();
        let t3 = corun_traffic(&convs(), 3, 9, SharingLevel::TwoLevel).total_bytes();
        let t5 = corun_traffic(&convs(), 5, 9, SharingLevel::TwoLevel).total_bytes();
        assert!(t0 > t3);
        assert!(t3 > t5);
        // CONV-5: everything shared once.
        let w_total: u64 = convs().iter().map(conv_weight_bytes).sum();
        assert_eq!(t5, w_total);
    }

    #[test]
    fn nws_is_insensitive_to_sharing_depth() {
        let a = corun_traffic(&convs(), 0, 9, SharingLevel::None).total_bytes();
        let b = corun_traffic(&convs(), 5, 9, SharingLevel::None).total_bytes();
        assert_eq!(a, b);
    }
}
