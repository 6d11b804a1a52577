//! Learning-rate schedules.

/// A learning-rate schedule: maps an epoch index to a multiplier on
/// the base learning rate.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum LrSchedule {
    /// Constant learning rate.
    #[default]
    Constant,
    /// Multiply by `gamma` every `every` epochs (Caffe-style step
    /// decay, what the paper's training would have used).
    Step {
        /// Epoch period.
        every: usize,
        /// Decay factor per period.
        gamma: f32,
    },
    /// Multiply by `gamma` after every epoch.
    Exponential {
        /// Decay factor per epoch.
        gamma: f32,
    },
    /// Linear warmup over `warmup` epochs, then constant.
    Warmup {
        /// Warmup length in epochs.
        warmup: usize,
    },
}

impl LrSchedule {
    /// The multiplier on the base learning rate at `epoch` (0-based).
    pub fn factor(&self, epoch: usize) -> f32 {
        match *self {
            LrSchedule::Constant => 1.0,
            LrSchedule::Step { every, gamma } => {
                gamma.powi((epoch / every.max(1)) as i32)
            }
            LrSchedule::Exponential { gamma } => gamma.powi(epoch as i32),
            LrSchedule::Warmup { warmup } => {
                if warmup == 0 || epoch >= warmup {
                    1.0
                } else {
                    (epoch + 1) as f32 / warmup as f32
                }
            }
        }
    }

    /// The absolute learning rate at `epoch` for a base rate.
    pub fn lr_at(&self, base: f32, epoch: usize) -> f32 {
        base * self.factor(epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_one() {
        for e in 0..10 {
            assert_eq!(LrSchedule::Constant.factor(e), 1.0);
        }
    }

    #[test]
    fn step_decays_in_plateaus() {
        let s = LrSchedule::Step { every: 3, gamma: 0.1 };
        assert_eq!(s.factor(0), 1.0);
        assert_eq!(s.factor(2), 1.0);
        assert!((s.factor(3) - 0.1).abs() < 1e-7);
        assert!((s.factor(6) - 0.01).abs() < 1e-8);
        assert!((s.lr_at(0.5, 3) - 0.05).abs() < 1e-7);
    }

    #[test]
    fn exponential_decays_every_epoch() {
        let s = LrSchedule::Exponential { gamma: 0.5 };
        assert_eq!(s.factor(0), 1.0);
        assert_eq!(s.factor(1), 0.5);
        assert_eq!(s.factor(3), 0.125);
    }

    #[test]
    fn warmup_ramps_then_holds() {
        let s = LrSchedule::Warmup { warmup: 4 };
        assert_eq!(s.factor(0), 0.25);
        assert_eq!(s.factor(1), 0.5);
        assert_eq!(s.factor(3), 1.0);
        assert_eq!(s.factor(10), 1.0);
        // Degenerate warmup never divides by zero.
        assert_eq!(LrSchedule::Warmup { warmup: 0 }.factor(0), 1.0);
        assert_eq!(LrSchedule::Step { every: 0, gamma: 0.5 }.factor(2), 0.25);
    }
}
