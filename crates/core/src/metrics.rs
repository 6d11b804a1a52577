//! Accounting meters: data movement, energy and update time.
//!
//! These are the three metrics the paper's end-to-end evaluation
//! reports (its Table II and Fig. 25). They are plain accumulators —
//! every component that moves data or spends modeled time/energy
//! reports into them, so system variants can be compared on the same
//! stream.

/// Bytes occupied by one image on the uplink (3×36×36 fp32).
pub const IMAGE_BYTES: u64 = (3 * 36 * 36 * 4) as u64;

/// Accumulates node→Cloud data movement.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DataMovementMeter {
    /// Images examined by the node.
    pub images_seen: u64,
    /// Images actually uploaded.
    pub images_uploaded: u64,
    /// Bytes uploaded.
    pub bytes_uploaded: u64,
}

impl DataMovementMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a processed stage: `seen` images examined, `uploaded`
    /// of them sent to the Cloud.
    pub fn record(&mut self, seen: u64, uploaded: u64) {
        self.images_seen += seen;
        self.images_uploaded += uploaded;
        self.bytes_uploaded += uploaded * IMAGE_BYTES;
    }

    /// Folds another meter into this one, e.g. to total the movement of
    /// several nodes or session phases.
    pub fn merge(&mut self, other: &DataMovementMeter) {
        self.images_seen += other.images_seen;
        self.images_uploaded += other.images_uploaded;
        self.bytes_uploaded += other.bytes_uploaded;
    }

    /// Fraction of seen images that were uploaded (1.0 when nothing
    /// was seen, i.e. "everything moved" is the conservative default).
    pub fn upload_fraction(&self) -> f64 {
        if self.images_seen == 0 {
            1.0
        } else {
            self.images_uploaded as f64 / self.images_seen as f64
        }
    }
}

/// Accumulates modeled energy by category, in joules.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyMeter {
    /// Cloud training energy.
    pub cloud_training_j: f64,
    /// Radio/uplink transfer energy.
    pub transfer_j: f64,
    /// Node-side compute energy (inference + diagnosis).
    pub node_compute_j: f64,
}

impl EnergyMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds another meter into this one, per category.
    pub fn merge(&mut self, other: &EnergyMeter) {
        self.cloud_training_j += other.cloud_training_j;
        self.transfer_j += other.transfer_j;
        self.node_compute_j += other.node_compute_j;
    }

    /// Total joules across categories.
    pub fn total_j(&self) -> f64 {
        self.cloud_training_j + self.transfer_j + self.node_compute_j
    }
}

/// Accumulates modeled model-update wall time, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UpdateClock {
    /// Time spent transferring data to the Cloud.
    pub transfer_s: f64,
    /// Time spent retraining in the Cloud.
    pub training_s: f64,
}

impl UpdateClock {
    /// Creates a zeroed clock.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds another clock into this one, per phase.
    pub fn merge(&mut self, other: &UpdateClock) {
        self.transfer_s += other.transfer_s;
        self.training_s += other.training_s;
    }

    /// Total update latency in seconds.
    pub fn total_s(&self) -> f64 {
        self.transfer_s + self.training_s
    }
}

/// Summary statistics of a stage's diagnosis scores, computed with
/// the SIMD reductions in
/// [`insitu_tensor::simd`]: a deterministic 8-lane sum for the mean
/// and a NaN-skipping min/max scan. Stage telemetry and snapshots
/// report it so drift shows up as a shifting score distribution, not
/// just a valuable-count.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ScoreSummary {
    /// Scores summarized.
    pub count: usize,
    /// Mean score (0 when empty).
    pub mean: f32,
    /// Smallest score (0 when empty).
    pub min: f32,
    /// Largest score (0 when empty).
    pub max: f32,
}

impl ScoreSummary {
    /// Summarizes a slice of scores.
    pub fn from_scores(scores: &[f32]) -> Self {
        if scores.is_empty() {
            return Self::default();
        }
        let (min, max) = insitu_tensor::simd::min_max(scores);
        ScoreSummary {
            count: scores.len(),
            mean: insitu_tensor::simd::sum8(scores) / scores.len() as f32,
            min,
            max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn score_summary_statistics() {
        let s = ScoreSummary::from_scores(&[0.25, 0.75, 0.5, 1.0]);
        assert_eq!(s.count, 4);
        assert!((s.mean - 0.625).abs() < 1e-6);
        assert_eq!(s.min, 0.25);
        assert_eq!(s.max, 1.0);
        assert_eq!(ScoreSummary::from_scores(&[]), ScoreSummary::default());
    }

    #[test]
    fn movement_accounting() {
        let mut m = DataMovementMeter::new();
        assert_eq!(m.upload_fraction(), 1.0);
        m.record(100, 25);
        m.record(100, 15);
        assert_eq!(m.images_seen, 200);
        assert_eq!(m.images_uploaded, 40);
        assert_eq!(m.bytes_uploaded, 40 * IMAGE_BYTES);
        assert!((m.upload_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn energy_totals() {
        let e = EnergyMeter { cloud_training_j: 10.0, transfer_j: 2.5, node_compute_j: 1.5 };
        assert!((e.total_j() - 14.0).abs() < 1e-12);
        assert_eq!(EnergyMeter::new().total_j(), 0.0);
    }

    #[test]
    fn clock_totals() {
        let c = UpdateClock { transfer_s: 3.0, training_s: 7.0 };
        assert!((c.total_s() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn image_bytes_constant() {
        assert_eq!(IMAGE_BYTES, 15_552);
    }

    #[test]
    fn merge_sums_fieldwise() {
        let mut m = DataMovementMeter::new();
        m.record(100, 25);
        let mut m2 = DataMovementMeter::new();
        m2.record(60, 5);
        m.merge(&m2);
        assert_eq!(m.images_seen, 160);
        assert_eq!(m.images_uploaded, 30);
        assert_eq!(m.bytes_uploaded, 30 * IMAGE_BYTES);

        let mut e = EnergyMeter { cloud_training_j: 1.0, transfer_j: 2.0, node_compute_j: 3.0 };
        e.merge(&EnergyMeter { cloud_training_j: 0.5, transfer_j: 0.25, node_compute_j: 0.125 });
        assert!((e.total_j() - 6.875).abs() < 1e-12);

        let mut c = UpdateClock { transfer_s: 1.0, training_s: 2.0 };
        c.merge(&UpdateClock { transfer_s: 3.0, training_s: 4.0 });
        assert!((c.total_s() - 10.0).abs() < 1e-12);
        // Merging an empty meter is the identity.
        let before = c;
        c.merge(&UpdateClock::new());
        assert_eq!(c, before);
    }
}
