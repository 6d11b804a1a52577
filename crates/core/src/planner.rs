//! The configuration planner: the paper's analytical models put to
//! work.
//!
//! Given the deployment constraints (availability, end-user latency
//! bound) and the network shapes, the planner chooses the working
//! mode, platform, and batch sizes:
//!
//! * **Single-running (GPU)** — the *time model* (Eqs. 5–8) picks the
//!   largest inference batch meeting the latency bound (maximum
//!   perf/W under the deadline, the paper's Fig. 21 method); the
//!   *resource model* (Eq. 9) picks the largest diagnosis batch that
//!   fits device memory.
//! * **Co-running (FPGA)** — Eqs. (10)–(14) configure the WSS Group +
//!   NWS pipeline and pick the largest batch meeting the latency
//!   bound.

use crate::error::CoreError;
use crate::modes::{select_mode, Availability, Platform, WorkingMode};
use crate::node::InferencePrecision;
use crate::Result;
use insitu_devices::{FpgaSpec, GpuModel, GpuSpec, NetworkShapes};
use insitu_fpga::WssNwsPipeline;
use insitu_telemetry::TelemetrySnapshot;

/// Measured i8-vs-f32 trade-off a node feeds back to the planner.
///
/// The paper's FPGA PEs are fixed-point; running the deployed network
/// at [`InferencePrecision::I8`] trades a small accuracy delta for a
/// throughput gain. Both numbers come from *measurement* on the node
/// (the `node_snapshot` benchmark reports them), not from the
/// analytical model — the planner folds them into the Eqs. (10)–(14)
/// time model to decide whether the quantized configuration still
/// meets the user's deadline and what batch it admits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantProfile {
    /// Measured i8 throughput multiplier over f32 (e.g. `1.8`).
    pub speedup: f64,
    /// Held-out accuracy change of i8 relative to f32, in fractional
    /// points (usually a small negative number).
    pub accuracy_delta: f32,
}

/// Per-stage costs *measured* on the running node, distilled from the
/// telemetry histograms — the closed-loop replacement for the static
/// device model.
///
/// The node's fused stage records a `node.stage_per_image` histogram
/// labelled by precision (`"f32"` / `"i8"`) and a `node.upload_bytes`
/// size histogram; [`MeasuredProfile::from_snapshot`] reads those into
/// per-image latency percentiles, the observed i8-vs-f32 speedup, and
/// the achieved uplink rate. [`plan_with_measurements`] then admits
/// the largest batch whose **measured p90** per-image cost meets the
/// user deadline, instead of trusting Eqs. 5–14's assumed costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredProfile {
    /// Median per-image stage latency, seconds.
    pub per_image_p50_s: f64,
    /// 90th-percentile per-image stage latency, seconds — what the
    /// admission decision uses (tail-aware, unlike a mean).
    pub per_image_p90_s: f64,
    /// Measured f32-p50 / i8-p50 throughput ratio, when both
    /// precisions have samples in the window.
    pub i8_speedup: Option<f64>,
    /// Achieved upload rate over the window, bytes/second of stage
    /// time (0.0 when nothing was uploaded).
    pub uplink_bytes_per_s: f64,
    /// Stage samples the profile distils.
    pub stages: u64,
}

impl MeasuredProfile {
    /// Distils a profile from a telemetry snapshot, reading the
    /// per-image latency histogram at `precision`. Returns `None`
    /// when the snapshot has no samples at that precision (telemetry
    /// disabled, or the window just reset).
    pub fn from_snapshot(snap: &TelemetrySnapshot, precision: InferencePrecision) -> Option<Self> {
        let label = precision_label(precision);
        let per_image = snap.hist("node.stage_per_image", label)?;
        if per_image.hist.is_empty() {
            return None;
        }
        let f32_p50 = snap.hist("node.stage_per_image", "f32").map(|h| h.p50);
        let i8_p50 = snap.hist("node.stage_per_image", "i8").map(|h| h.p50);
        let i8_speedup = match (f32_p50, i8_p50) {
            (Some(f), Some(i)) if i > 0 => Some(f as f64 / i as f64),
            _ => None,
        };
        let uplink_bytes_per_s = match (
            snap.hist("node.upload_bytes", ""),
            snap.hist("node.stage", ""),
        ) {
            (Some(bytes), Some(stage)) if stage.hist.sum() > 0 => {
                bytes.hist.sum() as f64 / (stage.hist.sum() as f64 / 1e9)
            }
            _ => 0.0,
        };
        Some(MeasuredProfile {
            per_image_p50_s: per_image.p50 as f64 / 1e9,
            per_image_p90_s: per_image.p90 as f64 / 1e9,
            i8_speedup,
            uplink_bytes_per_s,
            stages: per_image.hist.count(),
        })
    }
}

/// Telemetry label of a precision (`"f32"` / `"i8"`).
pub fn precision_label(precision: InferencePrecision) -> &'static str {
    match precision {
        InferencePrecision::F32 => "f32",
        InferencePrecision::I8 => "i8",
    }
}

/// Deployment constraints supplied by the end user.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanRequest {
    /// Availability requirement for the inference task.
    pub availability: Availability,
    /// End-user latency bound for inference, in seconds.
    pub t_user: f64,
    /// Upper bound on batch sizes the search considers.
    pub max_batch: usize,
}

impl Default for PlanRequest {
    fn default() -> Self {
        PlanRequest { availability: Availability::Scheduled, t_user: 0.1, max_batch: 256 }
    }
}

/// The planner's decision.
#[derive(Debug, Clone, PartialEq)]
pub struct NodePlan {
    /// Chosen working mode.
    pub mode: WorkingMode,
    /// Chosen accelerator.
    pub platform: Platform,
    /// Inference batch size.
    pub inference_batch: usize,
    /// Diagnosis batch size (Single-running) or pipeline batch
    /// (Co-running).
    pub diagnosis_batch: usize,
    /// Predicted inference latency at the chosen batch, seconds.
    pub predicted_latency_s: f64,
    /// Predicted throughput, images/second.
    pub predicted_throughput: f64,
    /// Predicted energy-efficiency, images/second/watt (GPU path only;
    /// 0.0 for the FPGA pipeline where the paper optimizes throughput).
    pub predicted_perf_per_watt: f64,
    /// WSS group size (Co-running only; 0 otherwise).
    pub wss_group_size: usize,
    /// Precision the inference task should run at.
    pub precision: InferencePrecision,
    /// Expected accuracy change of the chosen precision vs f32, in
    /// fractional points (0.0 for f32 plans).
    pub accuracy_delta: f32,
}

impl NodePlan {
    /// One-line description for logs, instants and flight-recorder
    /// events, e.g. `CoRunning/Fpga bs=32 i8 (0.0123 s/batch)`.
    pub fn summary(&self) -> String {
        format!(
            "{}/{} bs={} {} ({:.4} s/batch)",
            self.mode,
            self.platform,
            self.inference_batch,
            precision_label(self.precision),
            self.predicted_latency_s
        )
    }
}

/// Plans a node configuration for the given constraints and networks.
///
/// # Errors
///
/// Returns [`CoreError::Infeasible`] when no batch size meets the
/// latency bound on the selected platform.
pub fn plan(
    request: &PlanRequest,
    inference: &NetworkShapes,
    diagnosis: &NetworkShapes,
) -> Result<NodePlan> {
    plan_with_precision(request, inference, diagnosis, None)
}

/// Plans a node configuration, optionally folding a measured
/// [`QuantProfile`] into the Co-running time model.
///
/// With a profile, the FPGA branch scales the pipeline's per-batch
/// latency by the measured i8 speedup before applying the latency
/// bound — a batch is admissible iff its f32 latency is within
/// `t_user × speedup` — and reports i8-adjusted latency/throughput and
/// the expected accuracy delta. The GPU branch always plans f32: the
/// quantized kernels model the FPGA's fixed-point PEs, not the mobile
/// GPU's floating-point ALUs.
///
/// # Errors
///
/// Returns [`CoreError::Infeasible`] when no batch size meets the
/// latency bound, and [`CoreError::BadConfig`] for a degenerate
/// profile (non-finite or non-positive speedup).
pub fn plan_with_precision(
    request: &PlanRequest,
    inference: &NetworkShapes,
    diagnosis: &NetworkShapes,
    quant: Option<&QuantProfile>,
) -> Result<NodePlan> {
    if let Some(q) = quant {
        if !(q.speedup.is_finite() && q.speedup > 0.0) {
            return Err(CoreError::BadConfig {
                reason: format!("quant profile speedup must be finite and > 0, got {}", q.speedup),
            });
        }
    }
    let (mode, platform) = select_mode(request.availability);
    match platform {
        Platform::MobileGpu => {
            let gpu = GpuModel::new(GpuSpec::tx1());
            let inference_batch = gpu
                .optimal_batch(inference, request.t_user, request.max_batch)
                .ok_or_else(|| CoreError::Infeasible {
                    reason: format!(
                        "no GPU batch meets {} s for `{}`",
                        request.t_user, inference.name
                    ),
                })?;
            let diagnosis_batch = gpu.max_batch_under_ram(diagnosis, request.max_batch).max(1);
            Ok(NodePlan {
                mode,
                platform,
                inference_batch,
                diagnosis_batch,
                predicted_latency_s: gpu.batch_latency(inference, inference_batch),
                predicted_throughput: gpu.throughput(inference, inference_batch),
                predicted_perf_per_watt: gpu.perf_per_watt(inference, inference_batch),
                wss_group_size: 0,
                precision: InferencePrecision::F32,
                accuracy_delta: 0.0,
            })
        }
        Platform::Fpga => {
            let spec = FpgaSpec::vx690t();
            let convs = inference.convs();
            let fcs = inference.fcs();
            let pipe = WssNwsPipeline::configure(spec, &convs, &fcs);
            let speedup = quant.map_or(1.0, |q| q.speedup);
            let point = pipe
                .best_under_latency(&convs, &fcs, request.t_user * speedup, request.max_batch)
                .ok_or_else(|| CoreError::Infeasible {
                    reason: format!(
                        "no pipeline batch meets {} s for `{}`",
                        request.t_user, inference.name
                    ),
                })?;
            Ok(NodePlan {
                mode,
                platform,
                inference_batch: point.batch,
                diagnosis_batch: point.batch,
                predicted_latency_s: point.latency_s / speedup,
                predicted_throughput: point.throughput * speedup,
                predicted_perf_per_watt: 0.0,
                wss_group_size: pipe.group_size,
                precision: if quant.is_some() {
                    InferencePrecision::I8
                } else {
                    InferencePrecision::F32
                },
                accuracy_delta: quant.map_or(0.0, |q| q.accuracy_delta),
            })
        }
    }
}

/// Plans a node configuration from **measured** per-stage costs
/// instead of the analytical device model: the mode/platform decision
/// still follows the paper's availability rule, but batch admission
/// uses the profile's p90 per-image latency — the largest batch whose
/// measured cost fits `t_user` is chosen. This is what the node's
/// online re-plan path calls when the observed p90 diverges from the
/// current plan's prediction.
///
/// The `quant` profile plays the same role as in
/// [`plan_with_precision`]: on the FPGA platform it marks the plan i8
/// and carries the accuracy delta. The measured per-image latencies in
/// `measured` are taken as-is (they were recorded at the precision the
/// node actually runs), so no speedup rescaling is applied.
///
/// # Errors
///
/// Returns [`CoreError::Infeasible`] when even a single image misses
/// the deadline at the measured p90, and [`CoreError::BadConfig`] for
/// a degenerate profile (non-finite or non-positive latency).
pub fn plan_with_measurements(
    request: &PlanRequest,
    inference: &NetworkShapes,
    quant: Option<&QuantProfile>,
    measured: &MeasuredProfile,
) -> Result<NodePlan> {
    let per_image = measured.per_image_p90_s;
    if !(per_image.is_finite() && per_image > 0.0) {
        return Err(CoreError::BadConfig {
            reason: format!("measured per-image latency must be finite and > 0, got {per_image}"),
        });
    }
    let (mode, platform) = select_mode(request.availability);
    if per_image > request.t_user {
        return Err(CoreError::Infeasible {
            reason: format!(
                "measured p90 per-image latency {per_image:.6} s exceeds the {} s deadline \
                 for `{}`",
                request.t_user, inference.name
            ),
        });
    }
    let batch =
        ((request.t_user / per_image).floor() as usize).clamp(1, request.max_batch.max(1));
    let quantized = platform == Platform::Fpga && quant.is_some();
    let wss_group_size = if platform == Platform::Fpga {
        let convs = inference.convs();
        let fcs = inference.fcs();
        WssNwsPipeline::configure(FpgaSpec::vx690t(), &convs, &fcs).group_size
    } else {
        0
    };
    Ok(NodePlan {
        mode,
        platform,
        inference_batch: batch,
        diagnosis_batch: batch,
        predicted_latency_s: batch as f64 * per_image,
        predicted_throughput: 1.0 / per_image,
        predicted_perf_per_watt: 0.0,
        wss_group_size,
        precision: if quantized { InferencePrecision::I8 } else { InferencePrecision::F32 },
        accuracy_delta: if quantized { quant.map_or(0.0, |q| q.accuracy_delta) } else { 0.0 },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nets() -> (NetworkShapes, NetworkShapes) {
        let inf = NetworkShapes::alexnet();
        let diag = NetworkShapes::diagnosis_of(&inf, 9);
        (inf, diag)
    }

    #[test]
    fn scheduled_plan_uses_gpu_time_and_resource_models() {
        let (inf, diag) = nets();
        let req = PlanRequest {
            availability: Availability::Scheduled,
            t_user: 0.1,
            max_batch: 128,
        };
        let plan = plan(&req, &inf, &diag).unwrap();
        assert_eq!(plan.platform, Platform::MobileGpu);
        assert_eq!(plan.mode, WorkingMode::SingleRunning);
        assert!(plan.predicted_latency_s <= 0.1);
        assert!(plan.inference_batch >= 1);
        assert!(plan.diagnosis_batch >= plan.inference_batch); // RAM >> deadline bound
        assert!(plan.predicted_perf_per_watt > 0.0);
    }

    #[test]
    fn always_on_plan_uses_fpga_pipeline() {
        let (inf, diag) = nets();
        let req =
            PlanRequest { availability: Availability::AlwaysOn, t_user: 0.2, max_batch: 128 };
        let plan = plan(&req, &inf, &diag).unwrap();
        assert_eq!(plan.platform, Platform::Fpga);
        assert_eq!(plan.mode, WorkingMode::CoRunning);
        assert!(plan.predicted_latency_s <= 0.2);
        assert!(plan.wss_group_size >= 1);
    }

    #[test]
    fn impossible_deadline_is_infeasible() {
        let (inf, diag) = nets();
        let req = PlanRequest {
            availability: Availability::Scheduled,
            t_user: 1e-9,
            max_batch: 16,
        };
        assert!(matches!(
            plan(&req, &inf, &diag),
            Err(CoreError::Infeasible { .. })
        ));
    }

    #[test]
    fn quant_profile_boosts_fpga_throughput_and_records_delta() {
        let (inf, diag) = nets();
        let req =
            PlanRequest { availability: Availability::AlwaysOn, t_user: 0.2, max_batch: 128 };
        let f32_plan = plan(&req, &inf, &diag).unwrap();
        let profile = QuantProfile { speedup: 1.8, accuracy_delta: -0.007 };
        let i8_plan = plan_with_precision(&req, &inf, &diag, Some(&profile)).unwrap();
        assert_eq!(i8_plan.precision, InferencePrecision::I8);
        assert_eq!(i8_plan.accuracy_delta, -0.007);
        assert!(i8_plan.predicted_latency_s <= req.t_user + 1e-12);
        assert!(
            i8_plan.predicted_throughput > f32_plan.predicted_throughput,
            "i8 {} vs f32 {}",
            i8_plan.predicted_throughput,
            f32_plan.predicted_throughput
        );
        // Without a profile, plan_with_precision is exactly plan().
        assert_eq!(plan_with_precision(&req, &inf, &diag, None).unwrap(), f32_plan);
        assert_eq!(f32_plan.precision, InferencePrecision::F32);
        assert_eq!(f32_plan.accuracy_delta, 0.0);
    }

    #[test]
    fn quant_profile_can_rescue_an_infeasible_deadline() {
        let (inf, diag) = nets();
        // Find a deadline tight enough that f32 fails but 4x i8 passes.
        let req =
            PlanRequest { availability: Availability::AlwaysOn, t_user: 1e-4, max_batch: 64 };
        if plan(&req, &inf, &diag).is_err() {
            let profile = QuantProfile { speedup: 1e3, accuracy_delta: -0.01 };
            let rescued = plan_with_precision(&req, &inf, &diag, Some(&profile));
            assert!(rescued.is_ok(), "large measured speedup should admit a batch");
        }
    }

    #[test]
    fn gpu_plans_stay_f32_even_with_a_profile() {
        let (inf, diag) = nets();
        let req = PlanRequest {
            availability: Availability::Scheduled,
            t_user: 0.1,
            max_batch: 128,
        };
        let profile = QuantProfile { speedup: 2.0, accuracy_delta: -0.01 };
        let p = plan_with_precision(&req, &inf, &diag, Some(&profile)).unwrap();
        assert_eq!(p.platform, Platform::MobileGpu);
        assert_eq!(p.precision, InferencePrecision::F32);
        assert_eq!(p.accuracy_delta, 0.0);
        assert_eq!(p, plan(&req, &inf, &diag).unwrap());
    }

    #[test]
    fn degenerate_quant_profile_is_rejected() {
        let (inf, diag) = nets();
        let req =
            PlanRequest { availability: Availability::AlwaysOn, t_user: 0.2, max_batch: 128 };
        for speedup in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let profile = QuantProfile { speedup, accuracy_delta: 0.0 };
            assert!(matches!(
                plan_with_precision(&req, &inf, &diag, Some(&profile)),
                Err(CoreError::BadConfig { .. })
            ));
        }
    }

    fn profile(per_image_s: f64) -> MeasuredProfile {
        MeasuredProfile {
            per_image_p50_s: per_image_s * 0.8,
            per_image_p90_s: per_image_s,
            i8_speedup: None,
            uplink_bytes_per_s: 0.0,
            stages: 10,
        }
    }

    #[test]
    fn measured_plan_admits_batch_from_p90() {
        let (inf, _) = nets();
        let req =
            PlanRequest { availability: Availability::AlwaysOn, t_user: 0.1, max_batch: 256 };
        let p = plan_with_measurements(&req, &inf, None, &profile(0.01)).unwrap();
        assert_eq!(p.platform, Platform::Fpga);
        assert_eq!(p.mode, WorkingMode::CoRunning);
        assert_eq!(p.inference_batch, 10); // floor(0.1 / 0.01)
        assert!(p.predicted_latency_s <= req.t_user + 1e-12);
        assert!((p.predicted_throughput - 100.0).abs() < 1e-6);
        assert!(p.wss_group_size >= 1);
        // A slower node admits a smaller batch.
        let slow = plan_with_measurements(&req, &inf, None, &profile(0.04)).unwrap();
        assert!(slow.inference_batch < p.inference_batch);
        // max_batch caps the admission.
        let tiny = PlanRequest { max_batch: 4, ..req };
        let capped = plan_with_measurements(&tiny, &inf, None, &profile(0.01)).unwrap();
        assert_eq!(capped.inference_batch, 4);
    }

    #[test]
    fn measured_plan_infeasible_and_degenerate() {
        let (inf, _) = nets();
        let req =
            PlanRequest { availability: Availability::AlwaysOn, t_user: 0.01, max_batch: 64 };
        assert!(matches!(
            plan_with_measurements(&req, &inf, None, &profile(0.02)),
            Err(CoreError::Infeasible { .. })
        ));
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                plan_with_measurements(&req, &inf, None, &profile(bad)),
                Err(CoreError::BadConfig { .. })
            ));
        }
    }

    #[test]
    fn measured_plan_quant_marks_i8_on_fpga_only() {
        let (inf, _) = nets();
        let q = QuantProfile { speedup: 1.7, accuracy_delta: -0.005 };
        let fpga =
            PlanRequest { availability: Availability::AlwaysOn, t_user: 0.1, max_batch: 64 };
        let p = plan_with_measurements(&fpga, &inf, Some(&q), &profile(0.01)).unwrap();
        assert_eq!(p.precision, InferencePrecision::I8);
        assert_eq!(p.accuracy_delta, -0.005);
        let gpu =
            PlanRequest { availability: Availability::Scheduled, t_user: 0.1, max_batch: 64 };
        let p = plan_with_measurements(&gpu, &inf, Some(&q), &profile(0.01)).unwrap();
        assert_eq!(p.precision, InferencePrecision::F32);
        assert_eq!(p.accuracy_delta, 0.0);
        assert_eq!(p.wss_group_size, 0);
    }

    #[test]
    fn plan_summary_is_one_line() {
        let (inf, diag) = nets();
        let req =
            PlanRequest { availability: Availability::AlwaysOn, t_user: 0.2, max_batch: 128 };
        let s = plan(&req, &inf, &diag).unwrap().summary();
        assert!(s.contains("CoRunning/Fpga"), "{s}");
        assert!(s.contains("bs="), "{s}");
        assert!(!s.contains('\n'));
    }

    #[test]
    fn empty_snapshot_yields_no_profile() {
        assert!(
            MeasuredProfile::from_snapshot(&TelemetrySnapshot::default(), InferencePrecision::F32)
                .is_none()
        );
    }

    #[test]
    fn looser_deadline_never_reduces_throughput() {
        let (inf, diag) = nets();
        let mut last = 0.0;
        for &t in &[0.05, 0.1, 0.2, 0.4] {
            let req = PlanRequest {
                availability: Availability::AlwaysOn,
                t_user: t,
                max_batch: 256,
            };
            let p = plan(&req, &inf, &diag).unwrap();
            assert!(p.predicted_throughput >= last * 0.999);
            last = p.predicted_throughput;
        }
    }
}
