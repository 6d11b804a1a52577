//! Workload definitions, the seeded deployment every run of a workload
//! shares, and the timing wrapper around the live Cloud.

use insitu_cloud::{
    build_inference, pretrain, Cloud, DeployConfig, IncrementalConfig, PretrainConfig, Pretrained,
};
use insitu_core::{CloudEndpoint, DiagnosisPolicy, InsituNode, ModelUpdate};
use insitu_data::{Condition, Dataset, DriftSchedule, SyntheticDriftSource};
use insitu_nn::Sequential;
use insitu_tensor::{Rng, Tensor};
use std::error::Error;
use std::time::Instant;

pub type BenchResult<T> = Result<T, Box<dyn Error>>;

/// Application classes of the deployment.
pub const CLASSES: usize = 6;
/// Mini-batch of the Cloud's incremental fine-tunes.
pub const CLOUD_BATCH: usize = 16;
const RAW_IMAGES: usize = 400;
const LABELED_IMAGES: usize = 200;
/// Labeled deployment images the Cloud keeps in its archive, so every
/// incremental update rehearses them next to the uploads.
const REHEARSAL_IMAGES: usize = 64;
const CALIB_IMAGES: usize = 32;
const EVAL_IMAGES: usize = 1024;
/// Conv layers shared by the inference and diagnosis networks.
const SHARED_CONVS: usize = 3;

/// One benchmark workload: a diagnosis policy, a precision and a drift
/// schedule driven through the same deployment. A round of the
/// workload is `streams` independent sessions, each a fresh node and
/// Cloud fed its own seeded stream.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub policy: DiagnosisPolicy,
    /// Calibrated i8 inference (Single-running) instead of f32.
    pub i8: bool,
    pub streams: usize,
    /// Frames per stream.
    pub frames: usize,
    pub frame_images: usize,
    pub batch: usize,
    /// Drift severity of the first and the last frame.
    pub severity: (f32, f32),
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "corun_steady",
        policy: DiagnosisPolicy::JigsawProbe { probes: 3 },
        i8: false,
        streams: 2,
        frames: 20,
        frame_images: 32,
        batch: 8,
        severity: (0.1, 0.1),
    },
    Workload {
        name: "drift_adapt",
        policy: DiagnosisPolicy::JigsawProbe { probes: 3 },
        i8: false,
        streams: 2,
        frames: 12,
        frame_images: 32,
        batch: 8,
        severity: (0.3, 0.8),
    },
    Workload {
        name: "single_i8",
        policy: DiagnosisPolicy::InferenceConfidence { threshold: 0.5 },
        i8: true,
        streams: 2,
        frames: 10,
        frame_images: 64,
        batch: 16,
        severity: (0.4, 0.4),
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name == name)
    }

    /// Images per stream.
    pub fn images(&self) -> usize {
        self.frames * self.frame_images
    }

    fn schedule(&self) -> DriftSchedule {
        let (start, end) = self.severity;
        let step = if self.frames > 1 { (end - start) / (self.frames - 1) as f32 } else { 0.0 };
        DriftSchedule { start, step }
    }
}

/// Seed of the deployed models. The deployment is held fixed across
/// workload seeds: at this training scale a seed-derived deployment
/// moved `final_acc` between 0.40 and 0.95 across seeds, which no bound
/// could absorb. The streams, the calibration and eval sets, and the
/// node's and Cloud's RNGs all derive from the workload seed.
const DEPLOY_SEED: u64 = 1;

/// Independent sub-seed `tag` of the workload seed.
fn derive(seed: u64, tag: u64) -> u64 {
    Rng::seed_from(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// Sub-seed tag of role `role` for stream `k`.
fn stream_tag(role: u64, k: usize) -> u64 {
    role + 16 * k as u64
}

/// The deployed master models plus the seeded data sets around them.
pub struct Deployment {
    pub workload: Workload,
    inference: Sequential,
    pretrained: Pretrained,
    rehearsal: Dataset,
    calib: Dataset,
    /// Held-out eval set at the stream's final drift condition.
    pub eval: Dataset,
    seed: u64,
}

impl Deployment {
    /// Cloud pre-training plus transfer learning, then the seeded
    /// calibration and eval sets.
    pub fn build(workload: Workload, seed: u64) -> BenchResult<Deployment> {
        let mut rng = Rng::seed_from(derive(DEPLOY_SEED, 1));
        let raw = Dataset::generate(RAW_IMAGES, CLASSES, &Condition::ideal(), &mut rng)?;
        let pretrained = pretrain(
            &raw,
            &PretrainConfig {
                permutations: 8,
                epochs: 8,
                batch_size: 16,
                lr: 0.015,
                threads: None,
            },
            &mut rng,
        )?;
        let labeled = Dataset::generate(LABELED_IMAGES, CLASSES, &Condition::ideal(), &mut rng)?;
        let (inference, _) = build_inference(
            &pretrained,
            &labeled,
            &DeployConfig { epochs: 8, ..DeployConfig::default() },
            &mut rng,
        )?;
        let rehearsal = labeled.subset_range(0..REHEARSAL_IMAGES)?;
        let (start, end) = workload.severity;
        let mut rng = Rng::seed_from(derive(seed, 5));
        let calib =
            Dataset::generate(CALIB_IMAGES, CLASSES, &Condition::with_severity(start)?, &mut rng)?;
        let eval =
            Dataset::generate(EVAL_IMAGES, CLASSES, &Condition::with_severity(end)?, &mut rng)?;
        Ok(Deployment { workload, inference, pretrained, rehearsal, calib, eval, seed })
    }

    /// A fresh Cloud for stream `k` that has archived the rehearsal
    /// set, plus the model that first update produced: the model every
    /// node starts from.
    pub fn cloud(&self, k: usize) -> BenchResult<(TimedCloud, ModelUpdate)> {
        let mut cloud = Cloud::new(
            self.inference.clone(),
            self.pretrained.clone(),
            IncrementalConfig {
                epochs: 1,
                batch_size: CLOUD_BATCH,
                lr: 0.002,
                threads: None,
                holdout: None,
            },
            derive(self.seed, stream_tag(3, k)),
        );
        let base = cloud.incremental_update(&self.rehearsal)?;
        Ok((TimedCloud::new(cloud), base))
    }

    /// A node for stream `k` running `base`, not yet calibrated.
    pub fn node(&self, k: usize, base: &ModelUpdate) -> BenchResult<InsituNode> {
        let mut node = InsituNode::new(
            self.inference.clone(),
            self.pretrained.jigsaw.clone(),
            self.pretrained.set.clone(),
            self.workload.policy,
            SHARED_CONVS,
            derive(self.seed, stream_tag(2, k)),
        )?;
        node.install_update(base)?;
        Ok(node)
    }

    /// Switches `node` to calibrated i8 inference when the workload
    /// runs Single-running; returns the calibration time in ms.
    pub fn calibrate(&self, node: &mut InsituNode) -> BenchResult<f64> {
        if !self.workload.i8 {
            return Ok(0.0);
        }
        let t0 = Instant::now();
        node.enable_quantized(&self.calib)?;
        Ok(ms_since(t0))
    }

    /// A node ready to serve stream `k`: constructed on `base` and, for
    /// i8, calibrated.
    pub fn ready_node(&self, k: usize, base: &ModelUpdate) -> BenchResult<InsituNode> {
        let mut node = self.node(k, base)?;
        self.calibrate(&mut node)?;
        Ok(node)
    }

    /// Sensor stream `k` of the workload, replayable from the seed.
    pub fn source(&self, k: usize) -> BenchResult<SyntheticDriftSource> {
        let w = &self.workload;
        Ok(SyntheticDriftSource::new(
            w.frames,
            w.frame_images,
            CLASSES,
            w.schedule(),
            derive(self.seed, stream_tag(4, k)),
        )?)
    }
}

/// The live Cloud behind a wrapper that times each incremental update
/// and tallies what it ships back.
pub struct TimedCloud {
    pub cloud: Cloud,
    pub update_ms: Vec<f64>,
    /// Archive size after each update.
    pub archive_lens: Vec<usize>,
    pub downlink_bytes: u64,
    pub train_ops: u64,
}

impl TimedCloud {
    fn new(cloud: Cloud) -> TimedCloud {
        TimedCloud {
            cloud,
            update_ms: Vec::new(),
            archive_lens: Vec::new(),
            downlink_bytes: 0,
            train_ops: 0,
        }
    }
}

impl CloudEndpoint for TimedCloud {
    fn incremental_update(&mut self, uploaded: &Dataset) -> insitu_core::Result<ModelUpdate> {
        let t0 = Instant::now();
        let update = self.cloud.incremental_update(uploaded)?;
        self.update_ms.push(ms_since(t0));
        self.archive_lens.push(self.cloud.archive_len());
        self.train_ops += update.training_ops;
        let tensors = update.inference_params.iter().chain(update.jigsaw_params.iter().flatten());
        self.downlink_bytes += tensors.map(|t| (t.len() * 4) as u64).sum::<u64>();
        Ok(update)
    }
}

pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// FNV-1a over the bit patterns of a state dict.
pub fn fingerprint(params: &[Tensor]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for t in params {
        for v in t.as_slice() {
            for b in v.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}
