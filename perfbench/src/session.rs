//! The two ways a workload is driven: the runtime's lockstep session
//! (end-to-end numbers) and the benchmark's own sequential loop over
//! the same public calls, timed call by call (per-layer numbers and the
//! bitwise cross-check).

use crate::deploy::{fingerprint, ms_since, BenchResult, Deployment, TimedCloud};
use insitu_cloud::CacheStats;
use insitu_core::{
    run_ingested_session, CloudEndpoint, IngestPolicy, IngestSessionConfig, IngestSummary,
    SessionConfig,
};
use insitu_data::{Frame, FrameArena, StreamSource};
use insitu_nn::serialize::state_dict;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Instant;

const QUEUE_CAPACITY: usize = 4;

/// What one run of a workload produced, comparable across the two
/// drivers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcome {
    pub images_seen: u64,
    pub images_uploaded: u64,
    /// Uploads sent to the Cloud (frames with at least one valuable
    /// image).
    pub uploads: u64,
    pub updates_installed: u64,
    /// FNV-1a of the final inference state dict. Equal weights give
    /// equal accuracy, so the eval set runs once per stream.
    pub fingerprint: u64,
}

/// One lockstep `run_ingested_session`.
pub struct SessionRun {
    pub wall_ms: f64,
    pub outcome: Outcome,
    /// Final node's accuracy on the held-out eval set, when asked for.
    pub final_acc: Option<f32>,
    pub ingest: IngestSummary,
    /// Per-update Cloud latency, ms.
    pub update_ms: Vec<f64>,
    pub downlink_bytes: u64,
}

/// Runs stream `k` of the workload as a live lockstep session (Block
/// ingestion, producer thread, Cloud actor), then evaluates the final
/// node if `evaluate`. Node and Cloud are built before the clock
/// starts; the session's own prewarm is inside it.
pub fn run_session(dep: &Deployment, k: usize, evaluate: bool) -> BenchResult<SessionRun> {
    let w = &dep.workload;
    let (cloud, base) = dep.cloud(k)?;
    let node = dep.ready_node(k, &base)?;
    let cloud = Arc::new(Mutex::new(cloud));
    let source = dep.source(k)?;
    let config = IngestSessionConfig {
        session: SessionConfig { batch_size: w.batch, uplink_capacity: 4, lockstep_uploads: true },
        queue_capacity: QUEUE_CAPACITY,
        policy: IngestPolicy::Block,
    };
    let t0 = Instant::now();
    let (mut node, stats, ingest) =
        run_ingested_session(node, Arc::clone(&cloud), Box::new(source), &config)?;
    let wall_ms = ms_since(t0);
    let cloud = Arc::try_unwrap(cloud)
        .map_err(|_| "Cloud still shared after the session ended")?
        .into_inner();
    let outcome = Outcome {
        images_seen: stats.images_seen,
        images_uploaded: stats.images_uploaded,
        uploads: cloud.update_ms.len() as u64,
        updates_installed: stats.updates_installed,
        fingerprint: fingerprint(&state_dict(node.inference_mut())),
    };
    let final_acc = if evaluate { Some(node.accuracy_on(&dep.eval, w.batch)?) } else { None };
    let TimedCloud { update_ms, downlink_bytes, .. } = cloud;
    Ok(SessionRun { wall_ms, outcome, final_acc, ingest, update_ms, downlink_bytes })
}

/// Per-call timings of the traced loop, in ms.
pub struct Trace {
    pub outcome: Outcome,
    pub calibrate_ms: f64,
    pub prewarm_ms: f64,
    pub produce_ms: Vec<f64>,
    /// Inference-only probe per frame, when asked for (not part of the
    /// session's work).
    pub infer_ms: Vec<f64>,
    pub stage_ms: Vec<f64>,
    pub upload_ms: Vec<f64>,
    pub install_ms: Vec<f64>,
    pub update_ms: Vec<f64>,
    /// Cloud archive size after each update.
    pub archive_lens: Vec<usize>,
    pub train_ops: u64,
    pub cache: CacheStats,
}

impl Trace {
    /// Time spent in the calls the session also makes.
    pub fn loop_ms(&self) -> f64 {
        let sum = |v: &[f64]| v.iter().sum::<f64>();
        self.prewarm_ms
            + sum(&self.produce_ms)
            + sum(&self.stage_ms)
            + sum(&self.upload_ms)
            + sum(&self.update_ms)
            + sum(&self.install_ms)
    }
}

/// Drives stream `k` through the node and Cloud sequentially over
/// public calls, timing each from outside. Apart from the optional
/// inference-only `probe` per frame (which leaves weights unchanged),
/// this is the lockstep session's trajectory call for call.
pub fn run_traced(dep: &Deployment, k: usize, probe: bool) -> BenchResult<Trace> {
    let w = &dep.workload;
    let (mut cloud, base) = dep.cloud(k)?;
    let mut node = dep.node(k, &base)?;
    let calibrate_ms = dep.calibrate(&mut node)?;
    let mut source = dep.source(k)?;
    let mut arena = FrameArena::default();
    let t0 = Instant::now();
    node.prewarm(w.batch)?;
    let prewarm_ms = ms_since(t0);
    let mut out = Outcome::default();
    let (mut produce_ms, mut infer_ms, mut stage_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut upload_ms, mut install_ms) = (Vec::new(), Vec::new());
    loop {
        let t0 = Instant::now();
        let Some(data) = source.next_frame(&mut arena)? else { break };
        produce_ms.push(ms_since(t0));
        if probe {
            let t0 = Instant::now();
            node.accuracy_on(&data, w.batch)?;
            infer_ms.push(ms_since(t0));
        }
        let t0 = Instant::now();
        let stage = node.process_stage(&data, w.batch)?;
        stage_ms.push(ms_since(t0));
        out.images_seen += data.len() as u64;
        out.images_uploaded += stage.valuable.len() as u64;
        if !stage.valuable.is_empty() {
            let t0 = Instant::now();
            let payload = node.upload_payload(&data, &stage)?;
            upload_ms.push(ms_since(t0));
            out.uploads += 1;
            let update = cloud.incremental_update(&payload)?;
            let t0 = Instant::now();
            node.install_update(&update)?;
            install_ms.push(ms_since(t0));
            out.updates_installed += 1;
        }
        arena.recycle(Frame { seq: 0, data, produce_ns: 0 }.into_buf());
    }
    out.fingerprint = fingerprint(&state_dict(node.inference_mut()));
    Ok(Trace {
        outcome: out,
        calibrate_ms,
        prewarm_ms,
        produce_ms,
        infer_ms,
        stage_ms,
        upload_ms,
        install_ms,
        cache: cloud.cloud.cache_stats().unwrap_or_default(),
        update_ms: cloud.update_ms,
        archive_lens: cloud.archive_lens,
        train_ops: cloud.train_ops,
    })
}
