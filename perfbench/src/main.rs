//! End-to-end node + Cloud session benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload corun_steady --seed 1 --seconds 8 --trace 0
//! ```
//!
//! One process builds one seeded deployment (Cloud pre-training,
//! transfer learning, node construction, i8 calibration where the
//! workload needs it), timing that set-up several times. It then runs
//! rounds of the workload — one lockstep `run_ingested_session` per
//! seeded stream — for `--seconds` (end-to-end metrics, `--trace 0`),
//! and once more as a sequential loop over the same public calls, each
//! timed from outside (per-layer metrics, `--trace 1`, which also
//! prints the end-to-end ones). The loop must reproduce each session
//! bit for bit — images seen and uploaded, updates installed, final
//! weights — and every round must agree with the first; otherwise the
//! run is not correct and the process exits 1.
//!
//! The last line of stdout is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

mod deploy;
mod gemm;
mod session;
mod stats;

use deploy::{fingerprint, ms_since, BenchResult, Deployment, Workload, CLOUD_BATCH, WORKLOADS};
use insitu_core::IMAGE_BYTES;
use insitu_tensor::{gemm_kernel_name, set_num_threads, simd::simd_isa_name, Rng};
use session::{run_session, run_traced, SessionRun, Trace};
use stats::{median, tail};
use std::fmt::Write as _;
use std::time::Instant;

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Fewest rounds (every stream of the workload once) per run, whatever
/// `--seconds` says.
const MIN_ROUNDS: usize = 4;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> BenchResult<Args> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                workload = Some(Workload::by_name(&value).ok_or_else(|| {
                    format!("unknown workload `{value}`; expected one of {names:?}")
                })?);
            }
            "--seed" => seed = Some(value.parse()?),
            "--seconds" => seconds = Some(value.parse::<f64>()?),
            "--trace" => trace = Some(value.parse::<u8>()? != 0),
            _ => return Err(format!("unknown flag `{flag}`").into()),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(8.0),
        trace: trace.unwrap_or(false),
    })
}

/// The commit of the checkout, when it is a git work tree.
fn git_sha() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set of this process, in MB.
fn peak_rss_mb() -> BenchResult<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}

/// A printed metric: name, value, unit, and an optional note.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit, note: String::new() }
}

fn sum(v: &[f64]) -> f64 {
    v.iter().sum()
}

/// What one process measured, before it is reduced to metrics.
struct Run {
    setup_s: Vec<f64>,
    /// Each round holds one session per stream, in stream order.
    rounds: Vec<Vec<SessionRun>>,
    /// One traced loop per stream.
    traces: Vec<Trace>,
    /// Problems that make the run incorrect.
    faults: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Run {
    /// Wall time of each round.
    fn round_ms(&self) -> Vec<f64> {
        self.rounds.iter().map(|r| r.iter().map(|s| s.wall_ms).sum()).collect()
    }

    /// The workload's wall time: each stream's median session time over
    /// the rounds, summed. A stream's sessions are spread over the whole
    /// window, so a slow spell on the host moves few of them.
    fn workload_ms(&self) -> f64 {
        (0..self.traces.len())
            .map(|k| median(&self.rounds.iter().map(|r| r[k].wall_ms).collect::<Vec<_>>()))
            .sum()
    }

    /// Concatenates one per-stream series over all traces.
    fn traced(&self, series: impl Fn(&Trace) -> &[f64]) -> Vec<f64> {
        self.traces.iter().flat_map(|t| series(t).iter().copied()).collect()
    }

    /// Sum of one per-stream quantity over all traces.
    fn traced_sum(&self, value: impl Fn(&Trace) -> f64) -> f64 {
        self.traces.iter().map(value).sum()
    }
}

/// One timed set-up: deployment, the Cloud's rehearsal update, node
/// construction, calibration and prewarm. Returns the deployment, its
/// time and the fingerprint of the deployed weights.
fn set_up(w: Workload, seed: u64) -> BenchResult<(Deployment, f64, u64)> {
    let t0 = Instant::now();
    let dep = Deployment::build(w, seed)?;
    let (_cloud, base) = dep.cloud(0)?;
    let mut node = dep.ready_node(0, &base)?;
    node.prewarm(w.batch)?;
    Ok((dep, t0.elapsed().as_secs_f64(), fingerprint(&base.inference_params)))
}

fn measure(args: &Args) -> BenchResult<Run> {
    let w = args.workload;
    let (dep, first_setup_s, print) = set_up(w, args.seed)?;
    let mut setup_s = vec![first_setup_s];
    let mut faults = Vec::new();

    // End-to-end: rounds of lockstep sessions for the measurement
    // window, with the remaining set-ups interleaved between them so
    // that both samples spread over the whole run and a slow spell on
    // the host moves only some of them. A session's operations are its
    // frames offered and its uploads sent; a frame not processed or an
    // upload never answered by an installed update is a failure, and so
    // is every operation of a round that disagrees with the first.
    let mut rounds: Vec<Vec<SessionRun>> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let window = Instant::now();
    let mut round = 0;
    while round < MIN_ROUNDS || window.elapsed().as_secs_f64() < args.seconds {
        if round > 0 && setup_s.len() < SETUP_REPS {
            // Every set-up of one seed must deploy the same weights.
            let (_, secs, again) = set_up(w, args.seed)?;
            setup_s.push(secs);
            if again != print {
                faults.push(format!("set-ups deployed different weights: {print:x} vs {again:x}"));
            }
        }
        round += 1;
        let evaluate = rounds.is_empty();
        let sessions = (0..w.streams)
            .map(|k| run_session(&dep, k, evaluate))
            .collect::<BenchResult<Vec<_>>>()?;
        let ops: u64 = sessions.iter().map(|s| w.frames as u64 + s.outcome.uploads).sum();
        attempted += ops;
        if let Some(first) = rounds.first() {
            let diverged = sessions.iter().zip(first).any(|(a, b)| a.outcome != b.outcome);
            if diverged {
                faults.push(format!("round {round} disagrees with round 1"));
                failed += ops;
                continue;
            }
        }
        for (k, s) in sessions.iter().enumerate() {
            let o = s.outcome;
            let frames_done = o.images_seen / w.frame_images as u64;
            let missing = (w.frames as u64).saturating_sub(frames_done)
                + o.uploads.saturating_sub(o.updates_installed);
            failed += missing;
            if missing > 0 {
                faults.push(format!("round {round} stream {k}: {missing} operation(s) failed"));
            }
            if s.ingest.drops > 0 {
                faults.push(format!("Block ingestion dropped {} frame(s)", s.ingest.drops));
            }
        }
        rounds.push(sessions);
    }

    // The traced loop must retrace every session exactly.
    let mut traces = Vec::new();
    for (k, session) in rounds[0].iter().enumerate() {
        let trace = run_traced(&dep, k, args.trace)?;
        if trace.outcome != session.outcome {
            faults.push(format!(
                "stream {k}: traced loop diverged from the session: {:?} vs {:?}",
                trace.outcome, session.outcome
            ));
        }
        if session.outcome.images_seen != w.images() as u64 {
            faults.push(format!(
                "stream {k}: session saw {} of {} images",
                session.outcome.images_seen,
                w.images()
            ));
        }
        traces.push(trace);
    }
    Ok(Run { setup_s, rounds, traces, faults, attempted, failed })
}

fn end_to_end(run: &Run) -> BenchResult<Vec<Metric>> {
    let first = &run.rounds[0];
    let images: f64 = first.iter().map(|s| s.outcome.images_seen as f64).sum();
    let updates: Vec<f64> =
        run.rounds.iter().flatten().flat_map(|s| s.update_ms.iter().copied()).collect();
    let t = tail(&updates);
    let acc: Vec<f64> = first.iter().filter_map(|s| s.final_acc).map(f64::from).collect();
    Ok(vec![
        Metric {
            note: format!("median of {}", run.setup_s.len()),
            ..metric("setup_s", median(&run.setup_s), "s")
        },
        Metric {
            note: format!("per-stream medians over {} rounds", run.rounds.len()),
            ..metric("images_per_s", images / (run.workload_ms() / 1e3), "1/s")
        },
        Metric {
            note: format!("of {} updates", updates.len()),
            ..metric("update_p50_ms", median(&updates), "ms")
        },
        Metric { note: t.label(), ..metric("update_tail_ms", t.value, "ms") },
        Metric {
            note: format!("mean over {} streams", acc.len()),
            ..metric("final_acc", sum(&acc) / acc.len() as f64, "fraction")
        },
        metric("peak_rss_mb", peak_rss_mb()?, "MB"),
    ])
}

fn per_layer(w: &Workload, run: &Run, seed: u64) -> Vec<Metric> {
    let images = run.traced_sum(|t| t.outcome.images_seen as f64);
    let workload_ms = run.workload_ms();
    let loop_ms = run.traced_sum(Trace::loop_ms);
    let ingest = run.rounds[0].iter().map(|s| s.ingest);
    let (depth_max, fresh) =
        ingest.fold((0, 0), |(d, f), i| (d.max(i.max_queue_depth), f.max(i.fresh_buffers)));
    let produce = run.traced(|t| &t.produce_ms);
    let stages = run.traced(|t| &t.stage_ms);
    let installs = run.traced(|t| &t.install_ms);
    let updates = run.traced(|t| &t.update_ms);
    let stage_tail = tail(&stages);
    let update_tail = tail(&updates);
    let infer_per_image = sum(&run.traced(|t| &t.infer_ms)) / images;
    let streams = run.traces.len() as f64;
    let hits = run.traced_sum(|t| t.cache.hits as f64);
    let misses = run.traced_sum(|t| t.cache.misses as f64);
    let archived: f64 = run.traced_sum(|t| t.archive_lens.iter().map(|&n| n as f64).sum());
    let first = &run.rounds[0];
    let uploaded: u64 = first.iter().map(|s| s.outcome.images_uploaded).sum();
    let installed: u64 = first.iter().map(|s| s.outcome.updates_installed).sum();
    let downlink: u64 = first.iter().map(|s| s.downlink_bytes).sum();
    let gemm = gemm::measure(w.batch, CLOUD_BATCH, &mut Rng::seed_from(seed));
    vec![
        metric("data.produce_ms_per_frame", sum(&produce) / produce.len() as f64, "ms"),
        metric("data.queue_depth_max", depth_max as f64, "count"),
        metric("data.arena_fresh_buffers", fresh as f64, "count"),
        Metric {
            note: format!("{uploaded} images"),
            ..metric("uplink_mb", (uploaded * IMAGE_BYTES) as f64 / 1e6, "MB")
        },
        Metric {
            note: format!("{installed} updates"),
            ..metric("downlink_mb", downlink as f64 / 1e6, "MB")
        },
        metric("core.stage_p50_ms", median(&stages), "ms"),
        Metric { note: stage_tail.label(), ..metric("core.stage_tail_ms", stage_tail.value, "ms") },
        metric("core.diagnosis_ms_per_image", sum(&stages) / images - infer_per_image, "ms"),
        metric("core.install_p50_ms", median(&installs), "ms"),
        metric("core.upload_payload_ms", run.traced_sum(|t| sum(&t.upload_ms)), "ms"),
        metric("core.prewarm_ms", run.traced_sum(|t| t.prewarm_ms) / streams, "ms"),
        metric("core.calibrate_ms", run.traced_sum(|t| t.calibrate_ms) / streams, "ms"),
        Metric {
            note: format!("sessions {workload_ms:.1} ms - traced loops {loop_ms:.1} ms"),
            ..metric("core.runtime_residual_ms", workload_ms - loop_ms, "ms")
        },
        metric("nn.infer_ms_per_image", infer_per_image, "ms"),
        metric("cloud.update_p50_ms", median(&updates), "ms"),
        Metric {
            note: update_tail.label(),
            ..metric("cloud.update_tail_ms", update_tail.value, "ms")
        },
        metric("cloud.update_ms_per_archive_image", sum(&updates) / archived.max(1.0), "ms"),
        metric("cloud.train_gmacs", run.traced_sum(|t| t.train_ops as f64) / 1e9, "GMAC"),
        metric("cloud.cache_hit_rate", hits / (hits + misses).max(1.0), "fraction"),
        metric(
            "cloud.cache_mb",
            run.traced_sum(|t| t.cache.resident_bytes as f64) / streams / 1e6,
            "MB",
        ),
        metric("cloud.cache_evictions", run.traced_sum(|t| t.cache.evictions as f64), "count"),
        metric(
            "cloud.archive_len",
            run.traced_sum(|t| t.archive_lens.last().map_or(0.0, |&n| n as f64)) / streams,
            "count",
        ),
        metric("tensor.gemm_f32_gflops", gemm.f32_gflops, "GFLOP/s"),
        metric("tensor.gemm_i8_gops", gemm.i8_gops, "GOP/s"),
        metric("tensor.gemm_train_gflops", gemm.train_gflops, "GFLOP/s"),
    ]
}

/// The traced loops' time by layer, against the sessions they retrace.
fn breakdown(run: &Run) -> String {
    let total_ms = run.workload_ms();
    let rows = [
        ("data   next_frame", run.traced_sum(|t| sum(&t.produce_ms))),
        ("core   prewarm", run.traced_sum(|t| t.prewarm_ms)),
        ("core   process_stage", run.traced_sum(|t| sum(&t.stage_ms))),
        ("core   upload_payload", run.traced_sum(|t| sum(&t.upload_ms))),
        ("cloud  incremental_update", run.traced_sum(|t| sum(&t.update_ms))),
        ("core   install_update", run.traced_sum(|t| sum(&t.install_ms))),
        ("core   runtime residual", total_ms - run.traced_sum(Trace::loop_ms)),
    ];
    let mut out = String::from("# breakdown of the session wall time (traced loops):\n");
    for (name, ms) in rows {
        let _ = writeln!(out, "#   {name:<28} {ms:>10.2} ms  {:>5.1}%", ms / total_ms * 100.0);
    }
    let _ = write!(
        out,
        "#   {:<28} {total_ms:>10.2} ms  (sum over {} streams of the median session over {} \
         rounds; the inference-only probe, {:.2} ms, is excluded)",
        "session wall time",
        run.traces.len(),
        run.rounds.len(),
        run.traced_sum(|t| sum(&t.infer_ms))
    );
    out
}

fn json_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        let note = if m.note.is_empty() { String::new() } else { format!("  ({})", m.note) };
        println!("# {:<34} {:>14.4} {}{note}", m.name, m.value, m.unit);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    set_num_threads(cores);
    let started = Instant::now();
    let w = args.workload;
    let measured = measure(&args).and_then(|run| {
        let e2e = end_to_end(&run)?;
        let layers = if args.trace { per_layer(&w, &run, args.seed) } else { Vec::new() };
        Ok((run, e2e, layers))
    });
    let (run, e2e, layers) = match measured {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "# perfbench workload={} seed={} git_sha={} host_cores={cores} kernel_threads={} \
         gemm_kernel={} simd_isa={} streams={} frames={} images_per_frame={} batch={} \
         rounds={} setup_reps={SETUP_REPS} trace={}",
        w.name,
        args.seed,
        git_sha(),
        insitu_tensor::num_threads(),
        gemm_kernel_name(),
        simd_isa_name(),
        w.streams,
        w.frames,
        w.frame_images,
        w.batch,
        run.rounds.len(),
        u8::from(args.trace),
    );
    for (k, s) in run.rounds[0].iter().enumerate() {
        let o = s.outcome;
        println!(
            "# stream {k}: fingerprint={:016x} images_uploaded={} uploads={} \
             updates_installed={} final_acc={:?}",
            o.fingerprint,
            o.images_uploaded,
            o.uploads,
            o.updates_installed,
            s.final_acc.unwrap_or(f32::NAN)
        );
    }
    println!("# wall_s={:.1} round_ms={:.1?}", ms_since(started) / 1e3, run.round_ms());
    print_metrics(&e2e);
    if args.trace {
        print_metrics(&layers);
        println!("{}", breakdown(&run));
    }
    for f in &run.faults {
        println!("# FAULT: {f}");
    }
    let correct = run.faults.is_empty();
    let reported = if args.trace { &layers } else { &e2e };
    println!("{}", json_result(correct, run.attempted, run.failed, reported));
    if !correct {
        std::process::exit(1);
    }
}
