//! # insitu-bench
//!
//! Timing-snapshot bins: `kernels_snapshot` (GEMM shapes and the
//! dispatched hot ops → `BENCH_kernels.json`) and `node_snapshot` (the
//! co-running stage pipeline, i8 precision, the update cache and
//! overlapped ingestion → `BENCH_node.json`). The paper's tables and
//! figures regenerate through the `insitu-experiments` `repro` bin.

#![warn(missing_docs)]

/// Name marker for the bench harness crate.
pub const CRATE: &str = "insitu-bench";
