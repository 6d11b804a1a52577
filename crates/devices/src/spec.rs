//! Device specifications: the constants behind the analytical models.
//!
//! The numbers are sized after the paper's evaluation platforms — an
//! NVIDIA Jetson TX1 mobile GPU, a Xilinx Virtex-7 VX690T FPGA and an
//! NVIDIA Titan X Cloud trainer. Absolute values need not match silicon
//! datasheets exactly (we reproduce *shapes*, not nanoseconds); what
//! matters is that the ratios — compute roof vs memory bandwidth,
//! static vs dynamic power — land in the regime the paper
//! characterizes.

/// A mobile GPU in the style of the NVIDIA Jetson TX1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSpec {
    /// Core clock in Hz.
    pub freq_hz: f64,
    /// Number of CUDA cores.
    pub cuda_cores: u32,
    /// Maximum thread blocks resident at once (the paper's
    /// `maxBlocks`).
    pub max_blocks: u32,
    /// GEMM tile rows computed per thread block (the paper's `m`).
    pub tile_m: u32,
    /// GEMM tile columns computed per thread block (the paper's `n`).
    pub tile_n: u32,
    /// Off-chip memory bandwidth in bytes/second.
    pub mem_bw: f64,
    /// Idle board power in watts.
    pub idle_power_w: f64,
    /// Peak board power at full utilization in watts.
    pub max_power_w: f64,
    /// Device memory capacity in bytes (the resource model's
    /// `RAMcapacity`).
    pub ram_bytes: u64,
}

impl GpuSpec {
    /// TX1-like defaults.
    pub fn tx1() -> GpuSpec {
        GpuSpec {
            freq_hz: 0.998e9,
            cuda_cores: 256,
            max_blocks: 32,
            tile_m: 128,
            tile_n: 128,
            mem_bw: 25.6e9,
            idle_power_w: 2.0,
            max_power_w: 12.0,
            ram_bytes: 4 * 1024 * 1024 * 1024,
        }
    }

    /// TX2-like defaults: the successor board — same core count at a
    /// higher clock, twice the memory bandwidth and capacity. Used by
    /// the cross-device ablation to show the analytical models carry
    /// across GPU generations.
    pub fn tx2() -> GpuSpec {
        GpuSpec {
            freq_hz: 1.3e9,
            cuda_cores: 256,
            max_blocks: 32,
            tile_m: 128,
            tile_n: 128,
            mem_bw: 59.7e9,
            idle_power_w: 2.5,
            max_power_w: 15.0,
            ram_bytes: 8 * 1024 * 1024 * 1024,
        }
    }

    /// Peak multiply-accumulate throughput in ops/second at full
    /// utilization (the paper's Eq. (7) numerator: `2·Freq·nCUDACore`).
    pub fn peak_ops(&self) -> f64 {
        2.0 * self.freq_hz * self.cuda_cores as f64
    }

    /// Power draw at a given utilization in `[0, 1]` (linear
    /// idle→peak model).
    pub fn power_at(&self, utilization: f64) -> f64 {
        self.idle_power_w
            + (self.max_power_w - self.idle_power_w) * utilization.clamp(0.0, 1.0)
    }
}

/// An FPGA in the style of the Xilinx Virtex-7 VX690T.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FpgaSpec {
    /// Fabric clock in Hz.
    pub freq_hz: f64,
    /// Total DSP slices (the paper's `DSPtotal`).
    pub dsp_total: u32,
    /// Off-chip memory bandwidth in bytes/second.
    pub mem_bw: f64,
    /// Static power in watts.
    pub static_power_w: f64,
    /// Dynamic power at full DSP activity in watts.
    pub dynamic_power_w: f64,
    /// On-chip BRAM capacity in bytes (weight/activation buffers).
    pub bram_bytes: u64,
}

impl FpgaSpec {
    /// VX690T-like defaults.
    pub fn vx690t() -> FpgaSpec {
        FpgaSpec {
            freq_hz: 150e6,
            dsp_total: 3600,
            mem_bw: 12.8e9,
            static_power_w: 5.0,
            dynamic_power_w: 20.0,
            bram_bytes: 6_640_000, // ~52.9 Mbit of BRAM
        }
    }

    /// Peak multiply-accumulate throughput with `active_dsp` slices
    /// busy every cycle (1 MAC = 2 ops).
    pub fn peak_ops(&self, active_dsp: u32) -> f64 {
        2.0 * self.freq_hz * active_dsp.min(self.dsp_total) as f64
    }

    /// Power draw with a fraction of DSPs active.
    pub fn power_at(&self, dsp_fraction: f64) -> f64 {
        self.static_power_w + self.dynamic_power_w * dsp_fraction.clamp(0.0, 1.0)
    }
}

/// The Cloud training GPU (Titan X-like), used by the model-update
/// energy/time accounting of the end-to-end experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CloudGpuSpec {
    /// Peak fp32 throughput in ops/second.
    pub peak_ops: f64,
    /// Fraction of peak sustained on CNN training workloads.
    pub training_efficiency: f64,
    /// Board power under training load, watts.
    pub training_power_w: f64,
}

impl CloudGpuSpec {
    /// Titan X (Maxwell)-like defaults.
    pub fn titan_x() -> CloudGpuSpec {
        CloudGpuSpec { peak_ops: 6.14e12, training_efficiency: 0.45, training_power_w: 250.0 }
    }

    /// Wall-clock seconds to spend `ops` multiply-accumulate operations
    /// of training on this device.
    pub fn training_time(&self, ops: u64) -> f64 {
        ops as f64 / (self.peak_ops * self.training_efficiency)
    }

    /// Energy in joules to spend `ops` of training.
    pub fn training_energy(&self, ops: u64) -> f64 {
        self.training_time(ops) * self.training_power_w
    }
}

/// Network uplink between an IoT node and the Cloud, used for the
/// data-movement energy accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UplinkSpec {
    /// Sustained throughput in bytes/second.
    pub bw: f64,
    /// Transmit energy in joules per byte (radio + amplifiers).
    pub energy_per_byte: f64,
}

impl UplinkSpec {
    /// LTE-class defaults for a remote IoT deployment.
    pub fn lte() -> UplinkSpec {
        UplinkSpec { bw: 1.5e6, energy_per_byte: 3.0e-6 }
    }

    /// Seconds to upload `bytes`.
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        bytes as f64 / self.bw
    }

    /// Joules to upload `bytes`.
    pub fn transfer_energy(&self, bytes: u64) -> f64 {
        bytes as f64 * self.energy_per_byte
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx1_peak_ops() {
        let g = GpuSpec::tx1();
        // 2 * 0.998 GHz * 256 cores ≈ 511 Gops.
        assert!((g.peak_ops() - 511e9).abs() / 511e9 < 0.01);
    }

    #[test]
    fn gpu_power_is_linear_and_clamped() {
        let g = GpuSpec::tx1();
        assert_eq!(g.power_at(0.0), g.idle_power_w);
        assert_eq!(g.power_at(1.0), g.max_power_w);
        assert_eq!(g.power_at(2.0), g.max_power_w);
        assert!(g.power_at(0.5) > g.idle_power_w && g.power_at(0.5) < g.max_power_w);
    }

    #[test]
    fn fpga_peak_ops_clamps_dsp() {
        let f = FpgaSpec::vx690t();
        assert_eq!(f.peak_ops(5000), f.peak_ops(3600));
        assert!((f.peak_ops(3600) - 2.0 * 150e6 * 3600.0).abs() < 1.0);
    }

    #[test]
    fn titan_training_model() {
        let t = CloudGpuSpec::titan_x();
        let ops = 1_000_000_000_000u64; // 1 Tops
        let secs = t.training_time(ops);
        assert!(secs > 0.0 && secs < 1.0);
        assert!((t.training_energy(ops) - secs * 250.0).abs() < 1e-9);
    }

    #[test]
    fn uplink_accounting() {
        let u = UplinkSpec::lte();
        assert!((u.transfer_time(1_500_000) - 1.0).abs() < 1e-9);
        assert!(u.transfer_energy(1_000_000) > 0.0);
    }
}
