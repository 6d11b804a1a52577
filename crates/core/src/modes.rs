//! Working modes and platform selection.
//!
//! The paper's characterization (its Section IV) yields a simple
//! decision rule: when the inference task need not be available 24/7,
//! the two tasks time-share the **GPU** (Single-running mode — GPU
//! wins on energy-efficiency for isolated tasks); when inference must
//! be always-on, the tasks co-run on the **FPGA** (Co-running mode —
//! hardware partitioning avoids the up-to-3× GPU interference).

/// Whether the deployment requires inference to be available 24/7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Availability {
    /// Inference runs in scheduled windows (e.g. daytime); diagnosis
    /// can use the off-hours.
    Scheduled,
    /// Inference must be available around the clock.
    AlwaysOn,
}

/// How the two In-situ tasks share the node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkingMode {
    /// Tasks alternate on one device (different time slots).
    SingleRunning,
    /// Tasks execute simultaneously on partitioned hardware.
    CoRunning,
}

/// The accelerator the node deploys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Platform {
    /// TX1-class mobile GPU.
    MobileGpu,
    /// VX690T-class FPGA with the WSS-NWS pipeline.
    Fpga,
}

impl std::fmt::Display for Availability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Availability::Scheduled => "Scheduled",
            Availability::AlwaysOn => "AlwaysOn",
        })
    }
}

impl std::fmt::Display for WorkingMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            WorkingMode::SingleRunning => "SingleRunning",
            WorkingMode::CoRunning => "CoRunning",
        })
    }
}

impl std::fmt::Display for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Platform::MobileGpu => "MobileGpu",
            Platform::Fpga => "Fpga",
        })
    }
}

/// The paper's platform decision rule.
pub fn select_mode(availability: Availability) -> (WorkingMode, Platform) {
    match availability {
        Availability::Scheduled => (WorkingMode::SingleRunning, Platform::MobileGpu),
        Availability::AlwaysOn => (WorkingMode::CoRunning, Platform::Fpga),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduled_goes_to_gpu() {
        assert_eq!(
            select_mode(Availability::Scheduled),
            (WorkingMode::SingleRunning, Platform::MobileGpu)
        );
    }

    #[test]
    fn always_on_goes_to_fpga() {
        assert_eq!(
            select_mode(Availability::AlwaysOn),
            (WorkingMode::CoRunning, Platform::Fpga)
        );
    }
}
