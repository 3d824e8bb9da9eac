//! Host-side software cost model.
//!
//! Calibration anchors (all from the paper):
//!
//! * vanilla snapshot restore of `helloworld` totals ≈232 ms, of which the
//!   VMM + emulation restore is ≈50 ms and the rest is dominated by serial
//!   page faults at ≈43 MB/s of useful disk bandwidth (§6.2);
//! * the Parallel-PFs design point reaches only ≈130 MB/s despite 16
//!   concurrent fetches — install work is serialized on the monitor
//!   (§6.2);
//! * REAP installs the whole working set eagerly and lands at 533 MB/s
//!   effective (fetch ≈15 ms for 8 MB, §6.2) — so its per-page install
//!   cost must be an order of magnitude below the serial path;
//! * the record phase adds 15–87% (mean ≈28%) to the first invocation
//!   (§6.4).

use serde::{Deserialize, Serialize};
use sim_core::SimDuration;

/// Fixed software costs of the host stack.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostCostModel {
    /// Logical cores on the worker (§6.1: 2×24-core Xeon → 48).
    pub cores: usize,
    /// Spawning the Firecracker process + API socket handshake.
    pub process_spawn: SimDuration,
    /// Deserializing VMM + emulated device state (on top of reading the
    /// state file from disk).
    pub load_vmm_fixed: SimDuration,
    /// Re-establishing the persistent gRPC connection (compute only; the
    /// page faults it triggers are modelled separately).
    pub grpc_handshake: SimDuration,
    /// Per-fault software cost on the critical path: KVM exit, host fault
    /// delivery, monitor wake-up, `UFFDIO_COPY`, vCPU wake.
    pub uffd_fault_sw: SimDuration,
    /// Anonymous-memory minor fault (booted/warm instances).
    pub minor_fault: SimDuration,
    /// Per-page cost of REAP's eager batch install (§5.2.2: a sequence of
    /// ioctls from an in-memory buffer, no per-page wake-ups).
    pub install_batch_per_page: SimDuration,
    /// Per-page cost of the Parallel-PFs design point's install path,
    /// serialized on the monitor thread (§6.2).
    pub install_serial_per_page: SimDuration,
    /// Extra per-fault cost in record mode: offset translation + trace
    /// append (§5.2.1).
    pub record_fault_extra: SimDuration,
    /// Per-page cost of building the WS file after the recorded
    /// invocation completes (copying pages into the compact file).
    pub ws_build_per_page: SimDuration,
}

impl Default for HostCostModel {
    fn default() -> Self {
        HostCostModel {
            cores: 48,
            process_spawn: SimDuration::from_millis(10),
            load_vmm_fixed: SimDuration::from_millis(22),
            grpc_handshake: SimDuration::from_millis(3),
            uffd_fault_sw: SimDuration::from_micros(50),
            minor_fault: SimDuration::from_nanos(600),
            install_batch_per_page: SimDuration::from_nanos(2_400),
            install_serial_per_page: SimDuration::from_micros(35),
            record_fault_extra: SimDuration::from_micros(12),
            ws_build_per_page: SimDuration::from_micros(3),
        }
    }
}

impl HostCostModel {
    /// Cost of serving one fault in baseline mode (software only; the disk
    /// read is timed by the storage model).
    pub fn fault_cost(&self, recording: bool) -> SimDuration {
        if recording {
            self.uffd_fault_sw + self.record_fault_extra
        } else {
            self.uffd_fault_sw
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_calibration_anchors() {
        let c = HostCostModel::default();
        assert_eq!(c.cores, 48);
        // REAP's batch install must be far cheaper than the serialized
        // path, else Fig 7's WS-file -> REAP step would not exist.
        assert!(c.install_batch_per_page * 10 < c.install_serial_per_page);
        // Record adds a modest per-fault surcharge (§6.4's ~28% average).
        assert!(c.record_fault_extra < c.uffd_fault_sw);
        assert_eq!(c.fault_cost(false), c.uffd_fault_sw);
        assert_eq!(
            c.fault_cost(true),
            c.uffd_fault_sw + c.record_fault_extra
        );
    }

    #[test]
    fn vanilla_per_page_cost_matches_43_mbps_inference() {
        // §6.2 infers ~43 MB/s useful bandwidth for vanilla restore: ~95 us
        // per 4 KB page including software. Our fault_sw + the storage
        // model's ~20-134 us disk component bracket that.
        let c = HostCostModel::default();
        let sw = c.uffd_fault_sw.as_micros_f64();
        assert!((30.0..110.0).contains(&sw), "fault sw cost {sw} us");
    }
}
