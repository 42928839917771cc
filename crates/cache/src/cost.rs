//! Deterministic I/O cost model for the simulated memory hierarchy.
//!
//! The paper measures wall-clock I/O time on a real DRAM / SATA-SSD / HDD
//! machine (§V-A). We replace that testbed with per-tier latency+bandwidth
//! models calibrated to typical device figures: simulated time is a pure
//! function of the access sequence, so experiments regenerate bit-identically
//! while preserving the orderings and crossovers the paper's figures show
//! (see DESIGN.md §2).

/// Latency/bandwidth description of one storage tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierCost {
    /// Fixed per-read latency in seconds (seek/command overhead).
    pub latency_s: f64,
    /// Sustained read bandwidth in bytes/second.
    pub bandwidth_bps: f64,
}

impl TierCost {
    /// Create a cost model; `bandwidth_bps` must be positive.
    pub fn new(latency_s: f64, bandwidth_bps: f64) -> Self {
        assert!(latency_s >= 0.0 && bandwidth_bps > 0.0, "invalid tier cost");
        TierCost { latency_s, bandwidth_bps }
    }

    /// Typical DDR4 DRAM: ~100 ns effective latency, ~10 GB/s per stream.
    pub fn dram() -> Self {
        TierCost::new(100e-9, 10e9)
    }

    /// Typical SATA SSD: ~100 µs, ~500 MB/s (the paper's 512 GB SSD).
    pub fn ssd() -> Self {
        TierCost::new(100e-6, 500e6)
    }

    /// Typical 7200 rpm HDD: ~8 ms seek+rotate, ~150 MB/s (the 3 TB HDD).
    pub fn hdd() -> Self {
        TierCost::new(8e-3, 150e6)
    }

    /// Time to read `bytes` from this tier.
    #[inline]
    pub fn read_time(&self, bytes: usize) -> f64 {
        self.latency_s + bytes as f64 / self.bandwidth_bps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_time_composition() {
        let t = TierCost::new(0.001, 1000.0);
        // 1 ms latency + 500 bytes at 1 kB/s = 0.5 s.
        assert!((t.read_time(500) - 0.501).abs() < 1e-12);
    }

    #[test]
    fn zero_bytes_costs_latency_only() {
        let t = TierCost::ssd();
        assert!((t.read_time(0) - 100e-6).abs() < 1e-12);
    }

    #[test]
    fn device_ordering_matches_reality() {
        // For a 1 MiB block: DRAM < SSD < HDD.
        let b = 1 << 20;
        assert!(TierCost::dram().read_time(b) < TierCost::ssd().read_time(b));
        assert!(TierCost::ssd().read_time(b) < TierCost::hdd().read_time(b));
    }

    #[test]
    fn hdd_is_latency_dominated_for_small_blocks() {
        let t = TierCost::hdd();
        let small = t.read_time(4096);
        assert!(small < 2.0 * t.latency_s, "4 KiB read should be ~seek-bound");
    }

    #[test]
    #[should_panic]
    fn invalid_bandwidth_panics() {
        TierCost::new(0.0, 0.0);
    }
}
