//! Importance-aware data partitioning and parallel fetching — the paper's
//! stated future work (§VI: "extend our method for parallel data fetching
//! and rendering ... study data partitioning and distribution schemes by
//! leveraging data importance information").
//!
//! Blocks are distributed across `k` independent storage devices. A frame's
//! fetch set is serviced in parallel, so its latency is the *maximum* of
//! the per-device queue times. Because the app-aware policy concentrates
//! traffic on high-entropy blocks, placing them round-robin by id can pile
//! several hot blocks onto one device; balancing devices by aggregate
//! entropy (greedy LPT) flattens the hot set across all spindles.

use crate::importance::ImportanceTable;
use viz_cache::TierCost;
use viz_volume::BlockId;

/// Identifier of a storage device in a striped set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct DeviceId(pub u16);

/// A block→device placement.
#[derive(Debug, Clone, PartialEq)]
pub struct Distribution {
    /// `assignment[block.index()]` = owning device.
    assignment: Vec<DeviceId>,
    /// Number of devices.
    pub devices: u16,
}

impl Distribution {
    /// Round-robin striping by block id (the importance-oblivious default).
    pub fn round_robin(num_blocks: usize, devices: u16) -> Self {
        assert!(devices > 0, "need at least one device");
        Distribution {
            assignment: (0..num_blocks).map(|i| DeviceId((i % devices as usize) as u16)).collect(),
            devices,
        }
    }

    /// Importance-balanced placement: greedy LPT (longest-processing-time)
    /// over block entropies — blocks in descending importance, each to the
    /// device with the smallest entropy load so far. Guarantees a per-
    /// device entropy load within 4/3 of optimal (classic LPT bound).
    pub fn importance_balanced(importance: &ImportanceTable, devices: u16) -> Self {
        assert!(devices > 0, "need at least one device");
        let mut assignment = vec![DeviceId(0); importance.len()];
        let mut load = vec![0.0f64; devices as usize];
        for entry in importance.ranked() {
            let dev = load
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .map(|(i, _)| i)
                .unwrap();
            assignment[entry.block.index()] = DeviceId(dev as u16);
            // Weight by entropy + epsilon so zero-entropy blocks still
            // spread by count.
            load[dev] += entry.entropy + 1e-3;
        }
        Distribution { assignment, devices }
    }

    /// Owning device of a block.
    #[inline]
    pub(crate) fn device_of(&self, b: BlockId) -> DeviceId {
        self.assignment[b.index()]
    }

    /// Aggregate entropy load per device under `importance`.
    pub fn entropy_loads(&self, importance: &ImportanceTable) -> Vec<f64> {
        let mut loads = vec![0.0f64; self.devices as usize];
        for (i, d) in self.assignment.iter().enumerate() {
            loads[d.0 as usize] += importance.entropy(BlockId(i as u32));
        }
        loads
    }

    /// Imbalance factor of a load vector: `max / mean` (1.0 = perfect).
    pub fn imbalance(loads: &[f64]) -> f64 {
        if loads.is_empty() {
            return 1.0;
        }
        let total: f64 = loads.iter().sum();
        let mean = total / loads.len() as f64;
        if mean <= 0.0 {
            return 1.0;
        }
        loads.iter().cloned().fold(0.0, f64::max) / mean
    }
}

/// Parallel fetch-latency model: each device serves its assigned blocks
/// sequentially (latency + bytes/bandwidth per block); devices run
/// concurrently, so the set's latency is the slowest device's queue.
pub fn parallel_fetch_time(
    blocks: &[BlockId],
    dist: &Distribution,
    device_cost: TierCost,
    block_bytes: usize,
) -> f64 {
    let mut queue = vec![0.0f64; dist.devices as usize];
    for &b in blocks {
        queue[dist.device_of(b).0 as usize] += device_cost.read_time(block_bytes);
    }
    queue.into_iter().fold(0.0, f64::max)
}

/// Fetch latency without striping (single device services everything) —
/// the baseline the speedup is measured against.
pub fn serial_fetch_time(blocks: &[BlockId], device_cost: TierCost, block_bytes: usize) -> f64 {
    blocks.len() as f64 * device_cost.read_time(block_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn importance(entropies: Vec<f64>) -> ImportanceTable {
        ImportanceTable::from_entropies(entropies, 64)
    }

    /// Number of blocks assigned to each device.
    fn counts(d: &Distribution) -> Vec<usize> {
        let mut counts = vec![0usize; d.devices as usize];
        for dev in &d.assignment {
            counts[dev.0 as usize] += 1;
        }
        counts
    }

    #[test]
    fn round_robin_spreads_counts_evenly() {
        let d = Distribution::round_robin(10, 3);
        assert_eq!(counts(&d), vec![4, 3, 3]);
        assert_eq!(d.device_of(BlockId(4)), DeviceId(1));
    }

    #[test]
    fn balanced_distribution_flattens_entropy() {
        // Hot blocks clustered at even ids: round-robin with 2 devices puts
        // ALL heat on device 0; LPT splits it.
        let ent: Vec<f64> = (0..64).map(|i| if i % 2 == 0 { 5.0 } else { 0.0 }).collect();
        let imp = importance(ent);
        let rr = Distribution::round_robin(64, 2);
        let lpt = Distribution::importance_balanced(&imp, 2);
        let rr_imb = Distribution::imbalance(&rr.entropy_loads(&imp));
        let lpt_imb = Distribution::imbalance(&lpt.entropy_loads(&imp));
        assert!(rr_imb > 1.9, "round-robin should be pathological here ({rr_imb})");
        assert!(lpt_imb < 1.05, "LPT should balance ({lpt_imb})");
    }

    #[test]
    fn lpt_respects_classic_bound() {
        // LPT makespan <= 4/3 OPT; a weaker sanity check: max load <=
        // 4/3 * mean + max single item.
        let ent: Vec<f64> = (0..100).map(|i| ((i * 37) % 13) as f64).collect();
        let imp = importance(ent.clone());
        for k in [2u16, 3, 5, 8] {
            let d = Distribution::importance_balanced(&imp, k);
            let loads = d.entropy_loads(&imp);
            let total: f64 = loads.iter().sum();
            let mean = total / k as f64;
            let max_item = ent.iter().cloned().fold(0.0, f64::max);
            let max_load = loads.iter().cloned().fold(0.0, f64::max);
            assert!(
                max_load <= mean * 4.0 / 3.0 + max_item,
                "k={k}: load {max_load} vs mean {mean}"
            );
        }
    }

    #[test]
    fn every_block_is_assigned_exactly_once() {
        let imp = importance((0..50).map(|i| i as f64 * 0.1).collect());
        let d = Distribution::importance_balanced(&imp, 4);
        assert_eq!(counts(&d).iter().sum::<usize>(), 50);
    }

    #[test]
    fn parallel_fetch_beats_serial() {
        let imp = importance(vec![1.0; 40]);
        let d = Distribution::importance_balanced(&imp, 4);
        let blocks: Vec<BlockId> = (0..40).map(BlockId).collect();
        let cost = TierCost::hdd();
        let par = parallel_fetch_time(&blocks, &d, cost, 1 << 20);
        let ser = serial_fetch_time(&blocks, cost, 1 << 20);
        // Perfect 4-way stripe → exactly 4x.
        assert!((ser / par - 4.0).abs() < 1e-9, "speedup {}", ser / par);
    }

    #[test]
    fn hot_set_fetch_is_faster_under_balanced_placement() {
        // The working set is the hot half of the blocks; balanced placement
        // stripes it across devices, round-robin concentrates it.
        let ent: Vec<f64> = (0..64).map(|i| if i < 32 { 4.0 } else { 0.0 }).collect();
        let imp = importance(ent);
        // Adversarial round-robin: hot blocks are ids 0..32; with 2 devices
        // they do spread — craft instead hot blocks on even ids.
        let ent2: Vec<f64> = (0..64).map(|i| if i % 2 == 0 { 4.0 } else { 0.0 }).collect();
        let imp2 = importance(ent2);
        let hot: Vec<BlockId> = (0..64).step_by(2).map(BlockId).collect();
        let rr = Distribution::round_robin(64, 2);
        let bal = Distribution::importance_balanced(&imp2, 2);
        let cost = TierCost::hdd();
        let t_rr = parallel_fetch_time(&hot, &rr, cost, 1 << 20);
        let t_bal = parallel_fetch_time(&hot, &bal, cost, 1 << 20);
        assert!(t_bal < t_rr * 0.6, "balanced {t_bal} should be ~half of round-robin {t_rr}");
        let _ = imp;
    }

    #[test]
    fn single_device_parallel_equals_serial() {
        let imp = importance(vec![1.0; 8]);
        let d = Distribution::importance_balanced(&imp, 1);
        let blocks: Vec<BlockId> = (0..8).map(BlockId).collect();
        let cost = TierCost::ssd();
        assert_eq!(
            parallel_fetch_time(&blocks, &d, cost, 4096),
            serial_fetch_time(&blocks, cost, 4096)
        );
    }

    #[test]
    fn imbalance_of_uniform_loads_is_one() {
        assert_eq!(Distribution::imbalance(&[2.0, 2.0, 2.0]), 1.0);
        assert!(Distribution::imbalance(&[4.0, 0.0]) > 1.9);
        assert_eq!(Distribution::imbalance(&[]), 1.0);
    }

    #[test]
    #[should_panic]
    fn zero_devices_panics() {
        Distribution::round_robin(4, 0);
    }
}
