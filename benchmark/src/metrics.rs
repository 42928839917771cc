//! The metric names this driver prints. `BENCHMARK.json` at the repository
//! root is the authority the driver's harness reads; `vizbench check`
//! fails when the two disagree.

/// `(name, unit)`; every workload reports every one of them, none ever 0.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("frames_per_s", "1/s"),
    ("frame_ms_p50", "ms"),
    ("frame_ms_p95", "ms"),
    ("demand_hit_ratio", "ratio"),
    ("rss_peak_mb", "MB"),
];

/// `(name, unit)`; a layer a workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.table_build_s", "s"),
    ("core.importance_build_s", "s"),
    ("core.next_frame_us_p50", "us"),
    ("core.visible_us_p50", "us"),
    ("core.predicted_per_frame", "count"),
    ("core.prediction_recall", "ratio"),
    ("core.prediction_precision", "ratio"),
    ("serve.demand_ms_p50", "ms"),
    ("serve.demand_ms_p95", "ms"),
    ("serve.demand_ms_p99", "ms"),
    ("serve.wire_bytes_per_frame", "bytes"),
    ("serve.demand_error_rate", "ratio"),
    ("serve.encode_req_us_p50", "us"),
    ("serve.send_us_p50", "us"),
    ("serve.recv_wait_us_p50", "us"),
    ("serve.decode_resp_us_p50", "us"),
    ("serve.advance_rtt_us_p50", "us"),
    ("serve.server_self_us_p50", "us"),
    ("serve.fetch_us_per_block_warm", "us"),
    ("serve.wire_tx_bytes", "bytes"),
    ("serve.wire_rx_bytes", "bytes"),
    ("serve.demand_admitted", "count"),
    ("serve.prefetch_admitted", "count"),
    ("serve.prefetch_shed", "count"),
    ("serve.prefetch_downgraded", "count"),
    ("fetch.completed", "count"),
    ("fetch.demand_completed", "count"),
    ("fetch.coalesced", "count"),
    ("fetch.cancelled", "count"),
    ("fetch.dropped", "count"),
    ("fetch.retries", "count"),
    ("fetch.errors", "count"),
    ("fetch.queue_depth_max", "count"),
    ("fetch.pool_bytes_peak", "bytes"),
    ("fetch.pool_hit_ratio", "ratio"),
    ("fetch.demand_miss_rate", "ratio"),
    ("fetch.prefetch_useful_ratio", "ratio"),
    ("fetch.hit_get_us_p50", "us"),
    ("fetch.cold_get_overhead_us_p50", "us"),
    ("volume.dataset_write_s", "s"),
    ("volume.reads", "count"),
    ("volume.reads_per_frame", "1/frame"),
    ("volume.read_bytes", "bytes"),
    ("volume.read_us_p50", "us"),
    ("volume.read_us_p99", "us"),
    ("volume.read_busy_s", "s"),
    ("volume.reads_blocking_demand", "count"),
    ("volume.decode_us_p50", "us"),
    ("cluster.owner_lookup_ns_p50", "ns"),
    ("cluster.router_overhead_us_p50", "us"),
    ("cluster.nodes_per_frame", "count"),
    ("cluster.read_imbalance", "ratio"),
    ("cluster.peer_requests", "count"),
    ("cluster.rounds_max", "count"),
    ("render.frame_ms_p50", "ms"),
    ("render.frame_ms_p99", "ms"),
    ("render.lookup_misses", "count"),
    ("client.install_us_p50", "us"),
    ("cache.sim_miss_ratio", "ratio"),
    ("cache.sim_time_ratio", "ratio"),
    ("cache.sim_us_per_step_lru", "us"),
    ("cache.sim_us_per_step_appaware", "us"),
    ("cache.misses_fifo", "count"),
    ("cache.misses_lru", "count"),
    ("cache.misses_appaware", "count"),
    ("cache.misses_belady", "count"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.budget_sum_ratio", "ratio"),
    ("bench.speed_factor_p50", "ratio"),
    ("bench.frame_ms_p50_raw", "ms"),
    ("bench.frames_per_s_raw", "1/s"),
    ("bench.frames", "count"),
    ("bench.ops_attempted", "count"),
    ("bench.ops_failed", "count"),
];

/// The five workloads, in the order `run.sh` runs them.
pub const WORKLOADS: &[&str] =
    &["flight-smooth", "flight-erratic", "cluster-smooth", "warm-shared", "sim-policy"];

/// A measured value and how many samples stand behind it (0: a count or a
/// single measurement).
#[derive(Debug, Clone, Copy)]
pub struct Value {
    pub value: f64,
    pub samples: usize,
}

/// Values by metric name, filled by the workload and read out in list order.
#[derive(Default)]
pub struct Values(std::collections::HashMap<&'static str, Value>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.set_n(name, value, 0);
    }

    pub fn set_n(&mut self, name: &'static str, value: f64, samples: usize) {
        // An empty sum is -0.0; store the 0 it is.
        self.0.insert(name, Value { value: value + 0.0, samples });
    }

    /// `list` in order; a name the workload did not set reads 0.
    pub fn in_order(
        &self,
        list: &[(&'static str, &'static str)],
    ) -> Vec<(&'static str, &'static str, Value)> {
        for name in self.0.keys() {
            assert!(
                END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| n == name),
                "metric {name} is not in the lists"
            );
        }
        list.iter()
            .map(|&(n, u)| {
                (n, u, self.0.get(n).copied().unwrap_or(Value { value: 0.0, samples: 0 }))
            })
            .collect()
    }
}
