//! The per-server control plane: scrape → decide → actuate → publish.
//!
//! [`ControlPlane`] owns the serve-side loop for one [`Server`]. Each
//! [`tick`](ControlPlane::tick) — one control period, driven by whatever
//! clock the host has (a bench loop, a node's heartbeat, a timer thread):
//!
//! 1. **Scrape** the wire-counter plane ([`Server::wire_counters`])
//!    through a [`SignalTracker`], getting per-interval deltas.
//! 2. **Consume** the demand-RTT window ([`Server::take_demand_window`])
//!    for the interval's p99 — windowed, so one bad boot minute can't
//!    haunt the controller forever.
//! 3. **Retune** the shed ladder through the [`LadderTuner`] and install
//!    it with [`Server::set_ladder`].
//! 4. **Publish** controller state as `adapt_*` gauges (optionally
//!    node-prefixed) so the next `Stats` scrape shows the loop acting.
//!
//! σ adaptation is per-session and stays where the session state lives
//! (`Server::attach_adaptive_sigma`). The plane deliberately handles only
//! the signals the server itself owns.

use crate::ladder::{LadderTuner, LadderTunerConfig};
use crate::snapshot::{SignalTracker, Signals};
use std::sync::Arc;
use viz_serve::{LadderConfig, Server};
use viz_telemetry::stats::set_gauge;

/// Knobs for [`ControlPlane`].
#[derive(Debug, Clone)]
pub struct ControlPlaneConfig {
    /// Ladder tuning (SLO, gain, scale clamps).
    pub ladder: LadderTunerConfig,
    /// Prefix for published gauges — distinct per node in one process
    /// (the gauge registry is process-global), e.g. `"node3_"`.
    pub gauge_prefix: String,
}

impl ControlPlaneConfig {
    /// A plane chasing `slo_p99_ns` with unprefixed gauges.
    pub fn for_slo(slo_p99_ns: u64) -> Self {
        ControlPlaneConfig {
            ladder: LadderTunerConfig::for_slo(slo_p99_ns),
            gauge_prefix: String::new(),
        }
    }
}

/// What one control period saw and did.
#[derive(Debug, Clone)]
pub struct TickReport {
    /// Interval signals (deltas + gauges).
    pub signals: Signals,
    /// Demand p99 over the consumed window, ns (0 = no demand).
    pub window_p99_ns: u64,
    /// Demand RTT samples in the window.
    pub window_count: u64,
    /// The ladder installed this period.
    pub ladder: LadderConfig,
    /// The tuner's scale after this period.
    pub scale: f64,
}

/// The per-server closed loop (see module docs).
pub struct ControlPlane {
    server: Arc<Server>,
    cfg: ControlPlaneConfig,
    tracker: SignalTracker,
    ladder: LadderTuner,
    ticks: u64,
}

impl ControlPlane {
    /// Attach a plane to a server; tuning starts from the server's
    /// *current* ladder as the base.
    pub fn new(server: Arc<Server>, cfg: ControlPlaneConfig) -> Self {
        let ladder = LadderTuner::new(server.ladder(), cfg.ladder);
        ControlPlane { server, cfg, tracker: SignalTracker::new(), ladder, ticks: 0 }
    }

    /// The server under control.
    pub fn server(&self) -> &Arc<Server> {
        &self.server
    }

    /// Control periods run so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Run one control period (see module docs).
    pub fn tick(&mut self) -> TickReport {
        self.ticks += 1;
        let signals = self.tracker.observe(&self.server.wire_counters());
        let window = self.server.take_demand_window();
        let (window_p99_ns, window_count) =
            if window.count() > 0 { (window.percentile(0.99), window.count()) } else { (0, 0) };
        let ladder = self.ladder.observe_p99(window_p99_ns);
        self.server.set_ladder(ladder);

        let p = &self.cfg.gauge_prefix;
        set_gauge(&format!("{p}adapt_ticks"), self.ticks);
        set_gauge(&format!("{p}adapt_ladder_scale_milli"), (self.ladder.scale() * 1e3) as u64);
        set_gauge(&format!("{p}adapt_window_p99_ns"), window_p99_ns);
        set_gauge(&format!("{p}adapt_window_demand"), window_count);
        set_gauge(&format!("{p}adapt_interval_shed"), signals.prefetch_shed);
        set_gauge(&format!("{p}adapt_interval_demand_errors"), signals.demand_errors);

        TickReport { signals, window_p99_ns, window_count, ladder, scale: self.ladder.scale() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use std::time::Duration;
    use viz_fetch::{BlockPool, FetchConfig, FetchEngine, InstrumentedSource};
    use viz_serve::ServeConfig;
    use viz_volume::{BlockId, BlockKey, MemBlockStore};

    /// The gauge registry is process-global; serialize tests that touch it.
    static GUARD: Mutex<()> = Mutex::new(());

    fn key(i: u32) -> BlockKey {
        BlockKey::scalar(BlockId(i))
    }

    fn det_server(n: u32) -> Arc<Server> {
        let store = MemBlockStore::new();
        for i in 0..n {
            store.insert(key(i), vec![i as f32; 8]);
        }
        let src = Arc::new(InstrumentedSource::new(Arc::new(store), Duration::ZERO));
        let engine = FetchEngine::spawn(
            src,
            Arc::new(BlockPool::new()),
            FetchConfig { workers: 0, ..FetchConfig::default() },
        );
        Server::new(Arc::new(engine), ServeConfig::default())
    }

    #[test]
    fn tick_scrapes_tunes_and_publishes() {
        let _g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
        let server = det_server(16);
        let id = server.open_session("v").unwrap();
        let mut plane = ControlPlane::new(server.clone(), ControlPlaneConfig::for_slo(1_000_000));

        // Serve one demand frame so the window has a sample.
        let sub = server.submit(id, 0, vec![key(1)], vec![(key(2), 1.0)]).unwrap();
        server.pump();
        server.engine().run_until_idle();
        let replies = sub.collect_ready(&server);
        assert!(replies[0].result.is_ok());

        let report = plane.tick();
        assert_eq!(report.window_count, 1);
        assert_eq!(report.signals.demand_admitted, 1);
        assert_eq!(report.signals.prefetch_admitted, 1);
        assert_eq!(report.signals.demand_errors, 0);
        assert_eq!(plane.ticks(), 1);
        // Published state is visible on the very next scrape.
        let stats = server.wire_counters();
        let g = |name: &str| stats.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
        assert_eq!(g("adapt_ticks"), Some(1));
        assert!(g("adapt_ladder_scale_milli").is_some());
        viz_telemetry::stats::clear_gauges();
    }

    #[test]
    fn idle_ticks_leave_the_ladder_alone() {
        let _g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
        let server = det_server(4);
        let before = server.ladder();
        let mut plane = ControlPlane::new(server.clone(), ControlPlaneConfig::for_slo(1_000_000));
        for _ in 0..5 {
            let r = plane.tick();
            assert_eq!(r.window_p99_ns, 0);
            assert!((r.scale - 1.0).abs() < 1e-12);
        }
        assert_eq!(server.ladder(), before, "no demand ⇒ no retuning");
        viz_telemetry::stats::clear_gauges();
    }

    #[test]
    fn node_prefix_separates_gauges() {
        let _g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
        viz_telemetry::stats::clear_gauges();
        let server = det_server(4);
        let mut cfg = ControlPlaneConfig::for_slo(1_000_000);
        cfg.gauge_prefix = "n7_".to_string();
        let mut plane = ControlPlane::new(server, cfg);
        plane.tick();
        assert_eq!(viz_telemetry::stats::gauge("n7_adapt_ticks"), Some(1));
        assert_eq!(viz_telemetry::stats::gauge("adapt_ticks"), None);
        viz_telemetry::stats::clear_gauges();
    }
}
