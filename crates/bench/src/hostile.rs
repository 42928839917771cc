//! Seeded, replayable hostile-workload scenarios.
//!
//! The adaptive loops are judged against workloads *designed* to hurt:
//! each [`ScenarioKind`] encodes one documented failure mode of a fixed
//! configuration. Generation is strictly open-loop — a
//! [`Schedule`] is a pure function of its [`ScenarioConfig`], computed
//! before any server exists, so a run can be replayed bit-for-bit
//! against fixed defaults and against closed-loop adaptation and the
//! curves compared point by point. [`Schedule::encode`] gives the
//! byte-stable form the determinism tests (and any future corpus
//! pinning) compare.
//!
//! Keys are plain `u32` block indices into a configured keyspace; the
//! consumer maps them to [`viz_volume::BlockKey`]s.

use viz_geom::SplitMix64;

/// Uniform key or client index in `[0, n)`.
fn below(rng: &mut SplitMix64, n: u32) -> u32 {
    rng.below(u64::from(n)) as u32
}

/// One documented way to hurt a fixed configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// Quiet single-viewer start, then every client joins at once on one
    /// hot region: admission quotas sized for the quiet phase face a
    /// spike, and the spike is *correlated* so coalescing either saves
    /// the day or the queue watermark trips.
    FlashCrowd,
    /// Sessions open, run a few frames, and close in rotation: per-session
    /// state (σ controllers, quotas, flight prediction) never gets long
    /// enough to learn, and registry churn runs concurrently with serving.
    SessionChurn,
    /// Each viewer teleports every frame — demand walks with no spatial
    /// locality, so vicinity prefetch around the current position is
    /// pure waste and a fixed σ/radius speculates on noise.
    AdversarialCamera,
    /// Every client issues the *same* random burst each step, plus heavy
    /// prefetch of one shared region: maximal duplication pressure on
    /// queues, quotas, and the coalescer at once.
    CorrelatedStorm,
}

impl ScenarioKind {
    /// Every scenario, in a stable order.
    pub const ALL: [ScenarioKind; 4] = [
        ScenarioKind::FlashCrowd,
        ScenarioKind::SessionChurn,
        ScenarioKind::AdversarialCamera,
        ScenarioKind::CorrelatedStorm,
    ];

    /// Stable lowercase name (JSON keys, filenames).
    pub fn name(self) -> &'static str {
        match self {
            ScenarioKind::FlashCrowd => "flash_crowd",
            ScenarioKind::SessionChurn => "session_churn",
            ScenarioKind::AdversarialCamera => "adversarial_camera",
            ScenarioKind::CorrelatedStorm => "correlated_storm",
        }
    }

    /// Stable wire/encode discriminant.
    fn code(self) -> u8 {
        match self {
            ScenarioKind::FlashCrowd => 0,
            ScenarioKind::SessionChurn => 1,
            ScenarioKind::AdversarialCamera => 2,
            ScenarioKind::CorrelatedStorm => 3,
        }
    }
}

/// Everything a [`Schedule`] is a function of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioConfig {
    /// Which pathology to generate.
    pub kind: ScenarioKind,
    /// Master seed; the only source of randomness.
    pub seed: u64,
    /// Steps (frames per surviving client) in the schedule.
    pub steps: u32,
    /// Peak concurrent clients.
    pub clients: u32,
    /// Number of distinct keys the scenario draws from.
    pub keyspace: u32,
    /// Demand keys per client frame.
    pub demand_per_frame: u32,
    /// Prefetch keys per client frame.
    pub prefetch_per_frame: u32,
}

impl ScenarioConfig {
    /// The standard hostile shape for `kind` at `seed`.
    pub fn hostile(kind: ScenarioKind, seed: u64) -> Self {
        ScenarioConfig {
            kind,
            seed,
            steps: 64,
            clients: 8,
            // Wide enough that teleporting cameras and key storms stay
            // cold for the whole run — a keyspace the pool can swallow
            // early would turn every scenario into a warm no-op.
            keyspace: 4096,
            demand_per_frame: 4,
            prefetch_per_frame: 12,
        }
    }

    /// Shrink for CI smoke runs.
    pub fn fast(mut self) -> Self {
        self.steps = self.steps.min(24);
        self.clients = self.clients.min(4);
        self.keyspace = self.keyspace.min(1024);
        self
    }
}

/// One client action at one step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientOp {
    /// Open a session for `client`.
    Open {
        /// Client index, `0..clients`.
        client: u32,
    },
    /// Close `client`'s session.
    Close {
        /// Client index.
        client: u32,
    },
    /// One frame: demand must land, prefetch is at the server's mercy.
    Frame {
        /// Client index.
        client: u32,
        /// Demand key indices.
        demand: Vec<u32>,
        /// Prefetch key indices with descending priority.
        prefetch: Vec<u32>,
    },
}

/// A fully materialized run: `steps[t]` is every op at step `t`, in
/// issue order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// The config this schedule is a pure function of.
    pub cfg: ScenarioConfig,
    /// Per-step ops.
    pub steps: Vec<Vec<ClientOp>>,
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

impl Schedule {
    /// Generate the schedule for `cfg` — same `cfg` in, same bytes out,
    /// on every platform and every run.
    pub fn generate(cfg: ScenarioConfig) -> Schedule {
        // Distinct streams per role so e.g. churn timing never perturbs
        // key choice; both are functions of (seed, kind) only.
        let mut keys = SplitMix64::new(cfg.seed ^ 0xA5A5_0000 ^ u64::from(cfg.kind.code()));
        let mut churn = SplitMix64::new(cfg.seed ^ 0x5A5A_0000 ^ u64::from(cfg.kind.code()));
        let mut steps: Vec<Vec<ClientOp>> = Vec::with_capacity(cfg.steps as usize);
        match cfg.kind {
            ScenarioKind::FlashCrowd => Self::flash_crowd(&cfg, &mut keys, &mut steps),
            ScenarioKind::SessionChurn => {
                Self::session_churn(&cfg, &mut keys, &mut churn, &mut steps)
            }
            ScenarioKind::AdversarialCamera => {
                Self::adversarial_camera(&cfg, &mut keys, &mut steps)
            }
            ScenarioKind::CorrelatedStorm => Self::correlated_storm(&cfg, &mut keys, &mut steps),
        }
        // Everybody still open closes at the end, highest index first —
        // a fixed, kind-independent epilogue.
        let mut open = vec![false; cfg.clients as usize];
        for step in &steps {
            for op in step {
                match *op {
                    ClientOp::Open { client } => open[client as usize] = true,
                    ClientOp::Close { client } => open[client as usize] = false,
                    ClientOp::Frame { .. } => {}
                }
            }
        }
        let epilogue: Vec<ClientOp> = (0..cfg.clients)
            .rev()
            .filter(|&c| open[c as usize])
            .map(|c| ClientOp::Close { client: c })
            .collect();
        steps.push(epilogue);
        Schedule { cfg, steps }
    }

    fn frame(cfg: &ScenarioConfig, client: u32, keys: &mut SplitMix64, spread: u32) -> ClientOp {
        // Demand clusters inside a `spread`-wide window; prefetch trails
        // around the window as a vicinity guess.
        let base = below(keys, cfg.keyspace);
        let demand: Vec<u32> = (0..cfg.demand_per_frame)
            .map(|_| (base + below(keys, spread.max(1))) % cfg.keyspace)
            .collect();
        let prefetch: Vec<u32> =
            (0..cfg.prefetch_per_frame).map(|i| (base + spread + i) % cfg.keyspace).collect();
        ClientOp::Frame { client, demand, prefetch }
    }

    fn flash_crowd(cfg: &ScenarioConfig, keys: &mut SplitMix64, steps: &mut Vec<Vec<ClientOp>>) {
        let crowd_at = cfg.steps / 4;
        let hot = below(keys, cfg.keyspace);
        for t in 0..cfg.steps {
            let mut ops = Vec::new();
            if t == 0 {
                ops.push(ClientOp::Open { client: 0 });
            }
            if t == crowd_at {
                for c in 1..cfg.clients {
                    ops.push(ClientOp::Open { client: c });
                }
            }
            let crowd = if t < crowd_at { 1 } else { cfg.clients };
            for c in 0..crowd {
                if t < crowd_at {
                    ops.push(Self::frame(cfg, c, keys, 8));
                } else {
                    // Everyone converges on the same hot window.
                    let demand: Vec<u32> = (0..cfg.demand_per_frame)
                        .map(|_| (hot + below(keys, 8)) % cfg.keyspace)
                        .collect();
                    let prefetch: Vec<u32> =
                        (0..cfg.prefetch_per_frame).map(|i| (hot + 8 + i) % cfg.keyspace).collect();
                    ops.push(ClientOp::Frame { client: c, demand, prefetch });
                }
            }
            steps.push(ops);
        }
    }

    fn session_churn(
        cfg: &ScenarioConfig,
        keys: &mut SplitMix64,
        churn: &mut SplitMix64,
        steps: &mut Vec<Vec<ClientOp>>,
    ) {
        let mut open = vec![false; cfg.clients as usize];
        for t in 0..cfg.steps {
            let mut ops = Vec::new();
            if t == 0 {
                for c in 0..cfg.clients {
                    ops.push(ClientOp::Open { client: c });
                    open[c as usize] = true;
                }
            } else if t % 3 == 0 {
                // Recycle one client: a close and an immediate re-open,
                // so the registry churns while neighbours keep serving.
                let c = below(churn, cfg.clients);
                if open[c as usize] {
                    ops.push(ClientOp::Close { client: c });
                    ops.push(ClientOp::Open { client: c });
                }
            }
            for c in 0..cfg.clients {
                if open[c as usize] {
                    ops.push(Self::frame(cfg, c, keys, 8));
                }
            }
            steps.push(ops);
        }
    }

    fn adversarial_camera(
        cfg: &ScenarioConfig,
        keys: &mut SplitMix64,
        steps: &mut Vec<Vec<ClientOp>>,
    ) {
        for t in 0..cfg.steps {
            let mut ops = Vec::new();
            if t == 0 {
                for c in 0..cfg.clients {
                    ops.push(ClientOp::Open { client: c });
                }
            }
            for c in 0..cfg.clients {
                // Teleport: a fresh uniform base every frame (spread 1),
                // so the vicinity prefetch that trails the window never
                // predicts the next jump.
                ops.push(Self::frame(cfg, c, keys, 1));
            }
            steps.push(ops);
        }
    }

    fn correlated_storm(
        cfg: &ScenarioConfig,
        keys: &mut SplitMix64,
        steps: &mut Vec<Vec<ClientOp>>,
    ) {
        for t in 0..cfg.steps {
            let mut ops = Vec::new();
            if t == 0 {
                for c in 0..cfg.clients {
                    ops.push(ClientOp::Open { client: c });
                }
            }
            // One burst, shared verbatim by every client this step.
            let demand: Vec<u32> =
                (0..cfg.demand_per_frame).map(|_| below(keys, cfg.keyspace)).collect();
            let region = below(keys, cfg.keyspace);
            let prefetch: Vec<u32> =
                (0..cfg.prefetch_per_frame).map(|i| (region + i) % cfg.keyspace).collect();
            for c in 0..cfg.clients {
                ops.push(ClientOp::Frame {
                    client: c,
                    demand: demand.clone(),
                    prefetch: prefetch.clone(),
                });
            }
            steps.push(ops);
        }
    }

    /// Total `Frame` ops.
    pub fn frames(&self) -> usize {
        self.steps.iter().flatten().filter(|op| matches!(op, ClientOp::Frame { .. })).count()
    }

    /// Total demand keys across all frames.
    pub fn demand_keys(&self) -> u64 {
        self.steps
            .iter()
            .flatten()
            .map(|op| match op {
                ClientOp::Frame { demand, .. } => demand.len() as u64,
                _ => 0,
            })
            .sum()
    }

    /// Byte-stable encoding: little-endian, length-prefixed, no floats,
    /// no hashing — two schedules are equal iff their encodings are.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"HSTL1");
        out.push(self.cfg.kind.code());
        out.extend_from_slice(&self.cfg.seed.to_le_bytes());
        for v in [
            self.cfg.steps,
            self.cfg.clients,
            self.cfg.keyspace,
            self.cfg.demand_per_frame,
            self.cfg.prefetch_per_frame,
        ] {
            put_u32(&mut out, v);
        }
        put_u32(&mut out, self.steps.len() as u32);
        for step in &self.steps {
            put_u32(&mut out, step.len() as u32);
            for op in step {
                match op {
                    ClientOp::Open { client } => {
                        out.push(0);
                        put_u32(&mut out, *client);
                    }
                    ClientOp::Close { client } => {
                        out.push(1);
                        put_u32(&mut out, *client);
                    }
                    ClientOp::Frame { client, demand, prefetch } => {
                        out.push(2);
                        put_u32(&mut out, *client);
                        put_u32(&mut out, demand.len() as u32);
                        for k in demand {
                            put_u32(&mut out, *k);
                        }
                        put_u32(&mut out, prefetch.len() as u32);
                        for k in prefetch {
                            put_u32(&mut out, *k);
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_for_every_kind() {
        for kind in ScenarioKind::ALL {
            let cfg = ScenarioConfig::hostile(kind, 0xDEAD_BEEF);
            let a = Schedule::generate(cfg).encode();
            let b = Schedule::generate(cfg).encode();
            assert_eq!(a, b, "{} must be byte-identical for one seed", kind.name());
            assert!(!a.is_empty());
        }
    }

    #[test]
    fn different_seeds_differ_and_kinds_differ() {
        for kind in ScenarioKind::ALL {
            let a = Schedule::generate(ScenarioConfig::hostile(kind, 1)).encode();
            let b = Schedule::generate(ScenarioConfig::hostile(kind, 2)).encode();
            assert_ne!(a, b, "{} ignores its seed", kind.name());
        }
        let kinds: Vec<Vec<u8>> = ScenarioKind::ALL
            .iter()
            .map(|&k| Schedule::generate(ScenarioConfig::hostile(k, 7)).encode())
            .collect();
        for i in 0..kinds.len() {
            for j in i + 1..kinds.len() {
                assert_ne!(kinds[i], kinds[j], "two kinds produced identical schedules");
            }
        }
    }

    #[test]
    fn schedules_are_well_formed() {
        for kind in ScenarioKind::ALL {
            let cfg = ScenarioConfig::hostile(kind, 3).fast();
            let s = Schedule::generate(cfg);
            assert!(s.frames() > 0);
            assert!(s.demand_keys() > 0);
            // Replay with a session table: every Frame/Close hits an open
            // session, every key is inside the keyspace, and the epilogue
            // leaves nothing open.
            let mut open = vec![false; cfg.clients as usize];
            for step in &s.steps {
                for op in step {
                    match op {
                        ClientOp::Open { client } => {
                            assert!(!open[*client as usize], "double open");
                            open[*client as usize] = true;
                        }
                        ClientOp::Close { client } => {
                            assert!(open[*client as usize], "close without open");
                            open[*client as usize] = false;
                        }
                        ClientOp::Frame { client, demand, prefetch } => {
                            assert!(open[*client as usize], "frame on closed session");
                            for k in demand.iter().chain(prefetch) {
                                assert!(*k < cfg.keyspace);
                            }
                        }
                    }
                }
            }
            assert!(open.iter().all(|o| !o), "epilogue must close every session");
        }
    }

    #[test]
    fn storm_is_actually_correlated() {
        let s = Schedule::generate(ScenarioConfig::hostile(ScenarioKind::CorrelatedStorm, 9));
        // In any step, all Frame ops share one demand vector.
        for step in &s.steps {
            let demands: Vec<&Vec<u32>> = step
                .iter()
                .filter_map(|op| match op {
                    ClientOp::Frame { demand, .. } => Some(demand),
                    _ => None,
                })
                .collect();
            for d in &demands {
                assert_eq!(*d, demands[0], "storm demand must be identical across clients");
            }
        }
    }

    #[test]
    fn churn_recycles_sessions() {
        let s = Schedule::generate(ScenarioConfig::hostile(ScenarioKind::SessionChurn, 11));
        let closes =
            s.steps.iter().flatten().filter(|op| matches!(op, ClientOp::Close { .. })).count();
        assert!(closes > 5, "churn scenario barely churned ({closes} closes)");
    }
}
