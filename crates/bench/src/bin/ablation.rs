//! Ablation study (beyond the paper): which ingredient of the app-aware
//! policy buys what?
//!
//! Toggles pre-loading (Algorithm 1 line 7), prefetching (line 22) and the
//! render/prefetch overlap independently, beside the paper's FIFO and LRU
//! baselines and the offline Belady/MIN bound on the same demand trace.

use viz_bench::{Env, Opts};
use viz_cache::{simulate_belady, PolicyKind};
use viz_core::{
    compute_visibility, demand_trace, run_session_precomputed, AppAwareConfig, Strategy, Table,
};
use viz_volume::DatasetKind;

fn main() {
    let opts = Opts::from_env();
    let env = Env::new(DatasetKind::Ball3d, opts.scale, 2048, opts.seed);
    let tv = env.visible_table(opts.samples, 0.25);
    let cfg = env.session_config(0.5);
    let sigma = env.sigma();

    let mut t = Table::new(
        "ablation",
        "Ablation: component contributions on a 5-10 deg random path (3d_ball, 2048 blocks)",
        "variant",
        "metric",
    );

    let path = env.random_path(5.0, 10.0, opts.steps, opts.seed ^ 0xAB);
    let vis = compute_visibility(&env.layout, &path);

    let mk = |preload: bool, prefetch: bool, overlap: bool| {
        Strategy::AppAware(AppAwareConfig {
            preload,
            prefetch,
            overlap,
            ..AppAwareConfig::paper(sigma)
        })
    };
    let variants: Vec<(&str, Strategy)> = vec![
        ("FIFO", Strategy::Baseline(PolicyKind::Fifo)),
        ("LRU", Strategy::Baseline(PolicyKind::Lru)),
        ("OPT full", mk(true, true, true)),
        ("OPT -preload", mk(false, true, true)),
        ("OPT -prefetch", mk(true, false, true)),
        ("OPT -overlap", mk(true, true, false)),
    ];

    for (label, s) in variants {
        let tbl = matches!(s, Strategy::AppAware(_)).then_some((&tv, &env.importance));
        let r = run_session_precomputed(&cfg, &env.layout, &s, &path, &vis, tbl);
        t.push(
            label,
            vec![
                ("miss rate".to_string(), r.miss_rate),
                ("io (s)".to_string(), r.io_s),
                ("prefetch (s)".to_string(), r.prefetch_s),
                ("total (s)".to_string(), r.total_s),
            ],
        );
        eprintln!("ablation: {label} done");
    }

    // Dead-reckoning predictor (extension): motion extrapolation instead
    // of the paper's T_visible lookup.
    {
        let s = Strategy::AppAware(viz_core::AppAwareConfig::paper(sigma).with_dead_reckoning());
        let r = run_session_precomputed(
            &cfg,
            &env.layout,
            &s,
            &path,
            &vis,
            Some((&tv, &env.importance)),
        );
        t.push(
            "OPT (dead reckoning)",
            vec![
                ("miss rate".to_string(), r.miss_rate),
                ("io (s)".to_string(), r.io_s),
                ("prefetch (s)".to_string(), r.prefetch_s),
                ("total (s)".to_string(), r.total_s),
            ],
        );
        eprintln!("ablation: dead reckoning done");
    }

    // Offline optimum on the same trace (replacement-only lower bound for
    // the DRAM tier; no prefetching, so it bounds the *reactive* policies).
    let trace = demand_trace(&env.layout, &path);
    let dram_capacity = (env.layout.num_blocks() / 4).max(1);
    let belady = simulate_belady(&trace, dram_capacity);
    t.push("Belady/MIN (offline bound)", vec![("miss rate".to_string(), belady.miss_rate())]);

    opts.emit(&t);
}
