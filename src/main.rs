//! `viz-appaware` command-line tool.
//!
//! Drives the full pipeline end to end:
//!
//! ```text
//! viz-appaware info                         # dataset inventory (Table I)
//! viz-appaware prep  --dataset 3d_ball --out /tmp/prep
//!                                           # pre-processing: generate blocks,
//!                                           # build + persist both tables
//! viz-appaware run   --prep /tmp/prep --policy opt --steps 400
//!                                           # replay a camera path on the
//!                                           # simulated hierarchy
//! viz-appaware render --prep /tmp/prep --frames 8 --out /tmp/frames
//!                                           # ray-cast frames from the disk store
//! ```

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use viz_appaware::cache::PolicyKind;
use viz_appaware::core::{
    load_tables, run_session, save_tables, AppAwareConfig, ImportanceTable, RadiusModel,
    RadiusRule, SamplingConfig, SessionConfig, Strategy, VisibleTable,
};
use viz_appaware::fetch::{BlockPool, FetchConfig, FetchEngine};
use viz_appaware::geom::angle::deg_to_rad;
use viz_appaware::geom::{CameraPath, ExplorationDomain, RandomWalkPath, SphericalPath, Vec3};
use viz_appaware::render::{
    frame_working_set, render, BrickedSource, RenderConfig, TransferFunction,
};
use viz_appaware::volume::{
    BlockKey, BlockSource, BrickLayout, DatasetKind, DatasetSpec, DiskBlockStore,
};

const VIEW_ANGLE_DEG: f64 = 15.0;
const D_MIN: f64 = 2.0;
const D_MAX: f64 = 3.2;

fn usage() -> &'static str {
    "usage: viz-appaware <command> [options]\n\
     \n\
     commands:\n\
       info                               print the Table I dataset inventory\n\
       prep   --out DIR [--dataset NAME] [--scale N] [--blocks N] [--samples N] [--seed N]\n\
              generate the dataset, write its block store, build and persist\n\
              T_visible and T_important\n\
       run    --prep DIR [--policy fifo|lru|opt]\n\
              [--path spherical|random] [--deg X] [--steps N] [--ratio R]\n\
              replay an exploration on the simulated DRAM/SSD/HDD hierarchy\n\
       render --prep DIR [--frames N] [--size PX] --out DIR\n\
              ray-cast frames through the out-of-core pipeline (PPM output)\n\
       analyze --prep DIR [--deg X] [--steps N]\n\
              reuse-distance profile + importance summary of an exploration\n"
}

/// Tiny flag parser: `--key value` pairs after the subcommand.
fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut map = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let k = &args[i];
        if !k.starts_with("--") {
            return Err(format!("unexpected argument {k:?}"));
        }
        let v = args.get(i + 1).ok_or_else(|| format!("missing value for {k}"))?;
        map.insert(k.trim_start_matches("--").to_string(), v.clone());
        i += 2;
    }
    Ok(map)
}

fn get<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        Some(v) => v.parse().map_err(|_| format!("invalid value for --{key}: {v:?}")),
        None => Ok(default),
    }
}

fn dataset_by_name(name: &str) -> Result<DatasetKind, String> {
    DatasetKind::ALL.into_iter().find(|k| k.name() == name).ok_or_else(|| {
        format!("unknown dataset {name:?} (try: 3d_ball, lifted_mix_frac, lifted_rr, climate)")
    })
}

fn policy_by_name(name: &str) -> Result<Option<PolicyKind>, String> {
    match name {
        "fifo" => Ok(Some(PolicyKind::Fifo)),
        "lru" => Ok(Some(PolicyKind::Lru)),
        "opt" => Ok(None), // the app-aware strategy
        other => Err(format!("unknown policy {other:?} (try: fifo, lru, opt)")),
    }
}

/// What `prep` records beyond the tables themselves, kept beside them as
/// `manifest.txt`: one `key=value` line per field.
struct PrepManifest {
    dataset: String,
    scale: usize,
    seed: u64,
    volume: [usize; 3],
    block: [usize; 3],
    num_blocks: usize,
    value_range: [f32; 2],
    sigma: f64,
}

impl PrepManifest {
    const KEYS: [&'static str; 8] =
        ["dataset", "scale", "seed", "volume", "block", "num_blocks", "value_range", "sigma"];

    fn to_text(&self) -> String {
        let [vx, vy, vz] = self.volume;
        let [bx, by, bz] = self.block;
        let [lo, hi] = self.value_range;
        format!(
            "dataset={}\nscale={}\nseed={}\nvolume={vx} {vy} {vz}\nblock={bx} {by} {bz}\n\
             num_blocks={}\nvalue_range={lo} {hi}\nsigma={}\n",
            self.dataset, self.scale, self.seed, self.num_blocks, self.sigma
        )
    }

    /// Parse what [`Self::to_text`] wrote. The file is input from outside the
    /// program: a line that is not `key=value`, or an unknown, repeated,
    /// missing or unparsable key, is an error that names the key.
    fn parse(text: &str) -> Result<Self, String> {
        let mut fields: HashMap<&str, &str> = HashMap::new();
        for line in text.lines() {
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("manifest line {line:?} is not key=value"))?;
            if !Self::KEYS.contains(&key) {
                return Err(format!("unknown manifest key {key:?}"));
            }
            if fields.insert(key, value).is_some() {
                return Err(format!("manifest key {key:?} is repeated"));
            }
        }
        /// The `N` space-separated values of `key`.
        fn values<T: std::str::FromStr, const N: usize>(
            fields: &HashMap<&str, &str>,
            key: &str,
        ) -> Result<[T; N], String> {
            let text = fields.get(key).ok_or_else(|| format!("manifest key {key:?} is missing"))?;
            let garbled =
                || format!("manifest key {key:?}: cannot read {N} value(s) from {text:?}");
            let parsed: Vec<T> =
                text.split(' ').map(str::parse).collect::<Result<_, _>>().map_err(|_| garbled())?;
            parsed.try_into().map_err(|_| garbled())
        }
        let [dataset] = values::<String, 1>(&fields, "dataset")?;
        let [scale] = values(&fields, "scale")?;
        let [seed] = values(&fields, "seed")?;
        let [num_blocks] = values(&fields, "num_blocks")?;
        let [sigma] = values(&fields, "sigma")?;
        let manifest = PrepManifest {
            dataset,
            scale,
            seed,
            volume: values(&fields, "volume")?,
            block: values(&fields, "block")?,
            num_blocks,
            value_range: values(&fields, "value_range")?,
            sigma,
        };
        for (key, dims) in [("volume", manifest.volume), ("block", manifest.block)] {
            if dims.contains(&0) {
                return Err(format!("manifest key {key:?}: dimensions must be positive"));
            }
        }
        Ok(manifest)
    }
}

fn cmd_info() -> Result<(), String> {
    println!("{:<17} {:<16} {:>6} {:>10}", "name", "resolution", "#vars", "size");
    for kind in DatasetKind::ALL {
        let spec = DatasetSpec::new(kind, 1, 0);
        println!(
            "{:<17} {:<16} {:>6} {:>9.1}G",
            kind.name(),
            kind.full_resolution().to_string(),
            kind.num_variables(),
            spec.table1_bytes() as f64 / 1e9
        );
    }
    Ok(())
}

fn cmd_prep(flags: HashMap<String, String>) -> Result<(), String> {
    let out: String = flags.get("out").cloned().ok_or("--out is required")?;
    let kind = dataset_by_name(&get(&flags, "dataset", "3d_ball".to_string())?)?;
    let scale: usize = get(&flags, "scale", 8)?;
    let blocks: usize = get(&flags, "blocks", 1024)?;
    let samples: usize = get(&flags, "samples", 3240)?;
    let seed: u64 = get(&flags, "seed", 42)?;

    let out = PathBuf::from(out);
    let spec = DatasetSpec::new(kind, scale, seed);
    eprintln!("generating {} at {} ...", kind.name(), spec.resolution());
    let field = spec.materialize(0, 0.0);
    let layout = BrickLayout::with_target_blocks(field.dims, blocks);

    eprintln!("writing {} blocks to {} ...", layout.num_blocks(), out.join("blocks").display());
    let store = DiskBlockStore::open(out.join("blocks")).map_err(|e| e.to_string())?;
    store.write_field(&layout, &field, 0, 0).map_err(|e| e.to_string())?;

    eprintln!("building T_important ...");
    let importance = ImportanceTable::from_field(&layout, &field, 64);
    let sigma = importance.sigma_for_fraction(0.5);

    eprintln!("building T_visible ({samples} samples) ...");
    let view_angle = deg_to_rad(VIEW_ANGLE_DEG);
    let cfg = SamplingConfig::paper_default(D_MIN, D_MAX, view_angle).with_target_samples(samples);
    let t_visible = VisibleTable::build(
        cfg,
        &layout,
        RadiusRule::Optimal(RadiusModel::new(0.25, view_angle)),
        Some((&importance, layout.num_blocks() / 4)),
    );

    save_tables(&out, &t_visible, &importance).map_err(|e| e.to_string())?;
    let manifest = PrepManifest {
        dataset: kind.name().to_string(),
        scale,
        seed,
        volume: [layout.volume.nx, layout.volume.ny, layout.volume.nz],
        block: [layout.block.nx, layout.block.ny, layout.block.nz],
        num_blocks: layout.num_blocks(),
        value_range: field.min_max().into(),
        sigma,
    };
    std::fs::write(out.join("manifest.txt"), manifest.to_text()).map_err(|e| e.to_string())?;
    println!(
        "prep complete: {} blocks, {} T_visible entries, sigma = {:.3} -> {}",
        layout.num_blocks(),
        t_visible.len(),
        sigma,
        out.display()
    );
    Ok(())
}

fn load_prep(
    dir: &str,
) -> Result<(PrepManifest, BrickLayout, VisibleTable, ImportanceTable), String> {
    let dir = PathBuf::from(dir);
    let manifest = PrepManifest::parse(
        &std::fs::read_to_string(dir.join("manifest.txt"))
            .map_err(|e| format!("missing manifest: {e}"))?,
    )?;
    let layout = BrickLayout::new(
        viz_appaware::volume::Dims3::new(
            manifest.volume[0],
            manifest.volume[1],
            manifest.volume[2],
        ),
        viz_appaware::volume::Dims3::new(manifest.block[0], manifest.block[1], manifest.block[2]),
    );
    let (tv, ti) = load_tables(&dir).map_err(|e| e.to_string())?;
    Ok((manifest, layout, tv, ti))
}

fn cmd_run(flags: HashMap<String, String>) -> Result<(), String> {
    let prep: String = flags.get("prep").cloned().ok_or("--prep is required")?;
    let steps: usize = get(&flags, "steps", 400)?;
    let deg: f64 = get(&flags, "deg", 5.0)?;
    let ratio: f64 = get(&flags, "ratio", 0.5)?;
    let seed: u64 = get(&flags, "seed", 7)?;
    let policy = policy_by_name(&get(&flags, "policy", "opt".to_string())?)?;
    let path_kind: String = get(&flags, "path", "spherical".to_string())?;

    let (manifest, layout, tv, ti) = load_prep(&prep)?;
    let view_angle = deg_to_rad(VIEW_ANGLE_DEG);
    let domain = ExplorationDomain::new(Vec3::ZERO, D_MIN, D_MAX);
    let poses = match path_kind.as_str() {
        "spherical" => SphericalPath::new(domain, 2.5, deg, view_angle)
            .with_precession(deg * 0.2)
            .generate(steps),
        "random" => {
            RandomWalkPath::new(domain, 2.5, deg.max(0.5) - 0.5, deg + 0.5, view_angle, seed)
                .generate(steps)
        }
        other => return Err(format!("unknown path kind {other:?}")),
    };

    let strategy = match policy {
        Some(k) => Strategy::Baseline(k),
        None => Strategy::AppAware(AppAwareConfig::paper(manifest.sigma)),
    };
    let cfg = SessionConfig::paper(ratio, layout.nominal_block_bytes());
    let tables = matches!(strategy, Strategy::AppAware(_)).then_some((&tv, &ti));
    let r = run_session(&cfg, &layout, &strategy, &poses, tables);
    println!(
        "{} on {} ({} blocks), {} steps of {}:",
        r.strategy,
        manifest.dataset,
        layout.num_blocks(),
        steps,
        path_kind
    );
    println!("  miss rate     {:>10.4}", r.miss_rate);
    println!("  I/O time      {:>10.3} s", r.io_s);
    println!("  prefetch time {:>10.3} s", r.prefetch_s);
    println!("  render time   {:>10.3} s", r.render_s);
    println!("  total time    {:>10.3} s", r.total_s);
    Ok(())
}

fn cmd_render(flags: HashMap<String, String>) -> Result<(), String> {
    let prep: String = flags.get("prep").cloned().ok_or("--prep is required")?;
    let out: String = flags.get("out").cloned().ok_or("--out is required")?;
    let frames: usize = get(&flags, "frames", 8)?;
    let size: usize = get(&flags, "size", 256)?;

    let (manifest, layout, tv, ti) = load_prep(&prep)?;
    let store: Arc<dyn BlockSource> = Arc::new(
        DiskBlockStore::open(PathBuf::from(&prep).join("blocks")).map_err(|e| e.to_string())?,
    );
    let out = PathBuf::from(out);
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;

    let pool = Arc::new(BlockPool::new());
    let engine = FetchEngine::spawn(
        store.clone(),
        pool.clone(),
        FetchConfig { workers: 4, queue_cap: 1024, ..FetchConfig::default() },
    );
    for b in ti.above_threshold(manifest.sigma).take(layout.num_blocks() / 4) {
        engine.prefetch(BlockKey::scalar(b), ti.entropy(b));
    }
    engine.sync();

    let view_angle = deg_to_rad(VIEW_ANGLE_DEG);
    let domain = ExplorationDomain::new(Vec3::ZERO, D_MIN, D_MAX);
    let poses = SphericalPath::new(domain, 2.4, 360.0 / frames as f64, view_angle).generate(frames);
    let tf = TransferFunction::heat(manifest.value_range.into());
    let rc = RenderConfig::preview(size, size);

    for (i, pose) in poses.iter().enumerate() {
        // The camera moved: cancel unstarted prefetches queued for the
        // previous frame's prediction before issuing this frame's work.
        engine.bump_generation();
        for b in frame_working_set(pose, &layout, &rc) {
            let key = BlockKey::scalar(b);
            if !pool.contains(key) {
                // Demand read: outranks queued prefetches and coalesces
                // with an in-flight read of the same block.
                engine.get(key).map_err(|e| e.message)?;
            }
        }
        for &b in tv.predict(pose) {
            let e = ti.entropy(b);
            if e > manifest.sigma {
                engine.prefetch(BlockKey::scalar(b), e);
            }
        }
        let lookup = |id: viz_appaware::volume::BlockId| pool.get(BlockKey::scalar(id));
        let src = BrickedSource::new(&layout, &lookup);
        let img = render(&src, pose, &tf, &rc);
        let path = out.join(format!("frame_{i:03}.ppm"));
        img.save_ppm(&path).map_err(|e| e.to_string())?;
        println!("wrote {}", path.display());
    }
    let m = engine.shutdown();
    println!(
        "done ({} blocks fetched: {} prefetch / {} demand; {} coalesced, {} cancelled)",
        m.completed, m.prefetch_completed, m.demand_completed, m.coalesced, m.cancelled
    );
    Ok(())
}

fn cmd_analyze(flags: HashMap<String, String>) -> Result<(), String> {
    use viz_appaware::core::{demand_trace, ReuseProfile};
    let prep: String = flags.get("prep").cloned().ok_or("--prep is required")?;
    let deg: f64 = get(&flags, "deg", 5.0)?;
    let steps: usize = get(&flags, "steps", 400)?;
    let (manifest, layout, _tv, ti) = load_prep(&prep)?;

    let view_angle = deg_to_rad(VIEW_ANGLE_DEG);
    let domain = ExplorationDomain::new(Vec3::ZERO, D_MIN, D_MAX);
    let poses =
        SphericalPath::new(domain, 2.5, deg, view_angle).with_precession(deg * 0.2).generate(steps);
    let trace = demand_trace(&layout, &poses);
    let profile = ReuseProfile::compute(&trace);

    println!(
        "{} ({} blocks): {deg} deg spherical path, {steps} steps",
        manifest.dataset,
        layout.num_blocks()
    );
    println!(
        "trace: {} accesses, {} distinct blocks, mean reuse distance {:.1}",
        profile.total,
        profile.cold,
        profile.mean_distance().unwrap_or(0.0)
    );
    println!(
        "
LRU miss curve (cache size as a fraction of blocks):"
    );
    for f in [0.05, 0.1, 0.2, 0.25, 0.35, 0.5, 0.75, 1.0] {
        let cap = ((layout.num_blocks() as f64 * f).round() as usize).max(1);
        println!("  {f:>5.2}  ->  {:.4}", profile.lru_miss_rate(cap));
    }
    if let Some(cap) = profile.capacity_for_miss_rate(0.1, layout.num_blocks()) {
        println!(
            "
smallest cache for <=10% misses: {cap} blocks ({:.0}% of the dataset)",
            100.0 * cap as f64 / layout.num_blocks() as f64
        );
    }
    println!(
        "
importance (T_important): sigma(50%) = {:.3} bits;",
        manifest.sigma
    );
    println!(
        "top 5 blocks by entropy: {}",
        ti.ranked()
            .iter()
            .take(5)
            .map(|e| format!("{}({:.2})", e.block, e.entropy))
            .collect::<Vec<_>>()
            .join(", ")
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprint!("{}", usage());
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "info" => cmd_info(),
        "prep" | "run" | "render" | "analyze" => match parse_flags(&args[1..]) {
            Ok(flags) => match cmd.as_str() {
                "prep" => cmd_prep(flags),
                "run" => cmd_run(flags),
                "analyze" => cmd_analyze(flags),
                _ => cmd_render(flags),
            },
            Err(e) => Err(e),
        },
        "--help" | "-h" | "help" => {
            print!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_names_are_the_three_that_exist() {
        assert_eq!(policy_by_name("fifo"), Ok(Some(PolicyKind::Fifo)));
        assert_eq!(policy_by_name("lru"), Ok(Some(PolicyKind::Lru)));
        assert_eq!(policy_by_name("opt"), Ok(None));
        let err = policy_by_name("arc").unwrap_err();
        assert_eq!(err, r#"unknown policy "arc" (try: fifo, lru, opt)"#);
    }
}
