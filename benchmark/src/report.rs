//! Reading result files back: `check` (every metric `BENCHMARK.json` names
//! is there, with its unit), `spread` (how far repeated runs scatter) and
//! `compare` (two sets of runs against the bounds).

use crate::json::{parse, Json};
use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, quartiles, sorted};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Per-layer metrics that are counts or ratios of counts fixed by the
/// seed: two runs of one seed on one build must agree on them exactly.
const EXACT: &[&str] = &[
    "core.predicted_per_frame",
    "core.prediction_recall",
    "core.prediction_precision",
    "cache.sim_miss_ratio",
    "cache.sim_time_ratio",
    "cache.misses_fifo",
    "cache.misses_lru",
    "cache.misses_appaware",
    "cache.misses_belady",
];

struct Spec {
    /// name -> (unit, lower is better, bound)
    end_to_end: BTreeMap<String, (String, bool, f64)>,
    per_layer: BTreeMap<String, String>,
    workloads: Vec<String>,
}

fn load_spec() -> Result<Spec, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = parse(&text)?;
    let field = |m: &Json, k: &str| {
        m.get(k).and_then(Json::as_str).map(str::to_string).ok_or(format!("metric without {k}"))
    };
    let mut spec =
        Spec { end_to_end: BTreeMap::new(), per_layer: BTreeMap::new(), workloads: Vec::new() };
    for m in doc.get("end_to_end").map_or(&[][..], Json::as_arr) {
        let bound =
            m.get("bound").and_then(Json::as_f64).ok_or("end-to-end metric without bound")?;
        spec.end_to_end
            .insert(field(m, "name")?, (field(m, "unit")?, field(m, "better")? == "lower", bound));
    }
    for m in doc.get("per_layer").map_or(&[][..], Json::as_arr) {
        spec.per_layer.insert(field(m, "name")?, field(m, "unit")?);
    }
    for w in doc.get("workloads").map_or(&[][..], Json::as_arr) {
        spec.workloads.push(field(w, "name")?);
    }
    Ok(spec)
}

/// Result files under `roots` (files, or directories searched recursively).
fn result_files(roots: &[String]) -> Vec<PathBuf> {
    fn walk(p: &Path, out: &mut Vec<PathBuf>) {
        if p.is_dir() {
            let mut entries: Vec<_> =
                std::fs::read_dir(p).into_iter().flatten().flatten().map(|e| e.path()).collect();
            entries.sort();
            entries.iter().for_each(|e| walk(e, out));
        } else if p.extension().is_some_and(|e| e == "json") {
            out.push(p.to_path_buf());
        }
    }
    let mut out = Vec::new();
    roots.iter().for_each(|r| walk(Path::new(r), &mut out));
    out
}

struct Run {
    path: PathBuf,
    workload: String,
    seed: f64,
    correct: bool,
    /// section -> name -> (value, unit)
    sections: BTreeMap<String, BTreeMap<String, (f64, String)>>,
}

fn load_run(path: &Path) -> Result<Run, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut sections = BTreeMap::new();
    for section in ["end_to_end", "per_layer"] {
        let Some(map) = doc.get(section).and_then(Json::as_obj) else { continue };
        let mut metrics = BTreeMap::new();
        for (name, m) in map {
            let value = m.get("value").and_then(Json::as_f64).ok_or(format!("{name}: no value"))?;
            let unit = m.get("unit").and_then(Json::as_str).ok_or(format!("{name}: no unit"))?;
            metrics.insert(name.clone(), (value, unit.to_string()));
        }
        sections.insert(section.to_string(), metrics);
    }
    Ok(Run {
        path: path.to_path_buf(),
        workload: doc.get("workload").and_then(Json::as_str).unwrap_or("?").to_string(),
        seed: doc.get("seed").and_then(Json::as_f64).unwrap_or(-1.0),
        correct: doc.get("correct") == Some(&Json::Bool(true)),
        sections,
    })
}

fn load_runs(roots: &[String]) -> Result<Vec<Run>, String> {
    let files = result_files(roots);
    if files.is_empty() {
        return Err(format!("no result files under {roots:?}"));
    }
    files.iter().map(|p| load_run(p)).collect()
}

/// `vizbench check FILE|DIR...`
pub fn check(roots: &[String]) -> Result<bool, String> {
    let spec = load_spec()?;
    let mut ok = true;
    let mut complain = |what: String| {
        println!("check: {what}");
        ok = false;
    };
    // The lists compiled into the driver against the ones the harness reads.
    for (list, section) in [(END_TO_END, "end_to_end"), (PER_LAYER, "per_layer")] {
        let named: BTreeMap<&str, &str> = match section {
            "end_to_end" => {
                spec.end_to_end.iter().map(|(n, (u, _, _))| (n.as_str(), u.as_str())).collect()
            }
            _ => spec.per_layer.iter().map(|(n, u)| (n.as_str(), u.as_str())).collect(),
        };
        if named.len() != list.len() {
            complain(format!(
                "{section}: BENCHMARK.json names {} metrics, the driver {}",
                named.len(),
                list.len()
            ));
        }
        for (name, unit) in list {
            if named.get(name) != Some(unit) {
                complain(format!(
                    "{section}: {name} [{unit}] is not in BENCHMARK.json with that unit"
                ));
            }
        }
    }
    if spec.workloads.iter().map(String::as_str).ne(WORKLOADS.iter().copied()) {
        complain(format!(
            "workloads: BENCHMARK.json has {:?}, the driver {WORKLOADS:?}",
            spec.workloads
        ));
    }
    let runs = load_runs(roots)?;
    for run in &runs {
        if !run.correct {
            complain(format!("{}: run is marked incorrect", run.path.display()));
        }
        for (section, metrics) in &run.sections {
            let expected: Vec<(&String, &String)> = match section.as_str() {
                "end_to_end" => spec.end_to_end.iter().map(|(n, (u, _, _))| (n, u)).collect(),
                _ => spec.per_layer.iter().collect(),
            };
            for (name, unit) in expected {
                match metrics.get(name) {
                    Some((_, got)) if got == unit => {}
                    Some((_, got)) => complain(format!(
                        "{}: {name} has unit {got}, not {unit}",
                        run.path.display()
                    )),
                    None => complain(format!("{}: {name} is missing", run.path.display())),
                }
            }
            if section == "end_to_end" {
                for (name, (value, _)) in metrics {
                    if *value == 0.0 {
                        complain(format!("{}: end-to-end metric {name} is 0", run.path.display()));
                    }
                }
            }
        }
    }
    println!(
        "check: {} result files, {}",
        runs.len(),
        if ok { "all metrics present with their units" } else { "FAILED" }
    );
    Ok(ok)
}

/// workload -> section -> metric -> values over the runs.
type Grouped = BTreeMap<String, BTreeMap<String, BTreeMap<String, Vec<f64>>>>;

fn group(runs: &[Run]) -> Grouped {
    let mut g = Grouped::new();
    for run in runs {
        for (section, metrics) in &run.sections {
            for (name, (value, _)) in metrics {
                g.entry(run.workload.clone())
                    .or_default()
                    .entry(section.clone())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(*value);
            }
        }
    }
    g
}

/// Interquartile range over the median, as the acceptance rule takes it.
fn iqr_share(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, m, q3) = quartiles(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// `vizbench spread DIR...`
pub fn spread(roots: &[String]) -> Result<bool, String> {
    let spec = load_spec()?;
    let runs = load_runs(roots)?;
    let mut ok = true;
    for (workload, sections) in group(&runs) {
        for (section, metrics) in sections {
            println!(
                "\n## {workload} {section} ({} runs)",
                metrics.values().map(Vec::len).max().unwrap_or(0)
            );
            println!(
                "{:<36} {:>14} {:>14} {:>14} {:>9} {:>9}",
                "metric", "median", "q1", "q3", "iqr/med", "range/med"
            );
            for (name, values) in metrics {
                let s = sorted(values.clone());
                let (q1, m, q3) = if s.len() >= 2 { quartiles(&s) } else { (s[0], s[0], s[0]) };
                let range = if m == 0.0 { 0.0 } else { (s[s.len() - 1] - s[0]) / m.abs() };
                let iqr = iqr_share(&s);
                let flag = match spec.end_to_end.get(&name) {
                    Some((_, _, bound)) if name != "setup_s" && iqr > *bound => {
                        ok = false;
                        "  !! wider than its bound"
                    }
                    Some((_, _, bound)) if name != "setup_s" && iqr > bound / 3.0 => {
                        "  ! over a third of its bound"
                    }
                    _ => "",
                };
                println!(
                    "{name:<36} {m:>14.4} {q1:>14.4} {q3:>14.4} {iqr:>9.4} {range:>9.4}{flag}"
                );
            }
        }
    }
    Ok(ok)
}

/// `vizbench compare A B`: B against A, per workload row.
pub fn compare(a: &str, b: &str) -> Result<bool, String> {
    let spec = load_spec()?;
    let runs_a = load_runs(&[a.to_string()])?;
    let runs_b = load_runs(&[b.to_string()])?;
    let (ga, gb) = (group(&runs_a), group(&runs_b));
    let same_seeds = sorted(runs_a.iter().map(|r| r.seed).collect())
        == sorted(runs_b.iter().map(|r| r.seed).collect());
    let mut any_worse = false;
    println!(
        "{:<16} {:<28} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound"
    );
    for (workload, sections) in &ga {
        let empty = BTreeMap::new();
        let other = gb.get(workload).unwrap_or(&empty);
        for (name, (_, lower_better, bound)) in &spec.end_to_end {
            let (Some(va), Some(vb)) = (
                sections.get("end_to_end").and_then(|m| m.get(name)),
                other.get("end_to_end").and_then(|m| m.get(name)),
            ) else {
                continue;
            };
            let (ma, mb) = (median(va.clone()), median(vb.clone()));
            let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
            let worse_by = if *lower_better { change } else { -change };
            let wide = iqr_share(va).max(iqr_share(vb)) > *bound;
            let min_a = va.iter().copied().fold(f64::INFINITY, f64::min);
            let max_a = va.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let all_b_better =
                vb.iter().all(|&v| if *lower_better { v < min_a } else { v > max_a });
            let all_b_worse = vb.iter().all(|&v| if *lower_better { v > max_a } else { v < min_a });
            let verdict = if worse_by > *bound {
                if wide && !all_b_worse {
                    "unresolved"
                } else {
                    "worse"
                }
            } else if worse_by < -*bound {
                if wide && !all_b_better {
                    "unresolved"
                } else {
                    "better"
                }
            } else if wide && !all_b_better {
                "unresolved"
            } else {
                "same"
            };
            any_worse |= verdict == "worse";
            println!(
                "{workload:<16} {name:<28} {ma:>14.4} {mb:>14.4} {:>+8.2}% {:>6.1}%  {verdict}",
                change * 100.0,
                bound * 100.0
            );
        }
        if same_seeds {
            for name in EXACT {
                let (Some(va), Some(vb)) = (
                    sections.get("per_layer").and_then(|m| m.get(*name)),
                    other.get("per_layer").and_then(|m| m.get(*name)),
                ) else {
                    continue;
                };
                if sorted(va.clone()) != sorted(vb.clone()) {
                    any_worse = true;
                    println!("{workload:<16} {name:<28} exact count differs between the sets: {va:?} vs {vb:?}  worse");
                }
            }
        }
    }
    println!(
        "compare: {}",
        if any_worse { "at least one metric is worse" } else { "no metric is worse" }
    );
    Ok(!any_worse)
}
