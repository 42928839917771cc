//! Session journaling: persist experiment reports and diff them.
//!
//! Reproduction work lives and dies by "did this change move the numbers?".
//! A journal entry freezes a run's full report plus the knobs that produced
//! it; [`compare`] diffs two entries metric-by-metric with a tolerance so
//! CI (or a human) can spot regressions without eyeballing logs.

use crate::adaptive::AdaptiveSigma;
use crate::session::{
    AppAwareConfig, PredictorKind, RenderModel, SessionConfig, SessionReport, StepMetrics, Strategy,
};
use std::io;
use viz_cache::{PolicyKind, TierCost};
use viz_volume::le::{get, put};

const JRN_MAGIC: &[u8; 4] = b"VJRN";
const JRN_VERSION: u16 = 1;
/// One `StepMetrics` on disk: three `u32`s, five `f64`s and a flag byte.
const STEP_BYTES: usize = 3 * 4 + 5 * 8 + 1;

fn jerr(m: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, m.into())
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put::<u32>(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn get_str(buf: &mut &[u8]) -> io::Result<String> {
    if buf.len() < 4 {
        return Err(jerr("truncated string length"));
    }
    let n = get::<u32>(buf) as usize;
    if buf.len() < n {
        return Err(jerr("truncated string payload"));
    }
    let s = std::str::from_utf8(&buf[..n]).map_err(|e| jerr(format!("bad utf8: {e}")))?.to_string();
    *buf = &buf[n..];
    Ok(s)
}

fn get_f64(buf: &mut &[u8]) -> io::Result<f64> {
    if buf.len() < 8 {
        return Err(jerr("truncated f64"));
    }
    Ok(get::<f64>(buf))
}

fn get_u64(buf: &mut &[u8]) -> io::Result<u64> {
    if buf.len() < 8 {
        return Err(jerr("truncated u64"));
    }
    Ok(get::<u64>(buf))
}

fn get_u32(buf: &mut &[u8]) -> io::Result<u32> {
    if buf.len() < 4 {
        return Err(jerr("truncated u32"));
    }
    Ok(get::<u32>(buf))
}

fn get_u8(buf: &mut &[u8]) -> io::Result<u8> {
    if buf.is_empty() {
        return Err(jerr("truncated u8"));
    }
    Ok(get::<u8>(buf))
}

fn get_bool(buf: &mut &[u8]) -> io::Result<bool> {
    match get_u8(buf)? {
        0 => Ok(false),
        1 => Ok(true),
        b => Err(jerr(format!("bad bool byte {b}"))),
    }
}

/// A frozen experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// Free-form experiment label ("fig12a/5deg", ...).
    pub label: String,
    /// Session configuration used.
    pub config: SessionConfig,
    /// Strategy used.
    pub strategy: Strategy,
    /// The measured report.
    pub report: SessionReport,
}

impl JournalEntry {
    /// Bundle a run into a journal entry.
    pub fn new(
        label: &str,
        config: &SessionConfig,
        strategy: &Strategy,
        report: SessionReport,
    ) -> Self {
        JournalEntry {
            label: label.to_string(),
            config: config.clone(),
            strategy: strategy.clone(),
            report,
        }
    }

    /// Serialize to the framed binary journal format (magic `VJRN`,
    /// version, CRC-32 of the body). Round-trips bit-exactly: floats are
    /// stored as raw IEEE bits.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(256 + self.report.per_step.len() * 64);
        buf.extend_from_slice(JRN_MAGIC);
        put::<u16>(&mut buf, JRN_VERSION);
        let crc_at = buf.len();
        put::<u32>(&mut buf, 0); // crc placeholder, patched below
        put_str(&mut buf, &self.label);
        // SessionConfig.
        let c = &self.config;
        put::<f64>(&mut buf, c.cache_ratio);
        put::<u64>(&mut buf, c.block_bytes as u64);
        put::<f64>(&mut buf, c.render.base_s);
        put::<f64>(&mut buf, c.render.per_block_s);
        put::<f64>(&mut buf, c.lookup_s_per_entry);
        for t in &c.tier_costs {
            put::<f64>(&mut buf, t.latency_s);
            put::<f64>(&mut buf, t.bandwidth_bps);
        }
        match c.frame_deadline_s {
            Some(d) => {
                put::<u8>(&mut buf, 1);
                put::<f64>(&mut buf, d);
            }
            None => put::<u8>(&mut buf, 0),
        }
        // Strategy.
        match &self.strategy {
            Strategy::Baseline(k) => {
                put::<u8>(&mut buf, 0);
                put::<u8>(&mut buf, k.code());
            }
            Strategy::AppAware(a) => {
                put::<u8>(&mut buf, 1);
                put::<f64>(&mut buf, a.sigma);
                put::<u8>(&mut buf, u8::from(a.preload));
                put::<u8>(&mut buf, u8::from(a.prefetch));
                put::<u8>(&mut buf, u8::from(a.overlap));
                match &a.adaptive {
                    Some(ad) => {
                        put::<u8>(&mut buf, 1);
                        put::<f64>(&mut buf, ad.gain);
                        put::<f64>(&mut buf, ad.min_sigma);
                        put::<f64>(&mut buf, ad.max_sigma);
                        put::<f64>(&mut buf, ad.target_ratio);
                    }
                    None => put::<u8>(&mut buf, 0),
                }
                put::<u8>(
                    &mut buf,
                    match a.predictor {
                        PredictorKind::Table => 0,
                        PredictorKind::DeadReckoning => 1,
                    },
                );
            }
        }
        // SessionReport.
        let r = &self.report;
        put_str(&mut buf, &r.strategy);
        put::<u64>(&mut buf, r.steps as u64);
        put::<u64>(&mut buf, r.accesses);
        put::<u64>(&mut buf, r.misses);
        put::<f64>(&mut buf, r.miss_rate);
        put::<f64>(&mut buf, r.io_s);
        put::<f64>(&mut buf, r.render_s);
        put::<f64>(&mut buf, r.prefetch_s);
        put::<f64>(&mut buf, r.lookup_s);
        put::<f64>(&mut buf, r.total_s);
        put::<u64>(&mut buf, r.degraded_steps as u64);
        put::<u32>(&mut buf, r.per_step.len() as u32);
        for s in &r.per_step {
            put::<u32>(&mut buf, s.visible as u32);
            put::<u32>(&mut buf, s.misses as u32);
            put::<f64>(&mut buf, s.io_s);
            put::<f64>(&mut buf, s.render_s);
            put::<f64>(&mut buf, s.prefetch_s);
            put::<f64>(&mut buf, s.lookup_s);
            put::<f64>(&mut buf, s.total_s);
            put::<u32>(&mut buf, s.skipped as u32);
            put::<u8>(&mut buf, u8::from(s.degraded));
        }
        let crc = viz_volume::crc32(&buf[crc_at + 4..]);
        buf[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Parse a buffer produced by [`JournalEntry::to_bytes`].
    pub fn from_bytes(mut buf: &[u8]) -> io::Result<JournalEntry> {
        if buf.len() < 10 {
            return Err(jerr("journal frame too short"));
        }
        let (magic, rest) = buf.split_at(4);
        buf = rest;
        if magic != JRN_MAGIC {
            return Err(jerr("bad journal magic"));
        }
        let version = get::<u16>(&mut buf);
        if version != JRN_VERSION {
            return Err(jerr("unsupported journal version"));
        }
        let want = get::<u32>(&mut buf);
        let got = viz_volume::crc32(buf);
        if got != want {
            return Err(jerr(format!(
                "journal checksum mismatch (stored {want:#010x}, computed {got:#010x})"
            )));
        }
        let label = get_str(&mut buf)?;
        let cache_ratio = get_f64(&mut buf)?;
        let block_bytes = get_u64(&mut buf)? as usize;
        let render = RenderModel { base_s: get_f64(&mut buf)?, per_block_s: get_f64(&mut buf)? };
        let lookup_s_per_entry = get_f64(&mut buf)?;
        let mut tier_costs = [TierCost { latency_s: 0.0, bandwidth_bps: 1.0 }; 3];
        for t in &mut tier_costs {
            t.latency_s = get_f64(&mut buf)?;
            t.bandwidth_bps = get_f64(&mut buf)?;
        }
        let frame_deadline_s = if get_bool(&mut buf)? { Some(get_f64(&mut buf)?) } else { None };
        let config = SessionConfig {
            cache_ratio,
            block_bytes,
            render,
            lookup_s_per_entry,
            tier_costs,
            frame_deadline_s,
        };
        let strategy = match get_u8(&mut buf)? {
            0 => {
                let code = get_u8(&mut buf)?;
                Strategy::Baseline(
                    PolicyKind::from_code(code)
                        .ok_or_else(|| jerr(format!("unknown policy code {code}")))?,
                )
            }
            1 => {
                let sigma = get_f64(&mut buf)?;
                let preload = get_bool(&mut buf)?;
                let prefetch = get_bool(&mut buf)?;
                let overlap = get_bool(&mut buf)?;
                let adaptive = if get_bool(&mut buf)? {
                    Some(AdaptiveSigma {
                        gain: get_f64(&mut buf)?,
                        min_sigma: get_f64(&mut buf)?,
                        max_sigma: get_f64(&mut buf)?,
                        target_ratio: get_f64(&mut buf)?,
                    })
                } else {
                    None
                };
                let predictor = match get_u8(&mut buf)? {
                    0 => PredictorKind::Table,
                    1 => PredictorKind::DeadReckoning,
                    t => return Err(jerr(format!("unknown predictor tag {t}"))),
                };
                Strategy::AppAware(AppAwareConfig {
                    sigma,
                    preload,
                    prefetch,
                    overlap,
                    adaptive,
                    predictor,
                })
            }
            t => return Err(jerr(format!("unknown strategy tag {t}"))),
        };
        let strategy_label = get_str(&mut buf)?;
        let steps = get_u64(&mut buf)? as usize;
        let accesses = get_u64(&mut buf)?;
        let misses = get_u64(&mut buf)?;
        let miss_rate = get_f64(&mut buf)?;
        let io_s = get_f64(&mut buf)?;
        let render_s = get_f64(&mut buf)?;
        let prefetch_s = get_f64(&mut buf)?;
        let lookup_s = get_f64(&mut buf)?;
        let total_s = get_f64(&mut buf)?;
        let degraded_steps = get_u64(&mut buf)? as usize;
        let n = get_u32(&mut buf)? as usize;
        if n > buf.len() / STEP_BYTES {
            return Err(jerr("journal step count exceeds the payload"));
        }
        let mut per_step = Vec::with_capacity(n);
        for _ in 0..n {
            per_step.push(StepMetrics {
                visible: get_u32(&mut buf)? as usize,
                misses: get_u32(&mut buf)? as usize,
                io_s: get_f64(&mut buf)?,
                render_s: get_f64(&mut buf)?,
                prefetch_s: get_f64(&mut buf)?,
                lookup_s: get_f64(&mut buf)?,
                total_s: get_f64(&mut buf)?,
                skipped: get_u32(&mut buf)? as usize,
                degraded: get_bool(&mut buf)?,
            });
        }
        if !buf.is_empty() {
            return Err(jerr("trailing bytes after journal payload"));
        }
        let report = SessionReport {
            strategy: strategy_label,
            steps,
            accesses,
            misses,
            miss_rate,
            io_s,
            render_s,
            prefetch_s,
            lookup_s,
            total_s,
            degraded_steps,
            per_step,
        };
        Ok(JournalEntry { label, config, strategy, report })
    }
}

/// One metric's delta between two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Metric name.
    pub metric: String,
    /// Value in the baseline entry.
    pub baseline: f64,
    /// Value in the candidate entry.
    pub candidate: f64,
    /// `(candidate - baseline) / max(|baseline|, eps)`.
    pub relative: f64,
}

/// Result of comparing two journal entries.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Per-metric deltas (all headline metrics, regressed or not).
    pub deltas: Vec<MetricDelta>,
    /// Metrics whose relative change exceeds the tolerance *for the worse*
    /// (higher miss rate / higher times).
    pub regressions: Vec<String>,
}

impl Comparison {
    /// `true` when nothing regressed beyond tolerance.
    pub fn is_clean(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Headline-metric accessor used by [`compare`]'s metric table.
type MetricFn = fn(&SessionReport) -> f64;

/// Compare `candidate` against `baseline` with a relative tolerance
/// (e.g. 0.05 = 5%). Lower is better for every headline metric.
pub fn compare(baseline: &JournalEntry, candidate: &JournalEntry, tolerance: f64) -> Comparison {
    assert!(tolerance >= 0.0, "tolerance must be non-negative");
    let metrics: [(&str, MetricFn); 5] = [
        ("miss_rate", |r| r.miss_rate),
        ("io_s", |r| r.io_s),
        ("prefetch_s", |r| r.prefetch_s),
        ("lookup_s", |r| r.lookup_s),
        ("total_s", |r| r.total_s),
    ];
    let mut deltas = Vec::with_capacity(metrics.len());
    let mut regressions = Vec::new();
    for (name, get) in metrics {
        let b = get(&baseline.report);
        let c = get(&candidate.report);
        let relative = (c - b) / b.abs().max(1e-12);
        if relative > tolerance {
            regressions.push(name.to_string());
        }
        deltas.push(MetricDelta { metric: name.to_string(), baseline: b, candidate: c, relative });
    }
    Comparison { deltas, regressions }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{run_session, SessionConfig, Strategy};
    use viz_cache::PolicyKind;
    use viz_geom::angle::deg_to_rad;
    use viz_geom::{CameraPath, ExplorationDomain, SphericalPath, Vec3};
    use viz_volume::{BrickLayout, Dims3};

    fn run_once(deg: f64) -> JournalEntry {
        // 216 blocks / 54-block DRAM: large enough that small steps hit.
        let layout = BrickLayout::new(Dims3::cube(48), Dims3::cube(8));
        let dom = ExplorationDomain::new(Vec3::ZERO, 2.0, 3.2);
        let poses = SphericalPath::new(dom, 2.5, deg, deg_to_rad(15.0)).generate(60);
        let cfg = SessionConfig::paper(0.5, layout.nominal_block_bytes());
        let strategy = Strategy::Baseline(PolicyKind::Lru);
        let report = run_session(&cfg, &layout, &strategy, &poses, None);
        JournalEntry::new(&format!("test/{deg}deg"), &cfg, &strategy, report)
    }

    #[test]
    fn binary_roundtrip_is_bit_exact() {
        let entry = run_once(5.0);
        let back = JournalEntry::from_bytes(&entry.to_bytes()).unwrap();
        assert_eq!(back, entry);
    }

    #[test]
    fn binary_roundtrip_covers_appaware_strategy() {
        use crate::adaptive::AdaptiveSigma;
        use crate::session::{AppAwareConfig, PredictorKind, Strategy};
        let mut entry = run_once(5.0);
        entry.strategy = Strategy::AppAware(AppAwareConfig {
            sigma: 1.5,
            preload: true,
            prefetch: true,
            overlap: false,
            adaptive: Some(AdaptiveSigma {
                gain: 0.25,
                min_sigma: 0.0,
                max_sigma: 6.0,
                target_ratio: 0.9,
            }),
            predictor: PredictorKind::DeadReckoning,
        });
        entry.config.frame_deadline_s = Some(0.02);
        let back = JournalEntry::from_bytes(&entry.to_bytes()).unwrap();
        assert_eq!(back, entry);
    }

    #[test]
    fn binary_corruption_rejected() {
        let entry = run_once(5.0);
        let buf = entry.to_bytes();
        // Magic.
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(JournalEntry::from_bytes(&bad).is_err());
        // Version.
        let mut bad = buf.clone();
        bad[4] = 9;
        assert!(JournalEntry::from_bytes(&bad).is_err());
        // Bit rot anywhere in the body trips the checksum.
        let mut rotted = buf.clone();
        let at = buf.len() / 2;
        rotted[at] ^= 0x40;
        let e = JournalEntry::from_bytes(&rotted).unwrap_err();
        assert!(e.to_string().contains("checksum"), "got: {e}");
        // Truncation.
        for cut in [2usize, 9, 40, buf.len() - 1] {
            assert!(JournalEntry::from_bytes(&buf[..cut]).is_err(), "cut at {cut} decoded");
        }
        // Trailing garbage.
        let mut long = buf;
        long.push(0);
        assert!(JournalEntry::from_bytes(&long).is_err());
    }

    /// A CRC catches corruption, not a lie: an entry with a correct
    /// checksum whose step count the payload cannot hold must be refused
    /// before anything is sized from it.
    #[test]
    fn crafted_step_count_is_invalid_data_not_an_abort() {
        let entry = run_once(5.0);
        let mut buf = entry.to_bytes();
        let at = buf.len() - entry.report.per_step.len() * STEP_BYTES - 4;
        assert_eq!(get::<u32>(&mut &buf[at..]) as usize, entry.report.per_step.len());
        buf[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let crc = viz_volume::crc32(&buf[10..]);
        buf[6..10].copy_from_slice(&crc.to_le_bytes());
        let e = JournalEntry::from_bytes(&buf).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
    }

    #[test]
    fn identical_runs_compare_clean() {
        let a = run_once(5.0);
        let b = run_once(5.0);
        let cmp = compare(&a, &b, 0.01);
        assert!(cmp.is_clean(), "regressions: {:?}", cmp.regressions);
        for d in &cmp.deltas {
            assert_eq!(d.relative, 0.0, "{} drifted", d.metric);
        }
    }

    /// A journal entry with hand-set metrics (tests the comparator itself,
    /// independent of simulator behaviour).
    fn synthetic(miss: f64, io: f64, total: f64) -> JournalEntry {
        let mut e = run_once(5.0);
        e.report.miss_rate = miss;
        e.report.io_s = io;
        e.report.total_s = total;
        e
    }

    #[test]
    fn worse_run_is_flagged() {
        let good = synthetic(0.05, 1.0, 10.0);
        let bad = synthetic(0.20, 4.0, 15.0);
        let cmp = compare(&good, &bad, 0.05);
        assert!(!cmp.is_clean());
        assert!(cmp.regressions.contains(&"miss_rate".to_string()));
        assert!(cmp.regressions.contains(&"io_s".to_string()));
        assert!(cmp.regressions.contains(&"total_s".to_string()));
    }

    #[test]
    fn improvement_is_not_a_regression() {
        let bad = synthetic(0.20, 4.0, 15.0);
        let good = synthetic(0.05, 1.0, 10.0);
        let cmp = compare(&bad, &good, 0.05);
        assert!(cmp.is_clean(), "improvements flagged: {:?}", cmp.regressions);
    }

    #[test]
    fn tolerance_suppresses_noise() {
        let a = run_once(5.0);
        let mut b = run_once(5.0);
        // Nudge io_s by 1%.
        b.report.io_s *= 1.01;
        assert!(compare(&a, &b, 0.05).is_clean());
        assert!(!compare(&a, &b, 0.001).is_clean());
    }
}
