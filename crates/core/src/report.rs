//! Experiment report helpers: CSV-style tables the bench binaries print,
//! mirroring the rows/series of the paper's figures.

use crate::session::SessionReport;

/// One row of a figure/table: an x-coordinate (sweep parameter) plus one
/// value per strategy series.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Sweep coordinate label (e.g. "5deg", "1024 blocks").
    pub x: String,
    /// `(series name, value)` pairs.
    pub values: Vec<(String, f64)>,
}

/// A printable experiment table.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Table {
    /// Experiment identifier ("fig12a", "table1", ...).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Name of the x column.
    pub x_label: String,
    /// Unit of the values ("miss rate", "seconds", ...).
    pub y_label: String,
    /// Data rows.
    pub rows: Vec<Row>,
}

impl Table {
    /// Create an empty table.
    pub fn new(id: &str, title: &str, x_label: &str, y_label: &str) -> Self {
        Table {
            id: id.to_string(),
            title: title.to_string(),
            x_label: x_label.to_string(),
            y_label: y_label.to_string(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn push(&mut self, x: impl Into<String>, values: Vec<(String, f64)>) {
        self.rows.push(Row { x: x.into(), values });
    }

    /// Series names in first-appearance order.
    pub fn series(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for row in &self.rows {
            for (name, _) in &row.values {
                if !out.iter().any(|n| n == name) {
                    out.push(name.clone());
                }
            }
        }
        out
    }

    /// Value at `(x, series)` if present.
    pub fn get(&self, x: &str, series: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.x == x)?
            .values
            .iter()
            .find(|(n, _)| n == series)
            .map(|(_, v)| *v)
    }

    /// Render as CSV (header + rows). Missing cells are empty.
    pub fn to_csv(&self) -> String {
        let series = self.series();
        let mut out = String::new();
        out.push_str(&self.x_label);
        for s in &series {
            out.push(',');
            out.push_str(s);
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.x);
            for s in &series {
                out.push(',');
                if let Some((_, v)) = row.values.iter().find(|(n, _)| n == s) {
                    out.push_str(&format!("{v:.6}"));
                }
            }
            out.push('\n');
        }
        out
    }

    /// Render as an aligned text table with a title banner, the format the
    /// bench binaries print to stdout.
    pub fn to_text(&self) -> String {
        let series = self.series();
        let mut widths: Vec<usize> = Vec::with_capacity(series.len() + 1);
        widths.push(
            self.rows.iter().map(|r| r.x.len()).chain([self.x_label.len()]).max().unwrap_or(4),
        );
        for s in &series {
            widths.push(s.len().max(10));
        }
        let mut out = format!("== {} [{}] ({}) ==\n", self.title, self.id, self.y_label);
        out.push_str(&format!("{:<w$}", self.x_label, w = widths[0]));
        for (i, s) in series.iter().enumerate() {
            out.push_str(&format!("  {:>w$}", s, w = widths[i + 1]));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&format!("{:<w$}", row.x, w = widths[0]));
            for (i, s) in series.iter().enumerate() {
                let cell = row
                    .values
                    .iter()
                    .find(|(n, _)| n == s)
                    .map(|(_, v)| format!("{v:.4}"))
                    .unwrap_or_default();
                out.push_str(&format!("  {:>w$}", cell, w = widths[i + 1]));
            }
            out.push('\n');
        }
        out
    }
}

/// Pull the metric a figure plots out of a session report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Fast-memory miss rate (Figs. 9, 12, 7a).
    MissRate,
    /// Demand I/O seconds (Fig. 7b).
    IoSeconds,
    /// I/O + prefetch seconds (Fig. 11).
    IoPlusPrefetchSeconds,
    /// Total wall seconds under the overlap rule (Fig. 13).
    TotalSeconds,
}

impl Metric {
    /// Extract the metric value from a report.
    pub fn of(&self, r: &SessionReport) -> f64 {
        match self {
            Metric::MissRate => r.miss_rate,
            Metric::IoSeconds => r.io_s,
            Metric::IoPlusPrefetchSeconds => r.io_s + r.prefetch_s + r.lookup_s,
            Metric::TotalSeconds => r.total_s,
        }
    }

    /// Axis label.
    pub fn label(&self) -> &'static str {
        match self {
            Metric::MissRate => "miss rate",
            Metric::IoSeconds => "I/O time (s)",
            Metric::IoPlusPrefetchSeconds => "I/O + prefetch time (s)",
            Metric::TotalSeconds => "total time (s)",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("fig_x", "Sample", "deg", "miss rate");
        t.push("1", vec![("FIFO".into(), 0.5), ("OPT".into(), 0.1)]);
        t.push("5", vec![("FIFO".into(), 0.6), ("OPT".into(), 0.2)]);
        t
    }

    #[test]
    fn series_discovery_and_get() {
        let t = sample();
        assert_eq!(t.series(), vec!["FIFO".to_string(), "OPT".to_string()]);
        assert_eq!(t.get("5", "OPT"), Some(0.2));
        assert_eq!(t.get("5", "LRU"), None);
        assert_eq!(t.get("9", "OPT"), None);
    }

    #[test]
    fn csv_shape() {
        let csv = sample().to_csv();
        let lines: Vec<&str> = csv.trim_end().split('\n').collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "deg,FIFO,OPT");
        assert!(lines[1].starts_with("1,0.5"));
    }

    #[test]
    fn csv_handles_missing_cells() {
        let mut t = sample();
        t.push("9", vec![("OPT".into(), 0.3)]);
        let csv = t.to_csv();
        let last = csv.trim_end().split('\n').next_back().unwrap();
        assert_eq!(last, "9,,0.300000");
    }

    #[test]
    fn text_render_contains_all_values() {
        let txt = sample().to_text();
        assert!(txt.contains("Sample"));
        assert!(txt.contains("FIFO"));
        assert!(txt.contains("0.6000"));
    }

    #[test]
    fn metric_extraction() {
        let r = SessionReport {
            strategy: "OPT".into(),
            steps: 1,
            accesses: 10,
            misses: 2,
            miss_rate: 0.2,
            io_s: 1.0,
            render_s: 4.0,
            prefetch_s: 0.5,
            lookup_s: 0.25,
            total_s: 5.0,
            per_step: vec![],
        };
        assert_eq!(Metric::MissRate.of(&r), 0.2);
        assert_eq!(Metric::IoSeconds.of(&r), 1.0);
        assert_eq!(Metric::IoPlusPrefetchSeconds.of(&r), 1.75);
        assert_eq!(Metric::TotalSeconds.of(&r), 5.0);
    }
}
