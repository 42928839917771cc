//! Drained-trace container and the three exporters: Chrome trace-event
//! JSON (Perfetto-loadable), Prometheus-style text exposition, and a
//! per-run summary JSON. All output is hand-assembled so the crate stays
//! dependency-free; [`json::validate`] gives tests an offline syntax
//! check.

use crate::event::{EventKind, TraceEvent, KIND_COUNT};
use crate::hist::LogHistogram;
use std::fmt::Write as _;

/// A drained, time-sorted snapshot of every per-thread ring.
#[derive(Clone, Default)]
pub struct Trace {
    /// Events sorted by `(t_ns, tid)`.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring overflow since the previous drain.
    pub dropped: u64,
}

impl Trace {
    /// Number of events of `kind`.
    pub fn count(&self, kind: EventKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }

    /// Duration histogram over the span events of `kind` (empty for
    /// instants).
    pub fn histogram(&self, kind: EventKind) -> LogHistogram {
        let mut h = LogHistogram::new();
        for e in self.events.iter().filter(|e| e.kind == kind && e.kind.is_span()) {
            h.record(e.dur_ns);
        }
        h
    }

    /// Chrome trace-event JSON: an object with a `traceEvents` array,
    /// loadable in Perfetto / `chrome://tracing`. Spans become complete
    /// (`"X"`) events, instants become thread-scoped (`"i"`) events;
    /// timestamps are microseconds with nanosecond precision kept as three
    /// decimals.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 128);
        out.push_str("{\"traceEvents\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_chrome_event(&mut out, e, 1, 0);
        }
        let _ = write!(out, "],\"otherData\":{{\"dropped\":{}}}}}", self.dropped);
        out
    }

    /// Per-run summary JSON: per-kind counts and duration percentiles.
    pub fn summary_json(&self) -> String {
        let mut counts = [0u64; KIND_COUNT];
        let mut hists: Vec<LogHistogram> = (0..KIND_COUNT).map(|_| LogHistogram::new()).collect();
        for e in &self.events {
            let i = e.kind as usize;
            counts[i] += 1;
            if e.kind.is_span() {
                hists[i].record(e.dur_ns);
            }
        }
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"events\":{},\"dropped\":{},\"kinds\":{{",
            self.events.len(),
            self.dropped
        );
        let mut first = true;
        for kind in EventKind::ALL {
            let i = kind as usize;
            if counts[i] == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\"{}\":{{\"count\":{}", kind.label(), counts[i]);
            if kind.is_span() {
                let h = &hists[i];
                let _ = write!(
                    out,
                    ",\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\"max_ns\":{},\"sum_ns\":{}",
                    h.percentile(0.50),
                    h.percentile(0.90),
                    h.percentile(0.99),
                    h.max(),
                    h.sum()
                );
            }
            out.push('}');
        }
        out.push_str("}}");
        out
    }

    /// Prometheus-style exposition of this trace's per-kind counts and
    /// span histograms, with `extra` appended as additional
    /// `viz_counter_total` samples (e.g. the engine's counter pairs).
    pub fn prometheus_text(&self, extra: &[(&str, u64)]) -> String {
        let mut counters: Vec<(&str, u64)> = Vec::new();
        let mut hists: Vec<(&str, LogHistogram)> = Vec::new();
        for kind in EventKind::ALL {
            let n = self.count(kind);
            if n == 0 {
                continue;
            }
            counters.push((kind.label(), n as u64));
            if kind.is_span() {
                hists.push((kind.label(), self.histogram(kind)));
            }
        }
        counters.extend_from_slice(extra);
        let hist_refs: Vec<(&str, &LogHistogram)> = hists.iter().map(|(n, h)| (*n, h)).collect();
        let mut out = prometheus_text(&counters, &hist_refs);
        out.push_str(&gate_prometheus_text());
        out
    }
}

/// The always-present self-diagnostics exposition: the telemetry gate
/// state and the cumulative ring-overflow drop count, so a scraper can
/// tell silent event loss from a quiet system.
pub(crate) fn gate_prometheus_text() -> String {
    let mut out = String::new();
    out.push_str("# HELP viz_telemetry_gate Event recording gate (1 on, 0 off).\n");
    out.push_str("# TYPE viz_telemetry_gate gauge\n");
    let _ = writeln!(out, "viz_telemetry_gate {}", u64::from(crate::enabled()));
    out.push_str("# HELP viz_telemetry_ring_dropped_total Events lost to ring overflow since process start.\n");
    out.push_str("# TYPE viz_telemetry_ring_dropped_total counter\n");
    let _ = writeln!(out, "viz_telemetry_ring_dropped_total {}", crate::dropped_total());
    out
}

/// Write one event as a Chrome trace-event object under process `pid`,
/// with `offset_ns` added to its timestamp (clock alignment when merging
/// nodes). Shared by [`Trace::chrome_trace_json`] (pid 1, no offset) and
/// the cluster aggregator ([`crate::collect`]).
pub(crate) fn write_chrome_event(out: &mut String, e: &TraceEvent, pid: u32, offset_ns: i64) {
    let t_ns = e.t_ns.saturating_add_signed(offset_ns);
    out.push_str("{\"name\":\"");
    json::escape_into(e.kind.label(), out);
    out.push_str("\",\"cat\":\"");
    json::escape_into(e.kind.category(), out);
    let _ = write!(
        out,
        "\",\"pid\":{},\"tid\":{},\"ts\":{}.{:03}",
        pid,
        e.tid,
        t_ns / 1_000,
        t_ns % 1_000
    );
    if e.kind.is_span() {
        let _ = write!(out, ",\"ph\":\"X\",\"dur\":{}.{:03}", e.dur_ns / 1_000, e.dur_ns % 1_000);
    } else {
        out.push_str(",\"ph\":\"i\",\"s\":\"t\"");
    }
    let _ = write!(out, ",\"args\":{{\"key\":\"{:#x}\",\"arg\":{}", e.key, e.arg);
    if e.trace != 0 {
        let _ = write!(out, ",\"trace\":\"{:#x}\"", e.trace);
    }
    if e.node != 0 {
        let _ = write!(out, ",\"node\":{}", e.node - 1);
    }
    out.push_str("}}");
}

/// Prometheus text exposition (format 0.0.4) for a set of named counters
/// and histograms: one `viz_counter_total` family plus one
/// `viz_span_duration_ns` histogram family with cumulative buckets.
pub fn prometheus_text(counters: &[(&str, u64)], hists: &[(&str, &LogHistogram)]) -> String {
    let mut out = String::new();
    if !counters.is_empty() {
        out.push_str("# HELP viz_counter_total Event and engine counters.\n");
        out.push_str("# TYPE viz_counter_total counter\n");
        for (name, v) in counters {
            let _ = writeln!(out, "viz_counter_total{{name=\"{name}\"}} {v}");
        }
    }
    if !hists.is_empty() {
        out.push_str("# HELP viz_span_duration_ns Span durations in nanoseconds.\n");
        out.push_str("# TYPE viz_span_duration_ns histogram\n");
        for (name, h) in hists {
            let mut cum = 0u64;
            for (bound, count) in h.buckets() {
                cum += count;
                let _ = writeln!(
                    out,
                    "viz_span_duration_ns_bucket{{span=\"{name}\",le=\"{bound}\"}} {cum}"
                );
            }
            let _ = writeln!(
                out,
                "viz_span_duration_ns_bucket{{span=\"{name}\",le=\"+Inf\"}} {}",
                h.count()
            );
            let _ = writeln!(out, "viz_span_duration_ns_sum{{span=\"{name}\"}} {}", h.sum());
            let _ = writeln!(out, "viz_span_duration_ns_count{{span=\"{name}\"}} {}", h.count());
        }
    }
    out
}

/// Minimal recursive-descent JSON *syntax* checker, so tests can
/// validate exporter output without a JSON library. Accepts
/// exactly the RFC 8259 grammar; reports the byte offset of the first
/// error.
pub mod json {
    /// Append `s` to `out` as the body of a JSON string (no surrounding
    /// quotes), escaping quotes, backslashes, and control characters per
    /// RFC 8259.
    pub(crate) fn escape_into(s: &str, out: &mut String) {
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\u{08}' => out.push_str("\\b"),
                '\u{0C}' => out.push_str("\\f"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
    }

    /// Escape `s` as the body of a JSON string (no surrounding quotes),
    /// returning a fresh `String`.
    pub fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        escape_into(s, &mut out);
        out
    }

    /// Validate that `s` is one complete JSON value.
    pub fn validate(s: &str) -> Result<(), String> {
        let b = s.as_bytes();
        let mut pos = 0usize;
        skip_ws(b, &mut pos);
        value(b, &mut pos)?;
        skip_ws(b, &mut pos);
        if pos != b.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(())
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn value(b: &[u8], pos: &mut usize) -> Result<(), String> {
        match b.get(*pos) {
            Some(b'{') => object(b, pos),
            Some(b'[') => array(b, pos),
            Some(b'"') => string(b, pos),
            Some(b't') => literal(b, pos, b"true"),
            Some(b'f') => literal(b, pos, b"false"),
            Some(b'n') => literal(b, pos, b"null"),
            Some(c) if *c == b'-' || c.is_ascii_digit() => number(b, pos),
            Some(c) => Err(format!("unexpected byte {c:#04x} at {pos}", pos = *pos)),
            None => Err(format!("unexpected end of input at byte {pos}", pos = *pos)),
        }
    }

    fn literal(b: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), String> {
        if b.len() >= *pos + lit.len() && &b[*pos..*pos + lit.len()] == lit {
            *pos += lit.len();
            Ok(())
        } else {
            Err(format!("bad literal at byte {pos}", pos = *pos))
        }
    }

    fn object(b: &[u8], pos: &mut usize) -> Result<(), String> {
        *pos += 1; // '{'
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(());
        }
        loop {
            skip_ws(b, pos);
            if b.get(*pos) != Some(&b'"') {
                return Err(format!("expected object key at byte {pos}", pos = *pos));
            }
            string(b, pos)?;
            skip_ws(b, pos);
            if b.get(*pos) != Some(&b':') {
                return Err(format!("expected ':' at byte {pos}", pos = *pos));
            }
            *pos += 1;
            skip_ws(b, pos);
            value(b, pos)?;
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
            }
        }
    }

    fn array(b: &[u8], pos: &mut usize) -> Result<(), String> {
        *pos += 1; // '['
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(());
        }
        loop {
            skip_ws(b, pos);
            value(b, pos)?;
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
            }
        }
    }

    fn string(b: &[u8], pos: &mut usize) -> Result<(), String> {
        *pos += 1; // '"'
        while let Some(&c) = b.get(*pos) {
            match c {
                b'"' => {
                    *pos += 1;
                    return Ok(());
                }
                b'\\' => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                        Some(b'u') => {
                            *pos += 1;
                            for _ in 0..4 {
                                match b.get(*pos) {
                                    Some(h) if h.is_ascii_hexdigit() => *pos += 1,
                                    _ => {
                                        return Err(format!(
                                            "bad \\u escape at byte {pos}",
                                            pos = *pos
                                        ))
                                    }
                                }
                            }
                        }
                        _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                    }
                }
                0x00..=0x1F => {
                    return Err(format!("raw control byte in string at {pos}", pos = *pos))
                }
                _ => *pos += 1,
            }
        }
        Err("unterminated string".to_string())
    }

    fn number(b: &[u8], pos: &mut usize) -> Result<(), String> {
        if b.get(*pos) == Some(&b'-') {
            *pos += 1;
        }
        match b.get(*pos) {
            Some(b'0') => *pos += 1,
            Some(c) if c.is_ascii_digit() => {
                while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
                    *pos += 1;
                }
            }
            _ => return Err(format!("bad number at byte {pos}", pos = *pos)),
        }
        if b.get(*pos) == Some(&b'.') {
            *pos += 1;
            if !matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
                return Err(format!("bad fraction at byte {pos}", pos = *pos));
            }
            while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
                *pos += 1;
            }
        }
        if matches!(b.get(*pos), Some(b'e' | b'E')) {
            *pos += 1;
            if matches!(b.get(*pos), Some(b'+' | b'-')) {
                *pos += 1;
            }
            if !matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
                return Err(format!("bad exponent at byte {pos}", pos = *pos));
            }
            while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
                *pos += 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: EventKind, t_ns: u64, dur_ns: u64) -> TraceEvent {
        TraceEvent { t_ns, dur_ns, key: 0xAB, arg: 3, trace: 0xDEAD, kind, tid: 2, node: 3 }
    }

    fn sample_trace() -> Trace {
        Trace {
            events: vec![
                span(EventKind::FetchAdmitDemand, 10, 0),
                span(EventKind::SourceRead, 20, 1_500),
                span(EventKind::SourceRead, 40, 2_500),
                span(EventKind::CacheEvict, 50, 0),
                span(EventKind::Frame, 60, 1_000_000),
            ],
            dropped: 2,
        }
    }

    #[test]
    fn chrome_trace_is_valid_json_with_expected_phases() {
        let t = sample_trace();
        let j = t.chrome_trace_json();
        json::validate(&j).expect("chrome trace must be valid JSON");
        assert!(j.contains("\"traceEvents\""));
        assert!(j.contains("\"ph\":\"X\""), "span events present");
        assert!(j.contains("\"ph\":\"i\""), "instant events present");
        assert!(j.contains("\"name\":\"source_read\""));
        assert!(j.contains("\"cat\":\"cache\""));
        assert!(j.contains("\"dropped\":2"));
        // 1500 ns -> 1.500 us
        assert!(j.contains("\"dur\":1.500"), "ns precision kept: {j}");
        // Trace/node attribution lands in args (node shown as NodeId).
        assert!(j.contains("\"trace\":\"0xdead\""), "trace id in args: {j}");
        assert!(j.contains("\"node\":2"), "node id in args: {j}");
    }

    #[test]
    fn empty_trace_exports_cleanly() {
        let t = Trace::default();
        json::validate(&t.chrome_trace_json()).unwrap();
        json::validate(&t.summary_json()).unwrap();
        // Even an empty trace exposes the gate and drop diagnostics.
        let p = t.prometheus_text(&[]);
        assert!(p.contains("viz_telemetry_gate "));
        assert!(p.contains("viz_telemetry_ring_dropped_total "));
        assert!(!p.contains("viz_counter_total"));
    }

    #[test]
    fn json_escape_handles_hostile_names() {
        assert_eq!(json::escape("plain"), "plain");
        assert_eq!(json::escape("q\"q"), "q\\\"q");
        assert_eq!(json::escape("b\\b"), "b\\\\b");
        assert_eq!(json::escape("n\nn\tt\rr"), "n\\nn\\tt\\rr");
        assert_eq!(json::escape("\u{08}\u{0c}\u{01}\u{1f}"), "\\b\\f\\u0001\\u001f");
        // Escaped output embeds into a valid JSON document.
        for hostile in ["a\"b\\c", "ctl\u{01}\u{02}", "nl\nnl", "\\u0000 literal", "\""] {
            let doc = format!("{{\"name\":\"{}\"}}", json::escape(hostile));
            json::validate(&doc).unwrap_or_else(|e| panic!("{hostile:?}: {e}"));
        }
    }

    #[test]
    fn chrome_event_writer_escapes_and_aligns() {
        let e = span(EventKind::SourceRead, 10_000, 500);
        let mut out = String::new();
        write_chrome_event(&mut out, &e, 7, 2_000);
        json::validate(&out).unwrap();
        assert!(out.contains("\"pid\":7"));
        assert!(out.contains("\"ts\":12.000"), "offset applied: {out}");
        let mut neg = String::new();
        write_chrome_event(&mut neg, &e, 7, -4_000);
        assert!(neg.contains("\"ts\":6.000"), "negative offset applied: {neg}");
        let mut clamped = String::new();
        write_chrome_event(&mut clamped, &e, 7, -100_000);
        assert!(clamped.contains("\"ts\":0.000"), "clamps at zero: {clamped}");
    }

    #[test]
    fn summary_aggregates_per_kind() {
        let t = sample_trace();
        let s = t.summary_json();
        json::validate(&s).expect("summary must be valid JSON");
        assert!(s.contains("\"events\":5"));
        assert!(s.contains("\"source_read\":{\"count\":2"));
        assert!(s.contains("\"p50_ns\""));
        assert!(!s.contains("fetch_retry"), "absent kinds are omitted");
        // Instants have no percentile fields.
        assert!(s.contains("\"cache_evict\":{\"count\":1}"));
    }

    #[test]
    fn prometheus_exposition_shape() {
        let t = sample_trace();
        let p = t.prometheus_text(&[("demand_requests", 7)]);
        assert!(p.contains("# TYPE viz_counter_total counter\n"));
        assert!(p.contains("viz_counter_total{name=\"source_read\"} 2\n"));
        assert!(p.contains("viz_counter_total{name=\"demand_requests\"} 7\n"));
        assert!(p.contains("# TYPE viz_span_duration_ns histogram\n"));
        assert!(p.contains("viz_span_duration_ns_bucket{span=\"source_read\",le=\"+Inf\"} 2\n"));
        assert!(p.contains("viz_span_duration_ns_sum{span=\"source_read\"} 4000\n"));
        assert!(p.contains("viz_span_duration_ns_count{span=\"frame\"} 1\n"));
        // Cumulative bucket counts end at the total.
        let last_bucket = p
            .lines()
            .rfind(|l| l.starts_with("viz_span_duration_ns_bucket{span=\"source_read\""))
            .unwrap();
        assert!(last_bucket.ends_with(" 2"));
    }

    #[test]
    fn count_and_histogram_helpers() {
        let t = sample_trace();
        assert_eq!(t.count(EventKind::SourceRead), 2);
        assert_eq!(t.count(EventKind::FetchRetry), 0);
        let h = t.histogram(EventKind::SourceRead);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 1_500);
        assert_eq!(h.max(), 2_500);
        // Instant kinds yield empty histograms.
        assert_eq!(t.histogram(EventKind::CacheEvict).count(), 0);
    }

    #[test]
    fn json_validator_accepts_and_rejects() {
        for good in [
            "null",
            "true",
            "-12.5e+3",
            "\"a\\u00e9\\n\"",
            "[]",
            "{}",
            "[1,2,[3,{\"k\":null}]]",
            "{\"a\":{\"b\":[1.0,2]},\"c\":\"\"}",
            "  { \"x\" : 0 }  ",
        ] {
            json::validate(good).unwrap_or_else(|e| panic!("{good}: {e}"));
        }
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "{a:1}",
            "01",
            "1.",
            "1e",
            "\"unterminated",
            "tru",
            "[1] trailing",
            "\"bad\\q\"",
        ] {
            assert!(json::validate(bad).is_err(), "accepted invalid JSON: {bad}");
        }
    }
}
