//! Cluster observability glue: the scrape plane's wire→collector
//! conversion and the CRC-framed flight-dump file.
//!
//! The scrape path: [`crate::Router::scrape`] issues one `TelemetryGet`
//! per reachable node, [`drain_from_wire`] turns each reply into a
//! [`NodeDrain`], and `viz_telemetry::collect` merges the drains into
//! one Perfetto trace / Prometheus rollup.
//!
//! The dump path: when a flight-recorder trigger fires (demand error,
//! deadline-miss burst, breaker open, SLO burn), the harness captures
//! the recorder's recent history — which, in an in-process cluster,
//! already holds every node's events, split by each event's `node`
//! attribution — and [`write_flight_dump`] serializes it into a
//! length-prefixed, CRC-framed file [`read_flight_dump`] can
//! reconstruct.

use crate::shard::NodeId;
use std::collections::BTreeMap;
use std::io::{self, Read as _, Write as _};
use std::path::Path;
use viz_serve::WireTelemetry;
use viz_telemetry::collect::NodeDrain;
use viz_telemetry::flight::{FlightSnapshot, Trigger, TriggerKind};
use viz_telemetry::{EventKind, LogHistogram, TraceEvent};
use viz_volume::crc32;

/// Convert `node`'s `TelemetryGet` reply into a collector drain,
/// aligned onto the collector's timeline by `clock_offset_ns` (from an
/// RTT-midpoint estimate, [`viz_telemetry::collect::offset_from_rtt`]).
pub(crate) fn drain_from_wire(node: NodeId, w: &WireTelemetry, clock_offset_ns: i64) -> NodeDrain {
    let hists = w
        .hists
        .iter()
        .map(|h| (h.kind, LogHistogram::from_sparse(&h.pairs, h.count, h.sum, h.min, h.max)))
        .collect();
    NodeDrain {
        node: node.0,
        events: w.events.clone(),
        dropped: w.dropped,
        clock_offset_ns,
        counters: w.counters.clone(),
        hists,
    }
}

/// One node's slice of a flight dump. `node` follows the event
/// attribution convention: 0 is the router/client, `NodeId + 1` a
/// cluster node.
#[derive(Clone, Default)]
pub struct DumpSection {
    /// Attribution id (see type docs).
    pub node: u32,
    /// Cumulative ring-overflow drops on that node.
    pub dropped: u64,
    /// Flight triggers pending on that node when the dump was cut.
    pub triggers: Vec<Trigger>,
    /// The node's recent-history window, time-sorted.
    pub events: Vec<TraceEvent>,
}

/// Split a process-wide [`FlightSnapshot`] into per-node dump sections
/// by each event's `node` attribution — the in-process cluster's dump
/// shape, where one flight recorder saw every node's drains. Triggers
/// ride with the section of the event that fired them (by subject key
/// match), defaulting to section 0.
pub(crate) fn sections_from_snapshot(snap: &FlightSnapshot) -> Vec<DumpSection> {
    let mut by_node: BTreeMap<u32, DumpSection> = BTreeMap::new();
    for e in &snap.events {
        let s = by_node
            .entry(u32::from(e.node))
            .or_insert_with(|| DumpSection { node: u32::from(e.node), ..DumpSection::default() });
        s.events.push(*e);
    }
    for t in &snap.triggers {
        let node = snap
            .events
            .iter()
            .find(|e| e.key == t.key && e.t_ns == t.t_ns)
            .map_or(0, |e| u32::from(e.node));
        by_node
            .entry(node)
            .or_insert_with(|| DumpSection { node, ..DumpSection::default() })
            .triggers
            .push(*t);
    }
    let mut sections: Vec<DumpSection> = by_node.into_values().collect();
    if let Some(first) = sections.first_mut() {
        first.dropped = snap.dropped;
    }
    sections
}

const DUMP_MAGIC: [u8; 4] = *b"VFDR";
const DUMP_VERSION: u16 = 2;
const EVENT_BYTES: usize = 45;
const TRIGGER_BYTES: usize = 17;
/// The smallest section on disk: its `[len][crc]` frame header around
/// node, dropped, and the two zero counts.
const SECTION_MIN_BYTES: usize = 8 + 20;

fn put_event(out: &mut Vec<u8>, e: &TraceEvent) {
    out.extend_from_slice(&e.t_ns.to_le_bytes());
    out.extend_from_slice(&e.dur_ns.to_le_bytes());
    out.extend_from_slice(&e.key.to_le_bytes());
    out.extend_from_slice(&e.arg.to_le_bytes());
    out.extend_from_slice(&e.trace.to_le_bytes());
    out.push(e.kind as u8);
    out.extend_from_slice(&e.tid.to_le_bytes());
    out.extend_from_slice(&e.node.to_le_bytes());
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut f = Vec::with_capacity(8 + payload.len());
    f.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    f.extend_from_slice(&crc32(payload).to_le_bytes());
    f.extend_from_slice(payload);
    f
}

/// Serialize `sections` to `path` as a sequence of CRC-framed chunks
/// (header frame, then one frame per section). Emits one
/// [`EventKind::FlightDump`] instant — key = the first pending
/// trigger's wire code (0 if none), arg = total events written — so the
/// dump itself lands on the timeline. Returns total events written.
pub(crate) fn write_flight_dump(path: &Path, sections: &[DumpSection]) -> io::Result<u64> {
    let mut total = 0u64;
    let mut out = Vec::new();
    let mut header = Vec::with_capacity(10);
    header.extend_from_slice(&DUMP_MAGIC);
    header.extend_from_slice(&DUMP_VERSION.to_le_bytes());
    header.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    out.extend_from_slice(&frame(&header));
    for s in sections {
        let mut p = Vec::with_capacity(24 + s.events.len() * EVENT_BYTES);
        p.extend_from_slice(&s.node.to_le_bytes());
        p.extend_from_slice(&s.dropped.to_le_bytes());
        p.extend_from_slice(&(s.triggers.len() as u32).to_le_bytes());
        for t in &s.triggers {
            p.push(t.kind.code());
            p.extend_from_slice(&t.t_ns.to_le_bytes());
            p.extend_from_slice(&t.key.to_le_bytes());
        }
        p.extend_from_slice(&(s.events.len() as u32).to_le_bytes());
        for e in &s.events {
            put_event(&mut p, e);
        }
        total += s.events.len() as u64;
        out.extend_from_slice(&frame(&p));
    }
    std::fs::File::create(path)?.write_all(&out)?;
    let first = sections.iter().find_map(|s| s.triggers.first()).map_or(0, |t| t.kind.code());
    viz_telemetry::instant(EventKind::FlightDump, u64::from(first), total);
    Ok(total)
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.buf.len() - self.at < n {
            return Err(bad("flight dump truncated"));
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> io::Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn next_frame(&mut self) -> io::Result<&'a [u8]> {
        let len = self.u32()? as usize;
        let want = self.u32()?;
        let payload = self.take(len)?;
        if crc32(payload) != want {
            return Err(bad("flight dump frame checksum mismatch"));
        }
        Ok(payload)
    }
}

/// Read a dump written by [`crate::chaos::run_plan`], validating every
/// frame's CRC, the magic/version, and each event's kind code.
pub fn read_flight_dump(path: &Path) -> io::Result<Vec<DumpSection>> {
    let mut buf = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut buf)?;
    let mut cur = Cursor { buf: &buf, at: 0 };
    let header = cur.next_frame()?;
    let mut h = Cursor { buf: header, at: 0 };
    if h.take(4)? != DUMP_MAGIC {
        return Err(bad("not a flight dump (bad magic)"));
    }
    if h.u16()? != DUMP_VERSION {
        return Err(bad("unsupported flight dump version"));
    }
    let n = h.u32()? as usize;
    if n > (buf.len() - cur.at) / SECTION_MIN_BYTES {
        return Err(bad("flight dump truncated"));
    }
    let mut sections = Vec::with_capacity(n);
    for _ in 0..n {
        let payload = cur.next_frame()?;
        let mut c = Cursor { buf: payload, at: 0 };
        let node = c.u32()?;
        let dropped = c.u64()?;
        let nt = c.u32()? as usize;
        if payload.len() < 16 + nt * TRIGGER_BYTES {
            return Err(bad("flight dump truncated"));
        }
        let mut triggers = Vec::with_capacity(nt);
        for _ in 0..nt {
            let code = c.u8()?;
            let kind = TriggerKind::from_code(code)
                .ok_or_else(|| bad("flight dump: unknown trigger kind"))?;
            triggers.push(Trigger { kind, t_ns: c.u64()?, key: c.u64()? });
        }
        let ne = c.u32()? as usize;
        if payload.len() - c.at < ne * EVENT_BYTES {
            return Err(bad("flight dump truncated"));
        }
        let mut events = Vec::with_capacity(ne);
        for _ in 0..ne {
            let (t_ns, dur_ns, key, arg, trace) =
                (c.u64()?, c.u64()?, c.u64()?, c.u64()?, c.u64()?);
            let code = c.u8()?;
            let kind = *EventKind::ALL
                .get(code as usize)
                .ok_or_else(|| bad("flight dump: unknown event kind"))?;
            events.push(TraceEvent {
                t_ns,
                dur_ns,
                key,
                arg,
                trace,
                kind,
                tid: c.u16()?,
                node: c.u16()?,
            });
        }
        sections.push(DumpSection { node, dropped, triggers, events });
    }
    Ok(sections)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, t_ns: u64, key: u64, node: u16) -> TraceEvent {
        TraceEvent { t_ns, dur_ns: 7, key, arg: 3, trace: 0x51, kind, tid: 2, node }
    }

    #[test]
    fn dump_roundtrips_bit_exact() {
        let dir = std::env::temp_dir().join("viz-obs-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.vfdr");
        let sections = vec![
            DumpSection {
                node: 0,
                dropped: 5,
                triggers: vec![Trigger { kind: TriggerKind::BreakerOpen, t_ns: 9, key: 2 }],
                events: vec![ev(EventKind::RouterFetch, 1, 0xA, 0)],
            },
            DumpSection {
                node: 2,
                dropped: 0,
                triggers: vec![],
                events: vec![
                    ev(EventKind::FaultInjected, 2, 1, 2),
                    ev(EventKind::RpcServe, 3, 0xA, 2),
                ],
            },
        ];
        let written = write_flight_dump(&path, &sections).unwrap();
        assert_eq!(written, 3);
        let back = read_flight_dump(&path).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].node, 0);
        assert_eq!(back[0].dropped, 5);
        assert_eq!(back[0].triggers.len(), 1);
        assert_eq!(back[0].triggers[0].kind, TriggerKind::BreakerOpen);
        assert_eq!(back[1].events.len(), 2);
        assert_eq!(back[1].events[0].kind, EventKind::FaultInjected);
        assert_eq!(back[1].events[1].key, 0xA);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_dump_is_a_typed_error_not_a_panic() {
        let dir = std::env::temp_dir().join("viz-obs-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt.vfdr");
        let sections = vec![DumpSection {
            node: 1,
            events: vec![ev(EventKind::CacheHit, 1, 2, 1)],
            ..DumpSection::default()
        }];
        write_flight_dump(&path, &sections).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0xff;
            std::fs::write(&path, &flipped).unwrap();
            // Any flip must surface as Err, never a panic or a silently
            // different parse that round-trips as valid.
            let _ = read_flight_dump(&path);
        }
        bytes.truncate(bytes.len() / 2);
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_flight_dump(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    /// A CRC catches corruption, not a lie: a header frame whose checksum
    /// is right but which claims `u32::MAX` sections must be refused before
    /// anything is sized from that count.
    #[test]
    fn crafted_section_count_is_invalid_data_not_an_abort() {
        let dir = std::env::temp_dir().join("viz-obs-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("crafted-count.vfdr");
        let mut header = DUMP_MAGIC.to_vec();
        header.extend_from_slice(&DUMP_VERSION.to_le_bytes());
        header.extend_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, frame(&header)).unwrap();
        let e = read_flight_dump(&path).err().expect("a count the file cannot hold decoded");
        assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
        std::fs::remove_file(&path).ok();
    }

    /// Event codes renumber with the dump version, so a dump of another
    /// version, the retired v1 included, is refused rather than misread.
    #[test]
    fn dump_of_another_version_is_refused() {
        let dir = std::env::temp_dir().join("viz-obs-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("old-version.vfdr");
        for version in [1, DUMP_VERSION + 1] {
            let mut header = DUMP_MAGIC.to_vec();
            header.extend_from_slice(&version.to_le_bytes());
            header.extend_from_slice(&0u32.to_le_bytes());
            std::fs::write(&path, frame(&header)).unwrap();
            let e = read_flight_dump(&path).err().expect("a dump of another version decoded");
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
            assert!(e.to_string().contains("unsupported flight dump version"), "{e}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_splits_per_node() {
        let snap = FlightSnapshot {
            events: vec![
                ev(EventKind::RouterFetch, 1, 0xA, 0),
                ev(EventKind::RpcServe, 2, 1, 1),
                ev(EventKind::RpcServe, 3, 0xA, 2),
                ev(EventKind::FetchFail, 4, 0xB, 2),
            ],
            dropped: 9,
            triggers: vec![Trigger { kind: TriggerKind::DemandError, t_ns: 4, key: 0xB }],
            hists: vec![],
        };
        let sections = sections_from_snapshot(&snap);
        assert_eq!(sections.len(), 3);
        assert_eq!(sections[0].node, 0);
        assert_eq!(sections[0].dropped, 9, "drops ride the first section");
        assert_eq!(sections[2].node, 2);
        assert_eq!(sections[2].events.len(), 2);
        // The trigger followed its firing event to node 2's section.
        assert_eq!(sections[2].triggers.len(), 1);
    }

    #[test]
    fn wire_drain_conversion_keeps_hists_and_counters() {
        let w = WireTelemetry {
            dropped: 2,
            events: vec![ev(EventKind::SourceRead, 5, 0xC, 4)],
            hists: vec![viz_serve::HistSnapshot {
                kind: EventKind::SourceRead,
                pairs: vec![(4, 2)],
                count: 2,
                sum: 40,
                min: 16,
                max: 24,
            }],
            counters: vec![("serve_demand_keys".to_string(), 11)],
        };
        let d = drain_from_wire(NodeId(3), &w, 1_000);
        assert_eq!(d.node, 3);
        assert_eq!(d.clock_offset_ns, 1_000);
        assert_eq!(d.events.len(), 1);
        assert_eq!(d.counters[0].1, 11);
        let (kind, h) = &d.hists[0];
        assert_eq!(*kind, EventKind::SourceRead);
        assert_eq!((h.count(), h.min(), h.max()), (2, 16, 24));
    }
}
