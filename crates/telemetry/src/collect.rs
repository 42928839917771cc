//! Cluster-wide telemetry aggregation: merge per-node ring drains into
//! one Perfetto-loadable trace and one Prometheus rollup.
//!
//! Each node's `TelemetryGet` reply becomes a [`NodeDrain`]. The merge
//! keys every event to a Perfetto *process*: process 1 is the
//! router/client (events whose `node` attribution is 0), process
//! `NodeId + 2` is that cluster node — so an in-process test cluster,
//! where every node shares one set of rings, still splits per node by
//! the event's own attribution. Per-drain clock offsets (estimated from
//! heartbeat RTT midpoints, [`offset_from_rtt`]) shift each drain onto
//! the collector's timeline before the global sort.

use crate::event::{EventKind, TraceEvent, KIND_COUNT};
use crate::export::write_chrome_event;
use crate::hist::LogHistogram;
use crate::json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One node's drained telemetry, as shipped by `TelemetryGet`.
#[derive(Clone, Default)]
pub struct NodeDrain {
    /// The drained node's id.
    pub node: u32,
    /// Events from that node's rings (its own epoch timebase).
    pub events: Vec<TraceEvent>,
    /// Cumulative ring-overflow drops on that node.
    pub dropped: u64,
    /// Added to every event timestamp to map the node's epoch onto the
    /// collector's timeline (see [`offset_from_rtt`]).
    pub clock_offset_ns: i64,
    /// The node's wire counters (serve + engine), for the rollup.
    pub counters: Vec<(String, u64)>,
    /// The node's summary span histograms.
    pub hists: Vec<(EventKind, LogHistogram)>,
}

/// Estimate the offset that maps a peer's clock onto ours from one
/// request/reply exchange: we sent at `local_send_ns`, received the
/// reply at `local_recv_ns`, and the peer stamped its clock
/// `remote_now_ns` in between. Assuming symmetric network halves, the
/// peer's stamp corresponds to our RTT midpoint, so
/// `peer_time + offset ≈ our_time`.
pub fn offset_from_rtt(local_send_ns: u64, local_recv_ns: u64, remote_now_ns: u64) -> i64 {
    let mid = (local_send_ns / 2).wrapping_add(local_recv_ns / 2);
    mid as i64 - remote_now_ns as i64
}

fn event_pid(e: &TraceEvent) -> u32 {
    if e.node != 0 {
        u32::from(e.node) + 1
    } else {
        1
    }
}

/// Merge N node drains into one Chrome trace-event JSON document:
/// per-node process ids with `process_name` metadata, clock-offset
/// aligned, globally time-sorted. Router/client-attributed events (node
/// 0) land in process 1.
pub fn cluster_chrome_trace(drains: &[NodeDrain]) -> String {
    // (aligned_t_ns, tid, drain index, event index) sort keys.
    let mut order: Vec<(u64, u16, usize, usize)> = Vec::new();
    let mut pids: BTreeMap<u32, String> = BTreeMap::new();
    pids.insert(1, "router".to_string());
    let mut dropped = 0u64;
    for (di, d) in drains.iter().enumerate() {
        dropped += d.dropped;
        pids.insert(d.node + 2, format!("node-{}", d.node));
        for (ei, e) in d.events.iter().enumerate() {
            if e.node != 0 {
                pids.entry(u32::from(e.node) + 1).or_insert_with(|| format!("node-{}", e.node - 1));
            }
            let t = e.t_ns.saturating_add_signed(d.clock_offset_ns);
            order.push((t, e.tid, di, ei));
        }
    }
    order.sort_unstable();
    let mut out = String::with_capacity(256 + order.len() * 160);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for (&pid, name) in &pids {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
            json::escape(name)
        );
    }
    for &(_, _, di, ei) in &order {
        let d = &drains[di];
        let e = &d.events[ei];
        if !first {
            out.push(',');
        }
        first = false;
        write_chrome_event(&mut out, e, event_pid(e), d.clock_offset_ns);
    }
    let _ = write!(out, "],\"otherData\":{{\"dropped\":{dropped},\"nodes\":{}}}}}", drains.len());
    out
}

/// Cluster Prometheus rollup: per-node event-kind counts and wire
/// counters as `viz_node_counter_total{node=...,name=...}`, summed
/// cluster-wide series as `viz_counter_total`, and the nodes' span
/// histograms merged per kind into one `viz_span_duration_ns` family.
/// Per-cache-tier hits/misses/evictions and the shed ladder arrive here
/// through the event kinds (`cache_hit`/`cache_miss`/`cache_evict`) and
/// the serve wire counters each node ships.
pub fn cluster_prometheus(drains: &[NodeDrain]) -> String {
    let mut per_node: Vec<(u32, Vec<(String, u64)>)> = Vec::new();
    let mut summed: BTreeMap<String, u64> = BTreeMap::new();
    let mut merged: Vec<LogHistogram> = (0..KIND_COUNT).map(|_| LogHistogram::new()).collect();
    let mut total_dropped = 0u64;
    for d in drains {
        let mut counts = [0u64; KIND_COUNT];
        for e in &d.events {
            counts[e.kind as usize] += 1;
        }
        let mut rows: Vec<(String, u64)> = Vec::new();
        for kind in EventKind::ALL {
            let c = counts[kind as usize];
            if c > 0 {
                rows.push((kind.label().to_string(), c));
            }
        }
        rows.extend(d.counters.iter().cloned());
        rows.push(("telemetry_ring_dropped".to_string(), d.dropped));
        total_dropped += d.dropped;
        for (name, v) in &rows {
            *summed.entry(name.clone()).or_insert(0) += v;
        }
        for (kind, h) in &d.hists {
            merged[*kind as usize].merge(h);
        }
        per_node.push((d.node, rows));
    }
    let mut out = String::new();
    out.push_str("# HELP viz_node_counter_total Per-node event and engine counters.\n");
    out.push_str("# TYPE viz_node_counter_total counter\n");
    for (node, rows) in &per_node {
        for (name, v) in rows {
            let _ = writeln!(
                out,
                "viz_node_counter_total{{node=\"{node}\",name=\"{}\"}} {v}",
                json::escape(name)
            );
        }
    }
    let counters: Vec<(&str, u64)> = summed.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    let hists: Vec<(&str, &LogHistogram)> = EventKind::ALL
        .iter()
        .filter(|k| merged[**k as usize].count() > 0)
        .map(|k| (k.label(), &merged[*k as usize]))
        .collect();
    out.push_str(&crate::export::prometheus_text(&counters, &hists));
    let _ = writeln!(out, "viz_telemetry_ring_dropped_total {total_dropped}");
    out
}

/// All distinct nonzero trace ids present in a merged event set.
pub fn trace_ids(events: &[TraceEvent]) -> Vec<u64> {
    let mut ids: Vec<u64> = events.iter().map(|e| e.trace).filter(|&t| t != 0).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// Whether the given trace ids form one connected component when events
/// are linked by (a) sharing a subject `key` and (b) `TraceJoin` edges
/// (whose `arg` names the primary trace the event's own trace merged
/// into). This is the acceptance check for trace propagation: requests
/// that coalesced onto one read must yield a single connected span
/// tree, not islands.
pub fn traces_connected(events: &[TraceEvent], ids: &[u64]) -> bool {
    if ids.len() <= 1 {
        return true;
    }
    // Union-find over the trace ids.
    let idx = |t: u64| ids.iter().position(|&i| i == t);
    let mut parent: Vec<usize> = (0..ids.len()).collect();
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    let union = |parent: &mut [usize], a: u64, b: u64| {
        if let (Some(ia), Some(ib)) = (idx(a), idx(b)) {
            let (ra, rb) = (find(parent, ia), find(parent, ib));
            parent[ra] = rb;
        }
    };
    // TraceJoin edges: joining trace (event's own) ↔ primary (arg).
    for e in events.iter().filter(|e| e.kind == EventKind::TraceJoin) {
        if e.trace != 0 && e.arg != 0 {
            union(&mut parent, e.trace, e.arg);
        }
    }
    // Same-subject edges: two traces touching the same key are causally
    // linked through that block's fetch.
    let mut by_key: BTreeMap<u64, u64> = BTreeMap::new();
    for e in events.iter().filter(|e| e.trace != 0 && e.key != 0) {
        match by_key.get(&e.key) {
            Some(&t0) => union(&mut parent, t0, e.trace),
            None => {
                by_key.insert(e.key, e.trace);
            }
        }
    }
    let root = find(&mut parent, 0);
    (1..ids.len()).all(|i| find(&mut parent, i) == root)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, t_ns: u64, key: u64, trace: u64, node: u16) -> TraceEvent {
        TraceEvent { t_ns, dur_ns: 10, key, arg: 0, trace, kind, tid: 1, node }
    }

    #[test]
    fn offset_from_rtt_midpoint() {
        // Sent at 100, received at 300 → midpoint 200. Peer said 150 →
        // peer runs 50 behind, offset +50 maps it onto our timeline.
        assert_eq!(offset_from_rtt(100, 300, 150), 50);
        assert_eq!(offset_from_rtt(100, 300, 250), -50);
        assert_eq!(offset_from_rtt(0, 0, 0), 0);
    }

    #[test]
    fn merged_trace_is_valid_and_per_node() {
        let drains = vec![
            NodeDrain {
                node: 0,
                events: vec![
                    ev(EventKind::RouterFetch, 1_000, 0xA, 7, 0),
                    ev(EventKind::RpcServe, 2_000, 1, 7, 1),
                ],
                dropped: 1,
                clock_offset_ns: 0,
                ..NodeDrain::default()
            },
            NodeDrain {
                node: 1,
                events: vec![ev(EventKind::RpcServe, 500, 0xA, 7, 2)],
                dropped: 0,
                clock_offset_ns: 2_000,
                ..NodeDrain::default()
            },
        ];
        let j = cluster_chrome_trace(&drains);
        json::validate(&j).expect("merged trace is valid JSON");
        assert!(j.contains("\"process_name\""));
        assert!(j.contains("\"name\":\"router\""));
        assert!(j.contains("\"name\":\"node-0\""));
        assert!(j.contains("\"name\":\"node-1\""));
        // Node-attributed events get pid NodeId+2; router events pid 1.
        assert!(j.contains("\"pid\":1,"), "router pid present");
        assert!(j.contains("\"pid\":2,"), "node 0 pid present");
        assert!(j.contains("\"pid\":3,"), "node 1 pid present");
        // Node 1's event aligned: 500 + 2000 = 2500 ns → 2.500 µs.
        assert!(j.contains("\"ts\":2.500"), "clock offset applied: {j}");
        assert!(j.contains("\"dropped\":1"));
    }

    #[test]
    fn cluster_prometheus_rolls_up_per_node_and_summed() {
        let drains = vec![
            NodeDrain {
                node: 0,
                events: vec![
                    ev(EventKind::CacheHit, 1, 0xA, 0, 1),
                    ev(EventKind::CacheHit, 2, 0xB, 0, 1),
                ],
                counters: vec![("serve_demand_keys".to_string(), 5)],
                ..NodeDrain::default()
            },
            NodeDrain {
                node: 1,
                events: vec![ev(EventKind::CacheHit, 3, 0xC, 0, 2)],
                counters: vec![("serve_demand_keys".to_string(), 7)],
                hists: {
                    let mut h = LogHistogram::new();
                    h.record(100);
                    vec![(EventKind::SourceRead, h)]
                },
                ..NodeDrain::default()
            },
        ];
        let p = cluster_prometheus(&drains);
        assert!(p.contains("viz_node_counter_total{node=\"0\",name=\"cache_hit\"} 2"));
        assert!(p.contains("viz_node_counter_total{node=\"1\",name=\"cache_hit\"} 1"));
        assert!(p.contains("viz_counter_total{name=\"cache_hit\"} 3"), "summed: {p}");
        assert!(p.contains("viz_counter_total{name=\"serve_demand_keys\"} 12"));
        assert!(p.contains("viz_span_duration_ns_count{span=\"source_read\"} 1"));
        assert!(p.contains("viz_telemetry_ring_dropped_total 0"));
    }

    #[test]
    fn connectivity_detects_joined_and_island_traces() {
        // Traces 1 and 2 join via TraceJoin; 1 and 3 share a key; 9 is
        // an island.
        let mut events = vec![
            ev(EventKind::FetchAdmitDemand, 1, 0xA, 1, 1),
            ev(EventKind::TraceJoin, 2, 0xA, 2, 1),
            ev(EventKind::SourceRead, 3, 0xB, 1, 1),
            ev(EventKind::RpcServe, 4, 0xB, 3, 2),
        ];
        events[1].arg = 1; // join primary = trace 1
        assert_eq!(trace_ids(&events), vec![1, 2, 3]);
        assert!(traces_connected(&events, &[1, 2, 3]));
        let island = ev(EventKind::CacheHit, 5, 0xEE, 9, 1);
        let mut with_island = events.clone();
        with_island.push(island);
        assert!(!traces_connected(&with_island, &[1, 2, 3, 9]));
        assert!(traces_connected(&[], &[]));
        assert!(traces_connected(&events, &[1]));
    }
}
