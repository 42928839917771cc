//! Sharded-cluster benchmark: the same block sweep against 1-, 2-, and
//! 4-node clusters over localhost TCP, routed by the client-side
//! [`viz_cluster::Router`].
//!
//! Each node runs a real [`viz_serve::TcpServer`] front end around a
//! [`viz_cluster::ClusterNode`], reading a private copy of the dataset
//! (the shared-parallel-file-system model: every node *can* read every
//! block) through an [`InstrumentedSource`] tap so the run can report
//! which node actually read what. After an untimed warmup over a
//! sacrificial key range (dials connections, opens sessions, spins the
//! engines), the timed **cold** sweep demands every block once in
//! fixed-size frames — this is the paper's interactive scenario, a
//! camera moving into data that is not resident — and measures shard
//! spread (~1/N reads per node) plus frame latency while storage reads
//! dominate. A **warm** replay of the same sweep (all pool hits) then
//! isolates pure routing overhead. The acceptance bar compares against
//! a direct single-node [`ServeClient`] baseline running the identical
//! sweeps: routed cold p99 must stay within 2x of direct cold p99.
//!
//! Results print and land as JSON (default `BENCH_cluster.json`; `--out
//! PATH` overrides, `--fast` shrinks the dataset for CI smoke runs).

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use viz_cluster::{
    ClusterConfig, ClusterNode, NodeId, PeerLink, Router, RouterConfig, ShardMap, ShardStrategy,
    TcpPeerLink,
};
use viz_fetch::{FetchConfig, InstrumentedSource};
use viz_serve::{ServeClient, ServeConfig, TcpServer, TcpTransport};
use viz_volume::{BlockId, BlockKey, MemBlockStore};

struct Args {
    fast: bool,
    out: String,
}

fn parse_args() -> Args {
    let mut a = Args { fast: false, out: "BENCH_cluster.json".to_string() };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--fast" => a.fast = true,
            "--out" => {
                if let Some(p) = it.next() {
                    a.out = p;
                }
            }
            "--help" | "-h" => {
                eprintln!("options: --fast  --out PATH");
                std::process::exit(0);
            }
            other => eprintln!("ignoring unknown option {other:?}"),
        }
    }
    a
}

const BLOCK_LEN: usize = 64;
const FRAME_KEYS: usize = 16;
const WARMUP_KEYS: u32 = 32;
const READ_DELAY: Duration = Duration::from_micros(150);

/// The measured keys, plus a disjoint warmup range above them.
fn keyspace(n_blocks: u32) -> (Vec<BlockKey>, Vec<BlockKey>) {
    let main = (0..n_blocks).map(|i| BlockKey::scalar(BlockId(i))).collect();
    let warm = (n_blocks..n_blocks + WARMUP_KEYS).map(|i| BlockKey::scalar(BlockId(i))).collect();
    (main, warm)
}

/// One running node: its TCP front end plus the read tap.
struct BenchNode {
    front: TcpServer,
    tap: Arc<InstrumentedSource>,
}

/// Spin up an `n`-node TCP cluster over a per-node copy of the dataset.
/// Returns the nodes and the address table the connector dials through.
fn start_cluster(
    n: u32,
    all_keys: &[BlockKey],
) -> (Vec<BenchNode>, Arc<Mutex<HashMap<u32, SocketAddr>>>) {
    let ids: Vec<NodeId> = (0..n).map(NodeId).collect();
    let map = ShardMap::new(&ids, 64, ShardStrategy::Ring);
    let addrs: Arc<Mutex<HashMap<u32, SocketAddr>>> = Arc::new(Mutex::new(HashMap::new()));
    let mut nodes = Vec::with_capacity(n as usize);
    for id in ids {
        let store = MemBlockStore::new();
        for &k in all_keys {
            store.insert(k, vec![k.block.0 as f32; BLOCK_LEN]);
        }
        let tap = Arc::new(InstrumentedSource::new(Arc::new(store), READ_DELAY));
        let node = ClusterNode::new(
            id,
            tap.clone(),
            map.clone(),
            dialer(addrs.clone()),
            FetchConfig { workers: 4, queue_cap: 16384, ..FetchConfig::default() },
            ServeConfig::default(),
            ClusterConfig::default(),
        );
        let front = TcpServer::bind_with(node.server().clone(), node.clone(), "127.0.0.1:0")
            .expect("bind node");
        addrs.lock().unwrap().insert(id.0, front.local_addr());
        nodes.push(BenchNode { front, tap });
    }
    (nodes, addrs)
}

/// A connector resolving node ids through the shared address table.
fn dialer(
    addrs: Arc<Mutex<HashMap<u32, SocketAddr>>>,
) -> impl Fn(NodeId) -> std::io::Result<Box<dyn PeerLink>> + Send + Sync + 'static {
    move |id| {
        let addr = addrs.lock().unwrap().get(&id.0).copied().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::NotFound, format!("no address for {id}"))
        })?;
        Ok(Box::new(TcpPeerLink::connect(addr)?) as Box<dyn PeerLink>)
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

struct Summary {
    p50_ms: f64,
    p99_ms: f64,
}

fn summarize(times: &[f64]) -> Summary {
    let mut sorted = times.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary { p50_ms: percentile(&sorted, 0.50) * 1e3, p99_ms: percentile(&sorted, 0.99) * 1e3 }
}

struct ClusterRun {
    per_node_reads: Vec<u64>,
    peer_requests: u64,
    cold_wall_s: f64,
    cold: Summary,
    warm: Summary,
    demand_errors: u64,
    rounds_max: u32,
}

/// Warm the connections up, then sweep every key once cold and once
/// warm through a router.
fn run_cluster(n: u32, main_keys: &[BlockKey], warmup: &[BlockKey]) -> ClusterRun {
    let all: Vec<BlockKey> = main_keys.iter().chain(warmup).copied().collect();
    let (nodes, addrs) = start_cluster(n, &all);
    let ids: Vec<NodeId> = (0..n).map(NodeId).collect();
    let map = ShardMap::new(&ids, 64, ShardStrategy::Ring);
    let mut router = Router::new("bench", map, Arc::new(dialer(addrs)), RouterConfig::default());

    let mut demand_errors = 0u64;
    let mut rounds_max = 0u32;
    let sweep = |r: &mut Router, keys: &[BlockKey], errs: &mut u64, rmax: &mut u32| -> Vec<f64> {
        let mut lat = Vec::with_capacity(keys.len() / FRAME_KEYS + 1);
        for frame in keys.chunks(FRAME_KEYS) {
            let t = Instant::now();
            let reply = r.fetch(frame.to_vec(), vec![]);
            lat.push(t.elapsed().as_secs_f64());
            *errs += reply.blocks.iter().filter(|b| b.result.is_err()).count() as u64;
            *rmax = (*rmax).max(reply.rounds);
        }
        lat
    };

    // Untimed warmup over the sacrificial range: dials every node, opens
    // sessions, spins engine workers — so the timed sweeps measure
    // steady-state serving, not connection setup.
    sweep(&mut router, warmup, &mut demand_errors, &mut rounds_max);
    let reads_before: Vec<u64> = nodes.iter().map(|b| b.tap.reads()).collect();

    let t0 = Instant::now();
    let cold_lat = sweep(&mut router, main_keys, &mut demand_errors, &mut rounds_max);
    let cold_wall_s = t0.elapsed().as_secs_f64();
    let per_node_reads: Vec<u64> =
        nodes.iter().zip(&reads_before).map(|(b, &before)| b.tap.reads() - before).collect();
    let warm_lat = sweep(&mut router, main_keys, &mut demand_errors, &mut rounds_max);

    let peer_requests: u64 = nodes
        .iter()
        .map(|b| {
            b.front
                .server()
                .wire_counters()
                .into_iter()
                .find(|(name, _)| name == "serve_peer_requests")
                .map(|(_, v)| v)
                .unwrap_or(0)
        })
        .sum();
    for b in nodes {
        b.front.shutdown();
    }
    ClusterRun {
        per_node_reads,
        peer_requests,
        cold_wall_s,
        cold: summarize(&cold_lat),
        warm: summarize(&warm_lat),
        demand_errors,
        rounds_max,
    }
}

/// The baseline the 2x bar is measured against: one node, one direct
/// [`ServeClient`], no router in the path, same warmup + sweeps.
fn run_direct(main_keys: &[BlockKey], warmup: &[BlockKey]) -> (Summary, Summary) {
    let all: Vec<BlockKey> = main_keys.iter().chain(warmup).copied().collect();
    let (nodes, _) = start_cluster(1, &all);
    let addr = nodes[0].front.local_addr();
    let stream = std::net::TcpStream::connect(addr).expect("connect baseline");
    let mut client = ServeClient::new(TcpTransport::new(stream));
    client.open("bench-direct").expect("open baseline");
    let mut sweep = |keys: &[BlockKey]| -> Vec<f64> {
        let mut lat = Vec::new();
        for frame in keys.chunks(FRAME_KEYS) {
            let t = Instant::now();
            let got = client.fetch(frame.to_vec(), vec![]).expect("direct fetch");
            lat.push(t.elapsed().as_secs_f64());
            assert!(got.blocks.iter().all(|b| b.result.is_ok()), "baseline demand failed");
        }
        lat
    };
    sweep(warmup);
    let cold = summarize(&sweep(main_keys));
    let warm = summarize(&sweep(main_keys));
    client.close().expect("close baseline");
    for b in nodes {
        b.front.shutdown();
    }
    (cold, warm)
}

fn main() {
    let args = parse_args();
    let n_blocks: u32 = if args.fast { 128 } else { 512 };
    let (main_keys, warmup) = keyspace(n_blocks);
    eprintln!(
        "cluster: {} blocks of {} f32, frames of {}, {} us reads, {} warmup keys",
        n_blocks,
        BLOCK_LEN,
        FRAME_KEYS,
        READ_DELAY.as_micros(),
        WARMUP_KEYS
    );

    let (direct_cold, direct_warm) = run_direct(&main_keys, &warmup);
    eprintln!(
        "  direct 1-node baseline: cold p50 {:.2} ms p99 {:.2} ms, warm p50 {:.2} ms p99 {:.2} ms",
        direct_cold.p50_ms, direct_cold.p99_ms, direct_warm.p50_ms, direct_warm.p99_ms
    );

    let mut entries = Vec::new();
    for n in [1u32, 2, 4] {
        let r = run_cluster(n, &main_keys, &warmup);
        let reads_str = r.per_node_reads.iter().map(u64::to_string).collect::<Vec<_>>().join(", ");
        eprintln!(
            "  N={n}: cold p50 {:.2} ms p99 {:.2} ms ({:.2} s wall), warm p50 {:.2} ms p99 {:.2} \
             ms, reads per node [{reads_str}], peer reqs {}, demand errors {}",
            r.cold.p50_ms,
            r.cold.p99_ms,
            r.cold_wall_s,
            r.warm.p50_ms,
            r.warm.p99_ms,
            r.peer_requests,
            r.demand_errors
        );
        assert_eq!(r.demand_errors, 0, "cluster demand must always deliver");
        assert_eq!(r.rounds_max, 1, "a healthy cluster must resolve every frame in one round");
        assert_eq!(
            r.per_node_reads.iter().sum::<u64>(),
            u64::from(n_blocks),
            "cold sweep must read each block exactly once cluster-wide"
        );
        if !args.fast {
            // The shard spread: each node reads ~1/N of the dataset.
            let expect = u64::from(n_blocks) / u64::from(n);
            for (i, &reads) in r.per_node_reads.iter().enumerate() {
                assert!(
                    reads > expect / 3 && reads < expect * 3,
                    "node {i} read {reads} of {n_blocks} (expected ~{expect})"
                );
            }
            // Router overhead bar, measured where it matters: cold
            // interactive frames doing real storage reads.
            assert!(
                r.cold.p99_ms <= direct_cold.p99_ms * 2.0,
                "{n}-node routed cold p99 {:.2} ms blew past 2x the direct {:.2} ms",
                r.cold.p99_ms,
                direct_cold.p99_ms
            );
        }
        entries.push(format!(
            r#"    {{
      "nodes": {n},
      "per_node_reads": [{reads_str}],
      "peer_requests": {peers},
      "cold_wall_s": {wall:.3},
      "cold_ms": {{ "p50": {cp50:.3}, "p99": {cp99:.3} }},
      "warm_ms": {{ "p50": {wp50:.3}, "p99": {wp99:.3} }},
      "demand_errors": {errs},
      "rounds_max": {rmax}
    }}"#,
            peers = r.peer_requests,
            wall = r.cold_wall_s,
            cp50 = r.cold.p50_ms,
            cp99 = r.cold.p99_ms,
            wp50 = r.warm.p50_ms,
            wp99 = r.warm.p99_ms,
            errs = r.demand_errors,
            rmax = r.rounds_max,
        ));
    }

    let json = format!(
        r#"{{
  "bench": "cluster",
  "provenance": "Measured on a shared container from a `cargo --release` build. Each node is a real TcpServer around a ClusterNode on localhost; after an untimed warmup that dials connections and opens sessions, the router sweeps every block once cold (storage reads dominate: the interactive camera-into-nonresident-data case, and the acceptance bar vs the direct baseline) and once warm (all pool hits: isolates routing overhead); the direct baseline is a plain ServeClient against one node running the identical sweeps. Absolute times carry scheduler noise; ratios (read balance, cold p99 vs direct) are representative. Regenerate with `cargo run --release -p viz-bench --bin cluster`.",
  "operating_point": {{
    "blocks": {blocks},
    "block_len_f32": {bl},
    "frame_keys": {fk},
    "read_delay_us": {delay},
    "warmup_keys": {wk},
    "engine_workers": 4,
    "strategy": "ring",
    "vnodes": 64
  }},
  "direct_baseline_ms": {{
    "cold": {{ "p50": {dcp50:.3}, "p99": {dcp99:.3} }},
    "warm": {{ "p50": {dwp50:.3}, "p99": {dwp99:.3} }}
  }},
  "runs": [
{entries}
  ]
}}
"#,
        blocks = n_blocks,
        bl = BLOCK_LEN,
        fk = FRAME_KEYS,
        delay = READ_DELAY.as_micros(),
        wk = WARMUP_KEYS,
        dcp50 = direct_cold.p50_ms,
        dcp99 = direct_cold.p99_ms,
        dwp50 = direct_warm.p50_ms,
        dwp99 = direct_warm.p99_ms,
        entries = entries.join(",\n"),
    );
    std::fs::write(&args.out, &json).expect("write results");
    println!("{json}");
    eprintln!("wrote {}", args.out);
}
