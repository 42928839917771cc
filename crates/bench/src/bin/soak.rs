//! Session-scaling soak: the thread-per-connection model vs the reactor,
//! from 64 real TCP sessions up to 10 000 in-process sessions with churn.
//!
//! Three stages:
//!
//! 1. **Thread baseline** — 64 TCP clients against the thread-per-conn
//!    front end: demand round-trip p50/p99, resident-set delta per
//!    session, process thread count while serving.
//! 2. **Reactor parity** — the same 64-client TCP workload against the
//!    poll-loop front end: latency must hold while the thread count
//!    collapses to one loop.
//! 3. **Reactor soak** — 1k/4k/10k sessions over the deterministic
//!    in-process reactor with 10 % churn per round: every demand block
//!    delivered, queues drained each round, memory per session and
//!    probe latency recorded.
//!
//! Results print and land as JSON (default `BENCH_reactor.json`; `--out
//! PATH` overrides, `--fast` shrinks counts for CI smoke runs).

use std::sync::Arc;
use std::time::{Duration, Instant};
use viz_fetch::{BlockPool, FetchConfig, FetchEngine, InstrumentedSource};
use viz_serve::{
    InProcTransport, IoBackend, ReactorInProcServer, ServeClient, ServeConfig, Server, TcpFrontend,
    TcpTransport,
};
use viz_volume::{BlockId, BlockKey, MemBlockStore};

struct Args {
    fast: bool,
    out: String,
}

fn parse_args() -> Args {
    let mut a = Args { fast: false, out: "BENCH_reactor.json".to_string() };
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

const STORE_KEYS: u32 = 4096;
const BLOCK_LEN: usize = 64;

fn key(i: u32) -> BlockKey {
    BlockKey::scalar(BlockId(i % STORE_KEYS))
}

fn filled_store() -> Arc<MemBlockStore> {
    let store = MemBlockStore::new();
    for i in 0..STORE_KEYS {
        store.insert(key(i), vec![i as f32; BLOCK_LEN]);
    }
    Arc::new(store)
}

/// `(VmRSS kB, Threads)` from `/proc/self/status`; zeros when absent.
fn proc_status() -> (u64, u64) {
    let Ok(text) = std::fs::read_to_string("/proc/self/status") else {
        return (0, 0);
    };
    let field = |name: &str| {
        text.lines()
            .find(|l| l.starts_with(name))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (field("VmRSS:"), field("Threads:"))
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

#[derive(Clone, Copy, Default)]
struct Summary {
    p50_ms: f64,
    p99_ms: f64,
    mean_ms: f64,
}

fn summarize(times: &[f64]) -> Summary {
    let mut sorted = times.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary {
        p50_ms: percentile(&sorted, 0.50) * 1e3,
        p99_ms: percentile(&sorted, 0.99) * 1e3,
        mean_ms: sorted.iter().sum::<f64>() / sorted.len().max(1) as f64 * 1e3,
    }
}

struct TcpRun {
    backend: &'static str,
    sessions: usize,
    requests: u64,
    demand_errors: u64,
    lat: Summary,
    rss_per_session_kb: f64,
    threads_during: u64,
    wall_s: f64,
}

/// 64 sequential TCP clients, round-robin fetches: the per-request
/// latency is a clean server-side round trip (no client thundering
/// herd), and the process thread count isolates the front-end model —
/// both backends see the identical wire workload.
fn run_tcp(backend: IoBackend, sessions: usize, rounds: usize) -> TcpRun {
    let src = Arc::new(InstrumentedSource::new(filled_store(), Duration::from_micros(100)));
    let engine = FetchEngine::spawn(
        src,
        Arc::new(BlockPool::new()),
        FetchConfig { workers: 4, queue_cap: 16384, ..FetchConfig::default() },
    );
    let server = Server::new(
        Arc::new(engine),
        ServeConfig { backend, max_sessions: sessions + 1, ..ServeConfig::default() },
    );
    let (rss_before, _) = proc_status();
    let tcp = TcpFrontend::bind(server, "127.0.0.1:0").expect("bind");
    let addr = tcp.local_addr().to_string();

    let mut clients: Vec<ServeClient<TcpTransport>> = (0..sessions)
        .map(|c| {
            let mut cl = ServeClient::new(TcpTransport::connect(&addr).expect("connect"));
            cl.open(&format!("soak-{c}")).expect("open");
            cl
        })
        .collect();

    let mut latencies = Vec::with_capacity(sessions * rounds);
    let mut errors = 0u64;
    let t0 = Instant::now();
    for round in 0..rounds {
        for (c, client) in clients.iter_mut().enumerate() {
            let base = (round * sessions + c * 2) as u32;
            let t = Instant::now();
            let got = client
                .fetch(vec![key(base), key(base + 1)], vec![(key(base + 512), 0.7)])
                .expect("fetch");
            latencies.push(t.elapsed().as_secs_f64());
            errors += got.blocks.iter().filter(|b| b.result.is_err()).count() as u64;
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let (rss_during, threads_during) = proc_status();

    for client in &mut clients {
        client.close().expect("close");
    }
    drop(clients);
    tcp.shutdown();
    TcpRun {
        backend: match backend {
            IoBackend::Threads => "threads",
            IoBackend::Reactor => "reactor",
        },
        sessions,
        requests: (sessions * rounds) as u64,
        demand_errors: errors,
        lat: summarize(&latencies),
        rss_per_session_kb: rss_during.saturating_sub(rss_before) as f64 / sessions as f64,
        threads_during,
        wall_s,
    }
}

struct InprocRun {
    sessions: usize,
    rounds: usize,
    churn: usize,
    requests: u64,
    demand_errors: u64,
    prefetch_shed: u64,
    sessions_opened: u64,
    probe: Summary,
    burst_req_per_s: f64,
    rss_per_session_kb: f64,
    threads_during: u64,
    wall_s: f64,
}

/// N in-process sessions on the deterministic reactor, 10 % churn per
/// round. Each round is one burst (every session sends a fetch, one
/// tick serves them all) plus a set of individually-timed probe
/// round-trips measuring request latency with N sessions open.
fn run_inproc(sessions: usize, rounds: usize) -> InprocRun {
    let engine = FetchEngine::spawn(
        filled_store(),
        Arc::new(BlockPool::new()),
        FetchConfig::deterministic(),
    );
    let server = Server::new(
        Arc::new(engine),
        ServeConfig {
            backend: IoBackend::Reactor,
            max_sessions: sessions + sessions / 10 + 1,
            engine_queue_target: 64 * 1024,
            shed_queue_depth: 1 << 20,
            downgrade_queue_depth: 1 << 20,
            demand_deadline: Some(Duration::from_millis(50)),
            ..ServeConfig::default()
        },
    );
    let (rss_before, _) = proc_status();
    let mut reactor = ReactorInProcServer::new(server);

    let open = |reactor: &mut ReactorInProcServer, n: usize| -> Vec<ServeClient<InProcTransport>> {
        let mut cohort: Vec<ServeClient<InProcTransport>> =
            (0..n).map(|_| ServeClient::new(reactor.connect())).collect();
        for c in &mut cohort {
            c.send_open("soak").expect("send open");
        }
        reactor.tick();
        for c in &mut cohort {
            c.recv_open().expect("open ack");
        }
        cohort
    };

    let mut clients = open(&mut reactor, sessions);
    let churn = sessions / 10;
    let mut errors = 0u64;
    let mut requests = 0u64;
    let mut probes = Vec::new();
    let mut burst_reqs = 0u64;
    let mut burst_wall = 0.0f64;
    let t0 = Instant::now();
    for round in 0..rounds {
        // Burst: every session's frame in one tick.
        for (i, c) in clients.iter_mut().enumerate() {
            let base = (round * 13 + i * 2) as u32;
            c.send_fetch(0, vec![key(base), key(base + 1)], vec![(key(base + 512), 0.7)])
                .expect("send fetch");
        }
        let tb = Instant::now();
        reactor.tick();
        burst_wall += tb.elapsed().as_secs_f64();
        for c in &mut clients {
            let got = c.recv_fetch().expect("fetch reply");
            errors += got.blocks.iter().filter(|b| b.result.is_err()).count() as u64;
        }
        requests += clients.len() as u64;
        burst_reqs += clients.len() as u64;

        // Probes: individually-timed round trips under N open sessions.
        let probe_n = 64.min(clients.len());
        let step = clients.len() / probe_n.max(1);
        for p in 0..probe_n {
            let c = &mut clients[p * step];
            let base = (round * 29 + p * 3) as u32;
            let t = Instant::now();
            c.send_fetch(0, vec![key(base)], vec![]).expect("send probe");
            reactor.tick();
            let got = c.recv_fetch().expect("probe reply");
            probes.push(t.elapsed().as_secs_f64());
            errors += got.blocks.iter().filter(|b| b.result.is_err()).count() as u64;
            requests += 1;
        }

        // Churn 10 %: the oldest cohort leaves, a new one joins.
        let mut leavers: Vec<_> = clients.drain(..churn).collect();
        for c in &mut leavers {
            c.send_close().expect("send close");
        }
        reactor.tick();
        drop(leavers); // acks unread: the pipes just die, like real peers
        reactor.sweep();
        reactor.tick();
        clients.extend(open(&mut reactor, churn));
        reactor.advance(16_000_000);

        let depths = reactor.server().engine().queue_depths();
        assert_eq!(depths, (0, 0), "round {round}: engine queues must drain");
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let (rss_during, threads_during) = proc_status();
    let m = reactor.server().metrics();
    assert_eq!(m.demand_errors, 0, "soak demand must never error");
    InprocRun {
        sessions,
        rounds,
        churn,
        requests,
        demand_errors: errors,
        prefetch_shed: m.prefetch_shed,
        sessions_opened: m.sessions_opened,
        probe: summarize(&probes),
        burst_req_per_s: burst_reqs as f64 / burst_wall.max(1e-9),
        rss_per_session_kb: rss_during.saturating_sub(rss_before) as f64 / sessions as f64,
        threads_during,
        wall_s,
    }
}

fn tcp_json(r: &TcpRun) -> String {
    format!(
        r#"    {{
      "backend": "{backend}",
      "sessions": {n},
      "requests": {reqs},
      "demand_errors": {errs},
      "demand_ms": {{ "p50": {p50:.3}, "p99": {p99:.3}, "mean": {mean:.3} }},
      "rss_per_session_kb": {rss:.1},
      "process_threads": {threads},
      "wall_s": {wall:.3}
    }}"#,
        backend = r.backend,
        n = r.sessions,
        reqs = r.requests,
        errs = r.demand_errors,
        p50 = r.lat.p50_ms,
        p99 = r.lat.p99_ms,
        mean = r.lat.mean_ms,
        rss = r.rss_per_session_kb,
        threads = r.threads_during,
        wall = r.wall_s,
    )
}

fn inproc_json(r: &InprocRun) -> String {
    format!(
        r#"    {{
      "sessions": {n},
      "rounds": {rounds},
      "churn_per_round": {churn},
      "requests": {reqs},
      "demand_errors": {errs},
      "prefetch_shed": {shed},
      "sessions_opened_total": {opened},
      "probe_ms": {{ "p50": {p50:.3}, "p99": {p99:.3}, "mean": {mean:.3} }},
      "burst_requests_per_s": {brps:.0},
      "rss_per_session_kb": {rss:.2},
      "process_threads": {threads},
      "wall_s": {wall:.3}
    }}"#,
        n = r.sessions,
        rounds = r.rounds,
        churn = r.churn,
        reqs = r.requests,
        errs = r.demand_errors,
        shed = r.prefetch_shed,
        opened = r.sessions_opened,
        p50 = r.probe.p50_ms,
        p99 = r.probe.p99_ms,
        mean = r.probe.mean_ms,
        brps = r.burst_req_per_s,
        rss = r.rss_per_session_kb,
        threads = r.threads_during,
        wall = r.wall_s,
    )
}

fn main() {
    let args = parse_args();
    let (tcp_n, tcp_rounds, soak_counts, soak_rounds) =
        if args.fast { (16, 4, vec![500], 3) } else { (64, 20, vec![1_000, 4_000, 10_000], 5) };

    eprintln!("soak: {STORE_KEYS} blocks x {BLOCK_LEN} f32, 100 us reads");
    let threads_tcp = run_tcp(IoBackend::Threads, tcp_n, tcp_rounds);
    eprintln!(
        "  threads-tcp N={}: demand p50 {:.2} ms p99 {:.2} ms, {:.1} kB/session, {} threads",
        threads_tcp.sessions,
        threads_tcp.lat.p50_ms,
        threads_tcp.lat.p99_ms,
        threads_tcp.rss_per_session_kb,
        threads_tcp.threads_during
    );
    let reactor_tcp = run_tcp(IoBackend::Reactor, tcp_n, tcp_rounds);
    eprintln!(
        "  reactor-tcp N={}: demand p50 {:.2} ms p99 {:.2} ms, {:.1} kB/session, {} threads",
        reactor_tcp.sessions,
        reactor_tcp.lat.p50_ms,
        reactor_tcp.lat.p99_ms,
        reactor_tcp.rss_per_session_kb,
        reactor_tcp.threads_during
    );
    assert_eq!(threads_tcp.demand_errors, 0);
    assert_eq!(reactor_tcp.demand_errors, 0);

    let mut soaks = Vec::new();
    for &n in &soak_counts {
        let r = run_inproc(n, soak_rounds);
        eprintln!(
            "  reactor-soak N={}: probe p50 {:.3} ms p99 {:.3} ms, {:.0} burst req/s, \
             {:.2} kB/session, {} threads, {} opened",
            r.sessions,
            r.probe.p50_ms,
            r.probe.p99_ms,
            r.burst_req_per_s,
            r.rss_per_session_kb,
            r.threads_during,
            r.sessions_opened
        );
        assert_eq!(r.demand_errors, 0, "soak demand errors at N={n}");
        assert_eq!(r.prefetch_shed, 0, "soak prefetch shed at N={n}");
        soaks.push(r);
    }

    // Acceptance gates (full run only): the reactor sustains >= 1k
    // sessions with demand p99 within 2x of the 64-session thread-model
    // figure, on strictly fewer threads and less memory per session.
    if !args.fast {
        let base_p99 = threads_tcp.lat.p99_ms;
        let big = &soaks[0]; // N = 1000
        assert!(
            big.probe.p99_ms <= base_p99 * 2.0,
            "1k-session reactor probe p99 {:.3} ms blew past 2x the 64-session \
             thread-model p99 {base_p99:.3} ms",
            big.probe.p99_ms
        );
        assert!(
            reactor_tcp.lat.p99_ms <= base_p99 * 2.0,
            "reactor TCP p99 {:.3} ms lost parity with the thread model's {base_p99:.3} ms",
            reactor_tcp.lat.p99_ms
        );
        for r in &soaks {
            assert!(
                r.threads_during < threads_tcp.threads_during,
                "reactor at N={} used {} threads, thread model used {}",
                r.sessions,
                r.threads_during,
                threads_tcp.threads_during
            );
            if r.rss_per_session_kb > 0.0 && threads_tcp.rss_per_session_kb > 0.0 {
                assert!(
                    r.rss_per_session_kb < threads_tcp.rss_per_session_kb,
                    "reactor at N={} used {:.2} kB/session, thread model {:.2}",
                    r.sessions,
                    r.rss_per_session_kb,
                    threads_tcp.rss_per_session_kb
                );
            }
        }
        assert!(
            reactor_tcp.threads_during < threads_tcp.threads_during,
            "the reactor TCP front end must run on fewer threads"
        );
    }

    let json = format!(
        r#"{{
  "bench": "reactor_soak",
  "provenance": "Measured on a shared {cores}-core container from a `cargo --release` build. TCP stages run {tcp_n} sequential localhost clients against each front end (identical wire workload; per-request latency is a full round trip); soak stages run the deterministic in-process reactor with 10% session churn per round, individually-timed probe round-trips, and RSS/thread figures read from /proc/self/status. Absolute times carry scheduler noise; ratios (p99 scaling, threads, kB/session) are representative. Regenerate with `cargo run --release --locked --offline -p viz-bench --bin soak`.",
  "operating_point": {{
    "store_keys": {keys},
    "block_len_f32": {bl},
    "read_delay_us": 100,
    "tcp_sessions": {tcp_n},
    "tcp_rounds": {tcp_rounds},
    "soak_rounds": {soak_rounds},
    "engine_workers_tcp": 4
  }},
  "tcp": [
{tcp_entries}
  ],
  "reactor_soak": [
{soak_entries}
  ]
}}
"#,
        cores = std::thread::available_parallelism().map_or(0, |n| n.get()),
        keys = STORE_KEYS,
        bl = BLOCK_LEN,
        tcp_n = tcp_n,
        tcp_rounds = tcp_rounds,
        soak_rounds = soak_rounds,
        tcp_entries = [tcp_json(&threads_tcp), tcp_json(&reactor_tcp)].join(",\n"),
        soak_entries = soaks.iter().map(inproc_json).collect::<Vec<_>>().join(",\n"),
    );
    std::fs::write(&args.out, &json).expect("write results");
    println!("{json}");
    eprintln!("wrote {}", args.out);
}
