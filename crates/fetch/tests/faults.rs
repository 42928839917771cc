//! Fault-path integration tests: seeded fault injection driving retry,
//! fail-fast classification, circuit-breaker transitions, deadlines,
//! source timeouts, worker supervision, and shutdown under load.
//!
//! Most tests use the deterministic engine (`workers = 0`) so every
//! scheduling decision and breaker transition is exact; the threaded
//! tests cover the supervision/timeout machinery that only exists with
//! real workers.

use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};
use viz_fetch::{
    BlockPool, BreakerConfig, BreakerState, FaultConfig, FaultInjectingSource, FetchConfig,
    FetchEngine, RetryPolicy, Ticket,
};
use viz_volume::{BlockId, BlockKey, BlockSource, MemBlockStore};

fn key(i: u32) -> BlockKey {
    BlockKey::scalar(BlockId(i))
}

fn store_with(n: u32) -> Arc<MemBlockStore> {
    let s = MemBlockStore::new();
    for i in 0..n {
        s.insert(key(i), vec![i as f32; 64]);
    }
    Arc::new(s)
}

fn det_engine(
    source: Arc<FaultInjectingSource>,
    cfg: FetchConfig,
) -> (FetchEngine, Arc<BlockPool>) {
    let pool = Arc::new(BlockPool::new());
    let engine = FetchEngine::spawn(source as Arc<dyn BlockSource>, pool.clone(), cfg);
    (engine, pool)
}

#[test]
fn transient_error_is_retried_to_success() {
    let source = Arc::new(FaultInjectingSource::healthy(store_with(1)));
    source.script_fail(key(0), 2, io::ErrorKind::Interrupted);
    let (eng, pool) = det_engine(source.clone(), FetchConfig::deterministic());

    let ticket = eng.request(key(0));
    eng.run_until_idle();
    let payload = ticket.try_wait().expect("resolved").expect("retried to success");
    assert_eq!(payload.as_slice(), &[0.0f32; 64]);
    assert!(pool.contains(key(0)));

    // Two injected failures, two retries, one eventual success, no error.
    assert_eq!(source.reads(), 3);
    let m = eng.shutdown();
    assert_eq!(m.retries, 2);
    assert_eq!(m.errors, 0);
    assert_eq!(m.completed, 1);
}

#[test]
fn permanent_errors_fail_fast_without_retry() {
    for kind in [io::ErrorKind::NotFound, io::ErrorKind::InvalidData] {
        let source = Arc::new(FaultInjectingSource::healthy(store_with(1)));
        source.script_fail(key(0), 1, kind);
        let (eng, _pool) = det_engine(source.clone(), FetchConfig::deterministic());

        let ticket = eng.request(key(0));
        eng.run_until_idle();
        let err = ticket.try_wait().expect("resolved").expect_err("must fail");
        assert_eq!(err.kind, kind);
        assert!(!err.is_transient());

        // Exactly one source read: no retry budget spent on permanent kinds.
        assert_eq!(source.reads(), 1);
        let m = eng.shutdown();
        assert_eq!(m.retries, 0);
        assert_eq!(m.errors, 1);
    }
}

#[test]
fn exhausted_retries_surface_the_transient_error() {
    let source = Arc::new(FaultInjectingSource::healthy(store_with(1)));
    source.script_fail(key(0), 10, io::ErrorKind::TimedOut);
    let cfg = FetchConfig { retry: RetryPolicy::immediate(3), ..FetchConfig::deterministic() };
    let (eng, _pool) = det_engine(source.clone(), cfg);

    let ticket = eng.request(key(0));
    eng.run_until_idle();
    let err = ticket.try_wait().expect("resolved").expect_err("budget exhausted");
    assert_eq!(err.kind, io::ErrorKind::TimedOut);
    assert!(err.is_transient());

    // 1 initial attempt + 3 retries.
    assert_eq!(source.reads(), 4);
    let m = eng.shutdown();
    assert_eq!(m.retries, 3);
    assert_eq!(m.errors, 1);
}

/// Satellite regression: a failed fetch must clear its pending/inflight
/// entry, so the *next* `get`/`prefetch` for that key re-reads the source
/// instead of replaying a cached error (or hanging on a dead entry).
#[test]
fn failed_fetch_is_not_cached_and_next_request_rereads() {
    let source = Arc::new(FaultInjectingSource::healthy(store_with(2)));
    source.script_fail(key(0), 1, io::ErrorKind::NotFound);
    let (eng, pool) = det_engine(source.clone(), FetchConfig::deterministic());

    let t1 = eng.request(key(0));
    eng.run_until_idle();
    assert!(t1.try_wait().expect("resolved").is_err());
    assert!(!pool.contains(key(0)));
    assert_eq!(source.reads(), 1);

    // The retry path of the *caller*: a fresh request goes back to the
    // source (script consumed, so it succeeds).
    let t2 = eng.request(key(0));
    eng.run_until_idle();
    assert!(t2.try_wait().expect("resolved").is_ok());
    assert_eq!(source.reads(), 2, "second request must re-read the source");
    assert!(pool.contains(key(0)));

    // Same property through the prefetch path.
    source.script_fail(key(1), 1, io::ErrorKind::InvalidData);
    assert!(eng.prefetch(key(1), 1.0));
    eng.run_until_idle();
    assert!(!pool.contains(key(1)));
    assert!(eng.prefetch(key(1), 1.0), "prefetch after failure must re-enqueue");
    eng.run_until_idle();
    assert!(pool.contains(key(1)));
    eng.shutdown();
}

#[test]
fn breaker_opens_half_opens_and_closes() {
    let source = Arc::new(FaultInjectingSource::healthy(store_with(16)));
    let cfg = FetchConfig {
        retry: RetryPolicy::none(),
        breaker: BreakerConfig { failure_threshold: 3 },
        ..FetchConfig::deterministic()
    };
    let (eng, pool) = det_engine(source.clone(), cfg);
    assert_eq!(eng.breaker_state(), BreakerState::Closed);

    // Outage: three consecutive demand failures trip the breaker.
    source.set_outage(Some(io::ErrorKind::TimedOut));
    let tickets: Vec<Ticket> = (0..3).map(|i| eng.request(key(i))).collect();
    eng.run_until_idle();
    for t in tickets {
        assert!(t.try_wait().expect("resolved").is_err());
    }
    assert_eq!(eng.breaker_state(), BreakerState::Open);
    assert_eq!(eng.metrics().breaker_opens, 1);

    // While open, prefetches fail fast at admission: no source read.
    let reads_before = source.reads();
    assert!(!eng.prefetch(key(8), 1.0), "prefetch must be rejected while open");
    assert_eq!(source.reads(), reads_before, "rejected prefetch must not touch the source");
    assert!(eng.metrics().breaker_rejected >= 1);

    // A demand read is the half-open probe; the outage persists, so the
    // probe fails and the breaker re-opens.
    let t = eng.request(key(3));
    eng.run_until_idle();
    assert!(t.try_wait().expect("resolved").is_err());
    assert_eq!(eng.breaker_state(), BreakerState::Open);
    let m = eng.metrics();
    assert_eq!(m.breaker_half_opens, 1);
    assert_eq!(m.breaker_opens, 2, "failed probe re-opens");

    // Source recovers: the next demand probe succeeds and closes the
    // breaker — demand reads recover automatically, no timers involved.
    source.set_outage(None);
    let t = eng.request(key(4));
    eng.run_until_idle();
    assert!(t.try_wait().expect("resolved").is_ok());
    assert_eq!(eng.breaker_state(), BreakerState::Closed);
    let m = eng.metrics();
    assert_eq!(m.breaker_half_opens, 2);
    assert_eq!(m.breaker_closes, 1);

    // Closed again: prefetches flow.
    assert!(eng.prefetch(key(9), 1.0));
    eng.run_until_idle();
    assert!(pool.contains(key(9)));
    eng.shutdown();
}

#[test]
fn queued_prefetches_fail_fast_when_breaker_opens_behind_them() {
    let source = Arc::new(FaultInjectingSource::healthy(store_with(16)));
    let cfg = FetchConfig {
        retry: RetryPolicy::none(),
        breaker: BreakerConfig { failure_threshold: 2 },
        ..FetchConfig::deterministic()
    };
    let (eng, pool) = det_engine(source.clone(), cfg);

    // Queue prefetches while healthy, then trip the breaker with demand
    // failures before the queue drains. Demand outranks prefetch, so the
    // failures run first and the queued prefetches must be failed fast.
    for i in 8..12 {
        assert!(eng.prefetch(key(i), 1.0));
    }
    source.set_outage(Some(io::ErrorKind::Interrupted));
    let t0 = eng.request(key(0));
    let t1 = eng.request(key(1));
    eng.run_until_idle();
    assert!(t0.try_wait().expect("resolved").is_err());
    assert!(t1.try_wait().expect("resolved").is_err());
    assert_eq!(eng.breaker_state(), BreakerState::Open);
    // Only the two demand reads touched the source.
    assert_eq!(source.reads(), 2);
    for i in 8..12 {
        assert!(!pool.contains(key(i)));
    }
    eng.shutdown();
}

#[test]
fn deadline_miss_degrades_now_and_recovers_later() {
    let source = Arc::new(FaultInjectingSource::healthy(store_with(2)));
    source.script_delay(key(0), Duration::from_millis(60));
    let pool = Arc::new(BlockPool::new());
    let eng = FetchEngine::spawn(
        source.clone() as Arc<dyn BlockSource>,
        pool.clone(),
        FetchConfig { workers: 1, ..FetchConfig::default() },
    );

    // The frame gives the read 5 ms; the read takes 60 ms.
    let err = eng.get_deadline(key(0), Duration::from_millis(5)).expect_err("must miss");
    assert_eq!(err.kind, io::ErrorKind::TimedOut);
    assert_eq!(eng.metrics().deadline_misses, 1);

    // The abandoned wait did not abandon the read: it lands, and the next
    // frame gets the block instantly without a second source read.
    eng.sync();
    assert!(pool.contains(key(0)));
    assert_eq!(source.reads(), 1);
    assert!(eng.get_deadline(key(0), Duration::from_millis(5)).is_ok());
    let m = eng.shutdown();
    assert_eq!(m.deadline_misses, 1);
}

#[test]
fn hung_read_is_abandoned_and_lands_late_without_losing_the_worker() {
    let source = Arc::new(FaultInjectingSource::healthy(store_with(4)));
    source.script_delay(key(0), Duration::from_millis(120));
    let pool = Arc::new(BlockPool::new());
    let eng = FetchEngine::spawn(
        source.clone() as Arc<dyn BlockSource>,
        pool.clone(),
        FetchConfig {
            workers: 1,
            retry: RetryPolicy::none(),
            source_timeout: Some(Duration::from_millis(10)),
            ..FetchConfig::default()
        },
    );

    // The worker abandons the hung read at the source timeout.
    let err = eng.get(key(0)).expect_err("abandoned");
    assert_eq!(err.kind, io::ErrorKind::TimedOut);
    assert_eq!(eng.metrics().timeouts, 1);

    // The worker survived: it can service other keys immediately, while
    // the orphaned read is still sleeping.
    assert!(eng.get(key(1)).is_ok());

    // The orphaned read eventually parks its payload in the pool as a
    // late arrival — paid-for data is never thrown away.
    let t0 = Instant::now();
    while !pool.contains(key(0)) {
        assert!(t0.elapsed() < Duration::from_secs(5), "late arrival never landed");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(source.reads(), 2, "no extra source read for the late block");
    let m = eng.shutdown();
    assert_eq!(m.late_arrivals, 1);
}

/// A source that panics on one key — the supervision test needs a panic
/// the fault injector cannot produce.
struct PanickingSource {
    inner: Arc<MemBlockStore>,
    poison: BlockKey,
}

impl BlockSource for PanickingSource {
    fn read_block(&self, key: BlockKey) -> io::Result<Vec<f32>> {
        assert!(key != self.poison, "poisoned block {key:?}");
        self.inner.read_block(key)
    }

    fn block_bytes(&self, key: BlockKey) -> io::Result<usize> {
        self.inner.block_bytes(key)
    }
}

#[test]
fn worker_panic_becomes_an_error_and_the_worker_respawns() {
    let source = Arc::new(PanickingSource { inner: store_with(4), poison: key(0) });
    let pool = Arc::new(BlockPool::new());
    let eng = FetchEngine::spawn(
        source,
        pool.clone(),
        FetchConfig { workers: 1, retry: RetryPolicy::none(), ..FetchConfig::default() },
    );

    // The panic reaches the supervisor, which fails the waiter instead of
    // hanging it.
    let err = eng.get(key(0)).expect_err("panic must surface as an error");
    assert!(err.message.contains("panic during block read"), "got: {}", err.message);

    // The single worker was respawned in place: later reads still work.
    for i in 1..4 {
        assert!(eng.get(key(i)).is_ok(), "worker lost after panic");
    }
    let m = eng.shutdown();
    assert_eq!(m.worker_panics, 1);
    assert_eq!(m.errors, 1);
    assert_eq!(m.completed, 3);
}

#[test]
fn deterministic_shutdown_under_load_resolves_every_waiter() {
    let source = Arc::new(FaultInjectingSource::healthy(store_with(64)));
    let (eng, _pool) = det_engine(source.clone(), FetchConfig::deterministic());

    // Deep backlog: demand tickets and prefetches, nothing serviced yet.
    let tickets: Vec<Ticket> = (0..32).map(|i| eng.request(key(i))).collect();
    for i in 32..64 {
        assert!(eng.prefetch(key(i), i as f64));
    }
    let m = eng.shutdown();
    assert_eq!(m.completed, 0, "nothing was stepped before shutdown");

    // Every abandoned waiter resolves with the shutdown error — no hangs,
    // no leaked receivers.
    for t in tickets {
        let err = t.wait().expect_err("shutdown must fail the waiter");
        assert_eq!(err.kind, io::ErrorKind::Interrupted);
    }
    assert_eq!(source.reads(), 0, "backlog must be abandoned, not drained");
}

#[test]
fn threaded_shutdown_under_load_resolves_blocked_waiters() {
    // Slow every read down so shutdown lands mid-backlog.
    let cfg = FaultConfig {
        seed: 42,
        spike_rate: 1.0,
        spike: Duration::from_millis(2),
        ..FaultConfig::default()
    };
    let source = Arc::new(FaultInjectingSource::new(store_with(256), cfg));
    let pool = Arc::new(BlockPool::new());
    let eng = FetchEngine::spawn(
        source as Arc<dyn BlockSource>,
        pool,
        FetchConfig { workers: 4, queue_cap: 10_000, ..FetchConfig::default() },
    );

    let tickets: Vec<Ticket> = (0..64).map(|i| eng.request(key(i))).collect();
    for i in 64..256 {
        eng.prefetch(key(i), i as f64);
    }

    // Tickets outlive the engine: move each onto its own blocked waiter
    // thread, then shut down while the backlog is deep.
    let waiters: Vec<std::thread::JoinHandle<bool>> =
        tickets.into_iter().map(|t| std::thread::spawn(move || t.wait().is_ok())).collect();
    std::thread::sleep(Duration::from_millis(10));
    let m = eng.shutdown();

    // Every waiter resolves — serviced before the cut, or failed by it.
    let mut ok = 0usize;
    let mut failed = 0usize;
    for w in waiters {
        if w.join().expect("waiter thread must not panic") {
            ok += 1;
        } else {
            failed += 1;
        }
    }
    assert_eq!(ok + failed, 64);
    assert!(m.completed >= ok as u64, "every Ok waiter saw a completed read");
    // Shutdown returning proves the worker pool joined: no leaked threads.
    assert_eq!(m.inflight, 0);
}

/// Acceptance criterion: under a seeded fault storm (10% transient
/// errors, 5% latency spikes) a 100-step camera path completes with zero
/// engine stalls — every step's demand set resolves (success, or a
/// degraded miss that recovers on a later step) and the engine returns to
/// idle every step.
#[test]
fn fault_storm_completes_100_step_camera_path_without_stalls() {
    const STEPS: u32 = 100;
    const WINDOW: u32 = 8; // demand set per step
    const BLOCKS: u32 = STEPS + 2 * WINDOW;

    let source = Arc::new(FaultInjectingSource::new(
        store_with(BLOCKS),
        FaultConfig {
            spike: Duration::ZERO, // keep the deterministic run fast
            ..FaultConfig::storm(0xD15EA5E)
        },
    ));
    let (eng, pool) = det_engine(source.clone(), FetchConfig::deterministic());

    let mut degraded_steps = 0u32;
    let mut carry: Vec<BlockKey> = Vec::new(); // misses retried next frame
    for step in 0..STEPS {
        // The camera advances one block per step: demand the window,
        // prefetch the predicted next window, cancel stale predictions.
        eng.bump_generation();
        let demand: Vec<BlockKey> = carry.drain(..).chain((step..step + WINDOW).map(key)).collect();
        let tickets: Vec<(BlockKey, Ticket)> =
            demand.iter().map(|&k| (k, eng.request(k))).collect();
        for i in step + WINDOW..step + 2 * WINDOW {
            eng.prefetch(key(i), f64::from(BLOCKS - i));
        }

        eng.run_until_idle();

        // Zero stalls: after stepping to idle every ticket has resolved.
        let mut step_degraded = false;
        for (k, t) in tickets {
            match t.try_wait() {
                Ok(Ok(_)) => {}
                Ok(Err(e)) => {
                    // Only exhausted *transient* errors may surface under
                    // the storm, and they degrade the frame, not the run.
                    assert!(e.is_transient(), "unexpected permanent error: {e}");
                    step_degraded = true;
                    carry.push(k);
                }
                Err(_) => panic!("ticket unresolved after run_until_idle: engine stalled"),
            }
        }
        degraded_steps += u32::from(step_degraded);

        let m = eng.metrics();
        assert_eq!(m.queue_depth, 0, "queue not drained at step {step}");
        assert_eq!(m.inflight, 0, "reads stuck in flight at step {step}");
    }

    // Degraded frames recover: retry the stragglers to done.
    let mut rounds = 0;
    while !carry.is_empty() {
        rounds += 1;
        assert!(rounds < 32, "carried misses never recovered");
        let tickets: Vec<(BlockKey, Ticket)> =
            carry.drain(..).map(|k| (k, eng.request(k))).collect();
        eng.run_until_idle();
        for (k, t) in tickets {
            if t.try_wait().expect("resolved").is_err() {
                carry.push(k);
            }
        }
    }
    for i in 0..STEPS + WINDOW {
        assert!(pool.contains(key(i)), "block {i} missing after recovery");
    }

    let m = eng.shutdown();
    // The storm actually stormed, and the retry layer absorbed it.
    assert!(source.injected_errors() > 0, "no faults injected");
    assert!(m.retries > 0, "no retries under a 10% error storm");
    assert!(
        m.errors <= source.injected_errors(),
        "every surfaced error traces back to an injected fault"
    );
    // The breaker never saw 8 consecutive *request* failures under a 10%
    // storm with retries absorbing most faults.
    assert_eq!(m.breaker_state, BreakerState::Closed);
    println!(
        "storm: reads={} injected={} retries={} surfaced={} degraded_steps={}",
        source.reads(),
        source.injected_errors(),
        m.retries,
        m.errors,
        degraded_steps
    );
}
