//! Bounded pool of detached I/O threads for timed source reads.
//!
//! When [`crate::FetchConfig::source_timeout`] is set, each source read
//! runs off the worker thread so the worker can abandon it at the
//! deadline. The original implementation spawned one short-lived thread
//! per read — under a fault storm (every read hanging to its timeout)
//! that is an unbounded thread leak, limited only by how fast workers
//! retry. [`IoPool`] caps it: at most `cap` threads ever exist, spawned
//! lazily on demand, and reads beyond the cap queue until a thread frees
//! up. The threads are deliberately *detached* — a read hung inside the
//! source must never wedge engine shutdown, so nothing joins them; they
//! exit when the job channel closes (pool drop) and their queue drains.
//!
//! The pool bounds only source reads under a timeout. A served frame's
//! demand deadline spawns nothing: the connection's handler waits on its
//! tickets with [`crate::Ticket::wait_until`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Fixed-capacity, lazily-populated pool of detached I/O threads.
#[derive(Debug)]
pub struct IoPool {
    inner: Arc<Inner>,
    cap: usize,
    /// `None` after shutdown; also the lock serializing spawn decisions.
    tx: Mutex<Option<Sender<Job>>>,
}

#[derive(Debug)]
struct Inner {
    /// Workers take turns holding the receiver; one blocks in `recv` while
    /// the rest wait on the mutex, so a ready job wakes exactly one.
    rx: Mutex<Receiver<Job>>,
    /// Threads currently between jobs (counting the one parked in `recv`).
    idle: AtomicUsize,
    /// Threads ever spawned; never exceeds the cap.
    spawned: AtomicUsize,
}

impl IoPool {
    /// A pool allowing at most `cap` concurrent I/O threads (min 1). No
    /// thread exists until the first [`IoPool::submit`].
    pub fn new(cap: usize) -> Self {
        let (tx, rx) = channel();
        IoPool {
            inner: Arc::new(Inner {
                rx: Mutex::new(rx),
                idle: AtomicUsize::new(0),
                spawned: AtomicUsize::new(0),
            }),
            cap: cap.max(1),
            tx: Mutex::new(Some(tx)),
        }
    }

    /// Threads spawned over the pool's lifetime (gauge; bounded by the
    /// cap passed to [`IoPool::new`] — the storm-containment guarantee).
    pub fn spawned(&self) -> usize {
        self.inner.spawned.load(Ordering::Relaxed)
    }

    /// Run `job` on a pool thread. Spawns a new thread only when every
    /// existing one is busy and the cap allows; otherwise the job queues
    /// until a thread frees up. Returns `false` if the pool is shut down
    /// (the job is dropped).
    pub fn submit(&self, job: Job) -> bool {
        let guard = self.tx.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(tx) = guard.as_ref() else {
            return false;
        };
        if tx.send(job).is_err() {
            return false;
        }
        // Spawn decision under the tx lock so `spawned` never overshoots
        // the cap even with concurrent submitters.
        let spawned = self.inner.spawned.load(Ordering::Relaxed);
        if self.inner.idle.load(Ordering::Acquire) == 0 && spawned < self.cap {
            self.inner.spawned.store(spawned + 1, Ordering::Relaxed);
            let inner = self.inner.clone();
            // Detached on purpose: a hung read must not block shutdown.
            let _ = std::thread::Builder::new()
                .name(format!("viz-fetch-io-{spawned}"))
                .spawn(move || worker(&inner));
        }
        true
    }

    /// Close the job channel: queued jobs still run, threads exit after.
    pub fn shutdown(&self) {
        self.tx.lock().unwrap_or_else(PoisonError::into_inner).take();
    }
}

impl Drop for IoPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker(inner: &Inner) {
    loop {
        inner.idle.fetch_add(1, Ordering::AcqRel);
        let job = {
            let rx = inner.rx.lock().unwrap_or_else(PoisonError::into_inner);
            rx.recv()
        };
        inner.idle.fetch_sub(1, Ordering::AcqRel);
        match job {
            Ok(job) => job(),
            Err(_) => return, // channel closed and drained: pool shut down
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::time::Duration;

    #[test]
    fn runs_jobs_and_reuses_threads() {
        let pool = IoPool::new(2);
        let (tx, rx) = channel();
        for i in 0..16 {
            let tx = tx.clone();
            assert!(pool.submit(Box::new(move || tx.send(i).unwrap())));
        }
        let mut got: Vec<i32> = (0..16).map(|_| rx.recv().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, (0..16).collect::<Vec<_>>());
        assert!(pool.spawned() <= 2, "cap 2 exceeded: {}", pool.spawned());
    }

    #[test]
    fn storm_of_hung_jobs_respects_the_cap() {
        let pool = IoPool::new(3);
        let (hang_tx, hang_rx) = channel::<()>();
        let hang_rx = Arc::new(Mutex::new(hang_rx));
        // 32 jobs that all block until released: an unbounded spawner
        // would create 32 threads; the pool must stop at 3.
        for _ in 0..32 {
            let rx = hang_rx.clone();
            assert!(pool.submit(Box::new(move || {
                let _ = rx.lock().unwrap().recv();
            })));
        }
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(pool.spawned(), 3, "storm must not spawn past the cap");
        drop(hang_tx); // release the hung jobs
    }

    #[test]
    fn shutdown_rejects_new_jobs() {
        let pool = IoPool::new(1);
        pool.shutdown();
        assert!(!pool.submit(Box::new(|| {})));
    }
}
