//! Request coalescing: microbatching point queries.
//!
//! Point queries are tiny relative to the fixed costs around them — a
//! worker wakeup, a generation pin, a per-response `write(2)`. The
//! coalescer holds arriving `query` requests for a bounded window
//! (`max_wait_us`, or until `max_batch` accumulate, whichever is
//! first) and drains the whole batch as **one** job through the
//! oracle's batched entry points (`query_many` groups by source and
//! reuses one `SourcePlan` per group), writing one flush per
//! connection per batch. Latency is bounded by the window; throughput
//! under concurrency goes up because the fixed costs amortize over the
//! batch — this is the mechanism behind `BENCH_server.json`
//! (regenerated by the `experiments` binary's `server_coalesce` id).
//!
//! The stage is generic over the queued item so it can be tested
//! without sockets; the serving tier queues `PendingQuery` values and
//! drains them on the worker pool.

use std::mem;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Microbatching window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoalesceConfig {
    /// Longest a query may wait for co-travellers, in microseconds.
    pub max_wait_us: u64,
    /// Drain as soon as this many queries are pending.
    pub max_batch: usize,
    /// Admission bound: pending queries beyond this are shed back to
    /// the caller.
    pub max_pending: usize,
}

impl Default for CoalesceConfig {
    fn default() -> Self {
        CoalesceConfig {
            max_wait_us: 200,
            max_batch: 64,
            max_pending: 64 * 32,
        }
    }
}

struct CoalesceShared<T> {
    queue: Mutex<Vec<T>>,
    cv: Condvar,
    config: CoalesceConfig,
    shutdown: AtomicBool,
    drain: Box<dyn Fn(Vec<T>) + Send + Sync>,
}

/// The microbatching stage: submit items, a drainer thread groups them
/// into bounded batches and hands each batch to the drain callback.
pub struct Coalescer<T: Send + 'static> {
    shared: Arc<CoalesceShared<T>>,
    drainer: Mutex<Option<JoinHandle<()>>>,
}

impl<T: Send + 'static> Coalescer<T> {
    /// Start the drainer thread. `drain` receives every batch (never
    /// empty, never longer than `max_batch`).
    pub fn start(config: CoalesceConfig, drain: impl Fn(Vec<T>) + Send + Sync + 'static) -> Self {
        let shared = Arc::new(CoalesceShared {
            queue: Mutex::new(Vec::new()),
            cv: Condvar::new(),
            config,
            shutdown: AtomicBool::new(false),
            drain: Box::new(drain),
        });
        let drainer = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("coalescer-drain".to_string())
                .spawn(move || drainer_loop(&shared))
                .expect("spawn coalescer thread")
        };
        Coalescer {
            shared,
            drainer: Mutex::new(Some(drainer)),
        }
    }

    /// Queue an item. Returns the item back (`Err`) when the pending
    /// bound is hit — the caller sheds it with a typed response.
    pub fn submit(&self, item: T) -> Result<(), T> {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(item);
        }
        let mut queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        if queue.len() >= self.shared.config.max_pending {
            return Err(item);
        }
        queue.push(item);
        drop(queue);
        self.shared.cv.notify_one();
        Ok(())
    }

    /// Items currently waiting for a window to close.
    pub fn pending(&self) -> usize {
        self.shared
            .queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    /// Stop the drainer. A batch already being gathered is drained one
    /// final time so nothing admitted is silently dropped. Idempotent,
    /// and safe to call through a shared handle.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.cv.notify_all();
        let handle = self
            .drainer
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

impl<T: Send + 'static> Drop for Coalescer<T> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn drainer_loop<T: Send + 'static>(shared: &CoalesceShared<T>) {
    let window = Duration::from_micros(shared.config.max_wait_us);
    let max_batch = shared.config.max_batch.max(1);
    loop {
        let batch = {
            let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            // Sleep until the first query of the next window arrives.
            while queue.is_empty() {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                queue = shared.cv.wait(queue).unwrap_or_else(|e| e.into_inner());
            }
            // Hold the window open for co-travellers.
            let deadline = Instant::now() + window;
            while queue.len() < max_batch && !shared.shutdown.load(Ordering::Acquire) {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (q, timeout) = shared
                    .cv
                    .wait_timeout(queue, deadline - now)
                    .unwrap_or_else(|e| e.into_inner());
                queue = q;
                if timeout.timed_out() {
                    break;
                }
            }
            if queue.len() > max_batch {
                queue.drain(..max_batch).collect()
            } else {
                mem::take(&mut *queue)
            }
        };
        if !batch.is_empty() {
            (shared.drain)(batch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn collect_batches(config: CoalesceConfig) -> (Coalescer<u32>, mpsc::Receiver<Vec<u32>>) {
        let (tx, rx) = mpsc::channel();
        let c = Coalescer::start(config, move |batch| {
            tx.send(batch).unwrap();
        });
        (c, rx)
    }

    #[test]
    fn items_drain_within_the_window() {
        let (c, rx) = collect_batches(CoalesceConfig {
            max_wait_us: 500,
            max_batch: 64,
            max_pending: 1024,
        });
        for i in 0..5 {
            c.submit(i).unwrap();
        }
        let mut got: Vec<u32> = Vec::new();
        while got.len() < 5 {
            got.extend(rx.recv_timeout(Duration::from_secs(5)).unwrap());
        }
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn full_batches_drain_without_waiting_out_the_window() {
        let (c, rx) = collect_batches(CoalesceConfig {
            // A window so long the test would time out if the drain
            // waited for it.
            max_wait_us: 30_000_000,
            max_batch: 4,
            max_pending: 1024,
        });
        for i in 0..4 {
            c.submit(i).unwrap();
        }
        let batch = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(batch.len(), 4);
    }

    #[test]
    fn over_admission_sheds_the_item_back() {
        let (tx, rx) = mpsc::channel();
        // A drain that blocks until released, so the queue backs up.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let c = {
            let gate = Arc::clone(&gate);
            Coalescer::start(
                CoalesceConfig {
                    max_wait_us: 1,
                    max_batch: 1,
                    max_pending: 2,
                },
                move |batch: Vec<u32>| {
                    let (lock, cv) = &*gate;
                    let mut open = lock.lock().unwrap();
                    while !*open {
                        open = cv.wait(open).unwrap();
                    }
                    tx.send(batch).unwrap();
                },
            )
        };
        // The drainer takes the first item into a (blocked) drain call;
        // two more fill the queue to max_pending.
        c.submit(0).unwrap();
        while c.pending() > 0 {
            std::thread::yield_now();
        }
        c.submit(1).unwrap();
        c.submit(2).unwrap();
        assert_eq!(c.submit(3), Err(3));
        *gate.0.lock().unwrap() = true;
        gate.1.notify_all();
        let mut got = 0;
        while got < 3 {
            got += rx.recv_timeout(Duration::from_secs(5)).unwrap().len();
        }
    }
}
