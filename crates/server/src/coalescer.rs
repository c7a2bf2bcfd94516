//! Request coalescing: load-adaptive microbatching of point queries.
//!
//! Point queries are tiny relative to the fixed costs around them — a
//! worker wakeup, a generation pin, a per-response `write(2)`. The
//! coalescer amortizes those costs only when there is load to amortize
//! them over, in two stages:
//!
//! - **Idle stage.** No batch is executing and nothing is queued. A
//!   caller about to queue a lone query may instead claim the stage
//!   ([`Coalescer::try_claim_idle`]) and execute the query itself, as
//!   a batch of one, without any thread handoff or window. The serving
//!   tier does this on the connection thread when the connection has
//!   no further request line buffered. An item that is queued in this
//!   stage drains at once.
//! - **Busy stage.** While a batch executes, arriving queries gather
//!   behind it. The drainer drains them as *one* batch the moment the
//!   running batch finishes, or once `max_batch` are pending, or once
//!   `max_wait_us` has passed, whichever comes first. Each drained
//!   batch is one job through the oracle's batched entry points
//!   (`query_many` groups by source and reuses one `SourcePlan` per
//!   group) and one flush per connection — the mechanism behind
//!   `BENCH_server.json` (regenerated by the `experiments` binary's
//!   `server_coalesce` id).
//!
//! A batch counts as executing from the moment it is claimed or
//! drained until its [`Executing`] guard drops; claim and release both
//! happen under the queue lock, so an inline claim and a drain can
//! never both see the stage idle. So latency under no load is the
//! query's own cost, and under load a query waits at most for the
//! batch ahead of it (bounded by `max_wait_us`).
//!
//! The stage is generic over the queued item so it can be tested
//! without sockets; the serving tier queues `PendingQuery` values and
//! executes drained batches on the worker pool.

use std::mem;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Microbatching bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoalesceConfig {
    /// Longest a batch may gather behind a running batch, in
    /// microseconds. Queries that arrive while nothing is executing
    /// never wait for it: they are answered inline or drained at once.
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

/// Everything the queue lock guards.
struct Stage<T> {
    queue: Vec<T>,
    /// Batches claimed or drained whose [`Executing`] guard is alive.
    executing: usize,
}

struct CoalesceShared<T> {
    stage: Mutex<Stage<T>>,
    cv: Condvar,
    config: CoalesceConfig,
    shutdown: AtomicBool,
    drain: Box<dyn Fn(Vec<T>, Executing<T>) + Send + Sync>,
}

impl<T> CoalesceShared<T> {
    fn lock(&self) -> std::sync::MutexGuard<'_, Stage<T>> {
        self.stage.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Proof that a batch is executing: while any guard is alive the stage
/// is busy and arriving items gather behind it. Dropping the guard (on
/// success, panic or a discarded job alike) ends that batch and, when
/// items gathered behind it, wakes the drainer to drain them.
pub struct Executing<T> {
    shared: Arc<CoalesceShared<T>>,
}

impl<T> Drop for Executing<T> {
    fn drop(&mut self) {
        let mut stage = self.shared.lock();
        stage.executing -= 1;
        // With nothing queued the drainer sleeps until the next submit,
        // which wakes it itself.
        let gathered = !stage.queue.is_empty();
        drop(stage);
        if gathered {
            self.shared.cv.notify_one();
        }
    }
}

/// The microbatching stage: submit items, a drainer thread groups them
/// into bounded batches and hands each batch to the drain callback.
pub struct Coalescer<T: Send + 'static> {
    shared: Arc<CoalesceShared<T>>,
    drainer: Mutex<Option<JoinHandle<()>>>,
}

impl<T: Send + 'static> Coalescer<T> {
    /// Start the drainer thread. `drain` receives every batch (never
    /// empty, never longer than `max_batch`) with its [`Executing`]
    /// guard; it should drop the guard once the batch has executed.
    pub fn start(
        config: CoalesceConfig,
        drain: impl Fn(Vec<T>, Executing<T>) + Send + Sync + 'static,
    ) -> Self {
        let shared = Arc::new(CoalesceShared {
            stage: Mutex::new(Stage {
                queue: Vec::new(),
                executing: 0,
            }),
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
        let mut stage = self.shared.lock();
        if stage.queue.len() >= self.shared.config.max_pending {
            return Err(item);
        }
        stage.queue.push(item);
        drop(stage);
        self.shared.cv.notify_one();
        Ok(())
    }

    /// Claim the idle stage for a caller that will execute one item
    /// itself: `Some` only when no batch is executing and nothing is
    /// queued. Until the returned guard drops, the stage is busy and
    /// submitted items gather behind it.
    pub fn try_claim_idle(&self) -> Option<Executing<T>> {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return None;
        }
        let mut stage = self.shared.lock();
        if stage.executing > 0 || !stage.queue.is_empty() {
            return None;
        }
        stage.executing = 1;
        Some(Executing {
            shared: Arc::clone(&self.shared),
        })
    }

    /// Is the stage idle: no batch executing and nothing queued? A
    /// snapshot, for callers that run other work outside the stage
    /// only while it has nothing to do.
    pub fn is_idle(&self) -> bool {
        let stage = self.shared.lock();
        stage.executing == 0 && stage.queue.is_empty()
    }

    /// Items currently waiting to be drained.
    pub fn pending(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// Stop the drainer. Items still queued are drained one final time
    /// so nothing admitted is silently dropped. Idempotent, and safe to
    /// call through a shared handle.
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

fn drainer_loop<T: Send + 'static>(shared: &Arc<CoalesceShared<T>>) {
    let window = Duration::from_micros(shared.config.max_wait_us);
    let max_batch = shared.config.max_batch.max(1);
    loop {
        let (batch, executing) = {
            let mut stage = shared.lock();
            // Sleep until the first item of the next batch arrives.
            while stage.queue.is_empty() {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                stage = shared.cv.wait(stage).unwrap_or_else(|e| e.into_inner());
            }
            // Busy stage: gather behind the running batch until it
            // finishes, the batch fills or the window closes.
            let deadline = Instant::now() + window;
            while stage.executing > 0
                && stage.queue.len() < max_batch
                && !shared.shutdown.load(Ordering::Acquire)
            {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                stage = shared
                    .cv
                    .wait_timeout(stage, deadline - now)
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
            }
            let batch = if stage.queue.len() > max_batch {
                stage.queue.drain(..max_batch).collect()
            } else {
                mem::take(&mut stage.queue)
            };
            stage.executing += 1;
            let executing = Executing {
                shared: Arc::clone(shared),
            };
            (batch, executing)
        };
        (shared.drain)(batch, executing);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    type Drained = (Vec<u32>, Executing<u32>);

    /// A coalescer whose batches arrive on a channel together with their
    /// guards, so a test decides how long each batch "executes".
    fn collect_batches(config: CoalesceConfig) -> (Coalescer<u32>, mpsc::Receiver<Drained>) {
        let (tx, rx) = mpsc::channel();
        let c = Coalescer::start(config, move |batch, executing| {
            tx.send((batch, executing)).unwrap();
        });
        (c, rx)
    }

    /// A window so long a test would time out if a drain waited for it.
    const FOREVER_US: u64 = 30_000_000;
    const PATIENCE: Duration = Duration::from_secs(5);

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
            got.extend(rx.recv_timeout(PATIENCE).unwrap().0);
        }
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn a_lone_item_drains_without_waiting_out_the_window() {
        let (c, rx) = collect_batches(CoalesceConfig {
            max_wait_us: FOREVER_US,
            max_batch: 64,
            max_pending: 1024,
        });
        c.submit(7).unwrap();
        let (batch, _executing) = rx.recv_timeout(PATIENCE).unwrap();
        assert_eq!(batch, vec![7]);
    }

    #[test]
    fn items_gathered_behind_a_running_batch_drain_as_one() {
        let (c, rx) = collect_batches(CoalesceConfig {
            max_wait_us: FOREVER_US,
            max_batch: 64,
            max_pending: 1024,
        });
        c.submit(0).unwrap();
        let (first, gate) = rx.recv_timeout(PATIENCE).unwrap();
        assert_eq!(first, vec![0]);
        // While the first batch executes, new items gather behind it.
        for i in 1..4 {
            c.submit(i).unwrap();
        }
        assert!(rx.recv_timeout(Duration::from_millis(50)).is_err());
        assert_eq!(c.pending(), 3);
        // The running batch finishing drains them, not the window.
        drop(gate);
        let (second, _executing) = rx.recv_timeout(PATIENCE).unwrap();
        assert_eq!(second, vec![1, 2, 3]);
    }

    #[test]
    fn full_batches_drain_without_waiting_out_the_window() {
        let (c, rx) = collect_batches(CoalesceConfig {
            max_wait_us: FOREVER_US,
            max_batch: 4,
            max_pending: 1024,
        });
        c.submit(0).unwrap();
        let (_, _gate) = rx.recv_timeout(PATIENCE).unwrap();
        // The gate stays shut: only reaching max_batch can drain these.
        for i in 1..5 {
            c.submit(i).unwrap();
        }
        let (batch, _executing) = rx.recv_timeout(PATIENCE).unwrap();
        assert_eq!(batch, vec![1, 2, 3, 4]);
    }

    #[test]
    fn an_idle_claim_is_exclusive_and_holds_the_queue() {
        let (c, rx) = collect_batches(CoalesceConfig {
            max_wait_us: FOREVER_US,
            max_batch: 64,
            max_pending: 1024,
        });
        let claim = c.try_claim_idle().expect("nothing runs or waits");
        assert!(c.try_claim_idle().is_none(), "the stage is busy");
        c.submit(1).unwrap();
        c.submit(2).unwrap();
        assert!(rx.recv_timeout(Duration::from_millis(50)).is_err());
        drop(claim);
        // Queued items keep the stage from looking idle until drained.
        let (batch, executing) = rx.recv_timeout(PATIENCE).unwrap();
        assert_eq!(batch, vec![1, 2]);
        assert!(c.try_claim_idle().is_none(), "a drained batch runs");
        drop(executing);
        // The release happens under the queue lock before the drop
        // returns, so the stage is idle again right away.
        assert!(c.try_claim_idle().is_some());
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
                move |batch: Vec<u32>, _executing| {
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
            got += rx.recv_timeout(PATIENCE).unwrap().len();
        }
    }
}
