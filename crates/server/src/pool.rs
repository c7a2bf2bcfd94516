//! A fixed worker pool draining a bounded job queue.
//!
//! The serving tier is built on `std::net`/`std::thread` (the
//! workspace is offline — no async runtime): connection threads do the
//! socket I/O and *submission*, and every piece of oracle work — point
//! queries, coalesced batches, commits — runs on one of these workers.
//! The queue bound is the server's admission-control backstop: when
//! producers outrun the workers, [`WorkerPool::submit`] refuses with
//! [`SubmitError::Full`] and the caller sheds the request with a typed
//! response instead of queueing unbounded latency.
//!
//! Jobs run under a panic boundary: a panicking job is counted and the
//! worker keeps serving (the serving tier must never lose a worker to
//! one bad request). [`WorkerPool::run_contained`] puts work that runs
//! on the caller's own thread behind the same boundary and counter.

use batchhl_common::metrics::Counter;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// One unit of work.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// Why a job was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity — shed the request.
    Full {
        /// Queue depth observed at refusal.
        depth: usize,
    },
    /// The pool is shutting down.
    ShuttingDown,
}

struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    cv: Condvar,
    capacity: usize,
    shutdown: AtomicBool,
    panics: Arc<Counter>,
}

/// Fixed-size worker pool over a bounded mpsc-style job queue.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl WorkerPool {
    /// Spawn `workers` threads (at least one) behind a queue that sheds
    /// beyond `capacity` pending jobs. Contained panics are counted on
    /// `panics`.
    pub fn new(name: &str, workers: usize, capacity: usize, panics: Arc<Counter>) -> Self {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            capacity: capacity.max(1),
            shutdown: AtomicBool::new(false),
            panics,
        });
        let workers = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("{name}-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// Submit a job, shedding with [`SubmitError::Full`] when the queue
    /// is at capacity.
    pub fn submit(&self, job: Job) -> Result<(), SubmitError> {
        self.push(job, true)
    }

    /// Submit bypassing the capacity bound — for internal work that has
    /// already passed admission (e.g. a coalesced batch whose member
    /// queries were each admitted individually) and must not be dropped
    /// after the fact.
    pub fn submit_unbounded(&self, job: Job) -> Result<(), SubmitError> {
        self.push(job, false)
    }

    fn push(&self, job: Job, bounded: bool) -> Result<(), SubmitError> {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(SubmitError::ShuttingDown);
        }
        let mut queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        if bounded && queue.len() >= self.shared.capacity {
            return Err(SubmitError::Full { depth: queue.len() });
        }
        queue.push_back(job);
        drop(queue);
        self.shared.cv.notify_one();
        Ok(())
    }

    /// Jobs currently waiting (not counting jobs being executed).
    pub fn depth(&self) -> usize {
        self.shared
            .queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    /// Run `job` on the calling thread behind the workers' panic
    /// boundary: a panic is counted with theirs and does not unwind
    /// into the caller.
    pub fn run_contained(&self, job: impl FnOnce()) {
        contain(&self.shared.panics, job);
    }

    /// Jobs that panicked (and were contained) so far.
    pub fn panics(&self) -> u64 {
        self.shared.panics.get()
    }

    /// Stop the workers: pending jobs are dropped, running jobs finish,
    /// and every worker thread is joined. Idempotent, and safe to call
    /// through a shared handle.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared
            .queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        self.shared.cv.notify_all();
        let handles: Vec<_> = self
            .workers
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                queue = shared.cv.wait(queue).unwrap_or_else(|e| e.into_inner());
            }
        };
        contain(&shared.panics, job);
    }
}

fn contain(panics: &Counter, job: impl FnOnce()) {
    if catch_unwind(AssertUnwindSafe(job)).is_err() {
        panics.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;

    #[test]
    fn jobs_run_and_pool_drains() {
        let pool = WorkerPool::new("t", 3, 64, Arc::default());
        let counter = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        for _ in 0..50 {
            let counter = Arc::clone(&counter);
            let tx = tx.clone();
            pool.submit(Box::new(move || {
                counter.fetch_add(1, Ordering::Relaxed);
                tx.send(()).unwrap();
            }))
            .unwrap();
        }
        for _ in 0..50 {
            rx.recv_timeout(std::time::Duration::from_secs(5)).unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn full_queue_sheds_typed() {
        let pool = WorkerPool::new("t", 1, 2, Arc::default());
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        // Block the single worker so the queue backs up.
        {
            let gate = Arc::clone(&gate);
            pool.submit(Box::new(move || {
                let (lock, cv) = &*gate;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
            }))
            .unwrap();
        }
        // Wait until the worker has picked the blocker up.
        while pool.depth() > 0 {
            std::thread::yield_now();
        }
        pool.submit(Box::new(|| {})).unwrap();
        pool.submit(Box::new(|| {})).unwrap();
        assert!(matches!(
            pool.submit(Box::new(|| {})),
            Err(SubmitError::Full { depth: 2 })
        ));
        // Internal submissions bypass the bound.
        pool.submit_unbounded(Box::new(|| {})).unwrap();
        // Release and shut down cleanly.
        *gate.0.lock().unwrap() = true;
        gate.1.notify_all();
        pool.shutdown();
        assert!(matches!(
            pool.submit(Box::new(|| {})),
            Err(SubmitError::ShuttingDown)
        ));
    }

    #[test]
    fn panicking_jobs_are_contained() {
        let panics = Arc::new(Counter::new());
        let pool = WorkerPool::new("t", 1, 8, Arc::clone(&panics));
        let (tx, rx) = mpsc::channel();
        pool.submit(Box::new(|| panic!("bad job"))).unwrap();
        pool.submit(Box::new(move || tx.send(()).unwrap())).unwrap();
        rx.recv_timeout(std::time::Duration::from_secs(5))
            .expect("worker survived the panic");
        assert_eq!(pool.panics(), 1);
        // Work run on the caller's thread shares the boundary and count.
        pool.run_contained(|| panic!("bad inline work"));
        let mut ran = false;
        pool.run_contained(|| ran = true);
        assert!(ran);
        assert_eq!(panics.get(), 2);
    }
}
