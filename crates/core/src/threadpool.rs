//! The shared per-mount I/O engine.
//!
//! Both the write-buffering and the prefetching protocols "work with thread
//! pools to implement concurrent communication to the remote nodes"
//! (paper §3.2.2). Earlier revisions gave each protocol its own pool, so
//! thread count grew with every role; [`IoEngine`] is the single pool that
//! replaces them. One engine per mount runs the prefetch window jobs and
//! the write-buffer drains — the thread count is fixed per mount, no
//! matter how many files are open.
//!
//! Engine jobs never wait on other engine jobs: the per-server fan-out a
//! drain or prefetch job issues runs in the pool's submit window on that
//! job's own thread, not on the engine. A plain FIFO pool is therefore
//! deadlock-free at any worker count.

use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

type Job = Box<dyn FnOnce() + Send + 'static>;

struct EngineState {
    queue: VecDeque<Job>,
    shutdown: bool,
}

/// Queue + signalling shared by the workers and submitters.
struct EngineShared {
    state: Mutex<EngineState>,
    /// Woken on new work and on shutdown.
    cv: Condvar,
}

impl EngineShared {
    /// Pop the next job, waiting for one. Returns `None` once the engine
    /// is shutting down and the queue is empty: a non-empty queue is
    /// always drained first.
    fn next_job(&self) -> Option<Job> {
        let mut state = self.state.lock();
        loop {
            if let Some(job) = state.queue.pop_front() {
                return Some(job);
            }
            if state.shutdown {
                return None;
            }
            self.cv.wait(&mut state);
        }
    }
}

/// A fixed-size shared worker pool.
///
/// Dropping the engine drains the remaining queue (a mount being dropped
/// must not lose buffered stripes) and joins the workers.
pub struct IoEngine {
    shared: Arc<EngineShared>,
    workers: Vec<JoinHandle<()>>,
}

impl IoEngine {
    /// Spawn `size` workers named `name-<i>`.
    ///
    /// # Panics
    /// Panics if `size == 0`.
    pub fn new(size: usize, name: &str) -> Self {
        assert!(size > 0, "io engine needs at least one worker");
        let shared = Arc::new(EngineShared {
            state: Mutex::new(EngineState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
        });
        let workers = (0..size)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || {
                        while let Some(job) = shared.next_job() {
                            job();
                        }
                    })
                    .expect("spawn engine worker")
            })
            .collect();
        IoEngine { shared, workers }
    }

    /// Number of workers.
    pub fn size(&self) -> usize {
        self.workers.len()
    }

    /// Queue a job. Jobs submitted while the engine is shutting down (by
    /// a job it is still draining) are accepted; the drop-side drain runs
    /// them.
    pub fn execute<F: FnOnce() + Send + 'static>(&self, job: F) {
        let mut state = self.shared.state.lock();
        state.queue.push_back(Box::new(job));
        drop(state);
        self.shared.cv.notify_one();
    }
}

impl Drop for IoEngine {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock();
            state.shutdown = true;
        }
        self.shared.cv.notify_all();
        // If a queued job drops the last Arc to this engine, the drop
        // runs on one of our own workers: joining ourselves would
        // deadlock, so that one thread is detached instead (it still
        // drains and exits on its own; there is no caller left to wait).
        let me = std::thread::current().id();
        for w in self.workers.drain(..) {
            if w.thread().id() != me {
                let _ = w.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn executes_all_jobs() {
        let engine = IoEngine::new(4, "test");
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let c = Arc::clone(&counter);
            engine.execute(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(engine); // waits for completion
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn jobs_run_concurrently() {
        use std::sync::{Condvar, Mutex};
        let engine = IoEngine::new(2, "conc");
        let rendezvous = Arc::new((Mutex::new(0usize), Condvar::new()));
        // Two jobs that each wait for the other: only completes if the
        // engine really runs two jobs in parallel.
        for _ in 0..2 {
            let r = Arc::clone(&rendezvous);
            engine.execute(move || {
                let (lock, cv) = &*r;
                let mut n = lock.lock().unwrap();
                *n += 1;
                cv.notify_all();
                while *n < 2 {
                    n = cv.wait(n).unwrap();
                }
            });
        }
        drop(engine);
        assert_eq!(*rendezvous.0.lock().unwrap(), 2);
    }

    #[test]
    fn drop_drains_queue() {
        let engine = IoEngine::new(1, "drain");
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let c = Arc::clone(&counter);
            engine.execute(move || {
                std::thread::yield_now();
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(engine);
        assert_eq!(counter.load(Ordering::SeqCst), 50);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        IoEngine::new(0, "bad");
    }
}
