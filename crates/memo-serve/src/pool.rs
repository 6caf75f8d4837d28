//! A fixed worker pool draining a [`Bounded`] queue.
//!
//! The pool mirrors the paper's hardware shape: a small number of
//! functional units (workers) in front of a shared reservation queue.
//! Workers run `job` for every item until the queue is closed and
//! drained, then exit; [`WorkerPool::join`] completes the shutdown.

use std::sync::Arc;
use std::thread::{self, JoinHandle};

use crate::queue::Bounded;

/// Handle over the spawned worker threads.
pub struct WorkerPool {
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn `workers` threads that each loop `queue.pop()` → `job`.
    ///
    /// # Panics
    ///
    /// If `workers` is zero, or if the OS refuses to spawn a thread.
    #[must_use]
    pub fn spawn<T, F>(workers: usize, queue: Arc<Bounded<T>>, job: F) -> Self
    where
        T: Send + 'static,
        F: Fn(T) + Send + Sync + 'static,
    {
        assert!(workers > 0, "worker pool needs at least one worker");
        let job = Arc::new(job);
        let handles = (0..workers)
            .map(|i| {
                let queue = Arc::clone(&queue);
                let job = Arc::clone(&job);
                thread::Builder::new()
                    .name(format!("memo-serve-worker-{i}"))
                    .spawn(move || {
                        while let Some(item) = queue.pop() {
                            job(item);
                        }
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool { handles }
    }

    /// Number of worker threads.
    #[cfg(test)]
    #[must_use]
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Wait for every worker to exit. Call after closing the queue;
    /// returns once all queued work has been processed.
    pub fn join(self) {
        for handle in self.handles {
            if handle.join().is_err() {
                // A worker panicked mid-job; the others still drain.
                eprintln!("[memo-serve] worker thread panicked");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn pool_processes_everything_then_joins() {
        let queue = Arc::new(Bounded::new(64));
        let sum = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&sum);
        let pool = WorkerPool::spawn(4, Arc::clone(&queue), move |v: u64| {
            seen.fetch_add(v, Ordering::Relaxed);
        });
        assert_eq!(pool.workers(), 4);
        let mut expect = 0;
        for v in 1..=50u64 {
            while queue.try_push(v).is_err() {
                std::thread::yield_now();
            }
            expect += v;
        }
        queue.close();
        pool.join();
        assert_eq!(sum.load(Ordering::Relaxed), expect);
    }

    #[test]
    fn panicking_job_does_not_take_down_the_pool_join() {
        let queue = Arc::new(Bounded::new(8));
        let done = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&done);
        let pool = WorkerPool::spawn(2, Arc::clone(&queue), move |v: u64| {
            assert!(v != 3, "injected failure");
            counter.fetch_add(1, Ordering::Relaxed);
        });
        for v in 1..=5 {
            queue.try_push(v).unwrap();
        }
        queue.close();
        pool.join(); // must not hang or propagate the panic
        assert!(done.load(Ordering::Relaxed) >= 3);
    }
}
