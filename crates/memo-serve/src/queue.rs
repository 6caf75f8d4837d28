//! A bounded multi-producer/multi-consumer queue with drain semantics.
//!
//! `try_push` never blocks: when the queue is at capacity the item comes
//! straight back so the caller can shed load (the server answers 503).
//! `pop` blocks until an item arrives or the queue is closed *and*
//! drained — closing stops new work but lets workers finish what was
//! already accepted, which is exactly the graceful-shutdown contract.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why [`Bounded::try_push`] returned the item instead of queueing it.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity; shed load.
    Full(T),
    /// The queue has been closed; no new work is accepted.
    Closed(T),
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Consumers blocked in `pop`, each about to take one item.
    idle: usize,
}

/// Bounded FIFO shared between the accept loop and the worker pool.
pub struct Bounded<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> Bounded<T> {
    /// A queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// If `capacity` is zero — a zero-slot queue rejects everything.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be at least 1");
        Bounded {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity),
                closed: false,
                idle: 0,
            }),
            not_empty: Condvar::new(),
            capacity,
        }
    }

    /// Enqueue without blocking.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after
    /// [`close`](Self::close) — both hand the item back.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        inner.items.push_back(item);
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeue, blocking while the queue is open and empty. Returns
    /// `None` only once the queue is closed *and* fully drained.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner.idle += 1;
            inner = self.not_empty.wait(inner).expect("queue poisoned");
            inner.idle -= 1;
        }
    }

    /// Stop accepting new items; wake all blocked consumers. Items
    /// already queued are still handed out by [`pop`](Self::pop).
    pub fn close(&self) {
        self.inner.lock().expect("queue poisoned").closed = true;
        self.not_empty.notify_all();
    }

    /// Items currently queued.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue poisoned").items.len()
    }

    /// Items queued beyond those the consumers blocked in
    /// [`pop`](Self::pop) are about to take: work that waits for a busy
    /// consumer. A push wakes an idle consumer, but the item stays in
    /// the queue until that consumer runs, so [`len`](Self::len) alone
    /// would count work that is already on its way.
    #[must_use]
    pub(crate) fn unclaimed(&self) -> usize {
        let inner = self.inner.lock().expect("queue poisoned");
        inner.items.len().saturating_sub(inner.idle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn push_pop_fifo() {
        let q = Bounded::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn full_queue_sheds() {
        let q = Bounded::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(PushError::Full(3)));
        assert_eq!(q.pop(), Some(1));
        q.try_push(3).unwrap();
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn close_drains_then_ends() {
        let q = Bounded::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        assert_eq!(q.try_push(3), Err(PushError::Closed(3)));
        // Already-accepted work still comes out, in order.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q = Arc::new(Bounded::<u32>::new(1));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || q.pop())
            })
            .collect();
        q.try_push(7).unwrap();
        q.close();
        let mut got: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        got.sort();
        assert_eq!(got, vec![None, None, Some(7)]);
    }

    #[test]
    fn unclaimed_leaves_out_items_a_blocked_consumer_will_take() {
        let q = Arc::new(Bounded::new(4));
        q.try_push(1).unwrap();
        assert_eq!(q.unclaimed(), 1, "no consumer is waiting");
        assert_eq!(q.pop(), Some(1));

        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.pop())
        };
        while q.inner.lock().unwrap().idle == 0 {
            thread::yield_now();
        }
        // Stage two items without waking the blocked consumer, so the
        // count cannot race its wake-up: one of them is already its.
        q.inner.lock().unwrap().items.extend([2, 3]);
        assert_eq!(q.unclaimed(), 1, "the blocked consumer's item is not waiting");
        q.not_empty.notify_one();
        assert_eq!(consumer.join().unwrap(), Some(2));
        assert_eq!(q.inner.lock().unwrap().idle, 0, "a woken consumer is no longer idle");
        assert_eq!(q.unclaimed(), 1);
    }

    #[test]
    fn concurrent_producers_and_consumers_conserve_items() {
        let q = Arc::new(Bounded::new(8));
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut sum = 0u64;
                    while let Some(v) = q.pop() {
                        sum += v;
                    }
                    sum
                })
            })
            .collect();
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut sent = 0u64;
                    for i in 0..100u64 {
                        let v = p * 1000 + i;
                        let mut item = v;
                        // Spin on Full: the consumers are draining.
                        loop {
                            match q.try_push(item) {
                                Ok(()) => break,
                                Err(PushError::Full(back)) => {
                                    item = back;
                                    thread::yield_now();
                                }
                                Err(PushError::Closed(_)) => panic!("closed early"),
                            }
                        }
                        sent += v;
                    }
                    sent
                })
            })
            .collect();
        let sent: u64 = producers.into_iter().map(|h| h.join().unwrap()).sum();
        q.close();
        let got: u64 = consumers.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(sent, got);
    }
}
