//! A bounded MPSC work queue with admission-time rejection.
//!
//! `std::sync::mpsc` channels are unbounded (or rendezvous); the service
//! needs a queue that *refuses* work when full so overload surfaces as a
//! typed reply instead of unbounded memory growth. This is the classic
//! `Mutex<VecDeque>` + `Condvar` construction, with two service-specific
//! twists: retries re-enter at the *front* (a retried request never waits
//! behind the whole backlog again, and bypasses the admission cap — its
//! slot was already paid for), and `close_and_drain` hands back whatever
//! never ran so shutdown can answer every ticket.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Outcome of a non-blocking push.
pub(crate) enum TryPush<T> {
    /// Enqueued.
    Ok,
    /// At capacity; the item is handed back.
    Full(T),
    /// Closed; the item is handed back.
    Closed(T),
}

pub(crate) struct BoundedQueue<T> {
    cap: usize,
    state: Mutex<State<T>>,
    takeable: Condvar,
}

impl<T> BoundedQueue<T> {
    pub fn new(cap: usize) -> BoundedQueue<T> {
        BoundedQueue {
            cap: cap.max(1),
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            takeable: Condvar::new(),
        }
    }

    /// Lock, recovering from poison: the queue is a plain deque with no
    /// cross-field invariant, so a worker that panicked while holding the
    /// lock leaves it fully usable.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Admission-path push: refuses when full or closed.
    pub fn try_push_back(&self, item: T) -> TryPush<T> {
        let mut s = self.lock();
        if s.closed {
            return TryPush::Closed(item);
        }
        if s.items.len() >= self.cap {
            return TryPush::Full(item);
        }
        s.items.push_back(item);
        self.takeable.notify_one();
        TryPush::Ok
    }

    /// Retry-path push: jumps the line and ignores the capacity cap
    /// (bounded by the per-request retry cap, not admission control).
    /// Hands the item back if the queue has closed.
    pub fn push_front(&self, item: T) -> Option<T> {
        let mut s = self.lock();
        if s.closed {
            return Some(item);
        }
        s.items.push_front(item);
        self.takeable.notify_one();
        None
    }

    /// Block until an item is available; `None` once closed and drained.
    pub fn pop(&self) -> Option<T> {
        let mut s = self.lock();
        loop {
            if let Some(item) = s.items.pop_front() {
                return Some(item);
            }
            if s.closed {
                return None;
            }
            s = match self.takeable.wait(s) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    /// Close the queue and return everything that never ran. Blocked
    /// `pop` calls wake and observe the close.
    pub fn close_and_drain(&self) -> Vec<T> {
        let mut s = self.lock();
        s.closed = true;
        self.takeable.notify_all();
        s.items.drain(..).collect()
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn refuses_when_full_and_retries_jump_the_line() {
        let q = BoundedQueue::new(2);
        assert!(matches!(q.try_push_back(1), TryPush::Ok));
        assert!(matches!(q.try_push_back(2), TryPush::Ok));
        assert!(matches!(q.try_push_back(3), TryPush::Full(3)));
        // Retry path bypasses the cap and lands at the front.
        assert!(q.push_front(0).is_none());
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn close_wakes_blocked_consumers_and_returns_leftovers() {
        let q = Arc::new(BoundedQueue::<u32>::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.pop())
        };
        // Give the consumer a moment to block, then close.
        thread::sleep(std::time::Duration::from_millis(10));
        assert!(matches!(q.try_push_back(7), TryPush::Ok));
        assert!(matches!(q.try_push_back(8), TryPush::Ok));
        // The blocked consumer takes one; close drains the rest.
        let first = consumer.join().unwrap();
        assert!(first.is_some());
        let leftover = q.close_and_drain();
        assert_eq!(leftover.len(), 1);
        assert_eq!(q.pop(), None);
        assert!(matches!(q.try_push_back(9), TryPush::Closed(9)));
        assert_eq!(q.push_front(9), Some(9));
    }

    #[test]
    fn queue_survives_a_poisoning_panic() {
        let q = Arc::new(BoundedQueue::new(4));
        assert!(matches!(q.try_push_back(1u32), TryPush::Ok));
        let poisoner = Arc::clone(&q);
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let joined = thread::spawn(move || {
            let _guard = poisoner.state.lock().unwrap();
            panic!("injected panic while holding the queue lock");
        })
        .join();
        std::panic::set_hook(prev_hook);
        assert!(joined.is_err());
        assert!(q.state.lock().is_err(), "mutex must be poisoned");
        assert!(matches!(q.try_push_back(2), TryPush::Ok));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
    }
}
