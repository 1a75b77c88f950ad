//! The bounded admission queue.
//!
//! A fixed-capacity ring over a preallocated `Vec<Option<T>>` guarded
//! by one mutex and one condvar. There is deliberately **no**
//! `VecDeque` and no `mpsc::channel` here (lint L011): the queue's
//! whole reason to exist is that it can refuse work — [`try_push`]
//! returns the rejected item instead of growing, which is what turns
//! overload into an explicit `429` instead of an unbounded buffer.
//!
//! [`try_push`]: BoundedQueue::try_push

use std::sync::{Condvar, Mutex};

struct Ring<T> {
    slots: Vec<Option<T>>,
    head: usize,
    len: usize,
    closed: bool,
}

/// A blocking MPMC queue with a hard capacity.
pub struct BoundedQueue<T> {
    ring: Mutex<Ring<T>>,
    not_empty: Condvar,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let mut slots = Vec::with_capacity(capacity);
        slots.resize_with(capacity, || None);
        BoundedQueue {
            ring: Mutex::new(Ring {
                slots,
                head: 0,
                len: 0,
                closed: false,
            }),
            not_empty: Condvar::new(),
        }
    }

    /// The fixed capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.ring.lock().map_or(0, |r| r.slots.len())
    }

    /// Current occupancy.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.ring.lock().map_or(0, |r| r.len)
    }

    /// Enqueues `item`, or hands it back when the queue is full or
    /// closed. On success returns the depth *after* the push — the
    /// admission-control signal shedding tiers key off.
    ///
    /// # Errors
    ///
    /// Returns `Err(item)` (ownership back to the caller) when full or
    /// closed; the queue never grows past its capacity.
    pub fn try_push(&self, item: T) -> Result<usize, T> {
        let Ok(mut ring) = self.ring.lock() else {
            return Err(item);
        };
        if ring.closed || ring.len == ring.slots.len() {
            return Err(item);
        }
        let cap = ring.slots.len();
        // lint:allow(L012): `new()` clamps capacity to >= 1, so `cap > 0`
        let tail = (ring.head + ring.len) % cap;
        // lint:allow(L012): `tail < cap` from the modulo above
        ring.slots[tail] = Some(item);
        ring.len += 1;
        let depth = ring.len;
        drop(ring);
        self.not_empty.notify_one();
        Ok(depth)
    }

    /// Blocks until an item is available or the queue is closed and
    /// drained; `None` means shut down.
    pub fn pop(&self) -> Option<T> {
        let Ok(mut ring) = self.ring.lock() else {
            return None;
        };
        loop {
            if ring.len > 0 {
                let head = ring.head;
                // lint:allow(L012): `head < cap` is the ring invariant
                let item = ring.slots[head].take();
                let cap = ring.slots.len();
                // lint:allow(L012): `new()` clamps capacity to >= 1, so `cap > 0`
                ring.head = (ring.head + 1) % cap;
                ring.len -= 1;
                return item;
            }
            if ring.closed {
                return None;
            }
            ring = self.not_empty.wait(ring).ok()?;
        }
    }

    /// Removes every queued item `selected` picks, keeping the rest in
    /// order, and returns how many were removed. A batch shed at
    /// admission withdraws the jobs it already queued this way, so they
    /// stop holding slots that the next request needs.
    pub fn withdraw(&self, mut selected: impl FnMut(&T) -> bool) -> usize {
        let Ok(mut ring) = self.ring.lock() else {
            return 0;
        };
        let ring = &mut *ring;
        let (head, len) = (ring.head, ring.len);
        // Rotate the live items to the front, then compact them there.
        ring.slots.rotate_left(head);
        ring.head = 0;
        let mut kept = 0;
        for from in 0..len {
            let Some(item) = ring.slots.get_mut(from).and_then(Option::take) else {
                continue;
            };
            if selected(&item) {
                continue;
            }
            if let Some(slot) = ring.slots.get_mut(kept) {
                *slot = Some(item);
            }
            kept += 1;
        }
        ring.len = kept;
        len - kept
    }

    /// Closes the queue: pushes start failing, pops drain what is left
    /// and then return `None`. Idempotent.
    pub fn close(&self) {
        if let Ok(mut ring) = self.ring.lock() {
            ring.closed = true;
        }
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_and_depth() {
        let q = BoundedQueue::new(4);
        assert_eq!(q.capacity(), 4);
        assert_eq!(q.try_push(1), Ok(1));
        assert_eq!(q.try_push(2), Ok(2));
        assert_eq!(q.depth(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn full_queue_refuses_and_returns_the_item() {
        let q = BoundedQueue::new(2);
        assert!(q.try_push("a").is_ok());
        assert!(q.try_push("b").is_ok());
        assert_eq!(q.try_push("c"), Err("c"));
        assert_eq!(q.depth(), 2, "rejected push must not grow the queue");
        // Draining one slot re-opens admission.
        assert_eq!(q.pop(), Some("a"));
        assert!(q.try_push("c").is_ok());
    }

    #[test]
    fn close_drains_then_returns_none() {
        let q = BoundedQueue::new(2);
        q.try_push(7).unwrap();
        q.close();
        assert_eq!(q.try_push(8), Err(8), "closed queue refuses pushes");
        assert_eq!(q.pop(), Some(7), "close still drains queued work");
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q = Arc::new(BoundedQueue::<u32>::new(1));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        // Give the consumer a moment to block, then close.
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
    }

    #[test]
    fn withdraw_frees_slots_and_keeps_the_rest_in_order() {
        let q = BoundedQueue::new(4);
        // Wrap the ring first so the live items straddle the end.
        q.try_push(0).unwrap();
        q.try_push(0).unwrap();
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), Some(0));
        for item in [1, 20, 3, 40] {
            q.try_push(item).unwrap();
        }
        assert_eq!(q.try_push(5), Err(5), "full before the withdrawal");
        assert_eq!(q.withdraw(|&item| item >= 10), 2);
        assert_eq!(q.depth(), 2);
        assert_eq!(q.try_push(5), Ok(3), "withdrawn slots admit new work");
        assert_eq!(q.withdraw(|_| false), 0);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), Some(5));
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn wraparound_preserves_order() {
        let q = BoundedQueue::new(3);
        for round in 0..10 {
            q.try_push(round * 2).unwrap();
            q.try_push(round * 2 + 1).unwrap();
            assert_eq!(q.pop(), Some(round * 2));
            assert_eq!(q.pop(), Some(round * 2 + 1));
        }
    }
}
