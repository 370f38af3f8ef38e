//! Bounded MPSC queues with an explicit backpressure policy.
//!
//! Every shard worker drains one [`BoundedQueue`]. The queue is the only
//! place the service can fall behind its producers, so the overload
//! behaviour is a first-class, configurable decision rather than an
//! accident of buffer sizes:
//!
//! - [`BackpressurePolicy::Block`] — producers wait for space. Ingest is
//!   lossless; a slow shard slows its producers (the batch-replay and
//!   parity-test mode).
//! - [`BackpressurePolicy::Shed`] — a full queue rejects the span, the
//!   service counts it ([`crate::metrics::ServiceMetrics::spans_shed`]),
//!   and the producer moves on (the overload-survival mode).
//!
//! Control messages (watermarks, flush barriers) always use the blocking
//! push: shedding a watermark would silently stall the frozen integral,
//! which is a correctness bug rather than load shedding.
//!
//! The queue also supports *pausing* consumers, which the lifecycle layer
//! uses to freeze one shard deterministically (and tests use to fill a
//! queue and observe the policy instead of racing the worker). Two wakeup
//! rules keep pause/resume well-behaved:
//!
//! - `close` overrides `pause`: a paused consumer still drains and
//!   terminates once the queue closes, so shutdown never deadlocks on a
//!   forgotten `resume` (the lost-wakeup case).
//! - `resume` hands *one* blocked pusher a wakeup (`notify_one`), and
//!   every subsequent pop chains the next one — never a `notify_all`
//!   stampede of producers racing for a single slot (the thundering-herd
//!   case).
//!
//! For the auto-scaler, the queue keeps a [`BoundedQueue::high_water_mark`]
//! gauge: the deepest the queue has been since the gauge was last taken.
//! Queue depth is the earliest overload signal the service has — it rises
//! before anything is shed or late.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{LockResult, PoisonError};

use crate::tracked::{TrackedCondvar, TrackedMutex};

/// What a producer experiences when the queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackpressurePolicy {
    /// Wait for the consumer to make space (lossless, producers stall).
    Block,
    /// Drop the offered item and count it (lossy, producers never stall).
    Shed,
}

/// Outcome of offering an item to a queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// The item was enqueued.
    Accepted,
    /// The queue was full under [`BackpressurePolicy::Shed`]; the item was
    /// dropped.
    Shed,
    /// The queue was closed; the item was dropped.
    Closed,
}

#[derive(Debug)]
struct State<T> {
    items: VecDeque<T>,
    closed: bool,
    paused: bool,
}

/// A bounded FIFO shared between producers and one consumer thread.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    capacity: usize,
    state: TrackedMutex<State<T>>,
    /// Signalled when space appears (producers wait here under `Block`).
    not_full: TrackedCondvar,
    /// Signalled when an item appears, the queue closes, or pause lifts.
    not_empty: TrackedCondvar,
    /// Deepest the queue has been since the gauge was last taken.
    high_water: AtomicUsize,
}

fn relock<G>(r: LockResult<G>) -> G {
    // A poisoned lock means another thread panicked mid-push/pop; the queue
    // state itself is still structurally valid (VecDeque ops don't tear),
    // so serving degraded beats deadlocking the whole service.
    r.unwrap_or_else(PoisonError::into_inner)
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            capacity: capacity.max(1),
            state: TrackedMutex::new(
                "queue",
                State { items: VecDeque::new(), closed: false, paused: false },
            ),
            not_full: TrackedCondvar::new(),
            not_empty: TrackedCondvar::new(),
            high_water: AtomicUsize::new(0),
        }
    }

    /// Enqueue, waiting for space if full. Returns [`PushOutcome::Closed`]
    /// if the queue closed while waiting.
    pub fn push_blocking(&self, item: T) -> PushOutcome {
        let mut st = relock(self.state.lock()); // lock: queue
        while st.items.len() >= self.capacity && !st.closed {
            st = relock(self.not_full.wait(st));
        }
        if st.closed {
            return PushOutcome::Closed;
        }
        st.items.push_back(item);
        self.note_depth(st.items.len());
        self.not_empty.notify_one();
        PushOutcome::Accepted
    }

    /// Enqueue only if space is available right now.
    pub fn try_push(&self, item: T) -> PushOutcome {
        let mut st = relock(self.state.lock()); // lock: queue
        if st.closed {
            return PushOutcome::Closed;
        }
        if st.items.len() >= self.capacity {
            return PushOutcome::Shed;
        }
        st.items.push_back(item);
        self.note_depth(st.items.len());
        self.not_empty.notify_one();
        PushOutcome::Accepted
    }

    /// Enqueue a whole group of items with one lock acquisition per burst
    /// of available space instead of one per item — the producer-side
    /// twin of [`BoundedQueue::pop_batch`], and what makes a batched
    /// ingest request cheaper than its per-span equivalent.
    ///
    /// Under [`BackpressurePolicy::Block`] the call waits for space
    /// whenever the queue fills mid-group, so it is lossless like
    /// [`BoundedQueue::push_blocking`]; under [`BackpressurePolicy::Shed`]
    /// whatever does not fit *right now* is dropped and counted. Returns
    /// `(accepted, dropped)`; `dropped` covers both shed items and items
    /// offered after the queue closed. The consumer gets one wakeup per
    /// empty→non-empty transition, not one per item: a single consumer
    /// drains everything it was woken for.
    pub fn push_many(&self, items: Vec<T>, policy: BackpressurePolicy) -> (u64, u64) {
        let total = items.len() as u64;
        let mut accepted = 0u64;
        let mut it = items.into_iter().peekable();
        let mut st = relock(self.state.lock()); // lock: queue
        while it.peek().is_some() {
            if st.closed {
                return (accepted, total - accepted);
            }
            let was_empty = st.items.is_empty();
            while st.items.len() < self.capacity {
                match it.next() {
                    // bound: at most `capacity` items seated per burst
                    Some(item) => {
                        st.items.push_back(item);
                        accepted += 1;
                    }
                    None => break,
                }
            }
            self.note_depth(st.items.len());
            if was_empty && !st.items.is_empty() {
                self.not_empty.notify_one();
            }
            if it.peek().is_some() {
                match policy {
                    BackpressurePolicy::Block => st = relock(self.not_full.wait(st)),
                    BackpressurePolicy::Shed => return (accepted, total - accepted),
                }
            }
        }
        (accepted, 0)
    }

    /// Dequeue, blocking until an item is available (and the queue is not
    /// paused). Returns `None` once the queue is closed *and* drained —
    /// the consumer's termination signal.
    ///
    /// `close` overrides `pause`: a paused queue that closes still drains
    /// and terminates, so a worker can always be joined.
    pub fn pop(&self) -> Option<T> {
        let mut st = relock(self.state.lock()); // lock: queue
        loop {
            if !st.paused || st.closed {
                if let Some(item) = st.items.pop_front() {
                    self.not_full.notify_one();
                    return Some(item);
                }
                if st.closed {
                    return None;
                }
            }
            st = relock(self.not_empty.wait(st));
        }
    }

    /// Dequeue up to `max` items in one lock acquisition, appending them
    /// to `out` in arrival order. Blocks like [`BoundedQueue::pop`] until
    /// at least one item is available (pause-aware, close-overrides-pause);
    /// returns `false` once the queue is closed *and* drained.
    ///
    /// `stop` marks control items that must terminate a batch: the first
    /// matching item is *included* as the batch's last element and nothing
    /// after it is taken, so the consumer can apply the plain prefix as a
    /// unit and then handle the control item alone (the shard worker stops
    /// at `Crash`).
    ///
    /// Wakeups: a batch frees up to `max` slots at once, so blocked
    /// pushers get a `notify_all` when more than one slot opened (each
    /// freed slot can seat a distinct producer — this is a handoff of many
    /// slots, not the single-slot chain `pop` uses).
    pub fn pop_batch(&self, max: usize, stop: impl Fn(&T) -> bool, out: &mut Vec<T>) -> bool {
        let max = max.max(1);
        let mut st = relock(self.state.lock()); // lock: queue
        loop {
            if !st.paused || st.closed {
                if !st.items.is_empty() {
                    while out.len() < max {
                        match st.items.pop_front() {
                            Some(item) => {
                                let is_stop = stop(&item);
                                // bound: at most `max` items per batch
                                out.push(item);
                                if is_stop {
                                    break;
                                }
                            }
                            None => break,
                        }
                    }
                    if out.len() > 1 {
                        self.not_full.notify_all();
                    } else {
                        self.not_full.notify_one();
                    }
                    return true;
                }
                if st.closed {
                    return false;
                }
            }
            st = relock(self.not_empty.wait(st));
        }
    }

    /// Close the queue: producers are rejected, the consumer drains what
    /// remains and then sees `None` (even if the queue is paused).
    pub fn close(&self) {
        let mut st = relock(self.state.lock()); // lock: queue
        st.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Halt the consumer (items accumulate). The lifecycle fence freezes
    /// one shard with this; tests use it for deterministic backpressure
    /// scenarios.
    pub fn pause(&self) {
        relock(self.state.lock()).paused = true; // lock: queue
    }

    /// Resume a paused consumer.
    ///
    /// Wakes every parked consumer (they re-check the pause flag under the
    /// lock, so extra wakeups are harmless re-checks, and the server's
    /// multi-consumer connection queue needs all of them looking again) —
    /// but blocked *pushers* get exactly one `notify_one`: the first one
    /// re-checks capacity immediately, and each subsequent pop chains the
    /// next. A `notify_all` here would stampede every blocked producer at
    /// a queue that still has at most one free slot.
    pub fn resume(&self) {
        let mut st = relock(self.state.lock()); // lock: queue
        st.paused = false;
        self.not_empty.notify_all();
        self.not_full.notify_one();
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        relock(self.state.lock()).items.len() // lock: queue
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current depth — alias of [`BoundedQueue::len`] named for the
    /// metrics surface.
    pub fn depth(&self) -> usize {
        self.len()
    }

    /// Deepest the queue has been since the gauge was last
    /// [taken](BoundedQueue::take_high_water_mark).
    pub fn high_water_mark(&self) -> usize {
        // ordering: monotone gauge read for reporting, never for synchronization
        self.high_water.load(Ordering::Relaxed)
    }

    /// Read and reset the high-water mark — the auto-scaler's sampling
    /// primitive: each sample sees the worst depth of its own interval.
    pub fn take_high_water_mark(&self) -> usize {
        // ordering: gauge swap is its own atom; no other memory rides on it
        self.high_water.swap(0, Ordering::Relaxed)
    }

    fn note_depth(&self, depth: usize) {
        // ordering: lossy statistic; the queue mutex already orders the depth
        self.high_water.fetch_max(depth, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn shed_policy_drops_when_full_and_counts_nothing_silently() {
        let q = BoundedQueue::new(2);
        q.pause();
        assert_eq!(q.try_push(1), PushOutcome::Accepted);
        assert_eq!(q.try_push(2), PushOutcome::Accepted);
        assert_eq!(q.try_push(3), PushOutcome::Shed);
        assert_eq!(q.len(), 2);
        q.resume();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_push(4), PushOutcome::Accepted);
    }

    #[test]
    fn block_policy_waits_for_space() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push_blocking(0);
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push_blocking(1));
        // The producer is blocked on a full queue until we pop.
        assert_eq!(q.pop(), Some(0));
        assert_eq!(producer.join().unwrap(), PushOutcome::Accepted);
        assert_eq!(q.pop(), Some(1));
    }

    #[test]
    fn close_drains_then_terminates() {
        let q: BoundedQueue<u32> = BoundedQueue::new(4);
        q.push_blocking(7);
        q.close();
        assert_eq!(q.push_blocking(8), PushOutcome::Closed);
        assert_eq!(q.try_push(9), PushOutcome::Closed);
        assert_eq!(q.pop(), Some(7));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_unblocks_waiting_producer() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push_blocking(0);
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push_blocking(1));
        // Give the producer a chance to park, then close under it.
        std::thread::yield_now();
        q.close();
        assert_eq!(producer.join().unwrap(), PushOutcome::Closed);
    }

    /// The lost-wakeup regression: closing a *paused* queue must still let
    /// the consumer drain and terminate. Before the fix, `pop` skipped the
    /// `closed` check while paused and parked forever.
    #[test]
    fn close_overrides_pause_so_shutdown_terminates() {
        let q = Arc::new(BoundedQueue::new(4));
        q.push_blocking(1);
        q.push_blocking(2);
        q.pause();
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || {
            let mut got = Vec::new();
            while let Some(v) = q2.pop() {
                got.push(v);
            }
            got
        });
        // Consumer is parked on the pause. Close without resuming.
        std::thread::yield_now();
        q.close();
        assert_eq!(consumer.join().unwrap(), vec![1, 2]);
    }

    /// Pushers blocked across a pause all complete after resume, and every
    /// item is conserved: the single-notify handoff chains through pops
    /// without losing a producer.
    #[test]
    fn resume_wakes_blocked_pushers_without_loss() {
        const PUSHERS: usize = 4;
        let q = Arc::new(BoundedQueue::new(2));
        q.pause();
        q.push_blocking(100);
        q.push_blocking(101);
        let producers: Vec<_> = (0..PUSHERS)
            .map(|i| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.push_blocking(i as u32))
            })
            .collect();
        // All four are parked on a full, paused queue.
        std::thread::yield_now();
        q.resume();
        let mut drained = Vec::new();
        for _ in 0..(PUSHERS + 2) {
            drained.push(q.pop().expect("queue should hold every pushed item"));
        }
        for p in producers {
            assert_eq!(p.join().unwrap(), PushOutcome::Accepted);
        }
        drained.sort_unstable();
        assert_eq!(drained, vec![0, 1, 2, 3, 100, 101]);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_batch_takes_a_prefix_and_stops_at_control_items() {
        let q = BoundedQueue::new(16);
        for v in [1, 2, 99, 3, 4] {
            q.push_blocking(v);
        }
        let mut batch = Vec::new();
        // 99 is the "crash": included as the last element, nothing after.
        assert!(q.pop_batch(16, |v| *v == 99, &mut batch));
        assert_eq!(batch, vec![1, 2, 99]);
        batch.clear();
        assert!(q.pop_batch(2, |v| *v == 99, &mut batch));
        assert_eq!(batch, vec![3, 4], "max caps the batch");
        q.close();
        batch.clear();
        assert!(!q.pop_batch(16, |v| *v == 99, &mut batch), "closed + drained");
        assert!(batch.is_empty());
    }

    #[test]
    fn pop_batch_unblocks_many_pushers_at_once() {
        const PUSHERS: usize = 4;
        let q = Arc::new(BoundedQueue::new(PUSHERS));
        for i in 0..PUSHERS {
            q.push_blocking(i as u32);
        }
        let producers: Vec<_> = (0..PUSHERS)
            .map(|i| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.push_blocking(100 + i as u32))
            })
            .collect();
        std::thread::yield_now();
        let mut batch = Vec::new();
        assert!(q.pop_batch(PUSHERS, |_| false, &mut batch));
        assert_eq!(batch.len(), PUSHERS, "one lock drains the whole prefix");
        for p in producers {
            assert_eq!(p.join().unwrap(), PushOutcome::Accepted);
        }
        batch.clear();
        assert!(q.pop_batch(PUSHERS, |_| false, &mut batch));
        assert_eq!(batch.len(), PUSHERS);
    }

    #[test]
    fn high_water_mark_tracks_and_resets() {
        let q = BoundedQueue::new(8);
        assert_eq!(q.high_water_mark(), 0);
        q.push_blocking(1);
        q.push_blocking(2);
        q.push_blocking(3);
        assert_eq!(q.depth(), 3);
        assert_eq!(q.high_water_mark(), 3);
        let _ = q.pop();
        let _ = q.pop();
        // Gauge keeps the worst depth, not the current one.
        assert_eq!(q.depth(), 1);
        assert_eq!(q.high_water_mark(), 3);
        assert_eq!(q.take_high_water_mark(), 3);
        // After taking, the gauge restarts from the activity that follows.
        assert_eq!(q.high_water_mark(), 0);
        q.push_blocking(4);
        assert_eq!(q.high_water_mark(), 2);
    }
}
