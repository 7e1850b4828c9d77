//! The slab-backed calendar event queue.
//!
//! The scheduler used to order events in a `BinaryHeap<Reverse<(cycle,
//! seq, Ev)>>`: every push and pop paid `O(log n)` comparisons on a
//! three-field key. But simulated time is overwhelmingly *local* — an
//! event scheduled at cycle `t` spawns successors within a few hundred
//! cycles (route + cache latencies), so the live window of the queue is
//! tiny compared to the cycle space. [`EventQueue`] exploits that with a
//! calendar layout:
//!
//! * a **ring of per-cycle FIFO lists** covering `[base, base + WINDOW)`.
//!   Every entry lives in one slab (`Vec<Entry>`); a cycle slot is just a
//!   `(head, tail)` pair of slab indices in a fixed inline array, and each
//!   entry links to the next one of its cycle. A push inside the window
//!   takes a slab entry (the most recently freed one first, so it is still
//!   cache-hot) and links it at its cycle's tail — `O(1)`, and because
//!   pushes are numbered by a monotonic sequence counter, every list is in
//!   push order for free. A pop unlinks the head and returns the entry to
//!   the free list;
//! * a **sorted overflow spill** (a small binary heap) for the rare push
//!   outside the window — far-future events, or events behind `base`
//!   (arbitrary schedules; the engine itself never goes back in time).
//!
//! `pop` takes the overflow's top when its cycle is at or before the
//! ring's head cycle, and the ring's head otherwise. That is **exactly**
//! the `(cycle, seq, Ev)` total order the heap produced (`seq` is unique,
//! so the `Ev` field never participates in ordering), without storing
//! `seq` in the ring: the window only moves forward, so an overflow event
//! whose cycle the window has since reached was pushed before the window
//! covered that cycle — before every ring event of the same cycle — and
//! an event pushed behind `base` stays behind it. The slab and its
//! free list are invisible outside the queue: `len`, `pushes` and
//! `max_depth` count events, not entries. The differential proptest
//! below pins both against the reference heap on random schedules, and
//! the golden sweep snapshots pin the order end-to-end.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::state::Ev;

/// Ring width in cycles. Covers the longest single-event latency chain
/// (DRAM miss + LLC + L1 + routing ≈ 230 cycles) with slack; anything
/// further spills to the overflow heap.
const WINDOW: u64 = 1024;
const SLOTS: usize = WINDOW as usize;

/// "No entry": an empty cycle list, the end of a list, or an empty free
/// list.
const NIL: u32 = u32::MAX;

/// One queued event in the slab, linked to the next entry of its cycle
/// (or of the free list).
#[derive(Clone, Copy)]
struct Entry {
    ev: Ev,
    next: u32,
}

/// A calendar queue over `(cycle, seq, Ev)` with exact heap-order pops.
pub(crate) struct EventQueue {
    /// `(head, tail)` slab entries of each cycle slot's list (head
    /// [`NIL`] = empty; the tail is meaningful only while the head is
    /// not). Cycle `c` lives at `c % WINDOW` while
    /// `base <= c < base + WINDOW`. Each list is in push order.
    slots: [(u32, u32); SLOTS],
    /// Every ring entry ever allocated this run, queued or free.
    slab: Vec<Entry>,
    /// Head of the free list threaded through consumed slab entries.
    free: u32,
    /// Smallest cycle still mapped to the ring.
    base: u64,
    /// Queued entries across all cycle lists.
    ring_len: usize,
    /// Events outside the ring window (far future, or behind `base`).
    overflow: BinaryHeap<Reverse<(u64, u64, Ev)>>,
    /// Monotonic push counter: the overflow's deterministic tie-breaker.
    seq: u64,
    /// Total events ever pushed this run (telemetry).
    pushes: u64,
    /// High-water mark of the queue's live size (telemetry).
    max_depth: u64,
}

/// An empty queue allocates nothing, so the arena can swap queues in
/// and out with `mem::take`.
impl Default for EventQueue {
    fn default() -> Self {
        Self {
            slots: [(NIL, NIL); SLOTS],
            slab: Vec::new(),
            free: NIL,
            base: 0,
            ring_len: 0,
            overflow: BinaryHeap::new(),
            seq: 0,
            pushes: 0,
            max_depth: 0,
        }
    }
}

impl EventQueue {
    /// Empties the queue for a fresh run, keeping slab capacity.
    pub(crate) fn clear(&mut self) {
        self.slots.fill((NIL, NIL));
        self.slab.clear();
        self.free = NIL;
        self.base = 0;
        self.ring_len = 0;
        self.overflow.clear();
        self.seq = 0;
        self.pushes = 0;
        self.max_depth = 0;
    }

    /// Live events currently queued.
    pub(crate) fn len(&self) -> usize {
        self.ring_len + self.overflow.len()
    }

    /// Total events pushed since the last [`EventQueue::clear`].
    pub(crate) fn pushes(&self) -> u64 {
        self.pushes
    }

    /// High-water mark of [`EventQueue::len`] since the last clear.
    pub(crate) fn max_depth(&self) -> u64 {
        self.max_depth
    }

    #[inline]
    fn slot(cycle: u64) -> usize {
        (cycle % WINDOW) as usize
    }

    /// Schedules `ev` at `at`, tagged with the next sequence number.
    pub(crate) fn push(&mut self, at: u64, ev: Ev) {
        self.seq += 1;
        self.pushes += 1;
        if at >= self.base && at < self.base + WINDOW {
            let entry = Entry { ev, next: NIL };
            let idx = if self.free == NIL {
                let idx = u32::try_from(self.slab.len()).expect("live events fit u32");
                self.slab.push(entry);
                idx
            } else {
                let idx = self.free;
                self.free = self.slab[idx as usize].next;
                self.slab[idx as usize] = entry;
                idx
            };
            let (head, tail) = &mut self.slots[Self::slot(at)];
            if *head == NIL {
                *head = idx;
            } else {
                self.slab[*tail as usize].next = idx;
            }
            *tail = idx;
            self.ring_len += 1;
        } else {
            self.overflow.push(Reverse((at, self.seq, ev)));
        }
        let depth = self.len() as u64;
        if depth > self.max_depth {
            self.max_depth = depth;
        }
    }

    /// Pops the minimum `(cycle, seq)` event — exactly the order the
    /// reference binary heap would produce.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<(u64, Ev)> {
        if self.ring_len == 0 {
            // Ring empty: serve the overflow and jump the window forward
            // so successor pushes land in the ring again.
            let Reverse((at, _, ev)) = self.overflow.pop()?;
            self.base = self.base.max(at);
            return Some((at, ev));
        }
        // Advance to the ring's next non-empty cycle.
        let mut slot = Self::slot(self.base);
        while self.slots[slot].0 == NIL {
            self.base += 1;
            slot = Self::slot(self.base);
        }
        // The overflow can hold an earlier event: a past-cycle push, or
        // an equal-cycle push made while the window sat further back (and
        // so before every ring event of that cycle).
        if let Some(&Reverse((o_at, _, _))) = self.overflow.peek() {
            if o_at <= self.base {
                let Reverse((at, _, ev)) = self.overflow.pop().expect("peeked");
                return Some((at, ev));
            }
        }
        let idx = self.slots[slot].0;
        let Entry { ev, next } = self.slab[idx as usize];
        self.slots[slot].0 = next;
        self.slab[idx as usize].next = self.free;
        self.free = idx;
        self.ring_len -= 1;
        Some((self.base, ev))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nachos_ir::NodeId;
    use proptest::prelude::*;

    /// The reference implementation the queue must match event-for-event.
    #[derive(Default)]
    struct HeapQueue {
        heap: BinaryHeap<Reverse<(u64, u64, Ev)>>,
        seq: u64,
    }

    impl HeapQueue {
        fn push(&mut self, at: u64, ev: Ev) {
            self.seq += 1;
            self.heap.push(Reverse((at, self.seq, ev)));
        }

        fn pop(&mut self) -> Option<(u64, Ev)> {
            self.heap.pop().map(|Reverse((at, _, ev))| (at, ev))
        }
    }

    fn ev(i: usize) -> Ev {
        match i % 5 {
            0 => Ev::Data(NodeId::new(i)),
            1 => Ev::Token(NodeId::new(i)),
            2 => Ev::Release(NodeId::new(i)),
            3 => Ev::TryMem(NodeId::new(i)),
            _ => Ev::Complete(NodeId::new(i)),
        }
    }

    #[test]
    fn fifo_within_a_cycle() {
        let mut q = EventQueue::default();
        q.push(5, ev(0));
        q.push(5, ev(1));
        q.push(3, ev(2));
        assert_eq!(q.pop(), Some((3, ev(2))));
        assert_eq!(q.pop(), Some((5, ev(0))));
        assert_eq!(q.pop(), Some((5, ev(1))));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn far_future_spills_and_returns() {
        let mut q = EventQueue::default();
        q.push(0, ev(0));
        q.push(WINDOW * 10, ev(1)); // overflow
        assert_eq!(q.pop(), Some((0, ev(0))));
        // Window jumps to the overflow event; successors bucket normally.
        assert_eq!(q.pop(), Some((WINDOW * 10, ev(1))));
        q.push(WINDOW * 10 + 1, ev(2));
        assert_eq!(q.pop(), Some((WINDOW * 10 + 1, ev(2))));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn past_push_wins_over_ring_head() {
        let mut q = EventQueue::default();
        q.push(100, ev(0));
        assert_eq!(q.pop(), Some((100, ev(0))));
        q.push(200, ev(1));
        assert_eq!(q.pop(), Some((200, ev(1)))); // base is now 200
        q.push(300, ev(2));
        q.push(50, ev(3)); // behind base: overflow
        assert_eq!(q.pop(), Some((50, ev(3))));
        assert_eq!(q.pop(), Some((300, ev(2))));
    }

    #[test]
    fn equal_cycle_across_ring_and_overflow_pops_in_seq_order() {
        let mut q = EventQueue::default();
        // seq 1 lands in the overflow (outside the initial window)...
        q.push(WINDOW + 7, ev(0));
        q.push(0, ev(1));
        assert_eq!(q.pop(), Some((0, ev(1))));
        // drain moves base forward only via pops; push the same cycle
        // into the ring once the window covers it.
        q.push(WINDOW - 1, ev(2));
        assert_eq!(q.pop(), Some((WINDOW - 1, ev(2)))); // base = WINDOW-1
        q.push(WINDOW + 7, ev(3)); // ring, seq 4
                                   // Overflow's seq-1 event at the same cycle must pop first.
        assert_eq!(q.pop(), Some((WINDOW + 7, ev(0))));
        assert_eq!(q.pop(), Some((WINDOW + 7, ev(3))));
    }

    #[test]
    fn stats_track_pushes_and_depth() {
        let mut q = EventQueue::default();
        for i in 0..10 {
            q.push(i, ev(i as usize));
        }
        assert_eq!(q.pushes(), 10);
        assert_eq!(q.max_depth(), 10);
        while q.pop().is_some() {}
        assert_eq!(q.max_depth(), 10);
        q.clear();
        assert_eq!(q.pushes(), 0);
        assert_eq!(q.len(), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Differential: on arbitrary interleaved push/pop/clear
        /// schedules — including past-cycle pushes and far jumps the
        /// engine itself never produces — the calendar queue pops the
        /// exact sequence of the reference binary heap, and after every
        /// operation its telemetry (`len`, `pushes`, `max_depth`) equals
        /// a count kept beside the heap. A `clear` mid-schedule leaves
        /// the slab's free list behind; nothing of it may show.
        #[test]
        fn matches_binary_heap_on_random_schedules(
            ops in proptest::collection::vec((any::<u16>(), 0u8..5), 1..300),
        ) {
            let mut q = EventQueue::default();
            let mut h = HeapQueue::default();
            let (mut pushes, mut max_depth) = (0u64, 0u64);
            for (i, &(raw, kind)) in ops.iter().enumerate() {
                match kind {
                    3 => prop_assert_eq!(q.pop(), h.pop()),
                    4 if raw % 4 == 0 => {
                        q.clear();
                        h = HeapQueue::default();
                        pushes = 0;
                        max_depth = 0;
                    }
                    4 => prop_assert_eq!(q.pop(), h.pop()),
                    _ => {
                        // Mix tight clusters, far jumps and megacycle spills.
                        let at = match kind {
                            0 => u64::from(raw) % 64,
                            1 => u64::from(raw),
                            _ => u64::from(raw) * 97,
                        };
                        q.push(at, ev(i));
                        h.push(at, ev(i));
                        pushes += 1;
                        max_depth = max_depth.max(h.heap.len() as u64);
                    }
                }
                prop_assert_eq!(q.len(), h.heap.len());
                prop_assert_eq!(q.pushes(), pushes);
                prop_assert_eq!(q.max_depth(), max_depth);
            }
            loop {
                let (a, b) = (q.pop(), h.pop());
                prop_assert_eq!(a, b);
                prop_assert_eq!(q.len(), h.heap.len());
                prop_assert_eq!(q.pushes(), pushes);
                prop_assert_eq!(q.max_depth(), max_depth);
                if a.is_none() {
                    break;
                }
            }
        }
    }
}
