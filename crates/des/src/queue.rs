//! The pending-event set: a binary heap of keys over an arena of payloads.
//!
//! Sized to the traffic the workspace actually produces, measured rather
//! than guessed: of the 11 registered scenarios only the Fig. 1 trace replay
//! schedules events at all, and it never holds more than a few hundred at
//! once (178 at its defaults; `cluster::trace` has a test that fails if the
//! peak ever passes 1024). At that population a calendar queue measured
//! no better than `std`'s heap on any end-to-end metric, so the heap it is;
//! README's "The event engine" section carries the traffic table and the
//! heap-vs-wheel measurements. Two pieces:
//!
//! * **Arena.** Every scheduled payload lives in a slot of a slab (`Vec`
//!   plus free list). An [`EventId`] packs `(generation, slot index)`, so
//!   cancellation is an O(1) slot lookup that drops the payload in place —
//!   no tombstone set, no heap scan — and a stale id (already fired, already
//!   cancelled, or from a recycled slot) is rejected by the generation check.
//! * **Heap.** A `BinaryHeap` of `Reverse((time, seq, slot))`. Ordering
//!   reads only the keys, never the arena. A cancelled event's key stays in
//!   the heap until it surfaces at the top, where `pop`/`peek` discard it
//!   and release its slot — which, once nothing live remains, empties the
//!   heap and frees every slot, so a long-lived engine keeps no dead slots.
//!
//! # Payloads
//!
//! The queue is generic over its payload `T`; the engine instantiates it
//! with boxed event closures (`Box<dyn FnOnce(&mut Simulation) + Send>`).
//! The contract is plain ownership: a slot's `Option<T>` is `take`n on fire,
//! `None`d on cancel, and dropped with the queue, so each payload is
//! finalized exactly once — `tests/drop_correctness.rs` counts the drops
//! under randomized schedule/cancel/drain interleavings.
//!
//! Execution order is exactly ascending `(time, seq)`, which
//! `tests/determinism.rs` enforces against an independent reference engine
//! and `tests/queue_properties.rs` against a sorted model under randomized
//! interleavings.
//!
//! The queue itself is time-agnostic: it never rejects a push "in the past",
//! and a push earlier than a head that [`crate::Simulation::run_until`]
//! already peeked at simply becomes the new head. Causality is the engine's
//! job, enforced by [`crate::Simulation::schedule_at`].

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Opaque handle identifying a scheduled event so it can be cancelled.
///
/// Packs `(slot generation, slot index)`; a handle goes stale — and
/// [`EventQueue::cancel`] returns `false` — as soon as the event fires or
/// is cancelled, even if the slot is later recycled. Deliberately not
/// `Ord`: slot recycling makes any ordering of handles meaningless (the
/// seed implementation's ids happened to sort in scheduling order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

impl EventId {
    #[inline]
    fn pack(gen: u32, idx: u32) -> Self {
        EventId((u64::from(gen) << 32) | u64::from(idx))
    }

    #[inline]
    fn unpack(self) -> (u32, u32) {
        ((self.0 >> 32) as u32, self.0 as u32)
    }
}

/// One arena slot: the payload and the generation that validates handles.
/// `payload: None` with the slot's key still in the heap marks a cancelled
/// event, reclaimed when that key reaches the top (or the queue runs dry).
struct Slot<T> {
    gen: u32,
    payload: Option<T>,
}

/// Arena-backed event queue ordered by ascending `(SimTime, seq)`.
///
/// `seq` values must be unique (the engine uses a monotone counter), which
/// makes the order total.
pub struct EventQueue<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    /// One `(time, seq, slot)` key per occupied slot, cancelled ones
    /// included: `(time, seq)` orders it, the slot index finds the payload.
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    /// Live (non-cancelled) events — the exact pending count.
    live: usize,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    pub fn new() -> Self {
        EventQueue {
            slots: Vec::new(),
            free: Vec::new(),
            heap: BinaryHeap::new(),
            live: 0,
        }
    }

    /// Number of live (schedulable, non-cancelled) events. Exact: cancelled
    /// entries are subtracted the moment [`EventQueue::cancel`] succeeds,
    /// and popped events can never be re-cancelled.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Schedule `payload` at `(at, seq)`. `seq` must be unique across the
    /// queue's lifetime — the engine's monotone event counter.
    pub fn push(&mut self, at: SimTime, seq: u64, payload: T) -> EventId {
        let idx = if let Some(idx) = self.free.pop() {
            self.slots[idx as usize].payload = Some(payload);
            idx
        } else {
            let idx = u32::try_from(self.slots.len()).expect("event arena exceeds u32 slots");
            self.slots.push(Slot {
                gen: 0,
                payload: Some(payload),
            });
            idx
        };
        self.heap.push(Reverse((at, seq, idx)));
        self.live += 1;
        EventId::pack(self.slots[idx as usize].gen, idx)
    }

    /// Cancel a pending event. O(1): drops the payload in its slot and
    /// leaves the key to be discarded when it reaches the top of the heap.
    /// Returns `false` for anything not currently pending (already fired,
    /// already cancelled, never scheduled here).
    pub fn cancel(&mut self, id: EventId) -> bool {
        let (gen, idx) = id.unpack();
        match self.slots.get_mut(idx as usize) {
            Some(s) if s.gen == gen && s.payload.is_some() => {
                s.payload = None;
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Remove and return the earliest live event as `(at, seq, payload)`,
    /// reclaiming the cancelled keys that sorted before it.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        while let Some(Reverse((at, seq, idx))) = self.heap.pop() {
            let payload = self.slots[idx as usize].payload.take();
            self.release(idx);
            if let Some(payload) = payload {
                self.live -= 1;
                return Some((at, seq, payload));
            }
        }
        None
    }

    /// `(at, seq)` of the earliest live event without removing it. Takes
    /// `&mut self` because it reclaims the cancelled keys sorted before it —
    /// all of them, when nothing live is left.
    pub fn peek(&mut self) -> Option<(SimTime, u64)> {
        while let Some(&Reverse((at, seq, idx))) = self.heap.peek() {
            if self.slots[idx as usize].payload.is_some() {
                return Some((at, seq));
            }
            self.heap.pop();
            self.release(idx);
        }
        None
    }

    /// Return a payload-free slot whose key has left the heap to the free
    /// list. Bumping the generation here is what invalidates outstanding
    /// [`EventId`]s.
    fn release(&mut self, idx: u32) {
        let s = &mut self.slots[idx as usize];
        debug_assert!(s.payload.is_none(), "releasing a live slot");
        s.gen = s.gen.wrapping_add(1);
        self.free.push(idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut EventQueue<u32>) -> Vec<(u64, u64, u32)> {
        let mut out = Vec::new();
        while let Some((at, seq, p)) = q.pop() {
            out.push((at.as_nanos(), seq, p));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(300), 0, 0);
        q.push(SimTime::from_nanos(100), 1, 1);
        q.push(SimTime::from_nanos(100), 2, 2);
        q.push(SimTime::from_nanos(200), 3, 3);
        assert_eq!(q.len(), 4);
        assert_eq!(
            drain(&mut q),
            vec![(100, 1, 1), (100, 2, 2), (200, 3, 3), (300, 0, 0)]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3600), 0, 10);
        q.push(SimTime::from_nanos(5), 1, 11);
        q.push(SimTime::from_days(2), 2, 12);
        let order: Vec<u32> = drain(&mut q).into_iter().map(|(_, _, p)| p).collect();
        assert_eq!(order, vec![11, 10, 12]);
    }

    #[test]
    fn cancel_is_exact_and_single_shot() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::from_nanos(10), 0, 0);
        let b = q.push(SimTime::from_nanos(20), 1, 1);
        assert_eq!(q.len(), 2);
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel is a no-op");
        assert_eq!(q.len(), 1, "pending count excludes the cancelled event");
        assert_eq!(drain(&mut q), vec![(20, 1, 1)]);
        assert!(!q.cancel(b), "cancelling a fired event is a no-op");
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn recycled_slot_does_not_honour_stale_ids() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::from_nanos(10), 0, 0);
        assert!(q.cancel(a));
        assert!(q.pop().is_none(), "only entry was cancelled");
        // The slot is recycled for a new event; the stale id must not hit it.
        let b = q.push(SimTime::from_nanos(30), 1, 1);
        assert!(!q.cancel(a), "stale id rejected by generation check");
        assert_eq!(q.len(), 1);
        assert!(q.cancel(b));
        assert!(q.pop().is_none());
    }

    #[test]
    fn same_time_insert_mid_drain_fires_after_existing_ties() {
        let mut q = EventQueue::new();
        for seq in 0..4u64 {
            q.push(SimTime::from_nanos(50), seq, seq as u32);
        }
        // Start draining, then insert at the same time with higher seq (a
        // zero-delay reschedule) — must come out after the existing ties.
        assert_eq!(q.pop().unwrap().2, 0);
        q.push(SimTime::from_nanos(50), 4, 4);
        q.push(SimTime::from_nanos(51), 5, 5);
        let order: Vec<u32> = drain(&mut q).into_iter().map(|(_, _, p)| p).collect();
        assert_eq!(order, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn push_earlier_than_a_peeked_head_pops_first() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(10), 0, 0);
        assert_eq!(q.peek(), Some((SimTime::from_millis(10), 0)));
        // A push lands well before the peeked head (run_until deadline pattern).
        q.push(SimTime::from_nanos(7), 1, 1);
        q.push(SimTime::from_micros(3), 2, 2);
        let order: Vec<u32> = drain(&mut q).into_iter().map(|(_, _, p)| p).collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn cancelled_slots_are_reclaimed_when_the_queue_drains() {
        let mut q = EventQueue::new();
        let mut ids = Vec::new();
        for seq in 0..100u64 {
            ids.push(q.push(SimTime::from_nanos(seq * 10_000_000), seq, seq as u32));
        }
        for id in &ids {
            q.cancel(*id);
        }
        assert_eq!(q.len(), 0);
        assert!(q.pop().is_none());
        assert_eq!(q.free.len(), q.slots.len(), "a drained queue owns no slot");
        // Every slot must be back on the free list: new pushes reuse them.
        for seq in 100..200u64 {
            q.push(SimTime::from_nanos(seq), seq, seq as u32);
        }
        assert_eq!(q.slots.len(), 100, "arena reuses reclaimed slots");
    }

    #[test]
    fn cancelled_head_is_reclaimed_by_peek_as_well_as_pop() {
        // `run_until` reaches the head through `peek`, `run` through `pop`;
        // either must hand a cancelled head's slot back.
        for via_peek in [true, false] {
            let mut q = EventQueue::new();
            let head = q.push(SimTime::from_nanos(10), 0, 0);
            q.push(SimTime::from_nanos(20), 1, 1);
            assert!(q.cancel(head));
            assert!(q.free.is_empty(), "cancel alone leaves the key in the heap");
            if via_peek {
                assert_eq!(q.peek(), Some((SimTime::from_nanos(20), 1)));
                assert_eq!(q.free.len(), 1, "peek released the cancelled head");
            }
            assert_eq!(drain(&mut q), vec![(20, 1, 1)]);
            assert_eq!(q.free.len(), q.slots.len(), "a drained queue owns no slot");
            // A queue left with only cancelled events drains through peek too.
            let a = q.push(SimTime::from_nanos(30), 2, 2);
            let b = q.push(SimTime::from_secs(30), 3, 3);
            assert!(q.cancel(a) && q.cancel(b));
            let front = if via_peek {
                q.peek()
            } else {
                q.pop().map(|(at, seq, _)| (at, seq))
            };
            assert_eq!(front, None);
            assert_eq!(q.free.len(), q.slots.len(), "a drained queue owns no slot");
        }
    }

    #[test]
    fn interleaved_pop_and_far_push_keeps_order() {
        let mut q = EventQueue::new();
        let mut seq = 0u64;
        let mut push = |q: &mut EventQueue<u32>, ns: u64| {
            q.push(SimTime::from_nanos(ns), seq, seq as u32);
            seq += 1;
        };
        for i in 0..50 {
            push(&mut q, i * 7);
        }
        let mut last: Option<(SimTime, u64)> = None;
        let mut popped = 0;
        while let Some((at, s, _)) = q.pop() {
            assert!(
                last.is_none_or(|l| (at, s) > l),
                "order must be strictly ascending"
            );
            last = Some((at, s));
            popped += 1;
            if popped == 10 {
                // Mid-drain, add a far-future event and a tie.
                let base = at.as_nanos();
                push(&mut q, base + 60 * 60 * 1_000_000_000);
                push(&mut q, base);
            }
        }
        assert_eq!(popped, 52);
    }
}
