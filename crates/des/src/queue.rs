//! Arena-allocated calendar event queue.
//!
//! The pending-event set of a [`crate::Simulation`] is a *calendar queue*
//! (Brown 1988) over an arena of payload slots. It is sized to the traffic
//! the workspace actually produces, measured rather than guessed: of the 11
//! registered scenarios only the Fig. 1 trace replay schedules events at
//! all, and it never holds more than a few hundred at once (178 arena slots
//! and sorted buckets of at most 35 entries at its defaults, 70 on the
//! benchmark's backlogged 1200-node point; `cluster::trace` has a test that
//! fails if the peak ever passes 1024). README's "The event engine" section
//! carries the full traffic table and the ablation behind this sizing.
//! Four pieces, one code path per operation:
//!
//! * **Arena.** Every scheduled payload lives in a slot of a slab (`Vec`
//!   plus free list). An [`EventId`] packs `(generation, slot index)`, so
//!   cancellation is an O(1) slot lookup that drops the payload in place —
//!   no tombstone set, no heap scan — and a stale id (already fired, already
//!   cancelled, or from a recycled slot) is rejected by the generation check.
//! * **Bucket wheel.** Near-future events are bucketed by virtual time:
//!   bucket width is `1 << shift` nanoseconds and the wheel covers the
//!   window `[cursor, cursor + num_buckets)` of bucket indices. The wheel
//!   and the rung store `(time, seq, slot)` entries, so ordering never
//!   reads the arena. A push is an O(1) `Vec` push; the bucket under the
//!   cursor is sorted by `(time, seq)` lazily, once, when the cursor
//!   reaches it, and an event pushed into that bucket while it drains (a
//!   zero-delay reschedule — the replay's most common push) is inserted in
//!   order.
//! * **Overflow rung.** Events beyond the wheel window land in an unsorted
//!   overflow list, merged back into the wheel when the cursor catches up
//!   with its earliest entry.
//! * **Re-anchor, rebuild, purge.** When the wheel runs dry the queue
//!   *re-anchors*: the wheel is resized toward the pending population and
//!   the bucket width recomputed so the whole overflow span fits one window
//!   pass (see [`CalendarQueue::reanchor`]). A push behind the cursor
//!   rebuilds the wheel around it, and a queue with nothing live left
//!   reclaims every cancelled slot.
//!
//! # Inline payload cell
//!
//! The engine instantiates this queue with `T =`[`crate::cell::EventCell`]:
//! event closures whose captures fit three machine words are stored *inside
//! the arena slot* (no per-event heap allocation), larger ones behind a
//! boxed fallback. Everything in the crate that the compiler cannot check
//! lives in that cell, none of it here; its invariants — **call-once**
//! (consuming `call` forgets the cell before moving the payload out),
//! **drop-on-cancel** (an uncalled cell drops its payload in place exactly
//! once, whether cancelled or still pending when the queue is dropped), and
//! **`Send` without `Sync`** (cells move with their simulation across sweep
//! threads; no shared access exists) — are documented in [`crate::cell`]
//! and exercised by the leak-tracking proptests in
//! `tests/drop_correctness.rs`. From the queue's side the
//! contract is simply ownership: a slot's `Option<T>` is `take`n on fire,
//! `None`d on cancel, and dropped with the queue, so each payload is
//! finalized exactly once.
//!
//! Execution order is exactly ascending `(time, seq)` — bit-identical to
//! the reference heap, which `tests/determinism.rs` enforces with an oracle
//! model and `tests/queue_properties.rs` with randomized interleavings.
//!
//! The queue itself is time-agnostic: it never rejects a push "in the past".
//! If a push lands behind the cursor (which [`crate::Simulation::run_until`]
//! can cause by peeking ahead of a deadline), the queue rebuilds around the
//! new earliest bucket. Causality is the engine's job, enforced by
//! [`crate::Simulation::schedule_at`].

use crate::time::SimTime;

/// Opaque handle identifying a scheduled event so it can be cancelled.
///
/// Packs `(slot generation, slot index)`; a handle goes stale — and
/// [`CalendarQueue::cancel`] returns `false` — as soon as the event fires or
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
/// `payload: None` marks a cancelled entry whose slot is reclaimed when its
/// bucket drains (or at the next rebuild/purge). The ordering key lives in
/// the wheel's [`Entry`], not here, so sorting never touches the arena.
struct Slot<T> {
    gen: u32,
    payload: Option<T>,
}

/// A wheel/overflow entry: the full ordering key plus the arena slot.
#[derive(Clone, Copy)]
struct Entry {
    at: SimTime,
    seq: u64,
    idx: u32,
}

impl Entry {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// Wheel size the queue starts with and never shrinks below.
const MIN_BUCKETS: usize = 64;
/// Upper bound on the wheel: past this, re-anchoring widens buckets instead.
const MAX_BUCKETS: usize = 1 << 10;
/// Narrowest bucket: 64 ns. Finer granularity would only add empty-bucket
/// scans — no workload in this workspace schedules denser than that for long.
const MIN_SHIFT: u32 = 6;
/// Initial bucket width: 1.024 µs, a good fit for the fabric/latency models
/// that dominate short simulations. Re-anchoring adapts it afterwards.
const INITIAL_SHIFT: u32 = 10;

/// Arena-allocated calendar queue ordered by ascending `(SimTime, seq)`.
///
/// `seq` values must be unique (the engine uses a monotone counter), which
/// makes the order total and the unstable per-bucket sort deterministic.
pub struct CalendarQueue<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    /// Ring of buckets; `buckets.len()` is always a power of two. Bucket
    /// `vb & (len - 1)` holds exactly the events of virtual-bucket `vb` for
    /// window membership `cur_vb <= vb < cur_vb + len`.
    buckets: Vec<Vec<Entry>>,
    /// Bucket width exponent: width = `1 << shift` nanoseconds.
    shift: u32,
    /// Virtual bucket index of the drain cursor. Invariant: no pending event
    /// maps to a virtual bucket below the cursor.
    cur_vb: u64,
    /// Whether the bucket under the cursor is sorted descending by
    /// `(at, seq)` (drained from the back).
    cur_sorted: bool,
    /// Entries (including cancelled) currently linked into wheel buckets.
    wheel_len: usize,
    /// Entries beyond the wheel window, unsorted.
    overflow: Vec<Entry>,
    /// Minimum virtual bucket present in `overflow` (`u64::MAX` when empty).
    overflow_min_vb: u64,
    /// Live (non-cancelled) events — the exact pending count.
    live: usize,
    /// Scratch per-bucket occupancy counts for [`CalendarQueue::scatter`].
    counts: Vec<u32>,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarQueue<T> {
    pub fn new() -> Self {
        CalendarQueue {
            slots: Vec::new(),
            free: Vec::new(),
            buckets: std::iter::repeat_with(Vec::new).take(MIN_BUCKETS).collect(),
            shift: INITIAL_SHIFT,
            cur_vb: 0,
            cur_sorted: false,
            wheel_len: 0,
            overflow: Vec::new(),
            overflow_min_vb: u64::MAX,
            live: 0,
            counts: Vec::new(),
        }
    }

    /// Number of live (schedulable, non-cancelled) events. Exact: cancelled
    /// entries are subtracted the moment [`CalendarQueue::cancel`] succeeds,
    /// and popped events can never be re-cancelled.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    #[inline]
    fn vb_of(&self, at: SimTime) -> u64 {
        at.as_nanos() >> self.shift
    }

    /// Ring index of the bucket under the drain cursor.
    #[inline]
    fn cursor_bucket(&self) -> usize {
        (self.cur_vb as usize) & (self.buckets.len() - 1)
    }

    /// Schedule `payload` at `(at, seq)`. `seq` must be unique across the
    /// queue's lifetime — the engine's monotone event counter.
    pub fn push(&mut self, at: SimTime, seq: u64, payload: T) -> EventId {
        let idx = self.alloc(payload);
        let id = EventId::pack(self.slots[idx as usize].gen, idx);
        let vb = self.vb_of(at);
        if vb < self.cur_vb {
            // The cursor peeked ahead of this time (run_until stopped at a
            // deadline in a gap); rebuild the wheel around the new earliest
            // bucket. Rare and O(pending), never hit by run-to-completion.
            self.rebuild(vb);
        }
        self.link(Entry { at, seq, idx }, vb);
        self.live += 1;
        id
    }

    /// Cancel a pending event. O(1): drops the payload in its slot and
    /// leaves the empty entry to be reclaimed when its bucket drains.
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

    /// Remove and return the earliest live event as `(at, seq, payload)`.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        if !self.position_front() {
            return None;
        }
        let b = self.cursor_bucket();
        let e = self.buckets[b]
            .pop()
            .expect("position_front found an event");
        self.wheel_len -= 1;
        let payload = self.slots[e.idx as usize]
            .payload
            .take()
            .expect("position_front stops at a live entry");
        self.live -= 1;
        self.release(e.idx);
        Some((e.at, e.seq, payload))
    }

    /// `(at, seq)` of the earliest live event without removing it.
    pub fn peek(&mut self) -> Option<(SimTime, u64)> {
        if !self.position_front() {
            return None;
        }
        let e = self.buckets[self.cursor_bucket()]
            .last()
            .expect("position_front found an event");
        Some((e.at, e.seq))
    }

    /// Take a fresh slot from the free list (or grow the arena).
    fn alloc(&mut self, payload: T) -> u32 {
        if let Some(idx) = self.free.pop() {
            self.slots[idx as usize].payload = Some(payload);
            idx
        } else {
            let idx = u32::try_from(self.slots.len()).expect("event arena exceeds u32 slots");
            self.slots.push(Slot {
                gen: 0,
                payload: Some(payload),
            });
            idx
        }
    }

    /// Return an unlinked, payload-free slot to the free list. Bumping the
    /// generation here is what invalidates outstanding [`EventId`]s.
    fn release(&mut self, idx: u32) {
        let s = &mut self.slots[idx as usize];
        debug_assert!(s.payload.is_none(), "releasing a live slot");
        s.gen = s.gen.wrapping_add(1);
        self.free.push(idx);
    }

    /// Link an entry into the wheel or the overflow rung.
    fn link(&mut self, e: Entry, vb: u64) {
        debug_assert!(vb >= self.cur_vb, "push() rebuilds before linking");
        let n = self.buckets.len() as u64;
        if vb - self.cur_vb >= n {
            if vb < self.overflow_min_vb {
                self.overflow_min_vb = vb;
            }
            self.overflow.push(e);
        } else {
            let b = (vb as usize) & (self.buckets.len() - 1);
            let bucket = &mut self.buckets[b];
            if vb == self.cur_vb && self.cur_sorted {
                // The cursor's bucket is already sorted and mid-drain (the
                // zero-delay self-reschedule path): insert in order. New
                // events carry the highest seq so far, so when the bucket's
                // remainder is at the same-or-later time the insert is a
                // plain append at the drain end — check that first.
                match bucket.last() {
                    Some(last) if last.key() < e.key() => {
                        let pos = bucket.partition_point(|x| x.key() > e.key());
                        bucket.insert(pos, e);
                    }
                    _ => bucket.push(e),
                }
            } else {
                bucket.push(e);
            }
            self.wheel_len += 1;
        }
    }

    /// Advance the cursor until the earliest live event sits at the back of
    /// the (sorted) cursor bucket. Returns `false` — after reclaiming every
    /// leftover cancelled slot — when no live event remains.
    fn position_front(&mut self) -> bool {
        loop {
            if self.live == 0 {
                self.purge();
                return false;
            }
            if self.overflow_min_vb <= self.cur_vb {
                self.merge_overflow();
            }
            let b = self.cursor_bucket();
            if !self.buckets[b].is_empty() {
                if !self.cur_sorted {
                    // Descending, so the bucket drains from the back. Reads
                    // only the contiguous entries, never the arena.
                    self.buckets[b].sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
                    self.cur_sorted = true;
                }
                // Reclaim trailing cancelled entries; stop at the first live one.
                while let Some(e) = self.buckets[b].last() {
                    if self.slots[e.idx as usize].payload.is_some() {
                        return true;
                    }
                    let idx = e.idx;
                    self.buckets[b].pop();
                    self.wheel_len -= 1;
                    self.release(idx);
                }
            }
            // Cursor bucket exhausted: walk the wheel, or jump via overflow.
            if self.wheel_len == 0 {
                self.reanchor();
            } else {
                self.cur_vb += 1;
                self.cur_sorted = false;
            }
        }
    }

    /// Move every overflow entry that now falls inside the wheel window into
    /// its bucket. Called when the cursor reaches the rung's earliest bucket.
    ///
    /// Deliberately does not consult the arena: a cancelled entry migrates
    /// like a live one and is reclaimed when its bucket drains, which keeps
    /// this pass a pure sequential sweep over the rung.
    fn merge_overflow(&mut self) {
        let window_end = self.cur_vb + self.buckets.len() as u64;
        let mut pending = std::mem::take(&mut self.overflow);
        let mut new_min = u64::MAX;
        pending.retain(|&e| {
            let vb = self.vb_of(e.at);
            if vb < window_end {
                self.link(e, vb);
                false
            } else {
                new_min = new_min.min(vb);
                true
            }
        });
        // Hand the rung its buffer back: the retain kept the capacity.
        self.overflow = pending;
        self.overflow_min_vb = new_min;
    }

    /// Resize the wheel for `n` pending entries spanning `[min_at, max_at]`
    /// nanoseconds and aim the cursor at the span's first bucket: the wheel
    /// becomes the count's next power of two (clamped to
    /// `[MIN_BUCKETS, MAX_BUCKETS]`) and the bucket width the smallest power
    /// of two for which the whole span fits one window — so events average
    /// O(1) per bucket and a merge pass empties the rung in one go.
    fn adopt_geometry(&mut self, n: usize, min_at: u64, max_at: u64) {
        let target = n.next_power_of_two().clamp(MIN_BUCKETS, MAX_BUCKETS);
        if self.buckets.len() != target {
            self.buckets.resize_with(target, Vec::new);
        }
        let nb = self.buckets.len() as u64;
        let mut shift = MIN_SHIFT;
        while (max_at >> shift) - (min_at >> shift) >= nb {
            shift += 1;
        }
        self.shift = shift;
        self.cur_vb = min_at >> shift;
        self.cur_sorted = false;
    }

    /// Scatter `entries` — every one guaranteed to map inside the current
    /// wheel window — into their buckets: one counting pass over the
    /// contiguous entries, exact per-bucket reservations, then the pushes.
    /// Never touches the arena and never reallocates a bucket twice.
    fn scatter(&mut self, entries: &[Entry]) {
        let mask = self.buckets.len() - 1;
        let shift = self.shift;
        self.counts.clear();
        self.counts.resize(self.buckets.len(), 0);
        for e in entries {
            self.counts[((e.at.as_nanos() >> shift) as usize) & mask] += 1;
        }
        for (b, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                self.buckets[b].reserve(c as usize);
            }
        }
        for &e in entries {
            let b = ((e.at.as_nanos() >> shift) as usize) & mask;
            self.buckets[b].push(e);
        }
        self.wheel_len += entries.len();
    }

    /// Adapt the wheel to the pending population (see
    /// [`CalendarQueue::adopt_geometry`]) and jump the cursor to its
    /// earliest bucket. Called when the wheel runs dry with events left in
    /// the rung. Slot-free: cancelled entries migrate like live ones (their
    /// keys are in the entries) and are reclaimed when their bucket drains,
    /// so this pass is a sequential sweep plus a counting scatter.
    fn reanchor(&mut self) {
        debug_assert_eq!(self.wheel_len, 0, "re-anchor with a populated wheel");
        let pending = std::mem::take(&mut self.overflow);
        self.overflow_min_vb = u64::MAX;
        // `position_front` checked `live > 0` with a dry wheel, so the live
        // events are in the rung (beside any cancelled stragglers).
        assert!(
            !pending.is_empty(),
            "live events lost from the calendar queue"
        );
        let (mut min_at, mut max_at) = (u64::MAX, 0u64);
        for e in &pending {
            let ns = e.at.as_nanos();
            min_at = min_at.min(ns);
            max_at = max_at.max(ns);
        }
        self.adopt_geometry(pending.len(), min_at, max_at);
        self.scatter(&pending);
        // Hand the rung its buffer back for the next accumulation.
        self.overflow = pending;
        self.overflow.clear();
    }

    /// Re-seat every pending entry around a cursor moved *back* to `vb`
    /// (a push landed before the cursor after a `run_until` peek).
    fn rebuild(&mut self, vb: u64) {
        let mut all: Vec<Entry> = Vec::with_capacity(self.wheel_len + self.overflow.len());
        for b in &mut self.buckets {
            all.append(b);
        }
        all.append(&mut self.overflow);
        self.wheel_len = 0;
        self.overflow_min_vb = u64::MAX;
        self.cur_vb = vb;
        self.cur_sorted = false;
        for e in all {
            if self.slots[e.idx as usize].payload.is_none() {
                self.release(e.idx);
                continue;
            }
            let evb = self.vb_of(e.at);
            self.link(e, evb);
        }
    }

    /// Reclaim every leftover (necessarily cancelled) entry once no live
    /// event remains, so a long-lived engine does not accumulate slots.
    fn purge(&mut self) {
        if self.wheel_len > 0 {
            for b in 0..self.buckets.len() {
                while let Some(e) = self.buckets[b].pop() {
                    self.release(e.idx);
                }
            }
            self.wheel_len = 0;
        }
        while let Some(e) = self.overflow.pop() {
            self.release(e.idx);
        }
        self.overflow_min_vb = u64::MAX;
        self.cur_sorted = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut CalendarQueue<u32>) -> Vec<(u64, u64, u32)> {
        let mut out = Vec::new();
        while let Some((at, seq, p)) = q.pop() {
            out.push((at.as_nanos(), seq, p));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = CalendarQueue::new();
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
    fn far_future_events_go_through_the_overflow_rung() {
        let mut q = CalendarQueue::new();
        // Far beyond the initial 64-bucket × 1 µs window.
        q.push(SimTime::from_secs(3600), 0, 10);
        q.push(SimTime::from_nanos(5), 1, 11);
        q.push(SimTime::from_days(2), 2, 12);
        let order: Vec<u32> = drain(&mut q).into_iter().map(|(_, _, p)| p).collect();
        assert_eq!(order, vec![11, 10, 12]);
    }

    #[test]
    fn cancel_is_exact_and_single_shot() {
        let mut q = CalendarQueue::new();
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
        let mut q = CalendarQueue::new();
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
    fn zero_delay_insert_into_the_draining_bucket() {
        let mut q = CalendarQueue::new();
        for seq in 0..4u64 {
            q.push(SimTime::from_nanos(50), seq, seq as u32);
        }
        // Start draining (sorts the cursor bucket), then insert at the same
        // time with higher seq — must come out after the existing ties.
        assert_eq!(q.pop().unwrap().2, 0);
        q.push(SimTime::from_nanos(50), 4, 4);
        q.push(SimTime::from_nanos(51), 5, 5);
        let order: Vec<u32> = drain(&mut q).into_iter().map(|(_, _, p)| p).collect();
        assert_eq!(order, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn push_behind_a_peeked_cursor_rebuilds() {
        let mut q = CalendarQueue::new();
        q.push(SimTime::from_millis(10), 0, 0);
        // Peek walks the cursor up to the 10 ms bucket...
        assert_eq!(q.peek(), Some((SimTime::from_millis(10), 0)));
        // ...then a push lands well before it (run_until deadline pattern).
        q.push(SimTime::from_nanos(7), 1, 1);
        q.push(SimTime::from_micros(3), 2, 2);
        let order: Vec<u32> = drain(&mut q).into_iter().map(|(_, _, p)| p).collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn cancelled_slots_are_reclaimed_when_the_queue_drains() {
        let mut q = CalendarQueue::new();
        let mut ids = Vec::new();
        for seq in 0..100u64 {
            ids.push(q.push(SimTime::from_nanos(seq * 10_000_000), seq, seq as u32));
        }
        for id in &ids {
            q.cancel(*id);
        }
        assert_eq!(q.len(), 0);
        assert!(q.pop().is_none());
        // Every slot must be back on the free list: new pushes reuse them.
        for seq in 100..200u64 {
            q.push(SimTime::from_nanos(seq), seq, seq as u32);
        }
        assert_eq!(q.slots.len(), 100, "arena reuses reclaimed slots");
    }

    #[test]
    fn interleaved_pop_and_far_push_keeps_order() {
        let mut q = CalendarQueue::new();
        let mut seq = 0u64;
        let mut push = |q: &mut CalendarQueue<u32>, ns: u64| {
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
                // Mid-drain, add a far-future batch (overflow) and a tie.
                let base = at.as_nanos();
                push(&mut q, base + 60 * 60 * 1_000_000_000);
                push(&mut q, base);
            }
        }
        assert_eq!(popped, 52);
    }
}
