//! Property tests for the arena-backed event queue: arbitrary interleavings
//! of schedule / cancel / pop — with identical-`SimTime` ties, far-future
//! events, and zero-delay self-reschedules — must match a sorted reference
//! model exactly, `(time, seq, payload)` for `(time, seq, payload)`.

use des::queue::EventQueue;
use des::SimTime;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Reference model: a total-order map keyed by `(time, seq)` plus the same
/// stale-id semantics the arena promises (cancel of a fired or cancelled
/// event is a no-op).
#[derive(Default)]
struct RefModel {
    pending: BTreeMap<(u64, u64), u32>,
}

impl RefModel {
    fn push(&mut self, at: u64, seq: u64, payload: u32) {
        self.pending.insert((at, seq), payload);
    }

    fn cancel(&mut self, key: (u64, u64)) -> bool {
        self.pending.remove(&key).is_some()
    }

    fn pop(&mut self) -> Option<(u64, u64, u32)> {
        let key = *self.pending.keys().next()?;
        let payload = self.pending.remove(&key).expect("key just observed");
        Some((key.0, key.1, payload))
    }
}

/// Turn a sampled `(selector, x)` pair into a schedule offset at one of four
/// distances: exact ties, nanoseconds, microseconds-to-milliseconds, and
/// seconds-to-hours.
fn offset(selector: u64, x: u16) -> u64 {
    match selector {
        0 => 0,                                          // identical SimTime tie
        1 => 1 + u64::from(x) % 900,                     // within a microsecond
        2 => 1_000 + u64::from(x) * 64,                  // up to ~4 ms
        _ => 100_000_000 + u64::from(x) * 1_000_000_000, // far future
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn interleaved_ops_match_reference_model(
        ops in prop::collection::vec((0u8..5, 0u64..4, any::<u16>()), 1..120)
    ) {
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut model = RefModel::default();
        // Every id ever returned, with its model key — kept after fire and
        // cancel so ops can target stale handles too.
        let mut ids: Vec<(des::EventId, (u64, u64))> = Vec::new();
        let mut seq = 0u64;
        let mut now = 0u64;

        let schedule = |q: &mut EventQueue<u32>,
                            model: &mut RefModel,
                            ids: &mut Vec<(des::EventId, (u64, u64))>,
                            seq: &mut u64,
                            at: u64,
                            payload: u32| {
            let id = q.push(SimTime::from_nanos(at), *seq, payload);
            model.push(at, *seq, payload);
            ids.push((id, (at, *seq)));
            *seq += 1;
        };

        for &(kind, sel, x) in &ops {
            match kind {
                // Schedule relative to the last fire time (engine-legal).
                0 | 1 => {
                    let at = now + offset(sel, x);
                    schedule(&mut q, &mut model, &mut ids, &mut seq, at, u32::from(x));
                }
                // Cancel an arbitrary (possibly stale) id.
                2 => {
                    if !ids.is_empty() {
                        let (id, key) = ids[usize::from(x) % ids.len()];
                        let got = q.cancel(id);
                        let want = model.cancel(key);
                        prop_assert_eq!(got, want, "cancel outcome for {:?}", key);
                        prop_assert_eq!(q.len(), model.pending.len());
                    }
                }
                // A run of pushes spanning all distances back to back, with
                // no pop or cancel in between.
                3 => {
                    for k in 0..=u64::from(x % 4) {
                        let at = now + offset((sel + k) % 4, x.wrapping_add(k as u16));
                        let payload = u32::from(x) + k as u32;
                        schedule(&mut q, &mut model, &mut ids, &mut seq, at, payload);
                    }
                }
                // Pop a burst; each popped event may self-reschedule at the
                // exact same time (zero-delay), behind the remaining ties.
                _ => {
                    for _ in 0..=(x % 3) {
                        let got = q.pop();
                        let want = model.pop();
                        prop_assert_eq!(got.map(|(t, s, p)| (t.as_nanos(), s, p)), want);
                        let Some((t, _, p)) = want else { break };
                        now = t;
                        if p.is_multiple_of(5) {
                            schedule(&mut q, &mut model, &mut ids, &mut seq, t, p + 1);
                        }
                    }
                }
            }
            prop_assert_eq!(q.len(), model.pending.len(), "pending counts diverged");
        }

        // Drain both to the end — the full remaining order must match.
        loop {
            let got = q.pop();
            let want = model.pop();
            prop_assert_eq!(got.map(|(t, s, p)| (t.as_nanos(), s, p)), want);
            if want.is_none() {
                break;
            }
        }
        prop_assert_eq!(q.len(), 0);
    }

    /// Peek must agree with the model's front and never disturb pop order,
    /// even when the peeked head is far ahead of a later push.
    #[test]
    fn peek_is_consistent_with_pop(
        ops in prop::collection::vec((0u64..4, any::<u16>()), 1..60)
    ) {
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut model = RefModel::default();
        let mut seq = 0u64;
        let mut now = 0u64;
        for &(sel, x) in &ops {
            let at = now + offset(sel, x);
            q.push(SimTime::from_nanos(at), seq, u32::from(x));
            model.push(at, seq, u32::from(x));
            seq += 1;
            let front = model.pending.keys().next().copied();
            prop_assert_eq!(q.peek().map(|(t, s)| (t.as_nanos(), s)), front);
            // Every third op, consume the front (keeps `now` monotone).
            if seq.is_multiple_of(3) {
                let got = q.pop();
                let want = model.pop();
                prop_assert_eq!(got.map(|(t, s, p)| (t.as_nanos(), s, p)), want);
                if let Some((t, _, _)) = want {
                    now = t;
                }
            }
        }
        while let Some((t, s, p)) = q.pop() {
            prop_assert_eq!(model.pop(), Some((t.as_nanos(), s, p)));
        }
        prop_assert_eq!(model.pop(), None);
    }
}
