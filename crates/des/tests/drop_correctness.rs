//! Drop-correctness of the inline payload cell: every scheduled closure must
//! be dropped *exactly once*, whichever way it leaves the queue — fired,
//! cancelled, or still pending when its `Simulation` is dropped mid-run —
//! and for both storage layouts (captures inline in the arena slot vs. the
//! boxed fallback).
//!
//! The hand-rolled vtable in `des::cell` is the only `unsafe` in the crate;
//! these tests are its leak/double-free oracle. A missed drop
//! shows up as `dropped < created`; a double drop as `dropped > created`
//! (or, under Miri, as undefined behaviour at the exact faulty op).

use des::{SimTime, Simulation};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Drop sentinel: bumps the shared counter exactly once on drop. One machine
/// word, so closures capturing only a `Guard` stay on the inline path.
struct Guard(Arc<AtomicU64>);

impl Drop for Guard {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// Shared counters for one scenario run.
#[derive(Default)]
struct Counters {
    dropped: Arc<AtomicU64>,
    fired: Arc<AtomicU64>,
}

impl Counters {
    fn guard(&self) -> Guard {
        Guard(Arc::clone(&self.dropped))
    }

    fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::SeqCst)
    }

    fn fired(&self) -> u64 {
        self.fired.load(Ordering::SeqCst)
    }
}

/// Schedule one event whose closure captures `Guard` + fire counter
/// (two words — stored inline in the arena slot).
fn schedule_inline(sim: &mut Simulation, at: SimTime, c: &Counters) -> des::EventId {
    let g = c.guard();
    let fired = Arc::clone(&c.fired);
    sim.schedule_at(at, move |_| {
        fired.fetch_add(1, Ordering::SeqCst);
        let _ = &g;
    })
}

/// Schedule one event whose closure captures two extra words of padding on
/// top of the guard and counter (four words — forced onto the boxed path).
fn schedule_boxed(sim: &mut Simulation, at: SimTime, c: &Counters) -> des::EventId {
    let g = c.guard();
    let fired = Arc::clone(&c.fired);
    let pad = [0u64; 2];
    sim.schedule_at(at, move |_| {
        fired.fetch_add(1, Ordering::SeqCst);
        let _ = (&g, pad);
    })
}

#[test]
fn fired_closures_drop_exactly_once() {
    let c = Counters::default();
    {
        let mut sim = Simulation::new(1);
        for i in 0..100u64 {
            schedule_inline(&mut sim, SimTime::from_nanos(i * 13 % 700), &c);
            schedule_boxed(&mut sim, SimTime::from_nanos(i * 7 % 700), &c);
        }
        assert_eq!(sim.events_scheduled_inline(), 100);
        assert_eq!(sim.events_scheduled_boxed(), 100);
        sim.run();
        assert_eq!(c.fired(), 200);
        assert_eq!(c.dropped(), 200, "every fired closure drops exactly once");
    }
    assert_eq!(c.dropped(), 200, "simulation drop must not re-drop");
}

#[test]
fn cancelled_closures_drop_exactly_once_without_firing() {
    let c = Counters::default();
    let mut sim = Simulation::new(1);
    let mut ids = Vec::new();
    for i in 0..100u64 {
        ids.push(schedule_inline(
            &mut sim,
            SimTime::from_nanos(i * 17 % 900),
            &c,
        ));
        ids.push(schedule_boxed(
            &mut sim,
            SimTime::from_nanos(i * 5 % 900),
            &c,
        ));
    }
    for id in ids.iter().step_by(2) {
        assert!(sim.cancel(*id));
    }
    assert_eq!(c.dropped(), 100, "cancel drops the closure immediately");
    assert_eq!(c.fired(), 0);
    sim.run();
    assert_eq!(c.fired(), 100);
    assert_eq!(c.dropped(), 200);
}

#[test]
fn dropping_a_simulation_mid_run_drops_pending_closures_once() {
    // Dropping the Simulation drops its queue's arena, which must drop
    // every still-pending payload exactly once.
    let c = Counters::default();
    {
        let mut sim = Simulation::new(1);
        for i in 0..64u64 {
            schedule_inline(&mut sim, SimTime::from_micros(i), &c);
            schedule_boxed(&mut sim, SimTime::from_micros(i), &c);
        }
        sim.run_until(SimTime::from_micros(20));
        assert_eq!(c.fired(), 42, "21 microsecond ticks, two events each");
        assert_eq!(c.dropped(), 42);
    }
    assert_eq!(
        c.dropped(),
        128,
        "dropping the queue releases the pending closures"
    );
    assert_eq!(c.fired(), 42, "pending closures must not fire on drop");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Arbitrary interleavings of inline/boxed scheduling, cancels of
    /// possibly-stale ids, and partial draining — ending either in a full
    /// drain or an early drop. Whatever the path, `created == dropped` once
    /// the simulation is gone, and only fired closures bumped `fired`.
    #[test]
    fn every_closure_drops_exactly_once(
        ops in prop::collection::vec((0u8..5, any::<u16>()), 1..80),
        drain_fully in any::<bool>(),
    ) {
        let c = Counters::default();
        let mut created = 0u64;
        let mut cancelled = 0u64;
        let mut sim = Simulation::new(7);
        let mut ids = Vec::new();
        for &(kind, x) in &ops {
            let at = sim.now() + SimTime::from_nanos(u64::from(x) % 5_000);
            match kind {
                0 => {
                    ids.push(schedule_inline(&mut sim, at, &c));
                    created += 1;
                }
                1 => {
                    ids.push(schedule_boxed(&mut sim, at, &c));
                    created += 1;
                }
                // A small run of inline events, 911 ns apart.
                2 => {
                    let n = u64::from(x % 3) + 1;
                    for k in 0..n {
                        let at = at + SimTime::from_nanos(k * 911);
                        ids.push(schedule_inline(&mut sim, at, &c));
                    }
                    created += n;
                }
                // Cancel an arbitrary, possibly stale or repeated id.
                3 => {
                    if !ids.is_empty() {
                        let id = ids[usize::from(x) % ids.len()];
                        if sim.cancel(id) {
                            cancelled += 1;
                        }
                    }
                }
                // Drain a burst.
                _ => {
                    for _ in 0..=(x % 4) {
                        if !sim.step() {
                            break;
                        }
                    }
                }
            }
            prop_assert_eq!(
                c.fired() + cancelled + sim.events_pending() as u64,
                created,
                "fired + cancelled + pending must always account for every event"
            );
        }
        if drain_fully {
            sim.run();
            prop_assert_eq!(c.fired(), created - cancelled);
        }
        drop(sim);
        prop_assert_eq!(c.dropped(), created, "every closure dropped exactly once");
    }
}
