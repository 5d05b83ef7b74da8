//! The simulation engine: virtual clock over the pending-event queue.
//!
//! Events are closures scheduled at a virtual time and stored in an
//! [`EventQueue`] — a binary heap of `(time, seq)` keys over an arena of
//! payload slots (see [`crate::queue`]). A closure whose captures fit three
//! machine words is stored *inline* in its arena slot via
//! [`crate::cell::EventCell`] — no per-event heap allocation on the hot
//! path — while oversized captures transparently fall back to a box
//! ([`Simulation::inline_hit_ratio`] reports the split).
//! Ties are broken by a monotonically increasing sequence number so
//! execution order is fully deterministic — exactly ascending
//! `(time, seq)`, bit-identical to the independent reference engine that
//! `tests/determinism.rs` replays against this one. Events can be
//! cancelled by id in O(1) (used e.g. for lease-expiry timers that are
//! renewed); [`Simulation::events_pending`] is exact under cancellation.
//!
//! Event closures are `Send`, which makes the whole [`Simulation`] `Send`:
//! a sweep runner can construct one per `(parameter point, seed)` inside a
//! worker thread (or move it across threads) and determinism is preserved,
//! because nothing about execution order depends on the hosting thread.

use crate::cell::EventCell;
use crate::queue::EventQueue;
use crate::rng::RngStream;
use crate::time::SimTime;

pub use crate::queue::EventId;

/// The discrete-event simulation engine.
///
/// Owns the virtual clock, the pending-event queue, and a root RNG from which
/// deterministic per-component streams are derived (see [`crate::rng`]).
pub struct Simulation {
    now: SimTime,
    seq: u64,
    queue: EventQueue<EventCell>,
    seed: u64,
    executed: u64,
    /// Events whose closures were stored inline in their arena slot.
    scheduled_inline: u64,
    /// Events whose captures exceeded the inline buffer and were boxed.
    scheduled_boxed: u64,
}

impl Simulation {
    /// Create a simulation with the given root seed. The seed fully
    /// determines every random draw made through [`Simulation::stream`].
    pub fn new(seed: u64) -> Self {
        Simulation {
            now: SimTime::ZERO,
            seq: 0,
            queue: EventQueue::new(),
            seed,
            executed: 0,
            scheduled_inline: 0,
            scheduled_boxed: 0,
        }
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Root seed this simulation was created with.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of events executed so far.
    #[inline]
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of events currently pending. Exact: cancelled events leave the
    /// count the moment [`Simulation::cancel`] returns `true`, and events
    /// that already fired can neither be cancelled nor counted again.
    #[inline]
    pub fn events_pending(&self) -> usize {
        self.queue.len()
    }

    /// Derive a named deterministic RNG stream. Streams with different names
    /// are statistically independent; the same `(seed, name)` pair always
    /// yields the same sequence regardless of scheduling order.
    pub fn stream(&self, name: &str) -> RngStream {
        RngStream::derive(self.seed, name)
    }

    /// Schedule `f` to run at absolute virtual time `at`.
    ///
    /// Closures capturing at most three machine words (an `Arc` handle plus
    /// a couple of ids) are stored inline in the event arena — no heap
    /// allocation; larger captures are boxed transparently.
    ///
    /// # Panics
    /// Panics if `at` is in the past — simulated causality violations are
    /// always bugs, and silently clamping them hides calibration errors.
    pub fn schedule_at<F>(&mut self, at: SimTime, f: F) -> EventId
    where
        F: FnOnce(&mut Simulation) + Send + 'static,
    {
        assert!(
            at >= self.now,
            "cannot schedule event in the past: now={} at={}",
            self.now,
            at
        );
        if const { EventCell::fits_inline::<F>() } {
            self.scheduled_inline += 1;
        } else {
            self.scheduled_boxed += 1;
        }
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(at, seq, EventCell::new(f))
    }

    /// Of all events scheduled so far, the fraction whose closures were
    /// stored inline in their arena slot (1.0 when nothing was scheduled).
    /// A ratio well below one means a hot call site grew past the
    /// three-word capture budget and is paying a box per event again.
    pub fn inline_hit_ratio(&self) -> f64 {
        let total = self.scheduled_inline + self.scheduled_boxed;
        if total == 0 {
            1.0
        } else {
            self.scheduled_inline as f64 / total as f64
        }
    }

    /// Number of events scheduled with inline closure storage.
    #[inline]
    pub fn events_scheduled_inline(&self) -> u64 {
        self.scheduled_inline
    }

    /// Number of events whose captures required the boxed fallback.
    #[inline]
    pub fn events_scheduled_boxed(&self) -> u64 {
        self.scheduled_boxed
    }

    /// Schedule `f` to run `delay` after the current time.
    pub fn schedule_after<F>(&mut self, delay: SimTime, f: F) -> EventId
    where
        F: FnOnce(&mut Simulation) + Send + 'static,
    {
        let at = self.now + delay;
        self.schedule_at(at, f)
    }

    /// Cancel a previously scheduled event in O(1). Returns `true` if the
    /// event was still pending. Cancelling an already-run or
    /// already-cancelled event is a no-op returning `false`.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// Run a single event, advancing the clock. Returns `false` when the
    /// queue is empty.
    pub fn step(&mut self) -> bool {
        match self.queue.pop() {
            Some((at, _seq, f)) => {
                debug_assert!(at >= self.now, "event queue time went backwards");
                self.now = at;
                self.executed += 1;
                f.call(self);
                true
            }
            None => false,
        }
    }

    /// Run until the event queue is exhausted.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Run until the queue is exhausted or virtual time would exceed
    /// `deadline`; events at exactly `deadline` are executed. Afterwards the
    /// clock is advanced to `deadline` if the simulation ran dry early, so
    /// time-weighted statistics cover the full horizon.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some((at, _)) = self.queue.peek() {
            if at > deadline {
                break;
            }
            self.step();
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Run while `pred` holds and events remain.
    pub fn run_while<P: FnMut(&Simulation) -> bool>(&mut self, mut pred: P) {
        while pred(self) && self.step() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    #[test]
    fn simulation_and_rng_streams_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Simulation>();
        assert_send::<RngStream>();
        assert_send::<EventId>();
    }

    #[test]
    fn simulation_runs_inside_a_worker_thread() {
        // The sweep-runner pattern: build and drive a simulation wholly
        // inside a spawned thread, hand back only the results.
        let handle = std::thread::spawn(|| {
            let mut sim = Simulation::new(7);
            sim.schedule_at(SimTime::from_micros(3), |sim| {
                sim.schedule_after(SimTime::from_micros(4), |_| {});
            });
            sim.run();
            (sim.now(), sim.events_executed())
        });
        let (now, executed) = handle.join().expect("worker");
        assert_eq!(now, SimTime::from_micros(7));
        assert_eq!(executed, 2);
    }

    #[test]
    fn executes_in_time_order() {
        let mut sim = Simulation::new(1);
        let log = Arc::new(Mutex::new(Vec::new()));
        for &t in &[30u64, 10, 20] {
            let log = Arc::clone(&log);
            sim.schedule_at(SimTime::from_secs(t), move |sim| {
                log.lock().unwrap().push(sim.now().as_secs_f64() as u64);
            });
        }
        sim.run();
        assert_eq!(*log.lock().unwrap(), vec![10, 20, 30]);
        assert_eq!(sim.events_executed(), 3);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut sim = Simulation::new(1);
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..5 {
            let log = Arc::clone(&log);
            sim.schedule_at(SimTime::from_secs(7), move |_| {
                log.lock().unwrap().push(i);
            });
        }
        sim.run();
        assert_eq!(*log.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn schedule_after_accumulates() {
        let mut sim = Simulation::new(1);
        let hits = Arc::new(Mutex::new(0));
        let h = Arc::clone(&hits);
        sim.schedule_after(SimTime::from_millis(1), move |sim| {
            *h.lock().unwrap() += 1;
            let h2 = Arc::clone(&h);
            sim.schedule_after(SimTime::from_millis(1), move |_| {
                *h2.lock().unwrap() += 1;
            });
        });
        sim.run();
        assert_eq!(*hits.lock().unwrap(), 2);
        assert_eq!(sim.now(), SimTime::from_millis(2));
    }

    #[test]
    fn cancel_prevents_execution() {
        let mut sim = Simulation::new(1);
        let hits = Arc::new(Mutex::new(0));
        let h = Arc::clone(&hits);
        let id = sim.schedule_at(SimTime::from_secs(1), move |_| {
            *h.lock().unwrap() += 1;
        });
        assert!(sim.cancel(id));
        assert!(!sim.cancel(id), "double-cancel is a no-op");
        sim.run();
        assert_eq!(*hits.lock().unwrap(), 0);
    }

    #[test]
    fn events_pending_is_exact_under_cancellation() {
        // Regression: the seed implementation subtracted *all* cancelled ids
        // from the pending count — including ids whose events had already
        // fired — so cancel-after-fire undercounted. The arena rejects stale
        // ids, keeping the count exact.
        let mut sim = Simulation::new(1);
        let fired = sim.schedule_at(SimTime::from_secs(1), |_| {});
        sim.schedule_at(SimTime::from_secs(5), |_| {});
        let live = sim.schedule_at(SimTime::from_secs(9), |_| {});
        assert_eq!(sim.events_pending(), 3);

        sim.run_until(SimTime::from_secs(2));
        assert_eq!(sim.events_pending(), 2);
        assert!(
            !sim.cancel(fired),
            "cancelling an already-fired event is a no-op"
        );
        assert_eq!(
            sim.events_pending(),
            2,
            "a stale cancel must not change the pending count"
        );

        assert!(sim.cancel(live));
        assert_eq!(sim.events_pending(), 1);
        sim.run();
        assert_eq!(sim.events_pending(), 0);
        assert_eq!(sim.events_executed(), 2);
        assert_eq!(sim.now(), SimTime::from_secs(5));
    }

    #[test]
    fn cancel_then_fire_ordering_stays_deterministic() {
        // Cancelling one of several same-time events must not disturb the
        // tie-break order of the survivors.
        let mut sim = Simulation::new(1);
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut ids = Vec::new();
        for i in 0..6 {
            let log = Arc::clone(&log);
            ids.push(sim.schedule_at(SimTime::from_micros(4), move |_| {
                log.lock().unwrap().push(i);
            }));
        }
        assert!(sim.cancel(ids[1]));
        assert!(sim.cancel(ids[4]));
        assert_eq!(sim.events_pending(), 4);
        sim.run();
        assert_eq!(*log.lock().unwrap(), vec![0, 2, 3, 5]);
    }

    #[test]
    fn run_until_stops_and_advances_clock() {
        let mut sim = Simulation::new(1);
        let hits = Arc::new(Mutex::new(Vec::new()));
        for &t in &[1u64, 5, 10] {
            let h = Arc::clone(&hits);
            sim.schedule_at(SimTime::from_secs(t), move |_| h.lock().unwrap().push(t));
        }
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(*hits.lock().unwrap(), vec![1, 5]);
        assert_eq!(sim.now(), SimTime::from_secs(5));
        sim.run_until(SimTime::from_secs(20));
        assert_eq!(*hits.lock().unwrap(), vec![1, 5, 10]);
        assert_eq!(
            sim.now(),
            SimTime::from_secs(20),
            "clock advances to deadline"
        );
    }

    #[test]
    fn scheduling_between_run_until_deadlines_keeps_order() {
        // run_until peeks ahead of its deadline; scheduling in the gap
        // afterwards must still fire in (time, seq) order.
        let mut sim = Simulation::new(1);
        let log = Arc::new(Mutex::new(Vec::new()));
        let l = Arc::clone(&log);
        sim.schedule_at(SimTime::from_secs(10), move |_| l.lock().unwrap().push(10));
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(sim.now(), SimTime::from_secs(2));
        for &t in &[3u64, 7, 3] {
            let l = Arc::clone(&log);
            sim.schedule_at(SimTime::from_secs(t), move |_| l.lock().unwrap().push(t));
        }
        sim.run();
        assert_eq!(*log.lock().unwrap(), vec![3, 3, 7, 10]);
        assert_eq!(sim.events_executed(), 4);
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut sim = Simulation::new(1);
        sim.schedule_at(SimTime::from_secs(5), |sim| {
            sim.schedule_at(SimTime::from_secs(1), |_| {});
        });
        sim.run();
    }

    #[test]
    fn deterministic_across_runs() {
        fn trace(seed: u64) -> Vec<u64> {
            let mut sim = Simulation::new(seed);
            let log = Arc::new(Mutex::new(Vec::new()));
            for i in 0..20 {
                let log = Arc::clone(&log);
                let mut rng = sim.stream(&format!("gen{i}"));
                let t = SimTime::from_nanos(rng.u64_range(0..1000));
                sim.schedule_at(t, move |sim| log.lock().unwrap().push(sim.now().as_nanos()));
            }
            sim.run();
            let v = log.lock().unwrap().clone();
            v
        }
        assert_eq!(trace(99), trace(99));
        assert_ne!(trace(99), trace(100));
    }
}
