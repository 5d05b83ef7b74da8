//! Determinism guarantees of the DES kernel: the same root seed must
//! reproduce the *identical* event trace and statistics, bit for bit, across
//! independent runs — the property every experiment in this workspace leans
//! on for reproducibility.

use des::{Histogram, OnlineStats, RngStream, SimTime, Simulation};
use std::sync::{Arc, Mutex};

/// One recorded event: (virtual time in nanos, chain id, RNG draw).
type Trace = Vec<(u64, u32, u64)>;

/// A stochastic workload: several event chains, each sampling its own
/// exponential inter-arrival times from a derived RNG stream and re-scheduling
/// itself. Returns the full trace plus online statistics of the draws.
fn run_workload(seed: u64) -> (Trace, OnlineStats, Histogram) {
    const CHAINS: u32 = 4;
    const EVENTS_PER_CHAIN: u32 = 200;

    let mut sim = Simulation::new(seed);
    let trace = Arc::new(Mutex::new(Trace::new()));
    let stats = Arc::new(Mutex::new(OnlineStats::new()));
    let hist = Arc::new(Mutex::new(Histogram::new(0.0, 50.0, 25)));

    fn step(
        sim: &mut Simulation,
        chain: u32,
        remaining: u32,
        mut rng: RngStream,
        trace: Arc<Mutex<Trace>>,
        stats: Arc<Mutex<OnlineStats>>,
        hist: Arc<Mutex<Histogram>>,
    ) {
        if remaining == 0 {
            return;
        }
        let delay_us = rng.exponential(10.0);
        sim.schedule_after(SimTime::from_micros_f64(delay_us), move |sim| {
            let draw = rng.u64();
            trace
                .lock()
                .unwrap()
                .push((sim.now().as_nanos(), chain, draw));
            stats.lock().unwrap().push(delay_us);
            hist.lock().unwrap().push(delay_us);
            step(sim, chain, remaining - 1, rng, trace, stats, hist);
        });
    }

    for chain in 0..CHAINS {
        let rng = sim.stream(&format!("chain-{chain}"));
        step(
            &mut sim,
            chain,
            EVENTS_PER_CHAIN,
            rng,
            Arc::clone(&trace),
            Arc::clone(&stats),
            Arc::clone(&hist),
        );
    }
    sim.run();
    assert_eq!(sim.events_executed(), u64::from(CHAINS * EVENTS_PER_CHAIN));

    let trace = Arc::try_unwrap(trace)
        .expect("sole owner")
        .into_inner()
        .unwrap();
    let stats = Arc::try_unwrap(stats)
        .expect("sole owner")
        .into_inner()
        .unwrap();
    let hist = Arc::try_unwrap(hist)
        .expect("sole owner")
        .into_inner()
        .unwrap();
    (trace, stats, hist)
}

#[test]
fn same_seed_identical_trace_and_stats() {
    let (trace_a, stats_a, hist_a) = run_workload(0xDEC0DE);
    let (trace_b, stats_b, hist_b) = run_workload(0xDEC0DE);

    assert_eq!(trace_a, trace_b, "event traces must match exactly");
    // Statistics must match bit for bit, not just approximately.
    assert_eq!(stats_a.count(), stats_b.count());
    assert_eq!(stats_a.mean().to_bits(), stats_b.mean().to_bits());
    assert_eq!(stats_a.variance().to_bits(), stats_b.variance().to_bits());
    assert_eq!(stats_a.min().to_bits(), stats_b.min().to_bits());
    assert_eq!(stats_a.max().to_bits(), stats_b.max().to_bits());
    assert_eq!(hist_a.bins(), hist_b.bins());
    assert_eq!(hist_a.underflow(), hist_b.underflow());
    assert_eq!(hist_a.overflow(), hist_b.overflow());
}

#[test]
fn different_seeds_diverge() {
    let (trace_a, _, _) = run_workload(1);
    let (trace_b, _, _) = run_workload(2);
    assert_ne!(
        trace_a, trace_b,
        "distinct seeds must produce distinct traces"
    );
}

#[test]
fn trace_is_time_ordered() {
    let (trace, _, _) = run_workload(7);
    assert!(
        trace.windows(2).all(|w| w[0].0 <= w[1].0),
        "events must fire in non-decreasing virtual time"
    );
}

#[test]
fn simultaneous_events_fire_in_scheduling_order() {
    // Tie-breaking: events scheduled at the same virtual time run in the
    // order they were scheduled, on every run.
    let order = |seed| {
        let mut sim = Simulation::new(seed);
        let log = Arc::new(Mutex::new(Vec::new()));
        for tag in 0..50u32 {
            let log = Arc::clone(&log);
            sim.schedule_at(SimTime::from_micros(10), move |_| {
                log.lock().unwrap().push(tag);
            });
        }
        sim.run();
        Arc::try_unwrap(log)
            .expect("sole owner")
            .into_inner()
            .unwrap()
    };
    let expected: Vec<u32> = (0..50).collect();
    assert_eq!(order(1), expected);
    assert_eq!(order(99), expected, "tie order must not depend on the seed");
}

/// Reference model: the seed implementation's `BinaryHeap`-of-boxed-closures
/// engine with tombstone cancellation — its own heap, entries and cancel
/// bookkeeping, sharing no code with `des::queue`. The engine must produce a
/// bit-identical trace for any workload.
mod reference {
    use des::SimTime;
    use std::cmp::Ordering;
    use std::collections::{BinaryHeap, HashSet};

    pub struct RefEntry {
        pub at: SimTime,
        pub seq: u64,
        pub f: Box<dyn FnOnce(&mut RefSim)>,
    }

    impl PartialEq for RefEntry {
        fn eq(&self, other: &Self) -> bool {
            self.at == other.at && self.seq == other.seq
        }
    }
    impl Eq for RefEntry {}
    impl PartialOrd for RefEntry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for RefEntry {
        // Max-heap inverted so the earliest (time, seq) pops first.
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .at
                .cmp(&self.at)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    #[derive(Default)]
    pub struct RefSim {
        pub now: SimTime,
        seq: u64,
        heap: BinaryHeap<RefEntry>,
        cancelled: HashSet<u64>,
    }

    impl RefSim {
        pub fn new() -> Self {
            Self::default()
        }

        pub fn schedule_at(&mut self, at: SimTime, f: impl FnOnce(&mut RefSim) + 'static) -> u64 {
            assert!(at >= self.now, "reference model: schedule in the past");
            let seq = self.seq;
            self.seq += 1;
            self.heap.push(RefEntry {
                at,
                seq,
                f: Box::new(f),
            });
            seq
        }

        /// Correct-by-construction cancel: only ids still in the heap count.
        pub fn cancel(&mut self, id: u64) -> bool {
            if self.heap.iter().any(|e| e.seq == id) && !self.cancelled.contains(&id) {
                self.cancelled.insert(id);
                true
            } else {
                false
            }
        }

        pub fn pending(&self) -> usize {
            self.heap.len() - self.cancelled.len()
        }

        pub fn run(&mut self) {
            while let Some(e) = self.heap.pop() {
                if self.cancelled.remove(&e.seq) {
                    continue;
                }
                self.now = e.at;
                (e.f)(self);
            }
        }
    }
}

/// The workload both engines execute, written once against this trait.
/// Events log `(fire time, tag)` and deterministically spawn children:
/// zero-delay same-time ties (singly and in bursts) and far-future
/// descendants.
trait Engine: Sized + 'static {
    type Id: Copy;
    fn now_ns(&self) -> u64;
    fn schedule(&mut self, at: SimTime, tag: u32, log: &OracleLog) -> Self::Id;
    fn cancel_id(&mut self, id: Self::Id) -> bool;
    fn pending(&self) -> usize;
    fn run_all(&mut self);
}

type OracleLog = Arc<Mutex<Vec<(u64, u32)>>>;

fn oracle_fire<E: Engine>(e: &mut E, tag: u32, log: &OracleLog) {
    log.lock().unwrap().push((e.now_ns(), tag));
    if tag < 100_000 {
        let now = SimTime::from_nanos(e.now_ns());
        if tag.is_multiple_of(5) {
            // Zero-delay self-spawn: same virtual time, later sequence —
            // must fire after every already-scheduled tie at this time.
            e.schedule(now, tag + 100_000, log);
        }
        if tag.is_multiple_of(11) {
            // Far-future child, five orders of magnitude past the dense cluster.
            e.schedule(now + SimTime::from_millis(50), tag + 200_000, log);
        }
        if tag.is_multiple_of(7) {
            // A burst from one event: two ties at exactly the current time
            // around a far-future sibling.
            e.schedule(now, tag + 300_000, log);
            e.schedule(now + SimTime::from_millis(40), tag + 400_000, log);
            e.schedule(now, tag + 500_000, log);
        }
    }
}

impl Engine for Simulation {
    type Id = des::EventId;
    fn now_ns(&self) -> u64 {
        self.now().as_nanos()
    }
    fn schedule(&mut self, at: SimTime, tag: u32, log: &OracleLog) -> des::EventId {
        let log = Arc::clone(log);
        self.schedule_at(at, move |sim| oracle_fire(sim, tag, &log))
    }
    fn cancel_id(&mut self, id: des::EventId) -> bool {
        self.cancel(id)
    }
    fn pending(&self) -> usize {
        self.events_pending()
    }
    fn run_all(&mut self) {
        self.run();
    }
}

impl Engine for reference::RefSim {
    type Id = u64;
    fn now_ns(&self) -> u64 {
        self.now.as_nanos()
    }
    fn schedule(&mut self, at: SimTime, tag: u32, log: &OracleLog) -> u64 {
        let log = Arc::clone(log);
        self.schedule_at(at, move |sim| oracle_fire(sim, tag, &log))
    }
    fn cancel_id(&mut self, id: u64) -> bool {
        self.cancel(id)
    }
    fn pending(&self) -> usize {
        self.pending()
    }
    fn run_all(&mut self) {
        self.run();
    }
}

/// Drive one engine through the oracle workload; returns the full event
/// trace plus the cancel outcomes and the pre-run pending count.
fn oracle_drive<E: Engine>(mut e: E, seed: u64) -> (Vec<(u64, u32)>, Vec<bool>, usize) {
    let log: OracleLog = Arc::new(Mutex::new(Vec::new()));
    let mut rng = RngStream::derive(seed, "oracle");
    let mut ids = Vec::new();
    // Dense cluster: many ties in a 500 ns window.
    for tag in 0..1500u32 {
        let t = SimTime::from_nanos(rng.u64_range(0..500));
        ids.push(e.schedule(t, tag, &log));
    }
    // Sparse far tail: seconds apart.
    for tag in 1500..1700u32 {
        let t = SimTime::from_millis(1) + SimTime::from_secs(rng.u64_range(0..5));
        ids.push(e.schedule(t, tag, &log));
    }
    // Cancel a deterministic third, including double-cancels.
    let mut cancels = Vec::new();
    for (i, id) in ids.iter().enumerate() {
        if i.is_multiple_of(3) {
            cancels.push(e.cancel_id(*id));
        }
        if i.is_multiple_of(9) {
            cancels.push(e.cancel_id(*id));
        }
    }
    let pending = e.pending();
    e.run_all();
    let trace = log.lock().unwrap().clone();
    (trace, cancels, pending)
}

#[test]
fn engine_matches_reference_heap_model() {
    let (trace_eng, cancels_eng, pending_eng) = oracle_drive(Simulation::new(0xACE), 0xACE);
    let (trace_ref, cancels_ref, pending_ref) = oracle_drive(reference::RefSim::new(), 0xACE);

    assert_eq!(
        pending_eng, pending_ref,
        "pending counts must agree before the run"
    );
    assert_eq!(
        cancels_eng, cancels_ref,
        "cancel outcomes must agree event by event"
    );
    assert_eq!(
        trace_eng.len(),
        trace_ref.len(),
        "both engines must execute the same number of events"
    );
    // Diff the full trace: any (time, seq) tie-break divergence shows up as
    // the first mismatching (fire time, tag) pair.
    if let Some(i) = (0..trace_eng.len()).find(|&i| trace_eng[i] != trace_ref[i]) {
        panic!(
            "traces diverge at event {i}: engine fired {:?}, reference fired {:?}",
            trace_eng[i], trace_ref[i]
        );
    }
}

#[test]
fn batch_push_behind_peeked_cursor_keeps_order() {
    // run_until peeks at the far event and stops short of it; a batch of
    // pushes then lands entirely *before* that peeked head, at and after
    // `now`, and must still fire in (time, seq) order, zero-delay items first.
    let mut sim = Simulation::new(1);
    let log = Arc::new(Mutex::new(Vec::new()));
    let l = Arc::clone(&log);
    sim.schedule_at(SimTime::from_secs(10), move |_| l.lock().unwrap().push(10));
    sim.run_until(SimTime::from_secs(2));
    assert_eq!(sim.now(), SimTime::from_secs(2));
    let now = sim.now();
    let items: Vec<(SimTime, u64)> = vec![
        (now, 2), // exactly `now`: the zero-delay edge
        (SimTime::from_secs(7), 7),
        (now, 202), // second tie at `now`, later seq
        (SimTime::from_secs(3), 3),
    ];
    for (at, tag) in items {
        let l = Arc::clone(&log);
        sim.schedule_at(at, move |_| l.lock().unwrap().push(tag));
    }
    sim.run();
    assert_eq!(*log.lock().unwrap(), vec![2, 202, 3, 7, 10]);
    assert_eq!(sim.events_executed(), 5);
}

#[test]
fn capture_size_boundary_does_not_change_the_trace() {
    // Same workload scheduled twice: closures capturing exactly three words
    // (an Arc + two u64s — the inline-cell layout) and closures one word
    // over the budget (boxed fallback). Storage layout must be invisible:
    // identical traces, and the hit-ratio counters prove each run actually
    // took the path under test.
    const N: u64 = 500;
    let time = |i: u64| SimTime::from_nanos(i.wrapping_mul(2_654_435_761) % 4_000);

    let mut inline_sim = Simulation::new(3);
    let inline_log = Arc::new(Mutex::new(Vec::new()));
    for i in 0..N {
        let log = Arc::clone(&inline_log);
        let (a, b) = (i, i ^ 0x9e37);
        inline_sim.schedule_at(time(i), move |sim| {
            log.lock().unwrap().push((sim.now().as_nanos(), a ^ b));
        });
    }
    inline_sim.run();
    assert_eq!(inline_sim.events_scheduled_inline(), N);
    assert_eq!(inline_sim.events_scheduled_boxed(), 0);
    assert_eq!(inline_sim.inline_hit_ratio(), 1.0);

    let mut boxed_sim = Simulation::new(3);
    let boxed_log = Arc::new(Mutex::new(Vec::new()));
    for i in 0..N {
        let log = Arc::clone(&boxed_log);
        let (a, b, pad) = (i, i ^ 0x9e37, 0u64);
        boxed_sim.schedule_at(time(i), move |sim| {
            log.lock()
                .unwrap()
                .push((sim.now().as_nanos(), a ^ b ^ pad));
        });
    }
    boxed_sim.run();
    assert_eq!(boxed_sim.events_scheduled_inline(), 0);
    assert_eq!(boxed_sim.events_scheduled_boxed(), N);
    assert_eq!(boxed_sim.inline_hit_ratio(), 0.0);

    assert_eq!(*inline_log.lock().unwrap(), *boxed_log.lock().unwrap());
    assert_eq!(inline_sim.events_executed(), boxed_sim.events_executed());
}

#[test]
fn derived_streams_are_insensitive_to_sibling_draws() {
    // Adding a new random component must not perturb existing streams: the
    // draws of `chain-0` are the same whether or not `chain-1` also draws.
    let sim = Simulation::new(42);
    let mut alone = sim.stream("chain-0");
    let solo: Vec<u64> = (0..32).map(|_| alone.u64()).collect();

    let sim2 = Simulation::new(42);
    let mut other = sim2.stream("chain-1");
    let _ = other.u64();
    let mut with_sibling = sim2.stream("chain-0");
    let interleaved: Vec<u64> = (0..32).map(|_| with_sibling.u64()).collect();

    assert_eq!(solo, interleaved);
}
