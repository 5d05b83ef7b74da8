//! # des — deterministic discrete-event simulation kernel
//!
//! Foundation for the software-disaggregation reproduction: a virtual clock,
//! a pending-event queue — binary heap over a generational slot arena, with
//! O(1) cancellation and deterministic tie-breaking (see [`queue`]) —
//! zero-allocation inline closure storage on the event hot path (see
//! [`cell`]), per-component seedable RNG streams, and online statistics
//! (mean/variance/percentiles).
//!
//! Every simulated experiment in the workspace is driven by [`Simulation`]:
//! components schedule closures at future virtual times and the engine runs
//! them in `(time, sequence)` order, so identical seeds always produce
//! identical traces.
//!
//! ```
//! use des::{Simulation, SimTime};
//!
//! let mut sim = Simulation::new(42);
//! sim.schedule_at(SimTime::from_micros(5), |sim| {
//!     let t = sim.now();
//!     sim.schedule_after(SimTime::from_micros(10), move |sim| {
//!         assert_eq!(sim.now(), t + SimTime::from_micros(10));
//!     });
//! });
//! sim.run();
//! assert_eq!(sim.now(), SimTime::from_micros(15));
//! ```

pub mod cell;
pub mod event;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

pub use cell::EventCell;
pub use event::{EventId, Simulation};
pub use queue::EventQueue;
pub use rng::RngStream;
pub use stats::{OnlineStats, Percentiles};
pub use time::SimTime;
