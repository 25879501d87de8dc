//! Deterministic discrete-event simulation kernel used by the Mantle
//! reproduction.
//!
//! The kernel is intentionally small: a virtual millisecond clock
//! ([`SimTime`]), a stable-order event queue ([`EventQueue`]), seeded random
//! number streams ([`SimRng`]), and the statistics helpers the paper's
//! evaluation needs (Welford summaries, bucketed time series, exponentially
//! decayed counters).
//!
//! Everything is deterministic given a seed: the event queue breaks ties on
//! insertion order, and every component draws randomness from a named
//! sub-stream of the master seed, so experiment runs are exactly
//! reproducible — an explicit contrast with the measurement noise the paper
//! describes in §2.2.2 (which we re-introduce *deliberately*, as seeded
//! noise, in the MDS crate).
//!
//! The queue is a binary heap; [`SchedulerKind`] names it for reports.

#![warn(missing_docs)]

pub mod clock;
pub mod events;
pub mod rng;
pub mod stats;
pub mod time;

pub use clock::{ClockMode, WallClock};
pub use events::{EventQueue, Scheduled, SchedulerKind};
pub use rng::SimRng;
pub use stats::{DecayCounter, OnlineStats, Summary, TimeSeries};
pub use time::SimTime;
