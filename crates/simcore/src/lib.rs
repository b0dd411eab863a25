//! # simcore — discrete-event simulation kernel
//!
//! Foundation substrate for the STELLAR reproduction. The parallel-file-system
//! model in the `pfs` crate is built on the primitives defined here:
//!
//! * [`time::SimTime`] — virtual time as integer nanoseconds, total-ordered and
//!   overflow-checked in debug builds.
//! * [`events::EventQueue`] — a deterministic priority queue of timestamped
//!   events with FIFO tie-breaking.
//! * [`resources`] — queueing-theory building blocks (single/multi-server FIFO
//!   queues, bandwidth channels, sliding windows) expressed as *calendar*
//!   resources: each request is scheduled analytically against the resource's
//!   busy calendar, which keeps the simulation fast (no per-byte events) while
//!   preserving FIFO ordering and capacity limits exactly.
//! * [`rng::SimRng`] — seeded, reproducible randomness (ChaCha8) with the
//!   distributions the PFS model needs (lognormal service-time noise,
//!   exponentials, bounded uniforms).
//! * [`stats`] — online mean/variance accumulators, confidence intervals and
//!   percentile samples used by the measurement harness.
//!
//! The kernel makes one global guarantee that everything downstream relies on:
//! **given the same seed and the same inputs, a simulation is bit-for-bit
//! reproducible** on every platform.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod chacha;
pub mod events;
pub mod hash;
pub mod resources;
pub mod rng;
pub mod stats;
pub mod time;

pub use events::EventQueue;
pub use rng::SimRng;
pub use time::SimTime;

#[cfg(test)]
mod proptests;
