//! # ds-sim — event-driven simulation kernel
//!
//! The foundation substrate for the `direct-store` reproduction of
//! *"A Simple Cache Coherence Scheme for Integrated CPU-GPU Systems"*
//! (DAC 2020). Everything above this crate — caches, coherence, DRAM,
//! CPU and GPU models — is driven by the deterministic discrete-event
//! machinery defined here.
//!
//! The crate provides:
//!
//! * [`Cycle`] — a newtype for simulated time,
//! * [`EventQueue`] — a deterministic time-ordered event queue with
//!   FIFO tie-breaking for simultaneous events,
//! * statistics primitives ([`Counter`], [`Histogram`]) and math
//!   helpers ([`geomean`]).

pub mod cycle;
pub mod event;
pub mod stats;

#[cfg(test)]
mod proptests;

pub use cycle::Cycle;
pub use event::EventQueue;
pub use stats::{geomean, Counter, Histogram, RateStat};
