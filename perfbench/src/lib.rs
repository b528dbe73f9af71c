//! The served-frame benchmark.
//!
//! One run drives an in-process `sw_serve::Daemon` over a unix socket
//! with a seeded load generator, verifies every response against a local
//! execution of the same request, and reports either the end-to-end
//! metrics (untraced) or the per-layer metrics (traced). See
//! `perfbench/README.md` for the workloads and the metric mapping.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gen;
pub mod layers;
pub mod metrics;
pub mod run;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod verify;
