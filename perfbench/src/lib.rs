//! Layered end-to-end benchmark for `slic`.
//!
//! Each run executes whole characterization campaigns — what `slic characterize
//! --liberty` does — through the public `slic-pipeline` API, back to back in one
//! process, and checks every campaign's Liberty output.  With tracing off it reports
//! the end-to-end metrics; the traced run times each layer's public entry points from
//! this crate (timing decorators on the backend and cache traits, spans around the
//! rest) and reads the program's own counters.  See `README.md` for the workloads and
//! metrics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod fixture;
pub mod probe;
pub mod run;
pub mod sys;
