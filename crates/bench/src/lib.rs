//! Experiment harness reproducing every table and figure of the UA-DB
//! paper's evaluation (Section 11); [`experiments`] has one module per
//! table or figure.
//!
//! Run everything with `cargo run --release -p ua-bench --bin reproduce`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;
