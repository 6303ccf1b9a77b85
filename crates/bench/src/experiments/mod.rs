//! One module per paper table/figure.

pub mod access;
pub mod fig10;
pub mod fnr;
pub mod pdbench_suite;
pub mod probabilistic;
pub mod real_queries;
pub mod utility_exp;
