//! Symbolic boolean conditions over comparison atoms.
//!
//! This crate supplies everything the UA-DB reproduction needs around
//! C-table *local conditions* (paper Sections 4.1 and 11.1):
//!
//! * [`condition`] — the condition language (atoms over variables and
//!   constants, `∧`/`∨`/`¬`), with evaluation, substitution and
//!   simplification; conditions form the lineage semiring
//!   ([`semiring_impl`]);
//! * [`cnf`] — CNF recognition and the **PTIME tautology check** the paper's
//!   c-sound C-table labeling scheme builds on;
//! * [`solver`] — an **exact** validity/satisfiability decision procedure by
//!   order-region enumeration, substituting for the paper's use of Z3;
//! * [`prob`] — exact (Shannon expansion) and Monte-Carlo probability of a
//!   condition under independent per-variable distributions (PC-tables,
//!   MayBMS `conf()`);
//! * [`symbolic`] — translation of relational predicates applied to
//!   variable-carrying tuples into conditions (symbolic selection/join over
//!   C-tables).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cnf;
pub mod condition;
pub mod parse;
pub mod prob;
pub mod semiring_impl;
pub mod solver;
pub mod symbolic;

pub use cnf::{cnf_tautology, is_cnf, to_cnf};
pub use condition::{Atom, Condition, Term};
pub use parse::{parse_condition, CondParseError, VarInterner};
pub use prob::{probability, probability_monte_carlo, samples_for_error, VarDistributions};
pub use solver::Solver;
pub use symbolic::{predicate_to_condition, SymbolicError};
