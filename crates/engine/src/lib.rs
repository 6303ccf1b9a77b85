//! The UA-DB middleware (paper Section 9): [`UaSession`] parses SQL, plans
//! and optimizes it, and runs it under deterministic, UA (`⟦·⟧_UA`) or AU
//! (`⟦·⟧_AU`) semantics on either executor.
//!
//! Everything the session is built from lives in the crates below it and is
//! re-exported here under its old path: plans, storage, the SQL frontend,
//! the optimizer and the row interpreter come from `ua-plan`, the columnar
//! executor is `ua-vecexec`. What this crate itself holds:
//!
//! * [`ua`] — the session, the UA frontend (labeling-scheme source
//!   conversion, `⟦·⟧_UA` rewriting, dispatch to the selected executor);
//! * [`au`] — the AU frontend (range-labeling source conversion,
//!   `query_au`);
//! * [`mode`] — [`ExecMode`], the executor choice.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod au;
pub mod mode;
pub mod ua;

pub use au::{ctable_source_au, ti_source_au, x_source_au, AuResult};
pub use mode::ExecMode;
pub use ua::{ctable_source, ti_source, x_source, UaResult, UaSession};
// Every `ua_engine::…` path that predates the `ua-plan` split — modules
// (`exec`, `optimize`, `plan`, `sql`, `stats`, `storage`) and flat items
// alike — still names the same thing.
pub use ua_plan::*;
