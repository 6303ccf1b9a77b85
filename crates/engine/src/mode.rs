//! Execution-mode selection.
//!
//! Two executors run the same [`Plan`](ua_plan::plan::Plan)s: the
//! batch-oriented columnar engine in `ua-vecexec` — the default, 2–7x the
//! interpreter on every data workload of the `spine` benchmark — and the
//! row-at-a-time interpreter in [`ua_plan::exec`], which stays selectable
//! as the differential oracle. Both sit below this crate, so
//! [`crate::ua::UaSession`] calls whichever its [`ExecMode`] selects.

pub use ua_plan::options::ExecOptions;

/// Which executor a session uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ExecMode {
    /// The materializing row-at-a-time interpreter: the reference every
    /// vectorized result is tested against.
    Row,
    /// The batch-oriented columnar engine (`ua-vecexec`), one morsel
    /// driver for det / UA / AU (the default).
    #[default]
    Vectorized,
}
