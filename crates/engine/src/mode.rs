//! Execution-mode selection.
//!
//! Two executors run the same [`Plan`](ua_plan::plan::Plan)s: the
//! row-at-a-time interpreter in [`ua_plan::exec`] and the batch-oriented
//! columnar engine in `ua-vecexec`. Both sit below this crate, so
//! [`crate::ua::UaSession`] calls whichever its [`ExecMode`] selects.

pub use ua_plan::options::ExecOptions;

/// Which executor a session uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ExecMode {
    /// The materializing row-at-a-time interpreter (the default).
    #[default]
    Row,
    /// The batch-oriented columnar engine (`ua-vecexec`), which carries UA
    /// labels as per-batch bitmaps.
    Vectorized,
}
