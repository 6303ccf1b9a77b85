//! `⟦·⟧_UA` on this engine: nothing of its own. The session hands the
//! driver ([`crate::exec`]) the optimized `⟦·⟧_UA`-rewritten plan
//! ([`ua_plan::ua::rewrite_ua_plan`]) — the plan the row engine runs — and
//! the driver runs it with its det operators over the encoded tables,
//! where `ua_c` is an ordinary `Int` column (Theorem 7: the rewriting
//! computes the encoded result on any bag engine). [`Semantics::Ua`] only
//! tags the stats and has them count `certain_rows`. What remains here is
//! the stream forward the benchmark adapter calls.

use crate::columnar::BatchStream;
use crate::exec::stream;
use ua_plan::plan::Plan;
use ua_plan::storage::Catalog;
use ua_plan::ua::rewrite_ua_plan;
use ua_plan::{EngineError, ExecOptions, Semantics};

/// [`stream`] of a user plan under UA semantics: rewrite, then stream the
/// rewriting (marker column last).
pub fn ua_stream_opts(
    plan: &Plan,
    catalog: &Catalog,
    opts: ExecOptions,
) -> Result<BatchStream, EngineError> {
    stream(
        &rewrite_ua_plan(plan, catalog)?,
        catalog,
        opts,
        Semantics::Ua,
    )
}
