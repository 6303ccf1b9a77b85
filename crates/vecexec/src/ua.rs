//! The vectorized UA path: `⟦·⟧_UA` as bitmap propagation.
//!
//! The row engine implements UA semantics by *rewriting* the query (extra
//! `ua_c` projections, `LEAST` markers — Figures 8/9) and executing the
//! rewritten plan row by row. Here the rewriting never materializes as a
//! plan: base scans strip the `ua_c` column of the encoded table into each
//! batch's **label bitmap**, and the operators propagate labels directly —
//!
//! ```text
//! ⟦R⟧        scan: marker column → label bitmap
//! ⟦σ_θ(Q)⟧   filter: labels gathered with the surviving rows
//! ⟦π_A(Q)⟧   project: labels carried through per row copy
//! ⟦Q₁ ⋈ Q₂⟧  join: label = l_bit AND r_bit   (min over {0,1}, bitwise)
//! ⟦Q₁ ∪ Q₂⟧  union: label bitmaps concatenate
//! ```
//!
//! which is exactly the rewritten query's effect on the encoded
//! representation (Theorem 7), minus the per-tuple pair-semiring calls. The
//! result re-attaches the bitmap as a trailing `ua_c` column, so it is
//! byte-compatible with the row path's `ua_engine::UaResult` table.
//!
//! Input is the user query's **physical plan** — the `RA⁺` fragment of
//! [`Plan`], optionally already shaped by `ua-plan`'s optimizer (so
//! [`Plan::HashJoin`] appears here too; the optimizer keeps its expressions
//! name-based precisely because these batches carry no marker column and
//! positions computed against encoded schemas would misalign) — plus any
//! trailing [`Plan::Sort`] / [`Plan::Limit`] / [`Plan::TopK`] chain of the
//! user query. Those execute **natively** on the
//! encoded batches (columnar sort with the label as the marker-equivalent
//! final tie-break, bounded Top-K heap, copy-counting limit) — the old
//! row-engine fallback for `ORDER BY`/`LIMIT` is gone. `DISTINCT` and
//! aggregation stay rejected (not closed under UA semantics), and any
//! expression mentioning the `ua_c` marker is rejected exactly like the
//! row path's `rewrite_ua`.
//!
//! UA is one [`Semantics`] of the one morsel-parallel driver
//! ([`crate::exec`]): scans pick the encoded converter, the marker checks
//! arm, and every kernel is the deterministic one — label ANDs run per
//! morsel, and parallel output is byte-identical to serial output for
//! every thread count. [`crate::exec::execute`] with [`Semantics::Ua`]
//! returns the encoded table; what remains here is the stream forward
//! the benchmark adapter calls.

use crate::columnar::BatchStream;
use crate::exec::stream;
use ua_plan::plan::Plan;
use ua_plan::storage::Catalog;
use ua_plan::{EngineError, ExecOptions, Semantics};

/// [`stream`] under UA semantics: the *user* query's physical plan over
/// UA-encoded base tables, labels in each batch's bitmap.
pub fn ua_stream_opts(
    plan: &Plan,
    catalog: &Catalog,
    opts: ExecOptions,
) -> Result<BatchStream, EngineError> {
    stream(plan, catalog, opts, Semantics::Ua)
}
