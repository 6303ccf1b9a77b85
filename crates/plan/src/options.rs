//! What a session hands an executor per query: the semantics to run the
//! plan under and the vectorized executor's runtime knobs.

/// The semantics a plan executes under — the annotation both papers vary
/// while the query semantics stays one: plain bag multiplicities (`K`),
/// certain/uncertain labels (`K²`), or attribute-range triples with
/// multiplicity bounds (the AU product semiring).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Semantics {
    /// Deterministic bag semantics.
    Det,
    /// `⟦·⟧_UA`. On both engines the plan is the `⟦·⟧_UA`-rewritten plan
    /// ([`crate::ua::rewrite_ua_plan`]), run deterministically; the stats
    /// are tagged `ua` and count `certain_rows` from the marker column.
    Ua,
    /// `⟦·⟧_AU` over AU-encoded (flattened range-triple) tables.
    Au,
}

impl Semantics {
    /// The tag [`ua_obs::QueryStats::semantics`] carries.
    pub fn name(self) -> &'static str {
        match self {
            Semantics::Det => "det",
            Semantics::Ua => "ua",
            Semantics::Au => "au",
        }
    }
}

/// Runtime knobs a session passes to the vectorized executor per query.
///
/// The executor's *output* is independent of every field here — the
/// morsel-parallel pipeline merges per-batch results in deterministic
/// batch-index order, so any thread count (and any batch size) produces
/// byte-identical tables; the differential/determinism tests assert it.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecOptions {
    /// Worker threads for the morsel-driven parallel pipeline. `0` means
    /// resolve automatically: the `UA_VEC_THREADS` environment variable if
    /// set, else the machine's available parallelism. `1` forces the serial
    /// pipeline.
    pub threads: usize,
    /// Rows per column-batch morsel; `0` means the executor's default
    /// (`ua_vecexec::DEFAULT_BATCH_ROWS`).
    pub batch_rows: usize,
    /// Whether the executor should collect per-operator
    /// [`ua_obs::QueryStats`] and return them next to the result. Output
    /// is byte-identical on or off.
    pub collect_stats: bool,
    /// Whether the executor should emit query-lifetime trace events
    /// (bind/execute/merge phase spans on the session thread's armed
    /// trace ring, plus per-morsel task spans recorded by the pool and
    /// injected after the join). Like stats, tracing is a pure observer —
    /// output is byte-identical on or off.
    pub collect_trace: bool,
}
