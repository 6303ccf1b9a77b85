//! Per-operator execution statistics for the row engine.
//!
//! `Tracer` is the span stack the recursive executors
//! ([`crate::exec::execute`], [`crate::au::execute_au`]) thread through
//! their recursion: entering a plan node pushes a frame (stamped with the
//! planner's cardinality estimate from [`crate::optimize::estimate_rows`]),
//! exiting pops it — filled with rows out and cumulative wall time — and
//! attaches it to the parent frame, so a finished query yields an
//! [`OperatorStats`] tree mirroring the executed plan.
//!
//! The tracer is **off the result path**: every method is a no-op for
//! `Tracer::off`, and nothing an executor produces depends on the
//! tracer's state — results are byte-identical with collection on or off
//! (the differential tests assert it).

use crate::au::au_table;
use crate::exec::EngineError;
use crate::options::Semantics;
use crate::plan::Plan;
use crate::storage::{Catalog, Table};
use ua_obs::{OperatorStats, QueryStats, Stopwatch};

/// The span stack threaded through the row executors' recursion.
pub(crate) struct Tracer<'a> {
    state: Option<TraceState<'a>>,
}

struct TraceState<'a> {
    catalog: &'a Catalog,
    /// `stack[0]` is a sentinel root; finished spans attach to the frame
    /// below them.
    stack: Vec<Frame>,
}

struct Frame {
    node: OperatorStats,
    start: Stopwatch,
}

impl<'a> Tracer<'a> {
    /// A disabled tracer: every method is a no-op (the default execution
    /// path).
    pub(crate) fn off() -> Tracer<'a> {
        Tracer { state: None }
    }

    /// A collecting tracer. `catalog` supplies the planner statistics for
    /// per-node cardinality estimates.
    pub(crate) fn on(catalog: &'a Catalog) -> Tracer<'a> {
        Tracer {
            state: Some(TraceState {
                catalog,
                stack: vec![Frame {
                    node: OperatorStats::new("", ""),
                    start: Stopwatch::start(),
                }],
            }),
        }
    }

    /// Open a span for `plan` (records the estimated cardinality now, the
    /// actuals at [`Tracer::exit`]).
    pub(crate) fn enter(&mut self, plan: &Plan) {
        if let Some(st) = &mut self.state {
            let (name, detail) = node_label(plan);
            let mut node = OperatorStats::new(name, detail);
            node.est_rows = crate::optimize::estimate_rows(plan, st.catalog);
            st.stack.push(Frame {
                node,
                start: Stopwatch::start(),
            });
        }
    }

    /// Close the current span with its actual output cardinality and
    /// attach it to the parent.
    pub(crate) fn exit(&mut self, rows_out: usize) {
        if let Some(st) = &mut self.state {
            let mut frame = st.stack.pop().expect("exit without enter");
            frame.node.rows_out = rows_out as u64;
            frame.node.wall_ns = frame.start.elapsed_ns();
            st.stack
                .last_mut()
                .expect("sentinel root below every span")
                .node
                .children
                .push(frame.node);
        }
    }

    /// Close the current span as *failed*: stamp its wall time, mark it
    /// with an `error=1` extra, and attach it to the parent — so a query
    /// that dies mid-execution still yields the partial operator tree up
    /// to (and including) the failing span, instead of nothing.
    pub(crate) fn abandon(&mut self) {
        if let Some(st) = &mut self.state {
            let mut frame = st.stack.pop().expect("abandon without enter");
            frame.node.wall_ns = frame.start.elapsed_ns();
            frame.node.push_extra("error", 1);
            st.stack
                .last_mut()
                .expect("sentinel root below every span")
                .node
                .children
                .push(frame.node);
        }
    }

    /// Record a named counter on the current span.
    pub(crate) fn extra(&mut self, key: &str, value: u64) {
        if let Some(st) = &mut self.state {
            st.stack
                .last_mut()
                .expect("extra outside a span")
                .node
                .push_extra(key, value);
        }
    }

    /// Whether this tracer collects (lets executors skip pure-stats work
    /// like phase timing when off).
    pub(crate) fn enabled(&self) -> bool {
        self.state.is_some()
    }

    /// The finished span tree (the single top-level operator), if any.
    /// Error unwinding can leave spans open (the fused Map-over-Join path
    /// holds two frames at once); they are closed here with the `error`
    /// marker so partial trees always come out well-formed.
    pub(crate) fn finish(self) -> Option<OperatorStats> {
        self.state.and_then(|mut st| {
            while st.stack.len() > 1 {
                let mut frame = st.stack.pop().expect("len checked");
                frame.node.wall_ns = frame.start.elapsed_ns();
                frame.node.push_extra("error", 1);
                st.stack
                    .last_mut()
                    .expect("len checked")
                    .node
                    .children
                    .push(frame.node);
            }
            let mut root = st.stack.pop().expect("sentinel root");
            debug_assert!(root.node.children.len() <= 1, "one top-level span");
            root.node.children.pop()
        })
    }
}

/// Execute `plan` against `catalog` under `semantics` on the row engine,
/// materializing the result table in that semantics' encoding — the twin
/// of `ua_vecexec::execute`, and the oracle it is tested against. `Ua`
/// plans arrive `⟦·⟧_UA`-rewritten and run as deterministic ones; `Au`
/// plans run the AU interpreter and come back flattened ([`au_table`]).
///
/// With `collect_stats` the run's [`QueryStats`] come back next to the
/// result — on the error path too, as the partial operator tree whose
/// failing spans carry an `error=1` extra. The result is byte-identical
/// with collection on or off.
pub fn execute_row(
    plan: &Plan,
    catalog: &Catalog,
    semantics: Semantics,
    collect_stats: bool,
) -> (Result<Table, EngineError>, Option<QueryStats>) {
    let mut tracer = if collect_stats {
        ua_obs::mem_query_start();
        Tracer::on(catalog)
    } else {
        Tracer::off()
    };
    let result = match semantics {
        Semantics::Det | Semantics::Ua => crate::exec::execute_traced(plan, catalog, &mut tracer),
        Semantics::Au => {
            crate::au::execute_au_traced(plan, catalog, &mut tracer).map(|rel| au_table(&rel))
        }
    };
    // A collecting tracer always finishes into a root span (the executors
    // open one before anything can fail), so the accumulator armed above
    // is disarmed here.
    let stats = tracer.finish().map(|root| QueryStats {
        engine: "row".into(),
        semantics: semantics.name().into(),
        root,
        pool: None,
        peak_mem_bytes: ua_obs::mem_query_finish().unwrap_or(0),
    });
    (result, stats)
}

/// Estimated logical bytes of one value: a fixed 16-byte slot (tag +
/// payload word) plus string payload. Computed from value *shape*, never
/// the allocator, so the figure is deterministic across runs and safe for
/// golden snapshots — the convention every `mem_bytes` figure in both
/// engines follows.
pub fn value_mem_bytes(v: &ua_data::value::Value) -> u64 {
    match v {
        ua_data::value::Value::Str(s) => 16 + s.len() as u64,
        _ => 16,
    }
}

/// Estimated logical bytes of one tuple: an 8-byte header plus its
/// values' [`value_mem_bytes`].
pub fn tuple_mem_bytes(t: &ua_data::tuple::Tuple) -> u64 {
    8 + t.values().iter().map(value_mem_bytes).sum::<u64>()
}

/// The node-local operator label: the same rendering [`Plan`]'s `Display`
/// uses, minus the recursive children. Public so the vectorized driver
/// labels its spans identically.
pub fn node_label(plan: &Plan) -> (String, String) {
    match plan {
        Plan::Scan(name) => ("Scan".into(), name.clone()),
        Plan::Alias { name, .. } => ("Alias".into(), name.clone()),
        Plan::Filter { predicate, .. } => ("Filter".into(), predicate.to_string()),
        Plan::Map { columns, .. } => {
            let detail = columns
                .iter()
                .map(|c| format!("{}→{}", c.expr, c.column))
                .collect::<Vec<_>>()
                .join(", ");
            ("Map".into(), detail)
        }
        Plan::Join {
            predicate: Some(p), ..
        } => ("Join".into(), p.to_string()),
        Plan::Join {
            predicate: None, ..
        } => ("Cross".into(), String::new()),
        Plan::HashJoin {
            keys,
            residual,
            build_left,
            ..
        } => {
            let mut detail = keys
                .iter()
                .map(|(l, r)| format!("{l}={r}"))
                .collect::<Vec<_>>()
                .join(", ");
            if let Some(res) = residual {
                detail.push_str(&format!("; σ[{res}]"));
            }
            detail.push_str(&format!(
                "; build={}",
                if *build_left { "left" } else { "right" }
            ));
            ("HashJoin".into(), detail)
        }
        Plan::UnionAll { .. } => ("UnionAll".into(), String::new()),
        Plan::Except { all, .. } => (
            "Except".into(),
            if *all { "all".into() } else { String::new() },
        ),
        Plan::OuterJoin {
            predicate, kind, ..
        } => (
            "OuterJoin".into(),
            match predicate {
                Some(p) => format!("{kind}; {p}"),
                None => kind.to_string(),
            },
        ),
        Plan::Distinct { .. } => ("Distinct".into(), String::new()),
        Plan::Aggregate {
            group_by,
            aggregates,
            ..
        } => {
            let groups = group_by
                .iter()
                .map(|g| g.column.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            let aggs = aggregates
                .iter()
                .map(|a| format!("{}→{}", a.func, a.name))
                .collect::<Vec<_>>()
                .join(", ");
            ("Aggregate".into(), format!("{groups}; {aggs}"))
        }
        Plan::Sort { keys, .. } => ("Sort".into(), keys.len().to_string()),
        Plan::Limit { limit, .. } => ("Limit".into(), limit.to_string()),
        Plan::TopK { keys, limit, .. } => ("TopK".into(), format!("{} keys; {limit}", keys.len())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ua_data::schema::Schema;
    use ua_data::tuple;

    fn catalog() -> Catalog {
        let c = Catalog::new();
        c.register(
            "emp",
            Table::from_rows(
                Schema::qualified("emp", ["name", "dept", "salary"]),
                vec![
                    tuple!["ann", "eng", 100i64],
                    tuple!["bob", "eng", 80i64],
                    tuple!["cat", "ops", 60i64],
                ],
            ),
        );
        c
    }

    #[test]
    fn traced_execution_matches_plain_and_builds_tree() {
        let c = catalog();
        let plan = Plan::Filter {
            input: Box::new(Plan::Scan("emp".into())),
            predicate: ua_data::expr::Expr::named("salary").ge(ua_data::expr::Expr::lit(80i64)),
        };
        let plain = crate::execute(&plan, &c).unwrap();
        let (traced, stats) = execute_row(&plan, &c, Semantics::Det, true);
        let (traced, root) = (traced.unwrap(), stats.unwrap().root);
        assert_eq!(plain.schema(), traced.schema());
        assert_eq!(plain.rows(), traced.rows());
        assert_eq!(root.name, "Filter");
        assert_eq!(root.rows_out, 2);
        assert_eq!(root.children.len(), 1);
        assert_eq!(root.children[0].name, "Scan");
        assert_eq!(root.children[0].rows_out, 3);
        assert_eq!(root.children[0].est_rows, Some(3));
        assert!(root.wall_ns >= root.children[0].wall_ns);
    }

    #[test]
    fn off_tracer_is_inert() {
        let mut t = Tracer::off();
        t.enter(&Plan::Scan("emp".into()));
        t.extra("k", 1);
        t.exit(5);
        assert!(!t.enabled());
        assert!(t.finish().is_none());
    }
}
