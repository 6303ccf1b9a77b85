//! Physical query plans.
//!
//! [`Plan`] extends the paper's `RA⁺` core (scan / filter / map / join /
//! union-all) with the operators a usable SQL engine needs on top:
//! duplicate elimination, grouping/aggregation, sorting and limits. Only the
//! `RA⁺` core participates in the UA rewriting (the paper defers
//! aggregation to future work); the extras exist so that the evaluation
//! queries (Q1–Q5, QP1–QP3) run end-to-end.

use std::fmt;
pub use ua_data::agg::AggFunc;
use ua_data::algebra::{ProjColumn, RaExpr};
use ua_data::expr::Expr;

/// One aggregate in an [`Plan::Aggregate`] node.
#[derive(Clone, PartialEq, Debug)]
pub struct AggExpr {
    /// The function.
    pub func: AggFunc,
    /// Its argument (`None` for `COUNT(*)`).
    pub arg: Option<Expr>,
    /// Output column name.
    pub name: String,
}

/// Sort direction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SortOrder {
    /// Ascending (default).
    Asc,
    /// Descending.
    Desc,
}

/// Which side of an outer join is preserved (emitted even without a
/// match, padded with NULLs on the other side).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OuterKind {
    /// `LEFT [OUTER] JOIN` — every left row survives.
    Left,
    /// `RIGHT [OUTER] JOIN` — every right row survives.
    Right,
}

impl fmt::Display for OuterKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OuterKind::Left => "left",
            OuterKind::Right => "right",
        })
    }
}

/// A physical plan.
#[derive(Clone, PartialEq, Debug)]
pub enum Plan {
    /// Scan a catalog table.
    Scan(String),
    /// Re-qualify columns.
    Alias {
        /// Input plan.
        input: Box<Plan>,
        /// New qualifier.
        name: String,
    },
    /// σ — keep rows whose predicate is (certainly) true.
    Filter {
        /// Input plan.
        input: Box<Plan>,
        /// The predicate.
        predicate: Expr,
    },
    /// π — per-row expression evaluation, duplicates preserved.
    Map {
        /// Input plan.
        input: Box<Plan>,
        /// Output columns.
        columns: Vec<ProjColumn>,
    },
    /// θ-join (hash join on extractable equi-keys, else nested loops).
    Join {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
        /// Join predicate (`None` = cross product).
        predicate: Option<Expr>,
    },
    /// Equi-hash-join with an explicit physical strategy, produced by the
    /// optimizer's join-planning pass (`optimize::plan_joins`). Output
    /// columns are always `left ++ right` regardless of build side; rows are
    /// emitted in probe-side scan order (build-side scan order within one
    /// probe row), so both executors produce identical row orders.
    HashJoin {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
        /// Equi-key pairs: the first expression is evaluated against the
        /// left input's schema, the second against the right input's.
        keys: Vec<(Expr, Expr)>,
        /// Remaining predicate over the concatenated schema (`None` when
        /// the keys cover the whole join condition).
        residual: Option<Expr>,
        /// Build the hash table on the left (smaller) side and probe with
        /// the right; `false` builds on the right and probes with the left.
        build_left: bool,
    },
    /// Bag union.
    UnionAll {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
    },
    /// Bag difference (`EXCEPT [ALL]`). Tuples match under IS-NOT-DISTINCT
    /// semantics (NULL matches NULL, like `GROUP BY`/`DISTINCT` keys, unlike
    /// join equality). `all = true` is bag monus: each right occurrence
    /// cancels one left occurrence, earliest-first in left scan order.
    /// `all = false` is set EXCEPT: the first occurrence of each left tuple
    /// with no right match survives, in order of first occurrence.
    Except {
        /// Left input.
        left: Box<Plan>,
        /// Right input (union-compatible with the left).
        right: Box<Plan>,
        /// Bag (`EXCEPT ALL`) vs set (`EXCEPT`) semantics.
        all: bool,
    },
    /// Left/right outer θ-join. Output columns are always `left ++ right`;
    /// the preserved side's unmatched rows are emitted padded with NULLs on
    /// the other side. Row order is preserved-side-major: for each preserved
    /// row in scan order, its matches in the other side's scan order, else
    /// its single padded row.
    OuterJoin {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
        /// Join predicate (`None` = always true, so padding only appears
        /// when the other side is empty).
        predicate: Option<Expr>,
        /// Which side is preserved.
        kind: OuterKind,
    },
    /// Duplicate elimination (`SELECT DISTINCT`).
    Distinct {
        /// Input plan.
        input: Box<Plan>,
    },
    /// Grouping + aggregation.
    Aggregate {
        /// Input plan.
        input: Box<Plan>,
        /// Group-by expressions (become the leading output columns).
        group_by: Vec<ProjColumn>,
        /// Aggregates (become the trailing output columns).
        aggregates: Vec<AggExpr>,
    },
    /// Sorting.
    Sort {
        /// Input plan.
        input: Box<Plan>,
        /// Sort keys, outermost first.
        keys: Vec<(Expr, SortOrder)>,
    },
    /// Row-count limit.
    Limit {
        /// Input plan.
        input: Box<Plan>,
        /// Maximum number of rows.
        limit: usize,
    },
    /// Fused Sort+Limit (Top-K), produced by the optimizer's
    /// `Limit(Sort(..))` rewrite (`optimize::fuse_topk`). Semantically
    /// identical to `Limit { input: Sort { input, keys }, limit }` — same
    /// key comparison, same deterministic full-row tie-break — but executed
    /// with a bounded heap of `limit` rows instead of a full sort, on both
    /// engines.
    TopK {
        /// Input plan.
        input: Box<Plan>,
        /// Sort keys, outermost first.
        keys: Vec<(Expr, SortOrder)>,
        /// Maximum number of rows.
        limit: usize,
    },
}

impl Plan {
    /// Lift an `RA⁺` query into a physical plan (the identity embedding —
    /// the two trees share operator semantics for the positive fragment).
    pub fn from_ra(ra: &RaExpr) -> Plan {
        match ra {
            RaExpr::Table(name) => Plan::Scan(name.clone()),
            RaExpr::Alias { input, name } => Plan::Alias {
                input: Box::new(Plan::from_ra(input)),
                name: name.clone(),
            },
            RaExpr::Select { input, predicate } => Plan::Filter {
                input: Box::new(Plan::from_ra(input)),
                predicate: predicate.clone(),
            },
            RaExpr::Project { input, columns } => Plan::Map {
                input: Box::new(Plan::from_ra(input)),
                columns: columns.clone(),
            },
            RaExpr::Join {
                left,
                right,
                predicate,
            } => Plan::Join {
                left: Box::new(Plan::from_ra(left)),
                right: Box::new(Plan::from_ra(right)),
                predicate: predicate.clone(),
            },
            RaExpr::Union { left, right } => Plan::UnionAll {
                left: Box::new(Plan::from_ra(left)),
                right: Box::new(Plan::from_ra(right)),
            },
        }
    }

    /// Recover the `RA⁺` query when the plan uses only the positive
    /// fragment; `None` when it contains Distinct/Aggregate/Sort/Limit.
    pub fn to_ra(&self) -> Option<RaExpr> {
        Some(match self {
            Plan::Scan(name) => RaExpr::Table(name.clone()),
            Plan::Alias { input, name } => RaExpr::Alias {
                input: Box::new(input.to_ra()?),
                name: name.clone(),
            },
            Plan::Filter { input, predicate } => RaExpr::Select {
                input: Box::new(input.to_ra()?),
                predicate: predicate.clone(),
            },
            Plan::Map { input, columns } => RaExpr::Project {
                input: Box::new(input.to_ra()?),
                columns: columns.clone(),
            },
            Plan::Join {
                left,
                right,
                predicate,
            } => RaExpr::Join {
                left: Box::new(left.to_ra()?),
                right: Box::new(right.to_ra()?),
                predicate: predicate.clone(),
            },
            Plan::UnionAll { left, right } => RaExpr::Union {
                left: Box::new(left.to_ra()?),
                right: Box::new(right.to_ra()?),
            },
            // HashJoin is a physical operator chosen by the optimizer; the
            // logical RA⁺ query it came from is reconstructible in principle
            // but callers only convert *pre*-optimization plans. Except and
            // OuterJoin are outside RA⁺ by definition (negation).
            Plan::HashJoin { .. }
            | Plan::Distinct { .. }
            | Plan::Aggregate { .. }
            | Plan::Sort { .. }
            | Plan::Limit { .. }
            | Plan::TopK { .. }
            | Plan::Except { .. }
            | Plan::OuterJoin { .. } => return None,
        })
    }

    /// This node's input plans, left before right.
    pub fn inputs(&self) -> impl Iterator<Item = &Plan> {
        let (first, second) = match self {
            Plan::Scan(_) => (None, None),
            Plan::Alias { input, .. }
            | Plan::Filter { input, .. }
            | Plan::Map { input, .. }
            | Plan::Distinct { input }
            | Plan::Aggregate { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. }
            | Plan::TopK { input, .. } => (Some(&**input), None),
            Plan::Join { left, right, .. }
            | Plan::HashJoin { left, right, .. }
            | Plan::UnionAll { left, right }
            | Plan::Except { left, right, .. }
            | Plan::OuterJoin { left, right, .. } => (Some(&**left), Some(&**right)),
        };
        first.into_iter().chain(second)
    }

    /// Rebuild this node over `f` of each input (in [`Plan::inputs`]
    /// order), everything else unchanged: the one place that names every
    /// variant in order to rebuild it. A rewriting pass is the arms that
    /// hold its rule plus `other => other.map_inputs(|p| pass(p))`.
    pub fn map_inputs(self, mut f: impl FnMut(Plan) -> Plan) -> Plan {
        let mut go = |p: Box<Plan>| Box::new(f(*p));
        match self {
            Plan::Scan(name) => Plan::Scan(name),
            Plan::Alias { input, name } => Plan::Alias {
                input: go(input),
                name,
            },
            Plan::Filter { input, predicate } => Plan::Filter {
                input: go(input),
                predicate,
            },
            Plan::Map { input, columns } => Plan::Map {
                input: go(input),
                columns,
            },
            Plan::Join {
                left,
                right,
                predicate,
            } => Plan::Join {
                left: go(left),
                right: go(right),
                predicate,
            },
            Plan::HashJoin {
                left,
                right,
                keys,
                residual,
                build_left,
            } => Plan::HashJoin {
                left: go(left),
                right: go(right),
                keys,
                residual,
                build_left,
            },
            Plan::UnionAll { left, right } => Plan::UnionAll {
                left: go(left),
                right: go(right),
            },
            Plan::Except { left, right, all } => Plan::Except {
                left: go(left),
                right: go(right),
                all,
            },
            Plan::OuterJoin {
                left,
                right,
                predicate,
                kind,
            } => Plan::OuterJoin {
                left: go(left),
                right: go(right),
                predicate,
                kind,
            },
            Plan::Distinct { input } => Plan::Distinct { input: go(input) },
            Plan::Aggregate {
                input,
                group_by,
                aggregates,
            } => Plan::Aggregate {
                input: go(input),
                group_by,
                aggregates,
            },
            Plan::Sort { input, keys } => Plan::Sort {
                input: go(input),
                keys,
            },
            Plan::Limit { input, limit } => Plan::Limit {
                input: go(input),
                limit,
            },
            Plan::TopK { input, keys, limit } => Plan::TopK {
                input: go(input),
                keys,
                limit,
            },
        }
    }

    /// What this node itself carries, inputs aside: the expressions it
    /// evaluates (predicates, projection and grouping expressions,
    /// aggregate arguments, join and sort keys) and the output column
    /// names it introduces (`Map` / `Aggregate`).
    pub fn exprs(&self) -> (Vec<&Expr>, Vec<&str>) {
        let mut exprs: Vec<&Expr> = Vec::new();
        let mut names: Vec<&str> = Vec::new();
        match self {
            Plan::Scan(_)
            | Plan::Alias { .. }
            | Plan::UnionAll { .. }
            | Plan::Except { .. }
            | Plan::Distinct { .. }
            | Plan::Limit { .. } => {}
            Plan::Filter { predicate, .. } => exprs.push(predicate),
            Plan::Map { columns, .. } => {
                exprs.extend(columns.iter().map(|c| &c.expr));
                names.extend(columns.iter().map(ProjColumn::name));
            }
            Plan::Join { predicate, .. } | Plan::OuterJoin { predicate, .. } => {
                exprs.extend(predicate);
            }
            Plan::HashJoin { keys, residual, .. } => {
                exprs.extend(keys.iter().flat_map(|(l, r)| [l, r]));
                exprs.extend(residual);
            }
            Plan::Aggregate {
                group_by,
                aggregates,
                ..
            } => {
                exprs.extend(group_by.iter().map(|g| &g.expr));
                exprs.extend(aggregates.iter().filter_map(|a| a.arg.as_ref()));
                names.extend(group_by.iter().map(ProjColumn::name));
                names.extend(aggregates.iter().map(|a| a.name.as_str()));
            }
            Plan::Sort { keys, .. } | Plan::TopK { keys, .. } => {
                exprs.extend(keys.iter().map(|(k, _)| k));
            }
        }
        (exprs, names)
    }

    /// Number of relational operators (for plan statistics): every node
    /// but scans and aliases.
    pub fn operator_count(&self) -> usize {
        usize::from(!matches!(self, Plan::Scan(_) | Plan::Alias { .. }))
            + self.inputs().map(Plan::operator_count).sum::<usize>()
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Plan::Scan(name) => write!(f, "Scan({name})"),
            Plan::Alias { input, name } => write!(f, "Alias[{name}]({input})"),
            Plan::Filter { input, predicate } => write!(f, "Filter[{predicate}]({input})"),
            Plan::Map { input, columns } => {
                write!(f, "Map[")?;
                for (i, c) in columns.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}→{}", c.expr, c.column)?;
                }
                write!(f, "]({input})")
            }
            Plan::Join {
                left,
                right,
                predicate: Some(p),
            } => write!(f, "Join[{p}]({left}, {right})"),
            Plan::Join {
                left,
                right,
                predicate: None,
            } => write!(f, "Cross({left}, {right})"),
            Plan::HashJoin {
                left,
                right,
                keys,
                residual,
                build_left,
            } => {
                write!(f, "HashJoin[")?;
                for (i, (l, r)) in keys.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{l}={r}")?;
                }
                if let Some(res) = residual {
                    write!(f, "; σ[{res}]")?;
                }
                write!(
                    f,
                    "; build={}]({left}, {right})",
                    if *build_left { "left" } else { "right" }
                )
            }
            Plan::UnionAll { left, right } => write!(f, "UnionAll({left}, {right})"),
            Plan::Except { left, right, all } => {
                write!(
                    f,
                    "Except{}({left}, {right})",
                    if *all { "All" } else { "" }
                )
            }
            Plan::OuterJoin {
                left,
                right,
                predicate,
                kind,
            } => match predicate {
                Some(p) => write!(f, "OuterJoin[{kind}; {p}]({left}, {right})"),
                None => write!(f, "OuterJoin[{kind}]({left}, {right})"),
            },
            Plan::Distinct { input } => write!(f, "Distinct({input})"),
            Plan::Aggregate {
                input,
                group_by,
                aggregates,
            } => {
                write!(f, "Aggregate[")?;
                for (i, g) in group_by.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", g.column)?;
                }
                write!(f, "; ")?;
                for (i, a) in aggregates.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}→{}", a.func, a.name)?;
                }
                write!(f, "]({input})")
            }
            Plan::Sort { input, keys } => write!(f, "Sort[{}]({input})", keys.len()),
            Plan::Limit { input, limit } => write!(f, "Limit[{limit}]({input})"),
            Plan::TopK { input, keys, limit } => {
                write!(f, "TopK[{} keys; {limit}]({input})", keys.len())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ra_round_trip() {
        let q = RaExpr::table("r")
            .select(Expr::named("a").lt(Expr::lit(5i64)))
            .join(RaExpr::table("s"), Expr::named("x").eq(Expr::named("y")))
            .project(["a"]);
        let plan = Plan::from_ra(&q);
        assert_eq!(plan.to_ra(), Some(q));
        assert_eq!(plan.operator_count(), 3);
    }

    /// One plan holding all 14 variants, every expression field a distinct
    /// `old_<n>` reference (17 of them).
    fn every_variant() -> Plan {
        let mut n = 0;
        let mut old = || {
            n += 1;
            Expr::named(format!("old_{n}"))
        };
        let scan = |name: &str| Box::new(Plan::Scan(name.into()));
        let hash_join = Plan::HashJoin {
            left: Box::new(Plan::Alias {
                input: scan("r"),
                name: "x".into(),
            }),
            right: Box::new(Plan::Filter {
                input: scan("s"),
                predicate: old().eq(old()),
            }),
            keys: vec![(old(), old()), (old(), old())],
            residual: Some(old()),
            build_left: true,
        };
        let join = Plan::Join {
            left: Box::new(hash_join),
            right: Box::new(Plan::Map {
                input: scan("t"),
                columns: vec![
                    ProjColumn::expr(old(), "m1"),
                    ProjColumn::expr(old().add(old()), "m2"),
                ],
            }),
            predicate: Some(old()),
        };
        let outer = Plan::OuterJoin {
            left: Box::new(join),
            right: Box::new(Plan::Distinct { input: scan("u") }),
            predicate: Some(old()),
            kind: OuterKind::Left,
        };
        let aggregate = Plan::Aggregate {
            input: Box::new(outer),
            group_by: vec![ProjColumn::expr(old(), "g")],
            aggregates: vec![
                AggExpr {
                    func: AggFunc::Sum,
                    arg: Some(old()),
                    name: "total".into(),
                },
                AggExpr {
                    func: AggFunc::CountStar,
                    arg: None,
                    name: "n".into(),
                },
            ],
        };
        let top_k = Plan::TopK {
            input: Box::new(Plan::Limit {
                input: Box::new(Plan::Sort {
                    input: Box::new(aggregate),
                    keys: vec![(old(), SortOrder::Asc), (old(), SortOrder::Desc)],
                }),
                limit: 9,
            }),
            keys: vec![(old(), SortOrder::Desc)],
            limit: 3,
        };
        Plan::Except {
            left: Box::new(Plan::UnionAll {
                left: Box::new(top_k),
                right: scan("v"),
            }),
            right: scan("w"),
            all: true,
        }
    }

    /// Every node of the tree, pre-order, reached through `inputs` alone.
    fn nodes(plan: &Plan) -> Vec<&Plan> {
        let mut out = vec![plan];
        for input in plan.inputs() {
            out.extend(nodes(input));
        }
        out
    }

    #[test]
    fn the_sample_plan_holds_every_variant() {
        let plan = every_variant();
        let mut kinds: Vec<_> = nodes(&plan)
            .into_iter()
            .map(|p| crate::stats::node_label(p).0)
            .collect();
        kinds.sort();
        kinds.dedup();
        assert_eq!(kinds.len(), 14, "{kinds:?}");
        assert_eq!(plan.operator_count(), 12);
    }

    #[test]
    fn map_inputs_with_identity_rebuilds_every_variant_unchanged() {
        fn rebuild(plan: Plan) -> Plan {
            plan.map_inputs(rebuild)
        }
        let plan = every_variant();
        assert_eq!(rebuild(plan.clone()), plan);
    }

    #[test]
    fn map_inputs_visits_children_in_inputs_order() {
        let plan = every_variant();
        for node in nodes(&plan) {
            let mut visited: Vec<Plan> = Vec::new();
            node.clone().map_inputs(|child| {
                visited.push(child.clone());
                child
            });
            let inputs: Vec<Plan> = node.inputs().cloned().collect();
            assert_eq!(visited, inputs, "{node}");
        }
    }

    #[test]
    fn exprs_reach_every_reference_and_output_name() {
        let plan = every_variant();
        let mut rendered = format!("{plan:?}");
        let (mut refs, mut outputs) = (0, Vec::new());
        for node in nodes(&plan) {
            let (exprs, names) = node.exprs();
            for e in exprs {
                e.for_each_leaf(&mut |leaf| {
                    if let Expr::Named(name) = leaf {
                        refs += 1;
                        // Trailing quote: `old_1` must not eat `old_12`.
                        rendered = rendered.replace(&format!("{name}\""), "new\"");
                    }
                });
            }
            outputs.extend(names);
        }
        assert_eq!(refs, 17);
        assert!(
            !rendered.contains("old_"),
            "a reference `exprs` does not reach: {rendered}"
        );
        assert_eq!(outputs, ["g", "total", "n", "m1", "m2"]);
    }

    #[test]
    fn extras_do_not_round_trip() {
        let plan = Plan::Distinct {
            input: Box::new(Plan::Scan("r".into())),
        };
        assert_eq!(plan.to_ra(), None);
    }
}
