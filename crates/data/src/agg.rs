//! SQL aggregate functions, their one running fold and the one grouping
//! the column-major γ / δ share.
//!
//! [`AggState`] is the single definition of SQL aggregate arithmetic in
//! the workspace: both engines feed it one row at a time (`mult = 1`),
//! and the AU aggregation its selected-guess members weighted by their
//! selected-guess multiplicity — so the selected guess of an AU aggregate
//! is deterministic aggregation over the selected-guess world by
//! construction, not by replica.
//!
//! [`Groups`] maps rows to groups over any [`KeyColumn`]s: the vectorized
//! det γ / δ over their evaluated key columns and the AU γ / δ of both
//! engines over their selected guesses.

use crate::hash::{FxHashMap, FxHasher};
use crate::value::{Value, F64};
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::fmt;
use std::hash::Hasher;

/// An aggregate function.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AggFunc {
    /// `COUNT(expr)` — non-null count.
    Count,
    /// `COUNT(*)` — row count.
    CountStar,
    /// `SUM(expr)`.
    Sum,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
    /// `AVG(expr)`.
    Avg,
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AggFunc::Count => "count",
            AggFunc::CountStar => "count(*)",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
        })
    }
}

/// A count as an SQL integer: past `i64::MAX` it saturates there.
pub fn count_value(n: u64) -> Value {
    Value::Int(i64::try_from(n).unwrap_or(i64::MAX))
}

/// Running state of one aggregate.
pub enum AggState {
    /// `COUNT(*)` / `COUNT(expr)` running count (saturating).
    Count(u64),
    /// `SUM(expr)` running total (int/float typing tracked).
    Sum {
        /// Accumulated total.
        total: f64,
        /// Whether only integer inputs were seen (result stays `Int`).
        saw_int_only: bool,
        /// Whether any numeric input was seen (`NULL` otherwise).
        any: bool,
    },
    /// `MIN`/`MAX` best-so-far.
    MinMax {
        /// Current best value.
        best: Option<Value>,
        /// `true` for `MIN`, `false` for `MAX`.
        is_min: bool,
    },
    /// `AVG(expr)` running total and count.
    Avg {
        /// Accumulated total.
        total: f64,
        /// Number of numeric inputs, exact for any sum of `u64`
        /// multiplicities.
        n: u128,
    },
}

impl AggState {
    /// Fresh state for `func`.
    pub fn new(func: AggFunc) -> AggState {
        match func {
            AggFunc::Count | AggFunc::CountStar => AggState::Count(0),
            AggFunc::Sum => AggState::Sum {
                total: 0.0,
                saw_int_only: true,
                any: false,
            },
            AggFunc::Min => AggState::MinMax {
                best: None,
                is_min: true,
            },
            AggFunc::Max => AggState::MinMax {
                best: None,
                is_min: false,
            },
            AggFunc::Avg => AggState::Avg { total: 0.0, n: 0 },
        }
    }

    /// Fold in `value` standing for `mult` duplicate rows (`None` = the
    /// `COUNT(*)` row marker).
    #[inline]
    pub fn update(&mut self, value: Option<&Value>, mult: u64) {
        match self {
            AggState::Count(n) => {
                // COUNT(*) passes None; COUNT(e) skips unknowns.
                match value {
                    None => *n = n.saturating_add(mult),
                    Some(v) if !v.is_unknown() => *n = n.saturating_add(mult),
                    _ => {}
                }
            }
            AggState::Sum {
                total,
                saw_int_only,
                any,
            } => {
                if let Some(v) = value {
                    if let Some(x) = v.as_f64() {
                        *total += x * mult as f64;
                        *any = true;
                        if matches!(v, Value::Float(_)) {
                            *saw_int_only = false;
                        }
                    }
                }
            }
            AggState::MinMax { best, is_min } => {
                if let Some(v) = value {
                    if v.is_unknown() {
                        return;
                    }
                    let better = match best {
                        None => true,
                        Some(b) => matches!(
                            (v.sql_cmp(b), *is_min),
                            (Some(std::cmp::Ordering::Less), true)
                                | (Some(std::cmp::Ordering::Greater), false)
                        ),
                    };
                    if better {
                        *best = Some(v.clone());
                    }
                }
            }
            AggState::Avg { total, n } => {
                if let Some(v) = value {
                    if let Some(x) = v.as_f64() {
                        *total += x * mult as f64;
                        *n += u128::from(mult);
                    }
                }
            }
        }
    }

    /// The final aggregate value.
    pub fn finish(self) -> Value {
        match self {
            AggState::Count(n) => count_value(n),
            AggState::Sum {
                total,
                saw_int_only,
                any,
            } => {
                if !any {
                    Value::Null
                } else if saw_int_only {
                    Value::Int(total as i64)
                } else {
                    Value::Float(F64::new(total))
                }
            }
            AggState::MinMax { best, .. } => best.unwrap_or(Value::Null),
            AggState::Avg { total, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(F64::new(total / n as f64))
                }
            }
        }
    }
}

/// One group-key column as [`Groups`] reads it, by row index.
pub trait KeyColumn {
    /// Feed row `i`'s key to `h`, consistently with [`KeyColumn::same`].
    fn hash_at(&self, i: usize, h: &mut FxHasher);
    /// Whether rows `i` and `j` hold the same key under `Value`'s
    /// structural equality (`1` and `1.0` differ).
    fn same(&self, i: usize, j: usize) -> bool;
    /// Every row's key when all are `Int`s — the one-`Int`-key fast path.
    fn ints(&self) -> Option<Cow<'_, [i64]>>;
}

/// Rows partitioned by key tuple under `Value`'s structural equality
/// (`1` and `1.0` are two keys): per row its group, groups numbered in
/// first-seen order, so a group's rows are visited in scan order.
pub struct Groups {
    /// Per row, its group.
    pub of: Vec<usize>,
    /// Per group, its first row (the one holding its key), ascending.
    pub firsts: Vec<usize>,
}

impl Groups {
    /// Group `n_rows` rows by their keys in `keys`: one `Int` key hashes
    /// its `i64`s; any other key tuple hashes column-wise and a hash hit
    /// is checked against the group's first row, so no row builds a tuple.
    /// No key column puts every row in one group.
    pub fn of<K: KeyColumn>(keys: &[K], n_rows: usize) -> Groups {
        match keys {
            [] => Groups {
                of: vec![0; n_rows],
                firsts: (n_rows > 0).then_some(0).into_iter().collect(),
            },
            [key] => match key.ints() {
                Some(ints) => Groups::by_int(&ints),
                None => Groups::by_hash(keys, n_rows),
            },
            _ => Groups::by_hash(keys, n_rows),
        }
    }

    /// One `Int` key.
    fn by_int(keys: &[i64]) -> Groups {
        let mut index: FxHashMap<i64, usize> = FxHashMap::default();
        let mut firsts = Vec::new();
        let of = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                *index.entry(k).or_insert_with(|| {
                    firsts.push(i);
                    firsts.len() - 1
                })
            })
            .collect();
        Groups { of, firsts }
    }

    /// Any key tuple: groups whose keys share a hash are chained, and a
    /// row joins the first one whose first row holds its key.
    fn by_hash<K: KeyColumn>(keys: &[K], n_rows: usize) -> Groups {
        const END: usize = usize::MAX;
        let mut heads: FxHashMap<u64, usize> = FxHashMap::default();
        let mut firsts: Vec<usize> = Vec::new();
        // Per group, the next group in its hash chain.
        let mut chain: Vec<usize> = Vec::new();
        let mut of = Vec::with_capacity(n_rows);
        for i in 0..n_rows {
            let mut h = FxHasher::default();
            for c in keys {
                c.hash_at(i, &mut h);
            }
            let new = firsts.len();
            let g = match heads.entry(h.finish()) {
                Entry::Vacant(e) => *e.insert(new),
                Entry::Occupied(e) => {
                    let mut g = *e.get();
                    loop {
                        if keys.iter().all(|c| c.same(i, firsts[g])) {
                            break g;
                        }
                        if chain[g] == END {
                            chain[g] = new;
                            break new;
                        }
                        g = chain[g];
                    }
                }
            };
            if g == new {
                firsts.push(i);
                chain.push(END);
            }
            of.push(g);
        }
        Groups { of, firsts }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Keys that all hash alike, so every group shares one hash chain.
    struct Colliding(Vec<Value>);

    impl KeyColumn for Colliding {
        fn hash_at(&self, _: usize, h: &mut FxHasher) {
            h.write_u8(0);
        }
        fn same(&self, i: usize, j: usize) -> bool {
            self.0[i] == self.0[j]
        }
        fn ints(&self) -> Option<Cow<'_, [i64]>> {
            None
        }
    }

    #[test]
    fn hash_chains_keep_structurally_different_keys_apart() {
        let keys = Colliding(vec![
            Value::Int(1),
            Value::float(1.0),
            Value::Int(1),
            Value::Null,
            Value::float(1.0),
            Value::str("a"),
            Value::Null,
        ]);
        let groups = Groups::of(&[keys], 7);
        assert_eq!(groups.of, [0, 1, 0, 2, 1, 3, 2]);
        assert_eq!(groups.firsts, [0, 1, 3, 5]);
    }

    #[test]
    fn no_key_is_one_group_when_there_are_rows() {
        let none: [Colliding; 0] = [];
        let groups = Groups::of(&none, 3);
        assert_eq!((groups.of, groups.firsts), (vec![0, 0, 0], vec![0]));
        let groups = Groups::of(&none, 0);
        assert!(groups.of.is_empty() && groups.firsts.is_empty());
    }
}
