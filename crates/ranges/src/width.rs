//! Bound-precision summaries: how tight an AU result's ranges are.
//!
//! The whole pitch of attribute-level bounds is *tight* enclosure at low
//! overhead — a result whose every attribute widened to ⊤ is sound but
//! useless. [`WidthSummary`] condenses a set of range-annotated tuples
//! into the precision profile EXPLAIN ANALYZE reports per operator, so a
//! query plan shows *where* bounds blow up:
//!
//! * the fraction of attribute cells that are points / that widened to
//!   top (`(-∞, +∞)`, including definite NULLs),
//! * the mean relative interval width of numerically bounded cells
//!   (`(ub − lb) / (1 + |bg|)`, so the figure is scale-free), and
//! * the tuple-multiplicity spread `Σ (mult.ub − mult.lb)` with the count
//!   of certainly-present rows (`mult.lb ≥ 1`).
//!
//! All accumulation is integral (per-cell widths are rounded to per-mille
//! before summing), so summaries are **order-insensitive and
//! deterministic**: merging per-batch summaries in any grouping yields
//! the same figures as one pass over the whole relation — what lets the
//! vectorized engine fold them morsel by morsel and still match the row
//! engine's numbers byte for byte in golden snapshots.

use crate::mult::MultBound;
use crate::relation::{AuRelation, AuTuple};
use crate::value::{Bound, RangeValue};

/// An order-insensitive precision profile of range-annotated tuples.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WidthSummary {
    /// Tuples observed.
    pub rows: u64,
    /// Tuples certainly present in every world (`mult.lb ≥ 1`).
    pub certain_rows: u64,
    /// Attribute cells observed (`rows × arity`).
    pub attrs: u64,
    /// Cells pinning a single known value.
    pub point_attrs: u64,
    /// Cells widened to top (`(-∞, +∞)`), definite NULLs included.
    pub top_attrs: u64,
    /// Cells with finite numeric bounds (points included at width 0) —
    /// the denominator of the mean relative width.
    pub width_cells: u64,
    /// Σ per-cell relative width in per-mille
    /// (`round(1000 · (ub − lb) / (1 + |bg|))`), saturating.
    pub rel_width_permille_sum: u64,
    /// Σ per-tuple multiplicity spread (`mult.ub − mult.lb`), saturating.
    pub mult_spread: u64,
}

impl WidthSummary {
    /// The empty summary.
    pub fn new() -> WidthSummary {
        WidthSummary::default()
    }

    /// The summary of a whole relation.
    pub fn of(rel: &AuRelation) -> WidthSummary {
        let mut s = WidthSummary::new();
        for row in rel.rows() {
            s.observe(row);
        }
        s
    }

    /// Fold one tuple into the summary.
    pub fn observe(&mut self, row: &AuTuple) {
        self.observe_mult(row.mult);
        for r in &row.values {
            self.observe_cell(r);
        }
    }

    /// Fold one tuple's multiplicity triple (its cells go through
    /// [`WidthSummary::observe_cell`] / [`WidthSummary::observe_points`]).
    pub fn observe_mult(&mut self, mult: MultBound) {
        self.rows += 1;
        if mult.certainly_present() {
            self.certain_rows += 1;
        }
        self.mult_spread = self
            .mult_spread
            .saturating_add(mult.ub.saturating_sub(mult.lb));
    }

    /// Fold `cells` point cells at once — what a columnar caller counts
    /// off a point mask without building a [`RangeValue`] per cell.
    pub fn observe_points(&mut self, cells: u64) {
        self.attrs += cells;
        self.point_attrs += cells;
        self.width_cells += cells;
    }

    /// Fold one attribute cell.
    pub fn observe_cell(&mut self, r: &RangeValue) {
        if r.is_point() {
            return self.observe_points(1);
        }
        self.attrs += 1;
        if r.is_top() {
            self.top_attrs += 1;
            return;
        }
        // Bounded, non-point: numeric cells contribute their relative
        // width; bounded non-numeric ranges (e.g. string hulls) have
        // no meaningful width and stay out of the mean.
        if let (Bound::Val(lo), Bound::Val(hi)) = (r.lb(), r.ub()) {
            if let (Some(lo), Some(hi), Some(bg)) = (lo.as_f64(), hi.as_f64(), r.bg.as_f64()) {
                let rel = (hi - lo).max(0.0) / (1.0 + bg.abs());
                let permille = (rel * 1000.0).round();
                self.width_cells += 1;
                self.rel_width_permille_sum =
                    self.rel_width_permille_sum
                        .saturating_add(if permille >= u64::MAX as f64 {
                            u64::MAX
                        } else {
                            permille as u64
                        });
            }
        }
    }

    /// Fold another summary in (associative and commutative).
    pub fn merge(&mut self, other: &WidthSummary) {
        self.rows += other.rows;
        self.certain_rows += other.certain_rows;
        self.attrs += other.attrs;
        self.point_attrs += other.point_attrs;
        self.top_attrs += other.top_attrs;
        self.width_cells += other.width_cells;
        self.rel_width_permille_sum = self
            .rel_width_permille_sum
            .saturating_add(other.rel_width_permille_sum);
        self.mult_spread = self.mult_spread.saturating_add(other.mult_spread);
    }

    /// Fraction of attribute cells widened to top, in per-mille (0 on an
    /// empty summary).
    pub fn top_attr_permille(&self) -> u64 {
        self.top_attrs
            .saturating_mul(1000)
            .checked_div(self.attrs)
            .unwrap_or(0)
    }

    /// Mean relative interval width over numerically bounded cells, in
    /// per-mille (0 when no cell qualifies).
    pub fn mean_rel_width_permille(&self) -> u64 {
        self.rel_width_permille_sum
            .checked_div(self.width_cells)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ua_data::schema::Schema;
    use ua_data::value::Value;

    fn span(lo: i64, bg: i64, hi: i64) -> RangeValue {
        RangeValue::new(
            Bound::Val(Value::Int(lo)),
            Value::Int(bg),
            Bound::Val(Value::Int(hi)),
        )
    }

    fn rel(rows: Vec<AuTuple>) -> AuRelation {
        let arity = rows.first().map_or(0, |r| r.values.len());
        let names: Vec<String> = (0..arity).map(|i| format!("c{i}")).collect();
        let mut out = AuRelation::new(Schema::qualified("t", names));
        for r in rows {
            out.push(r);
        }
        out
    }

    #[test]
    fn profiles_points_tops_and_widths() {
        let s = WidthSummary::of(&rel(vec![
            AuTuple {
                values: vec![RangeValue::point(Value::Int(7)), span(0, 1, 9)],
                mult: MultBound::certain(1),
            },
            AuTuple {
                values: vec![RangeValue::top(Value::Int(3)), RangeValue::null()],
                mult: MultBound::new(0, 1, 4),
            },
        ]));
        assert_eq!((s.rows, s.certain_rows), (2, 1));
        assert_eq!((s.attrs, s.point_attrs, s.top_attrs), (4, 1, 2));
        // span(0,1,9): rel width (9-0)/(1+1) = 4.5 → 4500‰ over 2 cells
        // (the point contributes width 0).
        assert_eq!(s.width_cells, 2);
        assert_eq!(s.mean_rel_width_permille(), 2250);
        assert_eq!(s.top_attr_permille(), 500);
        assert_eq!(s.mult_spread, 4);
    }

    #[test]
    fn merge_matches_single_pass_regardless_of_split() {
        let rows: Vec<AuTuple> = (0..10)
            .map(|i| AuTuple {
                values: vec![span(0, i, 2 * i + 1), RangeValue::point(Value::str("x"))],
                mult: MultBound::new(0, 1, (i as u64) + 1),
            })
            .collect();
        let whole = WidthSummary::of(&rel(rows.clone()));
        for split in [1, 3, 7] {
            let mut merged = WidthSummary::new();
            for chunk in rows.chunks(split) {
                let mut part = WidthSummary::new();
                for r in chunk {
                    part.observe(r);
                }
                merged.merge(&part);
            }
            assert_eq!(merged, whole, "split={split}");
        }
    }

    #[test]
    fn empty_and_non_numeric_cells_are_safe() {
        let s = WidthSummary::new();
        assert_eq!(s.top_attr_permille(), 0);
        assert_eq!(s.mean_rel_width_permille(), 0);
        // A bounded string hull has no numeric width: counted as an attr
        // but outside the mean.
        let hull = RangeValue::new(
            Bound::Val(Value::str("a")),
            Value::str("b"),
            Bound::Val(Value::str("c")),
        );
        let s = WidthSummary::of(&rel(vec![AuTuple {
            values: vec![hull],
            mult: MultBound::certain(2),
        }]));
        assert_eq!((s.attrs, s.width_cells, s.top_attrs), (1, 0, 0));
        assert_eq!(s.mean_rel_width_permille(), 0);
    }
}
