//! Range-annotated relations and their flattened row encoding.
//!
//! An [`AuRelation`] is the AU-DB analogue of the paper's `ℕ_UA`-relation:
//! every row carries a [`RangeValue`] per attribute and a [`MultBound`]
//! triple. The flattened *encoding* — the AU counterpart of Definition 8's
//! `Enc` — lays a row out as ordinary attribute values so a classical
//! engine can store and ship it:
//!
//! ```text
//! [bg₀ … bgₙ₋₁ | ua_lb_0 … ua_lb_{n-1} | ua_ub_0 … ua_ub_{n-1} | ua_m_lb ua_m_bg ua_m_ub]
//! ```
//!
//! with `NULL` standing for `∓∞` in the bound columns (only normalized
//! ranges are encoded, so a `NULL` bound is unambiguous).

use crate::mult::MultBound;
use crate::value::{Bound, RangeValue};
use ua_data::agg::count_value;
use ua_data::relation::Relation;
use ua_data::schema::{Column, Schema};
use ua_data::tuple::{RowWriter, Tuple};
use ua_data::value::Value;

/// Prefix of the encoded per-attribute lower-bound columns.
pub const AU_LB_PREFIX: &str = "ua_lb_";
/// Prefix of the encoded per-attribute upper-bound columns.
pub const AU_UB_PREFIX: &str = "ua_ub_";
/// Encoded tuple-multiplicity lower-bound column.
pub const AU_MULT_LB: &str = "ua_m_lb";
/// Encoded tuple-multiplicity selected-guess column.
pub const AU_MULT_BG: &str = "ua_m_bg";
/// Encoded tuple-multiplicity upper-bound column.
pub const AU_MULT_UB: &str = "ua_m_ub";

/// One range-annotated tuple.
#[derive(Clone, PartialEq, Debug)]
pub struct AuTuple {
    /// Per-attribute ranges.
    pub values: Vec<RangeValue>,
    /// The tuple-level multiplicity bounds.
    pub mult: MultBound,
}

impl AuTuple {
    /// The selected-guess tuple (the `bg` of every attribute).
    pub fn bg_tuple(&self) -> Tuple {
        self.values.iter().map(|r| r.bg.clone()).collect()
    }

    /// Whether a concrete row falls within every attribute's bounds.
    pub fn covers(&self, row: &Tuple) -> bool {
        row.arity() == self.values.len()
            && self
                .values
                .iter()
                .zip(row.values())
                .all(|(r, v)| r.contains(v))
    }
}

/// A range-annotated relation: user schema + rows of [`AuTuple`]s. Row
/// order is significant (both engines materialize AU results in the same
/// order).
#[derive(Clone, PartialEq, Debug)]
pub struct AuRelation {
    schema: Schema,
    rows: Vec<AuTuple>,
}

impl AuRelation {
    /// An empty relation.
    pub fn new(schema: Schema) -> AuRelation {
        AuRelation {
            schema,
            rows: Vec::new(),
        }
    }

    /// The (user) schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Replace the schema (re-qualification; arity must match).
    pub fn with_schema(mut self, schema: Schema) -> AuRelation {
        assert_eq!(self.schema.arity(), schema.arity(), "arity must not change");
        self.schema = schema;
        self
    }

    /// The rows.
    pub fn rows(&self) -> &[AuTuple] {
        &self.rows
    }

    /// Append a row (rows with `ub = 0` represent nothing and are dropped).
    pub fn push(&mut self, row: AuTuple) {
        assert_eq!(row.values.len(), self.schema.arity(), "row arity mismatch");
        debug_assert!(row.mult.is_well_formed(), "ill-formed multiplicity bound");
        if row.mult.ub == 0 {
            return;
        }
        self.rows.push(row);
    }

    /// A certain relation: every tuple at its exact multiplicity, every
    /// attribute a point range.
    pub fn from_relation(rel: &Relation<u64>) -> AuRelation {
        let mut out = AuRelation::new(rel.schema().clone());
        for (t, &n) in rel.iter() {
            if n == 0 {
                continue;
            }
            out.push(AuTuple {
                values: t.values().iter().cloned().map(RangeValue::point).collect(),
                mult: MultBound::certain(n),
            });
        }
        out.rows.sort_by_key(|a| a.bg_tuple());
        out
    }

    /// The x-DB labeling into range annotations: one AU tuple per x-tuple
    /// block of weighted alternatives. Attribute bounds hull the
    /// alternatives, the selected guess is the argmax-probability
    /// alternative, and the multiplicity triple is
    /// `[total ≥ 1 ? 1 : 0, best ≥ absent ? 1 : 0, 1]` — present in every
    /// world iff the block's mass is 1, present in the SG world unless
    /// absence is likelier, never more than one copy per block.
    pub fn from_x_blocks<'a>(
        schema: Schema,
        blocks: impl IntoIterator<Item = &'a [(Tuple, f64)]>,
    ) -> AuRelation {
        let mut out = AuRelation::new(schema);
        for block in blocks {
            if block.is_empty() {
                continue;
            }
            let mut best = 0usize;
            let mut total = 0.0f64;
            for (i, (_, p)) in block.iter().enumerate() {
                total += p;
                if *p > block[best].1 {
                    best = i;
                }
            }
            let p_absent = (1.0 - total).max(0.0);
            let arity = out.schema.arity();
            let mut values: Vec<RangeValue> = Vec::with_capacity(arity);
            for c in 0..arity {
                let mut range =
                    RangeValue::point(block[best].0.get(c).expect("block arity").clone());
                for (t, _) in block {
                    range = range.hull(&RangeValue::point(t.get(c).expect("arity").clone()));
                }
                values.push(range);
            }
            let certainly_present = total >= 1.0 - 1e-9;
            let in_sg = block[best].1 >= p_absent;
            out.push(AuTuple {
                values,
                mult: MultBound::new(u64::from(certainly_present), u64::from(in_sg), 1),
            });
        }
        out
    }
}

/// The flattened schema of an AU-encoded relation.
pub fn flattened_schema(user: &Schema) -> Schema {
    let mut cols: Vec<Column> = user.columns().to_vec();
    for i in 0..user.arity() {
        cols.push(Column::unqualified(format!("{AU_LB_PREFIX}{i}")));
    }
    for i in 0..user.arity() {
        cols.push(Column::unqualified(format!("{AU_UB_PREFIX}{i}")));
    }
    cols.push(Column::unqualified(AU_MULT_LB));
    cols.push(Column::unqualified(AU_MULT_BG));
    cols.push(Column::unqualified(AU_MULT_UB));
    Schema::new(cols)
}

/// The user schema of a flattened AU schema, or `None` when the layout
/// does not match (wrong arity arithmetic or missing sidecar names).
pub fn au_base_schema(flat: &Schema) -> Option<Schema> {
    let total = flat.arity();
    if total < 3 || !(total - 3).is_multiple_of(3) {
        return None;
    }
    let n = (total - 3) / 3;
    let cols = flat.columns();
    let tail_ok = cols[total - 3].name.eq_ignore_ascii_case(AU_MULT_LB)
        && cols[total - 2].name.eq_ignore_ascii_case(AU_MULT_BG)
        && cols[total - 1].name.eq_ignore_ascii_case(AU_MULT_UB);
    if !tail_ok {
        return None;
    }
    for i in 0..n {
        if !cols[n + i]
            .name
            .eq_ignore_ascii_case(&format!("{AU_LB_PREFIX}{i}"))
            || !cols[2 * n + i]
                .name
                .eq_ignore_ascii_case(&format!("{AU_UB_PREFIX}{i}"))
        {
            return None;
        }
    }
    Some(Schema::new(cols[..n].to_vec()))
}

fn encode_bound(b: &Bound) -> Value {
    match b {
        Bound::NegInf | Bound::PosInf => Value::Null,
        Bound::Val(v) => v.clone(),
    }
}

fn decode_bound(v: &Value, lower: bool) -> Bound {
    if v.is_unknown() {
        if lower {
            Bound::NegInf
        } else {
            Bound::PosInf
        }
    } else {
        Bound::Val(v.clone())
    }
}

/// The encoded bound sentinel marking a definite-NULL range: no
/// normalized range pairs a `NULL` selected guess with *known* bound
/// values (`RangeValue::new` widens an unknown bg to top, whose bounds
/// encode as `NULL`), so `(true, NULL, true)` is free to carry the
/// definiteness flag through the flattened representation.
fn null_sentinel() -> Value {
    Value::Bool(true)
}

/// Assemble a range from its encoded parts (`NULL` bounds meaning `∓`),
/// normalized — the single definition of the encoding convention shared
/// with the columnar executor's triple columns.
pub fn range_from_parts(lb: Value, bg: Value, ub: Value) -> RangeValue {
    if bg == Value::Null && lb == null_sentinel() && ub == null_sentinel() {
        return RangeValue::null();
    }
    RangeValue::new(decode_bound(&lb, true), bg, decode_bound(&ub, false))
}

/// Split a range into its encoded parts `(lb, bg, ub)` (`∓∞` as `NULL`,
/// definite NULL as the sentinel triple).
pub fn range_parts(r: &RangeValue) -> (Value, Value, Value) {
    if r.is_null() {
        return (null_sentinel(), Value::Null, null_sentinel());
    }
    (encode_bound(r.lb()), r.bg.clone(), encode_bound(r.ub()))
}

/// Encode one AU tuple into its flattened row (`[bg* | lb* | ub* | m*]`).
/// This layout doubles as the deterministic tie-break order for AU sorts,
/// so both engines compare ties over identical byte sequences.
pub fn encode_row(row: &AuTuple) -> Tuple {
    let mut values: Vec<Value> = Vec::with_capacity(3 * row.values.len() + 3);
    encode_into(row, &mut values);
    Tuple::new(values)
}

/// Append `row`'s flattened values to `out`: each part as [`range_parts`]
/// splits it, then the multiplicity triple.
fn encode_into(row: &AuTuple, out: &mut impl Extend<Value>) {
    let bound = |r: &RangeValue, b: &Bound| {
        if r.is_null() {
            null_sentinel()
        } else {
            encode_bound(b)
        }
    };
    out.extend(row.values.iter().map(|r| {
        if r.is_null() {
            Value::Null
        } else {
            r.bg.clone()
        }
    }));
    out.extend(row.values.iter().map(|r| bound(r, r.lb())));
    out.extend(row.values.iter().map(|r| bound(r, r.ub())));
    out.extend([row.mult.lb, row.mult.bg, row.mult.ub].map(count_value));
}

/// Encode an [`AuRelation`] into flattened rows (pair with
/// [`flattened_schema`] of its schema), written into shared buffers
/// ([`RowWriter`]).
pub fn encode_rows(rel: &AuRelation) -> Vec<Tuple> {
    let mut out = RowWriter::new(3 * rel.schema().arity() + 3);
    for row in rel.rows() {
        encode_into(row, &mut out);
        out.end_row();
    }
    out.finish()
}

/// Decode one flattened row of user arity `n`: `Ok(None)` for well-formed
/// rows with `ub = 0` (they represent nothing and are dropped), an error
/// describing the first malformed multiplicity component otherwise. The
/// row must have flattened arity `3n + 3`.
pub fn decode_row(n: usize, row: &Tuple) -> Result<Option<AuTuple>, String> {
    let mult_at = |i: usize| -> Result<u64, String> {
        match row.get(3 * n + i) {
            Some(Value::Int(m)) if *m >= 0 => Ok(*m as u64),
            other => Err(format!("invalid AU multiplicity {other:?}")),
        }
    };
    let mult = MultBound::new(mult_at(0)?, mult_at(1)?, mult_at(2)?);
    if !mult.is_well_formed() {
        return Err(format!(
            "ill-formed AU multiplicity bound [{}, {}, {}]",
            mult.lb, mult.bg, mult.ub
        ));
    }
    if mult.ub == 0 {
        return Ok(None);
    }
    let values: Vec<RangeValue> = (0..n)
        .map(|i| {
            range_from_parts(
                row.get(n + i).expect("arity checked").clone(),
                row.get(i).expect("arity checked").clone(),
                row.get(2 * n + i).expect("arity checked").clone(),
            )
        })
        .collect();
    Ok(Some(AuTuple { values, mult }))
}

/// Decode flattened rows back into an [`AuRelation`]. `flat` must be the
/// flattened schema; errors describe the first malformed row.
pub fn decode_rows(flat: &Schema, rows: &[Tuple]) -> Result<AuRelation, String> {
    let user = au_base_schema(flat).ok_or_else(|| {
        format!("schema {flat} is not AU-encoded (ua_lb_*/ua_ub_*/ua_m_* layout)")
    })?;
    let n = user.arity();
    let mut out = AuRelation::new(user);
    for row in rows {
        if let Some(t) = decode_row(n, row)? {
            out.push(t);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ua_data::tuple;

    #[test]
    fn encode_decode_round_trip() {
        let mut rel = AuRelation::new(Schema::qualified("r", ["a", "b"]));
        rel.push(AuTuple {
            values: vec![
                RangeValue::point(Value::Int(1)),
                RangeValue::new(
                    Bound::Val(Value::Int(0)),
                    Value::Int(5),
                    Bound::Val(Value::Int(9)),
                ),
            ],
            mult: MultBound::new(0, 1, 2),
        });
        rel.push(AuTuple {
            values: vec![
                RangeValue::top(Value::Null),
                RangeValue::point(Value::str("x")),
            ],
            mult: MultBound::certain(3),
        });
        rel.push(AuTuple {
            values: vec![RangeValue::null(), RangeValue::point(Value::Int(7))],
            mult: MultBound::certain(1),
        });
        let flat = flattened_schema(rel.schema());
        assert_eq!(au_base_schema(&flat).unwrap().arity(), 2);
        let rows = encode_rows(&rel);
        let back = decode_rows(&flat, &rows).unwrap();
        assert_eq!(back, rel);
    }

    #[test]
    fn x_block_labeling_bounds_alternatives() {
        let blocks: Vec<Vec<(Tuple, f64)>> = vec![
            vec![(tuple![1i64, 10i64], 1.0)],
            vec![(tuple![2i64, 20i64], 0.6), (tuple![2i64, 30i64], 0.4)],
            vec![(tuple![3i64, 5i64], 0.2)],
        ];
        let rel = AuRelation::from_x_blocks(
            Schema::qualified("r", ["id", "v"]),
            blocks.iter().map(Vec::as_slice),
        );
        assert_eq!(rel.rows().len(), 3);
        let certain = &rel.rows()[0];
        assert_eq!(certain.mult, MultBound::certain(1));
        assert!(certain.values[1].is_point());
        let alt = &rel.rows()[1];
        assert_eq!(alt.mult, MultBound::new(1, 1, 1));
        assert!(alt.values[1].contains(&Value::Int(20)));
        assert!(alt.values[1].contains(&Value::Int(30)));
        assert_eq!(alt.values[1].bg, Value::Int(20));
        let unlikely = &rel.rows()[2];
        assert_eq!(unlikely.mult, MultBound::new(0, 0, 1), "absence likelier");
    }

    #[test]
    fn non_au_schema_rejected() {
        assert!(au_base_schema(&Schema::qualified("r", ["a", "b"])).is_none());
        let flat = flattened_schema(&Schema::qualified("r", ["a"]));
        assert!(au_base_schema(&flat).is_some());
    }
}
