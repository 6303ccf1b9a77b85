//! Tuples: immutable, cheaply clonable rows of [`Value`]s.
//!
//! A [`Tuple`] is a handle on a row-major value buffer: the buffer, the
//! position its row starts at, and its arity. A tuple built from its own
//! values ([`Tuple::new`], `collect`, `From`) owns a one-row buffer.
//! Writers of many rows — result materialisation, the row engine's π and
//! ⋈, AU encoding — fill one buffer with up to [`MAX_BUFFER_ROWS`] rows
//! and cut it into handles ([`Tuple::cut`], [`RowWriter`]): one
//! allocation and one free per buffer instead of one per row.
//!
//! A row cut from a shared buffer shares it with up to 1 023 others and
//! keeps the whole buffer alive: holding one row of a result holds its
//! neighbours' values too. Equality, ordering, hashing and both printed
//! forms are functions of the values alone, so where a row's values live
//! never shows.

use crate::value::Value;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// The most rows one shared buffer holds ([`Tuple::cut`], [`RowWriter`]):
/// one default vectorized batch.
pub const MAX_BUFFER_ROWS: usize = 1024;

/// An immutable tuple over the universal domain.
///
/// A handle on a shared row-major `Arc<[Value]>` buffer: cloning (which
/// joins and map keys do constantly) is a reference-count bump; equality,
/// ordering and hashing act on the values.
#[derive(Clone)]
pub struct Tuple {
    buf: Arc<[Value]>,
    start: u32,
    len: u32,
}

impl Tuple {
    /// Build a tuple from values.
    pub fn new(values: impl Into<Vec<Value>>) -> Tuple {
        Tuple::whole(values.into().into())
    }

    /// The one-row tuple that owns all of `buf`.
    fn whole(buf: Arc<[Value]>) -> Tuple {
        let len = u32::try_from(buf.len()).expect("tuple arity fits in u32");
        Tuple { buf, start: 0, len }
    }

    /// Cut `buf`, `rows` rows of one arity in row-major order, into one
    /// handle per row, all sharing the buffer. The row count is given, not
    /// derived: an empty buffer holds `rows` zero-column rows.
    ///
    /// # Panics
    /// Panics when `rows` exceeds [`MAX_BUFFER_ROWS`] or `buf` does not
    /// split into `rows` rows of equal arity.
    pub fn cut(buf: Arc<[Value]>, rows: usize) -> impl ExactSizeIterator<Item = Tuple> {
        assert!(
            rows <= MAX_BUFFER_ROWS,
            "a shared buffer holds at most {MAX_BUFFER_ROWS} rows"
        );
        let arity = buf.len().checked_div(rows).unwrap_or(0);
        assert_eq!(arity * rows, buf.len(), "a buffer holds whole rows");
        let len = u32::try_from(arity).expect("tuple arity fits in u32");
        (0..rows as u32).map(move |i| Tuple {
            buf: Arc::clone(&buf),
            start: i * len,
            len,
        })
    }

    /// The empty tuple (arity 0).
    pub fn empty() -> Tuple {
        Tuple::new(Vec::new())
    }

    /// Number of attributes.
    #[inline]
    pub fn arity(&self) -> usize {
        self.len as usize
    }

    /// The value at position `i`, if in range.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&Value> {
        self.values().get(i)
    }

    /// All values as a slice.
    #[inline]
    pub fn values(&self) -> &[Value] {
        let start = self.start as usize;
        &self.buf[start..start + self.len as usize]
    }

    /// Concatenation `(self, other)` — the join of two matched tuples.
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut v = Vec::with_capacity(self.arity() + other.arity());
        v.extend_from_slice(self);
        v.extend_from_slice(other);
        Tuple::new(v)
    }

    /// Projection onto the given positions (positions may repeat).
    ///
    /// # Panics
    /// Panics when a position is out of range — projection positions are
    /// produced by schema binding, so this indicates an internal bug.
    pub fn project(&self, positions: &[usize]) -> Tuple {
        let values = self.values();
        positions.iter().map(|&i| values[i].clone()).collect()
    }

    /// A new tuple with `value` appended.
    pub fn push(&self, value: Value) -> Tuple {
        let mut v = Vec::with_capacity(self.arity() + 1);
        v.extend_from_slice(self);
        v.push(value);
        Tuple::new(v)
    }

    /// Whether any attribute is SQL `NULL` or a labeled null.
    ///
    /// Certain-answer semantics only admit *complete* tuples, so baselines
    /// use this to filter incomplete candidates.
    pub fn has_unknown(&self) -> bool {
        self.iter().any(Value::is_unknown)
    }

    /// Whether any attribute is an *anonymous* SQL `NULL` (labeled nulls do
    /// not count: a labeled null equals itself, so it can serve as a hash
    /// key — structural equality of `Var`s coincides with their SQL
    /// equality semantics).
    pub fn has_null(&self) -> bool {
        self.iter().any(|v| matches!(v, Value::Null))
    }

    /// Substitute every labeled null through `f` (used to instantiate
    /// C-table tuples in a possible world).
    pub fn substitute(&self, f: impl Fn(&Value) -> Value) -> Tuple {
        self.iter().map(f).collect()
    }
}

impl Deref for Tuple {
    type Target = [Value];
    #[inline]
    fn deref(&self) -> &[Value] {
        self.values()
    }
}

/// A map keyed by tuples can be probed by a value slice: both hash and
/// compare the same values.
impl Borrow<[Value]> for Tuple {
    #[inline]
    fn borrow(&self) -> &[Value] {
        self.values()
    }
}

impl PartialEq for Tuple {
    #[inline]
    fn eq(&self, other: &Tuple) -> bool {
        self.values() == other.values()
    }
}

impl Eq for Tuple {}

impl PartialOrd for Tuple {
    #[inline]
    fn partial_cmp(&self, other: &Tuple) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tuple {
    #[inline]
    fn cmp(&self, other: &Tuple) -> Ordering {
        self.values().cmp(other.values())
    }
}

impl Hash for Tuple {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.values().hash(state);
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Tuple").field(&self.values()).finish()
    }
}

impl<const N: usize> From<[Value; N]> for Tuple {
    fn from(values: [Value; N]) -> Tuple {
        Tuple::whole(Arc::from(values))
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Tuple {
        Tuple::new(values)
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Tuple {
        Tuple::whole(iter.into_iter().collect())
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "⟩")
    }
}

/// Rows of one arity written value by value: every [`MAX_BUFFER_ROWS`]
/// finished rows are cut into handles on one shared buffer
/// ([`Tuple::cut`]). A row is open from its first value until
/// [`RowWriter::end_row`] keeps it or [`RowWriter::discard_row`] drops it.
pub struct RowWriter {
    arity: usize,
    /// The current buffer's finished rows, then the open row.
    values: Vec<Value>,
    /// Finished rows in `values`.
    pending: usize,
    rows: Vec<Tuple>,
}

impl RowWriter {
    /// A writer of rows with `arity` values each.
    pub fn new(arity: usize) -> RowWriter {
        RowWriter {
            arity,
            values: Vec::new(),
            pending: 0,
            rows: Vec::new(),
        }
    }

    /// Append one value to the open row.
    #[inline]
    pub fn push(&mut self, value: Value) {
        self.values.push(value);
    }

    /// The values of the open row so far.
    #[inline]
    pub fn open_row(&self) -> &[Value] {
        &self.values[self.pending * self.arity..]
    }

    /// Drop the open row.
    #[inline]
    pub fn discard_row(&mut self) {
        self.values.truncate(self.pending * self.arity);
    }

    /// Keep the open row, which must hold the writer's arity of values.
    #[inline]
    pub fn end_row(&mut self) {
        self.pending += 1;
        assert_eq!(
            self.values.len(),
            self.pending * self.arity,
            "a row holds the writer's arity of values"
        );
        if self.pending == MAX_BUFFER_ROWS {
            self.cut();
        }
    }

    fn cut(&mut self) {
        let buf: Arc<[Value]> = self.values.drain(..).collect();
        self.rows.extend(Tuple::cut(buf, self.pending));
        self.pending = 0;
    }

    /// The finished rows in write order (an open row is dropped).
    pub fn finish(mut self) -> Vec<Tuple> {
        self.discard_row();
        if self.pending > 0 {
            self.cut();
        }
        self.rows
    }
}

impl Extend<Value> for RowWriter {
    fn extend<I: IntoIterator<Item = Value>>(&mut self, iter: I) {
        self.values.extend(iter);
    }
}

/// Shorthand for building a [`Tuple`] from heterogeneous literals:
/// `tuple![1, "abc", 2.5]`.
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::tuple::Tuple::new(vec![$($crate::value::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::VarId;

    #[test]
    fn construction_and_access() {
        let t = tuple![1i64, "ab", 2.5];
        assert_eq!(t.arity(), 3);
        assert_eq!(t.get(0), Some(&Value::Int(1)));
        assert_eq!(t.get(1), Some(&Value::str("ab")));
        assert_eq!(t.get(3), None);
    }

    #[test]
    fn concat_and_project() {
        let a = tuple![1i64, 2i64];
        let b = tuple!["x"];
        let c = a.concat(&b);
        assert_eq!(c.arity(), 3);
        assert_eq!(c.project(&[2, 0]), tuple!["x", 1i64]);
        assert_eq!(c.project(&[1, 1]), tuple![2i64, 2i64]);
    }

    #[test]
    fn unknown_detection() {
        assert!(!tuple![1i64, "a"].has_unknown());
        assert!(Tuple::new(vec![Value::Null]).has_unknown());
        assert!(Tuple::new(vec![Value::Var(VarId(0))]).has_unknown());
    }

    #[test]
    fn substitution() {
        let t = Tuple::new(vec![Value::Var(VarId(7)), Value::Int(1)]);
        let s = t.substitute(|v| match v {
            Value::Var(VarId(7)) => Value::Int(42),
            other => other.clone(),
        });
        assert_eq!(s, tuple![42i64, 1i64]);
    }

    #[test]
    fn equality_is_structural() {
        assert_eq!(tuple![1i64, "a"], tuple![1i64, "a"]);
        assert_ne!(tuple![1i64, "a"], tuple![1i64, "b"]);
    }

    #[test]
    fn display() {
        assert_eq!(tuple![1i64, "a"].to_string(), "⟨1, 'a'⟩");
        assert_eq!(Tuple::empty().to_string(), "⟨⟩");
    }

    /// A handle cut from a shared buffer at a nonzero offset is
    /// indistinguishable from an owned tuple of the same values.
    #[test]
    fn shared_handle_matches_owned_tuple() {
        use std::collections::hash_map::DefaultHasher;
        fn hash<H: Hasher + Default>(t: &Tuple) -> u64 {
            let mut h = H::default();
            t.hash(&mut h);
            h.finish()
        }
        let buf: Vec<Value> = vec![
            Value::Int(0),
            Value::str("skip"),
            Value::float(2.5),
            Value::Int(7),
            Value::str("x"),
            Value::Null,
        ];
        let rows: Vec<Tuple> = Tuple::cut(buf.into(), 2).collect();
        let shared = &rows[1];
        let owned = Tuple::new(vec![Value::Int(7), Value::str("x"), Value::Null]);
        assert_eq!(rows[0], tuple![0i64, "skip", 2.5]);
        assert_eq!(shared.values(), owned.values());
        assert_eq!(*shared, owned);
        assert_eq!(shared.cmp(&owned), Ordering::Equal);
        assert_eq!(
            hash::<crate::FxHasher>(shared),
            hash::<crate::FxHasher>(&owned)
        );
        assert_eq!(hash::<DefaultHasher>(shared), hash::<DefaultHasher>(&owned));
        assert_eq!(format!("{shared:?}"), format!("{owned:?}"));
        assert_eq!(shared.to_string(), owned.to_string());
        assert!(std::mem::size_of::<Tuple>() <= 24);
    }

    #[test]
    fn cut_takes_the_row_count_from_the_caller() {
        let rows: Vec<Tuple> = Tuple::cut(Vec::new().into(), 5).collect();
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().all(|r| *r == Tuple::empty()));
        assert_eq!(Tuple::cut(Vec::new().into(), 0).len(), 0);
    }

    #[test]
    fn row_writer_keeps_ended_rows_across_buffers() {
        let n = 2 * MAX_BUFFER_ROWS + 3;
        let mut w = RowWriter::new(2);
        for i in 0..n as i64 {
            w.push(Value::Int(i));
            w.push(Value::Int(-i));
            assert_eq!(w.open_row(), [Value::Int(i), Value::Int(-i)]);
            if i % 3 == 0 {
                w.discard_row();
            } else {
                w.end_row();
            }
        }
        w.push(Value::Int(-1));
        let rows = w.finish();
        let want: Vec<Tuple> = (0..n as i64)
            .filter(|i| i % 3 != 0)
            .map(|i| tuple![i, -i])
            .collect();
        assert_eq!(rows, want);
        let mut empty = RowWriter::new(0);
        for _ in 0..MAX_BUFFER_ROWS + 1 {
            empty.end_row();
        }
        assert_eq!(empty.finish().len(), MAX_BUFFER_ROWS + 1);
    }
}
