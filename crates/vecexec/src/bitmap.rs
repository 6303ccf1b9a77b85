//! Dense bitmaps: predicate masks and per-batch UA label vectors.
//!
//! One bit per row, packed into `u64` words. The UA certainty marker of a
//! batch lives here (bit set = the row copy is labeled *certain*), so label
//! propagation through the `⟦·⟧_UA` rules becomes word-wide bitwise
//! arithmetic: selection masks AND into labels implicitly via row gathers,
//! and the join rule `min(C₁, C₂)` over `{0, 1}` markers is a bitwise AND.

/// A fixed-length bit vector.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// An empty bitmap.
    pub fn new() -> Bitmap {
        Bitmap::default()
    }

    /// A bitmap of `len` bits, all set to `bit`.
    pub fn filled(len: usize, bit: bool) -> Bitmap {
        let words = len.div_ceil(64);
        let mut bm = Bitmap {
            words: vec![if bit { !0u64 } else { 0 }; words],
            len,
        };
        bm.clear_tail();
        bm
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bit at `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Set the bit at `i` to `bit`.
    #[inline]
    pub fn set(&mut self, i: usize, bit: bool) {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i % 64);
        if bit {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Append one bit.
    pub fn push(&mut self, bit: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        if bit {
            *self.words.last_mut().expect("word present") |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether every bit is set.
    pub fn all_ones(&self) -> bool {
        self.count_ones() == self.len
    }

    /// Word-wise in-place AND (both operands must have equal length).
    pub fn and_assign(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= o;
        }
    }

    /// Word-wise in-place OR.
    pub fn or_assign(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// Word-wise in-place AND-NOT: clear every bit set in `other`.
    pub fn and_not_assign(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= !o;
        }
    }

    /// A bitmap of `len` bits with bit `i` set iff `f(i)`.
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> bool) -> Bitmap {
        let mut words = vec![0u64; len.div_ceil(64)];
        for (wi, word) in words.iter_mut().enumerate() {
            let base = wi * 64;
            for bit in 0..(len - base).min(64) {
                *word |= u64::from(f(base + bit)) << bit;
            }
        }
        Bitmap { words, len }
    }

    /// Positions of all set bits, in order — the selection vector of a
    /// predicate mask.
    pub fn ones(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.count_ones());
        for (wi, &word) in self.words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let bit = w.trailing_zeros();
                out.push((wi as u32) * 64 + bit);
                w &= w - 1;
            }
        }
        out
    }

    /// The bits at `idx`, in order (`idx` entries must be in range).
    pub fn gather(&self, idx: &[u32]) -> Bitmap {
        let mut out = Bitmap::filled(idx.len(), false);
        for (o, &i) in idx.iter().enumerate() {
            if self.get(i as usize) {
                out.set(o, true);
            }
        }
        out
    }

    /// Append all of `other`'s bits, word-wise: whole-word copies when this
    /// bitmap ends on a word boundary, a shift-and-or pass otherwise —
    /// never per-bit work. Relies on the invariant (maintained by every
    /// constructor and mutator here) that bits past `len` in the last word
    /// are zero.
    pub fn extend(&mut self, other: &Bitmap) {
        let r = self.len % 64;
        if r == 0 {
            self.words.extend_from_slice(&other.words);
        } else {
            for &w in &other.words {
                *self.words.last_mut().expect("r != 0 implies a word") |= w << r;
                self.words.push(w >> (64 - r));
            }
        }
        self.len += other.len;
        // The shift pass may have pushed one word past the end.
        self.words.truncate(self.len.div_ceil(64));
    }

    /// Concatenate bitmaps in order.
    pub fn concat<'a>(parts: impl IntoIterator<Item = &'a Bitmap>) -> Bitmap {
        let mut out = Bitmap::new();
        for part in parts {
            out.extend(part);
        }
        out
    }

    fn clear_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_get_set() {
        let mut bm = Bitmap::filled(70, true);
        assert_eq!(bm.len(), 70);
        assert_eq!(bm.count_ones(), 70);
        assert!(bm.all_ones());
        bm.set(69, false);
        assert!(!bm.get(69));
        assert!(bm.get(68));
        assert_eq!(bm.count_ones(), 69);
        assert!(!bm.all_ones());
    }

    #[test]
    fn push_and_ones() {
        let mut bm = Bitmap::new();
        for i in 0..130 {
            bm.push(i % 3 == 0);
        }
        let ones = bm.ones();
        assert!(ones.iter().all(|&i| i % 3 == 0));
        assert_eq!(ones.len(), bm.count_ones());
        assert_eq!(ones.len(), (0..130).filter(|i| i % 3 == 0).count());
    }

    #[test]
    fn and_or() {
        let mut a = Bitmap::filled(100, false);
        let mut b = Bitmap::filled(100, false);
        for i in 0..100 {
            a.set(i, i % 2 == 0);
            b.set(i, i % 3 == 0);
        }
        let mut and = a.clone();
        and.and_assign(&b);
        assert_eq!(and.count_ones(), (0..100).filter(|i| i % 6 == 0).count());
        let mut or = a.clone();
        or.or_assign(&b);
        assert_eq!(
            or.count_ones(),
            (0..100).filter(|i| i % 2 == 0 || i % 3 == 0).count()
        );
    }

    #[test]
    fn gather_and_concat() {
        let mut bm = Bitmap::filled(10, false);
        bm.set(1, true);
        bm.set(4, true);
        let g = bm.gather(&[4, 0, 1, 1]);
        assert_eq!(
            (0..4).map(|i| g.get(i)).collect::<Vec<_>>(),
            vec![true, false, true, true]
        );
        let c = Bitmap::concat([&bm, &g]);
        assert_eq!(c.len(), 14);
        assert_eq!(c.count_ones(), 2 + 3);
        assert!(c.get(10) && !c.get(11) && c.get(12) && c.get(13));
    }

    #[test]
    fn filled_tail_is_clean() {
        let bm = Bitmap::filled(65, true);
        assert_eq!(bm.count_ones(), 65);
        assert!(bm.all_ones());
    }

    #[test]
    fn extend_matches_per_bit_reference_across_alignments() {
        // Sweep unaligned lengths straddling word boundaries.
        for a_len in [0usize, 1, 63, 64, 65, 130] {
            for b_len in [0usize, 1, 62, 64, 100] {
                let mut a = Bitmap::filled(a_len, false);
                for i in 0..a_len {
                    a.set(i, i % 3 == 0);
                }
                let mut b = Bitmap::filled(b_len, false);
                for i in 0..b_len {
                    b.set(i, i % 2 == 0);
                }
                let mut fast = a.clone();
                fast.extend(&b);
                let mut slow = a.clone();
                for i in 0..b_len {
                    slow.push(b.get(i));
                }
                assert_eq!(fast, slow, "a_len={a_len} b_len={b_len}");
                assert_eq!(fast.len(), a_len + b_len);
                // Tail invariant survives: filling the rest stays consistent.
                assert_eq!(fast.count_ones(), slow.count_ones());
            }
        }
    }
}
