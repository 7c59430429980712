//! Compressed chunk-container rows — the million-state backend for binary
//! relations over finite universes.
//!
//! A [`CompressedRel`] stores an `n × n` boolean matrix as one
//! [`CompressedRow`] per row; each row splits its column set into
//! 2¹⁶-aligned chunks (Roaring-style), and every chunk is held by the
//! smallest of three [`Container`] encodings:
//!
//! - **Array** — a sorted `u16` list, 2 bytes per entry; best below ~4k
//!   entries per chunk.
//! - **Bitmap** — 1024 × `u64` words (8192 bytes flat); best for dense,
//!   scattered chunks where the array would exceed 4096 entries.
//! - **Runs** — sorted, coalesced `(start, last)` intervals, 4 bytes per
//!   run; best for the contiguous blocks that reflexive-transitive
//!   closures of chain/ring-shaped transition relations produce (a
//!   fully-reachable block of any size is a single 4-byte run).
//!
//! Bulk-built rows (compose, closure, [`CompressedRow::from_sorted`],
//! union, meet) are *normalized*: the encoding is re-chosen per chunk by
//! byte size, preferring the array on ties. Point inserts ([`set`]) keep
//! the current encoding and only promote array→bitmap past 4096 entries
//! and runs→bitmap past 2048 runs, exactly like Roaring — a row built by
//! scattered `set` calls may therefore be larger than its normalized
//! form, but never asymptotically so.
//!
//! Every container caches its cardinality, so [`Container::len`] is O(1)
//! and row/relation counts are sums over containers, not entries.
//!
//! # Iteration order
//!
//! Chunks are kept sorted by chunk key and every container iterates its
//! values ascending, so [`CompressedRel::iter`] and
//! [`CompressedRel::iter_row`] stream pairs in exactly the ascending
//! lexicographic `(r, c)` order a `BTreeSet<(usize, usize)>` would
//! produce — the same contract the dense and sparse backends uphold.
//!
//! # Budgets
//!
//! The `*_governed` variants poll a [`Budget`] every [`ROW_POLL_STRIDE`]
//! rows through
//! [`Budget::check_rel`], passing the *estimated bytes* the operation
//! has materialized so far (see [`CompressedRow::byte_size`] for the
//! formula), so a runaway closure trips `RelMemory` instead of OOMing.
//!
//! [`set`]: CompressedRel::set

use crate::bitmat::ROW_POLL_STRIDE;
use crate::budget::{Budget, BudgetExceeded};

/// Columns per chunk: each container covers one 2¹⁶-aligned column range.
const CHUNK_SPAN: usize = 1 << 16;

/// Words in a bitmap container (`CHUNK_SPAN / 64`).
const BITMAP_WORDS: usize = CHUNK_SPAN / 64;

/// Flat byte size of a bitmap container's payload.
const BITMAP_BYTES: usize = BITMAP_WORDS * 8;

/// Array containers promote to bitmaps past this cardinality — at 4096
/// entries the array's `2 · len` bytes reach the bitmap's flat 8192.
const ARRAY_MAX: usize = BITMAP_BYTES / 2;

/// Run containers promote to bitmaps past this run count — at 2048 runs
/// the run list's `4 · runs` bytes reach the bitmap's flat 8192.
const RUNS_MAX: usize = BITMAP_BYTES / 4;

/// Estimated bookkeeping bytes charged per container (chunk key,
/// discriminant, cached cardinality) in the byte-accounting formula.
pub(crate) const CONTAINER_OVERHEAD: usize = 8;

/// One 2¹⁶-column chunk of a row, in whichever encoding is smallest.
#[derive(Debug, Clone)]
enum Container {
    /// Sorted, deduplicated values (2 bytes each).
    Array(Vec<u16>),
    /// Flat bitmap (8192 bytes) with a cached popcount.
    Bitmap {
        /// 1024 words covering the chunk's 65536 columns.
        words: Box<[u64; BITMAP_WORDS]>,
        /// Cached number of set bits.
        len: u32,
    },
    /// Sorted, coalesced inclusive `(start, last)` intervals (4 bytes
    /// each) with a cached cardinality.
    Runs {
        /// Disjoint, non-adjacent, ascending intervals.
        runs: Vec<(u16, u16)>,
        /// Cached total cardinality across all runs.
        len: u32,
    },
}

impl Container {
    /// Cardinality, O(1) (cached for bitmap and run encodings).
    fn len(&self) -> usize {
        match self {
            Container::Array(v) => v.len(),
            Container::Bitmap { len, .. } | Container::Runs { len, .. } => *len as usize,
        }
    }

    /// Estimated payload bytes of this encoding (excluding
    /// [`CONTAINER_OVERHEAD`]).
    fn bytes(&self) -> usize {
        match self {
            Container::Array(v) => 2 * v.len(),
            Container::Bitmap { .. } => BITMAP_BYTES,
            Container::Runs { runs, .. } => 4 * runs.len(),
        }
    }

    /// Whether `v` is present.
    fn contains(&self, v: u16) -> bool {
        match self {
            Container::Array(vals) => vals.binary_search(&v).is_ok(),
            Container::Bitmap { words, .. } => {
                words[usize::from(v) >> 6] & (1u64 << (v & 63)) != 0
            }
            Container::Runs { runs, .. } => {
                let i = runs.partition_point(|&(s, _)| s <= v);
                i > 0 && runs[i - 1].1 >= v
            }
        }
    }

    /// Inserts `v`; returns whether it was previously absent. Promotes
    /// array→bitmap past [`ARRAY_MAX`] entries and runs→bitmap past
    /// [`RUNS_MAX`] runs; never demotes (normalization happens on
    /// bulk-built rows).
    fn insert(&mut self, v: u16) -> bool {
        match self {
            Container::Array(vals) => match vals.binary_search(&v) {
                Ok(_) => false,
                Err(pos) => {
                    vals.insert(pos, v);
                    if vals.len() > ARRAY_MAX {
                        *self = bitmap_from_sorted(vals);
                    }
                    true
                }
            },
            Container::Bitmap { words, len } => {
                let w = &mut words[usize::from(v) >> 6];
                let bit = 1u64 << (v & 63);
                if *w & bit != 0 {
                    return false;
                }
                *w |= bit;
                *len += 1;
                true
            }
            Container::Runs { runs, len } => {
                // Locate the insertion point; u32 arithmetic avoids u16
                // overflow when coalescing against a run ending at 65535.
                let v32 = u32::from(v);
                let i = runs.partition_point(|&(s, _)| s <= v);
                if i > 0 && u32::from(runs[i - 1].1) >= v32 {
                    return false;
                }
                let touches_left = i > 0 && u32::from(runs[i - 1].1) + 1 == v32;
                let touches_right = i < runs.len() && v32 + 1 == u32::from(runs[i].0);
                match (touches_left, touches_right) {
                    (true, true) => {
                        runs[i - 1].1 = runs[i].1;
                        runs.remove(i);
                    }
                    (true, false) => runs[i - 1].1 = v,
                    (false, true) => runs[i].0 = v,
                    (false, false) => runs.insert(i, (v, v)),
                }
                *len += 1;
                if runs.len() > RUNS_MAX {
                    let mut expanded: Vec<(u32, u32)> = Vec::with_capacity(runs.len());
                    for &(s, e) in runs.iter() {
                        expanded.push((u32::from(s), u32::from(e)));
                    }
                    *self = from_runs32(&expanded).expect("non-empty runs");
                }
                true
            }
        }
    }

    /// Appends this container's maximal runs to `out` as inclusive u32
    /// interval bounds within `0..65536`.
    fn extend_runs(&self, out: &mut Vec<(u32, u32)>) {
        match self {
            Container::Array(vals) => {
                let mut it = vals.iter().copied();
                if let Some(first) = it.next() {
                    let mut cur = (u32::from(first), u32::from(first));
                    for v in it {
                        let v = u32::from(v);
                        if v == cur.1 + 1 {
                            cur.1 = v;
                        } else {
                            out.push(cur);
                            cur = (v, v);
                        }
                    }
                    out.push(cur);
                }
            }
            Container::Bitmap { words, .. } => {
                let mut cur: Option<(u32, u32)> = None;
                for (k, &w) in words.iter().enumerate() {
                    let mut w = w;
                    while w != 0 {
                        let v = (k as u32) * 64 + w.trailing_zeros();
                        w &= w - 1;
                        match cur {
                            Some((_, last)) if last + 1 == v => cur = cur.map(|(s, _)| (s, v)),
                            Some(done) => {
                                out.push(done);
                                cur = Some((v, v));
                            }
                            None => cur = Some((v, v)),
                        }
                    }
                }
                if let Some(done) = cur {
                    out.push(done);
                }
            }
            Container::Runs { runs, .. } => {
                for &(s, e) in runs {
                    out.push((u32::from(s), u32::from(e)));
                }
            }
        }
    }

    /// Ascending iterator over the container's values.
    fn iter(&self) -> ContainerIter<'_> {
        match self {
            Container::Array(vals) => ContainerIter::Array(vals.iter()),
            Container::Bitmap { words, .. } => ContainerIter::Bitmap {
                words: &words[..],
                k: 0,
                word: 0,
            },
            Container::Runs { runs, .. } => ContainerIter::Runs {
                runs: runs.iter(),
                cur: None,
            },
        }
    }
}

/// Semantic equality: same value set, regardless of encoding (a
/// `set`-built array and a closure-built run list may hold the same
/// chunk).
impl PartialEq for Container {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for Container {}

/// Builds a bitmap container from sorted, deduplicated values.
fn bitmap_from_sorted(vals: &[u16]) -> Container {
    let mut words = Box::new([0u64; BITMAP_WORDS]);
    for &v in vals {
        words[usize::from(v) >> 6] |= 1u64 << (v & 63);
    }
    Container::Bitmap {
        words,
        len: vals.len() as u32,
    }
}

/// Normalizes a sorted, disjoint, non-adjacent run sequence (inclusive
/// u32 bounds within `0..65536`) into the smallest container encoding:
/// `2·card` (array) vs `4·runs` (run list) vs 8192 (bitmap) bytes,
/// preferring the array on ties. Returns `None` for an empty sequence.
fn from_runs32(runs: &[(u32, u32)]) -> Option<Container> {
    if runs.is_empty() {
        return None;
    }
    let card: usize = runs.iter().map(|&(s, e)| (e - s + 1) as usize).sum();
    let array_bytes = 2 * card;
    let run_bytes = 4 * runs.len();
    if array_bytes <= run_bytes && array_bytes <= BITMAP_BYTES {
        let mut vals = Vec::with_capacity(card);
        for &(s, e) in runs {
            for v in s..=e {
                vals.push(v as u16);
            }
        }
        Some(Container::Array(vals))
    } else if run_bytes <= BITMAP_BYTES {
        Some(Container::Runs {
            runs: runs.iter().map(|&(s, e)| (s as u16, e as u16)).collect(),
            len: card as u32,
        })
    } else {
        let mut words = Box::new([0u64; BITMAP_WORDS]);
        for &(s, e) in runs {
            for v in s..=e {
                words[(v as usize) >> 6] |= 1u64 << (v & 63);
            }
        }
        Some(Container::Bitmap {
            words,
            len: card as u32,
        })
    }
}

/// Merges two sorted maximal-run sequences into their coalesced union.
fn union_runs(a: &[(u32, u32)], b: &[(u32, u32)]) -> Vec<(u32, u32)> {
    let mut out: Vec<(u32, u32)> = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let next = if j == b.len() || (i < a.len() && a[i].0 <= b[j].0) {
            let r = a[i];
            i += 1;
            r
        } else {
            let r = b[j];
            j += 1;
            r
        };
        match out.last_mut() {
            // Overlapping or adjacent runs coalesce.
            Some(last) if next.0 <= last.1 + 1 => last.1 = last.1.max(next.1),
            _ => out.push(next),
        }
    }
    out
}

/// Intersects two sorted maximal-run sequences.
fn intersect_runs(a: &[(u32, u32)], b: &[(u32, u32)]) -> Vec<(u32, u32)> {
    let mut out: Vec<(u32, u32)> = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if lo <= hi {
            out.push((lo, hi));
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    out
}

/// Ascending iterator over one container's values (`0..65536`).
enum ContainerIter<'a> {
    /// Sorted-array scan.
    Array(std::slice::Iter<'a, u16>),
    /// Word-by-word bitmap scan.
    Bitmap {
        /// The bitmap's words.
        words: &'a [u64],
        /// Next word index to load.
        k: usize,
        /// Remaining bits of the current word.
        word: u64,
    },
    /// Run expansion.
    Runs {
        /// Remaining runs.
        runs: std::slice::Iter<'a, (u16, u16)>,
        /// Current run as `(next, last)` inclusive u32 bounds.
        cur: Option<(u32, u32)>,
    },
}

impl Iterator for ContainerIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        match self {
            ContainerIter::Array(it) => it.next().map(|&v| u32::from(v)),
            ContainerIter::Bitmap { words, k, word } => loop {
                if *word != 0 {
                    let tz = word.trailing_zeros();
                    *word &= *word - 1;
                    return Some(((*k as u32) - 1) * 64 + tz);
                }
                if *k == words.len() {
                    return None;
                }
                *word = words[*k];
                *k += 1;
            },
            ContainerIter::Runs { runs, cur } => {
                if cur.is_none() {
                    *cur = runs.next().map(|&(s, e)| (u32::from(s), u32::from(e)));
                }
                let (next, last) = (*cur)?;
                *cur = if next < last { Some((next + 1, last)) } else { None };
                Some(next)
            }
        }
    }
}

/// One row of a [`CompressedRel`]: 2¹⁶-aligned chunks sorted by chunk
/// key, each held by the smallest container encoding (array, bitmap or
/// run list). Empty chunks are never stored.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompressedRow {
    /// `(chunk key, container)` pairs, ascending by key.
    chunks: Vec<(u32, Container)>,
}

impl CompressedRow {
    /// Cardinality of the row — a sum of cached container counts, O(#chunks).
    #[must_use]
    pub fn len(&self) -> usize {
        self.chunks.iter().map(|(_, c)| c.len()).sum()
    }

    /// Whether the row is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Estimated bytes of the row under the byte-accounting formula:
    /// per container, a fixed 8-byte overhead plus 2 bytes per array
    /// entry / 8192 flat bytes per bitmap / 4 bytes per run.
    #[must_use]
    pub fn byte_size(&self) -> usize {
        self.chunks
            .iter()
            .map(|(_, c)| CONTAINER_OVERHEAD + c.bytes())
            .sum()
    }

    /// Whether column `c` is present.
    #[must_use]
    pub fn contains(&self, c: u32) -> bool {
        let key = c >> 16;
        match self.chunks.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => self.chunks[i].1.contains((c & 0xFFFF) as u16),
            Err(_) => false,
        }
    }

    /// Inserts column `c`; returns whether it was previously absent.
    pub fn insert(&mut self, c: u32) -> bool {
        let key = c >> 16;
        let v = (c & 0xFFFF) as u16;
        match self.chunks.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => self.chunks[i].1.insert(v),
            Err(pos) => {
                self.chunks.insert(pos, (key, Container::Array(vec![v])));
                true
            }
        }
    }

    /// Clears the row.
    pub fn clear(&mut self) {
        self.chunks.clear();
    }

    /// Ascending iterator over the row's columns.
    #[must_use]
    pub fn iter(&self) -> RowValues<'_> {
        RowValues {
            chunks: self.chunks.iter(),
            cur: None,
        }
    }

    /// Builds a normalized row from sorted, deduplicated columns: split
    /// by chunk, coalesce each chunk's values into maximal runs, pick
    /// the smallest encoding per chunk.
    #[must_use]
    pub fn from_sorted(vals: &[u32]) -> CompressedRow {
        let mut chunks = Vec::new();
        let mut runs: Vec<(u32, u32)> = Vec::new();
        let mut i = 0;
        while i < vals.len() {
            let key = vals[i] >> 16;
            runs.clear();
            let mut cur = (vals[i] & 0xFFFF, vals[i] & 0xFFFF);
            i += 1;
            while i < vals.len() && vals[i] >> 16 == key {
                let v = vals[i] & 0xFFFF;
                if v == cur.1 + 1 {
                    cur.1 = v;
                } else {
                    runs.push(cur);
                    cur = (v, v);
                }
                i += 1;
            }
            runs.push(cur);
            chunks.push((key, from_runs32(&runs).expect("non-empty chunk")));
        }
        CompressedRow { chunks }
    }

    /// Normalized union of two rows via per-chunk run merges.
    #[must_use]
    pub fn union(&self, other: &CompressedRow) -> CompressedRow {
        let mut chunks = Vec::with_capacity(self.chunks.len().max(other.chunks.len()));
        let (mut i, mut j) = (0, 0);
        let (mut ra, mut rb) = (Vec::new(), Vec::new());
        while i < self.chunks.len() && j < other.chunks.len() {
            let (ka, ca) = &self.chunks[i];
            let (kb, cb) = &other.chunks[j];
            match ka.cmp(kb) {
                std::cmp::Ordering::Less => {
                    chunks.push((*ka, ca.clone()));
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    chunks.push((*kb, cb.clone()));
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    ra.clear();
                    rb.clear();
                    ca.extend_runs(&mut ra);
                    cb.extend_runs(&mut rb);
                    let merged = union_runs(&ra, &rb);
                    chunks.push((*ka, from_runs32(&merged).expect("union of non-empty")));
                    i += 1;
                    j += 1;
                }
            }
        }
        chunks.extend(self.chunks[i..].iter().cloned());
        chunks.extend(other.chunks[j..].iter().cloned());
        CompressedRow { chunks }
    }

    /// Normalized intersection of two rows via per-chunk run merges.
    #[must_use]
    pub fn intersect(&self, other: &CompressedRow) -> CompressedRow {
        let mut chunks = Vec::new();
        let (mut i, mut j) = (0, 0);
        let (mut ra, mut rb) = (Vec::new(), Vec::new());
        while i < self.chunks.len() && j < other.chunks.len() {
            let (ka, ca) = &self.chunks[i];
            let (kb, cb) = &other.chunks[j];
            match ka.cmp(kb) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    ra.clear();
                    rb.clear();
                    ca.extend_runs(&mut ra);
                    cb.extend_runs(&mut rb);
                    let met = intersect_runs(&ra, &rb);
                    if let Some(c) = from_runs32(&met) {
                        chunks.push((*ka, c));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        CompressedRow { chunks }
    }
}

/// Ascending iterator over one [`CompressedRow`]'s columns.
pub struct RowValues<'a> {
    chunks: std::slice::Iter<'a, (u32, Container)>,
    cur: Option<(u32, ContainerIter<'a>)>,
}

impl Iterator for RowValues<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        loop {
            if let Some((base, it)) = &mut self.cur {
                if let Some(v) = it.next() {
                    return Some((*base << 16) | v);
                }
            }
            let (key, c) = self.chunks.next()?;
            self.cur = Some((*key, c.iter()));
        }
    }
}

/// A compressed square boolean matrix over `0..n`: one chunk-container
/// row per source, with a cached total entry count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompressedRel {
    n: usize,
    rows: Vec<CompressedRow>,
    entries: usize,
}

impl CompressedRel {
    /// The empty (all-zero) relation of dimension `n`.
    ///
    /// # Panics
    /// Panics if `n` exceeds `u32::MAX` (column indices are stored as
    /// chunked `u16` values under `u32` keys).
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(
            u32::try_from(n).is_ok(),
            "CompressedRel dimension exceeds u32 index space"
        );
        CompressedRel {
            n,
            rows: vec![CompressedRow::default(); n],
            entries: 0,
        }
    }

    /// The identity relation of dimension `n` (a diagonal fill).
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = CompressedRel::new(n);
        for (i, row) in m.rows.iter_mut().enumerate() {
            row.insert(i as u32);
        }
        m.entries = n;
        m
    }

    /// The dimension `n`.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Total pairs stored — a cached running count, O(1).
    #[must_use]
    pub fn entry_count(&self) -> usize {
        self.entries
    }

    /// Estimated bytes under the byte-accounting formula, summed over all
    /// containers — the units the relation-memory budget axis accounts
    /// for this backend. O(#containers), not O(#entries).
    #[must_use]
    pub fn byte_size(&self) -> usize {
        self.rows.iter().map(CompressedRow::byte_size).sum()
    }

    /// Whether bit `(r, c)` is set.
    ///
    /// # Panics
    /// Panics if `r` or `c` is out of range.
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> bool {
        assert!(r < self.n && c < self.n);
        self.rows[r].contains(c as u32)
    }

    /// Sets bit `(r, c)`; returns whether it was previously clear.
    ///
    /// # Panics
    /// Panics if `r` or `c` is out of range.
    pub fn set(&mut self, r: usize, c: usize) -> bool {
        assert!(r < self.n && c < self.n);
        let fresh = self.rows[r].insert(c as u32);
        if fresh {
            self.entries += 1;
        }
        fresh
    }

    /// Row `r`'s chunk-container row.
    ///
    /// # Panics
    /// Panics if `r` is out of range.
    #[must_use]
    pub fn row(&self, r: usize) -> &CompressedRow {
        assert!(r < self.n);
        &self.rows[r]
    }

    /// Clears row `r`.
    ///
    /// # Panics
    /// Panics if `r` is out of range.
    pub fn clear_row(&mut self, r: usize) {
        assert!(r < self.n);
        self.entries -= self.rows[r].len();
        self.rows[r].clear();
    }

    /// Number of set bits, O(1) (cached).
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.entries
    }

    /// Whether no bit is set.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.entries == 0
    }

    /// Union of `other` into `self`, row by row (normalized rows).
    ///
    /// # Panics
    /// Panics if the dimensions differ.
    pub fn or_assign(&mut self, other: &CompressedRel) {
        assert_eq!(self.n, other.n, "CompressedRel dimension mismatch");
        let mut entries = 0;
        for (a, b) in self.rows.iter_mut().zip(&other.rows) {
            if !b.is_empty() {
                if a.is_empty() {
                    *a = b.clone();
                } else {
                    *a = a.union(b);
                }
            }
            entries += a.len();
        }
        self.entries = entries;
    }

    /// Intersection of `other` into `self`, row by row (normalized rows).
    ///
    /// # Panics
    /// Panics if the dimensions differ.
    pub fn and_assign(&mut self, other: &CompressedRel) {
        assert_eq!(self.n, other.n, "CompressedRel dimension mismatch");
        let mut entries = 0;
        for (a, b) in self.rows.iter_mut().zip(&other.rows) {
            if !a.is_empty() {
                if b.is_empty() {
                    a.clear();
                } else {
                    *a = a.intersect(b);
                }
            }
            entries += a.len();
        }
        self.entries = entries;
    }

    /// Ascending iterator over the set columns of row `r`.
    ///
    /// # Panics
    /// Panics if `r` is out of range.
    pub fn iter_row(&self, r: usize) -> impl Iterator<Item = usize> + '_ {
        self.row(r).iter().map(|c| c as usize)
    }

    /// Ascending lexicographic iterator over all set `(r, c)` pairs — the
    /// `BTreeSet<(usize, usize)>` order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.rows
            .iter()
            .enumerate()
            .flat_map(|(r, row)| row.iter().map(move |c| (r, c as usize)))
    }

    /// A copy resized to dimension `d ≥ n` (new rows are empty).
    ///
    /// # Panics
    /// Panics if `d < n` (shrinking would silently drop pairs).
    #[must_use]
    pub fn resized(&self, d: usize) -> CompressedRel {
        assert!(d >= self.n, "CompressedRel cannot shrink");
        let mut out = CompressedRel::new(d);
        out.rows[..self.n].clone_from_slice(&self.rows);
        out.entries = self.entries;
        out
    }

    /// Relational composition (`self` applied first): output row `a`
    /// gathers `other`'s rows over every entry of `self`'s row `a`, then
    /// normalizes. See [`compose_governed`](Self::compose_governed).
    ///
    /// # Panics
    /// Panics if the dimensions differ.
    #[must_use]
    pub fn compose(&self, other: &CompressedRel) -> CompressedRel {
        match self.compose_governed(other, &Budget::unlimited()) {
            Ok(m) => m,
            Err(_) => unreachable!("unlimited budget never trips"),
        }
    }

    /// As [`compose`](Self::compose), polling `budget` every
    /// [`ROW_POLL_STRIDE`] rows via [`Budget::check_rel`] with the
    /// estimated bytes materialized so far.
    ///
    /// # Errors
    /// Returns the tripped axis; partial output is discarded.
    ///
    /// # Panics
    /// Panics if the dimensions differ.
    pub fn compose_governed(
        &self,
        other: &CompressedRel,
        budget: &Budget,
    ) -> Result<CompressedRel, BudgetExceeded> {
        assert_eq!(self.n, other.n, "CompressedRel dimension mismatch");
        let mut out = CompressedRel::new(self.n);
        let mut bytes = 0usize;
        let mut buf: Vec<u32> = Vec::new();
        for (a, orow) in out.rows.iter_mut().enumerate() {
            if a % ROW_POLL_STRIDE == 0 {
                if let Some(reason) = budget.check_rel(bytes) {
                    return Err(reason);
                }
            }
            buf.clear();
            for b in self.rows[a].iter() {
                buf.extend(other.rows[b as usize].iter());
            }
            buf.sort_unstable();
            buf.dedup();
            *orow = CompressedRow::from_sorted(&buf);
            bytes += orow.byte_size();
        }
        out.entries = out.rows.iter().map(CompressedRow::len).sum();
        Ok(out)
    }

    /// The reflexive-transitive closure: row `r` of the result holds every
    /// node reachable from `r` (including `r` itself), computed by one
    /// semi-naive delta fixpoint per source row, stored normalized.
    #[must_use]
    pub fn closure_reflexive_transitive(&self) -> CompressedRel {
        match self.closure_governed(&Budget::unlimited()) {
            Ok(m) => m,
            Err(_) => unreachable!("unlimited budget never trips"),
        }
    }

    /// As [`closure_reflexive_transitive`](Self::closure_reflexive_transitive),
    /// polling `budget` every [`ROW_POLL_STRIDE`] source rows via
    /// [`Budget::check_rel`] with the estimated bytes materialized so far.
    ///
    /// # Errors
    /// Returns the tripped axis; the partial closure is discarded.
    pub fn closure_governed(&self, budget: &Budget) -> Result<CompressedRel, BudgetExceeded> {
        let n = self.n;
        let mut out = CompressedRel::new(n);
        let mut bytes = 0usize;
        // Membership flag per node, reset after each source by walking
        // only the nodes that were reached.
        let mut in_closed = vec![false; n];
        for (src, orow) in out.rows.iter_mut().enumerate() {
            if src % ROW_POLL_STRIDE == 0 {
                if let Some(reason) = budget.check_rel(bytes) {
                    return Err(reason);
                }
            }
            // Semi-naive delta iteration, exactly as in the sparse
            // backend: only rows discovered by the previous round are
            // re-expanded.
            let mut reach: Vec<u32> = vec![src as u32];
            in_closed[src] = true;
            let mut delta = 0usize;
            while delta < reach.len() {
                let x = reach[delta] as usize;
                delta += 1;
                for t in self.rows[x].iter() {
                    if !in_closed[t as usize] {
                        in_closed[t as usize] = true;
                        reach.push(t);
                    }
                }
            }
            for &t in &reach {
                in_closed[t as usize] = false;
            }
            reach.sort_unstable();
            *orow = CompressedRow::from_sorted(&reach);
            bytes += orow.byte_size();
        }
        out.entries = out.rows.iter().map(CompressedRow::len).sum();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_pairs(n: usize, pairs: &[(usize, usize)]) -> CompressedRel {
        let mut m = CompressedRel::new(n);
        for &(a, b) in pairs {
            m.set(a, b);
        }
        m
    }

    #[test]
    fn set_get_iter_ascending_across_chunk_boundary() {
        let mut m = CompressedRel::new(200_000);
        assert!(m.set(0, 65_536));
        assert!(m.set(0, 65_535));
        assert!(m.set(0, 2));
        assert!(!m.set(0, 2));
        assert!(m.set(131_072, 7));
        assert!(m.get(0, 65_535) && m.get(0, 65_536) && !m.get(65_535, 0));
        assert_eq!(
            m.iter().collect::<Vec<_>>(),
            vec![(0, 2), (0, 65_535), (0, 65_536), (131_072, 7)]
        );
        assert_eq!(m.count_ones(), 4);
        assert_eq!(m.entry_count(), 4);
        m.clear_row(0);
        assert_eq!(m.entry_count(), 1);
    }

    #[test]
    fn container_encodings_chosen_by_size() {
        // A single long run spanning a chunk boundary: one run container
        // per chunk, 4 bytes of payload each.
        let row = CompressedRow::from_sorted(&(60_000..70_000).collect::<Vec<u32>>());
        assert_eq!(row.len(), 10_000);
        assert_eq!(row.byte_size(), 2 * (CONTAINER_OVERHEAD + 4));
        // Scattered values stay an array while small...
        let sparse_vals: Vec<u32> = (0..1000).map(|i| i * 7).collect();
        let arr = CompressedRow::from_sorted(&sparse_vals);
        assert_eq!(arr.byte_size(), CONTAINER_OVERHEAD + 2 * 1000);
        // ...and become a bitmap once the array would exceed 8192 bytes.
        let dense_vals: Vec<u32> = (0..10_000).map(|i| i * 6).collect();
        let bm = CompressedRow::from_sorted(&dense_vals);
        assert_eq!(bm.byte_size(), CONTAINER_OVERHEAD + BITMAP_BYTES);
        assert_eq!(bm.len(), 10_000);
        assert!(bm.contains(6 * 9_999) && !bm.contains(5));
        // All three encodings iterate ascending.
        assert_eq!(bm.iter().collect::<Vec<_>>(), dense_vals);
        assert_eq!(arr.iter().collect::<Vec<_>>(), sparse_vals);
    }

    #[test]
    fn point_inserts_promote_and_coalesce() {
        // Runs container: fill 0..=4, then 6, then bridge with 5.
        let mut row = CompressedRow::from_sorted(&[0, 1, 2, 3, 4]);
        assert!(row.insert(6));
        assert!(row.insert(5));
        assert!(!row.insert(3));
        assert_eq!(row.iter().collect::<Vec<_>>(), (0..=6).collect::<Vec<_>>());
        // Array promotes to bitmap past ARRAY_MAX point inserts.
        let mut big = CompressedRow::default();
        for v in 0..=(ARRAY_MAX as u32) {
            assert!(big.insert(v * 2));
        }
        assert_eq!(big.len(), ARRAY_MAX + 1);
        assert_eq!(big.byte_size(), CONTAINER_OVERHEAD + BITMAP_BYTES);
        assert!(big.contains(2 * ARRAY_MAX as u32) && !big.contains(1));
        // The u16 edge: coalescing against a run ending at 65535 must not
        // overflow.
        let mut edge = CompressedRow::from_sorted(&(65_530..=65_535).collect::<Vec<u32>>());
        assert!(!edge.insert(65_535));
        assert!(edge.insert(65_529));
        assert_eq!(edge.len(), 7);
    }

    #[test]
    fn union_meet_normalize() {
        let a = CompressedRow::from_sorted(&[0, 1, 2, 100, 65_535, 65_536]);
        let b = CompressedRow::from_sorted(&[2, 3, 100, 65_536, 200_000]);
        let u = a.union(&b);
        assert_eq!(
            u.iter().collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 100, 65_535, 65_536, 200_000]
        );
        let m = a.intersect(&b);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![2, 100, 65_536]);
        let mut ra = from_pairs(70_000, &[(0, 1), (2, 3)]);
        let rb = from_pairs(70_000, &[(0, 1), (4, 69_999)]);
        ra.or_assign(&rb);
        assert_eq!(ra.count_ones(), 3);
        ra.and_assign(&rb);
        assert_eq!(ra.iter().collect::<Vec<_>>(), vec![(0, 1), (4, 69_999)]);
    }

    #[test]
    fn compose_and_closure_match_sparse_kernel() {
        let pairs = [(0, 1), (1, 2), (2, 0), (5, 299)];
        let cp = from_pairs(300, &pairs);
        let mut sp = crate::SparseRel::new(300);
        for &(a, b) in &pairs {
            sp.set(a, b);
        }
        let cc = cp.closure_reflexive_transitive();
        let sc = sp.closure_reflexive_transitive();
        assert_eq!(cc.iter().collect::<Vec<_>>(), sc.iter().collect::<Vec<_>>());
        assert_eq!(
            cp.compose(&cp).iter().collect::<Vec<_>>(),
            sp.compose(&sp).iter().collect::<Vec<_>>()
        );
        let id = CompressedRel::identity(300);
        assert_eq!(cp.compose(&id), cp);
        assert_eq!(id.compose(&cp), cp);
    }

    #[test]
    fn governed_ops_trip_on_timing_and_memory_axes() {
        let m = from_pairs(64, &[(0, 1)]);
        let cancelled = {
            let tok = crate::budget::CancelToken::new();
            tok.cancel();
            Budget::unlimited().with_cancel(tok)
        };
        assert_eq!(
            m.compose_governed(&m, &cancelled),
            Err(BudgetExceeded::Cancelled)
        );
        assert_eq!(
            m.closure_governed(&cancelled),
            Err(BudgetExceeded::Cancelled)
        );
        // A zero-byte memory cap trips before the first row of output.
        let capped = Budget::unlimited().with_max_rel_entries(0);
        assert_eq!(m.closure_governed(&capped), Err(BudgetExceeded::RelMemory));
        assert!(m.closure_governed(&Budget::unlimited()).is_ok());
    }

    #[test]
    fn ring_closure_stays_within_byte_budget_sparse_exceeds() {
        // 64-state rings: every closure row is one 64-entry run. The
        // compressed closure costs 12 bytes per row; raw u32 adjacency
        // would cost 256.
        let n = 8192;
        let mut m = CompressedRel::new(n);
        for i in 0..n {
            m.set(i, (i & !63) + ((i + 1) & 63));
        }
        let closed = m.closure_reflexive_transitive();
        assert_eq!(closed.entry_count(), n * 64);
        assert_eq!(closed.byte_size(), n * (CONTAINER_OVERHEAD + 4));
        // A budget between the two byte estimates admits the compressed
        // closure and would reject a raw-entry one.
        let cap = 4 * closed.entry_count() / 2;
        assert!(closed.byte_size() < cap);
        let governed = m.closure_governed(&Budget::unlimited().with_max_rel_entries(cap));
        assert_eq!(governed, Ok(closed));
    }

    #[test]
    fn resize_preserves_pairs() {
        let m = from_pairs(3, &[(0, 2), (2, 1)]);
        let big = m.resized(200_000);
        assert_eq!(big.iter().collect::<Vec<_>>(), m.iter().collect::<Vec<_>>());
        assert_eq!(big.dim(), 200_000);
        assert_eq!(big.entry_count(), 2);
    }
}
