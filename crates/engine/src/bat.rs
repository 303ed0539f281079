//! Binary Association Tables — MonetDB's columnar storage unit.
//!
//! A BAT logically holds (head, tail) pairs. The head is a *virtual* dense
//! oid sequence `0..n`, so physically a BAT is just a typed vector of tail
//! values. Selections produce *candidate lists*: BATs of oids naming the
//! qualifying rows, kept sorted so downstream operators can exploit order.
//!
//! Storage is zero-copy: tail values live in immutable `Arc`-shared buffers
//! and a `Bat` is a `(buffer, offset, len)` *view*. `slice` (and therefore
//! mitosis range-partitioning) is an O(1) metadata operation; `concat` of
//! adjacent views over the same buffer (the `mat.pack` of a partitioned
//! pipeline) just widens the window. Mutation (`bat.append` with new data,
//! `gather`, kernels producing fresh columns) allocates a new buffer —
//! copy-on-write at buffer granularity.
//!
//! String tails are dictionary-encoded: a `u32` code per row plus a shared
//! dictionary of distinct `Arc<str>` values. Slicing shares both buffers;
//! projecting gathers 4-byte codes and shares the dictionary; packing parts
//! that share one dictionary concatenates codes. No per-row refcount is
//! touched on any of these paths. Codes are only meaningful within their
//! own dictionary: kernels may compare codes of two columns only when both
//! read the same dictionary allocation ([`StrView::same_dict`]), and compare
//! string values otherwise.

use std::collections::HashMap;
use std::fmt;
use std::ops::{Index, Range};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use stetho_mal::{MalType, Value};

use crate::error::EngineError;
use crate::Result;

/// When set, all zero-copy fast paths (view slices, widened-view concat,
/// dense-range projection) materialise fresh buffers instead — the engine's
/// pre-sharing behaviour. Used by property tests to check that views are
/// observationally identical to copies, and by benches to measure both sides.
static FORCE_COPY: AtomicBool = AtomicBool::new(false);

/// Globally enable or disable forced materialisation (process-wide).
pub fn set_force_copy(on: bool) {
    FORCE_COPY.store(on, Ordering::SeqCst);
}

/// True when zero-copy fast paths should materialise instead.
pub fn force_copy() -> bool {
    FORCE_COPY.load(Ordering::SeqCst)
}

/// Typed owned column values — the *builder* type handed to [`Bat::new`].
/// Once wrapped in a `Bat` the values are frozen behind an `Arc` buffer.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// Booleans.
    Bit(Vec<bool>),
    /// 64-bit integers (bte/sht/int/lng all collapse here).
    Int(Vec<i64>),
    /// Doubles.
    Dbl(Vec<f64>),
    /// Strings; dictionary-encoded when frozen into a `Bat`.
    Str(Vec<Arc<str>>),
    /// Oids — candidate lists and join results.
    Oid(Vec<u64>),
    /// Dates, days since epoch.
    Date(Vec<i32>),
}

impl ColumnData {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Bit(v) => v.len(),
            ColumnData::Int(v) => v.len(),
            ColumnData::Dbl(v) => v.len(),
            ColumnData::Str(v) => v.len(),
            ColumnData::Oid(v) => v.len(),
            ColumnData::Date(v) => v.len(),
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tail type.
    pub fn tail_type(&self) -> MalType {
        match self {
            ColumnData::Bit(_) => MalType::Bit,
            ColumnData::Int(_) => MalType::Int,
            ColumnData::Dbl(_) => MalType::Dbl,
            ColumnData::Str(_) => MalType::Str,
            ColumnData::Oid(_) => MalType::Oid,
            ColumnData::Date(_) => MalType::Date,
        }
    }

    /// Allocate an empty column of a scalar type.
    pub fn empty_of(ty: &MalType) -> Result<ColumnData> {
        Ok(match ty {
            MalType::Bit => ColumnData::Bit(Vec::new()),
            MalType::Int => ColumnData::Int(Vec::new()),
            MalType::Dbl => ColumnData::Dbl(Vec::new()),
            MalType::Str => ColumnData::Str(Vec::new()),
            MalType::Oid => ColumnData::Oid(Vec::new()),
            MalType::Date => ColumnData::Date(Vec::new()),
            other => {
                return Err(EngineError::Other(format!(
                    "cannot make a BAT with tail type {other}"
                )))
            }
        })
    }
}

/// The immutable shared backing store of one or more `Bat` views. Columns
/// are `Arc<Vec<T>>` rather than `Arc<[T]>`, so freezing a kernel's output
/// moves its `Vec` behind the `Arc` instead of copying it into a second
/// allocation.
#[derive(Debug, Clone)]
enum Buffer {
    Bit(Arc<Vec<bool>>),
    Int(Arc<Vec<i64>>),
    Dbl(Arc<Vec<f64>>),
    /// Dictionary-encoded strings: row `i` holds `dict[codes[i]]`, and every
    /// entry of `dict` is distinct. `dict_bytes` is the dictionary's
    /// footprint, summed once when it is built.
    Str {
        codes: Arc<Vec<u32>>,
        dict: Arc<[Arc<str>]>,
        dict_bytes: usize,
    },
    Oid(Arc<Vec<u64>>),
    Date(Arc<Vec<i32>>),
}

impl Buffer {
    fn tail_type(&self) -> MalType {
        match self {
            Buffer::Bit(_) => MalType::Bit,
            Buffer::Int(_) => MalType::Int,
            Buffer::Dbl(_) => MalType::Dbl,
            Buffer::Str { .. } => MalType::Str,
            Buffer::Oid(_) => MalType::Oid,
            Buffer::Date(_) => MalType::Date,
        }
    }

    /// Same allocation? (Views over equal-but-distinct buffers are not
    /// "the same" for widening purposes.)
    fn same_alloc(&self, other: &Buffer) -> bool {
        match (self, other) {
            (Buffer::Bit(a), Buffer::Bit(b)) => Arc::ptr_eq(a, b),
            (Buffer::Int(a), Buffer::Int(b)) => Arc::ptr_eq(a, b),
            (Buffer::Dbl(a), Buffer::Dbl(b)) => Arc::ptr_eq(a, b),
            (Buffer::Str { codes: a, .. }, Buffer::Str { codes: b, .. }) => Arc::ptr_eq(a, b),
            (Buffer::Oid(a), Buffer::Oid(b)) => Arc::ptr_eq(a, b),
            (Buffer::Date(a), Buffer::Date(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl From<ColumnData> for Buffer {
    fn from(d: ColumnData) -> Buffer {
        match d {
            ColumnData::Bit(v) => Buffer::Bit(freeze(v)),
            ColumnData::Int(v) => Buffer::Int(freeze(v)),
            ColumnData::Dbl(v) => Buffer::Dbl(freeze(v)),
            ColumnData::Str(v) => encode(&v, Arc::clone),
            ColumnData::Oid(v) => Buffer::Oid(freeze(v)),
            ColumnData::Date(v) => Buffer::Date(freeze(v)),
        }
    }
}

/// Freeze a column: the `Vec` moves behind the `Arc`. Spare capacity (a
/// kernel that reserved for every candidate, a builder that grew by
/// doubling) is given back first, which shrinks in place rather than
/// copying, so the buffer holds what `bytes` reports.
fn freeze<T>(mut v: Vec<T>) -> Arc<Vec<T>> {
    v.shrink_to_fit();
    Arc::new(v)
}

/// Bytes charged per dictionary entry beyond its text (the `Arc` header and
/// the fat pointer to it).
const STR_OVERHEAD: usize = 24;

/// Dictionary-encode strings: one `u32` code per value and one `Arc<str>`
/// per *distinct* value, made by `intern` from its first occurrence. The
/// map hashes borrowed `&str`s with std's hasher (a weak hasher collides on
/// keys like `Customer#000000001…`).
fn encode<S: AsRef<str>>(values: &[S], intern: impl Fn(&S) -> Arc<str>) -> Buffer {
    let mut ids: HashMap<&str, u32> = HashMap::with_capacity(values.len().min(1 << 12));
    let mut dict = Vec::new();
    let codes: Vec<u32> = values
        .iter()
        .map(|v| {
            *ids.entry(v.as_ref()).or_insert_with(|| {
                dict.push(intern(v));
                u32::try_from(dict.len() - 1).expect("fewer than 2^32 distinct strings")
            })
        })
        .collect();
    Buffer::Str {
        codes: freeze(codes),
        dict_bytes: dict.iter().map(|s| s.len() + STR_OVERHEAD).sum(),
        dict: dict.into(),
    }
}

/// Borrowed window of a dictionary-encoded string column: `codes` index
/// `dict`. Indexing yields the row's `Arc<str>`; equality compares values,
/// never codes.
#[derive(Clone, Copy)]
pub struct StrView<'a> {
    codes: &'a [u32],
    dict: &'a [Arc<str>],
}

impl<'a> StrView<'a> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The value at row `i`, if in range.
    pub fn get(&self, i: usize) -> Option<&'a Arc<str>> {
        self.codes.get(i).map(|&c| &self.dict[c as usize])
    }

    /// The string at row `i`, borrowed for the view's lifetime. Panics when
    /// out of range, like indexing.
    pub fn at(&self, i: usize) -> &'a str {
        &self.dict[self.codes[i] as usize]
    }

    /// Row values in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &'a Arc<str>> + 'a {
        let dict = self.dict;
        self.codes.iter().map(move |&c| &dict[c as usize])
    }

    /// Per-row dictionary codes.
    pub fn codes(&self) -> &'a [u32] {
        self.codes
    }

    /// The dictionary: distinct values, indexed by code. It may hold values
    /// no row of this window uses.
    pub fn dict(&self) -> &'a [Arc<str>] {
        self.dict
    }

    /// True when both views read one dictionary allocation — the only case
    /// in which their codes may be compared with each other.
    pub fn same_dict(&self, other: &StrView<'_>) -> bool {
        std::ptr::eq(self.dict, other.dict)
    }
}

impl Index<usize> for StrView<'_> {
    type Output = Arc<str>;

    fn index(&self, i: usize) -> &Arc<str> {
        &self.dict[self.codes[i] as usize]
    }
}

impl PartialEq for StrView<'_> {
    fn eq(&self, other: &Self) -> bool {
        if self.same_dict(other) {
            self.codes == other.codes
        } else {
            self.len() == other.len() && self.iter().eq(other.iter())
        }
    }
}

impl fmt::Debug for StrView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Borrowed, already-windowed view of a BAT's tail values — what kernels
/// match on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ColumnView<'a> {
    /// Booleans.
    Bit(&'a [bool]),
    /// 64-bit integers.
    Int(&'a [i64]),
    /// Doubles.
    Dbl(&'a [f64]),
    /// Dictionary-encoded strings.
    Str(StrView<'a>),
    /// Oids.
    Oid(&'a [u64]),
    /// Dates, days since epoch.
    Date(&'a [i32]),
}

impl ColumnView<'_> {
    /// Number of rows in the view.
    pub fn len(&self) -> usize {
        match self {
            ColumnView::Bit(v) => v.len(),
            ColumnView::Int(v) => v.len(),
            ColumnView::Dbl(v) => v.len(),
            ColumnView::Str(v) => v.len(),
            ColumnView::Oid(v) => v.len(),
            ColumnView::Date(v) => v.len(),
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tail type.
    pub fn tail_type(&self) -> MalType {
        match self {
            ColumnView::Bit(_) => MalType::Bit,
            ColumnView::Int(_) => MalType::Int,
            ColumnView::Dbl(_) => MalType::Dbl,
            ColumnView::Str(_) => MalType::Str,
            ColumnView::Oid(_) => MalType::Oid,
            ColumnView::Date(_) => MalType::Date,
        }
    }
}

/// A BAT: an `(Arc` buffer`, offset, len)` view plus light metadata.
/// Cloning a `Bat` clones the `Arc`, never the data.
#[derive(Debug, Clone)]
pub struct Bat {
    /// Shared backing buffer.
    buf: Buffer,
    /// Window start within the buffer.
    off: usize,
    /// Window length.
    len: usize,
    /// True when tail values are known to be non-decreasing (candidate
    /// lists maintain this).
    pub sorted: bool,
    /// True when the tail is oid and the window holds consecutive values
    /// `first, first+1, …` — the dense-candidate fast path.
    dense: bool,
}

/// Equality is logical: same tail type and same windowed values. Two views
/// over different buffers (or at different offsets) compare equal when their
/// contents do; `sorted`/`dense` metadata is ignored.
impl PartialEq for Bat {
    fn eq(&self, other: &Self) -> bool {
        self.view() == other.view()
    }
}

macro_rules! window {
    ($v:expr, $self:expr) => {
        &$v[$self.off..$self.off + $self.len]
    };
}

impl Bat {
    /// Freeze column data into a fresh full-width view (sortedness unknown
    /// → false).
    pub fn new(data: ColumnData) -> Self {
        let len = data.len();
        Bat {
            buf: data.into(),
            off: 0,
            len,
            sorted: false,
            dense: false,
        }
    }

    /// Freeze column data known to be sorted.
    pub fn new_sorted(data: ColumnData) -> Self {
        let len = data.len();
        Bat {
            buf: data.into(),
            off: 0,
            len,
            sorted: true,
            dense: false,
        }
    }

    /// Int column shorthand.
    pub fn ints(v: Vec<i64>) -> Self {
        Bat::new(ColumnData::Int(v))
    }

    /// Dbl column shorthand.
    pub fn dbls(v: Vec<f64>) -> Self {
        Bat::new(ColumnData::Dbl(v))
    }

    /// Str column shorthand; one `Arc<str>` per distinct value.
    pub fn strs(v: Vec<String>) -> Self {
        Bat::strs_ref(&v)
    }

    /// Str column from borrowed strings; one `Arc<str>` per distinct value.
    pub fn strs_ref<S: AsRef<str>>(v: &[S]) -> Self {
        Bat {
            buf: encode(v, |s| Arc::from(s.as_ref())),
            off: 0,
            len: v.len(),
            sorted: false,
            dense: false,
        }
    }

    /// Date column shorthand.
    pub fn dates(v: Vec<i32>) -> Self {
        Bat::new(ColumnData::Date(v))
    }

    /// Sorted oid candidate list `0..n`.
    pub fn dense_oids(n: usize) -> Self {
        let mut b = Bat::new_sorted(ColumnData::Oid((0..n as u64).collect()));
        b.dense = true;
        b
    }

    /// Oid list shorthand (detects sortedness and density in one pass).
    pub fn oids(v: Vec<u64>) -> Self {
        let sorted = v.windows(2).all(|w| w[0] <= w[1]);
        let dense = sorted && v.windows(2).all(|w| w[1] == w[0] + 1);
        let len = v.len();
        Bat {
            buf: Buffer::Oid(freeze(v)),
            off: 0,
            len,
            sorted,
            dense,
        }
    }

    /// Row count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tail type.
    pub fn tail_type(&self) -> MalType {
        self.buf.tail_type()
    }

    /// The BAT's MAL type (`bat[:tail]`).
    pub fn mal_type(&self) -> MalType {
        MalType::bat(self.tail_type())
    }

    /// Borrowed view of the tail values, window already applied. This is
    /// the accessor kernels match on.
    pub fn view(&self) -> ColumnView<'_> {
        match &self.buf {
            Buffer::Bit(v) => ColumnView::Bit(window!(v, self)),
            Buffer::Int(v) => ColumnView::Int(window!(v, self)),
            Buffer::Dbl(v) => ColumnView::Dbl(window!(v, self)),
            Buffer::Str { codes, dict, .. } => ColumnView::Str(StrView {
                codes: window!(codes, self),
                dict,
            }),
            Buffer::Oid(v) => ColumnView::Oid(window!(v, self)),
            Buffer::Date(v) => ColumnView::Date(window!(v, self)),
        }
    }

    /// Value at row `i`. Allocates for string tails — rendering path only;
    /// hot paths use [`Bat::str_at`] / [`Bat::view`].
    pub fn get(&self, i: usize) -> Option<Value> {
        if i >= self.len {
            return None;
        }
        Some(match self.view() {
            ColumnView::Bit(v) => Value::Bit(v[i]),
            ColumnView::Int(v) => Value::Int(v[i]),
            ColumnView::Dbl(v) => Value::Dbl(v[i]),
            ColumnView::Str(v) => Value::Str(v[i].to_string()),
            ColumnView::Oid(v) => Value::Oid(v[i]),
            ColumnView::Date(v) => Value::Date(v[i]),
        })
    }

    /// Borrowed string at row `i` (no clone); `None` when out of range or
    /// not a string tail.
    pub fn str_at(&self, i: usize) -> Option<&str> {
        match self.view() {
            ColumnView::Str(v) => v.get(i).map(|s| &**s),
            _ => None,
        }
    }

    /// Oid slice view; errors if the tail is not oid.
    pub fn as_oids(&self) -> Result<&[u64]> {
        match self.view() {
            ColumnView::Oid(v) => Ok(v),
            other => Err(EngineError::TypeMismatch {
                op: "as_oids".into(),
                expected: "bat[:oid]".into(),
                got: other.tail_type().to_string(),
            }),
        }
    }

    /// Int slice view.
    pub fn as_ints(&self) -> Result<&[i64]> {
        match self.view() {
            ColumnView::Int(v) => Ok(v),
            other => Err(EngineError::TypeMismatch {
                op: "as_ints".into(),
                expected: "bat[:int]".into(),
                got: other.tail_type().to_string(),
            }),
        }
    }

    /// Dbl slice view.
    pub fn as_dbls(&self) -> Result<&[f64]> {
        match self.view() {
            ColumnView::Dbl(v) => Ok(v),
            other => Err(EngineError::TypeMismatch {
                op: "as_dbls".into(),
                expected: "bat[:dbl]".into(),
                got: other.tail_type().to_string(),
            }),
        }
    }

    /// Bit slice view.
    pub fn as_bits(&self) -> Result<&[bool]> {
        match self.view() {
            ColumnView::Bit(v) => Ok(v),
            other => Err(EngineError::TypeMismatch {
                op: "as_bits".into(),
                expected: "bat[:bit]".into(),
                got: other.tail_type().to_string(),
            }),
        }
    }

    /// Date slice view.
    pub fn as_dates(&self) -> Result<&[i32]> {
        match self.view() {
            ColumnView::Date(v) => Ok(v),
            other => Err(EngineError::TypeMismatch {
                op: "as_dates".into(),
                expected: "bat[:date]".into(),
                got: other.tail_type().to_string(),
            }),
        }
    }

    /// Dictionary-encoded string view.
    pub fn as_strs(&self) -> Result<StrView<'_>> {
        match self.view() {
            ColumnView::Str(v) => Ok(v),
            other => Err(EngineError::TypeMismatch {
                op: "as_strs".into(),
                expected: "bat[:str]".into(),
                got: other.tail_type().to_string(),
            }),
        }
    }

    /// The dense oid range `first..first+len` when this BAT is a dense
    /// candidate list, enabling O(1) projection/selection fast paths.
    pub fn as_dense_range(&self) -> Option<Range<u64>> {
        if !self.dense {
            return None;
        }
        match self.view() {
            ColumnView::Oid(v) => {
                let first = v.first().copied().unwrap_or(0);
                Some(first..first + v.len() as u64)
            }
            _ => None,
        }
    }

    /// True when `self` and `other` are views over the same allocation —
    /// the witness that an operation was zero-copy.
    pub fn shares_buffer(&self, other: &Bat) -> bool {
        self.buf.same_alloc(&other.buf)
    }

    /// Approximate heap footprint of the *window* in bytes; feeds the trace
    /// `rss` field. Shared buffers are counted once per view on purpose —
    /// the estimate tracks reachable, not unique, bytes. A string window is
    /// its 4-byte codes plus the dictionary it can reach: all of it when the
    /// window has at least as many rows as the dictionary has entries, else
    /// a share of `len` average entries. So a small slice or gather of a
    /// large-dictionary column costs O(1) and counts about its own rows.
    pub fn bytes(&self) -> usize {
        if let Buffer::Str {
            dict, dict_bytes, ..
        } = &self.buf
        {
            let reached = match dict.len() {
                0 => 0,
                d if self.len >= d => *dict_bytes,
                d => dict_bytes / d * self.len,
            };
            return self.len * 4 + reached;
        }
        match self.view() {
            ColumnView::Bit(v) => v.len(),
            ColumnView::Int(v) => v.len() * 8,
            ColumnView::Dbl(v) => v.len() * 8,
            ColumnView::Oid(v) => v.len() * 8,
            ColumnView::Date(v) => v.len() * 4,
            ColumnView::Str(_) => unreachable!("string windows counted above"),
        }
    }

    /// Copy the window out into owned column data (the CoW slow path).
    pub fn to_column_data(&self) -> ColumnData {
        match self.view() {
            ColumnView::Bit(v) => ColumnData::Bit(v.to_vec()),
            ColumnView::Int(v) => ColumnData::Int(v.to_vec()),
            ColumnView::Dbl(v) => ColumnData::Dbl(v.to_vec()),
            ColumnView::Str(v) => ColumnData::Str(v.iter().cloned().collect()),
            ColumnView::Oid(v) => ColumnData::Oid(v.to_vec()),
            ColumnView::Date(v) => ColumnData::Date(v.to_vec()),
        }
    }

    /// Fetch tail values at the given positions (the projection kernel).
    /// Strings gather their codes and share the dictionary.
    pub fn gather(&self, positions: &[u64]) -> Result<Bat> {
        let n = self.len;
        let check = |o: u64| -> Result<usize> {
            let i = o as usize;
            if i >= n {
                Err(EngineError::OidOutOfRange { oid: o, len: n })
            } else {
                Ok(i)
            }
        };
        macro_rules! pick {
            ($v:expr, $ctor:path, $take:expr) => {{
                let mut out = Vec::with_capacity(positions.len());
                for &o in positions {
                    #[allow(clippy::redundant_closure_call)]
                    out.push($take(&$v[check(o)?]));
                }
                $ctor(out)
            }};
        }
        let data = match self.view() {
            ColumnView::Bit(v) => pick!(v, ColumnData::Bit, |x: &bool| *x),
            ColumnView::Int(v) => pick!(v, ColumnData::Int, |x: &i64| *x),
            ColumnView::Dbl(v) => pick!(v, ColumnData::Dbl, |x: &f64| *x),
            ColumnView::Str(v) => {
                // Sized up front: collecting a `Result` iterator has no
                // size hint and would grow the vector by doubling.
                let mut codes = Vec::with_capacity(positions.len());
                for &o in positions {
                    codes.push(v.codes[check(o)?]);
                }
                return Ok(self.with_codes(codes));
            }
            ColumnView::Oid(v) => pick!(v, ColumnData::Oid, |x: &u64| *x),
            ColumnView::Date(v) => pick!(v, ColumnData::Date, |x: &i32| *x),
        };
        Ok(Bat::new(data))
    }

    /// Concatenate `other` after `self` (both must share tail type).
    /// Adjacent views over one buffer widen in O(1); otherwise one fresh
    /// buffer is allocated in a single pass.
    pub fn concat(&self, other: &Bat) -> Result<Bat> {
        Bat::pack(&[self.clone(), other.clone()])
    }

    /// Multi-way concatenation — the `mat.pack` kernel. Checks tail types,
    /// then: (a) if every part is a view over the same buffer and the
    /// windows are adjacent in order, returns a widened view without
    /// touching data (the mitosis reassembly fast path); (b) otherwise
    /// copies all parts into one fresh buffer in a single pass. String
    /// parts that share one dictionary concatenate their codes; parts
    /// over different dictionaries are re-encoded into a fresh one.
    pub fn pack(parts: &[Bat]) -> Result<Bat> {
        let Some(first) = parts.first() else {
            return Err(EngineError::Other("mat.pack of zero parts".into()));
        };
        for p in &parts[1..] {
            if std::mem::discriminant(&p.buf) != std::mem::discriminant(&first.buf) {
                return Err(EngineError::TypeMismatch {
                    op: "bat.append".into(),
                    expected: first.tail_type().to_string(),
                    got: p.tail_type().to_string(),
                });
            }
        }
        if parts.len() == 1 {
            let mut out = first.clone();
            out.sorted = false;
            return Ok(out);
        }

        if !force_copy() {
            // Zero-copy widening: all parts adjacent views of one buffer.
            let adjacent = parts
                .windows(2)
                .all(|w| w[0].buf.same_alloc(&w[1].buf) && w[0].off + w[0].len == w[1].off);
            if adjacent {
                return Ok(Bat {
                    buf: first.buf.clone(),
                    off: first.off,
                    len: parts.iter().map(|p| p.len).sum(),
                    sorted: false,
                    dense: parts.iter().all(|p| p.dense),
                });
            }
        }

        let total: usize = parts.iter().map(|p| p.len).sum();
        if let ColumnView::Str(head) = first.view() {
            let strs = parts.iter().map(|p| match p.view() {
                ColumnView::Str(v) => v,
                _ => unreachable!("tail types checked above"),
            });
            if strs.clone().all(|v| v.same_dict(&head)) {
                let mut codes = Vec::with_capacity(total);
                for v in strs {
                    codes.extend_from_slice(v.codes);
                }
                return Ok(first.with_codes(codes));
            }
            return Ok(Bat::new(ColumnData::Str(
                strs.flat_map(|v| v.iter().cloned()).collect(),
            )));
        }
        macro_rules! splice {
            ($ctor:path, $variant:path) => {{
                let mut out = Vec::with_capacity(total);
                for p in parts {
                    match p.view() {
                        $variant(v) => out.extend_from_slice(v),
                        _ => unreachable!("tail types checked above"),
                    }
                }
                $ctor(out)
            }};
        }
        let data = match first.view() {
            ColumnView::Bit(_) => splice!(ColumnData::Bit, ColumnView::Bit),
            ColumnView::Int(_) => splice!(ColumnData::Int, ColumnView::Int),
            ColumnView::Dbl(_) => splice!(ColumnData::Dbl, ColumnView::Dbl),
            ColumnView::Str(_) => unreachable!("string parts packed above"),
            ColumnView::Oid(_) => splice!(ColumnData::Oid, ColumnView::Oid),
            ColumnView::Date(_) => splice!(ColumnData::Date, ColumnView::Date),
        };
        Ok(Bat::new(data))
    }

    /// Positional slice `[lo, hi)` clamped to the BAT length — an O(1)
    /// metadata operation: the result is a narrower view of the same
    /// buffer. Sortedness and density survive slicing.
    pub fn slice(&self, lo: usize, hi: usize) -> Bat {
        let hi = hi.min(self.len);
        let lo = lo.min(hi);
        if force_copy() {
            let mut out = Bat::new(self.slice_view(lo, hi).to_column_data());
            out.sorted = self.sorted;
            out.dense = self.dense;
            return out;
        }
        self.slice_view(lo, hi)
    }

    /// A fresh full-width string BAT of `codes` over this BAT's dictionary.
    fn with_codes(&self, codes: Vec<u32>) -> Bat {
        let Buffer::Str {
            dict, dict_bytes, ..
        } = &self.buf
        else {
            unreachable!("with_codes on a string BAT only")
        };
        Bat {
            len: codes.len(),
            buf: Buffer::Str {
                codes: freeze(codes),
                dict: Arc::clone(dict),
                dict_bytes: *dict_bytes,
            },
            off: 0,
            sorted: false,
            dense: false,
        }
    }

    fn slice_view(&self, lo: usize, hi: usize) -> Bat {
        Bat {
            buf: self.buf.clone(),
            off: self.off + lo,
            len: hi - lo,
            sorted: self.sorted,
            dense: self.dense,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_oids_are_sorted() {
        let b = Bat::dense_oids(5);
        assert_eq!(b.len(), 5);
        assert!(b.sorted);
        assert_eq!(b.as_oids().unwrap(), &[0, 1, 2, 3, 4]);
        assert_eq!(b.tail_type(), MalType::Oid);
        assert_eq!(b.mal_type(), MalType::bat(MalType::Oid));
        assert_eq!(b.as_dense_range(), Some(0..5));
    }

    #[test]
    fn oids_detects_sortedness_and_density() {
        assert!(Bat::oids(vec![1, 3, 3, 7]).sorted);
        assert!(!Bat::oids(vec![3, 1]).sorted);
        assert_eq!(Bat::oids(vec![1, 3, 3, 7]).as_dense_range(), None);
        assert_eq!(Bat::oids(vec![4, 5, 6]).as_dense_range(), Some(4..7));
    }

    #[test]
    fn get_returns_typed_values() {
        let b = Bat::ints(vec![10, 20]);
        assert_eq!(b.get(0), Some(Value::Int(10)));
        assert_eq!(b.get(2), None);
        let s = Bat::strs(vec!["a".into()]);
        assert_eq!(s.get(0), Some(Value::Str("a".into())));
        assert_eq!(s.str_at(0), Some("a"));
        assert_eq!(s.str_at(1), None);
        assert_eq!(b.str_at(0), None);
    }

    #[test]
    fn gather_projects_positions() {
        let col = Bat::ints(vec![10, 20, 30, 40]);
        let out = col.gather(&[3, 1]).unwrap();
        assert_eq!(out.as_ints().unwrap(), &[40, 20]);
    }

    #[test]
    fn string_gather_rejects_an_out_of_range_oid() {
        let col = Bat::strs(vec!["aa".into(), "bb".into()]);
        assert!(matches!(
            col.gather(&[1, 2, 0]),
            Err(EngineError::OidOutOfRange { oid: 2, len: 2 })
        ));
        let window = col.slice(1, 2);
        assert!(matches!(
            window.gather(&[0, 1]),
            Err(EngineError::OidOutOfRange { oid: 1, len: 1 })
        ));
    }

    #[test]
    fn gather_shares_string_storage() {
        let col = Bat::strs(vec!["aa".into(), "bb".into()]);
        let out = col.gather(&[1, 0, 1]).unwrap();
        let src = col.as_strs().unwrap();
        let dst = out.as_strs().unwrap();
        assert!(dst.same_dict(&src));
        assert!(Arc::ptr_eq(&dst[0], &src[1]));
        assert!(Arc::ptr_eq(&dst[1], &src[0]));
        assert_eq!(dst.codes(), &[1, 0, 1]);
    }

    #[test]
    fn strings_encode_one_dict_entry_per_distinct_value() {
        let col = Bat::strs_ref(&["N", "R", "N", "A", "R"]);
        let v = col.as_strs().unwrap();
        assert_eq!(v.codes(), &[0, 1, 0, 2, 1]);
        assert_eq!(v.dict().len(), 3);
        assert_eq!(&*v[3], "A");
        assert_eq!(v.at(4), "R");
        assert_eq!(v.get(5), None);
        // Interned inputs keep their allocation as the dictionary entry.
        let a: Arc<str> = Arc::from("x");
        let shared = Bat::new(ColumnData::Str(vec![Arc::clone(&a), Arc::clone(&a)]));
        assert!(Arc::ptr_eq(&shared.as_strs().unwrap()[1], &a));
        assert_eq!(shared.as_strs().unwrap().dict().len(), 1);
    }

    #[test]
    fn pack_of_strings_shares_or_reencodes_the_dict() {
        let col = Bat::strs_ref(&["a", "b", "c", "a"]);
        let parts = [col.gather(&[3, 1]).unwrap(), col.gather(&[2]).unwrap()];
        let packed = Bat::pack(&parts).unwrap();
        assert!(packed.as_strs().unwrap().same_dict(&col.as_strs().unwrap()));
        assert_eq!(packed, Bat::strs_ref(&["a", "b", "c"]));

        // Different dictionaries, overlapping values in a different order.
        let other = Bat::strs_ref(&["c", "z", "a"]);
        let packed = Bat::pack(&[col.clone(), other]).unwrap();
        let v = packed.as_strs().unwrap();
        assert!(!v.same_dict(&col.as_strs().unwrap()));
        assert_eq!(v.dict().len(), 4, "re-encoding keeps values distinct");
        assert_eq!(packed, Bat::strs_ref(&["a", "b", "c", "a", "c", "z", "a"]));
    }

    #[test]
    fn string_equality_compares_values_not_codes() {
        let x = Bat::strs_ref(&["p", "q", "p"]);
        let y = Bat::strs_ref(&["q", "p"]);
        // Same values, different codes.
        assert_eq!(x.slice(1, 3), y);
        assert_ne!(x.slice(0, 2), y);
        assert_ne!(x, y);
        // Same codes, different values.
        let z = Bat::strs_ref(&["q", "p", "q"]);
        assert_eq!(x.as_strs().unwrap().codes(), z.as_strs().unwrap().codes());
        assert_ne!(x, z);
    }

    #[test]
    fn gather_checks_bounds() {
        let col = Bat::ints(vec![1]);
        assert!(matches!(
            col.gather(&[5]),
            Err(EngineError::OidOutOfRange { oid: 5, len: 1 })
        ));
    }

    #[test]
    fn concat_same_type() {
        let a = Bat::ints(vec![1, 2]);
        let b = Bat::ints(vec![3]);
        assert_eq!(a.concat(&b).unwrap().as_ints().unwrap(), &[1, 2, 3]);
    }

    #[test]
    fn concat_type_mismatch() {
        let a = Bat::ints(vec![1]);
        let b = Bat::dbls(vec![1.0]);
        assert!(a.concat(&b).is_err());
    }

    #[test]
    fn slice_clamps() {
        let b = Bat::ints(vec![1, 2, 3, 4]);
        assert_eq!(b.slice(1, 3).as_ints().unwrap(), &[2, 3]);
        assert_eq!(b.slice(3, 99).as_ints().unwrap(), &[4]);
        assert_eq!(b.slice(9, 99).len(), 0);
    }

    #[test]
    fn slice_is_a_view() {
        let b = Bat::ints((0..100).collect());
        let s = b.slice(10, 20);
        assert!(s.shares_buffer(&b));
        assert_eq!(s.as_ints().unwrap(), &(10..20).collect::<Vec<i64>>()[..]);
        // Slicing a slice composes offsets.
        let s2 = s.slice(2, 5);
        assert!(s2.shares_buffer(&b));
        assert_eq!(s2.as_ints().unwrap(), &[12, 13, 14]);
    }

    #[test]
    fn slice_preserves_density() {
        let b = Bat::dense_oids(100);
        let s = b.slice(40, 60);
        assert_eq!(s.as_dense_range(), Some(40..60));
        assert!(s.sorted);
    }

    #[test]
    fn pack_of_adjacent_slices_widens() {
        let b = Bat::ints((0..12).collect());
        let parts = vec![b.slice(0, 4), b.slice(4, 8), b.slice(8, 12)];
        let packed = Bat::pack(&parts).unwrap();
        assert!(packed.shares_buffer(&b));
        assert_eq!(packed.as_ints().unwrap(), b.as_ints().unwrap());
    }

    #[test]
    fn pack_of_scattered_parts_copies() {
        let a = Bat::ints(vec![1, 2]);
        let b = Bat::ints(vec![3]);
        let packed = Bat::pack(&[b.clone(), a.clone()]).unwrap();
        assert!(!packed.shares_buffer(&a));
        assert_eq!(packed.as_ints().unwrap(), &[3, 1, 2]);
    }

    #[test]
    fn force_copy_materialises_slices() {
        let b = Bat::ints((0..10).collect());
        set_force_copy(true);
        let s = b.slice(2, 6);
        set_force_copy(false);
        assert!(!s.shares_buffer(&b));
        assert_eq!(s.as_ints().unwrap(), &[2, 3, 4, 5]);
        // Observationally identical to the view it replaces.
        assert_eq!(s, b.slice(2, 6));
    }

    #[test]
    fn logical_equality_ignores_representation() {
        let big = Bat::ints(vec![9, 1, 2, 3, 9]);
        let view = big.slice(1, 4);
        let owned = Bat::ints(vec![1, 2, 3]);
        assert_eq!(view, owned);
        assert_ne!(view, Bat::ints(vec![1, 2, 4]));
        assert_ne!(view, Bat::oids(vec![1, 2, 3]));
    }

    #[test]
    fn bytes_estimates() {
        assert_eq!(Bat::ints(vec![1, 2]).bytes(), 16);
        assert_eq!(Bat::dates(vec![1]).bytes(), 4);
        // Codes plus the dictionary, counted once however often a value repeats.
        let s = Bat::strs_ref(&["abc", "abc", "abc"]);
        assert_eq!(s.bytes(), 3 * 4 + (3 + 24));
        assert_eq!(s.slice(0, 1).bytes(), 4 + (3 + 24));
        // The window, not the buffer, is what's counted.
        assert_eq!(Bat::ints(vec![1, 2, 3, 4]).slice(0, 2).bytes(), 16);
    }

    #[test]
    fn small_windows_of_a_large_dictionary_count_their_rows() {
        // 5000 distinct 5-byte values: a window counts one 4-byte code and
        // one entry per row, whatever the dictionary's size.
        let col = Bat::strs((0..5000).map(|i| format!("v{i:04}")).collect());
        let per_row = 4 + 5 + STR_OVERHEAD;
        let gathered = col.gather(&[4999, 7, 7, 2500]).unwrap();
        assert!(gathered
            .as_strs()
            .unwrap()
            .same_dict(&col.as_strs().unwrap()));
        assert_eq!(gathered.bytes(), 4 * per_row);
        assert_eq!(col.slice(100, 120).bytes(), 20 * per_row);
        assert_eq!(col.slice(0, 0).bytes(), 0);
        assert_eq!(col.bytes(), 5000 * per_row);
        // Eight partitions together count the column once.
        let parts: usize = (0..8)
            .map(|k| col.slice(k * 625, (k + 1) * 625).bytes())
            .sum();
        assert_eq!(parts, col.bytes());
    }

    #[test]
    fn typed_views_reject_wrong_type() {
        let b = Bat::ints(vec![1]);
        assert!(b.as_oids().is_err());
        assert!(b.as_dbls().is_err());
        assert!(b.as_bits().is_err());
        assert!(b.as_dates().is_err());
        assert!(b.as_strs().is_err());
        assert!(b.as_ints().is_ok());
    }

    #[test]
    fn empty_of_scalar_types() {
        for t in [
            MalType::Bit,
            MalType::Int,
            MalType::Dbl,
            MalType::Str,
            MalType::Oid,
            MalType::Date,
        ] {
            let c = ColumnData::empty_of(&t).unwrap();
            assert_eq!(c.tail_type(), t);
            assert!(c.is_empty());
        }
        assert!(ColumnData::empty_of(&MalType::bat(MalType::Int)).is_err());
    }
}
