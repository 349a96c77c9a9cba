//! Dictionary-encoded, columnar execution core.
//!
//! The detection hot path groups tuples on attribute projections and counts
//! distinct projections per group. Doing that over row-oriented [`Tuple`]s
//! means hashing and cloning [`Value::Str`] payloads once per tuple *per
//! constraint* — the dominant cost on scaled workloads. This module provides
//! the compact representation every layer above shares instead:
//!
//! * [`Dictionary`] interns strings (and out-of-range integers) to dense
//!   `u32` symbols; its decode side is a [`SymbolTable`];
//! * [`Code`] packs any [`Value`] into one fixed-width 64-bit word;
//! * [`CodeVec`] is a small-vector projection key (inline up to four codes)
//!   used as the group key of the detection group machinery;
//! * [`CodeColumns`] holds per-attribute code columns (plus the row-id
//!   column) derived from a [`Relation`] — what a scan reads;
//! * [`ColumnarView`] is a `CodeColumns` plus the row indexes that keep it
//!   incrementally up to date under [`Delta`](crate::Delta)-style row
//!   insertion and removal;
//! * [`ChunkedVec`] is the persistent vector all of the shared state lives
//!   in, so that a [`FrozenView`] of it costs pointer bumps, not a copy.
//!
//! ## Value ↔ Code mapping
//!
//! A [`Code`] is a 64-bit word with a 3-bit tag in the low bits:
//!
//! | tag | value kind | payload (high 61 bits) |
//! |-----|------------|------------------------|
//! | `0` | [`Value::Null`] | unused (always zero) |
//! | `1` | [`Value::Bool`] | `0` / `1` |
//! | `2` | [`Value::Int`] in `[-2^60, 2^60)` | the integer, two's complement, sign-extended on decode |
//! | `3` | [`Value::Int`] outside that range | index into the dictionary's big-int table |
//! | `4` | [`Value::Str`] | index into the dictionary's string table |
//!
//! Encoding is *canonical* with respect to one dictionary: equal values
//! always map to equal codes and distinct values to distinct codes, so code
//! equality (a single `u64` compare) decides value equality. Code *order* is
//! **not** value order — symbols are numbered in interning order — so
//! anything that must be ordered deterministically across processes decodes
//! back to [`Value`]s first.
//!
//! ## Dictionary lifetime and ownership
//!
//! A dictionary only ever grows: interning never invalidates previously
//! issued codes, and re-encoding the same value always returns the same
//! code. Codes are meaningful only relative to the dictionary that issued
//! them — two dictionaries fed the same values in the same order issue the
//! same codes (interning is deterministic), but codes must never be compared
//! across dictionaries. A detector therefore keeps one dictionary, shared
//! with its clones (by the constraint patterns, every detection pass, and
//! the incremental maintenance state built on it), interning pattern
//! constants once at construction and data values as views are built. A
//! session compiles one detector per registered relation, so its backends,
//! seeds, repair engine and snapshots all read and issue one dictionary's
//! codes.
//!
//! ## Shared read side, live-only index
//!
//! Both maintained structures split the same way. What a *reader* touches —
//! the code columns and row ids ([`CodeColumns`]), and the symbol → value
//! tables ([`SymbolTable`]: all a reader ever does with a dictionary is
//! decode) — lives in [`ChunkedVec`]s: fixed-size chunks behind `Arc`s.
//! Cloning one bumps a pointer per chunk; a writer that then changes an
//! element copies only the chunk holding it (copy-on-write), so a chunk
//! shared with any [`FrozenView`] is never written. What only the *writer*
//! needs — `RowId → position` and row-codes → row ids in [`ColumnarView`],
//! value → symbol in [`Dictionary`] — lives in ordinary hash maps beside the
//! read side and never enters a frozen handle.
//!
//! ## When a `ColumnarView` is invalidated
//!
//! A view is the current encoding of a relation's rows plus its row indexes.
//! It stays valid as long as every mutation of the underlying relation is
//! mirrored through [`ColumnarView::insert`] / [`ColumnarView::remove`]
//! (which is how the incremental detector keeps its view current under
//! `Delta` application). Mutating the relation behind the view's back —
//! replacing tuples, updating values in place, or dropping/recreating the
//! table — invalidates it; rebuild with [`ColumnarView::index`]. Every such
//! mutation moves the relation's [`Relation::stamp`], which is how a holder
//! of an encoding tells whether it still describes the rows. Frozen handles
//! taken earlier are unaffected by any of this: they keep the chunks they
//! were frozen with.

use crate::relation::{Relation, RowId};
use crate::schema::AttrId;
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Index;
use std::sync::Arc;

const TAG_BITS: u32 = 3;
const TAG_MASK: u64 = (1 << TAG_BITS) - 1;
const TAG_NULL: u64 = 0;
const TAG_BOOL: u64 = 1;
const TAG_INT: u64 = 2;
const TAG_BIG_INT: u64 = 3;
const TAG_SYM: u64 = 4;

/// Smallest / largest integer that fits the inline 61-bit payload.
const INLINE_INT_MIN: i64 = -(1 << 60);
const INLINE_INT_MAX: i64 = (1 << 60) - 1;

/// A [`Value`] packed into one fixed-width 64-bit word. See the module docs
/// for the tag layout and the canonical-encoding invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Code(u64);

impl Code {
    /// The code of [`Value::Null`].
    pub const NULL: Code = Code(TAG_NULL);

    /// The raw packed word.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Whether this code encodes [`Value::Null`].
    pub fn is_null(self) -> bool {
        self.0 == TAG_NULL
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{:x}", self.0)
    }
}

/// Elements per chunk of a [`ChunkedVec`]: 1024 codes are 8 KB, so a
/// 100 000-row column is 98 chunk pointers and copying one chunk on write is
/// about a microsecond. A power of two, so locating an element is a shift
/// and a mask.
pub const CHUNK: usize = 1 << CHUNK_BITS;
const CHUNK_BITS: u32 = 10;
const CHUNK_MASK: usize = CHUNK - 1;

/// A persistent vector: fixed-size chunks behind [`Arc`]s, copy-on-write.
///
/// `clone` bumps one reference count per chunk and copies no element; the
/// clones then diverge independently — a mutation copies the one chunk it
/// writes if (and only if) another handle still shares it. This is what lets
/// the serving layer freeze an epoch of a maintained table in time
/// proportional to `len / CHUNK` and pay for the next delta in chunks
/// touched, not rows stored.
///
/// Every chunk but the last holds exactly [`CHUNK`] elements and the last
/// holds at least one, so element `i` is `chunks[i / CHUNK][i % CHUNK]`.
#[derive(Debug, Clone)]
pub struct ChunkedVec<T> {
    chunks: Vec<Arc<Vec<T>>>,
    len: usize,
    /// Chunks copied because a write found them shared (cumulative).
    copied: u64,
}

impl<T> Default for ChunkedVec<T> {
    fn default() -> Self {
        ChunkedVec {
            chunks: Vec::new(),
            len: 0,
            copied: 0,
        }
    }
}

impl<T: Clone> ChunkedVec<T> {
    /// An empty vector.
    pub fn new() -> Self {
        ChunkedVec::default()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector holds no element.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The element at `index`, if in bounds.
    pub fn get(&self, index: usize) -> Option<&T> {
        self.chunks
            .get(index >> CHUNK_BITS)?
            .get(index & CHUNK_MASK)
    }

    /// Iterates over the elements in order.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.chunks.iter().flat_map(|chunk| chunk.iter())
    }

    /// How many chunks writes through this handle (or the handles it was
    /// cloned from) had to copy because they were shared — the exact cost of
    /// copy-on-write, for the work counters of the layers above.
    pub fn chunks_copied(&self) -> u64 {
        self.copied
    }

    /// Appends an element.
    pub fn push(&mut self, value: T) {
        if self.len & CHUNK_MASK == 0 {
            self.chunks.push(Arc::new(Vec::with_capacity(CHUNK)));
        }
        self.chunk_mut(self.chunks.len() - 1).push(value);
        self.len += 1;
    }

    /// Removes and returns the element at `index`, moving the last element
    /// into its place (order is not preserved).
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of bounds.
    pub fn swap_remove(&mut self, index: usize) -> T {
        assert!(index < self.len, "swap_remove index {index} out of bounds");
        let tail = self.chunks.len() - 1;
        let last = self
            .chunk_mut(tail)
            .pop()
            .expect("a chunked vector keeps no empty chunk");
        if self.chunks[tail].is_empty() {
            self.chunks.pop();
        }
        self.len -= 1;
        if index == self.len {
            return last;
        }
        let slot = &mut self.chunk_mut(index >> CHUNK_BITS)[index & CHUNK_MASK];
        std::mem::replace(slot, last)
    }

    /// Appends a whole pre-filled chunk — how a bulk build avoids one
    /// uniqueness check per element. The vector must end on a chunk boundary
    /// and only the final chunk of a build may be short.
    fn push_chunk(&mut self, chunk: Vec<T>) {
        debug_assert!(self.len & CHUNK_MASK == 0 && (1..=CHUNK).contains(&chunk.len()));
        self.len += chunk.len();
        self.chunks.push(Arc::new(chunk));
    }

    /// Write access to chunk `k`, copying it first when another handle
    /// shares it.
    fn chunk_mut(&mut self, k: usize) -> &mut Vec<T> {
        let chunk = &mut self.chunks[k];
        if Arc::get_mut(chunk).is_none() {
            self.copied += 1;
        }
        Arc::make_mut(chunk)
    }
}

impl<T: Clone> Index<usize> for ChunkedVec<T> {
    type Output = T;

    fn index(&self, index: usize) -> &T {
        &self.chunks[index >> CHUNK_BITS][index & CHUNK_MASK]
    }
}

/// The decode side of a [`Dictionary`]: symbol → string and big-int tables.
///
/// This is all a *reader* of coded data ever needs, and it is what a
/// [`FrozenView`] carries. Both tables are [`ChunkedVec`]s, so cloning a
/// symbol table shares every chunk with the dictionary it came from; the
/// dictionary's later interning appends to (a private copy of) the tail
/// chunk and never disturbs the clone.
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    strings: ChunkedVec<Arc<str>>,
    big_ints: ChunkedVec<i64>,
}

impl SymbolTable {
    /// Number of interned strings.
    pub fn num_strings(&self) -> usize {
        self.strings.len()
    }

    /// Decodes a code back to the value it was issued for.
    ///
    /// # Panics
    ///
    /// Panics when the code was not issued by the dictionary this table
    /// belongs to, or was issued after the table was cloned from it (a
    /// symbol index out of range) — codes are only meaningful relative to
    /// their issuing dictionary.
    pub fn decode(&self, code: Code) -> Value {
        let payload = code.0 >> TAG_BITS;
        match code.0 & TAG_MASK {
            TAG_NULL => Value::Null,
            TAG_BOOL => Value::Bool(payload != 0),
            TAG_INT => {
                // Sign-extend the 61-bit payload.
                Value::Int(((payload << TAG_BITS) as i64) >> TAG_BITS)
            }
            TAG_BIG_INT => Value::Int(self.big_ints[payload as usize]),
            TAG_SYM => Value::Str(self.strings[payload as usize].to_string()),
            _ => unreachable!("invalid code tag"),
        }
    }

    /// Decodes a slice of codes to values.
    pub fn decode_all(&self, codes: &[Code]) -> Vec<Value> {
        codes.iter().map(|&c| self.decode(c)).collect()
    }
}

/// Interns strings and out-of-range integers to dense symbols, issuing
/// canonical [`Code`]s for every [`Value`]. Grows monotonically; never
/// invalidates issued codes.
///
/// The decode side is a [`SymbolTable`] that readers share by chunk
/// ([`Dictionary::symbols`]); the value → symbol maps are the encode side,
/// which only the writer consults.
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    symbols: SymbolTable,
    /// Shares each allocation with the symbol table (the dictionary is
    /// grow-only, so the footprint is one `Arc<str>` per distinct string,
    /// not two `String`s).
    by_string: HashMap<Arc<str>, u32>,
    by_big_int: HashMap<i64, u32>,
}

impl Dictionary {
    /// An empty dictionary.
    pub fn new() -> Self {
        Dictionary::default()
    }

    /// The decode side. Clone it to pin the dictionary's current state for a
    /// reader — a pointer bump per chunk.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Number of interned strings.
    pub fn num_strings(&self) -> usize {
        self.symbols.num_strings()
    }

    /// See [`ChunkedVec::chunks_copied`]: symbol-table chunks interning had
    /// to copy because a [`SymbolTable`] clone still shared them.
    pub fn chunks_copied(&self) -> u64 {
        self.symbols.strings.chunks_copied() + self.symbols.big_ints.chunks_copied()
    }

    /// Interns a string, returning its symbol.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&sym) = self.by_string.get(s) {
            return sym;
        }
        let sym = u32::try_from(self.symbols.strings.len())
            .expect("dictionary overflow (> 2^32 strings)");
        let shared: Arc<str> = s.into();
        self.symbols.strings.push(shared.clone());
        self.by_string.insert(shared, sym);
        sym
    }

    /// Encodes a value, interning strings (and out-of-range integers) as
    /// needed. Always succeeds; equal values get equal codes.
    pub fn encode(&mut self, value: &Value) -> Code {
        match value {
            Value::Null => Code::NULL,
            Value::Bool(b) => Code(TAG_BOOL | (u64::from(*b) << TAG_BITS)),
            Value::Int(i) if (INLINE_INT_MIN..=INLINE_INT_MAX).contains(i) => {
                Code(TAG_INT | ((*i as u64) << TAG_BITS))
            }
            Value::Int(i) => {
                let idx = match self.by_big_int.get(i) {
                    Some(&idx) => idx,
                    None => {
                        let idx = u32::try_from(self.symbols.big_ints.len())
                            .expect("dictionary overflow");
                        self.symbols.big_ints.push(*i);
                        self.by_big_int.insert(*i, idx);
                        idx
                    }
                };
                Code(TAG_BIG_INT | (u64::from(idx) << TAG_BITS))
            }
            Value::Str(s) => Code(TAG_SYM | (u64::from(self.intern(s)) << TAG_BITS)),
        }
    }

    /// Encodes a value without interning. Returns `None` when the value is a
    /// string (or out-of-range integer) the dictionary has never seen — in
    /// which case no encoded datum can equal it.
    pub fn try_encode(&self, value: &Value) -> Option<Code> {
        match value {
            Value::Null => Some(Code::NULL),
            Value::Bool(b) => Some(Code(TAG_BOOL | (u64::from(*b) << TAG_BITS))),
            Value::Int(i) if (INLINE_INT_MIN..=INLINE_INT_MAX).contains(i) => {
                Some(Code(TAG_INT | ((*i as u64) << TAG_BITS)))
            }
            Value::Int(i) => self
                .by_big_int
                .get(i)
                .map(|&idx| Code(TAG_BIG_INT | (u64::from(idx) << TAG_BITS))),
            Value::Str(s) => self
                .by_string
                .get(s.as_str())
                .map(|&sym| Code(TAG_SYM | (u64::from(sym) << TAG_BITS))),
        }
    }

    /// Encodes every value of a tuple (interning), in attribute order.
    pub fn encode_tuple(&mut self, tuple: &Tuple) -> Vec<Code> {
        tuple.values().iter().map(|v| self.encode(v)).collect()
    }

    /// Decodes a code back to the value it was issued for (see
    /// [`SymbolTable::decode`], including when it panics).
    pub fn decode(&self, code: Code) -> Value {
        self.symbols.decode(code)
    }

    /// Decodes a slice of codes to values.
    pub fn decode_all(&self, codes: &[Code]) -> Vec<Value> {
        self.symbols.decode_all(codes)
    }
}

/// Inline capacity of a [`CodeVec`]: projection keys of up to this many
/// attributes never touch the heap. The eCFD workloads key groups on one or
/// two attributes, so four covers everything the paper measures.
pub const INLINE_CODES: usize = 4;

/// A small-vector of [`Code`]s used as a projection key (`t[X]`, `t[Y]`).
///
/// Keys of at most [`INLINE_CODES`] codes are stored inline; longer keys
/// spill to the heap. Equality, ordering and hashing are over the code
/// slice, so inline and spilled keys with the same codes compare equal.
#[derive(Debug, Clone)]
pub enum CodeVec {
    /// At most [`INLINE_CODES`] codes stored in place.
    Inline {
        /// Number of live codes in `buf`.
        len: u8,
        /// The code buffer; only `buf[..len]` is meaningful.
        buf: [Code; INLINE_CODES],
    },
    /// More than [`INLINE_CODES`] codes, heap-allocated.
    Spilled(Vec<Code>),
}

impl CodeVec {
    /// An empty key.
    pub fn new() -> Self {
        CodeVec::Inline {
            len: 0,
            buf: [Code::NULL; INLINE_CODES],
        }
    }

    /// Builds a key from an exact-size iterator of codes.
    pub fn from_iter_exact(codes: impl ExactSizeIterator<Item = Code>) -> Self {
        if codes.len() <= INLINE_CODES {
            let mut buf = [Code::NULL; INLINE_CODES];
            let mut len = 0u8;
            for code in codes {
                buf[len as usize] = code;
                len += 1;
            }
            CodeVec::Inline { len, buf }
        } else {
            CodeVec::Spilled(codes.collect())
        }
    }

    /// The codes as a slice.
    pub fn as_slice(&self) -> &[Code] {
        match self {
            CodeVec::Inline { len, buf } => &buf[..*len as usize],
            CodeVec::Spilled(v) => v,
        }
    }

    /// Number of codes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the key has no codes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for CodeVec {
    fn default() -> Self {
        CodeVec::new()
    }
}

impl FromIterator<Code> for CodeVec {
    fn from_iter<I: IntoIterator<Item = Code>>(iter: I) -> Self {
        let codes: Vec<Code> = iter.into_iter().collect();
        CodeVec::from_iter_exact(codes.into_iter())
    }
}

impl PartialEq for CodeVec {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for CodeVec {}

impl PartialOrd for CodeVec {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for CodeVec {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl std::hash::Hash for CodeVec {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for code in self.as_slice() {
            state.write_u64(code.raw());
        }
        state.write_u8(0xff); // length terminator
    }
}

/// A fast, deterministic multiply-xor hasher for code-keyed maps (the
/// FxHash construction). Codes are already high-entropy words, so the
/// default SipHash's collision resistance buys nothing here while costing
/// most of the group-lookup budget.
#[derive(Debug, Default, Clone)]
pub struct FxHasher(u64);

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = (self.0.rotate_left(5) ^ i).wrapping_mul(FX_SEED);
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed by codes / code keys with the deterministic fast hasher.
pub type CodeMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// Deterministically hashes a constraint index plus a code key — used to
/// assign enforcement groups to shards so that every member of a group lands
/// on the same shard regardless of which worker scanned it.
pub fn shard_of(ci: usize, key: &CodeVec, num_shards: usize) -> usize {
    debug_assert!(num_shards > 0);
    let mut h = FxHasher::default();
    h.write_usize(ci);
    for code in key.as_slice() {
        h.write_u64(code.raw());
    }
    (h.finish() % num_shards as u64) as usize
}

/// Deterministically hashes one attribute *value* to a shard index — the
/// row router of the sharded serving layer. Unlike [`shard_of`] this hashes
/// the decoded value (type tag plus content), not a dictionary code, so the
/// assignment is stable across processes, restarts and dictionaries: the
/// same value always routes to the same shard, which is what recovery replay
/// and cross-shard group completeness both depend on. The tag bytes match
/// the WAL value encoding (0 = null, 1 = int, 2 = bool, 3 = str).
pub fn shard_of_value(value: &crate::value::Value, num_shards: usize) -> usize {
    use crate::value::Value;
    debug_assert!(num_shards > 0);
    let mut h = FxHasher::default();
    match value {
        Value::Null => h.write_u8(0),
        Value::Int(i) => {
            h.write_u8(1);
            h.write_u64(*i as u64);
        }
        Value::Bool(b) => {
            h.write_u8(2);
            h.write_u8(u8::from(*b));
        }
        Value::Str(s) => {
            h.write_u8(3);
            h.write(s.as_bytes());
        }
    }
    (h.finish() % num_shards as u64) as usize
}

/// Per-attribute code columns plus the row-id column: the read side of an
/// encoded relation — everything a scan, a decode or a snapshot touches.
///
/// Every column is a [`ChunkedVec`] of the same length, so all of them break
/// into chunks at the same rows; [`CodeColumns::blocks`] hands those out as
/// plain slices. `clone` shares every chunk (see [`ChunkedVec`]).
#[derive(Debug, Clone, Default)]
pub struct CodeColumns {
    columns: Vec<ChunkedVec<Code>>,
    row_ids: ChunkedVec<RowId>,
}

impl CodeColumns {
    /// Encodes every column of `relation` through `dict`.
    pub fn build(relation: &Relation, dict: &mut Dictionary) -> Self {
        Self::build_prefix(relation, relation.schema().arity(), dict)
    }

    /// Encodes the first `num_columns` attributes of `relation`, leaving out
    /// any trailing columns (such as the `SV` / `MV` flags a SQL detection
    /// pass adds). Values are interned in row-major order.
    pub fn build_prefix(relation: &Relation, num_columns: usize, dict: &mut Dictionary) -> Self {
        let mut out = CodeColumns {
            columns: vec![ChunkedVec::new(); num_columns],
            row_ids: ChunkedVec::new(),
        };
        // Fill one chunk per column at a time and hand the chunks over
        // whole.
        let mut rows = relation.iter().peekable();
        while rows.peek().is_some() {
            let mut ids = Vec::with_capacity(CHUNK);
            let mut codes: Vec<Vec<Code>> = (0..num_columns)
                .map(|_| Vec::with_capacity(CHUNK))
                .collect();
            for (row_id, tuple) in rows.by_ref().take(CHUNK) {
                ids.push(row_id);
                for (chunk, value) in codes.iter_mut().zip(tuple.values()) {
                    chunk.push(dict.encode(value));
                }
            }
            out.row_ids.push_chunk(ids);
            for (col, chunk) in out.columns.iter_mut().zip(codes) {
                col.push_chunk(chunk);
            }
        }
        out
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.row_ids.len()
    }

    /// Number of encoded columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// The row id stored at a position.
    pub fn row_id(&self, pos: usize) -> RowId {
        self.row_ids[pos]
    }

    /// All row ids, in storage order.
    pub fn row_ids(&self) -> impl Iterator<Item = RowId> + '_ {
        self.row_ids.iter().copied()
    }

    /// The code at (row position, attribute).
    pub fn code(&self, pos: usize, attr: AttrId) -> Code {
        self.columns[attr.index()][pos]
    }

    /// The projection key of a row over the given attributes (the coded
    /// `t[Z]`).
    pub fn key(&self, pos: usize, attrs: &[AttrId]) -> CodeVec {
        CodeVec::from_iter_exact(attrs.iter().map(|a| self.columns[a.index()][pos]))
    }

    /// The codes of one row across all columns, in attribute order.
    pub fn row_codes(&self, pos: usize) -> Vec<Code> {
        self.columns.iter().map(|col| col[pos]).collect()
    }

    /// Rows `lo..hi` as a sequence of [`Block`]s, one per chunk the range
    /// overlaps: a full scan resolves the chunk pointers once per
    /// [`CHUNK`] rows and indexes plain slices in between.
    pub fn blocks(&self, lo: usize, hi: usize) -> impl Iterator<Item = Block<'_>> + '_ {
        let hi = hi.min(self.num_rows());
        let chunks = if lo < hi {
            (lo >> CHUNK_BITS)..((hi - 1) >> CHUNK_BITS) + 1
        } else {
            0..0
        };
        chunks.map(move |k| {
            let base = k << CHUNK_BITS;
            let rows = lo.max(base) - base..hi.min(base + CHUNK) - base;
            Block {
                row_ids: &self.row_ids.chunks[k][rows.clone()],
                columns: self
                    .columns
                    .iter()
                    .map(|col| &col.chunks[k][rows.clone()])
                    .collect(),
            }
        })
    }

    fn push(&mut self, row: RowId, codes: &[Code]) {
        debug_assert_eq!(codes.len(), self.columns.len());
        self.row_ids.push(row);
        for (col, &code) in self.columns.iter_mut().zip(codes) {
            col.push(code);
        }
    }

    fn swap_remove(&mut self, pos: usize) {
        self.row_ids.swap_remove(pos);
        for col in &mut self.columns {
            col.swap_remove(pos);
        }
    }

    fn chunks_copied(&self) -> u64 {
        let columns: u64 = self.columns.iter().map(ChunkedVec::chunks_copied).sum();
        columns + self.row_ids.chunks_copied()
    }

    /// The victim-index hash of the row at `pos` (see [`row_hash`]).
    fn row_hash(&self, pos: usize) -> u64 {
        row_hash(self.columns.iter().map(|col| col[pos]))
    }
}

/// A run of consecutive rows of a [`CodeColumns`] that lie in one chunk: the
/// row ids and every column as plain slices, addressed by offset within the
/// block.
#[derive(Debug)]
pub struct Block<'a> {
    row_ids: &'a [RowId],
    columns: Vec<&'a [Code]>,
}

impl Block<'_> {
    /// Number of rows in the block.
    pub fn len(&self) -> usize {
        self.row_ids.len()
    }

    /// Whether the block holds no row (never true of a block
    /// [`CodeColumns::blocks`] yields).
    pub fn is_empty(&self) -> bool {
        self.row_ids.is_empty()
    }

    /// The row id at an offset.
    pub fn row_id(&self, off: usize) -> RowId {
        self.row_ids[off]
    }

    /// The code at (offset, attribute).
    pub fn code(&self, off: usize, attr: AttrId) -> Code {
        self.columns[attr.index()][off]
    }

    /// The projection key of the row at an offset over the given attributes.
    pub fn key(&self, off: usize, attrs: &[AttrId]) -> CodeVec {
        CodeVec::from_iter_exact(attrs.iter().map(|a| self.columns[a.index()][off]))
    }
}

/// Hashes a row's codes for the victim index of a [`ColumnarView`].
fn row_hash(codes: impl Iterator<Item = Code>) -> u64 {
    let mut h = FxHasher::default();
    for code in codes {
        h.write_u64(code.raw());
    }
    h.finish()
}

/// A maintained encoding of a relation: the [`CodeColumns`] readers share,
/// plus two indexes only the maintainer reads — where each row id sits, and
/// which rows carry a given tuple of codes (how a deletion victim is found
/// without scanning the table). See the module docs for the invalidation
/// rules; the indexes never enter a [`FrozenView`].
#[derive(Debug, Clone, Default)]
pub struct ColumnarView {
    columns: CodeColumns,
    positions: CodeMap<RowId, usize>,
    /// `(hash of a row's codes, row)`, ordered: the rows of one hash —
    /// duplicate tuples, and any collision — are a range. About 18 bytes per
    /// row; every hit is verified against the columns, so a collision costs
    /// one extra comparison and nothing else.
    by_codes: BTreeSet<(u64, RowId)>,
}

impl ColumnarView {
    /// Builds the row indexes over already-encoded columns.
    pub fn index(columns: CodeColumns) -> Self {
        let rows = 0..columns.num_rows();
        ColumnarView {
            positions: rows.clone().map(|pos| (columns.row_id(pos), pos)).collect(),
            by_codes: rows
                .map(|pos| (columns.row_hash(pos), columns.row_id(pos)))
                .collect(),
            columns,
        }
    }

    /// The read side: what scans and frozen handles see. Clone it to freeze
    /// the current rows (a pointer bump per chunk).
    pub fn columns(&self) -> &CodeColumns {
        &self.columns
    }

    /// Drops the row indexes and keeps the columns.
    pub fn into_columns(self) -> CodeColumns {
        self.columns
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.columns.num_rows()
    }

    /// The code at (row position, attribute).
    pub fn code(&self, pos: usize, attr: AttrId) -> Code {
        self.columns.code(pos, attr)
    }

    /// The projection key of a row over the given attributes (the coded
    /// `t[Z]`).
    pub fn key(&self, pos: usize, attrs: &[AttrId]) -> CodeVec {
        self.columns.key(pos, attrs)
    }

    /// The position of a row id, if the view still contains it.
    pub fn position(&self, row: RowId) -> Option<usize> {
        self.positions.get(&row).copied()
    }

    /// Column chunks that [`ColumnarView::insert`] / [`ColumnarView::remove`]
    /// had to copy because a frozen handle still shared them (cumulative).
    pub fn chunks_copied(&self) -> u64 {
        self.columns.chunks_copied()
    }

    /// Appends a row. `codes` must hold exactly one code per column, issued
    /// by the view's dictionary.
    pub fn insert(&mut self, row: RowId, codes: &[Code]) {
        self.positions.insert(row, self.columns.num_rows());
        self.by_codes.insert((row_hash(codes.iter().copied()), row));
        self.columns.push(row, codes);
    }

    /// Removes a row by id (swap-remove; positions of other rows are kept
    /// consistent, storage order is not preserved). Returns whether the row
    /// was present.
    pub fn remove(&mut self, row: RowId) -> bool {
        let Some(pos) = self.positions.remove(&row) else {
            return false;
        };
        self.by_codes.remove(&(self.columns.row_hash(pos), row));
        let last = self.columns.num_rows() - 1;
        self.columns.swap_remove(pos);
        if pos != last {
            self.positions.insert(self.columns.row_id(pos), pos);
        }
        true
    }

    /// The rows whose codes equal `codes` (one code per column), in row-id
    /// order — how a deletion victim finds every stored duplicate of itself.
    /// Answered from the victim index; also returns how many rows it had to
    /// compare against the columns to be sure (the matches, plus any hash
    /// collision).
    pub fn rows_matching(&self, codes: &[Code]) -> (Vec<RowId>, usize) {
        debug_assert_eq!(codes.len(), self.columns.num_columns());
        let hash = row_hash(codes.iter().copied());
        let mut examined = 0;
        let rows = self
            .by_codes
            .range((hash, RowId(0))..=(hash, RowId(u64::MAX)))
            .map(|(_, row)| *row)
            .filter(|row| {
                examined += 1;
                let pos = self.positions[row];
                let stored = self.columns.columns.iter().map(|col| col[pos]);
                stored.eq(codes.iter().copied())
            })
            .collect();
        (rows, examined)
    }
}

/// An immutable, cheaply cloneable `(columns, symbols)` pair: one consistent
/// point-in-time encoding of a relation.
///
/// Live [`CodeColumns`] are only meaningful next to the (growing)
/// [`Dictionary`] that issued their codes, and both mutate as deltas stream
/// in. A `FrozenView` pins the pair: clones of the two read sides taken at
/// the same instant — which share every chunk with the live structures — each
/// behind an [`Arc`], so that handing a copy to another thread is two
/// reference-count bumps. Nothing behind the handle can change (the writer
/// copies a shared chunk before writing it), so any number of threads may
/// scan, decode and re-detect against it without synchronisation — this is
/// the unit the serving layer publishes as an epoch snapshot. A chunk is
/// freed by whoever drops the last handle that holds it.
///
/// Because a dictionary only ever grows, codes inside the frozen columns
/// remain valid against *later* states of the source dictionary; the converse
/// does not hold (a code interned after the freeze is unknown to the frozen
/// symbol table), which is why the pair is kept together.
#[derive(Debug, Clone)]
pub struct FrozenView {
    view: Arc<CodeColumns>,
    dict: Arc<SymbolTable>,
}

impl FrozenView {
    /// Freezes columns together with the symbol-table state that decodes
    /// them — typically `view.columns().clone()` and
    /// `dict.symbols().clone()`, taken under whatever lock guards the pair.
    pub fn new(view: CodeColumns, dict: SymbolTable) -> Self {
        FrozenView {
            view: Arc::new(view),
            dict: Arc::new(dict),
        }
    }

    /// The frozen code columns.
    pub fn view(&self) -> &CodeColumns {
        &self.view
    }

    /// The symbol-table state that decodes the view's codes.
    pub fn dict(&self) -> &SymbolTable {
        &self.dict
    }

    /// Number of frozen rows.
    pub fn num_rows(&self) -> usize {
        self.view.num_rows()
    }

    /// Decodes the row stored at `pos` back to values, in attribute order.
    pub fn decode_row(&self, pos: usize) -> Vec<crate::value::Value> {
        self.dict.decode_all(&self.view.row_codes(pos))
    }

    /// Decodes every frozen row as `(RowId, values)` pairs, in storage order.
    pub fn decode_rows(&self) -> Vec<(RowId, Vec<crate::value::Value>)> {
        (0..self.view.num_rows())
            .map(|pos| (self.view.row_id(pos), self.decode_row(pos)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Schema};

    fn schema() -> Schema {
        Schema::builder("t")
            .attr("CT", DataType::Str)
            .attr("N", DataType::Int)
            .attr("OK", DataType::Bool)
            .build()
    }

    #[test]
    fn encoding_is_canonical_and_round_trips() {
        let mut dict = Dictionary::new();
        let values = [
            Value::Null,
            Value::bool(true),
            Value::bool(false),
            Value::int(0),
            Value::int(-1),
            Value::int(INLINE_INT_MAX),
            Value::int(INLINE_INT_MIN),
            Value::int(i64::MAX),
            Value::int(i64::MIN),
            Value::str(""),
            Value::str("@"),
            Value::str("Albany"),
            Value::str("Zürich"),
            Value::str("東京"),
        ];
        let codes: Vec<Code> = values.iter().map(|v| dict.encode(v)).collect();
        // Distinct values get distinct codes; equal values re-encode equal.
        for (i, v) in values.iter().enumerate() {
            assert_eq!(dict.encode(v), codes[i], "re-encoding {v:?} is stable");
            assert_eq!(dict.try_encode(v), Some(codes[i]));
            assert_eq!(dict.decode(codes[i]), *v, "decode round-trips {v:?}");
            for (j, other) in codes.iter().enumerate() {
                assert_eq!(i == j, codes[i] == *other, "codes {i} vs {j}");
            }
        }
    }

    #[test]
    fn try_encode_refuses_unseen_symbols() {
        let dict = Dictionary::new();
        assert_eq!(dict.try_encode(&Value::str("ghost")), None);
        assert_eq!(dict.try_encode(&Value::int(i64::MAX)), None);
        assert_eq!(dict.try_encode(&Value::int(7)), Some(Code(7 << 3 | 2)));
        assert_eq!(dict.try_encode(&Value::Null), Some(Code::NULL));
    }

    #[test]
    fn interning_is_deterministic_across_dictionaries() {
        let feed = ["a", "b", "a", "c", "", "@", "b"];
        let mut d1 = Dictionary::new();
        let mut d2 = Dictionary::new();
        let c1: Vec<Code> = feed.iter().map(|s| d1.encode(&Value::str(*s))).collect();
        let c2: Vec<Code> = feed.iter().map(|s| d2.encode(&Value::str(*s))).collect();
        assert_eq!(c1, c2);
    }

    #[test]
    fn code_vec_inline_and_spilled_compare_equal() {
        let codes: Vec<Code> = (0..6).map(|i| Code(TAG_INT | (i << TAG_BITS))).collect();
        let small = CodeVec::from_iter_exact(codes[..3].iter().copied());
        assert!(matches!(small, CodeVec::Inline { .. }));
        assert_eq!(small.len(), 3);
        let large = CodeVec::from_iter_exact(codes.iter().copied());
        assert!(matches!(large, CodeVec::Spilled(_)));
        assert_eq!(large.as_slice(), &codes[..]);

        let same: CodeVec = codes[..3].iter().copied().collect();
        assert_eq!(small, same);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher as _};
        let hash = |k: &CodeVec| {
            let mut h = DefaultHasher::new();
            k.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&small), hash(&same));
        assert!(CodeVec::new().is_empty());
    }

    #[test]
    fn shard_assignment_is_deterministic_and_in_range() {
        let key: CodeVec = [Code(42), Code(7)].into_iter().collect();
        for shards in [1usize, 2, 4, 7] {
            let s = shard_of(3, &key, shards);
            assert!(s < shards);
            assert_eq!(s, shard_of(3, &key, shards));
        }
    }

    #[test]
    fn frozen_view_is_isolated_from_later_mutation() {
        let mut rel = Relation::with_tuples(
            schema(),
            [
                Tuple::new(vec![Value::str("Albany"), Value::int(1), Value::bool(true)]),
                Tuple::new(vec![Value::str("NYC"), Value::int(2), Value::bool(false)]),
            ],
        )
        .unwrap();
        let mut dict = Dictionary::new();
        let mut view = ColumnarView::index(CodeColumns::build(&rel, &mut dict));
        let frozen = FrozenView::new(view.columns().clone(), dict.symbols().clone());
        let reader = frozen.clone(); // cheap Arc clone, shareable across threads

        // Mutate the live view and dictionary behind the frozen handle's
        // back: append into, and remove a row from, the one chunk the handle
        // shares with them.
        let t = Tuple::new(vec![Value::str("Troy"), Value::int(3), Value::bool(true)]);
        let codes = dict.encode_tuple(&t);
        let id = rel.insert(t).unwrap();
        view.insert(id, &codes);
        let first = rel.row_ids()[0];
        rel.delete(first).unwrap();
        assert!(view.remove(first));
        assert_eq!(view.num_rows(), 2);
        assert_eq!(
            view.columns().row_id(0),
            id,
            "the appended row was swapped into slot 0"
        );

        assert_eq!(reader.num_rows(), 2, "the freeze predates the insert");
        assert_eq!(reader.dict().num_strings(), 2, "`Troy` was interned later");
        let rows = reader.decode_rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0],
            (
                first,
                vec![Value::str("Albany"), Value::int(1), Value::bool(true)]
            ),
            "the removed row is still the frozen handle's first"
        );
        // A relation rebuilt from the frozen rows preserves the row ids.
        let copy = Relation::with_rows(
            schema(),
            rows.into_iter().map(|(id, vs)| (id, Tuple::new(vs))),
        )
        .unwrap();
        assert_eq!(copy.len(), 2);
        for (pos, row) in reader.view().row_ids().enumerate() {
            assert_eq!(
                copy.get(row).unwrap().values(),
                reader.decode_row(pos).as_slice()
            );
        }
    }

    /// Chunks of `new` that are not the very same allocation as the chunk at
    /// that index of `old`.
    fn unshared<T>(old: &ChunkedVec<T>, new: &ChunkedVec<T>) -> usize {
        let shared = |k: usize, chunk: &Arc<Vec<T>>| {
            old.chunks.get(k).is_some_and(|o| Arc::ptr_eq(o, chunk))
        };
        (new.chunks.iter().enumerate())
            .filter(|(k, chunk)| !shared(*k, chunk))
            .count()
    }

    #[test]
    fn a_tail_delta_copies_the_same_few_chunks_at_every_table_size() {
        // Freeze, mirror 8 removes + 8 inserts at the table's tail, freeze
        // again: what the two epochs do not share is a handful of chunks,
        // however many rows the table has.
        let copied_at = |n: usize| -> usize {
            let row = |i: usize| {
                let city = format!("city-{}", i % 50);
                Tuple::new(vec![
                    Value::str(city),
                    Value::int(i as i64),
                    Value::bool(i.is_multiple_of(2)),
                ])
            };
            let mut rel = Relation::with_tuples(schema(), (0..n).map(row)).unwrap();
            let mut dict = Dictionary::new();
            let mut view = ColumnarView::index(CodeColumns::build(&rel, &mut dict));
            let before = FrozenView::new(view.columns().clone(), dict.symbols().clone());
            let old_rows = before.decode_rows();
            assert_eq!(old_rows.len(), n);

            let ids = rel.row_ids();
            for id in &ids[n - 8..] {
                rel.delete(*id).unwrap();
                assert!(view.remove(*id));
            }
            for i in n..n + 8 {
                let mut t = row(i);
                t.set(AttrId(0), Value::str(format!("new-{i}"))).unwrap();
                let codes = dict.encode_tuple(&t);
                view.insert(rel.insert(t).unwrap(), &codes);
            }
            let after = FrozenView::new(view.columns().clone(), dict.symbols().clone());

            assert_eq!(before.decode_rows(), old_rows, "the first epoch is intact");
            let live: Vec<_> = (rel.iter().map(|(id, t)| (id, t.values().to_vec()))).collect();
            let mut served = after.decode_rows();
            served.sort_by_key(|(id, _)| *id);
            assert_eq!(served, live, "the second epoch is the table as it is now");

            let (old, new) = (before.view(), after.view());
            let columns: usize = (old.columns.iter().zip(&new.columns))
                .map(|(o, n)| unshared(o, n))
                .sum();
            let copied = columns
                + unshared(&old.row_ids, &new.row_ids)
                + unshared(&before.dict().strings, &after.dict().strings);
            assert_eq!(
                copied as u64,
                view.chunks_copied() + dict.chunks_copied(),
                "the counters report exactly the chunks that were copied"
            );
            copied
        };
        let small = copied_at(2_000);
        assert_eq!(small, 5, "3 columns + row ids + the symbol table's tail");
        assert_eq!(copied_at(20_000), small);
    }

    #[test]
    fn view_builds_and_maintains_rows() {
        let mut rel = Relation::with_tuples(
            schema(),
            [
                Tuple::new(vec![Value::str("Albany"), Value::int(1), Value::bool(true)]),
                Tuple::new(vec![Value::str("NYC"), Value::int(2), Value::bool(false)]),
            ],
        )
        .unwrap();
        let mut dict = Dictionary::new();
        let mut view = ColumnarView::index(CodeColumns::build(&rel, &mut dict));
        assert_eq!(view.num_rows(), 2);
        assert_eq!(view.columns().num_columns(), 3);
        let albany = dict.try_encode(&Value::str("Albany")).unwrap();
        assert_eq!(view.code(0, AttrId(0)), albany);

        // Mirror an insert.
        let t = Tuple::new(vec![Value::str("Troy"), Value::int(3), Value::bool(true)]);
        let codes = dict.encode_tuple(&t);
        let id = rel.insert(t).unwrap();
        view.insert(id, &codes);
        assert_eq!(view.num_rows(), 3);
        assert_eq!(view.position(id), Some(2));
        assert_eq!(
            view.key(2, &[AttrId(0), AttrId(1)]).as_slice(),
            &[codes[0], codes[1]]
        );

        // Mirror a delete (swap-remove keeps positions consistent).
        let first = rel.row_ids()[0];
        rel.delete(first).unwrap();
        assert!(view.remove(first));
        assert!(!view.remove(first));
        assert_eq!(view.num_rows(), 2);
        for (pos, row) in view.columns().row_ids().enumerate() {
            assert_eq!(view.position(row), Some(pos));
            let stored = rel.get(row).unwrap();
            for (c, value) in stored.values().iter().enumerate() {
                assert_eq!(dict.decode(view.code(pos, AttrId(c))), *value);
            }
        }

        // The victim index finds rows by their codes — every duplicate, in
        // row-id order, and nothing once they are gone.
        let troy = Tuple::new(vec![Value::str("Troy"), Value::int(3), Value::bool(true)]);
        let troy_codes = dict.encode_tuple(&troy);
        assert_eq!(view.rows_matching(&troy_codes), (vec![id], 1));
        let twin = rel.insert(troy.clone()).unwrap();
        view.insert(twin, &troy_codes);
        let triplet = rel.insert(troy).unwrap();
        view.insert(triplet, &troy_codes);
        assert_eq!(
            view.rows_matching(&troy_codes),
            (vec![id, twin, triplet], 3)
        );
        assert!(
            view.remove(id),
            "the indexed row goes; a duplicate moves up"
        );
        assert_eq!(view.rows_matching(&troy_codes), (vec![twin, triplet], 2));
        assert!(view.remove(triplet));
        assert!(view.remove(twin));
        assert_eq!(view.rows_matching(&troy_codes), (vec![], 0));
        assert_eq!(view.by_codes.len(), view.num_rows());
        let absent = [troy_codes[0], albany, troy_codes[2]];
        assert_eq!(view.rows_matching(&absent), (vec![], 0));
    }

    #[test]
    fn blocks_cover_a_row_range_chunk_by_chunk() {
        let n = 2 * CHUNK + 10;
        let rel = Relation::with_tuples(
            schema(),
            (0..n).map(|i| {
                Tuple::new(vec![
                    Value::str("x"),
                    Value::int(i as i64),
                    Value::bool(true),
                ])
            }),
        )
        .unwrap();
        let columns = CodeColumns::build(&rel, &mut Dictionary::new());
        for (lo, hi) in [
            (0, n),
            (5, CHUNK),
            (CHUNK - 1, CHUNK + 1),
            (CHUNK, n),
            (7, 7),
        ] {
            let mut pos = lo;
            for block in columns.blocks(lo, hi) {
                assert!(!block.is_empty() && block.len() <= CHUNK);
                for off in 0..block.len() {
                    assert_eq!(block.row_id(off), columns.row_id(pos));
                    assert_eq!(block.code(off, AttrId(1)), columns.code(pos, AttrId(1)));
                    assert_eq!(
                        block.key(off, &[AttrId(1), AttrId(0)]),
                        columns.key(pos, &[AttrId(1), AttrId(0)])
                    );
                    pos += 1;
                }
            }
            assert_eq!(pos, hi.max(lo), "blocks({lo}, {hi}) visits every row once");
        }
        assert_eq!(columns.blocks(0, n).count(), 3);
    }
}
