//! Record-once / replay-many operand traces.
//!
//! The paper's evaluation sweeps table geometry and policy over a *fixed*
//! dynamic operand stream — Shade recorded each benchmark once and every
//! MEMO-TABLE configuration was evaluated against the same trace (§3.1).
//! Our harness originally re-executed every kernel natively per sweep
//! point; the structures here restore the paper's record-once model:
//!
//! * [`OpTrace`] — the arithmetic operand stream (the traffic MEMO-TABLEs
//!   see), dictionary-coded per [`OpKind`]: each kind keeps its distinct
//!   operand bit patterns once and `u16` index columns into them (`u32`
//!   once a kind has more than 65,536 distinct values). Each kind is its
//!   own recording: the interleaving of kinds in the native run is not
//!   kept. No per-event allocation.
//! * [`TraceRecorderSink`] — an [`EventSink`] that captures the `Arith`
//!   events of a kernel run into an `OpTrace` and discards the rest.
//! * [`EventTrace`] — the *full* event stream (loads, branches, ALU ops,
//!   arithmetic) in the same SoA style, for replaying a whole instruction
//!   stream into cycle sinks. The experiments' cycle studies run their
//!   kernels natively instead of keeping one: a full stream is several
//!   times the size of its operand stream.
//!
//! Replay is exact: the dictionaries hold raw bit patterns
//! ([`Op::operand_bits`]) and every operation is reconstructed
//! bit-identically, so a replayed probe stream drives a [`MemoBank`]
//! through precisely the operand values and order of the native run, per
//! kind — hit ratios and statistics are bit-identical (asserted by the
//! equivalence tests in `memo-workloads` and `memo-experiments`).

use std::hash::BuildHasher;

use memo_table::{KeyHashBuilder, Memoizer, Op, OpBatch, OpKind, MAX_BATCH_WIDTH};

use crate::bank::MemoBank;
use crate::event::{Event, EventSink};

/// Distinct values a kind's dictionary holds before its index columns
/// widen from `u16` to `u32`.
const NARROW_LIMIT: usize = 1 << 16;

/// A position in a kind's dictionary, as stored in an index column.
trait DictIndex: Copy {
    fn get(self) -> usize;
}

impl DictIndex for u16 {
    #[inline]
    fn get(self) -> usize {
        usize::from(self)
    }
}

impl DictIndex for u32 {
    #[inline]
    fn get(self) -> usize {
        self as usize
    }
}

/// One kind's `a` and `b` index columns (`b` stays empty for
/// [`OpKind::FpSqrt`]). Both widen together.
#[derive(Debug, Clone)]
enum Indices {
    /// The dictionary holds at most [`NARROW_LIMIT`] values.
    Narrow { a: Vec<u16>, b: Vec<u16> },
    /// The dictionary holds more.
    Wide { a: Vec<u32>, b: Vec<u32> },
}

impl Default for Indices {
    fn default() -> Self {
        Indices::Narrow { a: Vec::new(), b: Vec::new() }
    }
}

impl Indices {
    fn len(&self) -> usize {
        match self {
            Indices::Narrow { a, .. } => a.len(),
            Indices::Wide { a, .. } => a.len(),
        }
    }

    fn bytes(&self) -> usize {
        match self {
            Indices::Narrow { a, b } => (a.len() + b.len()) * 2,
            Indices::Wide { a, b } => (a.len() + b.len()) * 4,
        }
    }

    /// Re-store narrow columns as `u32`.
    fn widen(&mut self) {
        if let Indices::Narrow { a, b } = self {
            let wide = |col: &[u16]| col.iter().map(|&i| u32::from(i)).collect();
            *self = Indices::Wide { a: wide(a), b: wide(b) };
        }
    }

    /// `true` when every index points into a dictionary of `len` values.
    fn all_below(&self, len: usize) -> bool {
        fn below<I: DictIndex>(col: &[I], len: usize) -> bool {
            col.iter().all(|&i| i.get() < len)
        }
        match self {
            Indices::Narrow { a, b } => below(a, len) && below(b, len),
            Indices::Wide { a, b } => below(a, len) && below(b, len),
        }
    }
}

/// Recording-time map from an operand bit pattern to its dictionary
/// index: open-addressed with linear probing, at most half the slots in
/// use. A slot holds index + 1 (0 marks it empty) and keys are compared
/// through the dictionary, so a slot costs 4 bytes. A sealed trace drops
/// the map; a later [`OpTrace::push`] rebuilds it from the dictionary.
#[derive(Debug, Clone, Default)]
struct ValueMap {
    slots: Vec<u32>,
}

/// Slots allocated the first time a kind's map is used.
const INITIAL_SLOTS: usize = 64;

impl ValueMap {
    /// The dictionary index of `value`, appended to `dict` if new.
    #[inline]
    fn intern(&mut self, dict: &mut Vec<u64>, value: u64) -> u32 {
        if (dict.len() + 1) * 2 > self.slots.len() {
            self.rebuild(dict);
        }
        let mask = self.slots.len() - 1;
        let mut slot = home(value, mask);
        loop {
            match self.slots[slot] {
                0 => {
                    let index = u32::try_from(dict.len()).expect("dictionary fits u32 indices");
                    dict.push(value);
                    self.slots[slot] = index + 1;
                    return index;
                }
                stored if dict[(stored - 1) as usize] == value => return stored - 1,
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Re-place every dictionary entry in a table with room for one more.
    fn rebuild(&mut self, dict: &[u64]) {
        let slots = ((dict.len() + 1) * 2).next_power_of_two().max(INITIAL_SLOTS);
        self.slots = vec![0; slots];
        for (index, &value) in dict.iter().enumerate() {
            let mut slot = home(value, slots - 1);
            while self.slots[slot] != 0 {
                slot = (slot + 1) & (slots - 1);
            }
            self.slots[slot] = index as u32 + 1;
        }
    }
}

#[inline]
fn home(value: u64, mask: usize) -> usize {
    KeyHashBuilder::default().hash_one(value) as usize & mask
}

/// The operands of one kind: its distinct bit patterns in first-seen
/// order, shared by both operands, and the index columns into them.
#[derive(Debug, Clone, Default)]
struct KindColumn {
    dict: Vec<u64>,
    idx: Indices,
    map: ValueMap,
}

impl KindColumn {
    fn len(&self) -> usize {
        self.idx.len()
    }

    fn push(&mut self, binary: bool, a: u64, b: u64) {
        let ia = self.map.intern(&mut self.dict, a);
        let ib = if binary { self.map.intern(&mut self.dict, b) } else { 0 };
        if self.dict.len() > NARROW_LIMIT {
            self.idx.widen();
        }
        match &mut self.idx {
            // Narrow columns only exist while every index fits 16 bits.
            Indices::Narrow { a, b } => {
                a.push(ia as u16);
                if binary {
                    b.push(ib as u16);
                }
            }
            Indices::Wide { a, b } => {
                a.push(ia);
                if binary {
                    b.push(ib);
                }
            }
        }
    }

    /// Drop the recording map and spare capacity.
    fn seal(&mut self) {
        self.map = ValueMap::default();
        self.dict.shrink_to_fit();
        match &mut self.idx {
            Indices::Narrow { a, b } => {
                a.shrink_to_fit();
                b.shrink_to_fit();
            }
            Indices::Wide { a, b } => {
                a.shrink_to_fit();
                b.shrink_to_fit();
            }
        }
    }

    fn approx_bytes(&self) -> usize {
        self.dict.len() * 8 + self.idx.bytes()
    }

    /// Decode this kind's operations as tiles of `width` lanes (only the
    /// last may be shorter).
    fn tiles(&self, kind: OpKind, width: usize, f: impl FnMut(&OpBatch<'_>)) {
        match &self.idx {
            Indices::Narrow { a, b } => decode_tiles(kind, &self.dict, a, b, width, f),
            Indices::Wide { a, b } => decode_tiles(kind, &self.dict, a, b, width, f),
        }
    }
}

/// Cut index columns into tiles of `width` (≤ [`MAX_BATCH_WIDTH`]) lanes,
/// look each lane up in `dict` into stack lane buffers, and hand every
/// tile to `f`. An empty `b` marks a unary kind.
#[inline]
fn decode_tiles<I: DictIndex>(
    kind: OpKind,
    dict: &[u64],
    a: &[I],
    b: &[I],
    width: usize,
    mut f: impl FnMut(&OpBatch<'_>),
) {
    let mut ta = [0u64; MAX_BATCH_WIDTH];
    let mut tb = [0u64; MAX_BATCH_WIDTH];
    let mut start = 0;
    while start < a.len() {
        let w = width.min(a.len() - start);
        gather(dict, &a[start..start + w], &mut ta[..w]);
        let lanes_b: &[u64] = if b.is_empty() {
            &[]
        } else {
            gather(dict, &b[start..start + w], &mut tb[..w]);
            &tb[..w]
        };
        f(&OpBatch::new(kind, &ta[..w], lanes_b));
        start += w;
    }
}

#[inline]
fn gather<I: DictIndex>(dict: &[u64], idx: &[I], out: &mut [u64]) {
    for (bits, &i) in out.iter_mut().zip(idx) {
        *bits = dict[i.get()];
    }
}

/// A compact, dictionary-coded trace of the arithmetic operand stream.
///
/// Layout: per [`OpKind`], a dictionary of the kind's distinct operand
/// bit patterns (first-seen order, shared by both operands) and `a`/`b`
/// index columns into it — `u16` while the dictionary holds at most
/// 65,536 values, `u32` past that (square root has no `b` column). A
/// binary operation therefore costs 4 bytes of indices (8 once widened)
/// plus its share of the dictionary.
///
/// The four kinds are four independent recordings: each kind's
/// operations in recorded order, and nothing of how the native run
/// interleaved them. That is every consumer's whole input, because every
/// consumer keeps one independent table or model per kind, as the paper
/// keeps one MEMO-TABLE beside each unit. Every visitor walks kind by
/// kind in [`OpKind::ALL`] order, each kind in recorded order; the
/// primitive is [`for_each_kind_batch`](Self::for_each_kind_batch).
#[derive(Debug, Clone, Default)]
pub struct OpTrace {
    kinds: [KindColumn; 4],
}

impl OpTrace {
    /// An empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one operation to its kind's recording.
    pub fn push(&mut self, op: Op) {
        let kind = op.kind();
        let (a, b) = op.operand_bits();
        self.kinds[kind as usize].push(kind != OpKind::FpSqrt, a, b);
    }

    /// Drop the recording-time value maps and every column's spare
    /// capacity.
    fn seal(&mut self) {
        for column in &mut self.kinds {
            column.seal();
        }
    }

    /// Number of recorded operations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.kinds.iter().map(KindColumn::len).sum()
    }

    /// `true` when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of recorded operations of `kind`.
    #[must_use]
    pub fn count(&self, kind: OpKind) -> usize {
        self.kinds[kind as usize].len()
    }

    /// Approximate heap footprint in bytes: dictionaries and index columns
    /// (not the value maps that exist while recording).
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.kinds.iter().map(KindColumn::approx_bytes).sum()
    }

    /// Replay every operation into `bank`: each table sees exactly its
    /// kind's operations in the order [`MemoBank::execute`] saw them in
    /// the native run.
    ///
    /// Operations flow through the batched path ([`MemoBank::execute_batch`])
    /// in [`MAX_BATCH_WIDTH`]-lane tiles — bit-identical statistics to
    /// [`replay_scalar`](Self::replay_scalar), faster on the paper-default
    /// tables.
    pub fn replay(&self, bank: &mut MemoBank) {
        self.replay_batched(bank, MAX_BATCH_WIDTH);
    }

    /// Batched replay at an explicit tile width: every warp of
    /// [`for_each_warp`](Self::for_each_warp) goes to
    /// [`MemoBank::execute_batch`].
    pub fn replay_batched(&self, bank: &mut MemoBank, width: usize) {
        self.for_each_warp(width, |warp| {
            bank.execute_batch(warp);
        });
    }

    /// Visit the trace as *warps*: same-kind operand tiles of `width`
    /// lanes (clamped to `1..=`[`MAX_BATCH_WIDTH`]), the
    /// [`for_each_kind_batch`](Self::for_each_kind_batch) tiles of each
    /// kind in [`OpKind::ALL`] order. Only a kind's last tile may be
    /// shorter.
    pub fn for_each_warp(&self, width: usize, mut f: impl FnMut(&OpBatch<'_>)) {
        for kind in OpKind::ALL {
            self.for_each_kind_batch(kind, width, &mut f);
        }
    }

    /// Scalar per-op replay — the oracle the batched path is property-tested
    /// against, and the baseline the `trace_replay` bench measures it over:
    /// one [`Op`] at a time through [`MemoBank::execute`], kind by kind.
    pub fn replay_scalar(&self, bank: &mut MemoBank) {
        for kind in OpKind::ALL {
            self.for_each_kind(kind, |op| {
                bank.execute(op);
            });
        }
    }

    /// Replay only the operations of `kind` into a single memoizer — the
    /// per-unit sweep used by the size/associativity figures. Batched, like
    /// [`replay`](Self::replay).
    pub fn replay_kind<M: Memoizer>(&self, kind: OpKind, table: &mut M) {
        self.for_each_kind_batch(kind, MAX_BATCH_WIDTH, |tile| {
            table.execute_batch(tile);
        });
    }

    /// Visit the operations of `kind` in recorded order, one [`Op`] at a
    /// time.
    pub fn for_each_kind(&self, kind: OpKind, mut f: impl FnMut(Op)) {
        self.for_each_kind_batch(kind, MAX_BATCH_WIDTH, |tile| {
            decode_run(kind, tile.a(), tile.b(), &mut f);
        });
    }

    /// Visit the operations of `kind` in recorded order as operand tiles
    /// of exactly `width` lanes (clamped to `1..=`[`MAX_BATCH_WIDTH`];
    /// only the final tile may be shorter), decoded from the kind's own
    /// columns. Other kinds' columns are not touched.
    pub fn for_each_kind_batch(&self, kind: OpKind, width: usize, f: impl FnMut(&OpBatch<'_>)) {
        self.kinds[kind as usize].tiles(kind, width.clamp(1, MAX_BATCH_WIDTH), f);
    }
}

/// Why [`OpTrace::from_bytes`] rejected a buffer. Callers treat any
/// variant as "not a usable trace" and fall back to native recording.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceDecodeError {
    /// The magic bytes do not mark an `OpTrace`.
    WrongMagic,
    /// The version tag is not the one this build encodes — the format
    /// changed, so the trace must be re-recorded, not reinterpreted.
    WrongVersion {
        /// The version found in the header.
        found: u16,
    },
    /// The buffer is shorter than its own headers claim.
    Truncated,
    /// The decoded structure is internally inconsistent: a dictionary
    /// holds more values than its kind's operations have operands, an
    /// index points past its dictionary, or bytes trail the data.
    Inconsistent,
}

impl std::fmt::Display for TraceDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceDecodeError::WrongMagic => write!(f, "not an OpTrace blob"),
            TraceDecodeError::WrongVersion { found } => {
                write!(f, "OpTrace format v{found} (this build reads v{OP_TRACE_VERSION})")
            }
            TraceDecodeError::Truncated => write!(f, "OpTrace blob truncated"),
            TraceDecodeError::Inconsistent => write!(f, "OpTrace blob internally inconsistent"),
        }
    }
}

impl std::error::Error for TraceDecodeError {}

/// Serialization format version written by [`OpTrace::to_bytes`]. Bump on
/// any layout change so stale persisted traces invalidate cleanly.
pub const OP_TRACE_VERSION: u16 = 3;

const OP_TRACE_MAGIC: &[u8; 4] = b"MTRV";

/// A bounds-checked little-endian reader over a serialized trace.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], TraceDecodeError> {
        if self.0.len() < n {
            return Err(TraceDecodeError::Truncated);
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    /// `count` items of `size` bytes each.
    fn items(&mut self, count: usize, size: usize) -> Result<&'a [u8], TraceDecodeError> {
        self.take(count.checked_mul(size).ok_or(TraceDecodeError::Truncated)?)
    }

    fn u32(&mut self) -> Result<u32, TraceDecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }
}

impl OpTrace {
    /// Serialize to a self-describing little-endian byte buffer: magic
    /// and version tag, then per kind in [`OpKind::ALL`] order its
    /// operation count and dictionary length (`u32` each), the dictionary
    /// (`u64` each), and the `a` and (binary kinds only) `b` index
    /// columns — 2 bytes an index when the dictionary holds at most
    /// 65,536 values, else 4.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        fn put_u32(out: &mut Vec<u8>, n: usize) {
            out.extend_from_slice(&u32::try_from(n).expect("count fits u32").to_le_bytes());
        }
        let mut out = Vec::with_capacity(6 + 32 + self.approx_bytes());
        out.extend_from_slice(OP_TRACE_MAGIC);
        out.extend_from_slice(&OP_TRACE_VERSION.to_le_bytes());
        for column in &self.kinds {
            put_u32(&mut out, column.len());
            put_u32(&mut out, column.dict.len());
            for value in &column.dict {
                out.extend_from_slice(&value.to_le_bytes());
            }
            match &column.idx {
                Indices::Narrow { a, b } => {
                    debug_assert!(column.dict.len() <= NARROW_LIMIT);
                    for i in a.iter().chain(b) {
                        out.extend_from_slice(&i.to_le_bytes());
                    }
                }
                Indices::Wide { a, b } => {
                    debug_assert!(column.dict.len() > NARROW_LIMIT);
                    for i in a.iter().chain(b) {
                        out.extend_from_slice(&i.to_le_bytes());
                    }
                }
            }
        }
        out
    }

    /// Deserialize a buffer produced by [`to_bytes`](Self::to_bytes),
    /// validating the version tag and the structural invariants: no
    /// dictionary holds more values than its kind's operands, every index
    /// points into its dictionary, and no bytes trail the data.
    ///
    /// # Errors
    ///
    /// [`TraceDecodeError`] on any mismatch — treat as "record natively".
    pub fn from_bytes(bytes: &[u8]) -> Result<OpTrace, TraceDecodeError> {
        let mut r = Reader(bytes);
        if r.take(4)? != OP_TRACE_MAGIC {
            return Err(TraceDecodeError::WrongMagic);
        }
        let version = u16::from_le_bytes(r.take(2)?.try_into().expect("2 bytes"));
        if version != OP_TRACE_VERSION {
            return Err(TraceDecodeError::WrongVersion { found: version });
        }
        let mut kinds: [KindColumn; 4] = Default::default();
        for (kind, column) in OpKind::ALL.into_iter().zip(&mut kinds) {
            let binary = kind != OpKind::FpSqrt;
            let operands = if binary { 2 } else { 1 };
            let count = r.u32()? as usize;
            // A recording interns only the values it pushes.
            let dict_len = r.u32()? as usize;
            if dict_len > count * operands {
                return Err(TraceDecodeError::Inconsistent);
            }
            column.dict = r
                .items(dict_len, 8)?
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
                .collect();
            let b_count = if binary { count } else { 0 };
            column.idx = if dict_len > NARROW_LIMIT {
                let mut col = |n| -> Result<Vec<u32>, TraceDecodeError> {
                    Ok(r.items(n, 4)?
                        .chunks_exact(4)
                        .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
                        .collect())
                };
                Indices::Wide { a: col(count)?, b: col(b_count)? }
            } else {
                let mut col = |n| -> Result<Vec<u16>, TraceDecodeError> {
                    Ok(r.items(n, 2)?
                        .chunks_exact(2)
                        .map(|c| u16::from_le_bytes(c.try_into().expect("2 bytes")))
                        .collect())
                };
                Indices::Narrow { a: col(count)?, b: col(b_count)? }
            };
            if !column.idx.all_below(dict_len) {
                return Err(TraceDecodeError::Inconsistent);
            }
        }
        if !r.0.is_empty() {
            return Err(TraceDecodeError::Inconsistent);
        }
        Ok(OpTrace { kinds })
    }
}

/// Decode one same-kind tile from its operand slices. The kind match is
/// hoisted out of the operand loop and the zipped slices elide the
/// per-operand bounds checks of indexed decoding.
#[inline]
fn decode_run(kind: OpKind, a: &[u64], b: &[u64], f: &mut impl FnMut(Op)) {
    match kind {
        OpKind::IntMul => {
            for (&a, &b) in a.iter().zip(b) {
                f(Op::IntMul(a as i64, b as i64));
            }
        }
        OpKind::FpMul => {
            for (&a, &b) in a.iter().zip(b) {
                f(Op::FpMul(f64::from_bits(a), f64::from_bits(b)));
            }
        }
        OpKind::FpDiv => {
            for (&a, &b) in a.iter().zip(b) {
                f(Op::FpDiv(f64::from_bits(a), f64::from_bits(b)));
            }
        }
        OpKind::FpSqrt => {
            for &a in a {
                f(Op::FpSqrt(f64::from_bits(a)));
            }
        }
    }
}

/// Records the arithmetic operand stream of a kernel run; every other
/// event is discarded. Use [`EventTrace`] when the full stream matters.
#[derive(Debug, Clone, Default)]
pub struct TraceRecorderSink {
    trace: OpTrace,
}

impl TraceRecorderSink {
    /// A recorder with an empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Finish recording and take the trace, without the recording-time
    /// value maps or spare column capacity.
    #[must_use]
    pub fn into_trace(mut self) -> OpTrace {
        self.trace.seal();
        self.trace
    }

    /// The trace recorded so far.
    #[must_use]
    pub fn trace(&self) -> &OpTrace {
        &self.trace
    }
}

impl EventSink for TraceRecorderSink {
    fn record(&mut self, event: Event) {
        if let Event::Arith(op) = event {
            self.trace.push(op);
        }
    }
}

/// Event-class discriminant for [`EventTrace`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EvClass {
    IntAlu,
    FpAdd,
    Branch,
    Annulled,
    Load,
    Store,
    Arith(OpKind),
}

impl EvClass {
    fn of(event: &Event) -> Self {
        match event {
            Event::IntAlu => EvClass::IntAlu,
            Event::FpAdd => EvClass::FpAdd,
            Event::Branch => EvClass::Branch,
            Event::Annulled => EvClass::Annulled,
            Event::Load(_) => EvClass::Load,
            Event::Store(_) => EvClass::Store,
            Event::Arith(op) => EvClass::Arith(op.kind()),
        }
    }

    /// `u64` payload words one event of this class consumes.
    fn payload_words(self) -> usize {
        match self {
            EvClass::IntAlu | EvClass::FpAdd | EvClass::Branch | EvClass::Annulled => 0,
            EvClass::Load | EvClass::Store | EvClass::Arith(OpKind::FpSqrt) => 1,
            EvClass::Arith(_) => 2,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct EvRun {
    class: EvClass,
    len: u32,
}

/// The complete dynamic event stream of one kernel run, in SoA form.
///
/// Cycle accounting needs loads, branches, and the instruction mix — not
/// just the arithmetic traffic. `EventTrace` records the full stream once
/// and replays it into any number of [`EventSink`]s (cycle accountants
/// with different CPU profiles, banks with different protection
/// policies) without re-running the kernel. The price is memory: the
/// nine Table 11–13 applications come to 56.2 M events and 536 MB at
/// default scale, so the experiments run those kernels natively into
/// their sinks instead (the [`crate::CycleAccountant`] batches its own
/// arithmetic either way).
///
/// Payload-free events (ALU ops, branches, FP adds, annulled slots) cost
/// only their share of a run header; loads/stores and square roots cost
/// 8 bytes; binary arithmetic costs 16.
#[derive(Debug, Clone, Default)]
pub struct EventTrace {
    runs: Vec<EvRun>,
    payload: Vec<u64>,
    len: usize,
}

impl EventTrace {
    /// An empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Approximate heap footprint in bytes.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.payload.len() * 8 + self.runs.len() * std::mem::size_of::<EvRun>()
    }

    /// Replay the stream into `sink`, reconstructing each event
    /// bit-identically in recorded order.
    ///
    /// Payload-free runs go through [`EventSink::record_repeated`] and
    /// arithmetic runs through [`EventSink::record_arith_batch`] in
    /// [`MAX_BATCH_WIDTH`]-lane tiles, so batching-aware sinks (the cycle
    /// accountant) charge whole runs at once; sinks relying on the trait
    /// defaults observe exactly the historical per-event `record` calls.
    pub fn replay_into<S: EventSink>(&self, sink: &mut S) {
        let width = MAX_BATCH_WIDTH;
        let mut pi = 0usize;
        for run in &self.runs {
            let n = run.len as usize;
            match run.class {
                EvClass::IntAlu => sink.record_repeated(Event::IntAlu, n as u64),
                EvClass::FpAdd => sink.record_repeated(Event::FpAdd, n as u64),
                EvClass::Branch => sink.record_repeated(Event::Branch, n as u64),
                EvClass::Annulled => sink.record_repeated(Event::Annulled, n as u64),
                EvClass::Load => {
                    for i in 0..n {
                        sink.record(Event::Load(self.payload[pi + i]));
                    }
                    pi += n;
                }
                EvClass::Store => {
                    for i in 0..n {
                        sink.record(Event::Store(self.payload[pi + i]));
                    }
                    pi += n;
                }
                EvClass::Arith(OpKind::FpSqrt) => {
                    // The payload already *is* the contiguous `a` column.
                    let col = &self.payload[pi..pi + n];
                    let mut start = 0;
                    while start < n {
                        let w = width.min(n - start);
                        sink.record_arith_batch(&OpBatch::new(
                            OpKind::FpSqrt,
                            &col[start..start + w],
                            &[],
                        ));
                        start += w;
                    }
                    pi += n;
                }
                EvClass::Arith(kind) => {
                    // Binary payload is interleaved `[a, b, a, b, …]`:
                    // gather it into stack lane tiles.
                    let mut a = [0u64; MAX_BATCH_WIDTH];
                    let mut b = [0u64; MAX_BATCH_WIDTH];
                    let mut start = 0;
                    while start < n {
                        let w = width.min(n - start);
                        for i in 0..w {
                            a[i] = self.payload[pi + (start + i) * 2];
                            b[i] = self.payload[pi + (start + i) * 2 + 1];
                        }
                        sink.record_arith_batch(&OpBatch::new(kind, &a[..w], &b[..w]));
                        start += w;
                    }
                    pi += n * EvClass::Arith(kind).payload_words();
                }
            }
        }
    }
}

impl EventSink for EventTrace {
    fn record(&mut self, event: Event) {
        let class = EvClass::of(&event);
        match event {
            Event::Load(addr) | Event::Store(addr) => self.payload.push(addr),
            Event::Arith(op) => {
                let (a, b) = op.operand_bits();
                self.payload.push(a);
                if op.kind() != OpKind::FpSqrt {
                    self.payload.push(b);
                }
            }
            _ => {}
        }
        match self.runs.last_mut() {
            Some(run) if run.class == class && run.len < u32::MAX => run.len += 1,
            _ => self.runs.push(EvRun { class, len: 1 }),
        }
        self.len += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CountingSink, TraceBuffer};
    use memo_table::rng::SplitMix64;
    use memo_table::{FaultConfig, FaultInjector, MemoConfig, MemoTable, Protection};

    fn sample_ops() -> Vec<Op> {
        vec![
            Op::FpDiv(355.0, 113.0),
            Op::FpDiv(355.0, 113.0),
            Op::FpMul(1.5, -0.0),
            Op::IntMul(-7, 6),
            Op::IntMul(i64::MIN, -1),
            Op::FpSqrt(2.0),
            Op::FpMul(f64::NAN, 1.0),
            Op::FpDiv(1.0, 0.0),
        ]
    }

    #[test]
    fn roundtrips_ops_bit_exactly() {
        let mut trace = OpTrace::new();
        for &op in &sample_ops() {
            trace.push(op);
        }
        assert_eq!(trace.len(), 8);
        let back = ops_of(&trace);
        assert_eq!(back.len(), 8);
        for (orig, got) in kind_major(&sample_ops()).iter().zip(&back) {
            assert_eq!(orig.kind(), got.kind());
            assert_eq!(orig.operand_bits(), got.operand_bits());
        }
    }

    #[test]
    fn recorder_keeps_only_arith() {
        let mut rec = TraceRecorderSink::new();
        let _ = rec.fdiv(10.0, 4.0);
        rec.load(0x40);
        rec.branch();
        let _ = rec.imul(3, 4);
        rec.int_ops(5);
        let trace = rec.into_trace();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.count(OpKind::FpDiv), 1);
        assert_eq!(trace.count(OpKind::IntMul), 1);
    }

    #[test]
    fn replay_matches_native_bank_stats() {
        let ops = sample_ops();
        let mut native = MemoBank::paper_default();
        let mut trace = OpTrace::new();
        for &op in &ops {
            native.execute(op);
            trace.push(op);
        }
        let mut replayed = MemoBank::paper_default();
        trace.replay(&mut replayed);
        for kind in OpKind::ALL {
            assert_eq!(native.stats(kind), replayed.stats(kind), "{kind}");
        }
    }

    #[test]
    fn replay_kind_filters() {
        let mut trace = OpTrace::new();
        for &op in &sample_ops() {
            trace.push(op);
        }
        let mut table = MemoTable::new(MemoConfig::paper_default());
        trace.replay_kind(OpKind::FpDiv, &mut table);
        assert_eq!(table.stats().ops_seen, 3);
    }

    #[test]
    fn memory_bound_is_16_bytes_per_op() {
        // Kernel inner loops emit bursts of same-kind operations over few
        // distinct values: a binary op costs its two u16 indices, and the
        // dictionaries amortize to an eighth of a byte (4.125 B/op in all
        // on this stream).
        let mut trace = OpTrace::new();
        for burst in 0..200i64 {
            for i in 0..64 {
                trace.push(Op::IntMul(burst, i));
            }
            for i in 0..64 {
                trace.push(Op::FpMul(burst as f64, i as f64));
            }
        }
        let per_op = trace.approx_bytes() as f64 / trace.len() as f64;
        assert!(per_op <= 4.125, "got {per_op} bytes/op");
    }

    #[test]
    fn event_trace_replays_full_stream() {
        let mut native = TraceBuffer::new();
        let mut trace = EventTrace::new();
        for sink in [&mut native as &mut dyn EventSink, &mut trace as &mut dyn EventSink] {
            let _ = sink.fmul(2.0, 3.0);
            sink.load(0x100);
            sink.int_ops(4);
            sink.branch();
            let _ = sink.fsqrt(2.0);
            sink.store(0x200);
            sink.annulled();
            let _ = sink.fadd(1.0, 1.0);
            let _ = sink.imul(5, 9);
        }
        assert_eq!(trace.len(), native.len());

        let mut replayed = TraceBuffer::new();
        trace.replay_into(&mut replayed);
        assert_eq!(replayed.events(), native.events());

        let mut mix = CountingSink::new();
        trace.replay_into(&mut mix);
        assert_eq!(mix.mix().int_alu, 4);
        assert_eq!(mix.mix().loads, 1);
        assert_eq!(mix.mix().fp_sqrt, 1);
    }

    #[test]
    fn serialization_roundtrips_bit_exactly() {
        let mut trace = OpTrace::new();
        for &op in &sample_ops() {
            trace.push(op);
        }
        let bytes = trace.to_bytes();
        let back = OpTrace::from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), trace.len());
        for (orig, got) in ops_of(&trace).iter().zip(&ops_of(&back)) {
            assert_eq!(orig.kind(), got.kind());
            assert_eq!(orig.operand_bits(), got.operand_bits());
        }
        // Replay equivalence: the decoded trace drives a bank identically.
        let mut native = MemoBank::paper_default();
        trace.replay(&mut native);
        let mut decoded = MemoBank::paper_default();
        back.replay(&mut decoded);
        for kind in OpKind::ALL {
            assert_eq!(native.stats(kind), decoded.stats(kind), "{kind}");
        }
        // Empty trace roundtrips too.
        let empty = OpTrace::from_bytes(&OpTrace::new().to_bytes()).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn deserialization_rejects_damage() {
        let mut trace = OpTrace::new();
        for &op in &sample_ops() {
            trace.push(op);
        }
        let bytes = trace.to_bytes();
        assert!(matches!(OpTrace::from_bytes(b"xx"), Err(TraceDecodeError::Truncated)));
        assert!(matches!(OpTrace::from_bytes(b"NOPE\x01\x00"), Err(TraceDecodeError::WrongMagic)));
        let mut wrong_version = bytes.clone();
        wrong_version[4] = 9;
        assert!(matches!(
            OpTrace::from_bytes(&wrong_version),
            Err(TraceDecodeError::WrongVersion { found: 9 })
        ));
        assert!(matches!(
            OpTrace::from_bytes(&bytes[..bytes.len() - 1]),
            Err(TraceDecodeError::Truncated)
        ));
        // After the magic, the version and the int multiplies' op count
        // comes their dictionary length: two operations, four distinct
        // operands. Five is more than they could have interned.
        let mut oversized = bytes.clone();
        assert_eq!(oversized[10..14], 4u32.to_le_bytes());
        oversized[10..14].copy_from_slice(&5u32.to_le_bytes());
        assert!(matches!(OpTrace::from_bytes(&oversized), Err(TraceDecodeError::Inconsistent)));
        // The last two bytes are the one square root's u16 index into its
        // one-value dictionary: point it past the dictionary.
        let mut past_dict = bytes.clone();
        let n = past_dict.len();
        past_dict[n - 2..].copy_from_slice(&1u16.to_le_bytes());
        assert!(matches!(OpTrace::from_bytes(&past_dict), Err(TraceDecodeError::Inconsistent)));
        // A byte after the data.
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(OpTrace::from_bytes(&trailing), Err(TraceDecodeError::Inconsistent)));
    }

    /// Operand bit patterns that must survive the dictionary exactly:
    /// both zeros (the second is also `i64::MIN`), NaNs with distinct
    /// payloads, infinities, denormals and integer extremes.
    const SPECIAL: [u64; 12] = [
        0x0000_0000_0000_0000, // +0.0, 0
        0x8000_0000_0000_0000, // -0.0, i64::MIN
        0x7FF8_0000_0000_0000, // quiet NaN
        0x7FF8_0000_0000_0001, // NaN, another payload
        0xFFF4_0000_0000_0000, // negative signalling NaN
        0x7FF0_0000_0000_0000, // +inf
        0xFFF0_0000_0000_0000, // -inf
        0x0000_0000_0000_0001, // smallest denormal
        0x800F_FFFF_FFFF_FFFF, // largest-magnitude negative denormal
        0x7FFF_FFFF_FFFF_FFFF, // i64::MAX, a NaN as f64
        0xFFFF_FFFF_FFFF_FFFF, // -1, a NaN as f64
        0x3FF0_0000_0000_0000, // 1.0
    ];

    /// A seeded stream over all four kinds, in same-kind bursts of 1–12
    /// operations. Operands mix [`SPECIAL`] patterns, a small reused pool
    /// and random bits. With `fresh`, half the bursts are fmul whose every
    /// operand is new, so fmul's dictionary passes 65,536 values
    /// mid-stream.
    fn seeded_stream(seed: u64, len: usize, fresh: bool) -> Vec<Op> {
        let mut rng = SplitMix64::new(seed).split("optrace-format");
        let mut next_fresh = 0u64;
        let mut ops = Vec::with_capacity(len);
        while ops.len() < len {
            let kind = if fresh && rng.next_below(2) == 0 {
                None
            } else {
                Some(OpKind::ALL[rng.next_below(4) as usize])
            };
            for _ in 0..1 + rng.next_below(12) {
                let mut operand = || match rng.next_below(4) {
                    0 => SPECIAL[rng.next_below(SPECIAL.len() as u64) as usize],
                    1 => rng.next_u64(),
                    _ => (rng.next_below(40) as f64 * 0.25).to_bits(),
                };
                let (a, b) = (operand(), operand());
                ops.push(match kind {
                    Some(OpKind::IntMul) => Op::IntMul(a as i64, b as i64),
                    Some(OpKind::FpMul) => Op::FpMul(f64::from_bits(a), f64::from_bits(b)),
                    Some(OpKind::FpDiv) => Op::FpDiv(f64::from_bits(a), f64::from_bits(b)),
                    Some(OpKind::FpSqrt) => Op::FpSqrt(f64::from_bits(a)),
                    None => {
                        next_fresh += 2;
                        let base = 0x4000_0000_0000_0000 + next_fresh;
                        Op::FpMul(f64::from_bits(base), f64::from_bits(base + 1))
                    }
                });
            }
        }
        ops
    }

    fn bits(op: &Op) -> (OpKind, (u64, u64)) {
        (op.kind(), op.operand_bits())
    }

    /// `ops` in the order a trace keeps them: kind by kind in
    /// [`OpKind::ALL`] order, each kind in recorded order.
    fn kind_major(ops: &[Op]) -> Vec<Op> {
        let mut ops = ops.to_vec();
        ops.sort_by_key(|op| op.kind() as usize);
        ops
    }

    /// Every operation of `trace`, walked kind by kind.
    fn ops_of(trace: &OpTrace) -> Vec<Op> {
        let mut ops = Vec::with_capacity(trace.len());
        for kind in OpKind::ALL {
            trace.for_each_kind(kind, |op| ops.push(op));
        }
        ops
    }

    /// Panic at the first operation where `got` and `want` differ in kind
    /// or bits, naming the seed.
    fn assert_same_ops(seed: u64, what: &str, got: impl IntoIterator<Item = Op>, want: &[Op]) {
        let got: Vec<Op> = got.into_iter().collect();
        if let Some(i) = got.iter().zip(want).position(|(g, w)| bits(g) != bits(w)) {
            panic!("seed {seed}, {what}: op {i} is {:?}, want {:?}", got[i], want[i]);
        }
        assert_eq!(got.len(), want.len(), "seed {seed}, {what}: length");
    }

    fn record(ops: &[Op]) -> OpTrace {
        let mut rec = TraceRecorderSink::new();
        for &op in ops {
            rec.record(Event::Arith(op));
        }
        rec.into_trace()
    }

    fn is_wide(trace: &OpTrace, kind: OpKind) -> bool {
        matches!(trace.kinds[kind as usize].idx, Indices::Wide { .. })
    }

    /// Seeds 0..16 are short narrow streams; 100 and 101 also widen fmul.
    fn seeded_cases() -> impl Iterator<Item = (u64, Vec<Op>)> {
        let narrow = (0..16).map(|seed| (seed, seeded_stream(seed, 3_000, false)));
        let wide = (100..102).map(|seed| (seed, seeded_stream(seed, 80_000, true)));
        narrow.chain(wide)
    }

    #[test]
    fn seeded_streams_come_back_bit_for_bit_in_order() {
        for (seed, ops) in seeded_cases() {
            let trace = record(&ops);
            assert_eq!(trace.len(), ops.len(), "seed {seed}");
            for kind in OpKind::ALL {
                let want = ops.iter().filter(|op| op.kind() == kind).count();
                assert_eq!(trace.count(kind), want, "seed {seed}, {kind}: count");
                assert_eq!(
                    is_wide(&trace, kind),
                    seed >= 100 && kind == OpKind::FpMul,
                    "seed {seed}, {kind}: width"
                );
            }
            let want = kind_major(&ops);
            assert_same_ops(seed, "for_each_kind", ops_of(&trace), &want);
            let mut warps = Vec::new();
            trace.for_each_warp(MAX_BATCH_WIDTH, |warp| {
                warps.extend((0..warp.len()).map(|i| warp.op(i)));
            });
            assert_same_ops(seed, "for_each_warp", warps, &want);
        }
    }

    #[test]
    fn warps_are_each_kinds_stream_cut_to_width() {
        for (seed, ops) in seeded_cases() {
            let trace = record(&ops);
            for width in [1, 7, 64] {
                let mut warps: [Vec<Vec<Op>>; 4] = Default::default();
                trace.for_each_warp(width, |warp| {
                    warps[warp.kind() as usize].push((0..warp.len()).map(|i| warp.op(i)).collect());
                });
                for kind in OpKind::ALL {
                    let stream: Vec<Op> =
                        ops.iter().copied().filter(|op| op.kind() == kind).collect();
                    let want: Vec<&[Op]> = stream.chunks(width).collect();
                    let got = &warps[kind as usize];
                    let what = format!("width {width}, {kind}");
                    assert_eq!(got.len(), want.len(), "seed {seed}, {what}: tile count");
                    for (t, (got, want)) in got.iter().zip(&want).enumerate() {
                        assert_same_ops(
                            seed,
                            &format!("{what}, tile {t}"),
                            got.iter().copied(),
                            want,
                        );
                    }
                    let mut tiles = Vec::new();
                    trace.for_each_kind_batch(kind, width, |tile| tiles.push(tile.len()));
                    let lens: Vec<usize> = want.iter().map(|t| t.len()).collect();
                    assert_eq!(tiles, lens, "seed {seed}, {what}: for_each_kind_batch tiles");
                    let mut each = Vec::new();
                    trace.for_each_kind(kind, |op| each.push(op));
                    assert_same_ops(seed, &format!("{kind}: for_each_kind"), each, &stream);
                }
            }
        }
    }

    #[test]
    fn bytes_round_trip_before_and_after_widening() {
        for (seed, ops) in seeded_cases() {
            // The longest prefix whose fmul dictionary still fits u16.
            let mut rec = TraceRecorderSink::new();
            let mut cut = 0;
            while cut < ops.len() {
                rec.record(Event::Arith(ops[cut]));
                if rec.trace().kinds[OpKind::FpMul as usize].dict.len() > NARROW_LIMIT {
                    break;
                }
                cut += 1;
            }
            let wide = seed >= 100;
            assert_eq!(cut < ops.len(), wide, "seed {seed}: widening point");
            let mut cases = vec![(&ops[..cut], false)];
            if wide {
                cases.push((&ops[..], true));
            }
            for (prefix, widened) in cases {
                let what = format!("{} ops", prefix.len());
                let trace = record(prefix);
                let bytes = trace.to_bytes();
                let back = OpTrace::from_bytes(&bytes)
                    .unwrap_or_else(|e| panic!("seed {seed}, {what}: {e}"));
                assert_eq!(is_wide(&back, OpKind::FpMul), widened, "seed {seed}, {what}: width");
                assert_same_ops(seed, &what, ops_of(&back), &kind_major(prefix));
                assert!(back.to_bytes() == bytes, "seed {seed}, {what}: re-encoding differs");
            }
        }
    }

    #[test]
    fn damaged_archives_are_rejected_or_replay_safely() {
        // Flipped bits in dictionary values decode to other operands (the
        // store checksums its blobs); anywhere else they must be rejected,
        // and whatever decodes must replay without a panic.
        let mut decoded = 0;
        for seed in 0..64 {
            let bytes = record(&seeded_stream(seed, 400, false)).to_bytes();
            let mut rng = SplitMix64::new(seed).split("damage");
            let mut damaged = bytes.clone();
            for _ in 0..1 + rng.next_below(4) {
                let i = rng.next_below(damaged.len() as u64) as usize;
                damaged[i] ^= 1 << rng.next_below(8);
            }
            if let Ok(trace) = OpTrace::from_bytes(&damaged) {
                let mut bank = MemoBank::paper_default();
                trace.replay(&mut bank);
                trace.replay_scalar(&mut bank);
                assert_eq!(ops_of(&trace).len(), trace.len(), "seed {seed}");
                decoded += 1;
            }
        }
        // Both outcomes occur, so both branches were exercised.
        assert!(0 < decoded && decoded < 64, "{decoded} of 64 damaged archives decoded");
    }

    #[test]
    fn pushing_onto_a_decoded_trace_reuses_its_dictionary() {
        let ops = seeded_stream(7, 500, false);
        let mut trace = OpTrace::from_bytes(&record(&ops).to_bytes()).unwrap();
        let before: Vec<usize> = trace.kinds.iter().map(|k| k.dict.len()).collect();
        for &op in &ops {
            trace.push(op);
        }
        let after: Vec<usize> = trace.kinds.iter().map(|k| k.dict.len()).collect();
        assert_eq!(before, after, "seed 7: replayed values are already in the dictionaries");
        let twice: Vec<Op> = ops.iter().chain(&ops).copied().collect();
        assert_same_ops(7, "pushed twice", ops_of(&trace), &kind_major(&twice));
    }

    /// A seeded merge of `ops`' four per-kind streams: each kind keeps its
    /// order, and the interleaving between kinds is redrawn in bursts.
    fn reinterleave(seed: u64, ops: &[Op]) -> Vec<Op> {
        let mut rng = SplitMix64::new(seed).split("reinterleave");
        let streams = OpKind::ALL.map(|kind| -> Vec<Op> {
            ops.iter().copied().filter(|op| op.kind() == kind).collect()
        });
        let mut next = [0usize; 4];
        let mut merged = Vec::with_capacity(ops.len());
        while merged.len() < ops.len() {
            let k = rng.next_below(4) as usize;
            let take = (1 + rng.next_below(8) as usize).min(streams[k].len() - next[k]);
            merged.extend_from_slice(&streams[k][next[k]..next[k] + take]);
            next[k] += take;
        }
        merged
    }

    /// Parity-protected tables whose injectors strike every other matched
    /// probe, behind a circuit breaker that trips a slot at 8 detections.
    fn breaker_bank(seed: u64) -> MemoBank {
        let bank = OpKind::ALL.into_iter().enumerate().fold(MemoBank::none(), |bank, (slot, kind)| {
            let config = MemoConfig::builder(32)
                .protection(Protection::ParityDetect)
                .build()
                .expect("32/4 is valid");
            let faults = FaultInjector::new(FaultConfig::single_bit(seed + slot as u64, 0.5));
            bank.with_table(kind, MemoTable::new(config).with_fault_injector(faults))
        });
        bank.with_circuit_breaker(8)
    }

    /// Which slots tripped, and each slot's detections.
    fn breaker_outcome(bank: &MemoBank) -> [(bool, u64); 4] {
        OpKind::ALL.map(|kind| {
            (bank.breaker_tripped(kind), bank.stats(kind).map_or(0, |s| s.faults_detected))
        })
    }

    /// A recording is four per-kind streams: reinterleaving the kinds of a
    /// native stream changes neither its bytes nor anything a per-kind
    /// table sees, even a breaker-armed faulty one.
    #[test]
    fn recordings_keep_no_interleaving_between_kinds() {
        let mut trips = 0;
        for (seed, ops) in seeded_cases() {
            let merged = reinterleave(seed, &ops);
            assert!(
                merged.iter().zip(&ops).any(|(m, o)| bits(m) != bits(o)),
                "seed {seed}: the merge must change the interleaving"
            );
            let (native, reordered) = (record(&ops), record(&merged));
            assert!(native.to_bytes() == reordered.to_bytes(), "seed {seed}: bytes differ");

            let mut banks = [(); 4].map(|()| MemoBank::paper_default());
            native.replay(&mut banks[0]);
            native.replay_scalar(&mut banks[1]);
            reordered.replay(&mut banks[2]);
            reordered.replay_scalar(&mut banks[3]);
            for kind in OpKind::ALL {
                for (i, bank) in banks.iter().enumerate().skip(1) {
                    assert_eq!(
                        bank.stats(kind),
                        banks[0].stats(kind),
                        "seed {seed}, {kind}: replay {i} stats"
                    );
                }
            }

            // The native stream op by op, as a live run would drive it.
            let mut live = breaker_bank(seed);
            for &op in &ops {
                live.execute(op);
            }
            let want = breaker_outcome(&live);
            for (what, trace) in [("native", &native), ("reordered", &reordered)] {
                let mut bank = breaker_bank(seed);
                trace.replay(&mut bank);
                assert_eq!(breaker_outcome(&bank), want, "seed {seed}: {what} breaker");
            }
            trips += want.iter().filter(|&&(tripped, _)| tripped).count();
        }
        assert!(trips > 0, "no breaker tripped in any seed");
    }
}
