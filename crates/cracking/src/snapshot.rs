//! Immutable piece-table snapshots of one column (shard): what a snapshot
//! scan reads instead of the cracked vectors.
//!
//! ## Why snapshots can be cheap here
//!
//! A crack only *permutes values inside one piece* — the multiset of values
//! per value range never changes. Snapshot scans (count / sum of
//! qualifying **values**) therefore stay correct across arbitrary concurrent
//! cracks and piece splits, and readers run with **no structure lock at
//! all**. Only a **Ripple merge** (insert/delete) changes a piece's
//! multiset, so only a column no merge has written keeps a snapshot: its
//! first merge drops it, and from then on the column answers snapshot
//! reads from its live pieces and their sums. Refreshes and morphs re-copy
//! single spans of pieces copy-on-write, sharing every `Arc`'d [`Segment`]
//! they do not reach.
//!
//! ## Publication and reclamation
//!
//! Nothing here is shared mutably. The owning column keeps the current
//! `Arc<PieceSnapshot>` inside the state its pending-updates mutex guards
//! (the linearisation point between a snapshot and its not-yet-merged
//! updates): a reader clones the `Arc` there, a writer swaps it there. A
//! replaced snapshot — and through its `Arc`s the runs and segments only it
//! references — is freed when the last reader still holding it lets go.

#![forbid(unsafe_code)]

use crate::kernels::{self, bits_for, pack_bits, packed_words};
use holix_storage::select::Predicate;
use holix_storage::types::CrackValue;
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;

/// Walks a delta stream (`first` + `n - 1` packed gaps) in position order,
/// decoding gaps block-at-a-time through the [`kernels`] layer; `f`
/// receives `(index, value)` and returns `false` to stop (the sorted
/// early-exit).
fn delta_walk(
    first: i64,
    bits: u32,
    packed: &[u64],
    n: usize,
    mut f: impl FnMut(usize, i64) -> bool,
) {
    if n == 0 || !f(0, first) {
        return;
    }
    let mut v = first;
    let mut idx = 1usize;
    let mut more = true;
    kernels::decode_blocks(packed, bits, n - 1, |gaps| {
        for &g in gaps {
            v = v.wrapping_add(g as i64);
            if !f(idx, v) {
                more = false;
                break;
            }
            idx += 1;
        }
        more
    });
}

/// Translates sentinel-aware value bounds into FOR offset space
/// (`value = base + offset`): `None` when the window is empty below
/// `base`, otherwise `(lo_off, hi_off)` with `None` meaning unbounded.
fn for_offsets(base: i64, lo: Option<i64>, hi: Option<i64>) -> Option<(Option<u64>, Option<u64>)> {
    if hi.is_some_and(|h| h <= base) {
        return None;
    }
    let lo_off = lo.and_then(|l| (l > base).then(|| l.wrapping_sub(base) as u64));
    let hi_off = hi.map(|h| h.wrapping_sub(base) as u64);
    Some((lo_off, hi_off))
}

/// Sentinel-aware bounds in i64 space: `None` = unbounded, matching
/// [`Predicate::matches_unbounded`] (the `as_i64` map is order-preserving,
/// so comparisons agree with `V`'s order).
fn i64_bounds<V: CrackValue>(lo: V, hi: V) -> (Option<i64>, Option<i64>) {
    (
        (lo != V::MIN_VALUE).then(|| lo.as_i64()),
        (hi != V::MAX_VALUE).then(|| hi.as_i64()),
    )
}

/// Count + sum of the `vals` in `[lo, hi)` under the sentinel-aware
/// predicate semantics ([`Predicate::matches_unbounded`]), through the
/// branchless lane filter: the edge filter of a plain snapshot piece and
/// of a written column's live piece.
pub(crate) fn filter_stats<V: CrackValue>(vals: &[V], lo: V, hi: V) -> (u64, i128) {
    let (lo, hi) = i64_bounds(lo, hi);
    let mut count = 0u64;
    let mut sum = 0i128;
    let mut lanes = [0i64; 256];
    for chunk in vals.chunks(lanes.len()) {
        for (o, v) in lanes.iter_mut().zip(chunk) {
            *o = v.as_i64();
        }
        let (c, s) = kernels::filter_count(&lanes[..chunk.len()], lo, hi);
        count += c;
        sum += s;
    }
    (count, sum)
}

/// Physical representation of one segment. Non-plain forms hold the
/// multiset **sorted ascending** (snapshot pieces are unordered multisets,
/// so sorting is free correctness-wise and buys narrow deltas plus
/// early-exit scans); values round-trip through the order-preserving
/// `CrackValue::as_i64` map.
enum Repr<V> {
    /// Verbatim values in column order — the only form snapshot builds
    /// and edge refreshes produce; morphing re-encodes it in the
    /// background.
    Plain(Vec<V>),
    /// Frame-of-reference: sorted values bit-packed as offsets from the
    /// minimum.
    For {
        base: i64,
        bits: u32,
        packed: Box<[u64]>,
        len: usize,
    },
    /// Delta: first value plus bit-packed gaps between sorted neighbours
    /// (narrower than FOR when values are dense over a wide span).
    Delta {
        first: i64,
        bits: u32,
        packed: Box<[u64]>,
        len: usize,
    },
    /// Run-length: parallel run arrays of the sorted multiset — `vals[k]`
    /// is run `k`'s value, `ends[k]` its exclusive cumulative end
    /// position. Split (rather than `(value, count)` tuples) so both
    /// arrays binary-search — by value for predicate bounds, by position
    /// for piece windows — and so a run costs 12 bytes instead of the
    /// tuple's padded 16.
    Rle {
        vals: Box<[i64]>,
        ends: Box<[u32]>,
        len: usize,
    },
}

/// An immutable block of values backing one or more snapshot pieces, in
/// one of four encodings (see `Repr`). The byte counter (shared with the
/// owning column) tracks live snapshot memory: it rises by the **encoded
/// backing size** when a segment is created and falls in `Drop` — i.e.
/// only once the last snapshot referencing the segment is gone, which a
/// reader still holding a replaced version delays. Scans run directly on
/// the compressed form; nothing ever materialises a decoded copy.
pub struct Segment<V> {
    repr: Repr<V>,
    bytes: Arc<AtomicUsize>,
    /// Exactly what the constructor charged (the encoded backing size), so
    /// `Drop` debits symmetrically even for value types whose accounting
    /// `width()` differs from their in-memory size.
    charged: usize,
}

impl<V: CrackValue> Segment<V> {
    /// Wraps copied-out values verbatim (plain encoding), charging them to
    /// `bytes`. Built pieces and edge copies take this form; the daemon
    /// re-encodes stable pieces later via [`Segment::encoded`].
    pub fn new(data: Vec<V>, bytes: Arc<AtomicUsize>) -> Self {
        let charged = data.len() * V::width();
        bytes.fetch_add(charged, SeqCst);
        Segment {
            repr: Repr::Plain(data),
            bytes,
            charged,
        }
    }

    /// Encodes a multiset into the scheme its statistics favour — RLE for
    /// heavy run structure, delta for dense wide-span values, FOR for a
    /// narrow span — falling back to plain when no scheme beats the plain
    /// backing size strictly. Charges the encoded backing size to `bytes`.
    pub fn encoded(mut data: Vec<V>, bytes: Arc<AtomicUsize>) -> Self {
        data.sort_unstable();
        let n = data.len();
        let plain_bytes = n * V::width();
        if n < 2 {
            return Self::new(data, bytes);
        }
        let lo = data[0].as_i64();
        let hi = data[n - 1].as_i64();
        // Scheme statistics in one pass: value span, max adjacent gap, runs.
        let span = hi.wrapping_sub(lo) as u64;
        let mut max_gap = 0u64;
        let mut runs = 1usize;
        for w in data.windows(2) {
            let gap = w[1].as_i64().wrapping_sub(w[0].as_i64()) as u64;
            max_gap = max_gap.max(gap);
            runs += usize::from(gap != 0);
        }
        let for_bits = bits_for(span);
        let delta_bits = bits_for(max_gap);
        let for_bytes = packed_words(n, for_bits) * 8;
        let delta_bytes = packed_words(n - 1, delta_bits) * 8 + 8;
        let rle_bytes = runs * (std::mem::size_of::<i64>() + std::mem::size_of::<u32>());
        let best = for_bytes.min(delta_bytes).min(rle_bytes);
        if best >= plain_bytes {
            return Self::new(data, bytes);
        }
        let repr = if rle_bytes == best {
            let mut vals: Vec<i64> = Vec::with_capacity(runs);
            let mut ends: Vec<u32> = Vec::with_capacity(runs);
            for (i, v) in data.iter().enumerate() {
                let v = v.as_i64();
                if vals.last() == Some(&v) {
                    *ends.last_mut().expect("run exists") = (i + 1) as u32;
                } else {
                    vals.push(v);
                    ends.push((i + 1) as u32);
                }
            }
            Repr::Rle {
                vals: vals.into_boxed_slice(),
                ends: ends.into_boxed_slice(),
                len: n,
            }
        } else if for_bytes <= delta_bytes {
            let packed = pack_bits(
                data.iter().map(|v| v.as_i64().wrapping_sub(lo) as u64),
                n,
                for_bits,
            );
            Repr::For {
                base: lo,
                bits: for_bits,
                packed,
                len: n,
            }
        } else {
            let packed = pack_bits(
                data.windows(2)
                    .map(|w| w[1].as_i64().wrapping_sub(w[0].as_i64()) as u64),
                n - 1,
                delta_bits,
            );
            Repr::Delta {
                first: lo,
                bits: delta_bits,
                packed,
                len: n,
            }
        };
        let charged = best;
        bytes.fetch_add(charged, SeqCst);
        Segment {
            repr,
            bytes,
            charged,
        }
    }

    /// Number of values in the segment.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Plain(d) => d.len(),
            Repr::For { len, .. } | Repr::Delta { len, .. } | Repr::Rle { len, .. } => *len,
        }
    }

    /// `true` when the segment holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` for the plain (uncompressed) form — the morph daemon's
    /// candidate filter.
    pub fn is_plain(&self) -> bool {
        matches!(self.repr, Repr::Plain(_))
    }

    /// Encoding label (CSV / introspection).
    pub fn encoding(&self) -> &'static str {
        match &self.repr {
            Repr::Plain(_) => "plain",
            Repr::For { .. } => "for",
            Repr::Delta { .. } => "delta",
            Repr::Rle { .. } => "rle",
        }
    }

    /// The encoded backing size this segment charged to the byte counter.
    pub fn charged_bytes(&self) -> usize {
        self.charged
    }

    /// The values verbatim — `Some` only for the plain form. Encoded
    /// segments are visited through [`Segment::for_each_range`] /
    /// [`Segment::scan_range`] instead.
    pub fn plain_values(&self) -> Option<&[V]> {
        match &self.repr {
            Repr::Plain(d) => Some(d),
            _ => None,
        }
    }

    /// First RLE run that can overlap positions `>= start`.
    fn rle_first_run(ends: &[u32], start: usize) -> usize {
        ends.partition_point(|&e| (e as usize) <= start)
    }

    /// Visits `seg[start..start+len)` in storage order, decoding
    /// block-at-a-time through the [`kernels`] layer.
    pub fn for_each_range(&self, start: usize, len: usize, mut f: impl FnMut(V)) {
        let end = start + len;
        match &self.repr {
            Repr::Plain(d) => d[start..end].iter().for_each(|&v| f(v)),
            Repr::For {
                base,
                bits,
                packed,
                len: n,
            } => {
                kernels::decode_range(packed, *bits, *n, start, end, |off| {
                    f(V::from_i64_exact(base.wrapping_add(off as i64)))
                });
            }
            Repr::Delta {
                first,
                bits,
                packed,
                len: n,
            } => {
                delta_walk(*first, *bits, packed, *n, |idx, v| {
                    if idx >= end {
                        return false;
                    }
                    if idx >= start {
                        f(V::from_i64_exact(v));
                    }
                    true
                });
            }
            Repr::Rle { vals, ends, .. } => {
                for k in Self::rle_first_run(ends, start)..vals.len() {
                    let run_start = if k == 0 { 0 } else { ends[k - 1] as usize };
                    if run_start >= end {
                        break;
                    }
                    let from = run_start.max(start);
                    let to = (ends[k] as usize).min(end);
                    if from < to {
                        let dv = V::from_i64_exact(vals[k]);
                        for _ in from..to {
                            f(dv);
                        }
                    }
                }
            }
        }
    }

    /// Sum of `seg[start..start+len)` (widened) — the piece-aggregate
    /// precompute and morph-verification path, on the compressed form.
    pub fn sum_range(&self, start: usize, len: usize) -> i128 {
        let end = start + len;
        match &self.repr {
            Repr::Plain(d) => d[start..end].iter().map(|&v| v.as_i64() as i128).sum(),
            Repr::For {
                base,
                bits,
                packed,
                len: n,
            } => {
                let offsets = kernels::sum_range(packed, *bits, *n, start, end);
                offsets as i128 + *base as i128 * len as i128
            }
            Repr::Delta {
                first,
                bits,
                packed,
                len: n,
            } => {
                let mut sum = 0i128;
                delta_walk(*first, *bits, packed, *n, |idx, v| {
                    if idx >= end {
                        return false;
                    }
                    if idx >= start {
                        sum += v as i128;
                    }
                    true
                });
                sum
            }
            Repr::Rle { vals, ends, .. } => {
                let mut sum = 0i128;
                for k in Self::rle_first_run(ends, start)..vals.len() {
                    let run_start = if k == 0 { 0 } else { ends[k - 1] as usize };
                    if run_start >= end {
                        break;
                    }
                    let overlap = (ends[k] as usize).min(end) - run_start.max(start);
                    sum += vals[k] as i128 * overlap as i128;
                }
                sum
            }
        }
    }

    /// Count + sum of qualifying values in `seg[start..start+len)` under
    /// the sentinel-aware predicate semantics
    /// ([`Predicate::matches_unbounded`]) — the fused filter_count kernel.
    /// FOR binary-searches the qualifying index range directly on the
    /// packed words and block-sums it; delta walks block-decoded gaps with
    /// a sorted early exit; RLE binary-searches run boundaries; plain
    /// rides the branchless lane filter.
    pub fn scan_range(&self, start: usize, len: usize, lo: V, hi: V) -> (u64, i128) {
        let pred = Predicate { lo, hi };
        if pred.is_empty() {
            return (0, 0);
        }
        let (lo_b, hi_b) = i64_bounds(lo, hi);
        let end = start + len;
        match &self.repr {
            Repr::Plain(d) => filter_stats(&d[start..end], lo, hi),
            Repr::For {
                base,
                bits,
                packed,
                len: n,
            } => {
                let Some((lo_off, hi_off)) = for_offsets(*base, lo_b, hi_b) else {
                    return (0, 0);
                };
                let (c, offsets) =
                    kernels::filter_count_sorted(packed, *bits, *n, start, end, lo_off, hi_off);
                (c, offsets as i128 + *base as i128 * c as i128)
            }
            Repr::Delta {
                first,
                bits,
                packed,
                len: n,
            } => {
                let mut count = 0u64;
                let mut sum = 0i128;
                delta_walk(*first, *bits, packed, *n, |idx, v| {
                    if idx >= end || hi_b.is_some_and(|h| v >= h) {
                        return false;
                    }
                    if idx >= start && lo_b.is_none_or(|l| v >= l) {
                        count += 1;
                        sum += v as i128;
                    }
                    true
                });
                (count, sum)
            }
            Repr::Rle { vals, ends, .. } => {
                let mut count = 0u64;
                let mut sum = 0i128;
                // Run-skipping: binary search the first run inside the
                // position window AND the first run meeting the lower
                // bound — both monotone over the sorted runs.
                let r0 = Self::rle_first_run(ends, start);
                let k0 = match lo_b {
                    Some(l) => r0.max(vals.partition_point(|&v| v < l)),
                    None => r0,
                };
                for k in k0..vals.len() {
                    let run_start = if k == 0 { 0 } else { ends[k - 1] as usize };
                    if run_start >= end || hi_b.is_some_and(|h| vals[k] >= h) {
                        break;
                    }
                    let overlap = (ends[k] as usize)
                        .min(end)
                        .saturating_sub(run_start.max(start));
                    count += overlap as u64;
                    sum += vals[k] as i128 * overlap as i128;
                }
                (count, sum)
            }
        }
    }
}

impl<V> Drop for Segment<V> {
    fn drop(&mut self) {
        self.bytes.fetch_sub(self.charged, SeqCst);
    }
}

/// One piece of a snapshot: an unordered multiset of the values in
/// `[lo_key, hi_key)` (the lower key is implicit: the previous piece's
/// `hi_key`, or the column minimum for the first piece), with precomputed
/// aggregates so fully-covered pieces answer in O(1). `Clone` shares the
/// backing segment (pointer copy, no data copy) — splices clone the
/// untouched pieces of the snapshot they replace.
#[derive(Clone)]
pub struct SnapPiece<V> {
    /// Exclusive upper boundary key; `None` = unbounded (last piece).
    pub hi_key: Option<V>,
    pub(crate) seg: Arc<Segment<V>>,
    start: usize,
    len: usize,
    /// Sum of the piece's values (widened).
    sum: i128,
}

impl<V: CrackValue> SnapPiece<V> {
    /// Builds a piece over `seg[start..start+len)` with its aggregate.
    pub fn new(hi_key: Option<V>, seg: Arc<Segment<V>>, start: usize, len: usize) -> Self {
        let sum = seg.sum_range(start, len);
        SnapPiece {
            hi_key,
            seg,
            start,
            len,
            sum,
        }
    }

    /// The piece's values verbatim — `Some` only when the backing segment
    /// is plain (encoded pieces are visited through
    /// [`SnapPiece::for_each`] / [`SnapPiece::scan_range`]).
    pub fn plain_values(&self) -> Option<&[V]> {
        self.seg
            .plain_values()
            .map(|d| &d[self.start..self.start + self.len])
    }

    /// Visits every value of the piece (unordered multiset), decoding
    /// encoded segments on the fly.
    pub fn for_each(&self, f: impl FnMut(V)) {
        self.seg.for_each_range(self.start, self.len, f);
    }

    /// Count + sum of the piece's values qualifying under
    /// `[lo, hi)` (sentinel-aware) — executed on the compressed form.
    pub fn scan_range(&self, lo: V, hi: V) -> (u64, i128) {
        self.seg.scan_range(self.start, self.len, lo, hi)
    }

    /// `true` when the backing segment is plain (uncompressed).
    pub fn is_plain(&self) -> bool {
        self.seg.is_plain()
    }

    /// Backing segment's encoding label.
    pub fn encoding(&self) -> &'static str {
        self.seg.encoding()
    }

    /// Number of values in the piece.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the piece holds no values.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Result of one snapshot scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SnapshotScan {
    /// Qualifying-value count.
    pub count: u64,
    /// Qualifying-value sum (widened).
    pub sum: i128,
    /// Values inspected element-wise in the (at most two) edge pieces —
    /// the read path's refresh heuristic: a large filter cost means the
    /// snapshot's piece table lags the live cracker index.
    pub filtered: usize,
}

/// Pieces per [`Run`] of a freshly built (or rebuilt) stretch of a
/// snapshot's piece table.
const RUN_PIECES: usize = 64;

/// A stretch of consecutive snapshot pieces shared between the snapshot
/// versions that did not change it, with what a walk or a splice needs to
/// pass over it without touching the pieces. `Clone` shares the pieces.
#[derive(Clone)]
struct Run<V> {
    /// `hi_key` of the run's last piece.
    hi_key: Option<V>,
    /// Values in the run's pieces, and their sum (widened).
    len: usize,
    sum: i128,
    /// Never empty.
    pieces: Arc<[SnapPiece<V>]>,
}

/// What [`PieceSnapshot::walk`] hands its visitor.
enum Reached<'a, V> {
    /// A run whose every piece lies wholly inside the range.
    Run(&'a Run<V>),
    /// One piece; `true` when its whole value range qualifies.
    Piece(&'a SnapPiece<V>, bool),
}

/// A position in a run table: `(run, piece within the run)`; the table's
/// end is `(runs.len(), 0)`. Ordered as the pieces are.
type Cursor = (usize, usize);

/// An immutable snapshot of one column: pieces in ascending value order,
/// jointly covering the whole domain. Piece `i` covers
/// `[pieces[i-1].hi_key, pieces[i].hi_key)`.
///
/// The piece table is held as runs of at most `RUN_PIECES` pieces, each
/// run `Arc`-shared: [`PieceSnapshot::splice`] builds the next version by
/// rebuilding the runs its span touches and sharing every other one, so a
/// publish costs a refcount per *run* it left alone rather than a clone
/// (and later a drop) per *piece*. Runs only ever shrink when a span's
/// replacement is shorter than what it replaces (emptied pieces are not
/// copied back); a table whose runs have all withered to a piece each
/// costs a splice what the flat table did.
///
/// Only a column that no Ripple merge has written holds one: a merge
/// changes pieces' multisets, and the first one drops the column's
/// snapshot for good (its reads then fold the live pieces' sums).
pub struct PieceSnapshot<V> {
    runs: Vec<Run<V>>,
    len: usize,
}

impl<V: CrackValue> PieceSnapshot<V> {
    /// Wraps an ordered piece list.
    pub fn new(pieces: Vec<SnapPiece<V>>) -> Self {
        let mut runs = Vec::with_capacity(pieces.len().div_ceil(RUN_PIECES));
        Self::push_runs(&mut runs, pieces);
        Self::from_runs(runs)
    }

    fn from_runs(runs: Vec<Run<V>>) -> Self {
        debug_assert!(
            runs.windows(2)
                .all(|w| w[0].hi_key.is_some()
                    && (w[1].hi_key.is_none() || w[1].hi_key > w[0].hi_key))
        );
        let len = runs.iter().map(|r| r.len).sum();
        PieceSnapshot { runs, len }
    }

    /// Appends `pieces` to `runs` as runs of near-equal size, none longer
    /// than [`RUN_PIECES`].
    fn push_runs(runs: &mut Vec<Run<V>>, pieces: Vec<SnapPiece<V>>) {
        debug_assert!(
            pieces
                .windows(2)
                .all(|w| w[0].hi_key.is_some()
                    && (w[1].hi_key.is_none() || w[1].hi_key > w[0].hi_key))
        );
        let n = pieces.len();
        let count = n.div_ceil(RUN_PIECES);
        let mut pieces = pieces.into_iter();
        for r in 0..count {
            // Run `r` ends at piece `(r + 1) * n / count`.
            let size = (r + 1) * n / count - r * n / count;
            let run: Arc<[SnapPiece<V>]> = pieces.by_ref().take(size).collect();
            runs.push(Run {
                hi_key: run[size - 1].hi_key,
                len: run.iter().map(SnapPiece::len).sum(),
                sum: run.iter().map(|p| p.sum).sum(),
                pieces: run,
            });
        }
    }

    /// Total values in the snapshot.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the snapshot holds no values.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The pieces in ascending value order.
    pub fn pieces(&self) -> impl Iterator<Item = &SnapPiece<V>> {
        self.runs.iter().flat_map(|r| r.pieces.iter())
    }

    /// Number of pieces.
    pub fn piece_count(&self) -> usize {
        self.runs.iter().map(|r| r.pieces.len()).sum()
    }

    /// Position of the first piece whose `hi_key` is not below-or-at
    /// `key`, by binary search over the run summaries and then inside one
    /// run. With `strict`, pieces whose `hi_key` *equals* `key` are not
    /// skipped either.
    fn seek(&self, key: V, strict: bool) -> Cursor {
        let before = |k: Option<V>| k.is_some_and(|k| if strict { k < key } else { k <= key });
        let r = self.runs.partition_point(|run| before(run.hi_key));
        match self.runs.get(r) {
            None => (r, 0),
            Some(run) => (r, run.pieces.partition_point(|p| before(p.hi_key))),
        }
    }

    /// `hi_key` of the piece just before `at` (`None` at the table's head
    /// — which a first piece with an unbounded `hi_key` cannot be confused
    /// with: it is the last piece too).
    fn key_before(&self, at: Cursor) -> Option<V> {
        match at {
            (0, 0) => None,
            (r, 0) => self.runs[r - 1].hi_key,
            (r, o) => self.runs[r].pieces[o - 1].hi_key,
        }
    }

    /// The pieces from `from` to the table's end.
    fn pieces_from(&self, (r, o): Cursor) -> impl Iterator<Item = &SnapPiece<V>> {
        let head = self.runs.get(r).map_or(&[][..], |run| &run.pieces[o..]);
        let tail = self.runs.get(r + 1..).unwrap_or(&[]);
        head.iter()
            .chain(tail.iter().flat_map(|run| run.pieces.iter()))
    }

    /// The snapshot's boundary keys bracketing `[lo, hi)`: the greatest
    /// boundary `<= lo` (`None` = column-min side) and the least boundary
    /// `>= hi` (`None` = column-max side).
    pub fn anchors(&self, lo: V, hi: V) -> (Option<V>, Option<V>) {
        let a = self.key_before(self.seek(lo, false));
        let b = if hi == V::MAX_VALUE {
            None
        } else {
            self.pieces_from(self.seek(hi, true))
                .next()
                .and_then(|p| p.hi_key)
        };
        (a, b)
    }

    /// `true` when any piece intersecting `[lo, hi)` is encoded.
    pub fn span_has_encoded(&self, lo: V, hi: V) -> bool {
        for p in self.pieces_from(self.seek(lo, false)) {
            if !p.is_plain() {
                return true;
            }
            match p.hi_key {
                None => break,
                Some(k) if k >= hi => break,
                _ => {}
            }
        }
        false
    }

    /// The next version of this snapshot: every piece covering the value
    /// range `[a, b)` (`None` = the column edge on that side) replaced by
    /// `mid`, which holds the whole multiset of `[a, b)`. Only the runs the
    /// span reaches into are rebuilt (from what the span leaves of them
    /// plus `mid`); every other run is shared with `self`.
    ///
    /// `None` when an anchor is not (or no longer) a boundary of this
    /// snapshot: a piece straddling it would be dropped whole and only its
    /// part inside `[a, b)` put back.
    pub fn splice(&self, a: Option<V>, b: Option<V>, mid: Vec<SnapPiece<V>>) -> Option<Self> {
        let i = a.map_or((0, 0), |k| self.seek(k, false));
        let j = b.map_or((self.runs.len(), 0), |k| self.seek(k, false));
        let is_bound = |key: Option<V>, at: Cursor| key.is_none() || self.key_before(at) == key;
        if !(is_bound(a, i) && is_bound(b, j)) {
            return None;
        }
        debug_assert!(i <= j, "anchors out of order");
        // Runs before `i`'s are shared; `i`'s head, `mid` and `j`'s tail
        // are cut into new runs; runs after `j`'s (and `j`'s own, when the
        // span ends on its seam) are shared.
        let mut runs = Vec::with_capacity(self.runs.len() + mid.len().div_ceil(RUN_PIECES) + 1);
        runs.extend_from_slice(&self.runs[..i.0]);
        let mut open = self
            .runs
            .get(i.0)
            .map_or(&[][..], |run| &run.pieces[..i.1])
            .to_vec();
        open.extend(mid);
        let rest = match self.runs.get(j.0) {
            Some(run) if j.1 > 0 => {
                open.extend_from_slice(&run.pieces[j.1..]);
                j.0 + 1
            }
            _ => j.0,
        };
        if !open.is_empty() {
            Self::push_runs(&mut runs, open);
        }
        runs.extend_from_slice(&self.runs[rest..]);
        Some(Self::from_runs(runs))
    }

    /// Count + sum of values in `[lo, hi)`. Interior runs and pieces fully
    /// covered by the range contribute their precomputed aggregates; only
    /// the edge pieces are filtered element-wise.
    pub fn stats(&self, lo: V, hi: V) -> SnapshotScan {
        let mut out = SnapshotScan::default();
        self.walk(lo, hi, |reached| match reached {
            Reached::Run(run) => {
                out.count += run.len as u64;
                out.sum += run.sum;
            }
            Reached::Piece(piece, true) => {
                out.count += piece.len() as u64;
                out.sum += piece.sum;
            }
            Reached::Piece(piece, false) => {
                out.filtered += piece.len();
                let (c, s) = piece.scan_range(lo, hi);
                out.count += c;
                out.sum += s;
            }
        });
        out
    }

    /// Visits what intersects `[lo, hi)` in ascending order: a run lying
    /// wholly inside the range as one, every other piece by itself.
    fn walk(&self, lo: V, hi: V, mut visit: impl FnMut(Reached<'_, V>)) {
        // Degenerate predicates are empty everywhere — including the
        // sentinel-valued forms `[MIN, MIN)` / `[MAX, MAX)`, which the old
        // sentinel-exception guard let through to visit edge pieces.
        if lo >= hi {
            return;
        }
        // A piece (or run) with lower key `from` and upper key `to` lies
        // inside the range when both hold; the walk is over once a lower
        // key is at or past the upper bound.
        let from_lo = |from: Option<V>| lo == V::MIN_VALUE || from.is_some_and(|k| k >= lo);
        let to_hi = |to: Option<V>| hi == V::MAX_VALUE || to.is_some_and(|k| k <= hi);
        let past = |from: Option<V>| hi != V::MAX_VALUE && from.is_some_and(|k| k >= hi);
        // First piece that can contain values >= lo: the first whose
        // hi_key exceeds lo.
        let (first, mut skip) = self.seek(lo, false);
        let mut piece_lo = self.key_before((first, skip));
        for run in &self.runs[first..] {
            if past(piece_lo) {
                return;
            }
            if skip == 0 && from_lo(piece_lo) && to_hi(run.hi_key) {
                visit(Reached::Run(run));
                piece_lo = run.hi_key;
                continue;
            }
            for piece in &run.pieces[std::mem::take(&mut skip)..] {
                if past(piece_lo) {
                    return;
                }
                visit(Reached::Piece(
                    piece,
                    from_lo(piece_lo) && to_hi(piece.hi_key),
                ));
                piece_lo = piece.hi_key;
            }
        }
    }
}

impl<V: CrackValue> std::fmt::Debug for PieceSnapshot<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PieceSnapshot")
            .field("pieces", &self.piece_count())
            .field("len", &self.len)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter() -> Arc<AtomicUsize> {
        Arc::new(AtomicUsize::new(0))
    }

    fn snapshot_of(
        pieces: Vec<(Option<i64>, Vec<i64>)>,
        bytes: &Arc<AtomicUsize>,
    ) -> PieceSnapshot<i64> {
        let pieces = pieces
            .into_iter()
            .map(|(hi, vals)| {
                let n = vals.len();
                SnapPiece::new(hi, Arc::new(Segment::new(vals, Arc::clone(bytes))), 0, n)
            })
            .collect();
        PieceSnapshot::new(pieces)
    }

    #[test]
    fn segment_bytes_stay_charged_until_the_last_holder_drops() {
        let bytes = counter();
        let v1 = Arc::new(snapshot_of(
            vec![(Some(10), vec![1, 2, 3]), (None, vec![11, 12])],
            &bytes,
        ));
        assert_eq!(bytes.load(SeqCst), 5 * 8);
        // A reader holds version 1 while the next version replaces its
        // second piece and shares the first.
        let reader = Arc::clone(&v1);
        let fresh = Arc::new(Segment::new(vec![13], Arc::clone(&bytes)));
        let v2 = v1
            .splice(Some(10), None, vec![SnapPiece::new(None, fresh, 0, 1)])
            .expect("10 is a boundary");
        drop(v1); // the published pointer moves on
        assert_eq!(bytes.load(SeqCst), 5 * 8 + 8, "both versions' bytes live");
        let old = reader.stats(i64::MIN, i64::MAX);
        assert_eq!((old.count, old.sum), (5, 29), "the reader's multiset");
        drop(reader);
        assert_eq!(
            bytes.load(SeqCst),
            3 * 8 + 8,
            "only the segment no version references any more is freed"
        );
        drop(v2);
        assert_eq!(bytes.load(SeqCst), 0);
    }

    #[test]
    fn stats_cover_edges_and_interiors() {
        let bytes = counter();
        // Pieces: [min,10): {1,5}, [10,20): {12,17,11}, [20,+inf): {25,20}.
        let snap = snapshot_of(
            vec![
                (Some(10), vec![5, 1]),
                (Some(20), vec![12, 17, 11]),
                (None, vec![25, 20]),
            ],
            &bytes,
        );
        assert_eq!(snap.len(), 7);
        let full = snap.stats(i64::MIN, i64::MAX);
        assert_eq!((full.count, full.sum), (7, 91));
        assert_eq!(full.filtered, 0, "sentinel range covers every piece");

        let mid = snap.stats(10, 20);
        assert_eq!((mid.count, mid.sum), (3, 40));
        assert_eq!(mid.filtered, 0, "exact boundary hit needs no filtering");

        let cross = snap.stats(5, 21);
        assert_eq!((cross.count, cross.sum), (5, 65));
        assert_eq!(cross.filtered, 4, "both edge pieces filtered");

        let empty = snap.stats(14, 14);
        assert_eq!(empty.count, 0);
    }

    #[test]
    fn unbounded_upper_end_includes_max_value() {
        let bytes = counter();
        let snap = snapshot_of(vec![(None, vec![i64::MAX, 3])], &bytes);
        let s = snap.stats(0, i64::MAX);
        assert_eq!(
            s.count, 2,
            "MAX sentinel means unbounded, like the cracked path"
        );
    }

    #[test]
    fn empty_snapshot_answers_zero() {
        let snap = PieceSnapshot::<i64>::new(Vec::new());
        assert!(snap.is_empty());
        assert_eq!(snap.stats(0, 100).count, 0);
    }

    /// Count and sum of the multiset `vals` under the predicate semantics.
    fn multiset_stats(vals: &[i64], lo: i64, hi: i64) -> (u64, i128) {
        let pred = Predicate { lo, hi };
        vals.iter()
            .filter(|&&v| pred.matches_unbounded(v))
            .fold((0, 0), |(c, s), &v| (c + 1, s + v as i128))
    }

    /// A splice of a live copy of one span (as an edge refresh makes it)
    /// answers the new multiset, the lane filter a written column's edges
    /// go through answers any range of a piece's values, sentinels
    /// included, and every replaced segment is debited once nobody holds
    /// it.
    #[test]
    fn splices_and_the_lane_filter_answer_the_multiset() {
        let bytes = counter();
        let plain = snapshot_of(
            vec![
                (Some(10), vec![5, 1]),
                (Some(20), vec![12, 17, 11]),
                (None, vec![25, 20, i64::MAX]),
            ],
            &bytes,
        );
        let probes = [
            (i64::MIN, i64::MAX),
            (3, 4),
            (10, 20),
            (12, 26),
            (21, i64::MAX),
            (i64::MIN, 3),
            (25, 25),
        ];
        let want = [1, 5, 11, 17, 17, 20, 25, i64::MAX];
        let live = Arc::new(Segment::new(vec![17, 11, 17], Arc::clone(&bytes)));
        let next = plain
            .splice(
                Some(10),
                Some(20),
                vec![SnapPiece::new(Some(20), live, 0, 3)],
            )
            .expect("boundaries");
        assert_eq!(next.len(), want.len());
        for (lo, hi) in probes {
            let got = next.stats(lo, hi);
            assert_eq!(
                (got.count, got.sum),
                multiset_stats(&want, lo, hi),
                "[{lo},{hi})"
            );
            assert_eq!(
                filter_stats(&want, lo, hi),
                multiset_stats(&want, lo, hi),
                "filter [{lo},{hi})"
            );
        }
        drop(plain);
        assert_eq!(
            bytes.load(SeqCst),
            want.len() * 8,
            "the replaced piece went"
        );
        drop(next);
        assert_eq!(bytes.load(SeqCst), 0);
    }

    /// A table of `n` pieces with boundary keys 100, 200, … (the last
    /// unbounded), piece `i` holding `i % 3 + 1` values of its range.
    fn table(n: usize, bytes: &Arc<AtomicUsize>) -> Vec<SnapPiece<i64>> {
        (0..n)
            .map(|i| {
                let vals: Vec<i64> = (0..i % 3 + 1).map(|t| (i * 100 + t * 7) as i64).collect();
                let hi = (i + 1 < n).then_some((i as i64 + 1) * 100);
                let len = vals.len();
                SnapPiece::new(hi, Arc::new(Segment::new(vals, Arc::clone(bytes))), 0, len)
            })
            .collect()
    }

    /// One splice: anchors and replacement pieces.
    type Span = (Option<i64>, Option<i64>, Vec<SnapPiece<i64>>);

    /// Replacement for table pieces `i..j`: `m` pieces (`m == 0` only when
    /// asked for) splitting the span's key range, the last one ending on
    /// the span's upper anchor.
    fn replacement(i: usize, j: usize, n: usize, m: usize, bytes: &Arc<AtomicUsize>) -> Span {
        let a = (i > 0).then_some(i as i64 * 100);
        let b = (j < n).then_some(j as i64 * 100);
        let mid = (0..m)
            .map(|t| {
                let hi = if t + 1 == m {
                    b
                } else {
                    Some(i as i64 * 100 + 1 + t as i64)
                };
                let vals = vec![i as i64 * 100 + t as i64; t + 2];
                let len = vals.len();
                SnapPiece::new(hi, Arc::new(Segment::new(vals, Arc::clone(bytes))), 0, len)
            })
            .collect();
        (a, b, mid)
    }

    /// The splice of `span`, `old`'s pieces `i..j` replaced by its pieces,
    /// on a flat piece list — what the snapshot did before it kept runs.
    fn flat_splice(
        old: &PieceSnapshot<i64>,
        i: usize,
        j: usize,
        span: &Span,
    ) -> PieceSnapshot<i64> {
        let pieces: Vec<SnapPiece<i64>> = old.pieces().cloned().collect();
        let mut out = pieces[..i].to_vec();
        out.extend(span.2.iter().cloned());
        out.extend_from_slice(&pieces[j..]);
        PieceSnapshot::new(out)
    }

    /// `old.splice` of `span` (whose anchors are boundaries of `old`),
    /// checked against [`flat_splice`].
    fn checked_splice(
        old: &PieceSnapshot<i64>,
        i: usize,
        j: usize,
        span: &Span,
    ) -> PieceSnapshot<i64> {
        let (a, b, mid) = span.clone();
        let new = old.splice(a, b, mid).expect("anchors are boundaries");
        assert_same_snapshot(&new, &flat_splice(old, i, j, span));
        new
    }

    /// Same pieces (key, length, aggregate, backing segment), same totals,
    /// same answers.
    fn assert_same_snapshot(got: &PieceSnapshot<i64>, want: &PieceSnapshot<i64>) {
        assert_eq!(got.len(), want.len());
        assert_eq!(got.piece_count(), want.piece_count());
        for (g, w) in got.pieces().zip(want.pieces()) {
            assert_eq!((g.hi_key, g.len, g.sum), (w.hi_key, w.len, w.sum));
            assert!(Arc::ptr_eq(&g.seg, &w.seg), "piece below {:?}", g.hi_key);
        }
        assert!(got
            .runs
            .iter()
            .all(|r| (1..=RUN_PIECES).contains(&r.pieces.len())
                && r.hi_key == r.pieces[r.pieces.len() - 1].hi_key
                && r.len == r.pieces.iter().map(SnapPiece::len).sum::<usize>()
                && r.sum == r.pieces.iter().map(|p| p.sum).sum::<i128>()));
        let top = want.piece_count() as i64 * 100 + 50;
        for (lo, hi) in [
            (i64::MIN, i64::MAX),
            (0, top),
            (150, 250),
            (6_400, 6_500),
            (6_399, 12_801),
            (top / 2, i64::MAX),
            (i64::MIN, top / 3),
        ] {
            assert_eq!(got.stats(lo, hi), want.stats(lo, hi), "[{lo},{hi})");
            assert_eq!(got.anchors(lo, hi), want.anchors(lo, hi), "[{lo},{hi})");
        }
    }

    #[test]
    fn splice_shares_every_run_it_does_not_reach_into() {
        let bytes = counter();
        let n = 300;
        let old = PieceSnapshot::new(table(n, &bytes));
        assert_eq!(old.runs.len(), 5, "300 pieces in runs of 60");
        assert!(old.runs.iter().all(|r| r.pieces.len() == 60));
        let shared = |old: &PieceSnapshot<i64>, new: &PieceSnapshot<i64>| -> Vec<bool> {
            new.runs
                .iter()
                .map(|run| old.runs.iter().any(|o| Arc::ptr_eq(&o.pieces, &run.pieces)))
                .collect()
        };
        // One piece split in two inside run 1 …
        let mid = checked_splice(&old, 70, 71, &replacement(70, 71, n, 2, &bytes));
        assert_eq!(shared(&old, &mid), [true, false, true, true, true]);
        assert_eq!(mid.runs[1].pieces.len(), 61);
        // … then two pieces merged into one across the seam of runs 3 and 4.
        let new = checked_splice(&mid, 240, 242, &replacement(239, 241, n, 1, &bytes));
        assert_eq!(
            shared(&mid, &new),
            [true, true, true, false, false],
            "runs 3 + 4 rebuilt as 119 pieces in two"
        );
        assert_eq!(
            (new.runs[3].pieces.len(), new.runs[4].pieces.len()),
            (59, 60)
        );
        // A span that ends on a run seam leaves the run behind it alone; a
        // whole-table span shares nothing; an emptied span only shrinks.
        let new = checked_splice(&old, 0, 60, &replacement(0, 60, n, 3, &bytes));
        assert_eq!(shared(&old, &new).iter().filter(|&&s| s).count(), 4);
        let new = checked_splice(&old, 0, n, &replacement(0, n, n, 1, &bytes));
        assert_eq!(new.piece_count(), 1);
        let new = checked_splice(&old, 100, 130, &replacement(100, 130, n, 0, &bytes));
        assert_eq!(shared(&old, &new).iter().filter(|&&s| s).count(), 3);
        // An anchor that is not a boundary of this table: no splice.
        assert!(old.splice(Some(150), Some(200), Vec::new()).is_none());
        assert!(old.splice(Some(100), Some(31_000), Vec::new()).is_none());
    }

    /// Decode-everything helper: the segment's multiset in sorted order.
    fn decoded<V: CrackValue>(seg: &Segment<V>) -> Vec<V> {
        let mut out = Vec::with_capacity(seg.len());
        seg.for_each_range(0, seg.len(), |v| out.push(v));
        out.sort_unstable();
        out
    }

    /// Full roundtrip + kernel check for one input multiset: decode equals
    /// the sorted input, and scan/sum kernels match a plain-scan oracle on
    /// a handful of bounds drawn from the data.
    fn check_roundtrip<V: CrackValue>(data: Vec<V>) {
        let bytes = counter();
        let seg = Segment::encoded(data.clone(), Arc::clone(&bytes));
        let mut sorted = data.clone();
        sorted.sort_unstable();
        assert_eq!(decoded(&seg), sorted, "{} roundtrip", seg.encoding());
        assert_eq!(bytes.load(SeqCst), seg.charged_bytes());
        let oracle_sum: i128 = sorted.iter().map(|&v| v.as_i64() as i128).sum();
        assert_eq!(seg.sum_range(0, seg.len()), oracle_sum);
        let mut probes: Vec<(V, V)> = vec![(V::MIN_VALUE, V::MAX_VALUE)];
        if let (Some(&a), Some(&b)) = (sorted.first(), sorted.last()) {
            probes.push((a, b));
            probes.push((b, a)); // degenerate
            probes.push((a, V::MAX_VALUE));
            probes.push((V::MIN_VALUE, b));
            let mid = sorted[sorted.len() / 2];
            probes.push((a, mid));
            probes.push((mid, mid)); // empty
        }
        for (lo, hi) in probes {
            let pred = Predicate { lo, hi };
            let mut count = 0u64;
            let mut sum = 0i128;
            for &v in &sorted {
                if pred.matches_unbounded(v) {
                    count += 1;
                    sum += v.as_i64() as i128;
                }
            }
            assert_eq!(
                seg.scan_range(0, seg.len(), lo, hi),
                (count, sum),
                "{} scan [{:?},{:?})",
                seg.encoding(),
                lo,
                hi
            );
            // Interior windows must agree with a positional oracle too.
            if seg.len() >= 4 {
                let (a, b) = (seg.len() / 4, seg.len() / 4 + seg.len() / 2);
                let mut wc = 0u64;
                let mut ws = 0i128;
                for &v in &sorted[a..b] {
                    if pred.matches_unbounded(v) {
                        wc += 1;
                        ws += v.as_i64() as i128;
                    }
                }
                assert_eq!(
                    seg.scan_range(a, b - a, lo, hi),
                    (wc, ws),
                    "{} windowed scan [{lo:?},{hi:?})",
                    seg.encoding()
                );
            }
        }
        let charged = seg.charged_bytes();
        drop(seg);
        let _ = charged;
        assert_eq!(bytes.load(SeqCst), 0, "Drop must debit exactly charged");
    }

    #[test]
    fn encoded_adversarial_runs() {
        // All-equal → FOR with zero bits (or RLE), near-zero bytes.
        let bytes = counter();
        let seg = Segment::encoded(vec![7i64; 4096], Arc::clone(&bytes));
        assert!(!seg.is_plain());
        assert!(
            seg.charged_bytes() < 4096 * 8 / 10,
            "{}",
            seg.charged_bytes()
        );
        drop(seg);
        // Strictly increasing → delta wins with 1-bit gaps.
        let inc: Vec<i64> = (0..4096).map(|i| 1_000_000 + i).collect();
        let seg = Segment::encoded(inc, Arc::clone(&bytes));
        assert_eq!(seg.encoding(), "delta");
        assert!(seg.charged_bytes() <= 4096 / 8 + 16);
        drop(seg);
        // Wide-span sparse (span ~2^63): no scheme beats plain — fallback.
        let sparse = vec![i64::MIN + 1, -5, 0, 3, i64::MAX - 1];
        let seg = Segment::encoded(sparse, Arc::clone(&bytes));
        assert!(seg.is_plain());
        drop(seg);
        assert_eq!(bytes.load(SeqCst), 0);
        for data in [
            vec![7i64; 1000],
            (0..1000).collect(),
            vec![i64::MIN + 1, -5, 0, 3, i64::MAX - 1],
            (0..1000).map(|i| (i * 37) % 11).collect(),
        ] {
            check_roundtrip(data);
        }
    }

    #[test]
    fn encoded_roundtrip_across_widths() {
        check_roundtrip::<i8>((-100..100).map(|v| v as i8).collect());
        check_roundtrip::<i16>((0..2000).map(|v| (v % 300) as i16).collect());
        check_roundtrip::<i32>((0..5000).map(|v| v * 3).collect());
        check_roundtrip::<u32>((0..5000).map(|v| (v % 17) as u32).collect());
        check_roundtrip::<i64>(Vec::new());
        check_roundtrip::<i64>(vec![42]);
    }

    /// Satellite regression: morphing a plain segment into an encoded one
    /// strictly decreases the charged snapshot bytes on compressible data,
    /// and `Drop` debits exactly what each constructor charged.
    #[test]
    fn morph_strictly_decreases_charged_bytes() {
        let bytes = counter();
        let data: Vec<i64> = (0..8192).map(|i| (i * 31) % 1000).collect();
        let plain = Segment::new(data.clone(), Arc::clone(&bytes));
        let plain_charge = plain.charged_bytes();
        assert_eq!(plain_charge, 8192 * 8);
        assert_eq!(bytes.load(SeqCst), plain_charge);
        let enc = Segment::encoded(data, Arc::clone(&bytes));
        assert!(
            enc.charged_bytes() < plain_charge,
            "morph must strictly shrink: {} vs {plain_charge}",
            enc.charged_bytes()
        );
        assert_eq!(bytes.load(SeqCst), plain_charge + enc.charged_bytes());
        drop(plain);
        assert_eq!(bytes.load(SeqCst), enc.charged_bytes());
        drop(enc);
        assert_eq!(bytes.load(SeqCst), 0);
    }

    #[test]
    fn encoded_snapshot_answers_like_plain() {
        let bytes = counter();
        let mk = |encode: bool| -> PieceSnapshot<i64> {
            let pieces = vec![
                (Some(100i64), (0..100).collect::<Vec<i64>>()),
                (Some(200), (100..200).map(|v| v / 2 * 2).collect()),
                (None, vec![250; 64]),
            ];
            PieceSnapshot::new(
                pieces
                    .into_iter()
                    .map(|(hi, vals)| {
                        let n = vals.len();
                        let seg = if encode {
                            Arc::new(Segment::encoded(vals, Arc::clone(&bytes)))
                        } else {
                            Arc::new(Segment::new(vals, Arc::clone(&bytes)))
                        };
                        SnapPiece::new(hi, seg, 0, n)
                    })
                    .collect(),
            )
        };
        let plain = mk(false);
        let enc = mk(true);
        assert!(enc.pieces().all(|p| !p.is_plain()));
        for (lo, hi) in [
            (i64::MIN, i64::MAX),
            (0, 300),
            (50, 150),
            (100, 200),
            (199, 251),
            (42, 42),
        ] {
            let a = plain.stats(lo, hi);
            let b = enc.stats(lo, hi);
            assert_eq!((a.count, a.sum), (b.count, b.sum), "[{lo},{hi})");
            assert_eq!(a.filtered, b.filtered, "edge-filter semantics differ");
        }
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            // Random tables × random ascending disjoint spans, each
            // replaced by 0–3 pieces and spliced as its own version, three
            // rounds of them: the run table always answers like the flat
            // rebuild.
            #[test]
            fn splice_matches_a_flat_rebuild(
                n in 1usize..400,
                rounds in proptest::collection::vec(
                    proptest::collection::vec((0usize..80, 1usize..70, 0usize..4), 0..6),
                    3..4,
                ),
            ) {
                let bytes = counter();
                let mut snap = PieceSnapshot::new(table(n, &bytes));
                for cuts in rounds {
                    let mut from = 0;
                    for (gap, width, m) in cuts {
                        let i = from + gap;
                        let j = (i + width).min(n);
                        if i >= j {
                            break;
                        }
                        from = j;
                        // Spans are cut against the original key grid,
                        // which only the first splice is sure to still
                        // have; later ones keep the spans whose anchors
                        // survived.
                        let keys: Vec<Option<i64>> = snap.pieces().map(|p| p.hi_key).collect();
                        let pos = |k: Option<i64>| match k {
                            None => Some(keys.len()),
                            Some(k) => keys.iter().position(|&q| q == Some(k)).map(|p| p + 1),
                        };
                        let span = replacement(i, j, n, m, &bytes);
                        let at = if i == 0 { Some(0) } else { pos(span.0) };
                        if let (Some(at), Some(to)) = (at, pos(span.1)) {
                            snap = checked_splice(&snap, at, to, &span);
                        }
                    }
                }
            }

            #[test]
            fn encode_decode_roundtrip_i64(
                data in proptest::collection::vec(any::<i64>(), 0..300),
            ) {
                // Clamp away the MAX sentinel (domains never produce it).
                let data: Vec<i64> =
                    data.into_iter().map(|v| v.min(i64::MAX - 1)).collect();
                check_roundtrip(data);
            }

            #[test]
            fn encode_decode_roundtrip_narrow(
                data in proptest::collection::vec(0i64..5000, 0..300),
            ) {
                check_roundtrip(data);
            }

            #[test]
            fn encode_decode_roundtrip_i16(
                data in proptest::collection::vec(any::<i16>(), 0..300),
            ) {
                let data: Vec<i16> =
                    data.into_iter().map(|v| v.min(i16::MAX - 1)).collect();
                check_roundtrip(data);
            }

            #[test]
            fn encode_decode_roundtrip_u32(
                data in proptest::collection::vec(any::<u32>(), 0..300),
            ) {
                let data: Vec<u32> =
                    data.into_iter().map(|v| v.min(u32::MAX - 1)).collect();
                check_roundtrip(data);
            }
        }
    }
}
