//! Horizontal shards over one attribute: S value-range partitions, each
//! with its own [`CrackerColumn`] (and therefore its own cracker index,
//! piece latches and Ripple pending-update buffer).
//!
//! Sharding attacks the two serialisation points the multi-core
//! experiments (Fig 11 / Fig 17) expose on a single cracker column per
//! attribute: the per-attribute structure lock (Ripple merges block every
//! reader of the attribute) and piece-latch contention when concurrent
//! queries crack the same region. With range shards, a predicate fans out
//! to only the shards its value range intersects, interior shards answer
//! with *no crack at all* (their whole value range qualifies), and
//! updates route to exactly one shard's pending buffer.
//!
//! The shard is also the unit of **residency**: a [`ShardedColumn`] holds
//! its base column by `Arc` and one cell per shard, empty until
//! [`ShardedColumn::admit`] builds it. All S shards are built with one
//! two-level range partition of the base — by the plan's cuts into shards
//! and, inside each shard, by power-of-two-wide value ranges into coarse
//! buckets laid out in key order, so every shard is born with its buckets
//! as pieces and no query ever cracks a whole shard (a histogram pass,
//! then a scatter that writes whole cache lines with streaming stores,
//! bypassing the cache); any smaller set with
//! one branch-free filter pass per shard, so an owner under storage
//! pressure materialises (and after an eviction re-materialises, through
//! [`ShardedColumn::vacated`]) exactly the value ranges its queries touch.
//! Either way a shard is born holding **values only**: its row ids are a
//! function of the base, its value range and its boundary table, and it
//! builds them (`row_ids.rs`) when a conjunction, a Ripple merge or
//! a migration first reads one — a shard that only ever answers range
//! counts and sums costs 8 bytes a tuple, not 12. (Successors of a replan
//! are built from migrated pairs and store their ids from birth.)
//!
//! The *initial* shard plan is chosen from the base data: cut values at
//! equi-depth quantiles of a sorted sample, so skewed bases still get
//! balanced shards. A plan is an immutable value, but it is no longer
//! frozen for the column's lifetime: a replan
//! ([`ShardedColumn::apply_replan`]) builds a **versioned successor**
//! column that shares the `Arc`s of every untouched shard — their cracker
//! indices, latches, snapshots and point filters survive — and rebuilds
//! only the split or merged shards, draining them through
//! [`CrackerColumn::extract_for_migration`] (seal ingress → Ripple-merge
//! everything with a snapshot republish → copy out). The engine publishes
//! the successor by swapping one `Arc` (the column carries its plan and
//! [`ShardedColumn::version`]), so in-flight queries finish against the
//! plan version they started with; updates
//! that raced into a sealed predecessor shard are rejected (`false` from
//! the queue ops) and re-routed through the successor plan.

use crate::column::{CrackerColumn, Selection};
use crate::kernels::{self, Isa};
use crate::row_ids::RowSource;
use crate::snapshot::SnapshotScan;
use crate::vectorized::CrackScratch;
use holix_storage::select::{Predicate, RangeStats};
use holix_storage::types::{CrackValue, RowId};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::mem::MaybeUninit;
use std::sync::{Arc, OnceLock};

/// Maximum base values sampled for the quantile cuts.
const PLAN_SAMPLE: usize = 1 << 16;

/// Most coarse buckets a whole-attribute build makes, over all shards: a
/// tuple's bucket id fits a byte.
const MAX_BUCKETS: usize = 256;

/// L1 data cache assumed for the piece floor of a column nobody handed one
/// to ([`ShardedColumn::with_piece_floor`]): the paper's 32 KiB.
const L1_BYTES: usize = 32 * 1024;

/// Immutable range-partitioning plan: `cuts` are the S−1 interior
/// boundaries, ascending and strictly increasing. Shard `k` holds values
/// `v` with `cuts[k-1] <= v < cuts[k]` (first shard unbounded below, last
/// unbounded above).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan<V> {
    cuts: Vec<V>,
    /// Smallest and largest value of the sample the cuts came from; `None`
    /// for a plan made without one. Only sizes the coarse buckets of the
    /// two edge shards — routing never reads it.
    extremes: Option<(V, V)>,
}

impl<V: CrackValue> ShardPlan<V> {
    /// Single-shard plan (no cuts) — the unsharded degenerate case.
    pub fn single() -> Self {
        Self::from_cuts(Vec::new())
    }

    /// Plan with explicit interior cut values (must be strictly
    /// increasing). Tests and external planners construct known layouts
    /// through this; production plans come from
    /// [`ShardPlan::from_values`].
    pub fn from_cuts(cuts: Vec<V>) -> Self {
        assert!(
            cuts.windows(2).all(|w| w[0] < w[1]),
            "shard cuts must be strictly increasing"
        );
        ShardPlan {
            cuts,
            extremes: None,
        }
    }

    /// Equi-depth plan with up to `shards` shards, from a sorted sample of
    /// `values`. Duplicate quantiles collapse (a domain with fewer distinct
    /// values than shards yields fewer shards), so the cuts are always
    /// strictly increasing. The plan remembers the sample's extremes.
    pub fn from_values(values: &[V], shards: usize) -> Self {
        if values.is_empty() {
            return Self::single();
        }
        let shards = shards.max(1);
        let stride = (values.len() / PLAN_SAMPLE).max(1);
        let mut sample: Vec<V> = values.iter().step_by(stride).copied().collect();
        sample.sort_unstable();
        let (min, max) = (sample[0], sample[sample.len() - 1]);
        let mut cuts = Vec::with_capacity(shards - 1);
        for k in 1..shards {
            let cut = sample[(k * sample.len() / shards).min(sample.len() - 1)];
            // Strictly increasing and above the minimum, so no shard is
            // empty by construction.
            if cut > min && cuts.last().is_none_or(|&last| cut > last) {
                cuts.push(cut);
            }
        }
        ShardPlan {
            cuts,
            extremes: Some((min, max)),
        }
    }

    /// Number of shards this plan produces.
    pub fn shards(&self) -> usize {
        self.cuts.len() + 1
    }

    /// The interior cut values.
    pub fn cuts(&self) -> &[V] {
        &self.cuts
    }

    /// Index of the shard holding value `v`.
    pub fn shard_of(&self, v: V) -> usize {
        self.cuts.partition_point(|&c| c <= v)
    }

    /// Inclusive range `(first, last)` of shards intersecting `[lo, hi)`.
    /// Returns `None` for an empty predicate.
    pub fn shard_range(&self, lo: V, hi: V) -> Option<(usize, usize)> {
        if lo >= hi {
            return None;
        }
        let first = self.cuts.partition_point(|&c| c <= lo);
        let last = self.cuts.partition_point(|&c| c < hi);
        Some((first, last))
    }

    /// Clamps a predicate to shard `k`'s value range: a bound at or beyond
    /// the shard edge widens to the sentinel, so fully-covered interior
    /// shards answer without cracking anything.
    pub fn clamp(&self, k: usize, pred: Predicate<V>) -> Predicate<V> {
        // The bound only widens to a sentinel when the predicate covers the
        // shard's whole side: `pred.lo` at or below the shard's lower cut
        // (first shard has none — its values extend to the column minimum),
        // symmetrically for `hi`.
        let lo = if k > 0 && pred.lo <= self.cuts[k - 1] {
            V::MIN_VALUE
        } else {
            pred.lo
        };
        let hi = if k < self.cuts.len() && pred.hi >= self.cuts[k] {
            V::MAX_VALUE
        } else {
            pred.hi
        };
        Predicate { lo, hi }
    }
}

/// One shard-plan change, proposed by the planner from published
/// [`crate::PieceStats`] skew and applied by
/// [`ShardedColumn::apply_replan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplanAction {
    /// Split the named hot shard at its median value.
    Split {
        /// Index of the shard to split.
        shard: usize,
    },
    /// Merge the named cold shard with its right neighbour.
    Merge {
        /// Index of the left shard of the merged pair.
        left: usize,
    },
}

impl ReplanAction {
    /// The predecessor shards this action seals, drains and replaces.
    pub fn replaced(&self) -> std::ops::RangeInclusive<usize> {
        match *self {
            ReplanAction::Split { shard } => shard..=shard,
            ReplanAction::Merge { left } => left..=left + 1,
        }
    }
}

/// One shard's residency: empty, or a built cracker column together with
/// the owner's tag for it (the engine's `IndexSpace` record). Column and tag
/// are published in one step, so nobody ever sees a built shard without
/// its tag. Cells are write-once; an evicted shard is replaced by a fresh
/// cell in a successor column ([`ShardedColumn::vacated`]) that shares
/// every other cell.
struct ShardCell<V, T> {
    /// Serialises builders of this shard (never taken by readers): build,
    /// tag and publish happen under it, so racing touchers yield one
    /// column and one tag.
    build: Mutex<()>,
    built: OnceLock<(Arc<CrackerColumn<V>>, T)>,
}

impl<V, T> ShardCell<V, T> {
    fn empty() -> Arc<Self> {
        Arc::new(ShardCell {
            build: Mutex::new(()),
            built: OnceLock::new(),
        })
    }
}

/// One attribute split into S range shards, each an independent
/// [`CrackerColumn`] with its own index, latches and pending updates.
///
/// The shard is the unit of residency: the column keeps an `Arc` of its
/// base column and S cells, each empty or built. [`ShardedColumn::admit`]
/// builds the empty cells of a shard range — all S at once with one
/// routing pass over the base, or any smaller set with one filter pass
/// per shard — and hands the fresh columns to the caller to tag before
/// they are published. `T` is that tag; standalone use takes `()`.
pub struct ShardedColumn<V, T = ()> {
    plan: ShardPlan<V>,
    /// The base column every shard is a value-range filter of.
    base: Arc<Vec<V>>,
    cells: Vec<Arc<ShardCell<V, T>>>,
    /// Base rows per shard under `plan`: a pure function of the two,
    /// counted once and shared with every successor of the same plan, so
    /// a one-shard build is a single pass.
    counts: Arc<OnceLock<Box<[usize]>>>,
    /// Base name; shards built under plan version `v > 0` are named
    /// `{name}/v{v}/s{k}`.
    name: String,
    /// `(select, refine)` crack thread budgets of every shard built here.
    threads: (usize, usize),
    /// Piece size (in values) below which nobody refines further; sizes
    /// the coarse buckets of a whole build.
    piece_floor: usize,
    /// Plan version (0 at build; +1 per applied replan).
    version: u64,
}

/// One shard's coarse buckets: bucket `b` holds the values `v` with
/// `(max(v, lo) - lo) >> shift == b`, and the last bucket every larger
/// value too, so the arithmetic is total on `i64` and a value outside the
/// sampled extremes lands in an edge bucket.
#[derive(Debug, Clone, Copy)]
struct Buckets {
    /// Lower edge of bucket 0.
    lo: i64,
    /// log2 of the bucket width.
    shift: u32,
    /// Index of the last bucket.
    last: u64,
    /// Id of bucket 0 among the attribute's buckets (shards in order).
    first_id: usize,
}

impl Buckets {
    /// Attribute-wide id of `v`'s bucket.
    #[inline(always)]
    fn id_of(&self, v: i64) -> usize {
        let d = (v.max(self.lo).wrapping_sub(self.lo) as u64) >> self.shift;
        self.first_id + d.min(self.last) as usize
    }

    /// The shard's attribute-wide bucket ids.
    fn ids(&self) -> std::ops::RangeInclusive<usize> {
        self.first_id..=self.first_id + self.last as usize
    }

    /// Lower key of bucket `b`, `0 < b <= last`: at most the shard's
    /// largest planned value, so it neither wraps nor leaves `V`.
    fn key<V: CrackValue>(&self, b: u64) -> V {
        V::from_i64(self.lo.wrapping_add((b << self.shift) as i64))
    }
}

/// Bucket geometry of every shard for a whole build of `rows` base rows.
/// Buckets per shard: the largest power of two that keeps the average
/// bucket at two `piece_floor`s or more — one crack above the size at
/// which the tuning daemon stops refining — within [`MAX_BUCKETS`] for the
/// attribute. A shard's range runs from its lower cut to just below its
/// upper one, the plan's sampled extremes standing in at the two edges; a
/// range narrower than the bucket count gets fewer buckets, an edge shard
/// of a plan without a sample gets one.
fn coarse_buckets<V: CrackValue>(
    plan: &ShardPlan<V>,
    rows: usize,
    piece_floor: usize,
) -> Vec<Buckets> {
    let s = plan.shards();
    let per_shard = (rows / s / (2 * piece_floor.max(1))).clamp(1, (MAX_BUCKETS / s).max(1));
    let log2 = per_shard.ilog2();
    let cut = |i: usize| plan.cuts[i].as_i64();
    let mut first_id = 0;
    (0..s)
        .map(|k| {
            let lo = match k {
                0 => plan.extremes.map(|e| e.0.as_i64()),
                k => Some(cut(k - 1)),
            };
            let top = match k + 1 == s {
                true => plan.extremes.map(|e| e.1.as_i64()),
                // Wraps only under a cut at `MIN`, whose shard is empty.
                false => Some(cut(k).wrapping_sub(1)),
            };
            let (lo, span) = match (lo, top) {
                (Some(lo), Some(top)) => (lo, top.max(lo).wrapping_sub(lo) as u64),
                _ => (0, 0),
            };
            // Smallest shift that maps the span below `2^log2` buckets.
            let bits = u64::BITS - span.leading_zeros();
            let shift = bits.saturating_sub(log2).min(u64::BITS - 1);
            let last = (span >> shift).min((1u64 << log2) - 1);
            let buckets = Buckets {
                lo,
                shift,
                last,
                first_id,
            };
            first_id += last as usize + 1;
            buckets
        })
        .collect()
}

/// One shard of a whole build: its values with each coarse bucket
/// contiguous, buckets in key order; the bucket boundaries (`key →
/// position`, none with an empty side); its smallest and largest value.
struct Routed<V> {
    vals: Vec<V>,
    bounds: Vec<(V, usize)>,
    domain: Option<(V, V)>,
}

thread_local! {
    /// Bucket id per base tuple, between the two passes of [`route_all`]:
    /// kept per thread so a build neither zero-fills nor page-faults a
    /// fresh buffer (one byte per row of the longest base routed here).
    static BUCKET_IDS: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Bytes in a cache line: the unit [`route_all`]'s scatter writes.
const LINE: usize = 64;

/// One bucket's cache line of the scatter, staged until it is full.
#[derive(Clone, Copy)]
#[repr(align(64))]
struct Line([u8; LINE]);

/// Writes the staged `line` to `dst` without reading `dst` into the cache:
/// SSE2's streaming store, baseline on x86_64 (no detection, no
/// `target_feature`); an ordinary copy elsewhere.
///
/// # Safety
/// `dst` is 64-byte aligned, valid for 64 bytes of writes and read by
/// nobody before [`fence_lines`] runs on this thread.
#[inline(always)]
unsafe fn store_line(dst: *mut u8, line: &Line) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: both sides are 16-byte aligned (`Line` and the caller's
    // `dst` are 64-byte aligned) and valid for 64 bytes; SSE2 is baseline.
    unsafe {
        use std::arch::x86_64::{__m128i, _mm_load_si128, _mm_stream_si128};
        let (src, dst) = (line.0.as_ptr().cast::<__m128i>(), dst.cast::<__m128i>());
        for i in 0..LINE / 16 {
            _mm_stream_si128(dst.add(i), _mm_load_si128(src.add(i)));
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    // SAFETY: the caller's contract; a local buffer never overlaps `dst`.
    unsafe {
        std::ptr::copy_nonoverlapping(line.0.as_ptr(), dst, LINE)
    }
}

/// Orders every line [`store_line`] streamed on this thread before the
/// loads and stores that follow (`sfence`; ordinary stores need none).
#[inline(always)]
fn fence_lines() {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: SSE2 is baseline on x86_64.
    unsafe {
        std::arch::x86_64::_mm_sfence()
    }
}

/// Range-partitions the whole base two levels deep in two passes: every
/// value goes to its shard by the plan's cuts and, inside the shard, to its
/// coarse bucket ([`coarse_buckets`]). The first pass counts the buckets,
/// the second writes each value to its place in exactly-sized shard vectors
/// (allocated with [`shard_capacity`]) through one staged cache line per
/// bucket: a line the bucket covers whole goes out with streaming
/// stores, which neither read it for ownership nor evict another bucket's
/// line (the bucket cursors start a fixed stride apart and would map to
/// the same few cache sets); the partial lines at a bucket's two edges,
/// shared with its neighbours, are copied slot by slot. Values only: a
/// shard re-derives its row ids from the base when something first reads
/// one ([`crate::row_ids`]). At most [`MAX_BUCKETS`] shards.
///
/// With metrics on, each build counts `cracking_whole_builds_total` and
/// times its passes into `cracking_whole_build_count_ns` and
/// `cracking_whole_build_scatter_ns`.
fn route_all<V: CrackValue>(base: &[V], plan: &ShardPlan<V>, piece_floor: usize) -> Vec<Routed<V>> {
    let width = std::mem::size_of::<V>();
    assert_eq!(LINE % width, 0, "a value's width divides the cache line");
    let geometry = coarse_buckets(plan, base.len(), piece_floor);
    let buckets = geometry.last().map_or(0, |g| g.ids().end() + 1);
    assert!(buckets <= MAX_BUCKETS, "bucket ids must fit a byte");
    let cuts: Vec<i64> = plan.cuts.iter().map(|c| c.as_i64()).collect();
    let timed = holix_telemetry::metrics_enabled().then(std::time::Instant::now);
    BUCKET_IDS.with_borrow_mut(|ids| {
        if ids.len() < base.len() {
            ids.resize(base.len(), 0);
        }
        let ids = &mut ids[..base.len()];

        // Pass 1, branch-free: a value's shard is the number of cuts at or
        // below it, its bucket a subtraction and a shift.
        let mut hist = [0usize; MAX_BUCKETS];
        for (&v, id) in base.iter().zip(ids.iter_mut()) {
            let v = v.as_i64();
            let k: usize = cuts.iter().map(|&c| (c <= v) as usize).sum();
            *id = geometry[k].id_of(v) as u8;
            hist[*id as usize] += 1;
        }
        let counted = timed.map(|t0| (t0.elapsed(), std::time::Instant::now()));

        // Exactly-sized vectors, and per bucket the shard array it lives
        // in, the position it starts at and that slot's address.
        let mut out: Vec<Routed<V>> = Vec::with_capacity(geometry.len());
        let mut vals_of = [std::ptr::null_mut::<V>(); MAX_BUCKETS];
        let mut cursor = [0usize; MAX_BUCKETS];
        let mut first = [std::ptr::null_mut::<u8>(); MAX_BUCKETS];
        for g in &geometry {
            let count: usize = hist[g.ids()].iter().sum();
            let mut shard = Routed {
                vals: Vec::with_capacity(shard_capacity(count)),
                bounds: Vec::with_capacity(g.last as usize),
                domain: None,
            };
            // No value straddles two lines (holds wherever a value's
            // alignment is its width).
            assert_eq!(shard.vals.as_ptr() as usize % width, 0, "unaligned shard");
            let mut pos = 0;
            for id in g.ids() {
                // A boundary with an empty side would only add an empty
                // piece.
                let left = shard.bounds.last().map_or(0, |b: &(V, usize)| b.1);
                if left < pos && pos < count {
                    shard.bounds.push((g.key((id - g.first_id) as u64), pos));
                }
                vals_of[id] = shard.vals.as_mut_ptr();
                cursor[id] = pos;
                first[id] = shard.vals.as_mut_ptr().wrapping_add(pos).cast();
                pos += hist[id];
            }
            out.push(shard);
        }

        // Pass 2: every value to its bucket's cursor, through the slot of
        // the bucket's staged line that sits at the destination's offset
        // inside its cache line. The value that fills a line's last slot
        // flushes the line: streamed whole when the bucket starts at or
        // before the line's start, else (the bucket's first line) copied
        // from the bucket's first slot on.
        let mut lines = [Line([0; LINE]); MAX_BUCKETS];
        for (&v, &id) in base.iter().zip(ids.iter()) {
            let id = id as usize;
            let pos = cursor[id];
            cursor[id] = pos + 1;
            // SAFETY: this pass reads back the ids pass 1 counted, so the
            // cursor of bucket `id` has advanced fewer than `hist[id]`
            // times: `pos` lies inside the bucket's own range of its shard's
            // first `count` slots, which are allocated (capacity above
            // `count`), written by no other bucket, and hold `Copy` values,
            // so nothing is dropped. Ids that no tuple has (null pointers)
            // are never read back. A slot's address is a multiple of the
            // width (asserted per shard), which divides `LINE` (asserted
            // above), so the value fits its staged line at `off`, aligned.
            // A flushed line ends at `end`, one past `pos`, and `len` is the
            // part of it at or after the bucket's first slot `first[id]`:
            // a streamed line (`len == LINE`) lies inside `[first[id],
            // end)`, the bucket's own slots, each staged by this pass in
            // order; a copied one writes only that part. Nothing reads the
            // vectors before the fence below.
            unsafe {
                let dst = vals_of[id].add(pos).cast::<u8>();
                let off = dst.addr() % LINE;
                let line = &mut lines[id];
                line.0.as_mut_ptr().add(off).cast::<V>().write(v);
                if off + width == LINE {
                    let end = dst.add(width);
                    let len = LINE.min(end.addr() - first[id].addr());
                    match len == LINE {
                        true => store_line(end.sub(LINE), line),
                        false => {
                            let src = line.0.as_ptr().add(LINE - len);
                            std::ptr::copy_nonoverlapping(src, end.sub(len), len);
                        }
                    }
                }
            }
        }
        // Each bucket's last line, the same way: the staged bytes of its
        // line before the cursor (none when the bucket ended on a line edge
        // and the loop flushed it), from the bucket's first slot on.
        for id in (0..buckets).filter(|&id| hist[id] > 0) {
            // SAFETY: as in the loop; `end` is one past the bucket's last
            // slot, and the copy writes `[end - len, end)`, which starts at
            // or after `first[id]` and holds staged values of this bucket.
            unsafe {
                let end = vals_of[id].add(cursor[id]).cast::<u8>();
                let off = end.addr() % LINE;
                let len = off.min(end.addr() - first[id].addr());
                let src = lines[id].0.as_ptr().add(off - len);
                std::ptr::copy_nonoverlapping(src, end.sub(len), len);
            }
        }
        // Streamed lines are weakly ordered: the fence puts them before the
        // reads below and before the vectors are published.
        fence_lines();
        if let Some((count_time, t1)) = counted {
            holix_telemetry::counter!("cracking_whole_builds_total").inc();
            holix_telemetry::histogram!("cracking_whole_build_count_ns")
                .record(count_time.as_nanos() as u64);
            holix_telemetry::histogram!("cracking_whole_build_scatter_ns")
                .record(t1.elapsed().as_nanos() as u64);
        }

        for (g, shard) in geometry.iter().zip(&mut out) {
            let mut count = 0;
            for id in g.ids() {
                count += hist[id];
                assert_eq!(cursor[id], count, "bucket {id} was not filled exactly");
            }
            // SAFETY: the buckets of this shard tile `0..count` and each
            // cursor stopped at its bucket's end (just asserted), so pass
            // 2 staged every one of the first `count` slots, and each
            // staged line reached the vector once — flushed when its last
            // slot filled, or by the tail copy — before the fence.
            unsafe { shard.vals.set_len(count) };
            // Pieces are in key order and none is empty: the extremes sit
            // in the first and the last.
            let first = shard.bounds.first().map_or(count, |b| b.1);
            let last = shard.bounds.last().map_or(0, |b| b.1);
            let min = shard.vals[..first].iter().copied().reduce(V::min);
            let max = shard.vals[last..].iter().copied().reduce(V::max);
            shard.domain = min.zip(max);
        }
        out
    })
}

/// Base rows per shard of `plan` (branch-free: a value's shard is the
/// number of cuts at or below it).
fn count_shards<V: CrackValue>(base: &[V], plan: &ShardPlan<V>) -> Box<[usize]> {
    let mut counts = vec![0usize; plan.shards()];
    for &v in base {
        let k: usize = plan.cuts.iter().map(|&c| (c <= v) as usize).sum();
        counts[k] += 1;
    }
    counts.into()
}

/// Slots a shard vector of `count` values is allocated with: 25 % headroom
/// for the first Ripple inserts, and at least one slot past the values.
fn shard_capacity(count: usize) -> usize {
    count + count / 4 + 1
}

/// The `count` base values in `[lo, hi)` (`None` = unbounded), in base
/// order, in a vector of [`shard_capacity`], from one filter pass with the
/// kernel of [`kernels::active_isa`].
fn filter_pass<V: CrackValue>(base: &[V], count: usize, lo: Option<V>, hi: Option<V>) -> Vec<V> {
    filter_pass_on(kernels::active_isa(), base, count, lo, hi)
}

/// [`filter_pass`] with the kernel of `isa`: on [`Isa::Avx512`] an `i64`
/// base takes the compress-store filter, anything else the portable loop.
/// Panics when the base holds other than `count` values in range; either
/// kernel writes inside the vector's capacity only, straight into it.
fn filter_pass_on<V: CrackValue>(
    isa: Isa,
    base: &[V],
    count: usize,
    lo: Option<V>,
    hi: Option<V>,
) -> Vec<V> {
    let mut vals = Vec::with_capacity(shard_capacity(count));
    // One slot past `count` takes the portable loop's writes of rejected
    // values that follow the last kept one.
    let out = &mut vals.spare_capacity_mut()[..count + 1];
    let kept = 'pass: {
        if isa == Isa::Avx512 {
            #[cfg(target_arch = "x86_64")]
            if let (Some(base), Some(out)) =
                (kernels::same_lanes_ref(base), kernels::same_lanes(out))
            {
                let (lo, hi) = (lo.map(V::as_i64), hi.map(V::as_i64));
                break 'pass kernels::avx512::filter(base, lo, hi, out);
            }
        }
        match (lo, hi) {
            (None, None) => filter_portable(base, out, |_| true),
            (Some(lo), None) => filter_portable(base, out, |v| lo <= v),
            (None, Some(hi)) => filter_portable(base, out, |v| v < hi),
            (Some(lo), Some(hi)) => filter_portable(base, out, |v| (lo <= v) & (v < hi)),
        }
    };
    assert_eq!(kept, count, "shard counts disagree with the base column");
    // SAFETY: the pass wrote the `kept == count` values `keep` accepts to
    // the first `count` slots.
    unsafe { vals.set_len(count) };
    vals
}

/// The values `keep` accepts to the front of `out`, branch-free: every
/// value is written at the cursor, which only advances past a kept one, so
/// `out` needs a slot past the last kept value. Returns how many; panics
/// rather than write beyond `out`.
fn filter_portable<V: CrackValue>(
    base: &[V],
    out: &mut [MaybeUninit<V>],
    keep: impl Fn(V) -> bool,
) -> usize {
    let mut c = 0;
    for &v in base {
        assert!(c < out.len(), "more values in range than the output holds");
        out[c].write(v);
        c += keep(v) as usize;
    }
    c
}

impl<V: CrackValue, T> ShardedColumn<V, T> {
    /// A column over `base` with every cell empty: nothing is copied until
    /// [`ShardedColumn::admit`] builds a shard.
    pub fn lazy(name: &str, base: Arc<Vec<V>>, plan: ShardPlan<V>) -> Self {
        ShardedColumn {
            cells: (0..plan.shards()).map(|_| ShardCell::empty()).collect(),
            plan,
            base,
            counts: Arc::default(),
            name: name.to_string(),
            threads: (1, 1),
            piece_floor: (L1_BYTES / V::width()).max(1),
            version: 0,
        }
    }

    /// Sets every shard's crack thread budgets (see
    /// [`CrackerColumn::with_threads`]). A build-time choice: call it on
    /// the freshly made column, before any shard is shared.
    pub fn with_threads(mut self, select: usize, refine: usize) -> Self {
        self.threads = (select, refine);
        for cell in &mut self.cells {
            let built = Arc::get_mut(cell).and_then(|c| c.built.get_mut());
            if let Some((shard, _)) = built {
                Arc::get_mut(shard)
                    .expect("with_threads runs before shards are shared")
                    .set_threads(select, refine);
            }
        }
        self
    }

    /// Sets the piece size, in values, at which refinement stops paying
    /// (the owner's `|L1|`; defaults to 32 KiB worth): a whole build makes
    /// its coarse buckets about twice that. A build-time choice like
    /// [`ShardedColumn::with_threads`].
    pub fn with_piece_floor(mut self, values: usize) -> Self {
        self.piece_floor = values.max(1);
        self
    }

    /// The partitioning plan.
    pub fn plan(&self) -> &ShardPlan<V> {
        &self.plan
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.cells.len()
    }

    /// Shard `k`'s cracker column and tag, `None` while the cell is empty.
    /// Lock-free.
    pub fn resident(&self, k: usize) -> Option<(&Arc<CrackerColumn<V>>, &T)> {
        self.cells[k].built.get().map(|(shard, tag)| (shard, tag))
    }

    /// Shard `k`'s cracker column. Panics on an empty cell: callers either
    /// built the column eagerly or admitted `k` first.
    pub fn shard(&self, k: usize) -> &Arc<CrackerColumn<V>> {
        self.resident(k).expect("shard is not resident").0
    }

    /// Base rows shard `k` holds under this plan, once some build has
    /// counted them (`None` before). Never counts by itself.
    pub fn shard_rows(&self, k: usize) -> Option<usize> {
        self.counts.get().map(|c| c[k])
    }

    /// The resident shards' cracker columns, in shard order.
    pub fn resident_shards(&self) -> impl Iterator<Item = &Arc<CrackerColumn<V>>> {
        self.cells
            .iter()
            .filter_map(|c| c.built.get().map(|(shard, _)| shard))
    }

    /// Shard `k`'s cracker column, built by `make` from the shard's name.
    fn new_shard(
        &self,
        k: usize,
        make: impl FnOnce(String) -> CrackerColumn<V>,
    ) -> Arc<CrackerColumn<V>> {
        let name = match self.version {
            0 => format!("{}/s{k}", self.name),
            v => format!("{}/v{v}/s{k}", self.name),
        };
        let (select, refine) = self.threads;
        Arc::new(make(name).with_threads(select, refine))
    }

    /// Shard `k` over migrated tuples in no particular order: one piece,
    /// row ids stored (after updates a shard is no filter of the base).
    fn one_piece_shard(&self, k: usize, vals: Vec<V>, rows: Vec<RowId>) -> Arc<CrackerColumn<V>> {
        self.new_shard(k, |name| CrackerColumn::from_parts(name, vals, rows))
    }

    /// Shard `k` over `vals`, the base values of its range laid out in the
    /// pieces of `bounds`: born without row ids, which it re-derives from
    /// the base when something first reads one.
    fn base_shard(
        &self,
        k: usize,
        vals: Vec<V>,
        bounds: &[(V, usize)],
        domain: Option<(V, V)>,
    ) -> Arc<CrackerColumn<V>> {
        let (lo, hi) = self.shard_range(k);
        let source = RowSource::new(Arc::clone(&self.base), lo, hi);
        self.new_shard(k, |name| {
            CrackerColumn::from_source(name, vals, source, bounds, domain)
        })
    }

    /// Shard `k`'s value range `[lo, hi)` under the plan (`None` =
    /// unbounded).
    fn shard_range(&self, k: usize) -> (Option<V>, Option<V>) {
        let cuts = self.plan.cuts();
        (k.checked_sub(1).map(|i| cuts[i]), cuts.get(k).copied())
    }

    /// Shard `k`'s values alone, filtered out of the base in one pass. With
    /// metrics on, each build counts `cracking_shard_builds_total` and is
    /// timed into `cracking_shard_build_ns`.
    fn filter_parts(&self, k: usize) -> Vec<V> {
        let timed = holix_telemetry::metrics_enabled().then(std::time::Instant::now);
        let base = &self.base[..];
        let count = self.counts.get_or_init(|| count_shards(base, &self.plan))[k];
        let (lo, hi) = self.shard_range(k);
        let vals = filter_pass(base, count, lo, hi);
        if let Some(t0) = timed {
            holix_telemetry::counter!("cracking_shard_builds_total").inc();
            holix_telemetry::histogram!("cracking_shard_build_ns")
                .record(t0.elapsed().as_nanos() as u64);
        }
        vals
    }

    /// Makes shards `first..=last` resident. The empty cells among them
    /// are built — all S at once with the two-level range partition
    /// (each shard born with its coarse buckets as pieces), a smaller set
    /// with one filter pass each (one piece) — then `tag` sees the fresh
    /// columns as one batch (ascending shard order) and returns one tag
    /// per column, and column and tag are published together. All of it runs
    /// under the build locks of the touched cells, so two racing callers
    /// build, tag and publish each shard exactly once.
    pub fn admit(
        &self,
        first: usize,
        last: usize,
        tag: impl FnOnce(&[Arc<CrackerColumn<V>>]) -> Vec<T>,
    ) {
        // Ascending order on every path: multi-cell admissions never
        // deadlock against each other.
        let _builders: Vec<_> = self.cells[first..=last]
            .iter()
            .map(|c| c.build.lock())
            .collect();
        let missing: Vec<usize> = (first..=last)
            .filter(|&k| self.cells[k].built.get().is_none())
            .collect();
        if missing.is_empty() {
            return;
        }
        // (More shards than bucket ids: shard by shard as well.)
        let whole = missing.len() == self.cells.len() && self.cells.len() <= MAX_BUCKETS;
        let fresh: Vec<Arc<CrackerColumn<V>>> = if whole {
            let routed = route_all(&self.base, &self.plan, self.piece_floor);
            self.counts
                .get_or_init(|| routed.iter().map(|shard| shard.vals.len()).collect());
            routed
                .into_iter()
                .enumerate()
                .map(|(k, shard)| self.base_shard(k, shard.vals, &shard.bounds, shard.domain))
                .collect()
        } else {
            missing
                .iter()
                .map(|&k| self.base_shard(k, self.filter_parts(k), &[], None))
                .collect()
        };
        let tags = tag(&fresh);
        assert_eq!(tags.len(), fresh.len(), "one tag per admitted shard");
        for ((k, shard), tag) in missing.into_iter().zip(fresh).zip(tags) {
            let published = self.cells[k].built.set((shard, tag));
            assert!(published.is_ok(), "cell filled under its own build lock");
        }
    }

    /// The successor that has fresh empty cells for `shards` and shares
    /// every other cell — what an owner swaps in when those shards were
    /// evicted. Survivors keep their cracks, tags, snapshots and filters;
    /// an admission racing the swap in a shared empty cell lands in both.
    pub fn vacated(&self, shards: &[usize]) -> Self {
        ShardedColumn {
            plan: self.plan.clone(),
            base: Arc::clone(&self.base),
            cells: (0..self.cells.len())
                .map(|k| match shards.contains(&k) {
                    true => ShardCell::empty(),
                    false => Arc::clone(&self.cells[k]),
                })
                .collect(),
            counts: Arc::clone(&self.counts),
            name: self.name.clone(),
            threads: self.threads,
            piece_floor: self.piece_floor,
            version: self.version,
        }
    }

    /// Shard indices intersecting `pred`, each with the predicate clamped
    /// to the shard's value range.
    pub fn intersecting(&self, pred: Predicate<V>) -> Vec<(usize, Predicate<V>)> {
        let Some((first, last)) = self.plan.shard_range(pred.lo, pred.hi) else {
            return Vec::new();
        };
        (first..=last)
            .map(|k| (k, self.plan.clamp(k, pred)))
            .collect()
    }

    // ------------------------------------------------------------------
    // Fan-out over resident shards. Production query paths live in
    // `holix_engine::HolisticEngine` (which fans out inline to record
    // per-shard index statistics and admits the shards it routes to);
    // these wrappers are the crate-level correctness surface for columns
    // built eagerly or admitted by the caller — like
    // [`ShardedColumn::shard`] they panic on an empty cell.
    // ------------------------------------------------------------------

    /// Fan-out verified select: counts plus checksums across shards.
    /// Concurrent updates between per-shard select and checksum are the
    /// caller's responsibility, exactly as for
    /// [`CrackerColumn::select_verified`].
    pub fn select_verified(
        &self,
        pred: Predicate<V>,
        scratch: &mut CrackScratch<V>,
    ) -> (Vec<(usize, Selection)>, RangeStats) {
        let mut sels = Vec::new();
        let mut stats = RangeStats::default();
        for (k, p) in self.intersecting(pred) {
            let (sel, s) = self.shard(k).select_verified(p, scratch);
            stats.merge(s);
            sels.push((k, sel));
        }
        (sels, stats)
    }

    /// Snapshot scan across the shards `pred` intersects: each touched
    /// shard hands out **its own snapshot** and takes no structure lock
    /// (the paper-scale property: a Ripple merge in one value range never
    /// stalls readers of any other shard, and with snapshots not even
    /// readers of the same shard). Aggregates are merged across shards.
    pub fn snapshot_scan(&self, pred: Predicate<V>, scratch: &mut CrackScratch<V>) -> SnapshotScan {
        let mut out = SnapshotScan::default();
        for (k, p) in self.intersecting(pred) {
            let scan = self.shard(k).snapshot_scan(p, scratch);
            out.count += scan.count;
            out.sum += scan.sum;
            out.filtered += scan.filtered;
        }
        out
    }

    /// Collect of qualifying values across intersecting shards (same
    /// protocol as [`ShardedColumn::snapshot_scan`]).
    pub fn snapshot_collect(
        &self,
        pred: Predicate<V>,
        scratch: &mut CrackScratch<V>,
        out: &mut Vec<V>,
    ) -> SnapshotScan {
        let mut total = SnapshotScan::default();
        for (k, p) in self.intersecting(pred) {
            let scan = self.shard(k).snapshot_collect(p, scratch, out);
            total.count += scan.count;
            total.sum += scan.sum;
            total.filtered += scan.filtered;
        }
        total
    }

    /// Point-membership probe (no column lock), routed to the one shard owning
    /// `v`'s value range. `Some(false)` proves no tuple with value `v`
    /// exists anywhere in the attribute; `None` means the owning shard has
    /// no filter yet (callers fall back or pay
    /// [`ShardedColumn::ensure_point_filter`] on that shard).
    pub fn probe_point(&self, v: V) -> Option<bool> {
        self.shard(self.plan.shard_of(v)).probe_point(v)
    }

    /// Builds the point filter of the shard owning `v` (no-op once built).
    /// Lazy by value, not per-column: a point probe only pays the build on
    /// the single shard it routes to, cold shards stay untouched.
    pub fn ensure_point_filter(&self, v: V) {
        self.shard(self.plan.shard_of(v)).ensure_point_filter();
    }

    /// Routes an insertion to the shard owning `v`'s value range. `false`
    /// when that shard is sealed for migration — the caller retries
    /// against the successor plan.
    pub fn queue_insert(&self, v: V, row: RowId) -> bool {
        self.shard(self.plan.shard_of(v)).queue_insert(v, row)
    }

    /// Routes a deletion to the shard owning `v`'s value range. `false`
    /// when that shard is sealed for migration.
    pub fn queue_delete(&self, v: V, row: RowId) -> bool {
        self.shard(self.plan.shard_of(v)).queue_delete(v, row)
    }

    // ------------------------------------------------------------------
    // Dynamic replanning
    // ------------------------------------------------------------------

    /// Plan version: 0 at build, +1 per applied replan.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Base attribute name this sharded column was built under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Builds the successor column for one replan action. Shards the
    /// action does not name keep their cells — indices, latches,
    /// snapshots and point filters survive untouched — while the named
    /// shard(s) are sealed, drained via
    /// [`CrackerColumn::extract_for_migration`] and rebuilt under the
    /// successor plan; `tag` then tags the rebuilt shards (ascending) or
    /// abandons the cutover with `None`. The predecessor stays fully
    /// readable (in-flight old-plan queries finish against it) but its
    /// migrated shards reject updates. Returns `None` when the action
    /// cannot produce a valid plan (splitting a shard whose values are all
    /// equal, an out-of-range index, a named shard that is not resident)
    /// or was abandoned; a split that comes to nothing unseals its shard
    /// so the predecessor keeps accepting updates.
    pub fn apply_replan_with(
        &self,
        action: ReplanAction,
        tag: impl FnOnce(&[Arc<CrackerColumn<V>>]) -> Option<Vec<T>>,
    ) -> Option<Self> {
        let replaced = action.replaced();
        if *replaced.end() >= self.cells.len()
            || replaced.clone().any(|k| self.resident(k).is_none())
        {
            return None;
        }
        let k = *replaced.start();
        let version = self.version + 1;
        let mut cuts = self.plan.cuts().to_vec();
        let parts = match action {
            ReplanAction::Split { .. } => {
                let (left, cut, right) = self.split_shard(k)?;
                cuts.insert(k, cut);
                vec![left, right]
            }
            ReplanAction::Merge { .. } => {
                let (mut vals, mut rows) = self.shard(k).extract_for_migration();
                let (rv, rr) = self.shard(k + 1).extract_for_migration();
                vals.extend(rv);
                rows.extend(rr);
                cuts.remove(k);
                vec![(vals, rows)]
            }
        };
        let mut successor = ShardedColumn {
            plan: ShardPlan {
                extremes: self.plan.extremes,
                ..ShardPlan::from_cuts(cuts)
            },
            base: Arc::clone(&self.base),
            cells: Vec::with_capacity(self.cells.len() + 1),
            // A different plan: the base is recounted by its first
            // one-shard build.
            counts: Arc::default(),
            name: self.name.clone(),
            threads: self.threads,
            piece_floor: self.piece_floor,
            version,
        };
        let fresh: Vec<Arc<CrackerColumn<V>>> = parts
            .into_iter()
            .enumerate()
            .map(|(i, (vals, rows))| successor.one_piece_shard(k + i, vals, rows))
            .collect();
        let Some(tags) = tag(&fresh) else {
            for k in replaced {
                self.shard(k).unseal_after_aborted_migration();
            }
            return None;
        };
        assert_eq!(tags.len(), fresh.len(), "one tag per rebuilt shard");
        successor.cells.extend(self.cells[..k].iter().cloned());
        for built in fresh.into_iter().zip(tags) {
            let cell = ShardCell::empty();
            let _ = cell.built.set(built);
            successor.cells.push(cell);
        }
        successor
            .cells
            .extend(self.cells[replaced.end() + 1..].iter().cloned());
        Some(successor)
    }

    /// Drains shard `k` and splits it at its median value (falling back to
    /// the smallest value above the shard minimum under heavy duplication,
    /// so both halves stay non-empty): `(left, cut, right)`.
    #[allow(clippy::type_complexity)]
    fn split_shard(&self, k: usize) -> Option<((Vec<V>, Vec<RowId>), V, (Vec<V>, Vec<RowId>))> {
        let (vals, rows) = self.shard(k).extract_for_migration();
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        let cut = sorted.first().and_then(|&min| {
            let mid = sorted[sorted.len() / 2];
            if mid > min {
                Some(mid)
            } else {
                sorted.iter().copied().find(|&v| v > min)
            }
        });
        let Some(cut) = cut else {
            // All values equal (or the shard is empty): no interior cut
            // exists. Reopen the shard — no successor will be published.
            self.shard(k).unseal_after_aborted_migration();
            return None;
        };
        // `cut` lies strictly between the shard's neighbouring plan cuts
        // (it is a shard value above the shard minimum), so the new cut
        // vector stays strictly increasing.
        let (mut lv, mut lr) = (Vec::new(), Vec::new());
        let (mut rv, mut rr) = (Vec::new(), Vec::new());
        for (v, r) in vals.into_iter().zip(rows) {
            if v < cut {
                lv.push(v);
                lr.push(r);
            } else {
                rv.push(v);
                rr.push(r);
            }
        }
        Some(((lv, lr), cut, (rv, rr)))
    }

    /// Merged tuples across resident shards (excludes pending inserts).
    pub fn len(&self) -> usize {
        self.resident_shards().map(|s| s.len()).sum()
    }

    /// `true` when no merged tuples exist in any resident shard.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total pieces across resident shards.
    pub fn piece_count(&self) -> usize {
        self.resident_shards().map(|s| s.piece_count()).sum()
    }

    /// Unmerged pending operations across resident shards.
    pub fn pending_len(&self) -> usize {
        self.resident_shards().map(|s| s.pending_len()).sum()
    }
}

/// The untagged column, for standalone use and the sharding tests.
impl<V: CrackValue> ShardedColumn<V> {
    /// Builds every shard from a base column with a precomputed plan. Each
    /// base tuple lands in exactly one shard, keeping its global row id.
    pub fn from_base_with_plan(name: &str, base: &[V], plan: ShardPlan<V>) -> Self {
        let col = Self::lazy(name, Arc::new(base.to_vec()), plan);
        col.admit(0, col.shard_count() - 1, |fresh| vec![(); fresh.len()]);
        col
    }

    /// [`ShardedColumn::apply_replan_with`] for the untagged column.
    pub fn apply_replan(&self, action: ReplanAction) -> Option<ShardedColumn<V>> {
        self.apply_replan_with(action, |fresh| Some(vec![(); fresh.len()]))
    }
}

impl<V: CrackValue, T> std::fmt::Debug for ShardedColumn<V, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedColumn")
            .field("shards", &self.cells.len())
            .field("resident", &self.resident_shards().count())
            .field("len", &self.len())
            .field("pieces", &self.piece_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holix_storage::select::scan_stats;
    use proptest::prelude::*;
    use rand::prelude::*;

    fn base(n: usize, domain: i64, seed: u64) -> Vec<i64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.random_range(0..domain)).collect()
    }

    #[test]
    fn plan_produces_balanced_shards() {
        let b = base(100_000, 1_000_000, 1);
        let plan = ShardPlan::from_values(&b, 4);
        assert_eq!(plan.shards(), 4);
        let col = ShardedColumn::from_base_with_plan("a", &b, plan);
        let sizes: Vec<usize> = (0..4).map(|k| col.shard(k).len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 100_000);
        for &s in &sizes {
            assert!(
                (20_000..=30_000).contains(&s),
                "unbalanced shards {sizes:?}"
            );
        }
    }

    #[test]
    fn plan_collapses_on_tiny_domains() {
        // Two distinct values cannot support four shards.
        let b: Vec<i64> = (0..1_000).map(|i| i % 2).collect();
        let plan = ShardPlan::from_values(&b, 4);
        assert!(plan.shards() <= 2, "plan {plan:?}");
        let col = ShardedColumn::from_base_with_plan("a", &b, plan);
        assert_eq!(col.len(), 1_000);
    }

    #[test]
    fn shard_of_and_range_agree_with_cuts() {
        let plan = ShardPlan::from_cuts(vec![100i64, 200, 300]);
        assert_eq!(plan.shard_of(0), 0);
        assert_eq!(plan.shard_of(99), 0);
        assert_eq!(plan.shard_of(100), 1);
        assert_eq!(plan.shard_of(299), 2);
        assert_eq!(plan.shard_of(300), 3);
        assert_eq!(plan.shard_range(0, 100), Some((0, 0)));
        assert_eq!(plan.shard_range(0, 101), Some((0, 1)));
        assert_eq!(plan.shard_range(150, 250), Some((1, 2)));
        assert_eq!(plan.shard_range(300, 999), Some((3, 3)));
        assert_eq!(plan.shard_range(50, 50), None);
    }

    #[test]
    fn clamp_widens_covered_bounds_to_sentinels() {
        let plan = ShardPlan::from_cuts(vec![100i64, 200]);
        let pred = Predicate::range(50, 250);
        // Shard 0 [MIN,100): lower bound inside, upper covered.
        assert_eq!(plan.clamp(0, pred), Predicate::range(50, i64::MAX));
        // Shard 1 [100,200): fully covered — no crack at either end.
        assert_eq!(plan.clamp(1, pred), Predicate::range(i64::MIN, i64::MAX));
        // Shard 2 [200,MAX): upper bound inside.
        assert_eq!(plan.clamp(2, pred), Predicate::range(i64::MIN, 250));
    }

    #[test]
    fn sharded_select_matches_scan_oracle() {
        let b = base(50_000, 10_000, 2);
        let plan = ShardPlan::from_values(&b, 4);
        let col = ShardedColumn::from_base_with_plan("a", &b, plan);
        let mut scratch = CrackScratch::new();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let x = rng.random_range(0..10_000);
            let y = rng.random_range(0..10_000);
            let pred = Predicate::range(x.min(y), x.max(y).max(x.min(y) + 1));
            let (sels, stats) = col.select_verified(pred, &mut scratch);
            let oracle = scan_stats(&b, pred);
            assert_eq!(stats, oracle);
            let count: u64 = sels.iter().map(|(_, s)| s.count()).sum();
            assert_eq!(count, oracle.count);
        }
        for k in 0..col.shard_count() {
            col.shard(k).check_invariants(None);
        }
    }

    #[test]
    fn interior_shards_answer_without_cracking() {
        let b = base(40_000, 1_000, 4);
        let plan = ShardPlan::from_values(&b, 4);
        let col = ShardedColumn::from_base_with_plan("a", &b, plan.clone());
        let mut scratch = CrackScratch::new();
        // A range spanning all shards: interior shards must be exact hits
        // with zero touched tuples (whole shard qualifies, no crack).
        let parts = col.intersecting(Predicate::range(1, 999));
        assert_eq!(parts.len(), plan.shards());
        let sels: Vec<(usize, Selection)> = parts
            .into_iter()
            .map(|(k, p)| (k, col.shard(k).select(p, &mut scratch)))
            .collect();
        for (k, sel) in &sels[1..sels.len() - 1] {
            assert!(sel.exact_hit(), "interior shard {k} cracked");
            assert_eq!(sel.touched, 0);
            assert_eq!(sel.count(), col.shard(*k).len() as u64);
        }
    }

    #[test]
    fn updates_route_to_owning_shard_only() {
        let mut b = base(20_000, 1_000, 5);
        let plan = ShardPlan::from_values(&b, 4);
        let col = ShardedColumn::from_base_with_plan("a", &b, plan.clone());
        let n = b.len() as RowId;
        // One insert per shard region.
        let probes: Vec<i64> = (0..4)
            .map(|k| match k {
                0 => 0,
                k => plan.cuts()[k - 1],
            })
            .collect();
        for (i, &v) in probes.iter().enumerate() {
            col.queue_insert(v, n + i as RowId);
            b.push(v);
        }
        for (k, &v) in probes.iter().enumerate() {
            assert_eq!(col.shard(k).pending_len(), 1, "value {v} routed wrongly");
        }
        // Merge everything through a full-domain select and re-check counts.
        let mut scratch = CrackScratch::new();
        let pred = Predicate::range(0, 1_000);
        let (_, stats) = col.select_verified(pred, &mut scratch);
        assert_eq!(stats, scan_stats(&b, pred));
        assert_eq!(col.pending_len(), 0);
    }

    #[test]
    fn sharded_snapshot_scan_matches_oracle_under_updates() {
        let mut b = base(40_000, 10_000, 8);
        let plan = ShardPlan::from_values(&b, 4);
        let col = ShardedColumn::from_base_with_plan("a", &b, plan);
        let mut scratch = CrackScratch::new();
        let mut rng = StdRng::seed_from_u64(9);
        // Mix of snapshot scans and locked selects with updates arriving.
        for i in 0..60 {
            if i % 10 == 0 {
                let v = rng.random_range(0..10_000);
                col.queue_insert(v, (40_000 + i) as RowId);
                b.push(v);
            }
            let x = rng.random_range(0..10_000);
            let y = rng.random_range(0..10_000);
            let pred = Predicate::range(x.min(y), x.max(y).max(x.min(y) + 1));
            let oracle = scan_stats(&b, pred);
            let scan = col.snapshot_scan(pred, &mut scratch);
            assert_eq!((scan.count, scan.sum), (oracle.count, oracle.sum), "i={i}");
            let (_, locked) = col.select_verified(pred, &mut scratch);
            assert_eq!(locked, oracle, "i={i}");
        }
        // Collect across shard boundaries.
        let pred = Predicate::range(2_000, 8_000);
        let mut got = Vec::new();
        col.snapshot_collect(pred, &mut scratch, &mut got);
        got.sort_unstable();
        let mut want: Vec<i64> = b
            .iter()
            .copied()
            .filter(|&v| (2_000..8_000).contains(&v))
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn point_filter_screens_absent_values_without_cracking() {
        // Base holds only even values: every odd probe is filter-negative
        // (modulo Bloom false positives) and must crack nothing.
        let b: Vec<i64> = (0..20_000).map(|i| i * 2).collect();
        let plan = ShardPlan::from_values(&b, 4);
        let col = ShardedColumn::from_base_with_plan("a", &b, plan);
        for v in [1i64, 10_001, 39_999] {
            assert_eq!(col.probe_point(v), None, "filter built eagerly");
            col.ensure_point_filter(v);
        }
        let pieces_before = col.piece_count();
        let mut negatives = 0;
        for i in 0..1_000 {
            let v = i * 40 + 1; // odd → absent
            col.ensure_point_filter(v); // no-op once the owning shard built
            match col.probe_point(v) {
                Some(false) => negatives += 1,
                Some(true) => {}
                None => panic!("filter missing after ensure_point_filter({v})"),
            }
        }
        assert_eq!(
            col.piece_count(),
            pieces_before,
            "filter-negative probes must not crack"
        );
        assert!(
            negatives >= 980,
            "false-positive rate too high: {negatives}/1000 screened"
        );
        // Present values are never screened out.
        for v in [0i64, 10_000, 39_998] {
            col.ensure_point_filter(v);
            assert_eq!(col.probe_point(v), Some(true), "present value {v} screened");
        }
    }

    #[test]
    fn point_filter_covers_pending_and_racing_inserts() {
        let b: Vec<i64> = (0..10_000).map(|i| i * 2).collect();
        let plan = ShardPlan::from_values(&b, 2);
        let col = Arc::new(ShardedColumn::from_base_with_plan("a", &b, plan));
        // Queued before the build: the catch-up pass must see it.
        col.queue_insert(4_001, 10_000);
        col.ensure_point_filter(4_001);
        assert_eq!(col.probe_point(4_001), Some(true));
        // Racing inserts after publish: queue_insert ORs them in under the
        // pending mutex, so none may be reported absent.
        let writers: Vec<_> = (0..2)
            .map(|t| {
                let col = Arc::clone(&col);
                std::thread::spawn(move || {
                    for i in 0..500i64 {
                        let v = 100_001 + t * 1_000 + i * 2;
                        col.queue_insert(v, (20_000 + t * 1_000 + i) as RowId);
                    }
                })
            })
            .collect();
        let col2 = Arc::clone(&col);
        let reader = std::thread::spawn(move || {
            for i in 0..2_000i64 {
                // Values no writer ever inserts; screening stays sound.
                let _ = col2.probe_point(i * 2 + 1);
            }
        });
        for w in writers {
            w.join().unwrap();
        }
        reader.join().unwrap();
        for t in 0..2i64 {
            for i in 0..500i64 {
                let v = 100_001 + t * 1_000 + i * 2;
                col.ensure_point_filter(v);
                assert_eq!(col.probe_point(v), Some(true), "racing insert {v} dropped");
            }
        }
    }

    /// A shard's merged tuples as sorted `(value, row id)` pairs (seals the
    /// shard: for the end of a test).
    fn tuples(shard: &CrackerColumn<i64>) -> Vec<(i64, RowId)> {
        let (vals, rows) = shard.extract_for_migration();
        let mut pairs: Vec<_> = vals.into_iter().zip(rows).collect();
        pairs.sort_unstable();
        pairs
    }

    #[test]
    fn lazy_column_shares_its_base_and_builds_only_what_is_touched() {
        let base = Arc::new(base(20_000, 1_000, 30));
        let plan = ShardPlan::from_values(&base, 4);
        let col: ShardedColumn<i64> = ShardedColumn::lazy("a", Arc::clone(&base), plan);
        assert_eq!(Arc::strong_count(&base), 2, "the column copied its base");
        assert!((0..4).all(|k| col.resident(k).is_none()));
        assert_eq!(col.shard_rows(2), None, "nothing counted before a build");
        // One admitted shard answers the narrow select routed to it.
        let mut scratch = CrackScratch::new();
        let pred = Predicate::range(10, 20);
        col.admit(0, 0, |fresh| vec![(); fresh.len()]);
        let (sels, stats) = col.select_verified(pred, &mut scratch);
        assert_eq!(stats, scan_stats(&base, pred));
        assert_eq!(sels.len(), 1);
        assert!(col.resident(0).is_some());
        assert!((1..4).all(|k| col.resident(k).is_none()));
        assert_eq!(col.len(), col.shard_rows(0).unwrap());
        assert_eq!(
            (0..4).map(|k| col.shard_rows(k).unwrap()).sum::<usize>(),
            20_000
        );
        // The successor without shard 0 shares the base, the counts and
        // every other cell: a build in a shared cell lands in both.
        let next = col.vacated(&[0]);
        // (This handle, the two columns, and resident shard 0 — it derives
        // its row ids from the base.)
        assert_eq!(Arc::strong_count(&base), 4);
        assert!(next.resident(0).is_none());
        assert_eq!(next.shard_rows(0), col.shard_rows(0));
        next.admit(3, 3, |fresh| vec![(); fresh.len()]);
        assert!(Arc::ptr_eq(col.shard(3), next.shard(3)));
        // Rebuilt from the base, the vacated shard answers alike.
        next.admit(0, 0, |fresh| vec![(); fresh.len()]);
        let (_, again) = next.select_verified(pred, &mut scratch);
        assert_eq!(again, stats);
        assert!(!Arc::ptr_eq(col.shard(0), next.shard(0)));
    }

    /// The whole-attribute routing the two-level partition replaced, kept
    /// as the reference: every tuple to its shard by `shard_of`. Sorted
    /// `(value, row id)` pairs per shard.
    fn push_routing(base: &[i64], plan: &ShardPlan<i64>) -> Vec<Vec<(i64, RowId)>> {
        let mut shards = vec![Vec::new(); plan.shards()];
        for (r, &v) in base.iter().enumerate() {
            shards[plan.shard_of(v)].push((v, r as RowId));
        }
        for shard in &mut shards {
            shard.sort_unstable();
        }
        shards
    }

    /// The exact layout of a whole build: each shard's base values in base
    /// order, stably sorted by bucket id (a counting sort, which is what a
    /// scatter with plain stores to the bucket cursors writes).
    fn counting_sort<V: CrackValue>(base: &[V], plan: &ShardPlan<V>, floor: usize) -> Vec<Vec<V>> {
        let mut shards = vec![Vec::new(); plan.shards()];
        for &v in base {
            shards[plan.shard_of(v)].push(v);
        }
        let geometry = coarse_buckets(plan, base.len(), floor);
        for (g, shard) in geometry.iter().zip(&mut shards) {
            shard.sort_by_key(|v| g.id_of(v.as_i64()));
        }
        shards
    }

    /// `route_all` over `n` values of `V`, drawn from the whole type or
    /// from a window of 41 values, lays every shard out exactly as the
    /// counting sort does and finds its extremes.
    fn check_layout<V: CrackValue>(seed: u64, n: usize, shards: usize, floor: usize, narrow: bool) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (min, max) = (V::MIN_VALUE.as_i64(), V::MAX_VALUE.as_i64());
        let lo = match narrow {
            true => rng.random_range(min..=max - 40),
            false => min,
        };
        let hi = if narrow { lo + 40 } else { max };
        let base: Vec<V> = (0..n)
            .map(|_| V::from_i64(rng.random_range(lo..=hi)))
            .collect();
        let plan = ShardPlan::from_values(&base, shards);
        let routed = route_all(&base, &plan, floor);
        for (k, (shard, want)) in routed
            .iter()
            .zip(counting_sort(&base, &plan, floor))
            .enumerate()
        {
            let extremes = want.iter().min().copied().zip(want.iter().max().copied());
            assert_eq!(shard.domain, extremes, "shard {k}");
            assert_eq!(
                shard.vals, want,
                "shard {k}: not the counting sort's layout"
            );
        }
    }

    // Every width below `i64` — 64, 32 and 16 values a cache line — with
    // piece floors of 1 and 4: buckets of 0 to about 9 values, narrower
    // than a line and starting anywhere inside one.
    proptest! {
        #[test]
        fn prop_scatter_lays_out_every_width_as_the_counting_sort(
            seed in any::<u64>(),
            n in 0usize..600,
            width in 0usize..6,
            shards in 0usize..4,
            floor in 0usize..2,
            narrow in any::<bool>(),
        ) {
            let (shards, floor) = ([1usize, 2, 4, 7][shards], [1usize, 4][floor]);
            match width {
                0 => check_layout::<i8>(seed, n, shards, floor, narrow),
                1 => check_layout::<i16>(seed, n, shards, floor, narrow),
                2 => check_layout::<i32>(seed, n, shards, floor, narrow),
                3 => check_layout::<u8>(seed, n, shards, floor, narrow),
                4 => check_layout::<u16>(seed, n, shards, floor, narrow),
                _ => check_layout::<u32>(seed, n, shards, floor, narrow),
            }
        }
    }

    /// `n` values of one of the domains the builds must agree on.
    fn column_of(kind: usize, n: usize, rng: &mut StdRng) -> Vec<i64> {
        match kind {
            0 => vec![5; n],
            1 => (0..n).map(|_| [-7, 0, 7][rng.random_range(0..3)]).collect(),
            2 => (0..n).map(|_| rng.random_range(0..17)).collect(),
            3 => (0..n).map(|_| rng.random_range(0..1_000)).collect(),
            4 => (0..n)
                .map(|_| rng.random_range(-1_000_000..-1_000))
                .collect(),
            _ => {
                // All of `i64`, both ends present.
                let mut vals: Vec<i64> = (0..n).map(|_| rng.random()).collect();
                for end in [i64::MIN, i64::MAX] {
                    if n > 0 {
                        vals[rng.random_range(0..n)] = end;
                    }
                }
                vals
            }
        }
    }
    const DOMAINS: usize = 6;

    /// The whole build (coarse buckets of about `2 * floor` values), the
    /// push routing it replaced and shards filtered one by one in a random
    /// order hold the same tuples shard for shard and answer alike; every
    /// base row lands once; every bucket's values lie inside its piece;
    /// and both builds leave the 25 % headroom for Ripple inserts.
    fn check_builds_agree(
        seed: u64,
        n: usize,
        domain: usize,
        shards: usize,
        floor: usize,
        cut_adjacent: bool,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Small domains are duplicate-heavy (and collapse the plan).
        let spread = column_of(domain, n, &mut rng);
        let plan = ShardPlan::from_values(&spread, shards);
        // Cut-adjacent: every value sits on a cut or right beside one.
        let base: Vec<i64> = match plan.cuts() {
            cuts if cut_adjacent && !cuts.is_empty() => (0..n)
                .map(|_| {
                    cuts[rng.random_range(0..cuts.len())].saturating_add(rng.random_range(-1..=1))
                })
                .collect(),
            _ => spread,
        };
        let reference = push_routing(&base, &plan);
        let routed = route_all(&base, &plan, floor);
        assert_eq!(routed.len(), plan.shards());
        for (k, (shard, want)) in routed
            .iter()
            .zip(counting_sort(&base, &plan, floor))
            .enumerate()
        {
            assert!(shard.vals.capacity() >= shard.vals.len() + shard.vals.len() / 4);
            assert_eq!(
                shard.vals, want,
                "shard {k}: not the counting sort's layout"
            );
        }
        let shared = Arc::new(base.clone());
        let eager: ShardedColumn<i64> =
            ShardedColumn::lazy("eager", Arc::clone(&shared), plan.clone()).with_piece_floor(floor);
        eager.admit(0, plan.shards() - 1, |fresh| vec![(); fresh.len()]);
        let lazy: ShardedColumn<i64> =
            ShardedColumn::lazy("lazy", shared, plan.clone()).with_piece_floor(floor);
        let mut order: Vec<usize> = (0..plan.shards()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.random_range(0..=i));
        }
        for &k in &order {
            let vals = lazy.filter_parts(k);
            assert!(vals.capacity() >= vals.len() + vals.len() / 4);
            lazy.admit(k, k, |fresh| vec![(); fresh.len()]);
        }

        let mut scratch = CrackScratch::new();
        for k in 0..plan.shards() {
            let (shard, parts) = (eager.shard(k), &routed[k]);
            // Born with its buckets as pieces, each value inside its own.
            assert_eq!(shard.piece_count(), parts.bounds.len() + 1);
            // (Still without row ids: the multiset against the base filter.)
            assert!(!shard.has_row_ids());
            shard.check_invariants(Some(&base));
            let values = reference[k].iter().map(|&(v, _)| v);
            assert_eq!(
                shard.domain(),
                values.clone().min().zip(values.max()),
                "shard {k}"
            );
        }
        for _ in 0..8 {
            let (x, y): (i64, i64) = match base.is_empty() {
                true => (rng.random(), rng.random()),
                false => (
                    base[rng.random_range(0..n)],
                    base[rng.random_range(0..n)].saturating_add(rng.random_range(-1..=1)),
                ),
            };
            // (An upper bound of `MAX` is the unbounded sentinel.)
            let pred = Predicate::range(x.min(y), x.max(y).min(i64::MAX - 1));
            let oracle = scan_stats(&base, pred);
            assert_eq!(eager.select_verified(pred, &mut scratch).1, oracle);
            assert_eq!(lazy.select_verified(pred, &mut scratch).1, oracle);
        }
        let mut seen = vec![0u32; n];
        for (k, pushed) in reference.iter().enumerate() {
            eager.shard(k).check_invariants(None);
            let built = tuples(eager.shard(k));
            assert_eq!(&built, pushed, "whole build, shard {k}");
            assert_eq!(tuples(lazy.shard(k)), built, "one by one, shard {k}");
            for (v, row) in built {
                assert_eq!(base[row as usize], v);
                seen[row as usize] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "a row is missing or doubled");
    }

    // Shards built one at a time, in any order, are the eager build's
    // shards and the push routing's; many small columns, piece floors small
    // enough that they still get buckets.
    proptest! {
        #[test]
        fn prop_shards_built_one_by_one_equal_the_eager_build(
            seed in any::<u64>(),
            n in 0usize..600,
            domain in 0usize..DOMAINS,
            shards in 0usize..4,
            floor in 0usize..3,
            cut_adjacent in any::<bool>(),
        ) {
            let (shards, floor) = ([1usize, 2, 4, 7][shards], [1usize, 4, 4096][floor]);
            check_builds_agree(seed, n, domain, shards, floor, cut_adjacent);
        }
    }

    // The same at sizes where the derived bucket count is above one with
    // the default piece floor.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn prop_coarse_build_equals_push_routing_at_size(
            seed in any::<u64>(),
            n in (1usize << 15)..=(1 << 17),
            domain in 0usize..DOMAINS,
            shards in 0usize..4,
            cut_adjacent in any::<bool>(),
        ) {
            let shards = [1usize, 2, 4, 7][shards];
            check_builds_agree(seed, n, domain, shards, 4096, cut_adjacent);
        }
    }

    /// The benchmark's attribute: 2^21 rows of all of `i64` in 4 shards at
    /// the default `i64` piece floor, 64 buckets a shard.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "2^21 rows: run with --release")]
    fn builds_agree_at_the_benchmark_geometry() {
        check_builds_agree(42, 1 << 21, DOMAINS - 1, 4, L1_BYTES / 8, false);
    }

    /// A column's whole boundary table (complete below
    /// [`crate::piece_stats::MAX_STATS_BOUNDS`] pieces).
    fn bounds_of(col: &CrackerColumn<i64>) -> Vec<(i64, usize)> {
        col.publish_stats();
        let stats = col.piece_stats().expect("published at birth");
        assert_eq!(stats.piece_count, stats.bounds.len() + 1, "sampled table");
        stats.bounds.clone()
    }

    /// Sorted values of each piece of `col` under `bounds`.
    fn piece_multisets(col: &CrackerColumn<i64>, bounds: &[(i64, usize)]) -> Vec<Vec<i64>> {
        let starts = std::iter::once(0).chain(bounds.iter().map(|b| b.1));
        let ends = bounds.iter().map(|b| b.1).chain([col.len()]);
        starts
            .zip(ends)
            .map(|(start, end)| {
                let mut piece = col.snapshot_range(start, end);
                piece.sort_unstable();
                piece
            })
            .collect()
    }

    /// Shards born without row ids, cracked at random, then asked for their
    /// ids, against twins that stored ids from birth and took the same
    /// cracks: the boundary table does not move (key for key, position for
    /// position) and is the twin's; every piece holds the twin's multiset;
    /// every slot's id names a base row holding the slot's value and the
    /// ids are the shard's base rows, each once; the statistics and a
    /// snapshot published before the build still answer exactly after it;
    /// and the two go on agreeing under later cracks and a Ripple merge.
    fn check_row_ids_on_demand(seed: u64, n: usize, domain: usize, shards: usize, whole: bool) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = column_of(domain, n, &mut rng);
        let plan = ShardPlan::from_values(&base, shards);
        let reference = push_routing(&base, &plan);
        let col: ShardedColumn<i64> =
            ShardedColumn::lazy("lazy", Arc::new(base.clone()), plan.clone()).with_piece_floor(4);
        match whole {
            true => col.admit(0, plan.shards() - 1, |fresh| vec![(); fresh.len()]),
            false => (0..plan.shards()).for_each(|k| col.admit(k, k, |_| vec![()])),
        }
        let mut scratch = CrackScratch::new();
        // A pivot on or beside a value of the column: duplicates of a
        // boundary key are the common case in the small domains.
        let pivot = |rng: &mut StdRng| match base.is_empty() {
            true => rng.random_range(-3..3),
            false => base[rng.random_range(0..n)].saturating_add(rng.random_range(-1..=1)),
        };
        for (k, pairs) in reference.iter().enumerate() {
            let shard = col.shard(k);
            let (vals, rows): (Vec<i64>, Vec<RowId>) = pairs.iter().copied().unzip();
            let twin = CrackerColumn::from_parts("twin", vals, rows.clone());
            for (key, _) in bounds_of(shard) {
                twin.refine_at_blocking(key, &mut scratch);
            }
            let crack_both = |rng: &mut StdRng, scratch: &mut CrackScratch<i64>| {
                let (x, y) = (pivot(rng), pivot(rng));
                match rng.random_range(0..3) {
                    0 => {
                        let pred = plan.clamp(k, Predicate::range(x.min(y), x.max(y)));
                        let want = twin.select(pred, scratch).count();
                        assert_eq!(shard.select(pred, scratch).count(), want);
                    }
                    _ => {
                        shard.refine_at_blocking(x, scratch);
                        twin.refine_at_blocking(x, scratch);
                    }
                }
            };
            for _ in 0..rng.random_range(0..12) {
                crack_both(&mut rng, &mut scratch);
            }
            assert!(!shard.has_row_ids(), "a crack built row ids");
            shard.check_invariants(Some(&base));
            let before = bounds_of(shard);
            assert_eq!(
                before,
                bounds_of(&twin),
                "shard {k}: boundary tables differ"
            );
            let all = Predicate::range(i64::MIN, i64::MAX);
            shard.snapshot_scan(all, &mut scratch);
            let snap = shard.snapshot().expect("the scan published one");

            let ids = shard.collect_row_ids(all).expect("sentinel bounds");
            assert!(shard.has_row_ids());
            assert_eq!(
                bounds_of(shard),
                before,
                "shard {k}: the build moved a boundary"
            );
            assert_eq!(
                piece_multisets(shard, &before),
                piece_multisets(&twin, &before),
                "shard {k}: a piece changed its values"
            );
            let vals = shard.snapshot_range(0, shard.len());
            assert_eq!(vals.len(), ids.len());
            assert!(vals.iter().zip(&ids).all(|(&v, &r)| base[r as usize] == v));
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            let mut base_rows = rows;
            base_rows.sort_unstable();
            assert_eq!(sorted, base_rows, "shard {k}: ids are not its base rows");
            shard.check_invariants(Some(&base));
            for _ in 0..4 {
                let (x, y) = (pivot(&mut rng), pivot(&mut rng));
                let pred = plan.clamp(k, Predicate::range(x.min(y), x.max(y)));
                let want = twin.select_verified(pred, &mut scratch).1;
                let old = snap.stats(pred.lo, pred.hi);
                assert_eq!((old.count, old.sum), (want.count, want.sum), "snapshot");
                assert_eq!(shard.select_verified(pred, &mut scratch).1, want);
                let scan = shard.snapshot_scan(pred, &mut scratch);
                assert_eq!((scan.count, scan.sum), (want.count, want.sum));
            }
            // With ids the shard is a column like its twin: more cracks,
            // one delete of a base tuple and one insert, merged by a select.
            for _ in 0..rng.random_range(0..6) {
                crack_both(&mut rng, &mut scratch);
            }
            for c in [shard.as_ref(), &twin] {
                if let Some(&(v, row)) = pairs.first() {
                    assert!(c.queue_delete(v, row));
                    assert!(c.queue_insert(v, n as RowId));
                }
                c.select(all, &mut scratch);
                c.check_invariants(None);
            }
            assert_eq!(tuples(shard), tuples(&twin), "shard {k} after the merge");
        }
    }

    // Many small columns of every shape, shard counts that collapse, the
    // empty column, shards built whole (coarse buckets) or one by one.
    proptest! {
        #[test]
        fn prop_row_ids_built_on_demand_match_an_eager_twin(
            seed in any::<u64>(),
            n in 0usize..600,
            domain in 0usize..DOMAINS,
            shards in 0usize..4,
            whole in any::<bool>(),
        ) {
            check_row_ids_on_demand(seed, n, domain, [1usize, 2, 4, 7][shards], whole);
        }
    }

    // The same at sizes where a release build's scatter sees real pieces.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn prop_row_ids_built_on_demand_at_size(
            seed in any::<u64>(),
            n in (1usize << 14)..=(1 << 16),
            domain in 0usize..DOMAINS,
            shards in 0usize..4,
            whole in any::<bool>(),
        ) {
            check_row_ids_on_demand(seed, n, domain, [1usize, 2, 4, 7][shards], whole);
        }
    }

    #[test]
    fn a_merge_builds_the_row_ids_a_delete_names_its_tuple_by() {
        let b = base(8_000, 500, 31);
        let col = ShardedColumn::from_base_with_plan("a", &b, ShardPlan::from_values(&b, 2));
        let mut scratch = CrackScratch::new();
        col.select_verified(Predicate::range(100, 300), &mut scratch);
        assert!(col.resident_shards().all(|s| !s.has_row_ids()));
        // Queueing needs no ids; the merge that applies the delete does.
        let k = col.plan().shard_of(b[17]);
        assert!(col.queue_delete(b[17], 17));
        assert!(!col.shard(k).has_row_ids());
        let all = Predicate::range(i64::MIN, i64::MAX);
        let (_, stats) = col.select_verified(all, &mut scratch);
        let mut left = b.clone();
        left.swap_remove(17);
        assert_eq!(stats, scan_stats(&left, all));
        assert!(col.shard(k).has_row_ids());
        assert!(
            !col.shard(1 - k).has_row_ids(),
            "the untouched shard paid too"
        );
        assert!(tuples(col.shard(k)).iter().all(|&(_, row)| row != 17));
    }

    #[test]
    fn replans_of_shards_without_row_ids_keep_every_pair() {
        let b = base(30_000, 1_000, 22);
        let col = ShardedColumn::from_base_with_plan("a", &b, ShardPlan::from_values(&b, 4));
        let mut scratch = CrackScratch::new();
        col.select_verified(Predicate::range(200, 700), &mut scratch);
        assert!(col.resident_shards().all(|s| !s.has_row_ids()));
        // The migration builds the ids of the shards it drains — and of no
        // other; successors store theirs from birth.
        let split = col.apply_replan(ReplanAction::Split { shard: 1 }).unwrap();
        assert!(col.shard(1).has_row_ids() && !col.shard(0).has_row_ids());
        assert!(split.shard(1).has_row_ids() && split.shard(2).has_row_ids());
        let merged = split.apply_replan(ReplanAction::Merge { left: 3 }).unwrap();
        assert!(split.shard(3).has_row_ids() && split.shard(4).has_row_ids());
        for next in [&split, &merged] {
            let pushed = push_routing(&b, next.plan());
            for (k, want) in pushed.iter().enumerate() {
                assert_eq!(
                    &tuples(next.shard(k)),
                    want,
                    "plan v{}, shard {k}",
                    next.version()
                );
            }
        }
    }

    /// `(shard, bucket-in-shard)` of `v` under `geometry`.
    fn bucket_of(plan: &ShardPlan<i64>, geometry: &[Buckets], v: i64) -> (usize, u64) {
        let k = plan.shard_of(v);
        let id = geometry[k].id_of(v);
        assert!(id >= geometry[k].first_id, "id below the shard's first");
        let b = (id - geometry[k].first_id) as u64;
        assert!(b <= geometry[k].last, "id beyond the shard's last");
        (k, b)
    }

    #[test]
    fn bucket_count_is_derived_from_rows_shards_and_piece_floor() {
        let per_shard = |rows: usize, shards: usize| -> Vec<u64> {
            let base: Vec<i64> = (0..rows as i64).collect();
            let geometry = coarse_buckets(&ShardPlan::from_values(&base, shards), rows, 4096);
            assert_eq!(geometry.len(), shards);
            geometry.iter().map(|g| g.last + 1).collect()
        };
        // The benchmark's attribute: 2^19 rows a shard in buckets of 2^13.
        assert_eq!(per_shard(1 << 21, 4), [64; 4]);
        assert_eq!(per_shard(1 << 21, 1), [256]);
        // A bucket never goes below two piece floors.
        assert_eq!(per_shard(1 << 17, 4), [4; 4]);
        assert_eq!(per_shard(1 << 17, 1), [16]);
        assert_eq!(per_shard(1 << 15, 4), [1; 4]);
        // Seven shards share 256 ids, at most 32 each; a range that is not
        // a power of two wide fills more than half of them.
        let sevenths = per_shard(1 << 22, 7);
        assert!(
            sevenths.iter().all(|c| (17..=32).contains(c)),
            "{sevenths:?}"
        );
    }

    #[test]
    fn bucket_arithmetic_is_total_and_order_preserving_on_i64() {
        let mut rng = StdRng::seed_from_u64(40);
        let columns: Vec<Vec<i64>> = vec![
            column_of(5, 50_000, &mut rng), // all of i64, MIN and MAX present
            column_of(4, 50_000, &mut rng), // negative
            column_of(3, 50_000, &mut rng), // 1000 values
            (0..50_000)
                .map(|_| rng.random_range(i64::MAX - 50..=i64::MAX))
                .collect(),
            (0..50_000)
                .map(|_| rng.random_range(i64::MIN..=i64::MIN + 50))
                .collect(),
        ];
        for base in &columns {
            for shards in [1usize, 2, 4, 7] {
                let plan = ShardPlan::from_values(base, shards);
                // Rows as if every shard could fill all its ids.
                let geometry = coarse_buckets(&plan, 1 << 26, 4096);
                let total: usize = geometry.iter().map(|g| g.last as usize + 1).sum();
                assert!(total <= MAX_BUCKETS);
                let mut probes: Vec<i64> = base.iter().copied().take(2_000).collect();
                probes.extend([i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX]);
                for &c in plan.cuts() {
                    probes.extend([c.saturating_sub(1), c, c.saturating_add(1)]);
                }
                probes.sort_unstable();
                let mut prev = (0usize, 0u64);
                for &v in &probes {
                    let (k, b) = bucket_of(&plan, &geometry, v);
                    assert!((k, b) >= prev, "bucket order breaks value order at {v}");
                    prev = (k, b);
                    // Inside the key range its bucket will be registered
                    // with (edge buckets are open outwards).
                    let g = &geometry[k];
                    if b > 0 {
                        assert!(v >= g.key::<i64>(b), "{v} below its bucket");
                    }
                    if b < g.last {
                        assert!(v < g.key::<i64>(b + 1), "{v} above its bucket");
                    }
                }
            }
        }
    }

    #[test]
    fn narrow_ranges_get_fewer_buckets_and_unsampled_edges_one() {
        // Three distinct values: no shard's range spans more than three.
        let base: Vec<i64> = (0..60_000).map(|i| [-7, 0, 7][i % 3]).collect();
        for shards in [1usize, 2, 4] {
            let plan = ShardPlan::from_values(&base, shards);
            for g in coarse_buckets(&plan, 1 << 26, 4096) {
                assert!(g.last < 15, "{g:?}");
            }
        }
        // All equal: one shard, one bucket.
        let plan = ShardPlan::from_values(&[5i64; 1_000], 4);
        let geometry = coarse_buckets(&plan, 1 << 26, 4096);
        assert_eq!((geometry.len(), geometry[0].last), (1, 0));
        // No sample, no extremes: the edge shards cannot size their
        // buckets, interior ones can.
        let plan = ShardPlan::from_cuts(vec![0i64, 1 << 20, 1 << 21]);
        let lasts: Vec<u64> = coarse_buckets(&plan, 1 << 26, 4096)
            .iter()
            .map(|g| g.last)
            .collect();
        assert_eq!(lasts, [0, 63, 63, 0]);
        assert_eq!(
            coarse_buckets(&ShardPlan::<i64>::single(), 1 << 26, 4096)[0].last,
            0
        );
        // A cut at the very bottom leaves an empty first shard.
        let plan = ShardPlan::from_cuts(vec![i64::MIN, 0]);
        assert_eq!(coarse_buckets(&plan, 1 << 26, 4096).len(), 3);
    }

    #[test]
    fn whole_build_gives_every_shard_its_buckets_and_skips_empty_sides() {
        // 2^17 rows in 4 shards: up to 4 buckets a shard with the default
        // floor, more than half of them used.
        let b = base(1 << 17, 1 << 20, 41);
        let col = ShardedColumn::from_base_with_plan("a", &b, ShardPlan::from_values(&b, 4));
        for k in 0..4 {
            let pieces = col.shard(k).piece_count();
            assert!((3..=4).contains(&pieces), "shard {k}: {pieces} pieces");
            col.shard(k).check_invariants(None);
            let stats = col.shard(k).piece_stats().expect("published at birth");
            assert_eq!(stats.piece_count, pieces);
        }
        // Values outside the sampled extremes clamp into the edge buckets,
        // and a bucket range nobody falls into makes no empty piece: all
        // the mass sits in the top quarter of the sampled range.
        let mut skewed: Vec<i64> = (0..1 << 16).map(|i| 3_000 + (i % 1_000)).collect();
        let plan = ShardPlan::from_values(&skewed, 1);
        skewed.extend([i64::MIN, -5, 0, 5_000, i64::MAX]);
        let col = ShardedColumn::from_base_with_plan("a", &skewed, plan);
        let shard = col.shard(0);
        shard.check_invariants(Some(&skewed));
        assert_eq!(shard.domain(), Some((i64::MIN, i64::MAX)));
        let mut scratch = CrackScratch::new();
        let pred = Predicate::range(-10, 3_500);
        assert_eq!(
            col.select_verified(pred, &mut scratch).1,
            scan_stats(&skewed, pred)
        );
    }

    #[test]
    fn split_replan_preserves_data_and_shares_untouched_shards() {
        let b = base(40_000, 1_000, 20);
        let plan = ShardPlan::from_values(&b, 4);
        let col = ShardedColumn::from_base_with_plan("a", &b, plan);
        let next = col.apply_replan(ReplanAction::Split { shard: 1 }).unwrap();
        assert_eq!(next.shard_count(), 5);
        assert_eq!(next.version(), 1);
        // Untouched shards share their Arcs (indices/snapshots survive).
        assert!(Arc::ptr_eq(col.shard(0), next.shard(0)));
        assert!(Arc::ptr_eq(col.shard(2), next.shard(3)));
        assert!(Arc::ptr_eq(col.shard(3), next.shard(4)));
        // The predecessor's shard 1 is sealed; its successors are open.
        assert!(col.shard(1).is_sealed());
        assert!(!next.shard(1).is_sealed() && !next.shard(2).is_sealed());
        assert_eq!(next.len(), b.len());
        let mut scratch = CrackScratch::new();
        let pred = Predicate::range(100, 900);
        let (_, stats) = next.select_verified(pred, &mut scratch);
        assert_eq!(stats, scan_stats(&b, pred));
        // An update into the migrated range bounces off the predecessor
        // and lands through the successor plan.
        let cut_lo = col.plan().cuts()[0];
        assert!(!col.queue_insert(cut_lo, 40_000), "sealed shard accepted");
        assert!(next.queue_insert(cut_lo, 40_000));
    }

    #[test]
    fn merge_replan_concatenates_neighbours_and_drains_pending() {
        let mut b = base(30_000, 1_000, 21);
        let plan = ShardPlan::from_values(&b, 4);
        let col = ShardedColumn::from_base_with_plan("a", &b, plan);
        // A pending update on a victim shard: the drain must merge it.
        let v0 = col.plan().cuts()[0];
        assert!(col.queue_insert(v0, 30_000));
        b.push(v0);
        let next = col.apply_replan(ReplanAction::Merge { left: 1 }).unwrap();
        assert_eq!(next.shard_count(), 3);
        assert!(Arc::ptr_eq(col.shard(0), next.shard(0)));
        assert!(Arc::ptr_eq(col.shard(3), next.shard(2)));
        assert_eq!(next.len(), b.len());
        let mut scratch = CrackScratch::new();
        let pred = Predicate::range(0, 1_000);
        let (_, stats) = next.select_verified(pred, &mut scratch);
        assert_eq!(stats, scan_stats(&b, pred));
        // Out-of-range actions are rejected outright.
        assert!(col.apply_replan(ReplanAction::Merge { left: 3 }).is_none());
        assert!(col.apply_replan(ReplanAction::Split { shard: 9 }).is_none());
    }

    #[test]
    fn split_of_constant_shard_aborts_and_unseals() {
        let b: Vec<i64> = vec![5; 1_000];
        let col = ShardedColumn::from_base_with_plan("a", &b, ShardPlan::single());
        assert!(col.apply_replan(ReplanAction::Split { shard: 0 }).is_none());
        assert!(!col.shard(0).is_sealed(), "aborted split left shard sealed");
        assert!(col.queue_insert(5, 1_000), "aborted split lost the ingress");
    }

    #[test]
    fn single_shard_plan_degenerates_cleanly() {
        let b = base(5_000, 1_000, 7);
        let col = ShardedColumn::from_base_with_plan("a", &b, ShardPlan::single());
        assert_eq!(col.shard_count(), 1);
        let mut scratch = CrackScratch::new();
        let pred = Predicate::range(100, 900);
        let (_, stats) = col.select_verified(pred, &mut scratch);
        assert_eq!(stats, scan_stats(&b, pred));
        col.shard(0).check_invariants(Some(&b));
    }

    /// The values of `b` in `[lo, hi)`, in order: what a one-shard build
    /// must hold.
    fn in_range<V: CrackValue>(b: &[V], lo: Option<V>, hi: Option<V>) -> Vec<V> {
        b.iter()
            .copied()
            .filter(|&v| lo.is_none_or(|l| l <= v) && hi.is_none_or(|h| v < h))
            .collect()
    }

    /// Both filter kernels, called directly, against the reference: every
    /// length up to 64 (every tail of an eight-value chunk) and longer,
    /// all-equal, duplicate-heavy and spread values (with `i64::MIN` and
    /// `MAX` among them), ranges with open and extreme edges, empty and
    /// outside the domain. Other widths take the portable loop on either.
    #[test]
    fn one_shard_build_kernels_agree_at_every_tail() {
        #[cfg(target_arch = "x86_64")]
        let compress = kernels::avx512::available();
        #[cfg(not(target_arch = "x86_64"))]
        let compress = false;
        if !compress {
            eprintln!("skipped the compress kernel: this CPU lacks AVX-512F/VL");
        }
        let mut rng = StdRng::seed_from_u64(29);
        for n in (0..=64).chain([255, 256, 257, 1_000, 4_095, 4_101]) {
            let spread = {
                let mut b: Vec<i64> = (0..n).map(|_| rng.random()).collect();
                for (i, x) in [i64::MIN, i64::MAX, 0].into_iter().enumerate() {
                    if let Some(slot) = b.get_mut(i * 7) {
                        *slot = x;
                    }
                }
                b
            };
            for b in [vec![7; n], base(n, 3, n as u64), spread] {
                let ranges = [
                    (None, None),
                    (Some(i64::MIN), None),
                    (None, Some(i64::MAX)),
                    (Some(i64::MIN), Some(i64::MAX)),
                    (Some(i64::MAX), None),
                    (Some(1), Some(3)),
                    (Some(-5), Some(-1)),
                    (Some(8), None),
                    (Some(2), Some(2)),
                ];
                for (lo, hi) in ranges {
                    let want = in_range(&b, lo, hi);
                    let isas = [Isa::Portable, Isa::Avx512];
                    for isa in isas.into_iter().take(1 + compress as usize) {
                        let got = filter_pass_on(isa, &b, want.len(), lo, hi);
                        assert_eq!(got, want, "{isa:?} n={n} [{lo:?}, {hi:?})");
                        assert!(got.capacity() >= shard_capacity(want.len()));
                    }
                }
                let narrow: Vec<i32> = b.iter().map(|&v| v as i32).collect();
                let want = in_range(&narrow, Some(1), None);
                assert_eq!(
                    filter_pass_on(Isa::Avx512, &narrow, want.len(), Some(1), None),
                    want
                );
            }
        }
    }

    /// A base with more values in range than the output holds stops either
    /// kernel before it writes past the output.
    #[test]
    fn one_shard_build_kernels_never_write_past_their_output() {
        let b = base(1_000, 1_000, 3);
        let guarded = |write: &dyn Fn(&mut [MaybeUninit<i64>])| {
            let mut buf = vec![MaybeUninit::new(-1i64); 300];
            let out =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| write(&mut buf[..100])));
            assert!(out.is_err(), "a full output must panic");
            // SAFETY: every slot was initialised above.
            assert!(buf[100..].iter().all(|x| unsafe { x.assume_init() } == -1));
        };
        guarded(&|out| {
            filter_portable(&b, out, |v| v < 500);
        });
        #[cfg(target_arch = "x86_64")]
        if kernels::avx512::available() {
            guarded(&|out| {
                kernels::avx512::filter(&b, None, Some(500), out);
            });
        }
    }

    #[test]
    #[should_panic(expected = "more values in range than the output holds")]
    fn one_shard_build_panics_when_the_count_is_too_small() {
        let b = base(1_000, 1_000, 4);
        let count = b.iter().filter(|&&v| v < 500).count();
        filter_pass(&b, count / 2, None, Some(500));
    }
}
