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
//! bypassing the cache; both passes split the base into contiguous chunks,
//! one for the caller and one for each helper thread the owner offers,
//! and lay it out exactly as one thread does); any smaller set with
//! one branch-free filter pass per shard, so an owner under storage
//! pressure materialises (and after an eviction re-materialises, through
//! [`ShardedColumn::vacated`]) exactly the value ranges its queries touch.
//! That pass reads only the base zones that can hold the shard: a zone map
//! (the smallest and largest value of each 1,024-row block, made once per
//! base and shared by every successor) lets it skip the rest, which on
//! ingest-ordered (clustered) data is most of the base, and it hands the
//! shard its domain from the values it keeps.
//! Either way a shard is born holding **values only**: its row ids are a
//! function of the base, its value range, the write log of its Ripple
//! merges and its boundary table, and it builds them (`row_ids.rs`) when
//! a conjunction or a migration first reads one — a shard that only ever
//! answers range counts and sums, or takes writes, costs 8 bytes a tuple,
//! not 12. (Successors of a replan
//! are built from migrated pairs and store their ids from birth.)
//!
//! The *initial* shard plan is chosen from the base data: cut values at
//! equi-depth quantiles of a sorted sample, so skewed bases still get
//! balanced shards. A plan is an immutable value, but it is no longer
//! frozen for the column's lifetime: a replan
//! ([`ShardedColumn::apply_replan`]) builds a **versioned successor**
//! column that shares the `Arc`s of every untouched shard — their cracker
//! indices, latches, prefix sums and point filters survive — and rebuilds
//! only the split or merged shards, draining them through
//! [`CrackerColumn::extract_for_migration`] (seal ingress → Ripple-merge
//! everything → copy out). The engine publishes
//! the successor by swapping one `Arc` (the column carries its plan and
//! [`ShardedColumn::version`]), so in-flight queries finish against the
//! plan version they started with; updates
//! that raced into a sealed predecessor shard are rejected (`false` from
//! the queue ops) and re-routed through the successor plan.

use crate::column::{CrackerColumn, Selection, SnapshotScan};
use crate::kernels::{self, Isa};
use crate::partition::DEFAULT_MIN_PARALLEL;
use crate::row_ids::RowSource;
use crate::vectorized::CrackScratch;
use holix_storage::select::{Predicate, RangeStats};
use holix_storage::types::RowId;
use parking_lot::Mutex;
use std::cell::RefCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};

/// Maximum base values sampled for the quantile cuts.
const PLAN_SAMPLE: usize = 1 << 16;

/// Most coarse buckets a whole-attribute build makes, over all shards: a
/// tuple's bucket id fits a byte.
pub(crate) const MAX_BUCKETS: usize = 256;

/// L1 data cache assumed for the piece floor of a column nobody handed one
/// to ([`ShardedColumn::with_piece_floor`]): the paper's 32 KiB.
const L1_BYTES: usize = 32 * 1024;

/// Immutable range-partitioning plan: `cuts` are the S−1 interior
/// boundaries, ascending and strictly increasing. Shard `k` holds values
/// `v` with `cuts[k-1] <= v < cuts[k]` (first shard unbounded below, last
/// unbounded above).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    cuts: Vec<i64>,
    /// Smallest and largest value of the sample the cuts came from; `None`
    /// for a plan made without one. Only sizes the coarse buckets of the
    /// two edge shards — routing never reads it.
    extremes: Option<(i64, i64)>,
}

impl ShardPlan {
    /// Single-shard plan (no cuts) — the unsharded degenerate case.
    pub fn single() -> Self {
        Self::from_cuts(Vec::new())
    }

    /// Plan with explicit interior cut values (must be strictly
    /// increasing). Tests and external planners construct known layouts
    /// through this; production plans come from
    /// [`ShardPlan::from_values`].
    pub fn from_cuts(cuts: Vec<i64>) -> Self {
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
    pub fn from_values(values: &[i64], shards: usize) -> Self {
        if values.is_empty() {
            return Self::single();
        }
        let shards = shards.max(1);
        let stride = (values.len() / PLAN_SAMPLE).max(1);
        let mut sample: Vec<i64> = values.iter().step_by(stride).copied().collect();
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
    pub fn cuts(&self) -> &[i64] {
        &self.cuts
    }

    /// Index of the shard holding value `v`.
    pub fn shard_of(&self, v: i64) -> usize {
        self.cuts.partition_point(|&c| c <= v)
    }

    /// Inclusive range `(first, last)` of shards intersecting `[lo, hi)`.
    /// Returns `None` for an empty predicate.
    pub fn shard_range(&self, lo: i64, hi: i64) -> Option<(usize, usize)> {
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
    pub fn clamp(&self, k: usize, pred: Predicate) -> Predicate {
        // The bound only widens to a sentinel when the predicate covers the
        // shard's whole side: `pred.lo` at or below the shard's lower cut
        // (first shard has none — its values extend to the column minimum),
        // symmetrically for `hi`.
        let lo = if k > 0 && pred.lo <= self.cuts[k - 1] {
            i64::MIN
        } else {
            pred.lo
        };
        let hi = if k < self.cuts.len() && pred.hi >= self.cuts[k] {
            i64::MAX
        } else {
            pred.hi
        };
        Predicate { lo, hi }
    }
}

/// One shard-plan change, proposed by the planner from per-shard load
/// skew and applied by [`ShardedColumn::apply_replan`].
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
struct ShardCell<T> {
    /// Serialises builders of this shard (never taken by readers): build,
    /// tag and publish happen under it, so racing touchers yield one
    /// column and one tag.
    build: Mutex<()>,
    built: OnceLock<(Arc<CrackerColumn>, T)>,
    /// Base zones [`ShardedColumn::scan_cold`] has read for this shard
    /// since the cell was made (every cell is born empty).
    scanned: AtomicUsize,
}

impl<T> ShardCell<T> {
    fn empty() -> Arc<Self> {
        Arc::new(ShardCell {
            build: Mutex::new(()),
            built: OnceLock::new(),
            scanned: AtomicUsize::new(0),
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
pub struct ShardedColumn<T = ()> {
    plan: ShardPlan,
    /// The base column every shard is a value-range filter of.
    base: Arc<Vec<i64>>,
    cells: Vec<Arc<ShardCell<T>>>,
    /// Base rows per shard under `plan`: a pure function of the two,
    /// counted once and shared with every successor of the same plan, so
    /// a one-shard build is a single pass.
    counts: Arc<OnceLock<Box<[usize]>>>,
    /// The base's zone map ([`count_and_zone`]): a pure function of the
    /// base alone, made by the first one-shard build and shared with every
    /// successor, replans included, so later one-shard builds read only
    /// the zones that can hold their shard. Base metadata like `counts`
    /// (16 bytes a zone for `i64`), not an index the owner accounts for.
    zones: Arc<OnceLock<ZoneMap>>,
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
pub(crate) struct Buckets {
    /// Lower edge of bucket 0.
    pub(crate) lo: i64,
    /// log2 of the bucket width.
    pub(crate) shift: u32,
    /// Index of the last bucket.
    pub(crate) last: u64,
    /// Id of bucket 0 among the attribute's buckets (shards in order).
    pub(crate) first_id: usize,
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
    /// largest planned value, so it neither wraps nor leaves `i64`.
    fn key(&self, b: u64) -> i64 {
        self.lo.wrapping_add((b << self.shift) as i64)
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
pub(crate) fn coarse_buckets(plan: &ShardPlan, rows: usize, piece_floor: usize) -> Vec<Buckets> {
    let s = plan.shards();
    let per_shard = (rows / s / (2 * piece_floor.max(1))).clamp(1, (MAX_BUCKETS / s).max(1));
    let log2 = per_shard.ilog2();
    let cut = |i: usize| plan.cuts[i];
    let mut first_id = 0;
    (0..s)
        .map(|k| {
            let lo = match k {
                0 => plan.extremes.map(|e| e.0),
                k => Some(cut(k - 1)),
            };
            let top = match k + 1 == s {
                true => plan.extremes.map(|e| e.1),
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
struct Routed {
    vals: Vec<i64>,
    bounds: Vec<(i64, usize)>,
    domain: Option<(i64, i64)>,
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
    // The layout tests read every streamed line back, at every thread
    // count (`prop_scatter_lays_out_partial_lines_as_the_counting_sort`),
    // and CI runs them under ASan.
    unsafe {
        use std::arch::x86_64::{__m128i, _mm_load_si128, _mm_stream_si128};
        let (src, dst) = (line.0.as_ptr().cast::<__m128i>(), dst.cast::<__m128i>());
        for i in 0..LINE / 16 {
            _mm_stream_si128(dst.add(i), _mm_load_si128(src.add(i)));
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    // SAFETY: the caller's contract; a local buffer never overlaps `dst`
    // (the same layout tests).
    unsafe {
        std::ptr::copy_nonoverlapping(line.0.as_ptr(), dst, LINE)
    }
}

/// Orders every line [`store_line`] streamed on this thread before the
/// loads and stores that follow (`sfence`; ordinary stores need none).
#[inline(always)]
fn fence_lines() {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: SSE2 is baseline on x86_64, a fact of the target that no
    // test needs to back.
    unsafe {
        std::arch::x86_64::_mm_sfence()
    }
}

/// Per bucket, the shard vector it lives in (its first slot): what every
/// thread of a scatter writes through, each to slots of its own. Null for a
/// bucket id no tuple has.
struct Dests([*mut i64; MAX_BUCKETS]);

// SAFETY: the addresses are only written through, by `scatter_chunk`, whose
// contract gives every thread slots no other thread reads or writes
// (backed by `prop_scatter_lays_out_partial_lines_as_the_counting_sort` and
// `chunks_share_a_line_inside_one_bucket`).
unsafe impl Sync for Dests {}

/// `f` of every chunk, in order: the first on the calling thread, each
/// other on a helper thread of its own, all joined before it returns (a
/// helper's panic resumes on the caller).
fn on_gang<T: Send, R: Send>(
    chunks: impl IntoIterator<Item = T>,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let mut chunks = chunks.into_iter();
    let Some(first) = chunks.next() else {
        return Vec::new();
    };
    let f = &f;
    std::thread::scope(|s| {
        let helpers: Vec<_> = chunks.map(|c| s.spawn(move || f(c))).collect();
        let mut out = vec![f(first)];
        for helper in helpers {
            out.push(
                helper
                    .join()
                    .unwrap_or_else(|e| std::panic::resume_unwind(e)),
            );
        }
        out
    })
}

/// Pass 1 over one chunk of the base with the kernel of `isa`: each
/// value's bucket id into `ids` and the chunk's histogram. On
/// [`Isa::Avx512`], plans of up to [`kernels::avx512::BUCKET_ID_SHARDS`]
/// shards take the eight-lane kernel ([`kernels::avx512::bucket_ids`]),
/// which writes the same ids and counts as the portable loop; every other
/// plan and ISA takes [`count_chunk_portable`].
pub(crate) fn count_chunk(
    isa: Isa,
    base: &[i64],
    ids: &mut [u8],
    cuts: &[i64],
    geometry: &[Buckets],
) -> [usize; MAX_BUCKETS] {
    if isa == Isa::Avx512 {
        #[cfg(target_arch = "x86_64")]
        if geometry.len() <= kernels::avx512::BUCKET_ID_SHARDS {
            return kernels::avx512::bucket_ids(base, ids, cuts, geometry);
        }
    }
    count_chunk_portable(base, ids, cuts, geometry)
}

/// The portable pass 1 over one chunk of the base, branch-free: each
/// value's bucket id into `ids` (its shard is the number of cuts at or
/// below it, its bucket a subtraction and a shift), and the chunk's
/// histogram.
pub(crate) fn count_chunk_portable(
    base: &[i64],
    ids: &mut [u8],
    cuts: &[i64],
    geometry: &[Buckets],
) -> [usize; MAX_BUCKETS] {
    let mut hist = [0usize; MAX_BUCKETS];
    for (&v, id) in base.iter().zip(ids.iter_mut()) {
        let k: usize = cuts.iter().map(|&c| (c <= v) as usize).sum();
        *id = geometry[k].id_of(v) as u8;
        hist[*id as usize] += 1;
    }
    hist
}

/// Pass 2 over one chunk of the base: every value to its bucket's cursor,
/// through the slot of the bucket's staged line that sits at the
/// destination's offset inside its cache line. The value that fills a
/// line's last slot flushes the line: streamed whole when the chunk's own
/// slots of the bucket start at or before the line's start, else (the
/// first line of those slots) copied from the chunk's first slot on. Then
/// each bucket's last line the same way, and a fence for the streamed
/// ones. Returns the cursors where the chunk stopped.
///
/// # Safety
/// `ids` are the bucket ids of `base`, and for every bucket id the chunk
/// holds `n` times, slots `cursor[id]..cursor[id] + n` of the vector at
/// `dests.0[id]` are allocated, 64-byte lines of that vector are
/// allocated wherever those slots cover them whole, a value's address is
/// a multiple of its 8 bytes (which divide [`LINE`]), and no other thread
/// touches those slots' bytes before this returns.
unsafe fn scatter_chunk(
    base: &[i64],
    ids: &[u8],
    dests: &Dests,
    mut cursor: [usize; MAX_BUCKETS],
) -> [usize; MAX_BUCKETS] {
    let width = std::mem::size_of::<i64>();
    let start = cursor;
    // The chunk's first slot of every bucket: where its own bytes begin.
    let first: [*mut u8; MAX_BUCKETS] =
        std::array::from_fn(|id| dests.0[id].wrapping_add(start[id]).cast());
    let mut lines = [Line([0; LINE]); MAX_BUCKETS];
    for (&v, &id) in base.iter().zip(ids) {
        let id = id as usize;
        let pos = cursor[id];
        cursor[id] = pos + 1;
        // SAFETY: `ids` are the ids pass 1 counted for this chunk, so the
        // cursor of bucket `id` has advanced fewer than the chunk's count
        // of it: `pos` lies inside the chunk's own slots of the bucket
        // (the caller's contract), which hold `Copy` values, so nothing is
        // dropped. A slot's address is a multiple of its 8 bytes, which
        // divide `LINE`, so the value fits its staged line at `off`,
        // aligned. A flushed line ends at `end`, one past `pos`, and
        // `len` is the part of it at or after the chunk's first slot
        // `first[id]`: a streamed line (`len == LINE`) lies inside
        // `[first[id], end)`, the chunk's own slots, each staged by this
        // loop in order; a copied one writes only that part, so a line
        // shared with another bucket or another chunk gets only this
        // chunk's bytes of this bucket. Nothing reads the vectors before
        // this thread's fence below (`chunks_share_a_line_inside_one_bucket`
        // and the counting-sort layout tests back this at every thread
        // count).
        unsafe {
            let dst = dests.0[id].add(pos).cast::<u8>();
            let off = dst.addr() % LINE;
            let line = &mut lines[id];
            line.0.as_mut_ptr().add(off).cast::<i64>().write(v);
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
    // Each bucket's last line, the same way: the staged bytes of its line
    // before the cursor (none when the chunk's slots ended on a line edge
    // and the loop flushed it), from the chunk's first slot on.
    for id in (0..MAX_BUCKETS).filter(|&id| cursor[id] > start[id]) {
        // SAFETY: as in the loop; `end` is one past the chunk's last slot
        // of the bucket, and the copy writes `[end - len, end)`, which
        // starts at or after `first[id]` and holds staged values of this
        // bucket from this chunk.
        unsafe {
            let end = dests.0[id].add(cursor[id]).cast::<u8>();
            let off = end.addr() % LINE;
            let len = off.min(end.addr() - first[id].addr());
            let src = lines[id].0.as_ptr().add(off - len);
            std::ptr::copy_nonoverlapping(src, end.sub(len), len);
        }
    }
    // Streamed lines are weakly ordered: the fence puts them before this
    // thread's later stores, so before the join that hands them over.
    fence_lines();
    cursor
}

/// Range-partitions the whole base two levels deep in two passes: every
/// value goes to its shard by the plan's cuts and, inside the shard, to its
/// coarse bucket ([`coarse_buckets`]). Both passes split the base into
/// `threads` contiguous chunks and run chunk 0 on the caller and every
/// other on a helper thread of its own. Pass 1 writes each chunk's bucket
/// ids into its slice of the caller's buffer and counts a histogram per
/// chunk; pass 2 writes each value to its place in exactly-sized shard
/// vectors (allocated with [`shard_capacity`]), every chunk through its own
/// cursor per bucket, which starts at the bucket's start plus the counts
/// of the earlier chunks, so a value lands exactly where the one-thread
/// build puts it (a counting sort, stable in base order). A chunk writes
/// through one staged cache line per bucket: a line that its own slots of
/// the bucket cover whole goes out with streaming stores, which neither
/// read it for ownership nor evict another bucket's line (the bucket
/// cursors start a fixed stride apart and would map to the same few cache
/// sets); a partial line, shared with a neighbouring bucket or with the
/// chunk before or after in the same bucket, gets only the chunk's own
/// bytes, copied slot by slot, so no two threads write one byte. Each
/// thread fences its streamed lines before it returns, and the join orders
/// them before the caller reads. Values only: a shard re-derives its row
/// ids from the base when something first reads one ([`crate::row_ids`]).
/// At most [`MAX_BUCKETS`] shards. Pass 1 runs the kernel of `isa`
/// ([`count_chunk`]); either kernel gives every value the same id.
///
/// With metrics on, each build counts `cracking_whole_builds_total` and its
/// helper threads into `cracking_whole_build_helpers_total`, and times the
/// wall time of each pass, across all its threads, into
/// `cracking_whole_build_count_ns` and `cracking_whole_build_scatter_ns`.
fn route_all(
    isa: Isa,
    base: &[i64],
    plan: &ShardPlan,
    piece_floor: usize,
    threads: usize,
) -> Vec<Routed> {
    let width = std::mem::size_of::<i64>();
    let geometry = coarse_buckets(plan, base.len(), piece_floor);
    let buckets = geometry.last().map_or(0, |g| g.ids().end() + 1);
    assert!(buckets <= MAX_BUCKETS, "bucket ids must fit a byte");
    let chunk = base.len().div_ceil(threads.max(1)).max(1);
    let timed = holix_telemetry::metrics_enabled().then(std::time::Instant::now);
    BUCKET_IDS.with_borrow_mut(|ids| {
        if ids.len() < base.len() {
            ids.resize(base.len(), 0);
        }
        let ids = &mut ids[..base.len()];

        // Pass 1, one histogram per chunk.
        let hists = on_gang(
            base.chunks(chunk).zip(ids.chunks_mut(chunk)),
            |(base, ids)| count_chunk(isa, base, ids, &plan.cuts, &geometry),
        );
        let mut hist = [0usize; MAX_BUCKETS];
        for h in &hists {
            hist.iter_mut().zip(h).for_each(|(total, n)| *total += n);
        }
        let counted = timed.map(|t0| (t0.elapsed(), std::time::Instant::now()));

        // Exactly-sized vectors, and per bucket the shard vector it lives
        // in and the position it starts at.
        let mut out: Vec<Routed> = Vec::with_capacity(geometry.len());
        let mut dests = Dests([std::ptr::null_mut(); MAX_BUCKETS]);
        let mut cursor = [0usize; MAX_BUCKETS];
        for g in &geometry {
            let count: usize = hist[g.ids()].iter().sum();
            let mut shard = Routed {
                vals: Vec::with_capacity(shard_capacity(count)),
                bounds: Vec::with_capacity(g.last as usize),
                domain: None,
            };
            // No value straddles two lines.
            assert_eq!(shard.vals.as_ptr() as usize % width, 0, "unaligned shard");
            let mut pos = 0;
            for id in g.ids() {
                // A boundary with an empty side would only add an empty
                // piece.
                let left = shard.bounds.last().map_or(0, |b: &(i64, usize)| b.1);
                if left < pos && pos < count {
                    shard.bounds.push((g.key((id - g.first_id) as u64), pos));
                }
                dests.0[id] = shard.vals.as_mut_ptr();
                cursor[id] = pos;
                pos += hist[id];
            }
            out.push(shard);
        }
        // Each chunk's cursors: its bucket's start plus the earlier chunks'
        // counts of the bucket (`cursor` ends at the buckets' ends).
        let starts: Vec<[usize; MAX_BUCKETS]> = hists
            .iter()
            .map(|h| {
                let start = cursor;
                cursor.iter_mut().zip(h).for_each(|(c, n)| *c += n);
                start
            })
            .collect();

        // Pass 2.
        let chunks = base.chunks(chunk).zip(ids.chunks(chunk)).zip(&starts);
        let stops = on_gang(chunks, |((base, ids), &start)| {
            // SAFETY: `ids` are the chunk's ids from pass 1, whose
            // histogram of them placed `start`: the chunk's slots of a
            // bucket follow the earlier chunks' and precede the later
            // ones', all inside the bucket's range of its shard's first
            // `count` slots, which are allocated (capacity above `count`)
            // and written by no other bucket; the vectors are aligned to
            // 8 bytes (asserted per shard), which divide `LINE`. Backed at
            // 1 to 4 threads by the layout
            // tests (`assert_same_build`) and under ASan in CI.
            unsafe { scatter_chunk(base, ids, &dests, start) }
        });
        if let Some((count_time, t1)) = counted {
            holix_telemetry::counter!("cracking_whole_builds_total").inc();
            holix_telemetry::counter!("cracking_whole_build_helpers_total")
                .add(hists.len().saturating_sub(1) as u64);
            holix_telemetry::histogram!("cracking_whole_build_count_ns")
                .record(count_time.as_nanos() as u64);
            holix_telemetry::histogram!("cracking_whole_build_scatter_ns")
                .record(t1.elapsed().as_nanos() as u64);
        }
        // Every chunk stopped where the next one starts, the last at its
        // buckets' ends.
        for (stop, next) in stops.iter().zip(starts.iter().skip(1).chain([&cursor])) {
            assert_eq!(stop, next, "a chunk did not fill its slots exactly");
        }

        for (g, shard) in geometry.iter().zip(&mut out) {
            let count: usize = hist[g.ids()].iter().sum();
            // SAFETY: the buckets of this shard tile `0..count`, and every
            // chunk's cursors stopped where the next chunk's began, the last
            // at the bucket's end (just asserted), so pass 2 staged every
            // one of the first `count` slots, and each staged line reached
            // the vector once — flushed when its last slot filled, or by the
            // tail copy — before its thread's fence and the join
            // (`prop_scatter_lays_out_partial_lines_as_the_counting_sort`
            // reads every slot back).
            unsafe { shard.vals.set_len(count) };
            // Pieces are in key order and none is empty: the extremes sit
            // in the first and the last.
            let first = shard.bounds.first().map_or(count, |b| b.1);
            let last = shard.bounds.last().map_or(0, |b| b.1);
            let min = shard.vals[..first].iter().copied().reduce(i64::min);
            let max = shard.vals[last..].iter().copied().reduce(i64::max);
            shard.domain = min.zip(max);
        }
        out
    })
}

/// Base rows a zone of the zone map covers (the last zone may be shorter).
pub const ZONE: usize = 1024;

/// A base's zone map: the smallest and largest value of each [`ZONE`]-row
/// block, in base order.
type ZoneMap = Box<[(i64, i64)]>;

/// Base rows per shard of `plan` (branch-free: a value's shard is the
/// number of cuts at or below it) and, from the same pass, the base's zone
/// map.
fn count_and_zone(base: &[i64], plan: &ShardPlan) -> (Box<[usize]>, ZoneMap) {
    let mut counts = vec![0usize; plan.shards()];
    let zones = base
        .chunks(ZONE)
        .map(|zone| {
            let (mut min, mut max) = (zone[0], zone[0]);
            for &v in zone {
                let k: usize = plan.cuts.iter().map(|&c| (c <= v) as usize).sum();
                counts[k] += 1;
                (min, max) = (min.min(v), max.max(v));
            }
            (min, max)
        })
        .collect();
    (counts.into(), zones)
}

/// Slots a shard vector of `count` values is allocated with: 25 % headroom
/// for the first Ripple inserts, and at least one slot past the values.
fn shard_capacity(count: usize) -> usize {
    count + count / 4 + 1
}

/// One shard's values out of a one-shard filter pass.
struct Filtered {
    /// The base values in the shard's range, in base order, in a vector of
    /// [`shard_capacity`].
    vals: Vec<i64>,
    /// Their smallest and largest value (`None` when there are none).
    domain: Option<(i64, i64)>,
    /// Zones of the zone map the pass did not read.
    skipped: usize,
}

/// The `count` base values in `[lo, hi)` (`None` = unbounded) and their
/// domain, from one filter pass with the kernel of [`kernels::active_isa`]
/// over the zones of `zones` (the base's zone map) that can hold them.
fn filter_pass(
    base: &[i64],
    zones: &[(i64, i64)],
    count: usize,
    lo: Option<i64>,
    hi: Option<i64>,
) -> Filtered {
    filter_pass_on(kernels::active_isa(), base, zones, count, lo, hi)
}

/// [`filter_pass`] with the kernel of `isa`. The kernel runs once per
/// maximal run of consecutive zones whose `[min, max]` meets `[lo, hi)`,
/// appending to the output, so the values land in base order exactly as a
/// pass over the whole base puts them: a zone it skips holds no value in
/// range. Panics when the base holds other than `count` values in range;
/// either kernel writes inside the vector's capacity only, straight into it.
fn filter_pass_on(
    isa: Isa,
    base: &[i64],
    zones: &[(i64, i64)],
    count: usize,
    lo: Option<i64>,
    hi: Option<i64>,
) -> Filtered {
    assert_eq!(
        zones.len(),
        base.len().div_ceil(ZONE),
        "not this base's zones"
    );
    let meets = |zone: &(i64, i64)| zone_meets(zone, lo, hi);
    let mut vals = Vec::with_capacity(shard_capacity(count));
    // One slot past `count` takes the portable loop's writes of rejected
    // values that follow the last kept one.
    let out = &mut vals.spare_capacity_mut()[..count + 1];
    let (mut kept, mut fold, mut skipped) = (0, (i64::MAX, i64::MIN), 0);
    let mut start = 0;
    for run in zones.chunk_by(|a, b| meets(a) == meets(b)) {
        let rows = start..(start + run.len() * ZONE).min(base.len());
        start = rows.end;
        if !meets(&run[0]) {
            skipped += run.len();
            continue;
        }
        let (k, (min, max)) = filter_on(isa, &base[rows], &mut out[kept..], lo, hi);
        kept += k;
        fold = (fold.0.min(min), fold.1.max(max));
    }
    assert_eq!(kept, count, "shard counts disagree with the base column");
    // SAFETY: the runs wrote the `kept == count` values in range to the
    // first `count` slots, each run from where the one before stopped
    // (the count asserted above; `one_shard_build_kernels_agree_at_every_tail`
    // and `one_shard_build_zone_pruned_pass_equals_the_whole_base_pass`
    // read every slot back).
    unsafe { vals.set_len(count) };
    Filtered {
        vals,
        domain: (count > 0).then_some(fold),
        skipped,
    }
}

/// Whether a zone whose values span `[min, max]` can hold a value in
/// `[lo, hi)` (`None` = unbounded).
fn zone_meets(&(min, max): &(i64, i64), lo: Option<i64>, hi: Option<i64>) -> bool {
    lo.is_none_or(|lo| lo <= max) && hi.is_none_or(|hi| min < hi)
}

/// Count and sum of the values of `base` in `[lo, hi)` (`None` =
/// unbounded) over the zones of `zones` (the base's zone map) that can
/// hold one, and how many zones that read: the runs of [`filter_pass_on`],
/// each through [`kernels::filter_count`], the snapshot read's edge filter.
/// An unbounded top takes `i64::MAX` too, as a cracked select reads it.
fn scan_zones(
    base: &[i64],
    zones: &[(i64, i64)],
    lo: Option<i64>,
    hi: Option<i64>,
) -> (RangeStats, usize) {
    assert_eq!(
        zones.len(),
        base.len().div_ceil(ZONE),
        "not this base's zones"
    );
    let meets = |zone: &(i64, i64)| zone_meets(zone, lo, hi);
    let (mut stats, mut read, mut start) = (RangeStats::default(), 0, 0);
    for run in zones.chunk_by(|a, b| meets(a) == meets(b)) {
        let rows = start..(start + run.len() * ZONE).min(base.len());
        start = rows.end;
        if !meets(&run[0]) {
            continue;
        }
        read += run.len();
        let (count, sum) = kernels::filter_count(&base[rows], lo, hi);
        stats.merge(RangeStats { count, sum });
    }
    (stats, read)
}

/// One call of the filter kernel of `isa`: the compress-store filter on
/// [`Isa::Avx512`], the portable loop on any other. Returns how many values
/// it kept and their smallest and largest (`(i64::MAX, i64::MIN)` when
/// none).
fn filter_on(
    isa: Isa,
    base: &[i64],
    out: &mut [MaybeUninit<i64>],
    lo: Option<i64>,
    hi: Option<i64>,
) -> (usize, (i64, i64)) {
    if isa == Isa::Avx512 {
        #[cfg(target_arch = "x86_64")]
        return kernels::avx512::filter(base, lo, hi, out);
    }
    match (lo, hi) {
        (None, None) => filter_portable(base, out, |_| true),
        (Some(lo), None) => filter_portable(base, out, |v| lo <= v),
        (None, Some(hi)) => filter_portable(base, out, |v| v < hi),
        (Some(lo), Some(hi)) => filter_portable(base, out, |v| (lo <= v) & (v < hi)),
    }
}

/// The values `keep` accepts to the front of `out`, branch-free: every
/// value is written at the cursor, which only advances past a kept one, so
/// `out` needs a slot past the last kept value, and the extremes take a
/// select. Returns how many and their smallest and largest value
/// (`(i64::MAX, i64::MIN)` when none); panics rather than write beyond
/// `out`.
fn filter_portable(
    base: &[i64],
    out: &mut [MaybeUninit<i64>],
    keep: impl Fn(i64) -> bool,
) -> (usize, (i64, i64)) {
    let (mut c, mut min, mut max) = (0, i64::MAX, i64::MIN);
    for &v in base {
        assert!(c < out.len(), "more values in range than the output holds");
        out[c].write(v);
        let k = keep(v);
        min = min.min(if k { v } else { i64::MAX });
        max = max.max(if k { v } else { i64::MIN });
        c += k as usize;
    }
    (c, (min, max))
}

impl<T> ShardedColumn<T> {
    /// A column over `base` with every cell empty: nothing is copied until
    /// [`ShardedColumn::admit`] builds a shard.
    pub fn lazy(name: &str, base: Arc<Vec<i64>>, plan: ShardPlan) -> Self {
        ShardedColumn {
            cells: (0..plan.shards()).map(|_| ShardCell::empty()).collect(),
            plan,
            base,
            counts: Arc::default(),
            zones: Arc::default(),
            name: name.to_string(),
            threads: (1, 1),
            piece_floor: (L1_BYTES / size_of::<i64>()).max(1),
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
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.cells.len()
    }

    /// Shard `k`'s cracker column and tag, `None` while the cell is empty.
    /// Lock-free.
    pub fn resident(&self, k: usize) -> Option<(&Arc<CrackerColumn>, &T)> {
        self.cells[k].built.get().map(|(shard, tag)| (shard, tag))
    }

    /// Shard `k`'s cracker column. Panics on an empty cell: callers either
    /// built the column eagerly or admitted `k` first.
    pub fn shard(&self, k: usize) -> &Arc<CrackerColumn> {
        self.resident(k).expect("shard is not resident").0
    }

    /// Base rows shard `k` holds under this plan, once some build has
    /// counted them (`None` before). Never counts by itself.
    pub fn shard_rows(&self, k: usize) -> Option<usize> {
        self.counts.get().map(|c| c[k])
    }

    /// The resident shards' cracker columns, in shard order.
    pub fn resident_shards(&self) -> impl Iterator<Item = &Arc<CrackerColumn>> {
        self.cells
            .iter()
            .filter_map(|c| c.built.get().map(|(shard, _)| shard))
    }

    /// Shard `k`'s cracker column, built by `make` from the shard's name.
    fn new_shard(
        &self,
        k: usize,
        make: impl FnOnce(String) -> CrackerColumn,
    ) -> Arc<CrackerColumn> {
        let name = match self.version {
            0 => format!("{}/s{k}", self.name),
            v => format!("{}/v{v}/s{k}", self.name),
        };
        let (select, refine) = self.threads;
        Arc::new(make(name).with_threads(select, refine))
    }

    /// Shard `k` over migrated tuples in no particular order: one piece,
    /// row ids stored (after updates a shard is no filter of the base).
    fn one_piece_shard(&self, k: usize, vals: Vec<i64>, rows: Vec<RowId>) -> Arc<CrackerColumn> {
        self.new_shard(k, |name| CrackerColumn::from_parts(name, vals, rows))
    }

    /// Shard `k` over `vals`, the base values of its range laid out in the
    /// pieces of `bounds`: born without row ids, which it re-derives from
    /// the base when something first reads one.
    fn base_shard(
        &self,
        k: usize,
        vals: Vec<i64>,
        bounds: &[(i64, usize)],
        domain: Option<(i64, i64)>,
    ) -> Arc<CrackerColumn> {
        let (lo, hi) = self.shard_range(k);
        let source = RowSource::new(Arc::clone(&self.base), lo, hi);
        self.new_shard(k, |name| {
            CrackerColumn::from_source(name, vals, source, bounds, domain)
        })
    }

    /// Shard `k`'s value range `[lo, hi)` under the plan (`None` =
    /// unbounded).
    fn shard_range(&self, k: usize) -> (Option<i64>, Option<i64>) {
        let cuts = self.plan.cuts();
        (k.checked_sub(1).map(|i| cuts[i]), cuts.get(k).copied())
    }

    /// Shard `k`'s values alone and their domain, filtered out of the
    /// zones of the base that can hold them in one pass. The first such
    /// build of a base maps its zones in the pass that counts the shards;
    /// the first of a later plan recounts the same way. With metrics on,
    /// each build counts `cracking_shard_builds_total` and the zones it
    /// skipped into `cracking_shard_build_zones_skipped_total`, and is
    /// timed into `cracking_shard_build_ns`.
    fn filter_parts(&self, k: usize) -> Filtered {
        let timed = holix_telemetry::metrics_enabled().then(std::time::Instant::now);
        let (counts, zones) = self.mapped();
        let (lo, hi) = self.shard_range(k);
        let parts = filter_pass(&self.base, zones, counts[k], lo, hi);
        if let Some(t0) = timed {
            holix_telemetry::counter!("cracking_shard_builds_total").inc();
            holix_telemetry::counter!("cracking_shard_build_zones_skipped_total")
                .add(parts.skipped as u64);
            holix_telemetry::histogram!("cracking_shard_build_ns")
                .record(t0.elapsed().as_nanos() as u64);
        }
        parts
    }

    /// Base rows per shard under the plan and the base's zone map. The
    /// first call for a base maps its zones in the pass that counts the
    /// shards; the first of a later plan recounts the same way.
    fn mapped(&self) -> (&[usize], &[(i64, i64)]) {
        let base = &self.base[..];
        let zones = self.zones.get_or_init(|| {
            let (counts, zones) = count_and_zone(base, &self.plan);
            // (A whole build may have counted the same plan already.)
            let _ = self.counts.set(counts);
            zones
        });
        let counts = self
            .counts
            .get_or_init(|| count_and_zone(base, &self.plan).0);
        (counts, zones)
    }

    /// Base rows shard `k` holds under this plan, counted (and the base's
    /// zones mapped) by the first call if no build has counted them.
    pub fn cold_rows(&self, k: usize) -> usize {
        self.mapped().0[k]
    }

    /// The base values a read of `pred` counts on shard `k` as `[lo, hi)`
    /// (`None` = unbounded), `None` when it can count none: `pred`
    /// intersected with the shard's range, an upper bound of `i64::MAX`
    /// unbounded, as a cracked select reads a predicate
    /// [`ShardPlan::clamp`] widened.
    fn cold_bounds(&self, k: usize, pred: Predicate) -> Option<(Option<i64>, Option<i64>)> {
        if pred.is_empty() {
            return None;
        }
        let (lo, hi) = self.shard_range(k);
        let lo = lo.map_or(pred.lo, |lo| lo.max(pred.lo));
        let hi = match pred.hi {
            i64::MAX => hi,
            top => Some(hi.map_or(top, |hi| hi.min(top))),
        };
        hi.is_none_or(|hi| lo < hi).then_some((Some(lo), hi))
    }

    /// The base zones [`ShardedColumn::scan_cold`] of `pred` on shard `k`
    /// reads, while that still costs less than building the shard, counted
    /// in zones read: the zones the scan would read, plus those scans have
    /// read for the shard's cell so far, stay below the zones a one-shard
    /// build of it reads. `None` once they would not: scanning on has cost
    /// about as much as the build would have (the break-even rule of
    /// renting against buying), and the shard is worth building. Maps the
    /// base's zones if nothing has ([`ShardedColumn::is_mapped`]).
    pub fn cold_scan_zones(&self, k: usize, pred: Predicate) -> Option<usize> {
        let (_, zones) = self.mapped();
        let (lo, hi) = self.shard_range(k);
        let rebuild = zones.iter().filter(|z| zone_meets(z, lo, hi)).count();
        let read = self.cold_bounds(k, pred).map_or(0, |(lo, hi)| {
            zones.iter().filter(|z| zone_meets(z, lo, hi)).count()
        });
        (self.cells[k].scanned.load(Relaxed) + read < rebuild).then_some(read)
    }

    /// Whether a build or a cold read has counted the plan's shards and
    /// mapped the base's zones, so [`ShardedColumn::cold_rows`] and
    /// [`ShardedColumn::cold_scan_zones`] read them without a pass over the
    /// base.
    pub fn is_mapped(&self) -> bool {
        self.counts.get().is_some() && self.zones.get().is_some()
    }

    /// Count and sum of the base values a read of `pred` (clamped to shard
    /// `k`, as a fan-out passes it) counts on shard `k`, whether or not the
    /// shard is built: a scan of the base zones whose minimum and maximum
    /// meet the predicate, answering what a shard built from the base
    /// would. Adds the zones it read to the cell's count
    /// ([`ShardedColumn::cold_scan_zones`]). The first cold read of a base
    /// maps its zones as the first one-shard build does. With metrics on,
    /// each scan counts `cracking_cold_scans_total` and the zones it read
    /// into `cracking_cold_scan_zones_total`.
    pub fn scan_cold(&self, k: usize, pred: Predicate) -> RangeStats {
        let (_, zones) = self.mapped();
        let Some((lo, hi)) = self.cold_bounds(k, pred) else {
            return RangeStats::default();
        };
        let (stats, read) = scan_zones(&self.base, zones, lo, hi);
        self.cells[k].scanned.fetch_add(read, Relaxed);
        if holix_telemetry::metrics_enabled() {
            holix_telemetry::counter!("cracking_cold_scans_total").inc();
            holix_telemetry::counter!("cracking_cold_scan_zones_total").add(read as u64);
        }
        stats
    }

    /// Threads a whole build of this column runs on when `offered` are
    /// free, the caller's included: at most one per
    /// [`DEFAULT_MIN_PARALLEL`] base rows, so every thread's chunk pays for
    /// its spawn, and at least the caller.
    pub fn whole_build_threads(&self, offered: usize) -> usize {
        offered.min(self.base.len() / DEFAULT_MIN_PARALLEL).max(1)
    }

    /// Pass 1 of the whole build [`ShardedColumn::admit`] makes of this
    /// column, alone and on the calling thread, with the kernel of `isa`:
    /// every base value's bucket id into `ids` (one slot per base row);
    /// returns how many values each bucket id got. The micro-benchmarks
    /// time it as `first_touch/bucket_ids*`. Panics on an `isa` the CPU
    /// lacks.
    #[doc(hidden)]
    pub fn whole_build_ids(&self, isa: Isa, ids: &mut [u8]) -> [usize; MAX_BUCKETS] {
        let geometry = coarse_buckets(&self.plan, self.base.len(), self.piece_floor);
        count_chunk(isa, &self.base, ids, &self.plan.cuts, &geometry)
    }

    /// Makes shards `first..=last` resident. The empty cells among them
    /// are built — all S at once with the two-level range partition
    /// (each shard born with its coarse buckets as pieces) on
    /// [`ShardedColumn::whole_build_threads`] of the `threads` offered, a
    /// smaller set with one filter pass each (one piece) on the caller —
    /// then `tag` sees the fresh columns as one batch (ascending shard
    /// order) and returns one tag per column, and column and tag are
    /// published together. All of it runs under the build locks of the
    /// touched cells, so two racing callers build, tag and publish each
    /// shard exactly once.
    pub fn admit(
        &self,
        first: usize,
        last: usize,
        threads: usize,
        tag: impl FnOnce(&[Arc<CrackerColumn>]) -> Vec<T>,
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
        let fresh: Vec<Arc<CrackerColumn>> = if whole {
            let threads = self.whole_build_threads(threads);
            let isa = kernels::active_isa();
            let routed = route_all(isa, &self.base, &self.plan, self.piece_floor, threads);
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
                .map(|&k| {
                    let parts = self.filter_parts(k);
                    self.base_shard(k, parts.vals, &[], parts.domain)
                })
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
    /// evicted. Survivors keep their cracks, tags, prefix sums and filters;
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
            zones: Arc::clone(&self.zones),
            name: self.name.clone(),
            threads: self.threads,
            piece_floor: self.piece_floor,
            version: self.version,
        }
    }

    /// Shard indices intersecting `pred`, each with the predicate clamped
    /// to the shard's value range.
    pub fn intersecting(&self, pred: Predicate) -> Vec<(usize, Predicate)> {
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

    /// Fan-out verified select: counts plus checksums across shards. Each
    /// shard answers at its own instant ([`CrackerColumn::select_verified`]),
    /// so a fan-out is not one global instant — as for every fan-out.
    pub fn select_verified(
        &self,
        pred: Predicate,
        scratch: &mut CrackScratch,
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
    /// shard answers from its own live pieces and prefix sums
    /// ([`CrackerColumn::snapshot_scan`]) under its own structure lock
    /// shared, so a Ripple merge in one value range never stalls readers
    /// of any other shard. Aggregates are merged across shards.
    pub fn snapshot_scan(&self, pred: Predicate, scratch: &mut CrackScratch) -> SnapshotScan {
        let mut out = SnapshotScan::default();
        for (k, p) in self.intersecting(pred) {
            let scan = self.shard(k).snapshot_scan(p, scratch);
            out.count += scan.count;
            out.sum += scan.sum;
            out.filtered += scan.filtered;
        }
        out
    }

    /// Routes an insertion to the shard owning `v`'s value range. `false`
    /// when that shard is sealed for migration — the caller retries
    /// against the successor plan.
    pub fn queue_insert(&self, v: i64, row: RowId) -> bool {
        self.shard(self.plan.shard_of(v)).queue_insert(v, row)
    }

    /// Routes a deletion to the shard owning `v`'s value range. `false`
    /// when that shard is sealed for migration.
    pub fn queue_delete(&self, v: i64, row: RowId) -> bool {
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
    /// action does not name keep their cells — indices, latches, piece
    /// sums and point filters survive untouched — while the named
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
        tag: impl FnOnce(&[Arc<CrackerColumn>]) -> Option<Vec<T>>,
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
            zones: Arc::clone(&self.zones),
            name: self.name.clone(),
            threads: self.threads,
            piece_floor: self.piece_floor,
            version,
        };
        let fresh: Vec<Arc<CrackerColumn>> = parts
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
    fn split_shard(
        &self,
        k: usize,
    ) -> Option<((Vec<i64>, Vec<RowId>), i64, (Vec<i64>, Vec<RowId>))> {
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
impl ShardedColumn {
    /// Builds every shard from a base column with a precomputed plan. Each
    /// base tuple lands in exactly one shard, keeping its global row id.
    pub fn from_base_with_plan(name: &str, base: &[i64], plan: ShardPlan) -> Self {
        let col = Self::lazy(name, Arc::new(base.to_vec()), plan);
        col.admit(0, col.shard_count() - 1, 1, |fresh| vec![(); fresh.len()]);
        col
    }

    /// [`ShardedColumn::apply_replan_with`] for the untagged column.
    pub fn apply_replan(&self, action: ReplanAction) -> Option<ShardedColumn> {
        self.apply_replan_with(action, |fresh| Some(vec![(); fresh.len()]))
    }
}

impl<T> std::fmt::Debug for ShardedColumn<T> {
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
        // A full-domain select counts every shard's queue and merges none …
        let mut scratch = CrackScratch::new();
        let pred = Predicate::range(0, 1_000);
        let (_, stats) = col.select_verified(pred, &mut scratch);
        assert_eq!(stats, scan_stats(&b, pred));
        assert_eq!(col.pending_len(), 4);
        // … and each shard's merge applies its own insert alone.
        for k in 0..4 {
            col.shard(k).merge_pending();
            assert_eq!(col.pending_len(), 3 - k, "shard {k} merged another's");
        }
        let (_, stats) = col.select_verified(pred, &mut scratch);
        assert_eq!(stats, scan_stats(&b, pred));
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
    }

    /// The shard of `col` owning `v`'s value range.
    fn owner(col: &ShardedColumn, v: i64) -> &CrackerColumn {
        col.shard(col.plan().shard_of(v))
    }

    #[test]
    fn point_filter_screens_absent_values_without_cracking() {
        // Base holds only even values: every odd probe is filter-negative
        // (modulo Bloom false positives) and must crack nothing.
        let b: Vec<i64> = (0..20_000).map(|i| i * 2).collect();
        let plan = ShardPlan::from_values(&b, 4);
        let col = ShardedColumn::from_base_with_plan("a", &b, plan);
        for v in [1i64, 10_001, 39_999] {
            assert_eq!(owner(&col, v).probe_point(v), None, "filter built eagerly");
            owner(&col, v).ensure_point_filter();
        }
        let pieces_before = col.piece_count();
        let mut negatives = 0;
        for i in 0..1_000 {
            // Odd, so absent. The owner builds its filter once; later
            // calls return it.
            let v = i * 40 + 1;
            if !owner(&col, v).ensure_point_filter().contains(v) {
                negatives += 1;
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
            assert!(
                owner(&col, v).ensure_point_filter().contains(v),
                "present value {v} screened"
            );
        }
    }

    #[test]
    fn point_filter_covers_pending_and_racing_inserts() {
        let b: Vec<i64> = (0..10_000).map(|i| i * 2).collect();
        let plan = ShardPlan::from_values(&b, 2);
        let col = Arc::new(ShardedColumn::from_base_with_plan("a", &b, plan));
        // Queued before the build: the catch-up pass must see it.
        col.queue_insert(4_001, 10_000);
        assert!(owner(&col, 4_001).ensure_point_filter().contains(4_001));
        // Racing inserts after the build: queue_insert ORs them in under
        // the pending mutex, so none may be reported absent.
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
                let v = i * 2 + 1;
                let _ = owner(&col2, v).probe_point(v);
            }
        });
        for w in writers {
            w.join().unwrap();
        }
        reader.join().unwrap();
        for t in 0..2i64 {
            for i in 0..500i64 {
                let v = 100_001 + t * 1_000 + i * 2;
                let present = owner(&col, v).ensure_point_filter().contains(v);
                assert!(present, "racing insert {v} dropped");
            }
        }
    }

    /// A shard's merged tuples as sorted `(value, row id)` pairs (seals the
    /// shard: for the end of a test).
    fn tuples(shard: &CrackerColumn) -> Vec<(i64, RowId)> {
        let (vals, rows) = shard.extract_for_migration();
        let mut pairs: Vec<_> = vals.into_iter().zip(rows).collect();
        pairs.sort_unstable();
        pairs
    }

    #[test]
    fn lazy_column_shares_its_base_and_builds_only_what_is_touched() {
        let base = Arc::new(base(20_000, 1_000, 30));
        let plan = ShardPlan::from_values(&base, 4);
        let col: ShardedColumn = ShardedColumn::lazy("a", Arc::clone(&base), plan);
        assert_eq!(Arc::strong_count(&base), 2, "the column copied its base");
        assert!((0..4).all(|k| col.resident(k).is_none()));
        assert_eq!(col.shard_rows(2), None, "nothing counted before a build");
        // One admitted shard answers the narrow select routed to it.
        let mut scratch = CrackScratch::new();
        let pred = Predicate::range(10, 20);
        col.admit(0, 0, 1, |fresh| vec![(); fresh.len()]);
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
        next.admit(3, 3, 1, |fresh| vec![(); fresh.len()]);
        assert!(Arc::ptr_eq(col.shard(3), next.shard(3)));
        // Rebuilt from the base, the vacated shard answers alike.
        next.admit(0, 0, 1, |fresh| vec![(); fresh.len()]);
        let (_, again) = next.select_verified(pred, &mut scratch);
        assert_eq!(again, stats);
        assert!(!Arc::ptr_eq(col.shard(0), next.shard(0)));
    }

    /// The whole-attribute routing the two-level partition replaced, kept
    /// as the reference: every tuple to its shard by `shard_of`. Sorted
    /// `(value, row id)` pairs per shard.
    fn push_routing(base: &[i64], plan: &ShardPlan) -> Vec<Vec<(i64, RowId)>> {
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
    fn counting_sort(base: &[i64], plan: &ShardPlan, floor: usize) -> Vec<Vec<i64>> {
        let mut shards = vec![Vec::new(); plan.shards()];
        for &v in base {
            shards[plan.shard_of(v)].push(v);
        }
        let geometry = coarse_buckets(plan, base.len(), floor);
        for (g, shard) in geometry.iter().zip(&mut shards) {
            shard.sort_by_key(|&v| g.id_of(v));
        }
        shards
    }

    /// `route_all` over `n` values, drawn from all of `i64` or from a
    /// window of 41 values, lays every shard out exactly as the counting
    /// sort does and finds its extremes.
    fn check_layout(seed: u64, n: usize, shards: usize, floor: usize, narrow: bool) {
        let mut rng = StdRng::seed_from_u64(seed);
        let lo = match narrow {
            true => rng.random_range(i64::MIN..=i64::MAX - 40),
            false => i64::MIN,
        };
        let hi = if narrow { lo + 40 } else { i64::MAX };
        let base: Vec<i64> = (0..n).map(|_| rng.random_range(lo..=hi)).collect();
        let plan = ShardPlan::from_values(&base, shards);
        let routed = route_all(Isa::Portable, &base, &plan, floor, 1);
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
        assert_same_build(&routed, &base, &plan, floor);
    }

    /// `route_all` at 1 to 4 threads, with the pass-1 kernel
    /// `kernels::active_isa` picks, lays out every shard of `base` as
    /// `one_thread` (its portable 1-thread build) does: slot for slot,
    /// with the same bucket bounds and domains.
    fn assert_same_build(one_thread: &[Routed], base: &[i64], plan: &ShardPlan, floor: usize) {
        for threads in 1..=4 {
            let routed = route_all(kernels::active_isa(), base, plan, floor, threads);
            assert_eq!(routed.len(), one_thread.len());
            for (k, (got, want)) in routed.iter().zip(one_thread).enumerate() {
                assert_eq!(got.vals, want.vals, "{threads} threads, shard {k}");
                assert_eq!(got.bounds, want.bounds, "{threads} threads, shard {k}");
                assert_eq!(got.domain, want.domain, "{threads} threads, shard {k}");
            }
        }
    }

    /// Two chunks of one bucket that meet inside a cache line, scattered
    /// one after the other on this thread: a column in one bucket (a piece
    /// floor far above its length, so the layout is the base order) whose
    /// chunk cut sits an odd number of slots into a vector aligned to two
    /// slots, so the chunks write disjoint slots of that line, and both
    /// stream whole lines on either side. The second chunk runs after the
    /// first one's tail copy, so a partial line it streamed whole would
    /// overwrite the first chunk's slots of the shared line.
    #[test]
    fn chunks_share_a_line_inside_one_bucket() {
        let base: Vec<i64> = (0..2 * 1001).map(|i| i % 251).collect();
        let plan = ShardPlan::from_values(&base, 1);
        let geometry = coarse_buckets(&plan, base.len(), 1 << 20);
        let (first, second) = base.split_at(1001);
        let mut ids = vec![0u8; base.len()];
        let (first_ids, second_ids) = ids.split_at_mut(1001);
        let hist = count_chunk_portable(first, first_ids, &plan.cuts, &geometry);
        count_chunk_portable(second, second_ids, &plan.cuts, &geometry);
        assert!(
            first_ids.iter().chain(&*second_ids).all(|&id| id == 0),
            "one bucket"
        );
        let mut vals: Vec<i64> = Vec::with_capacity(shard_capacity(base.len()));
        let cut = vals.as_ptr().wrapping_add(1001) as usize;
        assert_ne!(cut % LINE, 0, "the chunk cut must fall inside a line");
        let mut dests = Dests([std::ptr::null_mut(); MAX_BUCKETS]);
        dests.0[0] = vals.as_mut_ptr();
        // SAFETY: `first_ids` / `second_ids` are the chunks' bucket ids,
        // all 0; the first chunk's slots of bucket 0 are `0..1001` and the
        // second's `1001..2002`, inside the vector's capacity, which is
        // aligned to its 8-byte values; the two calls run one after the
        // other on this thread and nothing reads the vector before both
        // returned (this test is what checks the shared line).
        let stop = unsafe { scatter_chunk(first, first_ids, &dests, [0; MAX_BUCKETS]) };
        assert_eq!(stop, hist, "the first chunk stops where the second starts");
        // SAFETY: as above.
        let stop = unsafe { scatter_chunk(second, second_ids, &dests, stop) };
        assert_eq!(stop[0], base.len());
        // SAFETY: the two chunks staged all `base.len()` slots (the
        // cursors just checked), and both fenced their streamed lines.
        unsafe { vals.set_len(base.len()) };
        assert_eq!(vals, base);
    }

    /// A base shorter than two chunks of `DEFAULT_MIN_PARALLEL` rows is
    /// built on the caller alone, whatever it is offered; at two chunks'
    /// length it gangs a helper, and the two builds lay out alike.
    #[test]
    fn short_bases_build_on_the_caller_alone() {
        let short = base(2 * DEFAULT_MIN_PARALLEL - 1, 1 << 20, 3);
        let plan = ShardPlan::from_values(&short, 4);
        let col: ShardedColumn =
            ShardedColumn::lazy("short", Arc::new(short.clone()), plan.clone());
        assert_eq!(col.whole_build_threads(4), 1);
        col.admit(0, plan.shards() - 1, 4, |fresh| vec![(); fresh.len()]);
        let floor = L1_BYTES / 8;
        for (k, want) in counting_sort(&short, &plan, floor).into_iter().enumerate() {
            assert_eq!(
                col.shard(k).snapshot_range(0, want.len()),
                want,
                "shard {k}"
            );
        }
        let long = base(2 * DEFAULT_MIN_PARALLEL, 1 << 20, 3);
        let col: ShardedColumn = ShardedColumn::lazy("long", Arc::new(long), plan);
        assert_eq!(col.whole_build_threads(4), 2);
        assert_eq!(col.whole_build_threads(1), 1);
    }

    // Piece floors of 1 and 4, over all of `i64` or a 41-value window:
    // buckets of 0 to about 7 values, under one 64-byte line of 8 values
    // and starting anywhere inside one, at 1 to 4 threads.
    proptest! {
        #[test]
        fn prop_scatter_lays_out_partial_lines_as_the_counting_sort(
            seed in any::<u64>(),
            n in 0usize..600,
            shards in 0usize..4,
            floor in 0usize..2,
            narrow in any::<bool>(),
        ) {
            let (shards, floor) = ([1usize, 2, 4, 7][shards], [1usize, 4][floor]);
            check_layout(seed, n, shards, floor, narrow);
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
        let routed = route_all(Isa::Portable, &base, &plan, floor, 1);
        assert_eq!(routed.len(), plan.shards());
        assert_same_build(&routed, &base, &plan, floor);
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
        let eager: ShardedColumn =
            ShardedColumn::lazy("eager", Arc::clone(&shared), plan.clone()).with_piece_floor(floor);
        eager.admit(0, plan.shards() - 1, 1, |fresh| vec![(); fresh.len()]);
        let lazy: ShardedColumn =
            ShardedColumn::lazy("lazy", shared, plan.clone()).with_piece_floor(floor);
        let mut order: Vec<usize> = (0..plan.shards()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.random_range(0..=i));
        }
        for &k in &order {
            let vals = lazy.filter_parts(k).vals;
            assert!(vals.capacity() >= vals.len() + vals.len() / 4);
            lazy.admit(k, k, 1, |fresh| vec![(); fresh.len()]);
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

    /// A column's whole boundary table.
    fn bounds_of(col: &CrackerColumn) -> Vec<(i64, usize)> {
        col.with_index(crate::CrackerIndex::bounds_in_order)
    }

    /// Sorted values of each piece of `col` under `bounds`.
    fn piece_multisets(col: &CrackerColumn, bounds: &[(i64, usize)]) -> Vec<Vec<i64>> {
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
    /// ids are the shard's base rows, each once; the piece sums a snapshot
    /// read took before the build still hold after it; and the two go on
    /// agreeing under later cracks and a Ripple merge.
    fn check_row_ids_on_demand(seed: u64, n: usize, domain: usize, shards: usize, whole: bool) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = column_of(domain, n, &mut rng);
        let plan = ShardPlan::from_values(&base, shards);
        let reference = push_routing(&base, &plan);
        let col: ShardedColumn =
            ShardedColumn::lazy("lazy", Arc::new(base.clone()), plan.clone()).with_piece_floor(4);
        match whole {
            true => col.admit(0, plan.shards() - 1, 1, |fresh| vec![(); fresh.len()]),
            false => (0..plan.shards()).for_each(|k| col.admit(k, k, 1, |_| vec![()])),
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
            let crack_both = |rng: &mut StdRng, scratch: &mut CrackScratch| {
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
            let sums = shard.piece_sums().expect("the read summed the pieces");

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
            assert_eq!(shard.piece_sums(), Some(sums), "shard {k}: a sum moved");
            for _ in 0..4 {
                let (x, y) = (pivot(&mut rng), pivot(&mut rng));
                let pred = plan.clamp(k, Predicate::range(x.min(y), x.max(y)));
                let want = twin.select_verified(pred, &mut scratch).1;
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

    /// A shard's `(value, row)` pairs through the conjunction path:
    /// `collect_row_ids` over the whole shard beside its values, sorted.
    fn collected_pairs(shard: &CrackerColumn) -> Vec<(i64, RowId)> {
        let ids = shard
            .collect_row_ids(Predicate::range(i64::MIN, i64::MAX))
            .expect("sentinel bounds");
        let vals = shard.snapshot_range(0, shard.len());
        assert_eq!(vals.len(), ids.len());
        let mut pairs: Vec<_> = vals.into_iter().zip(ids).collect();
        pairs.sort_unstable();
        pairs
    }

    /// Step of a values-only merge run, recorded so a fresh column can
    /// replay it (see `check_values_only_merges`).
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Insert(i64, RowId),
        Delete(i64, RowId),
        Crack(i64),
        Scan(i64, i64),
        Drain,
    }

    /// Applies `step` to a sharded column and, the same way, to the
    /// twins, one plain column per shard.
    fn apply_step(
        col: &ShardedColumn,
        twins: &[CrackerColumn],
        step: Step,
        scratch: &mut CrackScratch,
    ) {
        let plan = col.plan();
        match step {
            Step::Insert(v, row) => {
                assert!(col.queue_insert(v, row));
                assert!(twins[plan.shard_of(v)].queue_insert(v, row));
            }
            Step::Delete(v, row) => {
                assert!(col.queue_delete(v, row));
                assert!(twins[plan.shard_of(v)].queue_delete(v, row));
            }
            Step::Crack(x) => {
                let k = plan.shard_of(x);
                col.shard(k).refine_at_blocking(x, scratch);
                twins[k].refine_at_blocking(x, scratch);
            }
            Step::Scan(lo, hi) => {
                let pred = Predicate::range(lo, hi);
                let want = twins
                    .iter()
                    .enumerate()
                    .map(|(k, t)| t.snapshot_scan(plan.clamp(k, pred), scratch))
                    .fold((0, 0), |(c, s), scan| (c + scan.count, s + scan.sum));
                let got = col.snapshot_scan(pred, scratch);
                assert_eq!((got.count, got.sum), want, "snapshot scan {pred:?}");
            }
            Step::Drain => {
                for (k, twin) in twins.iter().enumerate() {
                    col.shard(k).merge_pending();
                    twin.merge_pending();
                }
            }
        }
    }

    /// Shards born without row ids take random drains beside twins that
    /// store ids from birth — plain columns over the same tuples, cracked
    /// at the same pivots and taking the same updates. The drains carry
    /// deletes of live base rows and of merged inserts, absent deletes
    /// (some naming a value present under another row, some a tuple
    /// already gone), repeated `(value, row)` pairs and inserts that reuse
    /// a base row's id; cracks and snapshot reads run between them. After
    /// every drain the shards are still without ids, every piece of a
    /// sweep of selects answers as the twins do, and a fresh column that
    /// replays the steps so far and then builds its ids hands out exactly
    /// the twins' `(value, row)` multisets, through `collect_row_ids`; at
    /// the end so does the written column itself, through a migration's
    /// extract.
    fn check_values_only_merges(seed: u64, n: usize, domain: usize, shards: usize, drains: usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = Arc::new(column_of(domain, n, &mut rng));
        let plan = ShardPlan::from_values(&base, shards);
        let lazy = || {
            let col =
                ShardedColumn::lazy("lazy", Arc::clone(&base), plan.clone()).with_piece_floor(4);
            col.admit(0, plan.shards() - 1, 1, |fresh| vec![(); fresh.len()]);
            col
        };
        let twins_of = || -> Vec<CrackerColumn> {
            push_routing(&base, &plan)
                .into_iter()
                .map(|pairs| {
                    let (vals, rows) = pairs.into_iter().unzip();
                    CrackerColumn::from_parts("twin", vals, rows)
                })
                .collect()
        };
        let (col, twins) = (lazy(), twins_of());
        let mut scratch = CrackScratch::new();
        // The twins take the shards' birth boundaries, so every later
        // crack splits the same pieces.
        for (k, twin) in twins.iter().enumerate() {
            for (key, _) in bounds_of(col.shard(k)) {
                twin.refine_at_blocking(key, &mut scratch);
            }
        }
        let value = |rng: &mut StdRng| match n {
            0 => rng.random_range(-3..3),
            _ => base[rng.random_range(0..n)].saturating_add(rng.random_range(-1..=1)),
        };
        // Every tuple ever live: a delete drawn from here may find it
        // gone (an absent delete, as is one under a row it never had).
        let mut ever: Vec<(i64, RowId)> = (0..n).map(|r| (base[r], r as RowId)).collect();
        let mut next_row = n as RowId;
        let mut steps = Vec::new();
        for _ in 0..drains {
            for _ in 0..rng.random_range(0..24) {
                let step = match rng.random_range(0..10) {
                    0..=2 => {
                        let row = match rng.random_range(0..4) {
                            0 if n > 0 => rng.random_range(0..n) as RowId,
                            1 if !ever.is_empty() => ever[rng.random_range(0..ever.len())].1,
                            _ => {
                                next_row += 1;
                                next_row
                            }
                        };
                        // Half the inserts repeat a pair ever live.
                        let tuple = match rng.random_bool(0.5) && !ever.is_empty() {
                            true => ever[rng.random_range(0..ever.len())],
                            false => (value(&mut rng), row),
                        };
                        ever.push(tuple);
                        Step::Insert(tuple.0, tuple.1)
                    }
                    3..=5 if !ever.is_empty() => {
                        let (v, row) = ever[rng.random_range(0..ever.len())];
                        match rng.random_range(0..4) {
                            // Present under another row, or under none.
                            0 => Step::Delete(v, row ^ 1),
                            1 => Step::Delete(value(&mut rng), RowId::MAX - 1),
                            _ => Step::Delete(v, row),
                        }
                    }
                    6 | 7 => Step::Crack(value(&mut rng)),
                    _ => {
                        let (x, y) = (value(&mut rng), value(&mut rng));
                        Step::Scan(x.min(y), x.max(y))
                    }
                };
                apply_step(&col, &twins, step, &mut scratch);
                steps.push(step);
            }
            apply_step(&col, &twins, Step::Drain, &mut scratch);
            steps.push(Step::Drain);

            assert!(
                col.resident_shards().all(|s| !s.has_row_ids()),
                "a merge built row ids"
            );
            for _ in 0..4 {
                let (x, y) = (value(&mut rng), value(&mut rng));
                let pred = Predicate::range(x.min(y), x.max(y));
                for (k, twin) in twins.iter().enumerate() {
                    let pred = plan.clamp(k, pred);
                    let want = twin.select_verified(pred, &mut scratch).1;
                    assert_eq!(col.shard(k).select_verified(pred, &mut scratch).1, want);
                }
            }
            let replay = lazy();
            let fresh = twins_of();
            for &step in &steps {
                apply_step(&replay, &fresh, step, &mut scratch);
            }
            for (k, twin) in twins.iter().enumerate() {
                assert_eq!(
                    collected_pairs(replay.shard(k)),
                    collected_pairs(twin),
                    "shard {k} after {} steps",
                    steps.len()
                );
                replay.shard(k).check_invariants(None);
            }
        }
        for (k, twin) in twins.iter().enumerate() {
            assert_eq!(tuples(col.shard(k)), tuples(twin), "shard {k}, extracted");
            assert!(col.shard(k).has_row_ids());
        }
    }

    // Small columns of every shape, shards that collapse, the empty
    // column; drains of up to 23 updates, cracks and snapshot reads.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_values_only_merges_match_an_eager_twin(
            seed in any::<u64>(),
            n in 0usize..300,
            domain in 0usize..DOMAINS,
            shards in 0usize..3,
            drains in 1usize..6,
        ) {
            check_values_only_merges(seed, n, domain, [1usize, 2, 4][shards], drains);
        }
    }

    #[test]
    fn a_merge_keeps_the_shard_without_row_ids_and_its_ids_exact() {
        let b = base(8_000, 500, 31);
        let col = ShardedColumn::from_base_with_plan("a", &b, ShardPlan::from_values(&b, 2));
        let mut scratch = CrackScratch::new();
        col.select_verified(Predicate::range(100, 300), &mut scratch);
        assert!(col.resident_shards().all(|s| !s.has_row_ids()));
        // Neither queueing nor the merge that applies the updates needs an
        // id: the shard logs them. One delete of a base row, one of a value
        // present only under another row (absent), an insert reusing the
        // deleted row's id under another value of the shard, and a fresh
        // one.
        let k = col.plan().shard_of(b[17]);
        let other = (0..b.len())
            .find(|&r| r != 17 && b[r] != b[17] && col.plan().shard_of(b[r]) == k)
            .unwrap();
        assert!(col.queue_delete(b[17], 17));
        assert!(col.queue_delete(b[other], 17));
        assert!(col.queue_insert(b[other], 17));
        assert!(col.queue_insert(b[17], 9_000));
        let mut want: Vec<(i64, RowId)> = (0..b.len())
            .filter(|&r| r != 17 && col.plan().shard_of(b[r]) == k)
            .map(|r| (b[r], r as RowId))
            .chain([(b[other], 17), (b[17], 9_000)])
            .collect();
        want.sort_unstable();
        let all = Predicate::range(i64::MIN, i64::MAX);
        let before = col.shard(k).payload_bytes();
        col.shard(k).merge_pending();
        assert!(!col.shard(k).has_row_ids(), "the merge built row ids");
        let values: Vec<i64> = want.iter().map(|&(v, _)| v).collect();
        assert_eq!(
            col.shard(k).select_verified(all, &mut scratch).1,
            scan_stats(&values, all)
        );
        assert!(
            col.shard(k).payload_bytes() > before,
            "the write log is not charged"
        );
        // Asked for ids now, the shard builds exactly base − deleted +
        // inserted; the other shard, never asked, builds none.
        assert_eq!(collected_pairs(col.shard(k)), want);
        assert!(col.shard(k).has_row_ids());
        assert!(!col.shard(1 - k).has_row_ids());
        assert_eq!(tuples(col.shard(k)), want);
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
    fn bucket_of(plan: &ShardPlan, geometry: &[Buckets], v: i64) -> (usize, u64) {
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
                        assert!(v >= g.key(b), "{v} below its bucket");
                    }
                    if b < g.last {
                        assert!(v < g.key(b + 1), "{v} above its bucket");
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
            coarse_buckets(&ShardPlan::single(), 1 << 26, 4096)[0].last,
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
        // Untouched shards share their Arcs (indices and sums survive).
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
    fn in_range(b: &[i64], lo: Option<i64>, hi: Option<i64>) -> Vec<i64> {
        b.iter()
            .copied()
            .filter(|&v| lo.is_none_or(|l| l <= v) && hi.is_none_or(|h| v < h))
            .collect()
    }

    /// Smallest and largest of `vals`, the reference for a pass's domain.
    fn domain_of(vals: &[i64]) -> Option<(i64, i64)> {
        vals.iter().copied().min().zip(vals.iter().copied().max())
    }

    /// The zone map of `b`, one [`ZONE`]-row block at a time.
    fn zone_map(b: &[i64]) -> Vec<(i64, i64)> {
        b.chunks(ZONE).map(|z| domain_of(z).unwrap()).collect()
    }

    /// The filter bodies this CPU runs: the portable loop, and the
    /// compress-store kernel where `compress`.
    fn isas(compress: bool) -> impl Iterator<Item = Isa> {
        [Isa::Portable, Isa::Avx512]
            .into_iter()
            .take(1 + compress as usize)
    }

    /// Whether the compress-store filter runs here (says so when not).
    fn compress_kernel() -> bool {
        #[cfg(target_arch = "x86_64")]
        let compress = kernels::avx512::available();
        #[cfg(not(target_arch = "x86_64"))]
        let compress = false;
        if !compress {
            eprintln!("skipped the compress kernel: this CPU lacks AVX-512F/VL");
        }
        compress
    }

    /// Both filter kernels, called directly, against the reference: every
    /// length up to 64 (every tail of an eight-value chunk) and longer,
    /// all-equal, duplicate-heavy and spread values (with `i64::MIN` and
    /// `MAX` among them), ranges with open and extreme edges, empty and
    /// outside the domain.
    #[test]
    fn one_shard_build_kernels_agree_at_every_tail() {
        let compress = compress_kernel();
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
                let zones = zone_map(&b);
                for (lo, hi) in ranges {
                    let want = in_range(&b, lo, hi);
                    for isa in isas(compress) {
                        let got = filter_pass_on(isa, &b, &zones, want.len(), lo, hi);
                        assert_eq!(got.vals, want, "{isa:?} n={n} [{lo:?}, {hi:?})");
                        assert_eq!(got.domain, domain_of(&want), "{isa:?} n={n}");
                        assert!(got.vals.capacity() >= shard_capacity(want.len()));
                    }
                }
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
        filter_pass(&b, &zone_map(&b), count / 2, None, Some(500));
    }

    /// `n` values `2 * i` for `i` in `0..n`, in sorted runs of `run` rows
    /// whose order is shuffled: ingest-ordered data, which a zone map
    /// prunes when the runs line up with its zones.
    fn sorted_runs(n: usize, run: usize, rng: &mut StdRng) -> Vec<i64> {
        let values: Vec<i64> = (0..n as i64).map(|v| 2 * v).collect();
        let mut runs: Vec<&[i64]> = values.chunks(run).collect();
        shuffle(&mut runs, rng);
        runs.concat()
    }

    fn shuffle<T>(xs: &mut [T], rng: &mut StdRng) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, rng.random_range(0..=i));
        }
    }

    /// The zone-pruned pass equals a pass over the whole base (every zone
    /// a cover of all of `i64`, so none is skipped) slot for slot, with the
    /// same count and domain, on both bodies; it skips exactly the zones
    /// whose extremes miss the range; and the shard count pass maps the
    /// zones it is handed. Bases: sorted runs in line with the zones and
    /// out of line, shuffled, all-equal and duplicate-heavy, of lengths
    /// around the zone size; ranges with open and extreme edges, empty,
    /// and edges on and beside zone extremes.
    #[test]
    fn one_shard_build_zone_pruned_pass_equals_the_whole_base_pass() {
        let compress = compress_kernel();
        let mut rng = StdRng::seed_from_u64(33);
        for n in [0, 1, 2, 1_023, 1_024, 1_025, 2_047, 3_072, 5_000] {
            let shuffled = {
                let mut b: Vec<i64> = (0..n as i64).map(|v| 2 * v).collect();
                shuffle(&mut b, &mut rng);
                b
            };
            let bases = [
                sorted_runs(n, ZONE, &mut rng),
                sorted_runs(n, 1_000, &mut rng),
                sorted_runs(n, 1_536, &mut rng),
                sorted_runs(n, 64, &mut rng),
                shuffled,
                vec![7; n],
                base(n, 3, n as u64),
            ];
            for b in bases {
                let zones = zone_map(&b);
                let whole = vec![(i64::MIN, i64::MAX); zones.len()];
                let plan = ShardPlan::from_values(&b, 4);
                let (counts, mapped) = count_and_zone(&b, &plan);
                assert_eq!(&mapped[..], &zones[..], "n={n}");
                assert_eq!(counts.iter().sum::<usize>(), n);
                // Edges on, just above and just below zone extremes.
                let mut edges = vec![None, Some(i64::MIN), Some(i64::MAX), Some(0), Some(7)];
                for _ in 0..4.min(zones.len()) {
                    let (min, max) = zones[rng.random_range(0..zones.len())];
                    edges.extend([min - 1, min, min + 1, max - 1, max, max + 1].map(Some));
                }
                for &lo in &edges {
                    for &hi in &edges {
                        let want = in_range(&b, lo, hi);
                        let misses = zones
                            .iter()
                            .filter(|z| lo.is_some_and(|l| z.1 < l) || hi.is_some_and(|h| z.0 >= h))
                            .count();
                        for isa in isas(compress) {
                            let at = format!("{isa:?} n={n} [{lo:?}, {hi:?})");
                            let pruned = filter_pass_on(isa, &b, &zones, want.len(), lo, hi);
                            let full = filter_pass_on(isa, &b, &whole, want.len(), lo, hi);
                            assert_eq!(pruned.vals, full.vals, "{at}");
                            assert_eq!(pruned.vals, want, "{at}");
                            assert_eq!(pruned.domain, full.domain, "{at}");
                            assert_eq!(pruned.domain, domain_of(&want), "{at}");
                            assert_eq!(pruned.skipped, misses, "{at}");
                        }
                    }
                }
            }
        }
    }

    /// The real shard ranges of a plan over sorted runs in line with the
    /// zones: each shard skips most zones, holds the values the whole build
    /// gives it, and is born knowing its domain; the zone map is made once
    /// and shared with vacated and replanned successors.
    #[test]
    fn one_shard_build_maps_the_zones_once_and_shares_them() {
        let mut rng = StdRng::seed_from_u64(34);
        let b = Arc::new(sorted_runs(1 << 15, ZONE, &mut rng));
        let plan = ShardPlan::from_values(&b, 4);
        let col: ShardedColumn = ShardedColumn::lazy("a", Arc::clone(&b), plan.clone());
        assert!(col.zones.get().is_none(), "zones mapped before a build");
        col.admit(2, 2, 1, |fresh| vec![(); fresh.len()]);
        let zones = col
            .zones
            .get()
            .expect("the first one-shard build maps them");
        assert_eq!(&zones[..], &zone_map(&b)[..]);
        let pushed = push_routing(&b, &plan);
        for (k, pairs) in pushed.iter().enumerate() {
            let parts = col.filter_parts(k);
            // Runs of 1,024 values in four shards: a quarter of the zones
            // meet a shard, give or take one at each edge.
            assert!(
                parts.skipped >= 32 - 8,
                "shard {k} skipped {}",
                parts.skipped
            );
            let values = pairs.iter().map(|&(v, _)| v);
            assert_eq!(parts.domain, values.clone().min().zip(values.max()));
        }
        let shard = col.shard(2);
        assert_eq!(
            shard.domain(),
            domain_of(&shard.snapshot_range(0, shard.len()))
        );
        let next = col.vacated(&[2]);
        assert!(Arc::ptr_eq(&col.zones, &next.zones));
        let replanned = col.apply_replan(ReplanAction::Split { shard: 2 }).unwrap();
        assert!(Arc::ptr_eq(&col.zones, &replanned.zones));
        assert_eq!(replanned.shard_rows(0), None, "a new plan is recounted");
        replanned.admit(0, 0, 1, |fresh| vec![(); fresh.len()]);
        assert_eq!(
            tuples(replanned.shard(0)),
            push_routing(&b, replanned.plan())[0]
        );
        // A whole build counts the plan but maps no zones; the first
        // one-shard build after it does.
        let whole: ShardedColumn = ShardedColumn::lazy("w", Arc::clone(&b), plan);
        whole.admit(0, 3, 1, |fresh| vec![(); fresh.len()]);
        assert!(whole.zones.get().is_none());
        let rebuilt = whole.vacated(&[1]);
        rebuilt.admit(1, 1, 1, |fresh| vec![(); fresh.len()]);
        assert!(whole.zones.get().is_some());
        assert_eq!(tuples(rebuilt.shard(1)), pushed[1]);
    }

    /// The zones of `zones` that can hold a value in `[lo, hi)`, by brute
    /// force.
    fn meeting(zones: &[(i64, i64)], lo: Option<i64>, hi: Option<i64>) -> usize {
        zones
            .iter()
            .filter(|&&(min, max)| lo.is_none_or(|l| l <= max) && hi.is_none_or(|h| min < h))
            .count()
    }

    /// A cold scan answers every predicate a fan-out hands shard `k` as the
    /// whole base does: summed over the shards a predicate meets it equals
    /// `scan_stats` over the whole base, and shard by shard it equals the
    /// shard built from the base (sentinel-valued bases included, where an
    /// upper bound of `i64::MAX` is unbounded). It reads exactly the zones
    /// whose extremes meet the predicate within the shard. Bases: uniform,
    /// sorted runs in line with the zones and out of line, low-cardinality
    /// and spread over all of `i64`, of lengths around the zone size;
    /// predicates on and beside the shard cuts, at the `MIN` / `MAX`
    /// sentinels, random, and empty.
    #[test]
    fn scan_cold_equals_a_scan_of_the_whole_base() {
        let mut rng = StdRng::seed_from_u64(47);
        let mut scratch = CrackScratch::new();
        for n in [0, 1, 1_023, 1_025, 3_000, 9_000] {
            let uniform = {
                let mut b: Vec<i64> = (0..n as i64).map(|v| 2 * v).collect();
                shuffle(&mut b, &mut rng);
                b
            };
            let spread = {
                let mut b: Vec<i64> = (0..n).map(|_| rng.random()).collect();
                for (i, x) in [i64::MIN, i64::MAX, i64::MAX, 0].into_iter().enumerate() {
                    if let Some(slot) = b.get_mut(i * 301) {
                        *slot = x;
                    }
                }
                b
            };
            let bases = [
                uniform,
                sorted_runs(n, ZONE, &mut rng),
                sorted_runs(n, 1_000, &mut rng),
                sorted_runs(n, 1_536, &mut rng),
                base(n, 5, n as u64),
                spread,
            ];
            for b in bases {
                let b = Arc::new(b);
                let sentinel = b.contains(&i64::MAX);
                let plan = ShardPlan::from_values(&b, 4);
                let cold: ShardedColumn = ShardedColumn::lazy("c", Arc::clone(&b), plan.clone());
                let built = ShardedColumn::from_base_with_plan("b", &b, plan.clone());
                let zones = zone_map(&b);
                let mut edges = vec![i64::MIN, i64::MAX, 0, 1];
                for &c in plan.cuts() {
                    edges.extend([c.saturating_sub(1), c, c.saturating_add(1)]);
                }
                edges.extend(
                    (0..6).map(|_| b.get(rng.random_range(0..n.max(1))).copied().unwrap_or(0)),
                );
                for _ in 0..60 {
                    let mut pick = || edges[rng.random_range(0..edges.len())];
                    let pred = Predicate::range(pick(), pick());
                    let mut sum = RangeStats::default();
                    for (k, clamped) in cold.intersecting(pred) {
                        let at = format!("n={n} {pred:?} shard {k} {clamped:?}");
                        let before = cold.cells[k].scanned.load(Relaxed);
                        let got = cold.scan_cold(k, clamped);
                        let read = cold.cells[k].scanned.load(Relaxed) - before;
                        let want = built.shard(k).select_verified(clamped, &mut scratch).1;
                        assert_eq!(got, want, "{at}");
                        let (lo, hi) = cold.cold_bounds(k, clamped).expect("meets the shard");
                        assert_eq!(read, meeting(&zones, lo, hi), "{at}");
                        sum.merge(got);
                    }
                    if !sentinel {
                        assert_eq!(sum, scan_stats(&b, pred), "n={n} {pred:?}");
                    }
                    // Empty, clamped or not: nothing counted, nothing read.
                    for k in 0..cold.shard_count() {
                        let before = cold.cells[k].scanned.load(Relaxed);
                        let empty = Predicate::range(pred.hi, pred.lo);
                        if empty.is_empty() {
                            assert_eq!(cold.scan_cold(k, empty), RangeStats::default());
                        }
                        assert_eq!(cold.cells[k].scanned.load(Relaxed), before);
                    }
                }
                assert!((0..cold.shard_count()).all(|k| cold.resident(k).is_none()));
            }
        }
    }

    /// The scan reads nothing outside the zones whose extremes meet its
    /// range: with every other zone overwritten by values inside the range
    /// (and the zone map left as it was), it answers as before.
    #[test]
    fn scan_cold_reads_only_the_zones_that_meet_its_range() {
        let mut rng = StdRng::seed_from_u64(48);
        for run in [ZONE, 1_000, 64] {
            let b = sorted_runs(20_000, run, &mut rng);
            let zones = zone_map(&b);
            for _ in 0..50 {
                let lo = rng.random_range(-10..40_000);
                let (lo, hi) = (Some(lo), Some(lo + rng.random_range(0..3_000)));
                let (want, read) = scan_zones(&b, &zones, lo, hi);
                assert_eq!(read, meeting(&zones, lo, hi));
                let mut poisoned = b.clone();
                for (z, zone) in poisoned.chunks_mut(ZONE).enumerate() {
                    if !zone_meets(&zones[z], lo, hi) {
                        zone.fill(lo.unwrap());
                    }
                }
                let got = scan_zones(&poisoned, &zones, lo, hi);
                assert_eq!(got, (want, read), "run {run} [{lo:?}, {hi:?})");
                let direct = in_range(&b, lo, hi);
                assert_eq!(want.count, direct.len() as u64);
                assert_eq!(want.sum, direct.iter().map(|&v| v as i128).sum::<i128>());
            }
        }
    }

    /// The break-even rule: scans of one shard pay while the zones they
    /// read, this one included, stay below the zones its build reads; a
    /// vacated cell starts counting afresh, and the empty cells a vacated
    /// successor shares keep their counts. A predicate covering the whole
    /// shard reads every zone its build reads, so it never pays.
    #[test]
    fn cold_scans_pay_until_they_reach_the_zones_of_a_build() {
        let mut rng = StdRng::seed_from_u64(49);
        let b = Arc::new(sorted_runs(1 << 16, ZONE, &mut rng));
        let plan = ShardPlan::from_values(&b, 4);
        let col: ShardedColumn = ShardedColumn::lazy("a", Arc::clone(&b), plan.clone());
        let zones = zone_map(&b);
        let (k, lo) = (1, plan.cuts()[0] + 3_000);
        let rebuild = meeting(&zones, Some(plan.cuts()[0]), Some(plan.cuts()[1]));
        assert!(
            (8..=24).contains(&rebuild),
            "{rebuild} zones hold shard {k}"
        );
        let whole = Predicate::range(i64::MIN, i64::MAX);
        assert!(!col.is_mapped());
        assert_eq!(col.cold_scan_zones(k, plan.clamp(k, whole)), None);
        assert!(col.is_mapped(), "the first cold read maps the zones");
        // Two zones a read: it pays for `rebuild / 2 - 1` reads, then not.
        let pred = Predicate::range(lo, lo + ZONE as i64 * 2);
        let read = meeting(&zones, Some(pred.lo), Some(pred.hi));
        assert!((2..=3).contains(&read), "{read}");
        let mut scans = 0;
        while let Some(zones) = col.cold_scan_zones(k, pred) {
            assert_eq!(zones, read);
            assert_eq!(col.scan_cold(k, pred), scan_stats(&b, pred));
            scans += 1;
        }
        assert_eq!(
            scans,
            (rebuild - 1) / read,
            "{rebuild} zones, {read} a read"
        );
        assert_eq!(col.cells[k].scanned.load(Relaxed), scans * read);
        // The other shards' cells count on their own.
        assert!(col
            .cold_scan_zones(
                k + 1,
                plan.clamp(k + 1, Predicate::range(plan.cuts()[1], plan.cuts()[1] + 1))
            )
            .is_some());
        col.scan_cold(2, Predicate::range(plan.cuts()[1], plan.cuts()[1] + 1));
        col.admit(k, k, 1, |fresh| vec![(); fresh.len()]);
        let next = col.vacated(&[k]);
        assert_eq!(
            next.cold_scan_zones(k, pred),
            Some(read),
            "a vacated cell counts from 0"
        );
        assert_eq!(
            next.cells[2].scanned.load(Relaxed),
            col.cells[2].scanned.load(Relaxed)
        );
        assert!(next.cells[2].scanned.load(Relaxed) > 0);
    }

    /// A column under the backlog-edge property test: a plain column
    /// (row ids from birth) or a sharded one (shards built from the base,
    /// row ids on demand).
    enum Target {
        Plain(Box<CrackerColumn>),
        Sharded(ShardedColumn),
    }

    impl Target {
        fn shard_count(&self) -> usize {
            match self {
                Target::Plain(_) => 1,
                Target::Sharded(c) => c.shard_count(),
            }
        }

        fn shard_of(&self, v: i64) -> usize {
            match self {
                Target::Plain(_) => 0,
                Target::Sharded(c) => c.plan().shard_of(v),
            }
        }

        fn shard(&self, k: usize) -> &CrackerColumn {
            match self {
                Target::Plain(c) => c,
                Target::Sharded(c) => c.shard(k),
            }
        }

        /// The shards `pred` touches, each with its clamped predicate.
        fn parts(&self, pred: Predicate) -> Vec<(usize, Predicate)> {
            match self {
                Target::Plain(_) => vec![(0, pred)],
                Target::Sharded(c) => c.intersecting(pred),
            }
        }
    }

    /// Count, sum and sorted row ids of the live tuples `pred` selects.
    fn oracle(live: &[(i64, RowId)], pred: Predicate) -> (u64, i128, Vec<RowId>) {
        let hits = live.iter().filter(|t| pred.matches_unbounded(t.0));
        let mut rows: Vec<RowId> = hits.clone().map(|t| t.1).collect();
        rows.sort_unstable();
        let sum = hits.map(|t| t.0 as i128).sum();
        (rows.len() as u64, sum, rows)
    }

    /// One read of `pred` through `kind` (select, verified select, exact
    /// count, snapshot scan, row-id collection), checked against the live
    /// multiset — and against the backlog rule: a select merges a shard's
    /// queue only past `MERGE_BACKLOG`, and then whole; an exact count
    /// merges nothing, refuses a queue past the backlog and answers any
    /// other when `cracked` says `pred`'s bounds are; a row-id collection
    /// merges everything.
    fn read_checked(
        t: &Target,
        live: &[(i64, RowId)],
        kind: u8,
        pred: Predicate,
        cracked: bool,
        scratch: &mut CrackScratch,
    ) {
        let backlog = CrackerColumn::MERGE_BACKLOG;
        let (count, sum, rows) = oracle(live, pred);
        let parts = t.parts(pred);
        let queued = |t: &Target| -> Vec<usize> {
            parts
                .iter()
                .map(|&(k, _)| t.shard(k).pending_len())
                .collect()
        };
        let before = queued(t);
        let drained = |before: &[usize]| -> Vec<usize> {
            before
                .iter()
                .map(|&n| if n > backlog { 0 } else { n })
                .collect()
        };
        match kind % 5 {
            0 => {
                let got: u64 = parts
                    .iter()
                    .map(|&(k, p)| t.shard(k).select(p, scratch).count())
                    .sum();
                assert_eq!(got, count, "select {pred:?}");
                assert_eq!(queued(t), drained(&before), "select {pred:?}");
            }
            1 => {
                let mut got = RangeStats::default();
                for &(k, p) in &parts {
                    let (sel, s) = t.shard(k).select_verified(p, scratch);
                    assert_eq!(sel.count(), s.count, "{pred:?}");
                    got.merge(s);
                }
                assert_eq!((got.count, got.sum), (count, sum), "verified {pred:?}");
                assert_eq!(queued(t), drained(&before), "verified {pred:?}");
            }
            2 => {
                // Uncracked bounds may refuse, a queue past the backlog
                // must; either way nothing merges.
                let first: Option<u64> =
                    parts.iter().map(|&(k, p)| t.shard(k).count_exact(p)).sum();
                assert!(first.is_none_or(|c| c == count), "count_exact {pred:?}");
                if before.iter().any(|&n| n > backlog) {
                    assert_eq!(first, None, "count_exact past the backlog {pred:?}");
                } else if cracked {
                    assert_eq!(first, Some(count), "count_exact {pred:?}");
                }
                assert_eq!(queued(t), before, "count_exact merged {pred:?}");
                for &(k, p) in &parts {
                    t.shard(k).select(p, scratch);
                }
                let cracked = queued(t);
                assert_eq!(cracked, drained(&before), "select {pred:?}");
                let again: Option<u64> =
                    parts.iter().map(|&(k, p)| t.shard(k).count_exact(p)).sum();
                assert_eq!(again, Some(count), "count_exact {pred:?}");
                assert_eq!(queued(t), cracked, "count_exact merged {pred:?}");
            }
            3 => {
                let (mut c, mut s) = (0u64, 0i128);
                for &(k, p) in &parts {
                    let scan = t.shard(k).snapshot_scan(p, scratch);
                    c += scan.count;
                    s += scan.sum;
                }
                assert_eq!((c, s), (count, sum), "snapshot {pred:?}");
                let after = queued(t);
                let kept_or_drained = after
                    .iter()
                    .zip(&before)
                    .all(|(&a, &b)| a == b || (b > backlog && a == 0));
                assert!(
                    kept_or_drained,
                    "snapshot {pred:?}: {before:?} -> {after:?}"
                );
            }
            _ => {
                let mut got = Vec::new();
                for &(k, p) in &parts {
                    t.shard(k).select(p, scratch);
                    got.extend(t.shard(k).collect_row_ids(p).expect("bounds cracked"));
                }
                got.sort_unstable();
                assert_eq!(got, rows, "row ids {pred:?}");
                assert!(queued(t).iter().all(|&n| n == 0), "ids left updates queued");
            }
        }
    }

    // Random interleavings of queued inserts, deletes of live tuples,
    // every read path and an idle worker's refinement, on a plain column
    // and on a 4-shard one, with one shard's queue driven to exactly 255,
    // 256 or 257 updates before a read: every answer matches a multiset
    // oracle (count, sum, row-id set), and each path merges what the
    // backlog rule says.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_updates_at_the_backlog_edge_match_a_multiset_oracle(
            seed in any::<u64>(),
            n in 200usize..2_000,
            sharded in any::<bool>(),
            ops in proptest::collection::vec((0u8..9, any::<u16>(), any::<u16>()), 1..32),
        ) {
            const DOMAIN: i64 = 1_000;
            let backlog = CrackerColumn::MERGE_BACKLOG;
            let mut rng = StdRng::seed_from_u64(seed);
            let b = base(n, DOMAIN, seed);
            let t = if sharded {
                let plan = ShardPlan::from_values(&b, 4);
                Target::Sharded(ShardedColumn::from_base_with_plan("a", &b, plan))
            } else {
                Target::Plain(Box::new(CrackerColumn::from_base("a", &b)))
            };
            let mut live: Vec<(i64, RowId)> =
                b.iter().enumerate().map(|(r, &v)| (v, r as RowId)).collect();
            let mut next_row = n as RowId;
            let mut scratch = CrackScratch::new();
            let pred_of = |a: u16, b: u16| {
                let lo = if a.is_multiple_of(17) { i64::MIN } else { a as i64 % 1_100 - 50 };
                let hi = match (b % 13, lo) {
                    (0, _) => i64::MAX,
                    (_, i64::MIN) => b as i64 % 1_100 - 50,
                    _ => lo + b as i64 % 600,
                };
                Predicate::range(lo, hi)
            };
            // A value of shard `k`'s range, searched from `from` upwards.
            let in_shard = |t: &Target, k: usize, from: i64| {
                (0..DOMAIN)
                    .map(|i| (from + i).rem_euclid(DOMAIN))
                    .find(|&v| t.shard_of(v) == k)
            };
            for &(kind, a, c) in &ops {
                match kind {
                    0 => {
                        let v = a as i64 % DOMAIN;
                        assert!(t.shard(t.shard_of(v)).queue_insert(v, next_row));
                        live.push((v, next_row));
                        next_row += 1;
                    }
                    1 if !live.is_empty() => {
                        let (v, row) = live.swap_remove(a as usize % live.len());
                        assert!(t.shard(t.shard_of(v)).queue_delete(v, row));
                    }
                    2..=6 => read_checked(&t, &live, kind - 2, pred_of(a, c), false, &mut scratch),
                    7 => {
                        let pivot = a as i64 % DOMAIN;
                        let shard = t.shard(t.shard_of(pivot));
                        shard.refine_at(pivot, &mut scratch);
                        assert_eq!(shard.pending_len(), 0, "a worker leaves nothing queued");
                    }
                    _ => {
                        // Crack a range that starts inside one shard, drive
                        // that shard's queue to the backlog edge, then read
                        // the range: every path meets the edge on bounds
                        // that need no crack.
                        let k = a as usize % t.shard_count();
                        let Some(v0) = in_shard(&t, k, c as i64) else {
                            continue;
                        };
                        let pred = Predicate::range(v0, v0 + 1 + a as i64 % 300);
                        for (j, p) in t.parts(pred) {
                            t.shard(j).select(p, &mut scratch);
                        }
                        let edge = backlog - 1 + c as usize % 3;
                        let shard = t.shard(k);
                        if shard.pending_len() > edge {
                            shard.merge_pending();
                        }
                        while shard.pending_len() < edge {
                            let mine: Vec<usize> = (0..live.len())
                                .filter(|&i| t.shard_of(live[i].0) == k)
                                .collect();
                            if mine.is_empty() || rng.random_bool(0.6) {
                                let v = in_shard(&t, k, rng.random_range(0..DOMAIN)).unwrap();
                                assert!(shard.queue_insert(v, next_row));
                                live.push((v, next_row));
                                next_row += 1;
                            } else {
                                let (v, row) = live.swap_remove(mine[rng.random_range(0..mine.len())]);
                                assert!(shard.queue_delete(v, row));
                            }
                        }
                        read_checked(&t, &live, (c / 3) as u8, pred, true, &mut scratch);
                    }
                }
            }
            for k in 0..t.shard_count() {
                t.shard(k).check_invariants(None);
            }
            let all = Predicate::range(i64::MIN, i64::MAX);
            read_checked(&t, &live, 1, all, false, &mut scratch);
        }
    }
}
