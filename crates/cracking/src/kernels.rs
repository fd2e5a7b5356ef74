//! Lane filters, compress-store crack bodies, the bucket-id pass of the
//! whole-attribute build, and a block-at-a-time unpack of bit-packed data.
//!
//! No column stores bit-packed data: [`pack_bits`], [`decode_blocks`] and
//! [`get`] remain as the unpack probe of the micro-benchmarks and of the
//! benchmark suite (`cracking.unpack_ns_per_value`). The unpack leans on
//! one layout property: a block of [`BLOCK`] = 64 values of width `bits`
//! occupies **exactly `bits` words, word-aligned** (64·bits bits), so block
//! `b` starts at word `b·bits` with bit offset 0 — every block decodes with
//! the same word-index/shift pattern, in width-specialised (`const BITS`
//! dispatched over 0..=64) fully-unrolled loops the compiler autovectorises
//! ([`unpack_block_portable`]). A gather-based AVX2 unpack measured ~3x
//! slower than the const-folded unroll at every width (`vpgatherqq`
//! serialises what the straight-line shift/or/mask stream pipelines) and
//! was removed.
//!
//! [`filter_count`] (unsorted i64 lanes: branchless compare + masked
//! split-lane accumulate) is the edge filter of every snapshot read and
//! the zone scan of a cold read (`ShardedColumn::scan_cold`). It has three
//! bodies, one selected once per process by [`active_isa`]
//! (`is_x86_feature_detected!`): eight lanes under mask registers
//! ([`avx512::filter_count`]), four under AVX2 compares ([`avx2`]), and
//! the portable loop.
//!
//! Beside them sits the compress-store layer, [`avx512`]: `vpcompressq`
//! bodies for the value-lane loops a cold read and every sequential crack
//! run — the one-shard filter pass (`sharding.rs`) and the partition passes
//! of the out-of-place cracks ([`crate::vectorized`]) — with the row lane
//! carried through the [`crate::vectorized::RowLane`] hook. [`active_isa`]
//! alone picks them: [`Isa::Avx512`] on a CPU with AVX-512F and AVX-512VL;
//! other CPUs keep the portable scalar loops, which the compress bodies
//! match slot for slot. `HOLIX_NO_SIMD=1` forces the portable paths.
//!
//! The same layer holds pass 1 of the whole-attribute build
//! (`avx512::bucket_ids`, picked in `sharding.rs` on [`Isa::Avx512`] for
//! plans of up to 16 shards): every value's one-byte (shard, bucket) id
//! and their histogram, eight values a step. The shard is a mask add per
//! cut, its bucket geometry a permute from register tables; the ids and
//! counts are the portable loop's, slot for slot, so the scatter that
//! follows is the same on every path.

use std::sync::OnceLock;

/// Values per kernel block. A block of width `bits` spans exactly `bits`
/// packed words (64·bits bits), word-aligned — the property every block
/// kernel leans on.
pub const BLOCK: usize = 64;

/// Words needed to bit-pack `n` values of `bits` each.
pub fn packed_words(n: usize, bits: u32) -> usize {
    ((n as u64).saturating_mul(bits as u64)).div_ceil(64) as usize
}

/// Little-endian bit-packs `n` values (each `< 2^bits`) into a word array.
pub fn pack_bits(values: impl Iterator<Item = u64>, n: usize, bits: u32) -> Box<[u64]> {
    let mut words = vec![0u64; packed_words(n, bits)];
    if bits > 0 {
        let mut bitpos = 0usize;
        for v in values {
            debug_assert!(bits == 64 || v < (1u64 << bits));
            let (w, off) = (bitpos / 64, bitpos % 64);
            words[w] |= v << off;
            if off + bits as usize > 64 {
                words[w + 1] |= v >> (64 - off);
            }
            bitpos += bits as usize;
        }
    }
    words.into_boxed_slice()
}

/// Random access: value `i` of the packed stream.
#[inline]
pub fn get(words: &[u64], bits: u32, i: usize) -> u64 {
    if bits == 0 {
        return 0;
    }
    let bit = i * bits as usize;
    let (w, off) = (bit >> 6, bit & 63);
    let mut v = words[w] >> off;
    if off + bits as usize > 64 {
        v |= words[w + 1] << (64 - off);
    }
    if bits < 64 {
        v &= (1u64 << bits) - 1;
    }
    v
}

// ---------------------------------------------------------------------------
// Portable width-specialised block unpack
// ---------------------------------------------------------------------------

/// Unpacks one full 64-value block. Each lane is emitted as its own
/// statement with a *literal* index — the word index, shift, spill branch
/// and bounds checks of every lane const-fold, leaving straight-line
/// shift/or/mask code the backend schedules wide (a 64x `for` loop is NOT
/// equivalent: LLVM keeps it rolled and re-derives the word/offset pair
/// per iteration, which measured ~3x slower).
#[inline(always)]
fn unpack_block_w<const BITS: u32>(words: &[u64], out: &mut [u64; BLOCK]) {
    if BITS == 0 {
        out.fill(0);
        return;
    }
    let words = &words[..BITS as usize];
    let mask = if BITS == 64 {
        u64::MAX
    } else {
        (1u64 << BITS) - 1
    };
    macro_rules! lane {
        ($($i:literal)*) => {$(
            {
                let bit = $i * BITS as usize;
                let (w, off) = (bit >> 6, bit & 63);
                let mut v = words[w] >> off;
                if off + BITS as usize > 64 {
                    v |= words[w + 1] << (64 - off);
                }
                out[$i] = v & mask;
            }
        )*};
    }
    lane!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15
          16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31
          32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47
          48 49 50 51 52 53 54 55 56 57 58 59 60 61 62 63);
}

/// Portable block unpack: decodes the 64 values whose words start at
/// `words[0]` into `out`, dispatching to the width-specialised kernel.
pub fn unpack_block_portable(words: &[u64], bits: u32, out: &mut [u64; BLOCK]) {
    macro_rules! dispatch {
        ($($b:literal)*) => {
            match bits {
                $($b => unpack_block_w::<$b>(words, out),)*
                _ => unreachable!("bit width exceeds 64"),
            }
        };
    }
    dispatch!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16
              17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32
              33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48
              49 50 51 52 53 54 55 56 57 58 59 60 61 62 63 64)
}

// ---------------------------------------------------------------------------
// Runtime ISA dispatch
// ---------------------------------------------------------------------------

/// Which kernel family [`active_isa`] selected for this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// Width-specialised autovectorised kernels and the scalar crack and
    /// filter loops (always available).
    Portable,
    /// Explicit `core::arch::x86_64` AVX2 kernels.
    Avx2,
    /// The AVX-512 kernels of [`avx512`]: compress-store cracks and
    /// filter pass, the eight-lane [`filter_count`], and the bucket ids of
    /// a whole-attribute build.
    Avx512,
}

/// One-time CPU feature detection. `HOLIX_NO_SIMD=1` forces
/// [`Isa::Portable`] (bench baselines, dispatch-agreement debugging).
pub fn active_isa() -> Isa {
    static ISA: OnceLock<Isa> = OnceLock::new();
    *ISA.get_or_init(|| {
        if std::env::var_os("HOLIX_NO_SIMD").is_some() {
            return Isa::Portable;
        }
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            return match avx512::available() {
                true => Isa::Avx512,
                false => Isa::Avx2,
            };
        }
        Isa::Portable
    })
}

/// Values the explicit [`filter_count`] bodies sum in their i64 lanes
/// before folding to i128: at most 2^16 masked low halves (< 2^32) and
/// high halves (|·| ≤ 2^31) a lane, far inside it.
#[cfg(target_arch = "x86_64")]
const STRIPE: usize = 1 << 18;

/// Explicit AVX2 kernels. Safe wrappers verify feature presence; the
/// `#[target_feature]` bodies hold the intrinsics.
#[cfg(target_arch = "x86_64")]
pub mod avx2 {
    use super::STRIPE;
    use core::arch::x86_64::*;

    /// AVX2 fused filter over unsorted i64 lanes: branchless two-sided
    /// compare, movemask popcount for the count, masked split-lane (low
    /// 32 / high 32) accumulate for the exact widened sum. Panics when
    /// AVX2 is missing.
    pub fn filter_count(vals: &[i64], lo: Option<i64>, hi: Option<i64>) -> (u64, i128) {
        assert!(
            std::is_x86_feature_detected!("avx2"),
            "AVX2 unavailable on this CPU"
        );
        // SAFETY: feature verified above; loads are unaligned-tolerant
        // (`avx2_paths_agree_with_portable`).
        unsafe { filter_count_inner(vals, lo, hi) }
    }

    /// # Safety
    /// The CPU has AVX2. Every load is one whole `chunks_exact(4)` chunk
    /// of `vals`, the remainder is scalar (`avx2_paths_agree_with_portable`).
    #[target_feature(enable = "avx2")]
    unsafe fn filter_count_inner(vals: &[i64], lo: Option<i64>, hi: Option<i64>) -> (u64, i128) {
        // Unbounded lower bound compares against i64::MIN (never greater
        // than any lane); an unbounded upper bound cannot be encoded as a
        // compare (MAX itself must qualify), so it ORs the lane mask in.
        let lo_v = _mm256_set1_epi64x(lo.unwrap_or(i64::MIN));
        let hi_v = _mm256_set1_epi64x(hi.unwrap_or(0));
        let hi_all = _mm256_set1_epi64x(if hi.is_some() { 0 } else { -1 });
        let low32 = _mm256_set1_epi64x(0xFFFF_FFFF);
        let sbias = _mm256_set1_epi64x(0x8000_0000);
        let mut count = 0u64;
        let mut sum = 0i128;
        for stripe in vals.chunks(STRIPE) {
            let mut acc_lo = _mm256_setzero_si256();
            let mut acc_hi = _mm256_setzero_si256();
            let mut chunks = stripe.chunks_exact(4);
            for chunk in &mut chunks {
                let v = _mm256_loadu_si256(chunk.as_ptr() as *const __m256i);
                // qualifies = !(lo > v) & (v < hi | hi unbounded)
                let lo_gt = _mm256_cmpgt_epi64(lo_v, v);
                let lt_hi = _mm256_or_si256(_mm256_cmpgt_epi64(hi_v, v), hi_all);
                let q = _mm256_andnot_si256(lo_gt, lt_hi);
                count += (_mm256_movemask_pd(_mm256_castsi256_pd(q)) as u32).count_ones() as u64;
                let mv = _mm256_and_si256(v, q);
                acc_lo = _mm256_add_epi64(acc_lo, _mm256_and_si256(mv, low32));
                // Arithmetic >> 32 for the high half (AVX2 has no 64-bit
                // arithmetic shift): logical shift then sign-extend the
                // 32-bit result via xor/sub bias.
                let h = _mm256_srli_epi64::<32>(mv);
                let h = _mm256_sub_epi64(_mm256_xor_si256(h, sbias), sbias);
                acc_hi = _mm256_add_epi64(acc_hi, h);
            }
            let mut lo4 = [0u64; 4];
            let mut hi4 = [0i64; 4];
            _mm256_storeu_si256(lo4.as_mut_ptr() as *mut __m256i, acc_lo);
            _mm256_storeu_si256(hi4.as_mut_ptr() as *mut __m256i, acc_hi);
            sum += lo4.iter().map(|&x| x as i128).sum::<i128>()
                + (hi4.iter().map(|&x| x as i128).sum::<i128>() << 32);
            for &v in chunks.remainder() {
                let q = v >= lo.unwrap_or(i64::MIN) && hi.is_none_or(|h| v < h);
                if q {
                    count += 1;
                    sum += v as i128;
                }
            }
        }
        (count, sum)
    }
}

/// AVX-512 compress-store kernels over `i64` values: the one-shard filter
/// pass and the partition passes of the two- and three-way out-of-place
/// cracks. Each runs its portable twin's loop eight values at a time: one
/// compare per cursor gives a lane mask, `vpcompressq` writes the masked
/// lanes to consecutive slots from the cursor, and the cursor advances by
/// the mask's popcount, so no store waits on the previous value's cursor
/// update. A cursor that fills from the right (a crack's highs) takes the
/// chunk reversed, which leaves exactly the portable layout. Row ids ride
/// along through the [`RowLane`](crate::RowLane) hook under the same masks (`u32` ids as
/// eight 32-bit lanes; `()` compiles to nothing), so id-less and
/// id-carrying cracks land alike. The filter also folds the lanes it keeps
/// into per-lane minima and maxima under the same mask (`vpminsq` /
/// `vpmaxsq`), so a one-shard build learns its domain in the same pass.
/// Every store is masked, so no slot outside
/// its mask is written; the last chunk of a slice that is not a multiple of
/// eight long loads under a mask (the full chunks under a constant one: a
/// mask computed per chunk measured the filter 2–3× slower). The safe
/// wrappers panic without the CPU features and check the lengths the raw
/// stores rely on. Beside them sit the eight-lane [`filter_count`]
/// (`avx512::filter_count`), which stores nothing, and the whole build's
/// bucket-id pass (`avx512::bucket_ids`), which stores a byte a value.
#[cfg(target_arch = "x86_64")]
pub mod avx512 {
    use crate::sharding::{Buckets, MAX_BUCKETS};
    use crate::vectorized::RowLane;
    use core::arch::x86_64::*;
    use std::mem::MaybeUninit;

    /// Whether this CPU has what the kernels need: AVX-512F, AVX-512VL for
    /// the eight-lane compress of row ids, and POPCNT for the cursors.
    pub fn available() -> bool {
        std::is_x86_feature_detected!("avx512f")
            && std::is_x86_feature_detected!("avx512vl")
            && std::is_x86_feature_detected!("popcnt")
    }

    fn require() {
        assert!(
            available(),
            "AVX-512F, AVX-512VL or POPCNT unavailable on this CPU"
        );
    }

    /// Every lane of a full chunk, as read and once [`reversed`].
    const FULL: (__mmask8, __mmask8) = (u8::MAX, u8::MAX);

    /// The lanes of the last chunk, `len` values (`1..8`) from lane 0, as
    /// read and once [`reversed`].
    fn tail(len: usize) -> (__mmask8, __mmask8) {
        (u8::MAX >> (8 - len), u8::MAX << (8 - len))
    }

    /// `v` with lane `i` moved to lane `7 - i`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn reversed(v: __m512i) -> __m512i {
        _mm512_permutexvar_epi64(_mm512_set_epi64(0, 1, 2, 3, 4, 5, 6, 7), v)
    }

    /// The values of `base` in `[lo, hi)` (`None` = unbounded), in base
    /// order, to the front of `out`; returns how many, and the smallest
    /// and largest of them (`(i64::MAX, i64::MIN)` when none). Panics
    /// before a store would pass the end of `out`.
    pub fn filter(
        base: &[i64],
        lo: Option<i64>,
        hi: Option<i64>,
        out: &mut [MaybeUninit<i64>],
    ) -> (usize, (i64, i64)) {
        require();
        // SAFETY: the CPU has the features (checked above); `filter_inner`
        // asserts its stores inside `out`
        // (`one_shard_build_kernels_never_write_past_their_output` and
        // `one_shard_build_panics_when_the_count_is_too_small` in
        // `sharding.rs`).
        unsafe { filter_inner(base, lo, hi, out) }
    }

    /// # Safety
    /// The CPU has AVX-512F, AVX-512VL and POPCNT. Loads are masked to
    /// `base`'s values, and every store is asserted inside `out` first
    /// (`one_shard_build_kernels_agree_at_every_tail` at every tail
    /// length, under AddressSanitizer in CI).
    #[target_feature(enable = "avx512f,avx512vl,popcnt")]
    unsafe fn filter_inner(
        base: &[i64],
        lo: Option<i64>,
        hi: Option<i64>,
        out: &mut [MaybeUninit<i64>],
    ) -> (usize, (i64, i64)) {
        // As in `avx2::filter_count`: no lane is below i64::MIN, and an
        // unbounded upper bound (MAX itself qualifies) admits every lane.
        let lo_v = _mm512_set1_epi64(lo.unwrap_or(i64::MIN));
        let hi_v = _mm512_set1_epi64(hi.unwrap_or(0));
        let hi_all: __mmask8 = if hi.is_some() { 0 } else { u8::MAX };
        let (src, dst, cap) = (base.as_ptr(), out.as_mut_ptr().cast::<i64>(), out.len());
        let mut kept = 0;
        // Per lane, the smallest and largest value kept in that lane.
        let mut min_v = _mm512_set1_epi64(i64::MAX);
        let mut max_v = _mm512_set1_epi64(i64::MIN);
        let mut step = |i: usize, (valid, _): (__mmask8, __mmask8)| {
            // SAFETY: the lanes of `valid` are `base[i..]`'s first values.
            let v = _mm512_maskz_loadu_epi64(valid, src.add(i));
            let keep = _mm512_mask_cmpge_epi64_mask(valid, v, lo_v)
                & (_mm512_cmplt_epi64_mask(v, hi_v) | hi_all);
            let k = keep.count_ones() as usize;
            assert!(
                kept + k <= cap,
                "more values in range than the output holds"
            );
            // SAFETY: writes `out[kept..kept + k]`, inside `out` (asserted).
            _mm512_mask_compressstoreu_epi64(dst.add(kept), keep, v);
            kept += k;
            min_v = _mm512_mask_min_epi64(min_v, keep, min_v, v);
            max_v = _mm512_mask_max_epi64(max_v, keep, max_v, v);
        };
        let full = base.len() - base.len() % 8;
        for i in (0..full).step_by(8) {
            step(i, FULL);
        }
        if full < base.len() {
            step(full, tail(base.len() - full));
        }
        let domain = (
            _mm512_reduce_min_epi64(min_v),
            _mm512_reduce_max_epi64(max_v),
        );
        (kept, domain)
    }

    /// [`super::filter_count`] eight lanes at a time: count and exact
    /// widened sum of the values of `vals` in `[lo, hi)` (`None` =
    /// unbounded). The compares give a lane mask, counted by its popcount;
    /// the kept lanes add their low 32 bits and their arithmetic high half
    /// (`srai` 32) into two accumulators under the same mask, folded to
    /// `i128` once per 2^18 values. Panics without the CPU features.
    pub fn filter_count(vals: &[i64], lo: Option<i64>, hi: Option<i64>) -> (u64, i128) {
        require();
        // SAFETY: the CPU has the features (checked above); every load is
        // masked to `vals` (`avx512_filter_count_matches_portable` at every
        // tail length, under AddressSanitizer in CI).
        unsafe { filter_count_inner(vals, lo, hi) }
    }

    /// # Safety
    /// The CPU has AVX-512F and POPCNT. Each load reads the lanes of its
    /// mask from `vals` and no other (`avx512_filter_count_matches_portable`).
    #[target_feature(enable = "avx512f,popcnt")]
    unsafe fn filter_count_inner(vals: &[i64], lo: Option<i64>, hi: Option<i64>) -> (u64, i128) {
        // As in `avx2::filter_count`: no lane is below i64::MIN, and an
        // unbounded upper bound (MAX itself qualifies) admits every lane.
        let lo_v = _mm512_set1_epi64(lo.unwrap_or(i64::MIN));
        let hi_v = _mm512_set1_epi64(hi.unwrap_or(0));
        let hi_all: __mmask8 = if hi.is_some() { 0 } else { u8::MAX };
        let low32 = _mm512_set1_epi64(0xFFFF_FFFF);
        let (mut count, mut sum) = (0u64, 0i128);
        for stripe in vals.chunks(super::STRIPE) {
            let src = stripe.as_ptr();
            let (mut acc_lo, mut acc_hi) = (_mm512_setzero_si512(), _mm512_setzero_si512());
            let mut step = |i: usize, valid: __mmask8| {
                // SAFETY: the lanes of `valid` are `stripe[i..]`'s first
                // values.
                let v = _mm512_maskz_loadu_epi64(valid, src.add(i));
                let keep = _mm512_mask_cmpge_epi64_mask(valid, v, lo_v)
                    & (_mm512_cmplt_epi64_mask(v, hi_v) | hi_all);
                count += keep.count_ones() as u64;
                acc_lo = _mm512_mask_add_epi64(acc_lo, keep, acc_lo, _mm512_and_si512(v, low32));
                acc_hi = _mm512_mask_add_epi64(acc_hi, keep, acc_hi, _mm512_srai_epi64::<32>(v));
            };
            let full = stripe.len() - stripe.len() % 8;
            for i in (0..full).step_by(8) {
                step(i, FULL.0);
            }
            if full < stripe.len() {
                step(full, tail(stripe.len() - full).0);
            }
            // Eight lanes of at most 2^15 halves each: both totals fit i64.
            sum += _mm512_reduce_add_epi64(acc_lo) as i128
                + ((_mm512_reduce_add_epi64(acc_hi) as i128) << 32);
        }
        (count, sum)
    }

    /// Most shards [`bucket_ids`] takes: its per-shard lookups are two
    /// eight-lane tables.
    pub(crate) const BUCKET_ID_SHARDS: usize = 16;

    /// Pass 1 of a whole build (`count_chunk_portable` in `sharding.rs`)
    /// eight values at a time: each value's bucket id into `ids` and the
    /// histogram of the ids. A value's shard `k` is the number of `cuts` at
    /// or below it, counted as a masked add per cut; `k` picks the shard's
    /// `(lo, shift, last, first_id)` from two register tables
    /// (`vpermt2q`), and the id is `min((max(v, lo) - lo) >> shift, last) +
    /// first_id` (`vpsrlvq`, `vpminuq`), as `Buckets::id_of` computes it,
    /// narrowed to a byte (`vpmovqb`). The histogram counts in four
    /// interleaved sub-histograms, so two equal ids in a row do not wait on
    /// each other's increment. Panics without the CPU features, when `ids`
    /// is not as long as `base`, or when `geometry` is not one shard per
    /// cut and one more, or is more than [`BUCKET_ID_SHARDS`] shards.
    pub(crate) fn bucket_ids(
        base: &[i64],
        ids: &mut [u8],
        cuts: &[i64],
        geometry: &[Buckets],
    ) -> [usize; MAX_BUCKETS] {
        require();
        assert_eq!(ids.len(), base.len(), "one id slot per value");
        assert!(
            geometry.len() == cuts.len() + 1 && geometry.len() <= BUCKET_ID_SHARDS,
            "one geometry per shard, at most {BUCKET_ID_SHARDS} shards"
        );
        // SAFETY: the CPU has the features and the lengths are checked
        // above (`avx512_bucket_ids_match_portable_*`: every tail length
        // from aligned and unaligned starts, 1 to 16 shards, under
        // AddressSanitizer in CI).
        unsafe { bucket_ids_inner(base, ids, cuts, geometry) }
    }

    /// # Safety
    /// The CPU has AVX-512F; `ids` is as long as `base`, and `cuts` holds
    /// fewer than [`BUCKET_ID_SHARDS`] values. Full chunks load and store
    /// eight whole slots, the last chunk only the lanes of its mask
    /// (`avx512_bucket_ids_match_portable_at_every_tail`).
    #[target_feature(enable = "avx512f")]
    unsafe fn bucket_ids_inner(
        base: &[i64],
        ids: &mut [u8],
        cuts: &[i64],
        geometry: &[Buckets],
    ) -> [usize; MAX_BUCKETS] {
        // Lane `k` of a pair of tables is shard `k`'s field: `vpermt2q`
        // reads an index's low four bits, bit 3 picking the second table.
        let table = |field: fn(&Buckets) -> i64| {
            let mut t = [0i64; BUCKET_ID_SHARDS];
            t.iter_mut().zip(geometry).for_each(|(t, g)| *t = field(g));
            // SAFETY: `t` holds two tables of eight lanes.
            unsafe {
                (
                    _mm512_loadu_epi64(t.as_ptr()),
                    _mm512_loadu_epi64(t.as_ptr().add(8)),
                )
            }
        };
        let lo = table(|g| g.lo);
        let shift = table(|g| g.shift as i64);
        let last = table(|g| g.last as i64);
        let first_id = table(|g| g.first_id as i64);
        let mut cut_v = [_mm512_setzero_si512(); BUCKET_ID_SHARDS - 1];
        cut_v
            .iter_mut()
            .zip(cuts)
            .for_each(|(v, &c)| *v = _mm512_set1_epi64(c));
        let cut_v = &cut_v[..cuts.len()];
        let one = _mm512_set1_epi64(1);
        let ids_of = |v: __m512i| {
            let mut k = _mm512_setzero_si512();
            for &c in cut_v {
                k = _mm512_mask_add_epi64(k, _mm512_cmple_epi64_mask(c, v), k, one);
            }
            let pick = |(a, b): (__m512i, __m512i)| _mm512_permutex2var_epi64(a, k, b);
            let lo = pick(lo);
            let d = _mm512_srlv_epi64(_mm512_sub_epi64(_mm512_max_epi64(v, lo), lo), pick(shift));
            _mm512_add_epi64(_mm512_min_epu64(d, pick(last)), pick(first_id))
        };
        let mut hist = [[0usize; MAX_BUCKETS]; 4];
        let (src, dst) = (base.as_ptr(), ids.as_mut_ptr());
        let full = base.len() - base.len() % 8;
        for i in (0..full).step_by(8) {
            // SAFETY: `base[i..i + 8]` and `ids[i..i + 8]` are in bounds
            // (`i + 8 <= full`, and `ids` is as long as `base`).
            let id = unsafe {
                let id = _mm512_cvtepi64_epi8(ids_of(_mm512_loadu_epi64(src.add(i))));
                _mm_storel_epi64(dst.add(i).cast(), id);
                id
            };
            let bytes = _mm_cvtsi128_si64(id) as u64;
            for lane in 0..8 {
                hist[lane % 4][(bytes >> (8 * lane)) as u8 as usize] += 1;
            }
        }
        if full < base.len() {
            let valid = tail(base.len() - full).0;
            // SAFETY: the lanes of `valid` are the last values of `base`
            // and the last slots of `ids`; no other lane is read or
            // written.
            unsafe {
                let id = ids_of(_mm512_maskz_loadu_epi64(valid, src.add(full)));
                _mm512_mask_cvtepi64_storeu_epi8(dst.add(full).cast(), valid, id);
            }
            for (lane, &id) in ids[full..].iter().enumerate() {
                hist[lane % 4][id as usize] += 1;
            }
        }
        std::array::from_fn(|id| hist.iter().map(|h| h[id]).sum())
    }

    /// The partition pass of the two-way crack: the values of `vals` below
    /// `pivot` fill `sv` from the left in source order, the others from the
    /// right of `sv[..n]` in reverse source order, each row id at its
    /// value's slot of `sr`. Returns the count below. Panics unless `rows`
    /// is as long as `vals` and the scratch at least as long.
    pub fn crack_two<R: RowLane>(
        vals: &[i64],
        rows: &[R],
        pivot: i64,
        sv: &mut [i64],
        sr: &mut [R],
    ) -> usize {
        require();
        let n = vals.len();
        assert!(
            rows.len() == n && sv.len() >= n && sr.len() >= n,
            "row ids and scratch must cover the piece"
        );
        // SAFETY: the CPU has the features, the lengths are checked above
        // (`compress_cracks_match_portable_at_every_tail` in
        // `vectorized.rs`: every tail length, ids and no ids).
        unsafe { crack_two_inner(vals, rows, pivot, sv, sr) }
    }

    /// # Safety
    /// The CPU has AVX-512F, AVX-512VL and POPCNT; `rows` is as long as
    /// `vals`, and `sv` and `sr` at least as long. Every load and store is
    /// masked to the chunk's lanes inside those bounds (the argument is at
    /// the stores; `compress_cracks_match_portable_at_every_tail` and
    /// `compress_cracks_match_portable_at_the_extremes`, under
    /// AddressSanitizer in CI).
    #[target_feature(enable = "avx512f,avx512vl,popcnt")]
    unsafe fn crack_two_inner<R: RowLane>(
        vals: &[i64],
        rows: &[R],
        pivot: i64,
        sv: &mut [i64],
        sr: &mut [R],
    ) -> usize {
        let n = vals.len();
        let p = _mm512_set1_epi64(pivot);
        let (vp, rp) = (vals.as_ptr(), rows.as_ptr());
        let (svp, srp) = (sv.as_mut_ptr(), sr.as_mut_ptr());
        let (mut lo, mut hi) = (0, n);
        let mut step = |i: usize, (valid, valid_rev): (__mmask8, __mmask8)| {
            // SAFETY (loads): the lanes of `valid` are the next values and
            // ids. (Stores): before this chunk `lo + (n - hi) == i`, after
            // it `i + len <= n`, so the lows it adds end at or before the
            // highs it adds start: both inside `[lo, hi)`, which is inside
            // `sv[..n]` and `sr[..n]`.
            let v = _mm512_maskz_loadu_epi64(valid, vp.add(i));
            let r = R::load8(rp.add(i), valid);
            let (v_rev, r_rev) = (reversed(v), R::reverse8(r));
            let low = _mm512_mask_cmplt_epi64_mask(valid, v, p);
            let high = _mm512_mask_cmpge_epi64_mask(valid_rev, v_rev, p);
            let h = hi - high.count_ones() as usize;
            _mm512_mask_compressstoreu_epi64(svp.add(lo), low, v);
            R::compress8(srp.add(lo), low, r);
            _mm512_mask_compressstoreu_epi64(svp.add(h), high, v_rev);
            R::compress8(srp.add(h), high, r_rev);
            lo += low.count_ones() as usize;
            hi = h;
        };
        let full = n - n % 8;
        for i in (0..full).step_by(8) {
            step(i, FULL);
        }
        if full < n {
            step(full, tail(n - full));
        }
        debug_assert_eq!(lo, hi);
        lo
    }

    /// The partition pass of the three-way crack: values below `lo` fill
    /// `sv` from the left in source order, values at or above `hi` from
    /// the right of `sv[..n]` in reverse source order, and the middles
    /// stage at the front of `vals` in source order (in slots the pass has
    /// already read), each row id beside its value. Returns the two scratch
    /// cursors `(l, h)`; `h - l` middles are staged. Panics unless `rows`
    /// is as long as `vals` and the scratch at least as long.
    pub fn crack_three<R: RowLane>(
        vals: &mut [i64],
        rows: &mut [R],
        lo: i64,
        hi: i64,
        sv: &mut [i64],
        sr: &mut [R],
    ) -> (usize, usize) {
        require();
        let n = vals.len();
        assert!(
            rows.len() == n && sv.len() >= n && sr.len() >= n,
            "row ids and scratch must cover the piece"
        );
        // SAFETY: the CPU has the features, the lengths are checked above
        // (`compress_cracks_match_portable_at_every_tail`, the three-way
        // cuts with ids and without).
        unsafe { crack_three_inner(vals, rows, lo, hi, sv, sr) }
    }

    /// # Safety
    /// As `crack_two_inner`'s, and the middles staged in `vals` and
    /// `rows` overwrite only slots already loaded (the argument is at the
    /// stores; `compress_cracks_match_portable_at_every_tail` and
    /// `prop_compress_cracks_match_portable`, under AddressSanitizer in
    /// CI).
    #[target_feature(enable = "avx512f,avx512vl,popcnt")]
    unsafe fn crack_three_inner<R: RowLane>(
        vals: &mut [i64],
        rows: &mut [R],
        lo: i64,
        hi: i64,
        sv: &mut [i64],
        sr: &mut [R],
    ) -> (usize, usize) {
        let n = vals.len();
        let (lo_v, hi_v) = (_mm512_set1_epi64(lo), _mm512_set1_epi64(hi));
        let (vp, rp) = (vals.as_mut_ptr(), rows.as_mut_ptr());
        let (svp, srp) = (sv.as_mut_ptr(), sr.as_mut_ptr());
        let (mut l, mut h, mut m) = (0, n, 0);
        let mut step = |i: usize, (valid, valid_rev): (__mmask8, __mmask8)| {
            // SAFETY: as in `crack_two_inner` for the loads and the scratch
            // stores, with `l + (n - h) <= i` before the chunk (the middles
            // are not in the scratch). The middles go to `vals[m..]` and
            // `rows[m..]`: `m <= i`
            // before the chunk and grows by at most its `len` values, so
            // they overwrite only slots this pass has loaded already.
            let v = _mm512_maskz_loadu_epi64(valid, vp.add(i));
            let r = R::load8(rp.add(i), valid);
            let (v_rev, r_rev) = (reversed(v), R::reverse8(r));
            let low = _mm512_mask_cmplt_epi64_mask(valid, v, lo_v);
            let high = _mm512_mask_cmpge_epi64_mask(valid_rev, v_rev, hi_v);
            let mid = _mm512_mask_cmplt_epi64_mask(valid & !low, v, hi_v);
            let top = h - high.count_ones() as usize;
            _mm512_mask_compressstoreu_epi64(svp.add(l), low, v);
            R::compress8(srp.add(l), low, r);
            _mm512_mask_compressstoreu_epi64(svp.add(top), high, v_rev);
            R::compress8(srp.add(top), high, r_rev);
            _mm512_mask_compressstoreu_epi64(vp.add(m), mid, v);
            R::compress8(rp.add(m), mid, r);
            l += low.count_ones() as usize;
            m += mid.count_ones() as usize;
            h = top;
        };
        let full = n - n % 8;
        for i in (0..full).step_by(8) {
            step(i, FULL);
        }
        if full < n {
            step(full, tail(n - full));
        }
        debug_assert_eq!(h - l, m);
        (l, h)
    }
}

// ---------------------------------------------------------------------------
// Block decoding and the lane filter
// ---------------------------------------------------------------------------

/// Visits the packed stream in decoded chunks of at most [`BLOCK`] values;
/// return `false` from `f` to stop early.
pub fn decode_blocks(words: &[u64], bits: u32, n: usize, mut f: impl FnMut(&[u64]) -> bool) {
    if n == 0 {
        return;
    }
    if bits == 0 {
        let zeros = [0u64; BLOCK];
        let mut left = n;
        while left > 0 {
            let c = left.min(BLOCK);
            if !f(&zeros[..c]) {
                return;
            }
            left -= c;
        }
        return;
    }
    let full_blocks = n / BLOCK;
    let mut buf = [0u64; BLOCK];
    for blk in 0..full_blocks {
        unpack_block_portable(&words[blk * bits as usize..], bits, &mut buf);
        if !f(&buf) {
            return;
        }
    }
    let tail = full_blocks * BLOCK;
    if tail < n {
        for j in tail..n {
            buf[j - tail] = get(words, bits, j);
        }
        f(&buf[..n - tail]);
    }
}

/// Portable fused filter over unsorted i64 lanes: branchless two-sided
/// compare (`None` = unbounded; an unbounded upper bound admits
/// `i64::MAX`), masked split-lane accumulate for the exact widened sum.
/// Written stripe-wise so the backend vectorises the inner loop.
pub fn filter_count_portable(vals: &[i64], lo: Option<i64>, hi: Option<i64>) -> (u64, i128) {
    let lo_b = lo.unwrap_or(i64::MIN);
    let hi_bounded = hi.is_some();
    let hi_b = hi.unwrap_or(i64::MAX);
    let mut count = 0u64;
    let mut sum = 0i128;
    // Fold to i128 per stripe: 2^14 masked low halves (< 2^32 each) and
    // high halves (|·| ≤ 2^31) stay far inside their u64 / i64 lanes.
    for stripe in vals.chunks(1 << 14) {
        let mut sum_lo = 0u64;
        let mut sum_hi = 0i64;
        for &v in stripe {
            let q = (v >= lo_b) & (!hi_bounded | (v < hi_b));
            count += q as u64;
            let m = -(q as i64);
            let mv = v & m;
            sum_lo += (mv as u32) as u64;
            sum_hi += mv >> 32;
        }
        sum += ((sum_hi as i128) << 32) + sum_lo as i128;
    }
    (count, sum)
}

/// Fused filter over unsorted i64 lanes, ISA-dispatched: count + exact
/// widened sum of values in `[lo, hi)` (`None` = unbounded).
pub fn filter_count(vals: &[i64], lo: Option<i64>, hi: Option<i64>) -> (u64, i128) {
    #[cfg(target_arch = "x86_64")]
    match active_isa() {
        Isa::Avx512 => return avx512::filter_count(vals, lo, hi),
        Isa::Avx2 => return avx2::filter_count(vals, lo, hi),
        Isa::Portable => {}
    }
    filter_count_portable(vals, lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharding::{coarse_buckets, count_chunk, count_chunk_portable, Buckets};
    use crate::ShardPlan;

    /// Deterministic value stream (no rand dev-dep needed here).
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn masked_values(bits: u32, len: usize, seed: u64) -> Vec<u64> {
        let mask = if bits == 64 {
            u64::MAX
        } else if bits == 0 {
            0
        } else {
            (1u64 << bits) - 1
        };
        let mut s = seed;
        (0..len).map(|_| splitmix(&mut s) & mask).collect()
    }

    /// Every value [`decode_blocks`] hands out, in order.
    fn decoded(words: &[u64], bits: u32, n: usize) -> Vec<u64> {
        let mut out = Vec::with_capacity(n);
        decode_blocks(words, bits, n, |block| {
            assert!(!block.is_empty() && block.len() <= BLOCK);
            out.extend_from_slice(block);
            true
        });
        out
    }

    #[test]
    fn decode_blocks_matches_get_across_all_widths() {
        // Exhaustive widths, a length that exercises full blocks plus an
        // unaligned tail (64·2 + 37).
        for bits in 0..=64u32 {
            let vals = masked_values(bits, 165, 0xA5A5 + bits as u64);
            let packed = pack_bits(vals.iter().copied(), vals.len(), bits);
            let by_index: Vec<u64> = (0..vals.len()).map(|i| get(&packed, bits, i)).collect();
            assert_eq!(by_index, vals, "get roundtrip bits={bits}");
            assert_eq!(
                decoded(&packed, bits, vals.len()),
                by_index,
                "decode_blocks bits={bits}"
            );
            let mut calls = 0;
            decode_blocks(&packed, bits, vals.len(), |_| {
                calls += 1;
                false
            });
            assert_eq!(calls, 1, "`false` stops the walk, bits={bits}");
        }
    }

    fn filter_oracle(vals: &[i64], lo: Option<i64>, hi: Option<i64>) -> (u64, i128) {
        let mut c = 0u64;
        let mut s = 0i128;
        for &v in vals {
            if lo.is_none_or(|l| v >= l) && hi.is_none_or(|h| v < h) {
                c += 1;
                s += v as i128;
            }
        }
        (c, s)
    }

    #[test]
    fn lane_filter_handles_sentinels_and_extremes() {
        let mut s = 42u64;
        let mut vals: Vec<i64> = (0..301).map(|_| splitmix(&mut s) as i64).collect();
        vals.extend_from_slice(&[i64::MIN, i64::MAX, 0, -1, 1]);
        let probes: &[(Option<i64>, Option<i64>)] = &[
            (None, None),
            (Some(i64::MIN), None),
            (None, Some(i64::MAX)), // bounded: MAX itself excluded
            (Some(0), Some(0)),     // empty
            (Some(-1000), Some(1000)),
            (Some(i64::MAX), None), // only MAX qualifies
        ];
        for &(lo, hi) in probes {
            let oracle = filter_oracle(&vals, lo, hi);
            assert_eq!(
                filter_count_portable(&vals, lo, hi),
                oracle,
                "portable lo={lo:?} hi={hi:?}"
            );
            assert_eq!(
                filter_count(&vals, lo, hi),
                oracle,
                "dispatched lo={lo:?} hi={hi:?}"
            );
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_paths_agree_with_portable() {
        if !std::is_x86_feature_detected!("avx2") {
            eprintln!("skipping: no AVX2 on this CPU");
            return;
        }
        // Lane filter: random + adversarial lanes, random bounds.
        let mut s = 0xF00Du64;
        let mut vals: Vec<i64> = (0..1009).map(|_| splitmix(&mut s) as i64).collect();
        vals.extend_from_slice(&[i64::MIN, i64::MAX, 0]);
        for _ in 0..50 {
            let lo = (!splitmix(&mut s).is_multiple_of(3)).then(|| splitmix(&mut s) as i64);
            let hi = (!splitmix(&mut s).is_multiple_of(3)).then(|| splitmix(&mut s) as i64);
            assert_eq!(
                avx2::filter_count(&vals, lo, hi),
                filter_count_portable(&vals, lo, hi),
                "lo={lo:?} hi={hi:?}"
            );
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_filter_count_matches_portable() {
        if !avx512::available() {
            eprintln!("skipping: no AVX-512 on this CPU");
            return;
        }
        let mut s = 0x512_u64;
        let mut bounds: Vec<(Option<i64>, Option<i64>)> = vec![
            (None, None),
            (Some(i64::MIN), None),
            (None, Some(i64::MAX)),
            (Some(i64::MIN), Some(i64::MAX)),
            (Some(i64::MAX), None),
            (Some(i64::MAX - 1), Some(i64::MAX)),
            (None, Some(i64::MIN + 1)),
            (Some(0), Some(0)),
            (Some(-(1 << 40)), Some(1 << 40)),
        ];
        bounds.extend((0..8).map(|_| {
            let (a, b) = (splitmix(&mut s) as i64, splitmix(&mut s) as i64);
            (Some(a.min(b)), Some(a.max(b)))
        }));
        // Random lanes with the extremes mixed in, so the sums reach ±2^63
        // and past i64.
        let mut lanes = |len: usize| -> Vec<i64> {
            (0..len)
                .map(|_| match splitmix(&mut s) % 4 {
                    0 => i64::MIN + (splitmix(&mut s) % 3) as i64,
                    1 => i64::MAX - (splitmix(&mut s) % 3) as i64,
                    _ => splitmix(&mut s) as i64,
                })
                .collect()
        };
        // Every tail length, from an unaligned start as well, and a slice
        // past one stripe.
        let long = lanes((1 << 18) + 7);
        for len in 0..=64 {
            let vals = lanes(len + 1);
            for vals in [&vals[..len], &vals[1..]] {
                for &(lo, hi) in &bounds {
                    assert_eq!(
                        avx512::filter_count(vals, lo, hi),
                        filter_count_portable(vals, lo, hi),
                        "len={len} lo={lo:?} hi={hi:?}"
                    );
                }
            }
        }
        for &(lo, hi) in &bounds {
            assert_eq!(
                avx512::filter_count(&long, lo, hi),
                filter_count_portable(&long, lo, hi),
                "len={} lo={lo:?} hi={hi:?}",
                long.len()
            );
        }
        let all = avx512::filter_count(&long, None, None).1;
        assert!(all.abs() > i64::MAX as i128, "the long sum stays in i64");
    }

    /// The plans the bucket-id kernel is held to at `shards` shards:
    /// equi-depth over `base` and over samples of 64 values at each end of
    /// `i64` (so values past a sample's extremes land in its edge buckets,
    /// offsets at and past 2^63 among them), and cuts spread over `i64`
    /// without a sample (edge shards of one bucket), then with the first
    /// cut at `i64::MIN` and with the last at `i64::MAX`.
    fn id_plans(base: &[i64], shards: usize) -> Vec<ShardPlan> {
        let near_min: Vec<i64> = (0..64).map(|i| i64::MIN + i).collect();
        let near_max: Vec<i64> = (0..64).map(|i| i64::MAX - i).collect();
        let spread: Vec<i64> = (1..shards as u64)
            .map(|i| i64::MIN.wrapping_add((u64::MAX / shards as u64 * i) as i64))
            .collect();
        let mut plans = vec![
            ShardPlan::from_values(base, shards),
            ShardPlan::from_values(&near_min, shards),
            ShardPlan::from_values(&near_max, shards),
            ShardPlan::from_cuts(spread.clone()),
        ];
        if !spread.is_empty() {
            let (mut at_min, mut at_max) = (spread.clone(), spread);
            at_min[0] = i64::MIN;
            *at_max.last_mut().unwrap() = i64::MAX;
            plans.extend([ShardPlan::from_cuts(at_min), ShardPlan::from_cuts(at_max)]);
        }
        plans
    }

    /// Bucket geometries of `plan` for a whole build: buckets of two
    /// values, the most buckets the ids allow, and one bucket a shard.
    fn id_geometries(plan: &ShardPlan, rows: usize) -> Vec<Vec<Buckets>> {
        [(rows, 1), (1 << 26, 4096), (rows, 1 << 20)]
            .into_iter()
            .map(|(rows, floor)| coarse_buckets(plan, rows, floor))
            .collect()
    }

    /// `base`'s ids and histogram from the portable pass 1 and from the
    /// AVX-512 one (the kernel itself up to 16 shards, the dispatched pass
    /// past them), into slots followed by guard bytes the kernel must not
    /// write.
    #[cfg(target_arch = "x86_64")]
    fn assert_ids_match(base: &[i64], plan: &ShardPlan, geometry: &[Buckets], what: &str) {
        let n = base.len();
        let mut want = vec![0u8; n];
        let want_hist = count_chunk_portable(base, &mut want, plan.cuts(), geometry);
        let mut got = vec![0xA5u8; n + 8];
        let got_hist = if geometry.len() <= avx512::BUCKET_ID_SHARDS {
            avx512::bucket_ids(base, &mut got[..n], plan.cuts(), geometry)
        } else {
            count_chunk(Isa::Avx512, base, &mut got[..n], plan.cuts(), geometry)
        };
        assert_eq!(&got[..n], &want[..], "ids: {what}, {plan:?}");
        assert_eq!(got_hist, want_hist, "histogram: {what}, {plan:?}");
        assert!(
            got[n..].iter().all(|&b| b == 0xA5),
            "wrote past the ids: {what}"
        );
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_bucket_ids_match_portable_at_every_tail() {
        if !avx512::available() {
            eprintln!("skipping: no AVX-512 on this CPU");
            return;
        }
        let mut s = 0x1D5_u64;
        let mut vals: Vec<i64> = (0..64).map(|_| splitmix(&mut s) as i64).collect();
        vals[3] = i64::MIN;
        vals[12] = i64::MAX;
        for shards in [1, 4, 16] {
            for plan in id_plans(&vals, shards) {
                for geometry in id_geometries(&plan, vals.len()) {
                    for len in 0..=15 {
                        for start in [0, 1, 8, 13] {
                            let base = &vals[start..start + len];
                            assert_ids_match(base, &plan, &geometry, &format!("{start}+{len}"));
                        }
                    }
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_bucket_ids_match_portable_on_every_plan() {
        if !avx512::available() {
            eprintln!("skipping: no AVX-512 on this CPU");
            return;
        }
        let mut s = 0xB0C4_u64;
        let n = 517;
        let mut spread: Vec<i64> = (0..n).map(|_| splitmix(&mut s) as i64).collect();
        spread[7] = i64::MIN;
        spread[100] = i64::MAX;
        let mut sorted = spread.clone();
        sorted.sort_unstable();
        let bases = [
            ("spread", spread.clone()),
            ("sorted", sorted),
            ("three values", (0..n).map(|i| [-7, 0, 7][i % 3]).collect()),
            ("one value", vec![i64::MAX; n]),
            (
                "both ends",
                (0..n as i64)
                    .map(|i| match i % 2 {
                        0 => i64::MIN + i % 50,
                        _ => i64::MAX - i % 50,
                    })
                    .collect(),
            ),
        ];
        for shards in 1..=avx512::BUCKET_ID_SHARDS + 1 {
            assert_eq!(
                ShardPlan::from_values(&spread, shards).shards(),
                shards,
                "the spread base makes every shard count"
            );
            for (name, base) in &bases {
                for plan in id_plans(base, shards) {
                    for geometry in id_geometries(&plan, base.len()) {
                        assert_ids_match(base, &plan, &geometry, name);
                    }
                }
            }
        }
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            // Block decoding against per-index random access across
            // widths and lengths, full blocks and tails.
            #[test]
            fn decode_blocks_matches_get(
                bits in 0u32..=64,
                len in 0usize..300,
                seed in any::<u64>(),
            ) {
                let vals = masked_values(bits, len, seed);
                let packed = pack_bits(vals.iter().copied(), len, bits);
                let by_index: Vec<u64> = (0..len).map(|i| get(&packed, bits, i)).collect();
                prop_assert_eq!(&by_index, &vals);
                prop_assert_eq!(decoded(&packed, bits, len), by_index);
            }

            // Unsorted lane filter (portable and dispatched) == oracle.
            #[test]
            fn lane_filter_matches_oracle(
                vals in proptest::collection::vec(any::<i64>(), 0..400),
                lo_raw in (any::<bool>(), any::<i64>()),
                hi_raw in (any::<bool>(), any::<i64>()),
            ) {
                let lo = lo_raw.0.then_some(lo_raw.1);
                let hi = hi_raw.0.then_some(hi_raw.1);
                let oracle = filter_oracle(&vals, lo, hi);
                prop_assert_eq!(filter_count_portable(&vals, lo, hi), oracle);
                prop_assert_eq!(filter_count(&vals, lo, hi), oracle);
            }
        }
    }
}
