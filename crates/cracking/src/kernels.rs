//! Block-at-a-time unpack / scan kernels for bit-packed segment data.
//!
//! The snapshot layer stores encoded segments as little-endian bit-packed
//! word arrays (FOR offsets, delta gaps — see [`crate::snapshot::Segment`]).
//! PR 8 decoded them with a scalar cursor ([`ScalarUnpacker`]): one shift,
//! one conditional cross-word OR and one mask *per value*. This module
//! replaces that with block kernels built on one layout property: a block
//! of [`BLOCK`] = 64 values of width `bits` occupies **exactly `bits`
//! words, word-aligned** (64·bits bits), so block `b` starts at word
//! `b·bits` with bit offset 0 — every block decodes with the same
//! word-index/shift pattern.
//!
//! Three layers, slowest to fastest:
//!
//! - [`ScalarUnpacker`] — the PR 8 cursor, kept as the micro-bench and
//!   equivalence-test baseline;
//! - portable block kernels — width-specialised (`const BITS` dispatched
//!   over 0..=64) fully-unrolled inner loops the compiler autovectorises;
//! - explicit AVX2 kernel (`core::arch::x86_64`) — compare/blend lanes for
//!   the fused filter — selected once per process by [`active_isa`]
//!   (`is_x86_feature_detected!`), with the portable kernel as fallback.
//!   Block *unpack* is always portable: a gather-based AVX2 unpack measured
//!   ~3x slower than the const-folded unroll at every width (`vpgatherqq`
//!   serialises what the straight-line shift/or/mask stream pipelines) and
//!   was removed.
//!
//! On top of the unpack sit fused consumers that never materialise a
//! decoded copy: [`sum_range`] (block unpack + lane accumulate),
//! [`filter_count_sorted`] (sorted streams: binary search **on the packed
//! words** for the qualifying index range, then block-sum only that range)
//! and [`filter_count`] (unsorted i64 lanes: branchless compare + masked
//! split-lane accumulate).
//!
//! Beside them sits the compress-store layer, [`avx512`]: `vpcompressq`
//! bodies for the value-lane loops a cold read and every sequential crack
//! run — the one-shard filter pass (`sharding.rs`) and the partition passes
//! of the out-of-place cracks ([`crate::vectorized`]) — over `i64` values,
//! with the row lane carried through the [`crate::vectorized::RowLane`]
//! hook. [`active_isa`] picks [`Isa::Avx512`] on a CPU with AVX-512F and
//! AVX-512VL (which still runs the AVX2 [`filter_count`]); other CPUs and
//! value widths keep the portable scalar loops, which the compress bodies
//! match slot for slot. `HOLIX_NO_SIMD=1` forces the portable paths.

use std::sync::OnceLock;

/// Values per kernel block. A block of width `bits` spans exactly `bits`
/// packed words (64·bits bits), word-aligned — the property every block
/// kernel leans on.
pub const BLOCK: usize = 64;

/// Bit width needed to represent `max` (0 when `max == 0`).
pub fn bits_for(max: u64) -> u32 {
    64 - max.leading_zeros()
}

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

/// Sequential scalar cursor over a bit-packed word array — the pre-kernel
/// decode path, kept public as the baseline the block kernels are measured
/// and equivalence-tested against.
pub struct ScalarUnpacker<'a> {
    words: &'a [u64],
    bits: u32,
    bitpos: usize,
}

impl<'a> ScalarUnpacker<'a> {
    /// Cursor at the first packed value.
    pub fn new(words: &'a [u64], bits: u32) -> Self {
        ScalarUnpacker {
            words,
            bits,
            bitpos: 0,
        }
    }

    /// Decodes the next value: one shift, at most one cross-word OR, one
    /// mask.
    #[inline(always)]
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        if self.bits == 0 {
            return 0;
        }
        let (w, off) = (self.bitpos / 64, self.bitpos % 64);
        let mut v = self.words[w] >> off;
        if off + self.bits as usize > 64 {
            v |= self.words[w + 1] << (64 - off);
        }
        if self.bits < 64 {
            v &= (1u64 << self.bits) - 1;
        }
        self.bitpos += self.bits as usize;
        v
    }
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

/// First index whose value is `>= target` in a **sorted** packed stream of
/// `n` values — O(log n) random probes, nothing else is unpacked.
pub fn lower_bound(words: &[u64], bits: u32, n: usize, target: u64) -> usize {
    let (mut lo, mut hi) = (0usize, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if get(words, bits, mid) < target {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
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
    /// The AVX2 kernels, plus the AVX-512 compress-store crack and filter
    /// kernels of [`avx512`] for `i64` values.
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

/// `xs` as a slice of `W` when `T` is `W`, else `None`: how a kernel generic
/// over the value type hands `i64` lanes to the `i64`-only [`avx512`]
/// kernels.
pub(crate) fn same_lanes<T: 'static, W: 'static>(xs: &mut [T]) -> Option<&mut [W]> {
    // SAFETY: `T` and `W` are one type, so the cast is the identity.
    same_type::<T, W>().then(|| unsafe { &mut *(xs as *mut [T] as *mut [W]) })
}

/// [`same_lanes`] for a shared slice.
pub(crate) fn same_lanes_ref<T: 'static, W: 'static>(xs: &[T]) -> Option<&[W]> {
    // SAFETY: as in `same_lanes`.
    same_type::<T, W>().then(|| unsafe { &*(xs as *const [T] as *const [W]) })
}

fn same_type<T: 'static, W: 'static>() -> bool {
    std::any::TypeId::of::<T>() == std::any::TypeId::of::<W>()
}

/// Explicit AVX2 kernels. Safe wrappers verify feature presence; the
/// `#[target_feature]` bodies hold the intrinsics.
#[cfg(target_arch = "x86_64")]
pub mod avx2 {
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
        // SAFETY: feature verified above; loads are unaligned-tolerant.
        unsafe { filter_count_inner(vals, lo, hi) }
    }

    /// Fold lane accumulators to i128 at least every `STRIPE` values so
    /// the split-lane partial sums can never overflow their i64 lanes.
    const STRIPE: usize = 1 << 18;

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
/// along through the [`RowLane`] hook under the same masks (`u32` ids as
/// eight 32-bit lanes; `()` compiles to nothing), so id-less and
/// id-carrying cracks land alike. Every store is masked, so no slot outside
/// its mask is written; the last chunk of a slice that is not a multiple of
/// eight long loads under a mask (the full chunks under a constant one: a
/// mask computed per chunk measured the filter 2–3× slower). The safe
/// wrappers panic without the CPU features and check the lengths the raw
/// stores rely on.
#[cfg(target_arch = "x86_64")]
pub mod avx512 {
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
    /// order, to the front of `out`; returns how many. Panics before a
    /// store would pass the end of `out`.
    pub fn filter(
        base: &[i64],
        lo: Option<i64>,
        hi: Option<i64>,
        out: &mut [MaybeUninit<i64>],
    ) -> usize {
        require();
        // SAFETY: the CPU has the features (checked above).
        unsafe { filter_inner(base, lo, hi, out) }
    }

    #[target_feature(enable = "avx512f,avx512vl,popcnt")]
    unsafe fn filter_inner(
        base: &[i64],
        lo: Option<i64>,
        hi: Option<i64>,
        out: &mut [MaybeUninit<i64>],
    ) -> usize {
        // As in `avx2::filter_count`: no lane is below i64::MIN, and an
        // unbounded upper bound (MAX itself qualifies) admits every lane.
        let lo_v = _mm512_set1_epi64(lo.unwrap_or(i64::MIN));
        let hi_v = _mm512_set1_epi64(hi.unwrap_or(0));
        let hi_all: __mmask8 = if hi.is_some() { 0 } else { u8::MAX };
        let (src, dst, cap) = (base.as_ptr(), out.as_mut_ptr().cast::<i64>(), out.len());
        let mut kept = 0;
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
        };
        let full = base.len() - base.len() % 8;
        for i in (0..full).step_by(8) {
            step(i, FULL);
        }
        if full < base.len() {
            step(full, tail(base.len() - full));
        }
        kept
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
        // SAFETY: the CPU has the features, the lengths are checked above.
        unsafe { crack_two_inner(vals, rows, pivot, sv, sr) }
    }

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
        // SAFETY: the CPU has the features, the lengths are checked above.
        unsafe { crack_three_inner(vals, rows, lo, hi, sv, sr) }
    }

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
// Dispatched block decoding
// ---------------------------------------------------------------------------

/// Visits packed values `a..b` (of `n` total) in order, decoding
/// block-at-a-time; the final partial block (if any) falls back to
/// per-value [`get`].
pub fn decode_range(
    words: &[u64],
    bits: u32,
    n: usize,
    a: usize,
    b: usize,
    mut f: impl FnMut(u64),
) {
    debug_assert!(b <= n);
    if a >= b {
        return;
    }
    if bits == 0 {
        for _ in a..b {
            f(0);
        }
        return;
    }
    let full_blocks = n / BLOCK;
    let mut buf = [0u64; BLOCK];
    let mut i = a;
    while i < b {
        let blk = i / BLOCK;
        if blk >= full_blocks {
            for j in i..b {
                f(get(words, bits, j));
            }
            return;
        }
        unpack_block_portable(&words[blk * bits as usize..], bits, &mut buf);
        let s = i - blk * BLOCK;
        let e = (b - blk * BLOCK).min(BLOCK);
        for &v in &buf[s..e] {
            f(v);
        }
        i = blk * BLOCK + e;
    }
}

/// Visits the packed stream in decoded chunks of at most [`BLOCK`] values;
/// return `false` from `f` to stop (sorted early-exit for delta walks).
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

/// Sum of packed values `a..b` (of `n`), block-at-a-time. Blocks of width
/// ≤ 57 accumulate in one u64 lane set (64 such values cannot overflow);
/// wider blocks widen per value.
pub fn sum_range(words: &[u64], bits: u32, n: usize, a: usize, b: usize) -> u128 {
    debug_assert!(b <= n);
    if a >= b || bits == 0 {
        return 0;
    }
    let full_blocks = n / BLOCK;
    let mut buf = [0u64; BLOCK];
    let mut total = 0u128;
    let mut i = a;
    while i < b {
        let blk = i / BLOCK;
        if blk >= full_blocks {
            for j in i..b {
                total += get(words, bits, j) as u128;
            }
            return total;
        }
        unpack_block_portable(&words[blk * bits as usize..], bits, &mut buf);
        let s = i - blk * BLOCK;
        let e = (b - blk * BLOCK).min(BLOCK);
        if bits <= 57 {
            let mut acc = 0u64;
            for &v in &buf[s..e] {
                acc += v;
            }
            total += acc as u128;
        } else {
            for &v in &buf[s..e] {
                total += v as u128;
            }
        }
        i = blk * BLOCK + e;
    }
    total
}

/// Index range `[a, b)` of values within `[lo, hi)` in a **sorted** packed
/// stream (`None` = unbounded) — two binary searches directly on the
/// packed words.
pub fn qualifying_range(
    words: &[u64],
    bits: u32,
    n: usize,
    lo: Option<u64>,
    hi: Option<u64>,
) -> (usize, usize) {
    let a = match lo {
        None | Some(0) => 0,
        Some(t) => lower_bound(words, bits, n, t),
    };
    let b = match hi {
        None => n,
        Some(t) => lower_bound(words, bits, n, t),
    };
    (a, b.max(a))
}

/// Fused filter over a **sorted** packed stream: binary search locates the
/// contiguous qualifying index range, intersects it with the position
/// window `[start, end)`, and block-sums only that range. Returns
/// (count, sum of qualifying packed values).
pub fn filter_count_sorted(
    words: &[u64],
    bits: u32,
    n: usize,
    start: usize,
    end: usize,
    lo: Option<u64>,
    hi: Option<u64>,
) -> (u64, u128) {
    let (ql, qh) = qualifying_range(words, bits, n, lo, hi);
    let a = ql.max(start);
    let b = qh.min(end);
    if a >= b {
        return (0, 0);
    }
    ((b - a) as u64, sum_range(words, bits, n, a, b))
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
    if matches!(active_isa(), Isa::Avx2 | Isa::Avx512) {
        return avx2::filter_count(vals, lo, hi);
    }
    filter_count_portable(vals, lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn scalar_decode(words: &[u64], bits: u32, n: usize) -> Vec<u64> {
        let mut un = ScalarUnpacker::new(words, bits);
        (0..n).map(|_| un.next()).collect()
    }

    #[test]
    fn block_kernels_match_scalar_across_all_widths() {
        // Exhaustive widths, a length that exercises full blocks plus an
        // unaligned tail (64·2 + 37).
        for bits in 0..=64u32 {
            let vals = masked_values(bits, 165, 0xA5A5 + bits as u64);
            let packed = pack_bits(vals.iter().copied(), vals.len(), bits);
            assert_eq!(
                scalar_decode(&packed, bits, vals.len()),
                vals,
                "scalar roundtrip bits={bits}"
            );
            let mut out = Vec::new();
            decode_range(&packed, bits, vals.len(), 0, vals.len(), |v| out.push(v));
            assert_eq!(out, vals, "decode_range bits={bits}");
            for (i, &v) in vals.iter().enumerate() {
                assert_eq!(get(&packed, bits, i), v, "get({i}) bits={bits}");
            }
            let oracle: u128 = vals.iter().map(|&v| v as u128).sum();
            assert_eq!(
                sum_range(&packed, bits, vals.len(), 0, vals.len()),
                oracle,
                "sum_range bits={bits}"
            );
        }
    }

    #[test]
    fn unaligned_windows_match_scalar() {
        let bits = 13;
        let vals = masked_values(bits, 300, 7);
        let packed = pack_bits(vals.iter().copied(), vals.len(), bits);
        for (a, b) in [(0, 0), (0, 1), (63, 65), (1, 300), (130, 131), (64, 256)] {
            let mut out = Vec::new();
            decode_range(&packed, bits, vals.len(), a, b, |v| out.push(v));
            assert_eq!(out, vals[a..b], "window [{a},{b})");
            let oracle: u128 = vals[a..b].iter().map(|&v| v as u128).sum();
            assert_eq!(sum_range(&packed, bits, vals.len(), a, b), oracle);
        }
    }

    #[test]
    fn sorted_filter_matches_linear_oracle() {
        for bits in [0u32, 1, 7, 12, 33, 63, 64] {
            let mut vals = masked_values(bits, 257, 0xBEEF + bits as u64);
            vals.sort_unstable();
            let n = vals.len();
            let packed = pack_bits(vals.iter().copied(), n, bits);
            let probes: &[(Option<u64>, Option<u64>)] = &[
                (None, None),
                (Some(0), None),
                (Some(vals[n / 2]), None),
                (None, Some(vals[n / 2])),
                (Some(vals[n / 4]), Some(vals[3 * n / 4])),
                (Some(u64::MAX), Some(u64::MAX)),
                (Some(vals[n / 2]), Some(vals[n / 2])), // empty
            ];
            for &(lo, hi) in probes {
                for (start, end) in [(0, n), (10, 200), (n / 2, n / 2)] {
                    let (mut c, mut s) = (0u64, 0u128);
                    for (i, &v) in vals.iter().enumerate() {
                        let q = i >= start
                            && i < end
                            && lo.is_none_or(|l| v >= l)
                            && hi.is_none_or(|h| v < h);
                        if q {
                            c += 1;
                            s += v as u128;
                        }
                    }
                    assert_eq!(
                        filter_count_sorted(&packed, bits, n, start, end, lo, hi),
                        (c, s),
                        "bits={bits} lo={lo:?} hi={hi:?} [{start},{end})"
                    );
                }
            }
            // lower_bound against the slice oracle.
            for &t in &[0, 1, vals[n / 3], vals[n - 1], u64::MAX] {
                assert_eq!(
                    lower_bound(&packed, bits, n, t),
                    vals.partition_point(|&v| v < t),
                    "bits={bits} target={t}"
                );
            }
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

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            // Scalar-vs-kernel equivalence across widths, lengths and
            // unaligned windows: decode, random access, sum.
            #[test]
            fn kernels_match_scalar_cursor(
                bits in 0u32..=64,
                len in 0usize..300,
                seed in any::<u64>(),
                frac in (0u8..=255, 0u8..=255),
            ) {
                let vals = masked_values(bits, len, seed);
                let packed = pack_bits(vals.iter().copied(), len, bits);
                prop_assert_eq!(scalar_decode(&packed, bits, len), vals.clone());
                let a = len * frac.0 as usize / 256;
                let b = a.max(len * frac.1 as usize / 256);
                let mut out = Vec::new();
                decode_range(&packed, bits, len, a, b, |v| out.push(v));
                prop_assert_eq!(&out[..], &vals[a..b]);
                let oracle: u128 = vals[a..b].iter().map(|&v| v as u128).sum();
                prop_assert_eq!(sum_range(&packed, bits, len, a, b), oracle);
                if len > 0 {
                    let i = seed as usize % len;
                    prop_assert_eq!(get(&packed, bits, i), vals[i]);
                }
            }

            // Sorted fused filter == linear filter oracle, including
            // unbounded and inverted (empty) bounds.
            #[test]
            fn sorted_filter_matches_oracle(
                bits in 0u32..=64,
                len in 0usize..300,
                seed in any::<u64>(),
                lo_raw in (any::<bool>(), any::<u64>()),
                hi_raw in (any::<bool>(), any::<u64>()),
            ) {
                let lo = lo_raw.0.then_some(lo_raw.1);
                let hi = hi_raw.0.then_some(hi_raw.1);
                let mut vals = masked_values(bits, len, seed);
                vals.sort_unstable();
                let packed = pack_bits(vals.iter().copied(), len, bits);
                let (mut c, mut s) = (0u64, 0u128);
                for &v in &vals {
                    if lo.is_none_or(|l| v >= l) && hi.is_none_or(|h| v < h) {
                        c += 1;
                        s += v as u128;
                    }
                }
                prop_assert_eq!(
                    filter_count_sorted(&packed, bits, len, 0, len, lo, hi),
                    (c, s)
                );
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
