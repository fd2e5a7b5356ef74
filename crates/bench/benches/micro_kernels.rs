//! Criterion micro-benchmarks — ablations for the design decisions
//! PAPER.md's design summary records: crack kernels (in-place reference vs
//! vectorized out-of-place vs parallel), scalar vs block-at-a-time segment
//! decode ("Batched decode kernels"), the cracker index's `locate` (the
//! lookup a crack pays), weight-heap updates, Ripple insertion vs naive
//! re-cracking, the whole-attribute first touch (push routing + first crack
//! vs the coarse-granular build), what row ids cost: the two- and three-way
//! crack kernels with and without them, and building a shard's ids on
//! demand, and what a narrow read of an evicted shard pays: its one-shard
//! rebuild and first crack. The first line names the kernel family the
//! crack and filter kernels dispatched to (`HOLIX_NO_SIMD=1` forces the
//! portable one).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use holix_core::weight_heap::WeightHeap;
use holix_cracking::crack::crack_in_two;
use holix_cracking::index::{BoundLookup, CrackerIndex};
use holix_cracking::kernels::{self, pack_bits, ScalarUnpacker};
use holix_cracking::updates::{ripple_batch, ripple_insert};
use holix_cracking::vectorized::{crack_in_three_oop, crack_in_two_oop, CrackScratch};
use holix_cracking::{ShardPlan, ShardedColumn};
use holix_parallel::parallel_partition;
use holix_storage::select::{scan_stats, Predicate};
use rand::prelude::*;
use std::hint::black_box;
use std::sync::Arc;

const N: usize = 1 << 17;

fn data(seed: u64) -> (Vec<i64>, Vec<u32>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let vals: Vec<i64> = (0..N).map(|_| rng.random_range(0..1_000_000)).collect();
    let rows: Vec<u32> = (0..N as u32).collect();
    (vals, rows)
}

fn bench_crack_kernels(c: &mut Criterion) {
    let (vals, rows) = data(1);
    let mut g = c.benchmark_group("crack_kernels");
    g.sample_size(10);

    g.bench_function("branchy", |b| {
        b.iter_batched(
            || (vals.clone(), rows.clone()),
            |(mut v, mut r)| black_box(crack_in_two(&mut v, &mut r, 500_000)),
            BatchSize::LargeInput,
        )
    });
    g.bench_function("vectorized_oop", |b| {
        let mut scratch = CrackScratch::new();
        b.iter_batched(
            || (vals.clone(), rows.clone()),
            |(mut v, mut r)| black_box(crack_in_two_oop(&mut v, &mut r, 500_000, &mut scratch)),
            BatchSize::LargeInput,
        )
    });
    g.bench_function("vectorized_three_oop", |b| {
        // Both bounds in one piece (the fresh-column fast path): the kernel
        // partitions into [< lo | lo..hi | >= hi] in a single call.
        let mut scratch = CrackScratch::new();
        b.iter_batched(
            || (vals.clone(), rows.clone()),
            |(mut v, mut r)| {
                black_box(crack_in_three_oop(
                    &mut v,
                    &mut r,
                    250_000,
                    750_000,
                    &mut scratch,
                ))
            },
            BatchSize::LargeInput,
        )
    });
    for t in [2usize, 4] {
        g.bench_function(format!("parallel_x{t}"), |b| {
            b.iter_batched(
                || (vals.clone(), rows.clone()),
                |(mut v, mut r)| black_box(parallel_partition(&mut v, &mut r, 500_000, t)),
                BatchSize::LargeInput,
            )
        });
    }

    // Segment-decode ablation: the scalar shift/mask `Unpacker` walk the
    // snapshot edge scans used through PR 8, against the block-at-a-time
    // kernels (with AVX2 under runtime dispatch) that replaced it.
    const BITS: u32 = 20;
    let mut rng = StdRng::seed_from_u64(5);
    let mut offs: Vec<u64> = (0..N).map(|_| rng.random_range(0..1u64 << BITS)).collect();
    let packed_unsorted = pack_bits(offs.iter().copied(), N, BITS);
    offs.sort_unstable();
    let packed = pack_bits(offs.iter().copied(), N, BITS);
    g.bench_function("unpack_scalar", |b| {
        b.iter(|| {
            let mut un = ScalarUnpacker::new(&packed_unsorted, BITS);
            let mut acc = 0u64;
            for _ in 0..N {
                acc = acc.wrapping_add(un.next());
            }
            black_box(acc)
        })
    });
    g.bench_function("unpack_block", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            kernels::decode_range(&packed_unsorted, BITS, N, 0, N, |v| {
                acc = acc.wrapping_add(v);
            });
            black_box(acc)
        })
    });
    // Middle half of the sorted offset domain qualifies — the scalar
    // baseline is the PR 8 scan loop (walk from 0, early exit past hi).
    let (lo, hi) = (Some(1u64 << (BITS - 2)), Some(3u64 << (BITS - 2)));
    g.bench_function("filter_scalar", |b| {
        b.iter(|| {
            let mut un = ScalarUnpacker::new(&packed, BITS);
            let mut count = 0u64;
            let mut sum = 0u128;
            for _ in 0..N {
                let v = un.next();
                if hi.is_some_and(|h| v >= h) {
                    break;
                }
                if lo.is_none_or(|l| v >= l) {
                    count += 1;
                    sum += v as u128;
                }
            }
            black_box((count, sum))
        })
    });
    g.bench_function("filter_packed", |b| {
        b.iter(|| black_box(kernels::filter_count_sorted(&packed, BITS, N, 0, N, lo, hi)))
    });
    g.finish();
}

/// `CrackerIndex::locate` over 10,000 boundaries at random keys (inserted
/// in random order, as cracks insert them), for 10,000 random probes: the
/// lookup every crack pays, latch clone included.
fn bench_cracker_index(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let keys: Vec<i64> = (0..10_000)
        .map(|_| rng.random_range(0..1_000_000))
        .collect();
    let mut g = c.benchmark_group("cracker_index_lookup");
    g.sample_size(20);

    let mut sorted = keys.clone();
    sorted.sort_unstable();
    sorted.dedup();
    let mut index = CrackerIndex::new(sorted.len());
    for &k in &keys {
        if let BoundLookup::Piece { .. } = index.locate(k) {
            index.insert_bound(k, sorted.partition_point(|&s| s < k));
        }
    }
    let probes: Vec<i64> = (0..10_000)
        .map(|_| rng.random_range(0..1_000_000))
        .collect();

    g.bench_function("locate", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for &p in &probes {
                acc += match index.locate(p) {
                    BoundLookup::Exact(pos) => pos,
                    BoundLookup::Piece { start, .. } => start,
                };
            }
            black_box(acc)
        })
    });
    g.finish();
}

fn bench_weight_heap(c: &mut Criterion) {
    let mut g = c.benchmark_group("weight_heap");
    g.sample_size(20);
    g.bench_function("upsert_update_cycle", |b| {
        b.iter_batched(
            WeightHeap::new,
            |mut h| {
                for k in 0..256usize {
                    h.upsert(k, (k * 31 % 97) as u128);
                }
                for k in 0..256usize {
                    h.upsert(k, (k * 17 % 89) as u128);
                    black_box(h.peek_max());
                }
                h
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_ripple_vs_rebuild(c: &mut Criterion) {
    // Insert 64 values into a column cracked into 256 pieces: Ripple moves
    // one element per downstream piece and value (`ripple_insert_64`, the
    // per-value reference) or `min(k, len)` per piece for the whole batch
    // (`ripple_batch_64`, what a merge runs); the naive alternative
    // re-sorts the touched suffix.
    let (vals, rows) = data(3);
    let mut index = CrackerIndex::new(N);
    let mut cvals = vals.clone();
    let mut crows = rows.clone();
    let mut rng = StdRng::seed_from_u64(4);
    for _ in 0..255 {
        let pivot = rng.random_range(0..1_000_000);
        let bounds = index.bounds_in_order();
        if bounds.iter().any(|&(k, _)| k == pivot) {
            continue;
        }
        let idx = bounds.partition_point(|&(k, _)| k <= pivot);
        let start = if idx == 0 { 0 } else { bounds[idx - 1].1 };
        let end = if idx < bounds.len() {
            bounds[idx].1
        } else {
            cvals.len()
        };
        let split = crack_in_two(&mut cvals[start..end], &mut crows[start..end], pivot);
        index.insert_bound(pivot, start + split);
    }

    let mut g = c.benchmark_group("updates");
    g.sample_size(10);
    g.bench_function("ripple_insert_64", |b| {
        b.iter_batched(
            || (cvals.clone(), crows.clone(), index.clone()),
            |(mut v, mut r, mut idx)| {
                for k in 0..64u32 {
                    ripple_insert(&mut v, &mut r, &mut idx, (k as i64) * 13_337, N as u32 + k);
                }
                black_box(v.len())
            },
            BatchSize::LargeInput,
        )
    });
    // The same 64 values as one batch: the boundary table walked once.
    let batch: Vec<(i64, u32)> = (0..64u32)
        .map(|k| ((k as i64) * 13_337, N as u32 + k))
        .collect();
    g.bench_function("ripple_batch_64", |b| {
        b.iter_batched(
            || (cvals.clone(), crows.clone(), index.clone()),
            |(mut v, mut r, mut idx)| {
                ripple_batch(&mut v, &mut r, &mut idx, &batch, &[]);
                black_box(v.len())
            },
            BatchSize::LargeInput,
        )
    });
    g.bench_function("append_and_resort_64", |b| {
        b.iter_batched(
            || vals.clone(),
            |mut v| {
                for k in 0..64i64 {
                    v.push(k * 13_337);
                }
                v.sort_unstable();
                black_box(v.len())
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

/// The sequential two-way kernel over a piece of 2^13 / 2^16 / 2^19 values,
/// moving row ids beside the values (`ids_*`) or values alone (`no_ids_*`,
/// what a shard born without row ids runs). Divide by the piece length for
/// ns/value.
fn bench_crack_two(c: &mut Criterion) {
    let mut g = c.benchmark_group("crack_two");
    g.sample_size(30);
    for log in [13u32, 16, 19] {
        let n = 1usize << log;
        let mut rng = StdRng::seed_from_u64(log as u64);
        let vals: Vec<i64> = (0..n).map(|_| rng.random_range(0..1_000_000)).collect();
        let rows: Vec<u32> = (0..n as u32).collect();
        g.bench_function(format!("ids_2e{log}"), |b| {
            let mut scratch = CrackScratch::new();
            b.iter_batched(
                || (vals.clone(), rows.clone()),
                |(mut v, mut r)| {
                    black_box(crack_in_two_oop(&mut v, &mut r, 500_000, &mut scratch));
                    (v, r)
                },
                BatchSize::LargeInput,
            )
        });
        g.bench_function(format!("no_ids_2e{log}"), |b| {
            let mut scratch = CrackScratch::new();
            b.iter_batched(
                || vals.clone(),
                |mut v| {
                    black_box(crack_in_two_oop(
                        &mut v,
                        &mut vec![(); n],
                        500_000,
                        &mut scratch,
                    ));
                    v
                },
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

/// The sequential three-way kernel over a piece of 2^15 values — the first
/// crack of a rebuilt shard at `analytic_budget`'s geometry — with and
/// without row ids, keeping the middle half.
fn bench_crack_three(c: &mut Criterion) {
    let mut g = c.benchmark_group("crack_three");
    g.sample_size(30);
    let n = 1usize << 15;
    let mut rng = StdRng::seed_from_u64(15);
    let vals: Vec<i64> = (0..n).map(|_| rng.random_range(0..1_000_000)).collect();
    let rows: Vec<u32> = (0..n as u32).collect();
    g.bench_function("ids_2e15", |b| {
        let mut scratch = CrackScratch::new();
        b.iter_batched(
            || (vals.clone(), rows.clone()),
            |(mut v, mut r)| {
                black_box(crack_in_three_oop(
                    &mut v,
                    &mut r,
                    250_000,
                    750_000,
                    &mut scratch,
                ));
                (v, r)
            },
            BatchSize::LargeInput,
        )
    });
    g.bench_function("no_ids_2e15", |b| {
        let mut scratch = CrackScratch::new();
        b.iter_batched(
            || vals.clone(),
            |mut v| {
                black_box(crack_in_three_oop(
                    &mut v,
                    &mut vec![(); n],
                    250_000,
                    750_000,
                    &mut scratch,
                ));
                v
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

/// A narrow read of an evicted shard at `analytic_budget`'s geometry: a
/// 2^17-row base of unique values in 4 shards, one shard admitted alone
/// into the column an eviction left (one filter pass over the whole base;
/// the shard sizes were counted by the first build), then one select of
/// 0.2 % of the domain inside it (the first three-way crack of the shard's
/// one piece).
fn bench_shard_rebuild(c: &mut Criterion) {
    const ROWS: usize = 1 << 17;
    let mut rng = StdRng::seed_from_u64(17);
    let mut values: Vec<i64> = (0..ROWS as i64).map(|v| 2 * v).collect();
    for i in (1..ROWS).rev() {
        values.swap(i, rng.random_range(0..i + 1));
    }
    let base = Arc::new(values);
    let plan = ShardPlan::from_values(&base, 4);
    let lo = plan.cuts()[0] + 1_000;
    let pred = Predicate::range(lo, lo + ROWS as i64 / 250);
    let resident: ShardedColumn<i64> = ShardedColumn::lazy("a", Arc::clone(&base), plan);
    resident.admit(1, 1, |fresh| vec![(); fresh.len()]);
    let mut g = c.benchmark_group("shard_rebuild");
    g.sample_size(30);
    g.bench_function("filter_then_crack", |b| {
        let mut scratch = CrackScratch::new();
        let rebuild = |scratch: &mut CrackScratch<i64>| {
            let col = resident.vacated(&[1]);
            col.admit(1, 1, |fresh| vec![(); fresh.len()]);
            let stats = col.select_verified(pred, scratch).1;
            (col, stats)
        };
        assert_eq!(
            rebuild(&mut scratch).1,
            scan_stats(&base, pred),
            "the rebuilt shard answers its first query wrongly"
        );
        b.iter(|| rebuild(&mut scratch))
    });
    g.finish();
}

/// Building the row ids of one 2^18-row shard of a 2^20-row base (one pass
/// over the base, a binary search of the boundary table per tuple in range)
/// once queries have cracked it into 64 and into 1,024 pieces: what the
/// first conjunction, Ripple merge or migration on a shard pays.
fn bench_row_ids(c: &mut Criterion) {
    const ROWS: usize = 1 << 20;
    let mut rng = StdRng::seed_from_u64(9);
    let base: Arc<Vec<i64>> = Arc::new(
        (0..ROWS)
            .map(|_| rng.random_range(0..4 * ROWS as i64))
            .collect(),
    );
    let plan = ShardPlan::from_values(&base, 4);
    let (lo, hi) = (plan.cuts()[0], plan.cuts()[1]);
    let mut g = c.benchmark_group("row_ids");
    g.sample_size(10);
    for pieces in [64i64, 1_024] {
        g.bench_function(format!("build_{pieces}"), |b| {
            let mut scratch = CrackScratch::new();
            b.iter_batched(
                || {
                    let col: ShardedColumn<i64> =
                        ShardedColumn::lazy("a", Arc::clone(&base), plan.clone());
                    col.admit(1, 1, |fresh| vec![(); fresh.len()]);
                    // Equi-width pivots, halving: every crack splits a piece
                    // in two.
                    let mut step = pieces;
                    while step > 1 {
                        for i in (step / 2..pieces).step_by(step as usize) {
                            let pivot = lo + (hi - lo) / pieces * i;
                            col.shard(1).refine_at_blocking(pivot, &mut scratch);
                        }
                        step /= 2;
                    }
                    assert_eq!(col.shard(1).piece_count(), pieces as usize);
                    col
                },
                |col| {
                    // The build, and a copy of the last piece's ids.
                    let top = Predicate::range(lo + (hi - lo) / pieces * (pieces - 1), i64::MAX);
                    black_box(col.shard(1).collect_row_ids(top));
                    col
                },
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

fn bench_first_touch(c: &mut Criterion) {
    // One cold attribute at the benchmark suite's size, 2^21 rows in 4
    // shards, up to its first range query. Divide by 2^21 for ns/value,
    // beside `parallel.partition_ns_per_value` and
    // `storage.scan_ns_per_value`.
    const ROWS: usize = 1 << 21;
    let mut rng = StdRng::seed_from_u64(5);
    let base: Arc<Vec<i64>> = Arc::new(
        (0..ROWS)
            .map(|_| rng.random_range(0..4 * ROWS as i64))
            .collect(),
    );
    let plan = ShardPlan::from_values(&base, 4);
    let (lo, hi) = (ROWS as i64, ROWS as i64 + 40_000);
    let mut g = c.benchmark_group("first_touch");
    g.sample_size(10);

    // What a first touch did before the coarse build: every tuple pushed
    // to its shard in base order, a branchy fold for each shard's domain,
    // then the query's three-way crack of one whole shard.
    g.bench_function("push_routing_then_crack", |b| {
        let mut scratch = CrackScratch::new();
        b.iter(|| {
            let s = plan.shards();
            let cap = ROWS / s + ROWS / (s * 4) + 1;
            let mut vals: Vec<Vec<i64>> = (0..s).map(|_| Vec::with_capacity(cap)).collect();
            let mut rows: Vec<Vec<u32>> = (0..s).map(|_| Vec::with_capacity(cap)).collect();
            for (r, &v) in base.iter().enumerate() {
                let k = plan.shard_of(v);
                vals[k].push(v);
                rows[k].push(r as u32);
            }
            for shard in &vals {
                let mut lo_hi = None;
                for &v in shard {
                    lo_hi = Some(match lo_hi {
                        None => (v, v),
                        Some((lo, hi)) => {
                            (if v < lo { v } else { lo }, if v > hi { v } else { hi })
                        }
                    });
                }
                black_box(lo_hi);
            }
            let k = plan.shard_of(lo);
            black_box(crack_in_three_oop(
                &mut vals[k],
                &mut rows[k],
                lo,
                hi,
                &mut scratch,
            ));
            (vals, rows)
        })
    });
    g.bench_function("coarse_build_then_crack", |b| {
        let mut scratch = CrackScratch::new();
        let pred = Predicate::range(lo, hi);
        let col: ShardedColumn<i64> = ShardedColumn::lazy("a", Arc::clone(&base), plan.clone());
        col.admit(0, col.shard_count() - 1, |fresh| vec![(); fresh.len()]);
        assert_eq!(
            col.select_verified(pred, &mut scratch).1,
            scan_stats(&base, pred),
            "the streamed build answers its first query wrongly"
        );
        b.iter(|| {
            let col: ShardedColumn<i64> = ShardedColumn::lazy("a", Arc::clone(&base), plan.clone());
            col.admit(0, col.shard_count() - 1, |fresh| vec![(); fresh.len()]);
            black_box(col.select_verified(pred, &mut scratch));
            col
        })
    });
    g.finish();
}

/// The first line of the output: which kernel family runs the cracks and
/// filter passes below.
fn print_isa(_: &mut Criterion) {
    println!("# kernels: {:?}", kernels::active_isa());
}

criterion_group!(
    benches,
    print_isa,
    bench_first_touch,
    bench_shard_rebuild,
    bench_crack_two,
    bench_crack_three,
    bench_row_ids,
    bench_crack_kernels,
    bench_cracker_index,
    bench_weight_heap,
    bench_ripple_vs_rebuild
);
criterion_main!(benches);
