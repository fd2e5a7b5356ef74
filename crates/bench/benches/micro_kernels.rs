//! Criterion micro-benchmarks — ablations for the design decisions
//! PAPER.md's design summary records: crack kernels (in-place reference vs
//! vectorized out-of-place vs parallel), the block-at-a-time unpack of
//! bit-packed values ("Batched decode kernels"), the cracker index's
//! `locate` (the lookup a crack pays), Ripple insertion
//! vs naive re-cracking, the whole-attribute first touch (push routing +
//! first crack vs the coarse-granular build, and the build's bucket-id
//! pass alone), what row ids cost: the two-
//! and three-way crack kernels with and without them, and building a shard's
//! ids on demand, and what a narrow read of an evicted shard pays: its
//! one-shard rebuild and first crack, or a scan of the base zones it
//! meets; and what a service submission pays to
//! learn whether it can be answered on the submitting thread
//! (`QueryEngine::execute_exact`), for an exact hit and for a miss; and the
//! first point-filter build on a converged shard; and 32 Ripple drains into
//! a converged, summed shard, a crack of a shard with piece sums, a
//! summed shard's snapshot reads, and IN-lists on a converged attribute. The first line names the kernel family the
//! crack and filter kernels dispatched to (`HOLIX_NO_SIMD=1` forces the
//! portable one).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use holix_cracking::crack::crack_in_two;
use holix_cracking::index::{BoundLookup, CrackerIndex};
use holix_cracking::kernels::{self, pack_bits};
use holix_cracking::updates::{ripple_batch, ripple_insert};
use holix_cracking::vectorized::{crack_in_three_oop, crack_in_two_oop, CrackScratch};
use holix_cracking::{CrackerColumn, ShardPlan, ShardedColumn};
use holix_engine::{Dataset, HolisticEngine, HolisticEngineConfig, QueryEngine};
use holix_parallel::parallel_partition;
use holix_storage::select::{scan_stats, Predicate};
use holix_workloads::QuerySpec;
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

    // The block unpack the benchmark suite's unpack probe times: 20-bit
    // values decoded 64 at a time by the width-specialised kernel.
    const BITS: u32 = 20;
    let mut rng = StdRng::seed_from_u64(5);
    let offs: Vec<u64> = (0..N).map(|_| rng.random_range(0..1u64 << BITS)).collect();
    let packed = pack_bits(offs.iter().copied(), N, BITS);
    g.bench_function("unpack_block", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            kernels::decode_blocks(&packed, BITS, N, |block| {
                acc = acc.wrapping_add(block.iter().sum::<u64>());
                true
            });
            black_box(acc)
        })
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
            index.insert_bound(k, sorted.partition_point(|&s| s < k), 0);
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
        index.insert_bound(pivot, start + split, 0);
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

/// 32 consecutive Ripple drains of 280 updates each (two inserts to one
/// delete of a base tuple) into one converged, summed shard of 2^18
/// values: what an `update_churn` shard's drains pay. A snapshot read in
/// the setup summed every piece; each timed drain keeps those sums and
/// copies nothing. In
/// `drain_with_ids` the shard has built its row ids first (a conjunction
/// drove from it) and the drains move them along; in `drain_values_only`
/// it has none and the drains move values alone and log the batch, as an
/// `update_churn` shard's do. The shard's setup (cracks, row ids, the
/// summing read, one drain) is not timed; divide by 32 for ns per drain.
fn bench_drains(c: &mut Criterion) {
    const ROWS: usize = 1 << 18;
    const DRAINS: usize = 32;
    const BATCH: usize = 280;
    let mut rng = StdRng::seed_from_u64(39);
    let values: Vec<i64> = (0..ROWS).map(|_| rng.random_range(0..1_000_000)).collect();
    // Distinct base rows to delete: an odd stride is a bijection modulo
    // the power-of-two row count.
    let mut victims = (0..ROWS).map(|k| (k * 0x9E37_79B1 % ROWS) as u32);
    let mut next_row = ROWS as u32;
    // `(value, row, insert)` per update, one batch per drain.
    let batches: Vec<Vec<(i64, u32, bool)>> = (0..DRAINS)
        .map(|_| {
            (0..BATCH)
                .map(|i| match i % 3 {
                    2 => {
                        let row = victims.next().expect("rows left");
                        (values[row as usize], row, false)
                    }
                    _ => {
                        next_row += 1;
                        (rng.random_range(0..1_000_000), next_row, true)
                    }
                })
                .collect()
        })
        .collect();
    let converged = |ids: bool| {
        let col =
            ShardedColumn::from_base_with_plan("a", &values, ShardPlan::from_values(&values, 1));
        let shard = Arc::clone(col.shard(0));
        let mut rng = StdRng::seed_from_u64(40);
        let mut scratch = CrackScratch::new();
        for _ in 0..512 {
            let (a, b) = (
                rng.random_range(0..1_000_000),
                rng.random_range(0..1_000_000),
            );
            shard.select(Predicate::range(a.min(b), a.max(b)), &mut scratch);
        }
        let all = Predicate::range(i64::MIN, i64::MAX);
        if ids {
            shard.collect_row_ids(all);
        }
        shard.snapshot_scan(all, &mut scratch);
        shard.queue_insert(0, u32::MAX);
        shard.merge_pending();
        assert_eq!(shard.pending_len(), 0);
        assert!(shard.piece_sums().is_some(), "the read did not sum");
        assert_eq!(shard.has_row_ids(), ids);
        shard
    };
    let mut g = c.benchmark_group("updates");
    g.sample_size(10);
    for (name, ids) in [("drain_with_ids", true), ("drain_values_only", false)] {
        g.bench_function(name, |b| {
            b.iter_batched(
                || converged(ids),
                |shard| {
                    for batch in &batches {
                        for &(v, row, insert) in batch {
                            match insert {
                                true => shard.queue_insert(v, row),
                                false => shard.queue_delete(v, row),
                            };
                        }
                        shard.merge_pending();
                    }
                    assert_eq!((shard.pending_len(), shard.has_row_ids()), (0, ids));
                    shard
                },
                BatchSize::LargeInput,
            )
        });
    }
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
/// into the column an eviction left (one filter pass over the zones of the
/// base that can hold the shard; the shard sizes and the zone map were made
/// by the first build), then one select of 0.2 % of the domain inside it
/// (the first three-way crack of the shard's one piece). Two bases: the
/// values shuffled (`filter_then_crack`: every zone meets every shard) and
/// in sorted runs of 1,024 rows in shuffled order (`_clustered`: a quarter
/// of the zones do). Beside each, the same read answered without the
/// shard (`zone_scan`, `zone_scan_clustered`): a count and sum over the
/// base zones whose extremes meet it (every zone of the shuffled base, one
/// or two of the clustered one) through `kernels::filter_count`, what a
/// cold read under the storage budget pays until a rebuild pays for
/// itself. On a 2-vCPU AVX-512 box, three alternating runs each:
/// `zone_scan` 62–113 µs on the AVX2 body, 39–41 µs on the AVX-512 one,
/// beside `filter_then_crack` at 79–102 µs.
fn bench_shard_rebuild(c: &mut Criterion) {
    const ROWS: usize = 1 << 17;
    const RUN: usize = 1 << 10;
    let mut rng = StdRng::seed_from_u64(17);
    let mut shuffle = |xs: &mut [i64]| {
        for i in (1..xs.len()).rev() {
            xs.swap(i, rng.random_range(0..i + 1));
        }
    };
    let mut values: Vec<i64> = (0..ROWS as i64).map(|v| 2 * v).collect();
    shuffle(&mut values);
    let mut runs: Vec<i64> = (0..(ROWS / RUN) as i64).collect();
    shuffle(&mut runs);
    let clustered: Vec<i64> = runs
        .iter()
        .flat_map(|&r| (0..RUN as i64).map(move |i| 2 * (r * RUN as i64 + i)))
        .collect();
    let mut g = c.benchmark_group("shard_rebuild");
    g.sample_size(30);
    for (layout, values) in [("", values), ("_clustered", clustered)] {
        let base = Arc::new(values);
        let plan = ShardPlan::from_values(&base, 4);
        let lo = plan.cuts()[0] + 1_000;
        let pred = Predicate::range(lo, lo + ROWS as i64 / 250);
        let resident: ShardedColumn = ShardedColumn::lazy("a", Arc::clone(&base), plan);
        resident.admit(1, 1, 1, |fresh| vec![(); fresh.len()]);
        g.bench_function(format!("filter_then_crack{layout}"), |b| {
            let mut scratch = CrackScratch::new();
            let rebuild = |scratch: &mut CrackScratch| {
                let col = resident.vacated(&[1]);
                col.admit(1, 1, 1, |fresh| vec![(); fresh.len()]);
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
        g.bench_function(format!("zone_scan{layout}"), |b| {
            let col = resident.vacated(&[1]);
            assert_eq!(
                col.scan_cold(1, pred),
                scan_stats(&base, pred),
                "the zone scan answers wrongly"
            );
            b.iter(|| col.scan_cold(1, pred))
        });
    }
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
                    let col: ShardedColumn =
                        ShardedColumn::lazy("a", Arc::clone(&base), plan.clone());
                    col.admit(1, 1, 1, |fresh| vec![(); fresh.len()]);
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
    // The coarse build on the caller alone, and on the caller plus one
    // helper (what a first touch gangs on a 2-context machine with the
    // daemon's context idle).
    for (name, threads) in [
        ("coarse_build_then_crack", 1),
        ("coarse_build_then_crack_2_threads", 2),
    ] {
        g.bench_function(name, |b| {
            let mut scratch = CrackScratch::new();
            let pred = Predicate::range(lo, hi);
            let build = || {
                let col: ShardedColumn = ShardedColumn::lazy("a", Arc::clone(&base), plan.clone());
                col.admit(0, col.shard_count() - 1, threads, |fresh| {
                    vec![(); fresh.len()]
                });
                col
            };
            assert_eq!(
                build().select_verified(pred, &mut scratch).1,
                scan_stats(&base, pred),
                "the streamed build on {threads} threads answers its first query wrongly"
            );
            b.iter(|| {
                let col = build();
                black_box(col.select_verified(pred, &mut scratch));
                col
            })
        });
    }
    // Pass 1 of the coarse build alone, on the caller: every value's
    // bucket id and the histogram, with the kernel `kernels::active_isa`
    // picks and with the portable loop (the same ids, checked here).
    let col: ShardedColumn = ShardedColumn::lazy("a", Arc::clone(&base), plan.clone());
    let mut portable = vec![0u8; ROWS];
    let want = col.whole_build_ids(kernels::Isa::Portable, &mut portable);
    let mut ids = vec![0u8; ROWS];
    assert_eq!(
        col.whole_build_ids(kernels::active_isa(), &mut ids),
        want,
        "the bucket-id kernels count differently"
    );
    assert!(ids == portable, "the bucket-id kernels disagree");
    for (name, isa) in [
        ("bucket_ids", kernels::active_isa()),
        ("bucket_ids_portable", kernels::Isa::Portable),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| black_box(col.whole_build_ids(isa, &mut ids)))
        });
    }
    g.finish();
}

/// `HolisticEngine::execute_exact` over 1,000 ranges of a 2^18-row attribute
/// in four shards (no daemon workers): `hit` = ranges a query already
/// cracked (answered from the cracker index), `miss` = the same ranges one
/// value wider (a bound still has to crack, so the service queues it),
/// `hit_beside_backlog` = the cracked ranges with `MERGE_BACKLOG` pending
/// inserts outside them in every shard (the largest queue a hit still
/// folds inline; one more and the read queues to drain it). Divide by 10^3
/// for ns per submission.
fn bench_exact_hits(c: &mut Criterion) {
    const ROWS: usize = 1 << 18;
    let data = Dataset::new(vec![data(21).0.into_iter().cycle().take(ROWS).collect()]);
    let mut cfg = HolisticEngineConfig::split_half_sharded(2, 4);
    cfg.holistic.max_workers = Some(0);
    let engine = HolisticEngine::new(data, cfg);
    let hits: Vec<QuerySpec> = (0..1_000i64)
        .map(|i| QuerySpec {
            attr: 0,
            lo: i * 997,
            hi: i * 997 + 500,
        })
        .collect();
    for q in &hits {
        engine.execute(q);
    }
    let misses: Vec<QuerySpec> = hits
        .iter()
        .map(|q| QuerySpec { hi: q.hi + 1, ..*q })
        .collect();
    let run = |specs: &[QuerySpec], answered: usize| {
        let n = specs.iter().filter_map(|q| engine.execute_exact(q)).count();
        assert_eq!(n, answered);
        n
    };
    let mut g = c.benchmark_group("execute_exact");
    g.sample_size(30);
    g.bench_function("hit", |b| b.iter(|| run(&hits, hits.len())));
    g.bench_function("miss", |b| b.iter(|| run(&misses, 0)));
    // Pending inserts between the ranges (values ≡ 600 mod 997), up to
    // the backlog in every shard.
    let backlog = CrackerColumn::MERGE_BACKLOG;
    let shards = engine.sharded(0);
    let mut row = ROWS as u32;
    for k in 0..shards.shard_count() {
        let mine = (0..1_000i64)
            .map(|i| i * 997 + 600)
            .filter(|&v| shards.plan().shard_of(v) == k);
        for v in mine.cycle().take(backlog) {
            engine.queue_insert(0, v, row);
            row += 1;
        }
        assert_eq!(shards.shard(k).pending_len(), backlog);
    }
    g.bench_function("hit_beside_backlog", |b| b.iter(|| run(&hits, hits.len())));
    g.finish();
    engine.stop();
}

/// Building the point filter of one converged shard of 2^17 values (the
/// one shard of a 1-shard plan, cracked by 1,024 random selects into
/// pieces of about 64 values): what the first equality or IN probe on a
/// shard pays. The filter is built from the live pieces, each read under
/// its latch; the column's setup is not timed.
fn bench_point_filter(c: &mut Criterion) {
    let values = data(36).0;
    let converged = || {
        let col =
            ShardedColumn::from_base_with_plan("a", &values, ShardPlan::from_values(&values, 1));
        let shard = Arc::clone(col.shard(0));
        let mut rng = StdRng::seed_from_u64(36);
        let mut scratch = CrackScratch::new();
        for _ in 0..1_024 {
            let (a, b) = (
                rng.random_range(0..1_000_000),
                rng.random_range(0..1_000_000),
            );
            shard.select(Predicate::range(a.min(b), a.max(b)), &mut scratch);
        }
        shard
    };
    let mut g = c.benchmark_group("point_filter");
    g.sample_size(30);
    g.bench_function("first_build", |b| {
        b.iter_batched(
            converged,
            |shard| {
                assert!(shard.ensure_point_filter().contains(values[0]));
                shard
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

/// The first line of the output: which kernel family runs the cracks and
/// filter passes below.
/// One two-way crack of a column of 2^16 values (with row ids) in one
/// piece, through the column (`refine_at_blocking`: lookup, latch,
/// partition, boundary insert): `column_2e16` on a column no snapshot read
/// has summed, `column_summed_2e16` on a summed one, whose crack also sums
/// the lower side for the new boundary's prefix. The column's build, its
/// summing read and one read of its values are not timed; ns per crack.
fn bench_crack_two_with_sums(c: &mut Criterion) {
    const ROWS: usize = 1 << 16;
    let mut rng = StdRng::seed_from_u64(16);
    let values: Vec<i64> = (0..ROWS).map(|_| rng.random_range(0..1_000_000)).collect();
    let column = |summed: bool| {
        let col = CrackerColumn::from_base("a", &values);
        if summed {
            let all = Predicate::range(i64::MIN, i64::MAX);
            col.snapshot_scan(all, &mut CrackScratch::new());
        }
        assert_eq!((col.piece_count(), col.piece_sums().is_some()), (1, summed));
        // Both columns' values read once, so both cracks start on pages
        // in the same state.
        black_box(col.snapshot_range(0, col.len()));
        col
    };
    let mut g = c.benchmark_group("crack_two");
    g.sample_size(30);
    for (name, summed) in [("column_2e16", false), ("column_summed_2e16", true)] {
        g.bench_function(name, |b| {
            let mut scratch = CrackScratch::new();
            b.iter_batched(
                || column(summed),
                |col| {
                    black_box(col.refine_at_blocking(500_000, &mut scratch));
                    col
                },
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

/// 1,000 count + sum reads of 5–20 % of the domain on one shard of 2^18
/// values cracked into ≈ 1.5k pieces, summed by an earlier snapshot read
/// (`live_stats`: the pieces wholly in range from their sums, the two
/// edge pieces filtered under their latches, under the structure lock
/// shared). No read filters enough to crack. Divide by 10³ for ns per
/// read.
fn bench_snapshot_reads(c: &mut Criterion) {
    const ROWS: usize = 1 << 18;
    const DOMAIN: i64 = 1_000_000;
    let mut rng = StdRng::seed_from_u64(18);
    let values: Vec<i64> = (0..ROWS).map(|_| rng.random_range(0..DOMAIN)).collect();
    // ≈ 1.5k pieces of near-equal width, so no edge filters enough to
    // crack.
    let step = DOMAIN / 1_500;
    let pivots: Vec<i64> = (1..1_500)
        .map(|i| i * step + rng.random_range(0..step / 2))
        .collect();
    let reads: Vec<Predicate> = (0..1_000)
        .map(|_| {
            let width = rng.random_range(DOMAIN / 20..DOMAIN / 5);
            let lo = rng.random_range(0..DOMAIN - width);
            Predicate::range(lo, lo + width)
        })
        .collect();
    let mut scratch = CrackScratch::new();
    let col = ShardedColumn::from_base_with_plan("a", &values, ShardPlan::from_values(&values, 1));
    let shard = Arc::clone(col.shard(0));
    for &p in &pivots {
        shard.refine_at_blocking(p, &mut scratch);
    }
    shard.snapshot_scan(Predicate::range(i64::MIN, i64::MAX), &mut scratch);
    assert!(shard.piece_sums().is_some(), "the read did not sum");
    let pieces = shard.piece_count();
    let mut g = c.benchmark_group("snapshot");
    g.sample_size(20);
    g.bench_function("live_stats", |b| {
        b.iter(|| {
            for &pred in &reads {
                let scan = shard.snapshot_scan(pred, &mut scratch);
                debug_assert!(scan.filtered < CrackerColumn::REFRESH_FILTER_MIN);
                black_box(scan);
            }
        })
    });
    assert_eq!(shard.piece_count(), pieces, "a read cracked");
    g.finish();
}

/// 1,000 IN-lists of 1–8 keys, half of them absent, on a 2^20-row
/// attribute in four shards (`HolisticEngine::execute_points`, no daemon
/// workers): every base value is even and every absent key odd. The
/// attribute is converged first: 4,096 random range reads and one run of
/// the same lists (which builds the point filters and cracks the present
/// keys' unit ranges), then 64 pending inserts of present keys queued in
/// every shard, below the backlog a read merges at. Divide by 10³ for ns
/// per IN-list. On a 2-vCPU AVX-512 box, three alternating runs each:
/// 2.6–3.3 ms key by key (an accountant task, a column load and a touch
/// for the screen, and again for each maybe-present key's read), 1.5–2.2
/// ms in one pass.
fn bench_in_lists(c: &mut Criterion) {
    const ROWS: usize = 1 << 20;
    const DOMAIN: i64 = 1 << 22;
    let mut rng = StdRng::seed_from_u64(50);
    let base: Vec<i64> = (0..ROWS)
        .map(|_| rng.random_range(0..DOMAIN / 2) * 2)
        .collect();
    let lists: Vec<Vec<i64>> = (0..1_000)
        .map(|_| {
            let len = rng.random_range(1..=8);
            (0..len)
                .map(|i| match i % 2 {
                    0 => base[rng.random_range(0..ROWS)],
                    _ => rng.random_range(0..DOMAIN / 2) * 2 + 1,
                })
                .collect()
        })
        .collect();
    let mut cfg = HolisticEngineConfig::split_half_sharded(2, 4);
    cfg.holistic.max_workers = Some(0);
    let engine = HolisticEngine::new(Dataset::new(vec![base.clone()]), cfg);
    for _ in 0..4_096 {
        let (a, b) = (rng.random_range(0..DOMAIN), rng.random_range(0..DOMAIN));
        engine.execute(&QuerySpec {
            attr: 0,
            lo: a.min(b),
            hi: a.max(b),
        });
    }
    let run = || {
        let counts = lists.iter().map(|keys| engine.execute_points(0, keys));
        counts
            .map(|n| n.expect("an IN-list is answered"))
            .sum::<u64>()
    };
    run();
    let shards = engine.sharded(0);
    let (mut row, mut sorted) = (ROWS as u32, base);
    for k in 0..shards.shard_count() {
        let mine = lists.iter().flat_map(|keys| keys.iter().step_by(2));
        let mine = mine.filter(|&&v| shards.plan().shard_of(v) == k);
        for &v in mine.take(64) {
            engine.queue_insert(0, v, row);
            sorted.push(v);
            row += 1;
        }
        assert!(shards.shard(k).pending_len() < CrackerColumn::MERGE_BACKLOG);
    }
    sorted.sort_unstable();
    let count = |v: i64| sorted.partition_point(|&x| x <= v) - sorted.partition_point(|&x| x < v);
    let want: usize = lists
        .iter()
        .map(|keys| {
            let mut keys = keys.clone();
            keys.sort_unstable();
            keys.dedup();
            keys.into_iter().map(count).sum::<usize>()
        })
        .sum();
    assert_eq!(run(), want as u64, "the IN-lists answer wrongly");
    let mut g = c.benchmark_group("points");
    g.sample_size(30);
    g.bench_function("in_list", |b| b.iter(run));
    g.finish();
    engine.stop();
}

fn print_isa(_: &mut Criterion) {
    println!("# kernels: {:?}", kernels::active_isa());
}

criterion_group!(
    benches,
    print_isa,
    bench_first_touch,
    bench_shard_rebuild,
    bench_crack_two,
    bench_crack_two_with_sums,
    bench_crack_three,
    bench_row_ids,
    bench_crack_kernels,
    bench_cracker_index,
    bench_ripple_vs_rebuild,
    bench_drains,
    bench_snapshot_reads,
    bench_exact_hits,
    bench_point_filter,
    bench_in_lists
);
criterion_main!(benches);
