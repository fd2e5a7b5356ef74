//! `update_churn` — §5.7: writes beside reads on the *same* cracking layer.
//!
//! One client thread. Per 100 operations on average: 50 narrow range
//! `execute`s skewed toward freshly written regions, 15 `execute_points`
//! IN-lists (1–8 keys, half absent), 5 `execute_snapshot` count+sum scans
//! over 5–20% of the domain, 20 `queue_insert`s and 10 `queue_delete`s of
//! live rows — plus a 500-insert low-frequency-high-volume burst every
//! 2 000 operations. Expected answers come from replaying the stream
//! against a Fenwick tree before the run (see [`crate::oracle`]).

use super::{engine_config, Direct};
use crate::data::{ColumnSpec, Shape};
use crate::ops::{Kind, Op, Stream};
use crate::oracle::Fenwick;
use crate::rng::Rng;
use crate::runner::{RunConfig, Scale};
use holix_engine::api::Dataset;

/// Frozen sizes.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub attrs: usize,
    pub rows: usize,
    /// Ops replayed on every fresh engine before the timed block.
    pub warmup_ops: usize,
    /// Ops in the timed block.
    pub block_ops: usize,
}

impl Sizes {
    pub fn of(scale: Scale) -> Sizes {
        match scale {
            Scale::Tiny => Sizes {
                attrs: 2,
                rows: 1 << 15,
                warmup_ops: 6_000,
                block_ops: 8_000,
            },
            Scale::Full => Sizes {
                attrs: 2,
                rows: 1 << 20,
                warmup_ops: 30_000,
                block_ops: 40_000,
            },
        }
    }
}

const BURST_EVERY: usize = 2_000;
const BURST_INSERTS: usize = 500;
/// How many recent writes a "fresh region" read may centre on.
const RECENT: usize = 64;
/// Range bounds are multiples of `domain / GRID_CELLS`.
const GRID_CELLS: i64 = 2048;
/// Distinct keys the IN-lists draw from, per attribute.
const HOT_KEYS: usize = 2048;

/// Generator-side model of one attribute: the oracle tree plus what is
/// needed to pick deletable rows.
struct AttrModel {
    tree: Fenwick,
    /// Base rows not deleted yet are found by probing this bitmap.
    base_deleted: Vec<bool>,
    /// Live inserted rows `(value, row)`.
    inserted: Vec<(i64, u32)>,
    recent: Vec<i64>,
}

/// Builds the stream and, alongside it, every read's expected answer.
pub fn generate(sizes: &Sizes, seed: u64, columns: &[Vec<i64>]) -> Stream {
    let spec = ColumnSpec {
        rows: sizes.rows,
        shape: Shape::Uniform,
    };
    let domain = spec.domain();
    let mut models: Vec<AttrModel> = (0..sizes.attrs)
        .map(|_| {
            // The base multiset is every even number once.
            let mult: Vec<u32> = (0..domain as usize).map(|v| (v % 2 == 0) as u32).collect();
            AttrModel {
                tree: Fenwick::from_multiplicities(&mult),
                base_deleted: vec![false; sizes.rows],
                inserted: Vec::new(),
                recent: Vec::new(),
            }
        })
        .collect();
    let mut rng = Rng::new(seed, 0xC4A2);
    let mut stream = Stream::default();
    let mut next_row = sizes.rows as u32;
    let total = sizes.warmup_ops + sizes.block_ops;
    // Read bounds sit on a grid and point keys come from a fixed hot set,
    // so the cracker index converges during warm-up: what the measured
    // phase pays for is merging writes, not an ever-growing piece table.
    let cell = (domain / GRID_CELLS).max(2);
    let hot_keys: Vec<Vec<i64>> = (0..sizes.attrs)
        .map(|_| {
            (0..HOT_KEYS)
                .map(|i| rng.range(0, domain / 2) * 2 + (i % 2) as i64)
                .collect()
        })
        .collect();

    let mut insert = |stream: &mut Stream, m: &mut AttrModel, attr: usize, rng: &mut Rng| {
        let v = rng.range(0, domain);
        m.tree.insert(v as usize);
        m.inserted.push((v, next_row));
        if m.recent.len() == RECENT {
            m.recent.remove(0);
        }
        m.recent.push(v);
        stream.push_update(Kind::Insert, attr, v, next_row);
        next_row += 1;
    };

    while stream.ops.len() < total {
        let n = stream.ops.len();
        if n > 0 && n % BURST_EVERY == 0 {
            let attr = rng.below(sizes.attrs as u64) as usize;
            for _ in 0..BURST_INSERTS.min(total - n) {
                insert(&mut stream, &mut models[attr], attr, &mut rng);
            }
            continue;
        }
        let attr = rng.below(sizes.attrs as u64) as usize;
        let m = &mut models[attr];
        match rng.below(100) {
            0..=49 => {
                let centre = if !m.recent.is_empty() && rng.chance(0.7) {
                    m.recent[rng.below(m.recent.len() as u64) as usize]
                } else {
                    rng.range(0, domain)
                };
                // One to four grid cells, one of them the centre's own.
                let cells = rng.range(1, 5);
                let w = cells * cell;
                let lo = ((centre / cell - rng.range(0, cells)) * cell).clamp(0, domain - w);
                let (count, _) = m.tree.count_sum(lo, lo + w);
                stream.ops.push(Op::range(attr, lo, lo + w, count));
            }
            50..=64 => {
                let len = 1 + rng.below(8) as usize;
                let mut keys = [0i64; 8];
                for k in &mut keys[..len] {
                    // Even keys are base values (present unless deleted),
                    // odd keys exist only if an insert happened to hit them.
                    *k = hot_keys[attr][rng.below(HOT_KEYS as u64) as usize];
                }
                // An IN-list counts each qualifying tuple once.
                let mut distinct = keys[..len].to_vec();
                distinct.sort_unstable();
                distinct.dedup();
                let count = distinct.iter().map(|&k| m.tree.count_sum(k, k + 1).0).sum();
                stream.push_points(attr, &keys[..len], count);
            }
            65..=69 => {
                let w = rng.range(domain / 20, domain / 5);
                let lo = rng.range(0, domain - w);
                stream
                    .ops
                    .push(Op::snapshot(attr, lo, lo + w, m.tree.count_sum(lo, lo + w)));
            }
            70..=89 => insert(&mut stream, m, attr, &mut rng),
            _ => {
                // Delete a live row: an earlier insert when there is one
                // (half the time), else a base row not deleted yet.
                let (v, row) = if !m.inserted.is_empty() && rng.chance(0.5) {
                    let k = rng.below(m.inserted.len() as u64) as usize;
                    m.inserted.swap_remove(k)
                } else {
                    let mut row = rng.below(sizes.rows as u64) as usize;
                    while std::mem::replace(&mut m.base_deleted[row], true) {
                        row = (row + 1) % sizes.rows;
                    }
                    (columns[attr][row], row as u32)
                };
                m.tree.delete(v as usize);
                stream.push_update(Kind::Delete, attr, v, row);
            }
        }
    }
    stream
}

pub fn new(cfg: &RunConfig) -> Direct {
    let sizes = Sizes::of(cfg.scale);
    let spec = ColumnSpec {
        rows: sizes.rows,
        shape: Shape::Uniform,
    };
    let columns: Vec<Vec<i64>> = (0..sizes.attrs)
        .map(|a| spec.generate(&mut Rng::new(cfg.seed, 0xDA7A + a as u64)))
        .collect();
    let stream = generate(&sizes, cfg.seed, &columns);
    Direct {
        name: "update_churn",
        data: Dataset::new(columns),
        stream,
        engine_cfg: engine_config(),
        warmup_ops: sizes.warmup_ops,
        trace_sample_mask: 3, // 1 op in 4
        cold: false,
    }
}
