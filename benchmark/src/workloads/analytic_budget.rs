//! `analytic_budget` — the larger-than-budget workload: analytical reads
//! over more attributes than the index space may keep materialised.
//!
//! A third of the attributes are low-cardinality, a third are laid out as
//! sorted runs, a third are uniform; `HolisticConfig::storage_budget` is
//! half the base data, so segment morphing and LFU eviction must run. Mix:
//! 70% wide `execute_snapshot` scans (10–60% of the domain), 20% two- or
//! three-term `execute_conjunction`s, 10% narrow `execute`s.
//!
//! Popularity is explicit rather than sampled from a long-tailed law: the
//! first [`HOT`] attributes (one of each shape) take every scan and every
//! conjunction driver and fit the budget together; the narrow `execute`s
//! visit the *other* unique-valued attributes in turn, so each is a
//! re-materialisation that evicts another cold index. Which operations miss
//! is then decided by the stream, not by how far the daemon happened to get
//! — with a sampled popularity the hot set only *almost* fit, and residency,
//! and with it every timing, flipped between runs of the same code.

use super::{engine_config, Direct};
use crate::data::{inverse_rows, ColumnSpec, Shape};
use crate::ops::{Op, Stream};
use crate::rng::Rng;
use crate::runner::{RunConfig, Scale};
use holix_engine::api::Dataset;
use holix_workloads::QuerySpec;

/// Frozen sizes.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// A multiple of three: one third per column shape.
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
                attrs: 9,
                rows: 1 << 15,
                warmup_ops: 2_000,
                block_ops: 4_000,
            },
            Scale::Full => Sizes {
                attrs: 18,
                rows: 1 << 17,
                warmup_ops: 2_000,
                block_ops: 4_000,
            },
        }
    }

    /// Attribute `a`'s column: thirds by shape, interleaved so the Zipf
    /// popularity ranking (attribute index) cuts across shapes.
    pub fn spec(&self, attr: usize) -> ColumnSpec {
        let shape = match attr % 3 {
            0 => Shape::LowCard { card: 64 },
            1 => Shape::Clustered { run: 1024 },
            _ => Shape::Uniform,
        };
        ColumnSpec {
            rows: self.rows,
            shape,
        }
    }
}

/// Attributes `0..HOT` are the popular ones (one of each shape).
pub const HOT: usize = 3;

/// A conjunction term on `attr` qualifying between `min_share` and
/// `max_share` of the rows (low-cardinality columns round to whole values).
fn term(
    spec: &ColumnSpec,
    attr: usize,
    rng: &mut Rng,
    min_share: f64,
    max_share: f64,
) -> QuerySpec {
    let d = spec.domain();
    let share = min_share + rng.unit() * (max_share - min_share);
    let w = ((d as f64 * share) as i64).clamp(1, d - 1);
    let lo = rng.range(0, d - w);
    QuerySpec {
        attr,
        lo,
        hi: lo + w,
    }
}

/// Builds the stream. Conjunction answers come from walking the narrowest
/// term's rows through an inverse index and testing the other terms on the
/// base columns.
pub fn generate(sizes: &Sizes, seed: u64, columns: &[Vec<i64>]) -> Stream {
    let specs: Vec<ColumnSpec> = (0..sizes.attrs).map(|a| sizes.spec(a)).collect();
    let unique: Vec<usize> = (0..sizes.attrs).filter(|&a| specs[a].unique()).collect();
    let inverse: Vec<Option<Vec<u32>>> = (0..sizes.attrs)
        .map(|a| specs[a].unique().then(|| inverse_rows(&columns[a])))
        .collect();
    let (hot_unique, cold_unique): (Vec<usize>, Vec<usize>) =
        unique.iter().partition(|&&a| a < HOT);
    let mut rng = Rng::new(seed, 0xA7A1);
    let mut next_cold = 0usize;
    let mut stream = Stream::default();
    let total = sizes.warmup_ops + sizes.block_ops;
    for _ in 0..total {
        match rng.below(10) {
            0..=6 => {
                let attr = rng.below(HOT as u64) as usize;
                let q = term(&specs[attr], attr, &mut rng, 0.10, 0.60);
                stream.ops.push(Op::snapshot(
                    attr,
                    q.lo,
                    q.hi,
                    specs[attr].count_sum(q.lo, q.hi),
                ));
            }
            7..=8 => {
                // The driver term is narrow and on a unique-valued column;
                // every other term stays under 3% of the rows, so whichever
                // term the engine elects as driver fits its row-id cap.
                let driver_attr = hot_unique[rng.below(hot_unique.len() as u64) as usize];
                let driver = term(&specs[driver_attr], driver_attr, &mut rng, 0.0005, 0.002);
                let mut terms = vec![driver];
                for _ in 0..1 + rng.below(2) {
                    let attr = loop {
                        let a = rng.below(sizes.attrs as u64) as usize;
                        if terms.iter().all(|t| t.attr != a) {
                            break a;
                        }
                    };
                    terms.push(term(&specs[attr], attr, &mut rng, 0.005, 0.03));
                }
                let inv = inverse[driver_attr]
                    .as_ref()
                    .expect("driver is unique-valued");
                let count = (driver.lo.max(0)..driver.hi)
                    .filter(|v| v % 2 == 0)
                    .filter(|&v| {
                        let row = inv[(v / 2) as usize] as usize;
                        terms[1..]
                            .iter()
                            .all(|t| (t.lo..t.hi).contains(&columns[t.attr][row]))
                    })
                    .count() as u64;
                stream.push_conjunction(&terms, count);
            }
            _ => {
                // The cold unique-valued attributes in turn: with room for
                // one or two of them beside the hot set, a cyclic visit
                // never finds its attribute resident, so every one of these
                // is a re-materialisation — in every round, on every
                // machine. (Unique-valued only: a low-cardinality column
                // costs twice as much to rebuild, and with both kinds in
                // the mix `p95_us` sat between the two cost modes.)
                let attr = cold_unique[next_cold % cold_unique.len()];
                next_cold += 1;
                let q = term(&specs[attr], attr, &mut rng, 0.0005, 0.005);
                stream.ops.push(Op::range(
                    attr,
                    q.lo,
                    q.hi,
                    specs[attr].count_sum(q.lo, q.hi).0,
                ));
            }
        }
    }
    stream
}

pub fn new(cfg: &RunConfig) -> Direct {
    let sizes = Sizes::of(cfg.scale);
    let columns: Vec<Vec<i64>> = (0..sizes.attrs)
        .map(|a| {
            sizes
                .spec(a)
                .generate(&mut Rng::new(cfg.seed, 0xDA7A + a as u64))
        })
        .collect();
    let stream = generate(&sizes, cfg.seed, &columns);
    let base_bytes = sizes.attrs * sizes.rows * std::mem::size_of::<i64>();
    let mut engine_cfg = engine_config();
    engine_cfg.holistic.storage_budget = Some(base_bytes / 2);
    Direct {
        name: "analytic_budget",
        data: Dataset::new(columns),
        stream,
        engine_cfg,
        warmup_ops: sizes.warmup_ops,
        trace_sample_mask: 0,
        cold: false,
    }
}
