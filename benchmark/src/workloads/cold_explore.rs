//! `cold_explore` — the paper's headline (Fig 6a/9): an exploratory query
//! sequence over a table nobody has indexed yet.
//!
//! Each round builds a fresh `HolisticEngine` (that is all of `setup_s`
//! here: there is nothing to warm up) and runs the seed-generated sequence
//! from one client thread calling `QueryEngine::execute`; the other core is
//! the daemon's idle context. Attributes are Zipf-chosen, ranges alternate
//! between the Random and Skewed patterns, so the first queries on an
//! attribute pay the column copy and large cracks and later ones land in
//! small pieces.

use super::{engine_config, Direct};
use crate::data::{ColumnSpec, Shape};
use crate::ops::{Op, Stream};
use crate::rng::{Rng, Zipf};
use crate::runner::{RunConfig, Scale};
use holix_engine::api::Dataset;

/// Frozen sizes.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub attrs: usize,
    pub rows: usize,
    /// Queries per round.
    pub queries: usize,
}

impl Sizes {
    pub fn of(scale: Scale) -> Sizes {
        match scale {
            Scale::Tiny => Sizes {
                attrs: 8,
                rows: 1 << 15,
                queries: 4096,
            },
            Scale::Full => Sizes {
                attrs: 16,
                rows: 1 << 21,
                queries: 4096,
            },
        }
    }
}

/// The round's query sequence: Zipf attribute; half Random ranges (uniform
/// position, 0.01%–5% of the domain), half Skewed (80% of them inside the
/// hot fifth of the domain).
pub fn generate(sizes: &Sizes, seed: u64) -> Stream {
    let spec = ColumnSpec {
        rows: sizes.rows,
        shape: Shape::Uniform,
    };
    let domain = spec.domain();
    let mut rng = Rng::new(seed, 0xC01D);
    let zipf = Zipf::new(sizes.attrs);
    let hot_lo = rng.range(0, domain - domain / 5);
    let mut stream = Stream::default();
    for _ in 0..sizes.queries {
        let attr = zipf.sample(&mut rng);
        let width = rng.range(domain / 10_000, domain / 20).max(2);
        let lo = if rng.chance(0.5) && rng.chance(0.8) {
            rng.range(hot_lo, hot_lo + domain / 5 - width)
        } else {
            rng.range(0, domain - width)
        };
        let (count, _) = spec.count_sum(lo, lo + width);
        stream.ops.push(Op::range(attr, lo, lo + width, count));
    }
    stream
}

pub fn new(cfg: &RunConfig) -> Direct {
    let sizes = Sizes::of(cfg.scale);
    let spec = ColumnSpec {
        rows: sizes.rows,
        shape: Shape::Uniform,
    };
    let columns = (0..sizes.attrs)
        .map(|a| spec.generate(&mut Rng::new(cfg.seed, 0xDA7A + a as u64)))
        .collect();
    Direct {
        name: "cold_explore",
        data: Dataset::new(columns),
        stream: generate(&sizes, cfg.seed),
        engine_cfg: engine_config(),
        warmup_ops: 0,
        trace_sample_mask: 0,
        cold: true,
    }
}
