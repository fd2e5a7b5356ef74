//! Plan-time piece statistics — the cracker index *as a statistic*.
//!
//! Hippo and ByteStore (PAPERS.md) show that cheap, maintained summaries —
//! partial-index page summaries, per-column layout costs — are enough to
//! pick the fast access path online. The cracker index already *is* that
//! statistic: piece boundaries and sizes describe exactly how much work a
//! predicate will cause. This module packages a column's piece table into
//! an immutable [`PieceStats`] snapshot that `holix-planner` prices
//! queries against **without any column lock**: the column publishes a
//! fresh summary into a leaf-locked cell whenever its structure version
//! has drifted (amortised on the query path, forced once per daemon
//! cycle), and plan-time `estimate()` merely clones the `Arc` out.
//!
//! The boundary table is capped at [`MAX_STATS_BOUNDS`] entries by stride
//! sampling: positions are kept, so a "piece" seen through a sampled
//! summary is the union of up to `stride` live pieces — every size the
//! planner reads is a conservative **over**-estimate of the work, never an
//! under-estimate.

use holix_storage::types::CrackValue;

/// Boundary entries kept per published summary. Beyond this, the boundary
/// list is stride-sampled (sizes become conservative over-estimates).
pub const MAX_STATS_BOUNDS: usize = 1 << 12;

/// One published snapshot piece as the planner sees it: its upper boundary
/// key (`None` = the column-max edge), its tuple count, and whether its
/// segment is still plain (encoded pieces pay a bit-unpack per value when a
/// bound forces element-wise edge filtering — the decode-cost term).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapPieceStat<V> {
    /// Upper boundary key (`None` = column-max edge piece).
    pub hi_key: Option<V>,
    /// Tuples in the piece.
    pub len: usize,
    /// `true` when the backing segment is an uncompressed `Vec<V>`.
    pub plain: bool,
}

/// One shard's published plan-time summary. All fields describe the column
/// at publish time; staleness is bounded by the publish triggers (see
/// [`crate::CrackerColumn::maybe_publish_stats`]).
#[derive(Debug, Clone)]
pub struct PieceStats<V> {
    /// Merged tuples in the shard (excludes pending inserts).
    pub len: usize,
    /// Live piece count at publish time (pre-sampling — the real `p`).
    pub piece_count: usize,
    /// Sorted `(boundary key, position)` pairs, possibly stride-sampled.
    pub bounds: Vec<(V, usize)>,
    /// Pending-merge backlog (queued Ripple inserts + deletes).
    pub pending: usize,
    /// Published snapshot's piece table (`None` when no snapshot is
    /// published): the snapshot-staleness and decode-cost statistic.
    pub snap_pieces: Option<Vec<SnapPieceStat<V>>>,
}

impl<V: CrackValue> PieceStats<V> {
    /// The edge work a bound `v` causes on the locked path: `(piece_len,
    /// exact)` where `piece_len` is the size of the (possibly sampled)
    /// piece containing `v` — the values a crack would partition — and
    /// `exact` is `true` when `v` already is a boundary (zero crack work,
    /// the paper's `f_Ih` hit). Sentinels are always exact.
    pub fn edge(&self, v: V) -> (usize, bool) {
        if v == V::MIN_VALUE || v == V::MAX_VALUE {
            return (0, true);
        }
        let i = self.bounds.partition_point(|&(k, _)| k <= v);
        if i > 0 && self.bounds[i - 1].0 == v {
            return (0, true);
        }
        let start = if i == 0 { 0 } else { self.bounds[i - 1].1 };
        let end = if i < self.bounds.len() {
            self.bounds[i].1
        } else {
            self.len
        };
        (end.saturating_sub(start), false)
    }

    /// Conservative estimate of rows in `[lo, hi)`: the positional span
    /// between the pieces bracketing the bounds (includes the full edge
    /// pieces, so it over-estimates by at most the two edge sizes).
    pub fn range_rows(&self, lo: V, hi: V) -> u64 {
        // Degenerate predicates (`lo >= hi`, sentinel-valued or not) are
        // empty on every execution path, so the estimate must be exactly
        // zero — `[MIN, MIN)` used to fall through and report the first
        // piece's size.
        if lo >= hi {
            return 0;
        }
        let start = if lo == V::MIN_VALUE {
            0
        } else {
            let i = self.bounds.partition_point(|&(k, _)| k <= lo);
            if i == 0 {
                0
            } else {
                self.bounds[i - 1].1
            }
        };
        let end = if hi == V::MAX_VALUE {
            self.len
        } else {
            let j = self.bounds.partition_point(|&(k, _)| k < hi);
            if j < self.bounds.len() {
                self.bounds[j].1
            } else {
                self.len
            }
        };
        end.saturating_sub(start) as u64
    }

    /// Equi-depth cardinality estimate of rows in `[lo, hi)`: like
    /// [`PieceStats::range_rows`] but interpolating *within* the two edge
    /// pieces under a uniform-within-piece assumption — the boundary
    /// table is a free equi-depth sketch, piece sizes are its depths.
    /// Unlike `range_rows` this is a best-effort selectivity estimate,
    /// not a conservative bound; the planner uses it for driver-term
    /// election and admission pricing, never for safety decisions. Edge
    /// pieces whose outer key is unknown (the column-edge pieces) fall
    /// back to the conservative full-piece span.
    pub fn estimated_rows(&self, lo: V, hi: V) -> u64 {
        if lo >= hi {
            return 0;
        }
        let est = self.interpolated_pos(hi, false) - self.interpolated_pos(lo, true);
        est.max(0.0).round() as u64
    }

    /// The interpolated position of `v` in cracked-position space:
    /// boundary keys map to their exact position, interior values to a
    /// linear interpolation across their piece's key range. `low_side`
    /// picks the conservative fallback edge (piece start for a lower
    /// bound, piece end for an upper bound) when the piece has no known
    /// outer key to interpolate against.
    fn interpolated_pos(&self, v: V, low_side: bool) -> f64 {
        if v == V::MIN_VALUE {
            return 0.0;
        }
        if v == V::MAX_VALUE {
            return self.len as f64;
        }
        let i = self.bounds.partition_point(|&(k, _)| k <= v);
        if i > 0 && self.bounds[i - 1].0 == v {
            return self.bounds[i - 1].1 as f64;
        }
        let (a_key, start) = if i == 0 {
            (None, 0)
        } else {
            (Some(self.bounds[i - 1].0), self.bounds[i - 1].1)
        };
        let (b_key, end) = if i < self.bounds.len() {
            (Some(self.bounds[i].0), self.bounds[i].1)
        } else {
            (None, self.len)
        };
        match (a_key, b_key) {
            (Some(a), Some(b)) if b > a => {
                let num = (v.as_i64() as i128 - a.as_i64() as i128) as f64;
                let den = (b.as_i64() as i128 - a.as_i64() as i128) as f64;
                start as f64 + (end - start) as f64 * (num / den).clamp(0.0, 1.0)
            }
            // Column-edge piece with an unknown outer key: no basis to
            // interpolate — degrade to the `range_rows` full-piece span.
            _ if low_side => start as f64,
            _ => end as f64,
        }
    }

    /// The edge-filter work a snapshot scan of `[lo, hi)` would pay: the
    /// summed sizes of the snapshot pieces containing the two bounds
    /// (interior pieces answer O(1) from their aggregates). `None` when no
    /// snapshot is published — the first reader would pay the O(N) build.
    pub fn snapshot_edge_filter(&self, lo: V, hi: V) -> Option<usize> {
        let pieces = self.snap_pieces.as_ref()?;
        let mut cost = 0usize;
        for v in [lo, hi] {
            if let Some(p) = Self::edge_piece(pieces, v) {
                cost += p.len;
            }
        }
        Some(cost)
    }

    /// The edge-filter rows of a `[lo, hi)` snapshot scan that additionally
    /// pay a per-value bit-unpack because their piece is *encoded* (FOR /
    /// delta / RLE). A subset of [`PieceStats::snapshot_edge_filter`]:
    /// plain edge pieces filter at memcmp speed and cost nothing here.
    /// `None` when no snapshot is published.
    pub fn snapshot_edge_decode(&self, lo: V, hi: V) -> Option<u64> {
        let pieces = self.snap_pieces.as_ref()?;
        let mut cost = 0u64;
        for v in [lo, hi] {
            if let Some(p) = Self::edge_piece(pieces, v) {
                if !p.plain {
                    cost += p.len as u64;
                }
            }
        }
        Some(cost)
    }

    /// The snapshot piece a non-sentinel bound `v` falls *inside* (element-
    /// wise edge filtering) — `None` when `v` is a sentinel, an exact
    /// snapshot boundary, or past the last piece.
    fn edge_piece(pieces: &[SnapPieceStat<V>], v: V) -> Option<&SnapPieceStat<V>> {
        if v == V::MIN_VALUE || v == V::MAX_VALUE {
            return None; // sentinel: the edge piece is fully covered
        }
        let i = pieces.partition_point(|p| p.hi_key.is_some_and(|k| k <= v));
        // Exact snapshot boundary: no filtering on this edge.
        if i > 0 && pieces[i - 1].hi_key == Some(v) {
            return None;
        }
        pieces.get(i)
    }

    /// Snapshot staleness: live pieces per snapshot piece (1.0 = fresh,
    /// large = the snapshot piece table lags the live index). `None` when
    /// no snapshot is published.
    pub fn snapshot_staleness(&self) -> Option<f64> {
        let pieces = self.snap_pieces.as_ref()?;
        Some(self.piece_count as f64 / pieces.len().max(1) as f64)
    }
}

/// Builds the published summary from a raw boundary table, stride-sampling
/// past the cap (crate-internal: `CrackerColumn::publish_stats` calls it
/// under the index read lock).
pub(crate) fn build_stats<V: CrackValue>(
    len: usize,
    bounds: Vec<(V, usize)>,
    pending: usize,
    snap_pieces: Option<Vec<SnapPieceStat<V>>>,
) -> PieceStats<V> {
    let piece_count = bounds.len() + 1;
    let bounds = if bounds.len() > MAX_STATS_BOUNDS {
        let stride = bounds.len().div_ceil(MAX_STATS_BOUNDS);
        bounds.into_iter().step_by(stride).collect()
    } else {
        bounds
    };
    PieceStats {
        len,
        piece_count,
        bounds,
        pending,
        snap_pieces,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(hi_key: Option<i64>, len: usize, plain: bool) -> SnapPieceStat<i64> {
        SnapPieceStat { hi_key, len, plain }
    }

    fn stats(
        len: usize,
        bounds: Vec<(i64, usize)>,
        snap: Option<Vec<SnapPieceStat<i64>>>,
    ) -> PieceStats<i64> {
        build_stats(len, bounds, 0, snap)
    }

    #[test]
    fn edge_sizes_and_exact_hits() {
        // Pieces: [min,10)@[0,25), [10,20)@[25,60), [20,max)@[60,100).
        let s = stats(100, vec![(10, 25), (20, 60)], None);
        assert_eq!(s.piece_count, 3);
        assert_eq!(s.edge(5), (25, false));
        assert_eq!(s.edge(10), (0, true));
        assert_eq!(s.edge(15), (35, false));
        assert_eq!(s.edge(20), (0, true));
        assert_eq!(s.edge(25), (40, false));
        assert_eq!(s.edge(i64::MIN), (0, true));
        assert_eq!(s.edge(i64::MAX), (0, true));
    }

    #[test]
    fn range_rows_spans_bracketing_pieces() {
        let s = stats(100, vec![(10, 25), (20, 60)], None);
        assert_eq!(s.range_rows(10, 20), 35); // exact piece
        assert_eq!(s.range_rows(5, 15), 60); // both edges included
        assert_eq!(s.range_rows(i64::MIN, i64::MAX), 100);
        assert_eq!(s.range_rows(12, 12), 0);
        assert_eq!(s.range_rows(25, i64::MAX), 40);
    }

    #[test]
    fn estimated_rows_interpolates_within_edge_pieces() {
        // Pieces: [min,10)@[0,25), [10,20)@[25,60), [20,max)@[60,100).
        let s = stats(100, vec![(10, 25), (20, 60)], None);
        // Exact boundaries reproduce the positional span.
        assert_eq!(s.estimated_rows(10, 20), 35);
        assert_eq!(s.estimated_rows(i64::MIN, i64::MAX), 100);
        // Interior bound: half the keys of [10,20) → half its depth.
        let half = s.estimated_rows(10, 15);
        assert!((17..=18).contains(&half), "est {half}");
        assert!(half < s.range_rows(10, 15), "estimate must beat the span");
        // Unknown-key column-edge piece: conservative full-span fallback.
        let edged = s.estimated_rows(5, 15);
        assert!((42..=43).contains(&edged), "est {edged}");
        // Degenerate predicates estimate zero.
        assert_eq!(s.estimated_rows(15, 5), 0);
        assert_eq!(s.estimated_rows(i64::MIN, i64::MIN), 0);
    }

    #[test]
    fn degenerate_ranges_estimate_zero_rows() {
        // Regression: the old guard excepted sentinel-valued bounds, so
        // `[MIN, MIN)` — an empty predicate on every execution path —
        // reported the first piece's size.
        let s = stats(100, vec![(10, 25), (20, 60)], None);
        assert_eq!(s.range_rows(i64::MIN, i64::MIN), 0);
        assert_eq!(s.range_rows(i64::MAX, i64::MAX), 0);
        assert_eq!(s.range_rows(15, 5), 0);
        assert_eq!(s.range_rows(i64::MAX, i64::MIN), 0);
    }

    #[test]
    fn snapshot_edge_filter_counts_only_edge_pieces() {
        let snap = vec![
            sp(Some(10), 30, true),
            sp(Some(20), 40, true),
            sp(None, 30, true),
        ];
        let s = stats(100, vec![(10, 30), (20, 70)], Some(snap));
        // Exact snapshot boundaries: no filtering.
        assert_eq!(s.snapshot_edge_filter(10, 20), Some(0));
        // Interior bounds: both edge pieces filtered.
        assert_eq!(s.snapshot_edge_filter(5, 15), Some(70));
        // Sentinels cover their edge.
        assert_eq!(s.snapshot_edge_filter(i64::MIN, 15), Some(40));
        assert_eq!(stats(100, vec![], None).snapshot_edge_filter(0, 1), None);
    }

    #[test]
    fn snapshot_edge_decode_counts_only_encoded_edge_pieces() {
        // Middle piece encoded, neighbours plain.
        let snap = vec![
            sp(Some(10), 30, true),
            sp(Some(20), 40, false),
            sp(None, 30, true),
        ];
        let s = stats(100, vec![(10, 30), (20, 70)], Some(snap));
        // Both bounds filter, but only the encoded middle piece decodes.
        assert_eq!(s.snapshot_edge_filter(5, 15), Some(70));
        assert_eq!(s.snapshot_edge_decode(5, 15), Some(40));
        // Exact snapshot boundaries never decode.
        assert_eq!(s.snapshot_edge_decode(10, 20), Some(0));
        // Sentinel bound covers its edge: only the hi edge decodes.
        assert_eq!(s.snapshot_edge_decode(i64::MIN, 15), Some(40));
        assert_eq!(s.snapshot_edge_decode(5, 25), Some(0));
        assert_eq!(stats(100, vec![], None).snapshot_edge_decode(0, 1), None);
    }

    #[test]
    fn sampling_keeps_sizes_conservative() {
        let n = 3 * MAX_STATS_BOUNDS;
        let bounds: Vec<(i64, usize)> = (1..=n).map(|i| (i as i64, i)).collect();
        let s = stats(n + 1, bounds, None);
        assert_eq!(s.piece_count, n + 1);
        assert!(s.bounds.len() <= MAX_STATS_BOUNDS);
        // Key 3 (live piece size 1) is dropped by the stride-3 sample: the
        // sampled "piece" containing it spans the whole stride — a
        // conservative over-estimate, never an under-estimate.
        assert!(!s.bounds.iter().any(|&(k, _)| k == 3), "stride kept key 3");
        let (size, exact) = s.edge(3);
        assert!(!exact);
        assert!(size >= 1, "sampled sizes must never under-estimate");
        assert!(s.snapshot_staleness().is_none());
    }
}
