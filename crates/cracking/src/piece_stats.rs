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
//!
//! Reading is one lookup per table per predicate bound: [`PieceStats::locate`]
//! answers exact-hit, crack size and interpolated position from a single
//! binary search of the boundary table, [`PieceStats::snapshot_edge`] the
//! filter and decode rows from a single one of the snapshot piece table —
//! a summary earns its keep only while consulting it stays far cheaper
//! than the access it steers (Hippo).

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

/// Where one predicate bound sits in a published boundary table
/// ([`PieceStats::locate`]). An exact bound has `start == end == pos`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Located {
    /// The bound already is a piece boundary, or a sentinel: zero crack
    /// work (the paper's `f_Ih` hit).
    pub exact: bool,
    /// Start of the (possibly sampled) piece containing the bound.
    pub start: usize,
    /// End of that piece: `end - start` values are what a crack at the
    /// bound would partition.
    pub end: usize,
    /// Position of the bound in cracked-position space, reading the
    /// boundary table as a free equi-depth sketch: interpolated linearly
    /// across the piece's key range, or the conservative piece edge (start
    /// for a lower bound, end for an upper one) when a column-edge piece
    /// has no outer key. Best-effort selectivity, never a safety bound.
    pub pos: f64,
}

impl<V: CrackValue> PieceStats<V> {
    /// Everything the planner reads about a bound `v`, from one binary
    /// search of the boundary table. `low_side` says which end of a
    /// predicate `v` is (it only picks the fallback edge of `pos`).
    pub fn locate(&self, v: V, low_side: bool) -> Located {
        let boundary = |p: usize| Located {
            exact: true,
            start: p,
            end: p,
            pos: p as f64,
        };
        if v == V::MIN_VALUE {
            return boundary(0);
        }
        if v == V::MAX_VALUE {
            return boundary(self.len);
        }
        let i = self.bounds.partition_point(|&(k, _)| k <= v);
        let below = i.checked_sub(1).map(|i| self.bounds[i]);
        let above = self.bounds.get(i).copied();
        if let Some((_, p)) = below.filter(|&(k, _)| k == v) {
            return boundary(p);
        }
        let start = below.map_or(0, |(_, p)| p);
        let end = above.map_or(self.len, |(_, p)| p).max(start);
        let pos = match (below, above) {
            (Some((a, _)), Some((b, _))) if b > a => {
                let num = (v.as_i64() as i128 - a.as_i64() as i128) as f64;
                let den = (b.as_i64() as i128 - a.as_i64() as i128) as f64;
                start as f64 + (end - start) as f64 * (num / den).clamp(0.0, 1.0)
            }
            _ if low_side => start as f64,
            _ => end as f64,
        };
        Located {
            exact: false,
            start,
            end,
            pos,
        }
    }

    /// What a snapshot scan pays at a bound `v`, from one binary search of
    /// the snapshot piece table: `(filter, decode)` — the rows of the
    /// snapshot piece `v` falls *inside* (filtered element-wise; interior
    /// pieces answer O(1) from their aggregates), and how many of those
    /// sit in an *encoded* piece and pay a bit-unpack on top (plain pieces
    /// filter at memcmp speed). Both zero when `v` is a sentinel, an exact
    /// snapshot boundary, or past the last piece. `None` when no snapshot
    /// is published — the first reader would pay the O(N) build.
    pub fn snapshot_edge(&self, v: V) -> Option<(u64, u64)> {
        let pieces = self.snap_pieces.as_ref()?;
        if v == V::MIN_VALUE || v == V::MAX_VALUE {
            return Some((0, 0));
        }
        let i = pieces.partition_point(|p| p.hi_key.is_some_and(|k| k <= v));
        if i > 0 && pieces[i - 1].hi_key == Some(v) {
            return Some((0, 0));
        }
        Some(pieces.get(i).map_or((0, 0), |p| {
            let rows = p.len as u64;
            (rows, if p.plain { 0 } else { rows })
        }))
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

    /// `(values a crack at v partitions, exact?)`.
    fn edge(s: &PieceStats<i64>, v: i64) -> (usize, bool) {
        let l = s.locate(v, true);
        (l.end - l.start, l.exact)
    }

    /// Conservative positional span between the pieces bracketing `[lo, hi)`.
    fn span(s: &PieceStats<i64>, lo: i64, hi: i64) -> usize {
        s.locate(hi, false).end - s.locate(lo, true).start
    }

    /// Equi-depth row estimate of `[lo, hi)`, as the planner forms it.
    fn rows(s: &PieceStats<i64>, lo: i64, hi: i64) -> u64 {
        let est = s.locate(hi, false).pos - s.locate(lo, true).pos;
        est.max(0.0).round() as u64
    }

    /// `(filter, decode)` rows of a `[lo, hi)` snapshot scan, both edges.
    fn snap_edges(s: &PieceStats<i64>, lo: i64, hi: i64) -> Option<(u64, u64)> {
        let (l, h) = s.snapshot_edge(lo).zip(s.snapshot_edge(hi))?;
        Some((l.0 + h.0, l.1 + h.1))
    }

    #[test]
    fn edge_sizes_and_exact_hits() {
        // Pieces: [min,10)@[0,25), [10,20)@[25,60), [20,max)@[60,100).
        let s = stats(100, vec![(10, 25), (20, 60)], None);
        assert_eq!(s.piece_count, 3);
        assert_eq!(edge(&s, 5), (25, false));
        assert_eq!(edge(&s, 10), (0, true));
        assert_eq!(edge(&s, 15), (35, false));
        assert_eq!(edge(&s, 20), (0, true));
        assert_eq!(edge(&s, 25), (40, false));
        assert_eq!(edge(&s, i64::MIN), (0, true));
        assert_eq!(edge(&s, i64::MAX), (0, true));
    }

    #[test]
    fn located_span_covers_the_bracketing_pieces() {
        let s = stats(100, vec![(10, 25), (20, 60)], None);
        assert_eq!(span(&s, 10, 20), 35); // exact piece
        assert_eq!(span(&s, 5, 15), 60); // both edges included
        assert_eq!(span(&s, i64::MIN, i64::MAX), 100);
        assert_eq!(span(&s, 25, i64::MAX), 40);
    }

    #[test]
    fn located_position_interpolates_within_edge_pieces() {
        // Pieces: [min,10)@[0,25), [10,20)@[25,60), [20,max)@[60,100).
        let s = stats(100, vec![(10, 25), (20, 60)], None);
        // Exact boundaries reproduce the positional span.
        assert_eq!(rows(&s, 10, 20), 35);
        assert_eq!(rows(&s, i64::MIN, i64::MAX), 100);
        // Interior bound: half the keys of [10,20) → half its depth.
        let half = rows(&s, 10, 15);
        assert!((17..=18).contains(&half), "est {half}");
        assert!(
            half < span(&s, 10, 15) as u64,
            "estimate must beat the span"
        );
        // Unknown-key column-edge piece: conservative full-span fallback.
        let edged = rows(&s, 5, 15);
        assert!((42..=43).contains(&edged), "est {edged}");
        // Degenerate predicates estimate zero.
        assert_eq!(rows(&s, 15, 5), 0);
        assert_eq!(rows(&s, i64::MIN, i64::MIN), 0);
    }

    #[test]
    fn snapshot_edges_filter_only_the_pieces_a_bound_falls_inside() {
        let snap = vec![
            sp(Some(10), 30, true),
            sp(Some(20), 40, true),
            sp(None, 30, true),
        ];
        let s = stats(100, vec![(10, 30), (20, 70)], Some(snap));
        // Exact snapshot boundaries: no filtering.
        assert_eq!(snap_edges(&s, 10, 20), Some((0, 0)));
        // Interior bounds: both edge pieces filtered.
        assert_eq!(snap_edges(&s, 5, 15), Some((70, 0)));
        // Sentinels cover their edge.
        assert_eq!(snap_edges(&s, i64::MIN, 15), Some((40, 0)));
        assert_eq!(snap_edges(&stats(100, vec![], None), 0, 1), None);
    }

    #[test]
    fn snapshot_edges_decode_only_encoded_pieces() {
        // Middle piece encoded, neighbours plain.
        let snap = vec![
            sp(Some(10), 30, true),
            sp(Some(20), 40, false),
            sp(None, 30, true),
        ];
        let s = stats(100, vec![(10, 30), (20, 70)], Some(snap));
        // Both bounds filter, but only the encoded middle piece decodes.
        assert_eq!(snap_edges(&s, 5, 15), Some((70, 40)));
        // Exact snapshot boundaries never decode.
        assert_eq!(snap_edges(&s, 10, 20), Some((0, 0)));
        // Sentinel bound covers its edge: only the hi edge decodes.
        assert_eq!(snap_edges(&s, i64::MIN, 15), Some((40, 40)));
        assert_eq!(snap_edges(&s, 5, 25).map(|e| e.1), Some(0));
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
        let (size, exact) = edge(&s, 3);
        assert!(!exact);
        assert!(size >= 1, "sampled sizes must never under-estimate");
        assert!(s.snapshot_edge(3).is_none());
    }
}
