//! The four index-decision strategies of §4.2.
//!
//! Every index `I` carries a weight `W_I`; the index space refines the
//! highest-weight index in `C_actual` first (strategies W1–W3) or picks
//! uniformly at random (W4). The paper's evaluation (§5.4, Fig 13) finds W4
//! robust across workloads, which is why it is the library default.

/// Index-decision strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// `W_I = d(I, I_opt)` — prioritise large partitions.
    W1Distance,
    /// `W_I = f_I · d` — large partitions on frequently accessed indices.
    W2FrequencyDistance,
    /// `W_I = (f_I − f_Ih) · d` — frequency discounted by exact hits.
    W3MissDistance,
    /// Uniformly random choice.
    #[default]
    W4Random,
}

impl Strategy {
    /// All strategies (for parameter sweeps like Fig 13).
    pub const ALL: [Strategy; 4] = [
        Strategy::W1Distance,
        Strategy::W2FrequencyDistance,
        Strategy::W3MissDistance,
        Strategy::W4Random,
    ];

    /// Short label used in benchmark output ("W1".."W4").
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::W1Distance => "W1",
            Strategy::W2FrequencyDistance => "W2",
            Strategy::W3MissDistance => "W3",
            Strategy::W4Random => "W4",
        }
    }

    /// Computes `W_I` from the distance `d` (Equation 1) and the workload
    /// counters `f_I` / `f_Ih`.
    ///
    /// W2/W3 multiply by at least 1 so that a never-queried index with large
    /// pieces still competes (its initial weight, `N − L1s`, must not be
    /// wiped out before the first query, per the initialisation rule of
    /// §4.2).
    pub fn weight(&self, distance: u64, queries: u64, exact_hits: u64) -> u128 {
        let d = distance as u128;
        match self {
            Strategy::W1Distance => d,
            Strategy::W2FrequencyDistance => d * (queries.max(1) as u128),
            Strategy::W3MissDistance => d * (queries.saturating_sub(exact_hits).max(1) as u128),
            Strategy::W4Random => d, // `pick` draws uniformly and never weighs W4
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(Strategy::W1Distance.label(), "W1");
        assert_eq!(Strategy::W4Random.to_string(), "W4");
        assert_eq!(Strategy::ALL.len(), 4);
    }

    #[test]
    fn weights_follow_definitions() {
        assert_eq!(Strategy::W1Distance.weight(100, 7, 3), 100);
        assert_eq!(Strategy::W2FrequencyDistance.weight(100, 7, 3), 700);
        assert_eq!(Strategy::W3MissDistance.weight(100, 7, 3), 400);
        // Unqueried index keeps its initial distance weight under W2/W3.
        assert_eq!(Strategy::W2FrequencyDistance.weight(100, 0, 0), 100);
        assert_eq!(Strategy::W3MissDistance.weight(100, 5, 5), 100);
    }

    #[test]
    fn zero_distance_means_zero_weight() {
        for s in Strategy::ALL {
            assert_eq!(s.weight(0, 10, 2), 0, "{s}");
        }
    }
}
