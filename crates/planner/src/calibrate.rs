//! Online cost-model calibration: regress observed service time against
//! the [`PlanCost`] the query was priced at, and nudge the model's
//! constants inside guard rails.
//!
//! The seeded [`CostModel`] constants encode a nominal machine (~25 ns
//! per touched value). Real hardware diverges — a faster cache raises
//! the touched-value budget a "cheap" query can afford; a slow Ripple
//! merge path raises the weight a pending update deserves. The
//! calibrator learns two rates by exponentially weighted moving average:
//!
//! - **alpha** — ns per touched value, sampled from backlog-free
//!   `Locked` executions (`service / (crack_values + est_rows)`),
//! - **beta** — ns per pending Ripple op, sampled from `Locked`
//!   executions that merge a queue past the backlog (priced with a
//!   nonzero `merge_backlog`) after subtracting the alpha-predicted value
//!   work,
//!
//! and re-derives the knobs every [`Calibrator::REPUBLISH_EVERY`]
//! observations: `merge_weight ← beta/alpha` (the model's unit *is*
//! alpha), `cheap_budget ← TARGET_CHEAP_NS/alpha`. Every derived knob is clamped to
//! `[seed/4, seed*4]` so a burst of anomalous timings (page faults, CPU
//! migration) can never swing the cheap line by more than 4x from the
//! reviewed constants.
//!
//! Readers take a `Copy` of the whole model ([`Calibrator::model`]), so
//! a query prices itself against one consistent constant set even while
//! the calibrator republishes.

use std::sync::{Mutex, RwLock};

use crate::cost::{CostModel, PlanCost, Route};

/// EWMA smoothing factor: ~the last 20 samples dominate.
const EWMA_ALPHA: f64 = 0.1;

/// Target wall time for the cheap line. At the nominal 25 ns/value this
/// reproduces the seeded `cheap_budget` of 4096.
const TARGET_CHEAP_NS: f64 = 102_400.0;

/// Which channel a predicted-vs-actual residual is folded into: the
/// executed route, with point-filter screens split out (their near-zero
/// cost would mask a drifting locked channel).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResidualChannel {
    /// Locked crack path (non-screened).
    Locked,
    /// Snapshot path (prefix sums and edge filters).
    Snapshot,
    /// Answered by a point-filter screen.
    Screened,
}

impl ResidualChannel {
    fn of(cost: &PlanCost, route: Route) -> Self {
        if cost.screened {
            ResidualChannel::Screened
        } else {
            match route {
                Route::Locked => ResidualChannel::Locked,
                Route::Snapshot => ResidualChannel::Snapshot,
            }
        }
    }
}

#[derive(Debug, Default)]
struct CalState {
    /// EWMA ns per touched value on the locked path (0 until seeded).
    ns_per_value: f64,
    /// EWMA ns per pending Ripple op (0 until seeded).
    ns_per_merge: f64,
    /// Per-channel EWMA of `|predicted − actual| / actual` (calibrator
    /// health: → 0 as the rails adjust to the machine).
    residuals: [f64; 3],
    /// Whether each residual channel has folded a sample yet (a residual
    /// of exactly 0 is a valid — perfect — sample, so "unseeded" cannot
    /// be encoded as 0 the way the rate channels do).
    residual_seeded: [bool; 3],
    observations: u64,
}

fn ewma(slot: &mut f64, sample: f64) {
    if !sample.is_finite() || sample <= 0.0 {
        return;
    }
    *slot = if *slot == 0.0 {
        sample
    } else {
        *slot * (1.0 - EWMA_ALPHA) + sample * EWMA_ALPHA
    };
}

/// Clamp a derived knob to the guard rails around its seeded value.
fn rail(derived: f64, seed: u64) -> u64 {
    let lo = (seed / 4).max(1);
    let hi = seed.saturating_mul(4);
    if !derived.is_finite() {
        return seed;
    }
    (derived.round() as u64).clamp(lo, hi)
}

/// Online regressor from `(PlanCost, Route, service_ns)` observations to
/// a republished [`CostModel`]. Shared by value behind an `Arc`: the
/// dispatcher observes after each execution, and every pricing site reads
/// [`Calibrator::model`] before its decision.
#[derive(Debug)]
pub struct Calibrator {
    seed: CostModel,
    model: RwLock<CostModel>,
    state: Mutex<CalState>,
}

impl Calibrator {
    /// Derived knobs are recomputed and republished every this many
    /// observations — cheap enough to keep pricing reads lock-light
    /// while still tracking a drifting machine within a few batches.
    pub const REPUBLISH_EVERY: u64 = 16;

    pub fn new(seed: CostModel) -> Self {
        Calibrator {
            seed,
            model: RwLock::new(seed),
            state: Mutex::new(CalState::default()),
        }
    }

    /// The currently published model (a `Copy` — consistent for the
    /// whole pricing of one query).
    pub fn model(&self) -> CostModel {
        *self.model.read().unwrap()
    }

    /// The reviewed constants the guard rails are anchored to.
    pub fn seed(&self) -> CostModel {
        self.seed
    }

    /// Total observations folded in so far.
    pub fn observations(&self) -> u64 {
        self.state.lock().unwrap().observations
    }

    /// EWMA of `|predicted − actual| / actual` for one residual channel
    /// (0 until that channel has observed anything). Converges toward 0
    /// as calibration pulls the published model onto the machine.
    pub fn residual(&self, channel: ResidualChannel) -> f64 {
        let st = self.state.lock().unwrap();
        st.residuals[channel as usize]
    }

    /// Predicted service time (ns) for `cost` on `route` under the
    /// current calibration state — the same prediction the residual
    /// channels grade, exposed so per-query trace records can carry
    /// predicted-vs-actual.
    pub fn predicted_ns(&self, cost: &PlanCost, route: Route) -> u64 {
        let st = self.state.lock().unwrap();
        self.predict_ns(&st, cost, route) as u64
    }

    /// Predicted service time (ns) for `cost` on `route` under the
    /// currently published model: cost units × the calibrated value rate
    /// (or the seed-implied nominal rate until alpha is seeded).
    fn predict_ns(&self, st: &CalState, cost: &PlanCost, route: Route) -> f64 {
        let model = *self.model.read().unwrap();
        let units = match route {
            Route::Locked => cost.locked_cost(&model).saturating_add(cost.est_rows),
            Route::Snapshot => cost.crack_values.saturating_add(
                model
                    .snapshot_fixed
                    .saturating_mul(cost.shards_touched as u64),
            ),
        };
        let rate = if st.ns_per_value > 0.0 {
            st.ns_per_value
        } else {
            TARGET_CHEAP_NS / self.seed.cheap_budget.max(1) as f64
        };
        units.max(1) as f64 * rate
    }

    /// Folds one finished execution into the per-channel residual EWMAs
    /// and mirrors the calibrator channels into the telemetry registry.
    fn fold_residual(&self, st: &mut CalState, cost: &PlanCost, route: Route, actual_ns: f64) {
        let channel = ResidualChannel::of(cost, route);
        let rel = (self.predict_ns(st, cost, route) - actual_ns).abs() / actual_ns;
        let slot = &mut st.residuals[channel as usize];
        if st.residual_seeded[channel as usize] {
            *slot = *slot * (1.0 - EWMA_ALPHA) + rel * EWMA_ALPHA;
        } else {
            *slot = rel;
            st.residual_seeded[channel as usize] = true;
        }
        if holix_telemetry::metrics_enabled() {
            holix_telemetry::counter!("planner_observations_total").inc();
            holix_telemetry::float_gauge!("planner_ns_per_value").set(st.ns_per_value);
            holix_telemetry::float_gauge!("planner_ns_per_merge").set(st.ns_per_merge);
            let g = match channel {
                ResidualChannel::Locked => {
                    holix_telemetry::float_gauge!("planner_calibration_residual{route=\"locked\"}")
                }
                ResidualChannel::Snapshot => holix_telemetry::float_gauge!(
                    "planner_calibration_residual{route=\"snapshot\"}"
                ),
                ResidualChannel::Screened => holix_telemetry::float_gauge!(
                    "planner_calibration_residual{route=\"screened\"}"
                ),
            };
            g.set(*slot);
        }
    }

    /// Folds one finished execution into the regression. `cost` is the
    /// plan-time price the query was executed under, `route` the path it
    /// actually took, `service_ns` its measured service time.
    pub fn observe(&self, cost: &PlanCost, route: Route, service_ns: u64) {
        let mut st = self.state.lock().unwrap();
        let ns = service_ns.max(1) as f64;
        self.fold_residual(&mut st, cost, route, ns);
        if route == Route::Locked && !cost.screened {
            let values = cost.crack_values.saturating_add(cost.est_rows).max(1) as f64;
            if cost.merge_backlog == 0 {
                ewma(&mut st.ns_per_value, ns / values);
            } else if st.ns_per_value > 0.0 {
                let merge_ns = (ns - st.ns_per_value * values).max(0.0);
                ewma(&mut st.ns_per_merge, merge_ns / cost.merge_backlog as f64);
            }
        }
        st.observations += 1;
        if st.observations.is_multiple_of(Self::REPUBLISH_EVERY) {
            let next = self.derive(&st);
            drop(st);
            *self.model.write().unwrap() = next;
            if holix_telemetry::metrics_enabled() {
                holix_telemetry::counter!("planner_republish_total").inc();
                holix_telemetry::gauge!("planner_cheap_budget").set(next.cheap_budget as i64);
                holix_telemetry::gauge!("planner_merge_weight").set(next.merge_weight as i64);
            }
        }
    }

    fn derive(&self, st: &CalState) -> CostModel {
        let mut m = self.seed;
        if st.ns_per_value > 0.0 {
            m.cheap_budget = rail(TARGET_CHEAP_NS / st.ns_per_value, self.seed.cheap_budget);
            if st.ns_per_merge > 0.0 {
                m.merge_weight = rail(st.ns_per_merge / st.ns_per_value, self.seed.merge_weight);
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::QueryPrice;

    fn locked_cost(crack_values: u64, merge_backlog: u64) -> PlanCost {
        PlanCost {
            crack_values,
            merge_backlog,
            shards_touched: 1,
            ..PlanCost::default()
        }
    }

    /// The acceptance-gate decision flip: a query priced `Expensive`
    /// under the seeded constants becomes `Cheap` once observed timings
    /// show the machine is much faster than the nominal 25 ns/value.
    #[test]
    fn fast_hardware_flips_an_admission_decision() {
        let cal = Calibrator::new(CostModel::default());
        let seed = cal.seed();
        let cost = locked_cost(3 * seed.cheap_budget, 0);
        assert_eq!(
            cost.price(&cal.model()),
            QueryPrice::Expensive,
            "seeded constants price this crack Expensive"
        );
        // Observed: 1 ns per touched value — 25x faster than nominal.
        for _ in 0..4 * Calibrator::REPUBLISH_EVERY {
            cal.observe(&cost, Route::Locked, cost.crack_values);
        }
        let m = cal.model();
        assert_eq!(
            m.cheap_budget,
            seed.cheap_budget * 4,
            "budget rails at 4x the seed"
        );
        assert_eq!(
            cost.price(&m),
            QueryPrice::Cheap,
            "the same plan is now Cheap"
        );
    }

    #[test]
    fn merge_weight_tracks_observed_ripple_cost() {
        let cal = Calibrator::new(CostModel::default());
        // Seed alpha at 10 ns/value with backlog-free observations.
        let clean = locked_cost(1_000, 0);
        for _ in 0..Calibrator::REPUBLISH_EVERY {
            cal.observe(&clean, Route::Locked, clean.crack_values * 10);
        }
        // Backlogged runs where each pending op costs ~200 ns → 20 values.
        let backlogged = locked_cost(1_000, 500);
        let ns = 1_000 * 10 + 500 * 200;
        for _ in 0..4 * Calibrator::REPUBLISH_EVERY {
            cal.observe(&backlogged, Route::Locked, ns);
        }
        let m = cal.model();
        assert!(
            (15..=25).contains(&m.merge_weight),
            "merge_weight {} should converge near 20",
            m.merge_weight
        );
    }

    /// Calibrator-health acceptance: a deliberately mis-seeded model
    /// starts with a large predicted-vs-actual residual, and the residual
    /// converges toward zero as calibration pulls the published model
    /// onto the machine.
    #[test]
    fn mis_seeded_model_residual_converges_toward_zero() {
        // cheap_budget mis-seeded 16x low → the seed-implied nominal rate
        // (TARGET_CHEAP_NS / cheap_budget) claims 400 ns per value; the
        // machine below actually runs at 25 ns per value.
        let seed = CostModel {
            cheap_budget: 256,
            ..CostModel::default()
        };
        let cal = Calibrator::new(seed);
        let cost = locked_cost(10_000, 0);
        cal.observe(&cost, Route::Locked, cost.crack_values * 25);
        let initial = cal.residual(ResidualChannel::Locked);
        assert!(
            initial > 1.0,
            "mis-seed must show as a large residual, got {initial}"
        );
        for _ in 0..8 * Calibrator::REPUBLISH_EVERY {
            cal.observe(&cost, Route::Locked, cost.crack_values * 25);
        }
        let settled = cal.residual(ResidualChannel::Locked);
        assert!(
            settled < 0.05,
            "residual must converge toward zero, got {settled}"
        );
        assert!(
            settled < initial / 10.0,
            "no convergence: {initial} → {settled}"
        );
        // Untouched channels stay at their unseeded zero.
        assert_eq!(cal.residual(ResidualChannel::Snapshot), 0.0);
        assert_eq!(cal.residual(ResidualChannel::Screened), 0.0);
    }

    #[test]
    fn knobs_never_leave_the_guard_rails() {
        let seed = CostModel::default();
        for (per_value_ns, label) in [(1u64, "fast"), (100_000, "slow")] {
            let cal = Calibrator::new(seed);
            let cost = locked_cost(4_096, 0);
            for _ in 0..8 * Calibrator::REPUBLISH_EVERY {
                cal.observe(&cost, Route::Locked, cost.crack_values * per_value_ns);
            }
            let m = cal.model();
            for (got, seeded) in [
                (m.merge_weight, seed.merge_weight),
                (m.cheap_budget, seed.cheap_budget),
            ] {
                assert!(
                    got >= (seeded / 4).max(1) && got <= seeded * 4,
                    "{label}: knob {got} outside rails of seed {seeded}"
                );
            }
        }
    }

    #[test]
    fn snapshot_and_screened_observations_do_not_poison_alpha() {
        let cal = Calibrator::new(CostModel::default());
        // Screened probes finish in ~0 work; snapshot reads have their own
        // rate. Neither may contaminate the locked-path alpha.
        let screened = PlanCost::screened_point();
        let snap = PlanCost {
            crack_values: 100,
            shards_touched: 1,
            ..PlanCost::default()
        };
        for _ in 0..4 * Calibrator::REPUBLISH_EVERY {
            cal.observe(&screened, Route::Locked, 50);
            cal.observe(&snap, Route::Snapshot, 1_000_000);
        }
        assert_eq!(
            cal.model(),
            cal.seed(),
            "no locked-path evidence: the seed stands"
        );
    }
}
