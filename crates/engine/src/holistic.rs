//! The holistic indexing engine: adaptive indexing plus the always-on
//! tuning daemon.
//!
//! User queries behave exactly like the adaptive engine (parallel vectorized
//! cracking with the user thread budget); in the background the holistic
//! daemon watches the load accountant and spends every idle hardware context
//! on random-pivot refinements of the registered cracker columns.
//!
//! ## Horizontal shards
//!
//! With [`HolisticEngineConfig::shards`] > 1 each attribute is split into S
//! range-partitioned shards ([`holix_cracking::ShardedColumn`]): every shard
//! is its own cracker column with its own Ripple buffer and its own
//! `(attr, shard)` record in the [`IndexSpace`], so concurrent queries on
//! the same attribute only contend when their value ranges overlap the same
//! shard, and the daemon's weight heap ranks all `attrs × S` records
//! uniformly — holistic refinement still picks the globally hottest piece.
//! A query fans out to the shards its predicate intersects and merges
//! counts/sums; fully-covered interior shards answer without cracking.
//!
//! ## Shard-grain residency
//!
//! The `(attr, shard)` slot is also the unit the engine builds, admits,
//! evicts and rebuilds. Every attribute has a [`ShardedColumn`] from
//! construction, its cells empty. The first touch of an attribute builds
//! all of its shards in one routing pass **when that evicts nothing** (no
//! storage budget, or the whole attribute fits the free budget); otherwise
//! an operation builds exactly the shards it routes to, one filter pass
//! each, registered as one batch — the engine never evicts something to
//! materialise data nobody asked for. A shard the budget dropped is
//! rebuilt alone: the slot swaps in a successor column that shares every
//! other cell, so survivors keep their cracks, records, snapshots and
//! filters.
//!
//! ## Versioned shard plans
//!
//! With [`HolisticEngineConfig::replan`] the shard plan stops being a
//! build-time constant: a replanner thread watches each materialised
//! shard's published [`holix_cracking::PieceStats`] (merged rows +
//! pending backlog), asks `holix_planner::propose_replan` whether a hot
//! shard should split or two cold neighbours merge, and migrates the
//! affected values through [`ShardedColumn::apply_replan`] — sealed
//! predecessor shards drain their Ripple backlog and republish their
//! snapshots, untouched shards are shared by `Arc` into the successor.
//! The successor column carries its own plan and version, so swapping the
//! attribute's one `Arc<Shards>` publishes all three at once: in-flight
//! queries finish against the column (and so the plan) they started with,
//! new queries route by the column they find, and updates rejected by a
//! sealed predecessor retry against the successor. Readers never block
//! mid-replan.

use crate::api::{Capabilities, Dataset, QueryEngine, SnapshotCollect};
use holix_core::cpu::LoadAccountant;
use holix_core::handle::CrackerHandle;
use holix_core::index_space::{IndexSlot, IndexSpace, Membership};
use holix_core::{CpuMonitor, CycleRecord, HolisticConfig, HolisticDaemon, RefinableIndex};
use holix_cracking::{CrackScratch, CrackerColumn, ReplanAction, ShardPlan, ShardedColumn};
use holix_planner::{propose_replan, PlanCost, ReplanPolicy, ShardLoad};
use holix_storage::select::{Predicate, RangeStats};
use holix_storage::types::RowId;
use holix_workloads::QuerySpec;
use parking_lot::RwLock;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

thread_local! {
    static SCRATCH: RefCell<CrackScratch<i64>> = RefCell::new(CrackScratch::new());
}

/// Engine-level configuration on top of the core [`HolisticConfig`].
#[derive(Debug, Clone)]
pub struct HolisticEngineConfig {
    /// Hardware contexts the experiment exposes (the paper's 32).
    pub total_contexts: usize,
    /// Contexts one user query uses for parallel cracking (the paper's
    /// `uN` labels).
    pub user_threads: usize,
    /// Horizontal range shards per attribute (1 = one cracker column per
    /// attribute, the paper's layout).
    pub shards: usize,
    /// Screen equality/IN probes through per-shard point-membership
    /// filters: a filter-negative probe answers "empty" without cracking
    /// anything (the `f_Ih` exact-hit analogue for point traffic).
    pub point_filters: bool,
    /// Run the replanner thread: watch per-shard load skew and publish
    /// split/merge plan revisions as successor columns.
    /// Off by default — the paper's layout is a fixed plan.
    pub replan: bool,
    /// Core tuning configuration (x, interval, strategy, budget,
    /// worker_threads …).
    pub holistic: HolisticConfig,
}

impl HolisticEngineConfig {
    /// The paper's preferred split (§5.1/Fig 7): half the contexts to user
    /// queries, the rest to holistic workers, with a fast monitor interval
    /// for laptop-scale runs.
    pub fn split_half(total_contexts: usize) -> Self {
        HolisticEngineConfig {
            total_contexts,
            user_threads: (total_contexts / 2).max(1),
            shards: 1,
            point_filters: true,
            replan: false,
            holistic: HolisticConfig::fast(),
        }
    }

    /// [`HolisticEngineConfig::split_half`] with S shards per attribute.
    pub fn split_half_sharded(total_contexts: usize, shards: usize) -> Self {
        HolisticEngineConfig {
            shards: shards.max(1),
            ..Self::split_half(total_contexts)
        }
    }
}

/// An attribute's sharded column; every resident shard is tagged with its
/// `IndexSpace` record.
pub type Shards = ShardedColumn<i64, Arc<IndexSlot>>;

/// The shards of an attribute an operation routes to.
#[derive(Clone, Copy)]
enum Route {
    /// Every shard the range `[lo, hi)` intersects.
    Range(i64, i64),
    /// The one shard owning a value.
    Owner(i64),
    /// All of them.
    All,
}

impl Route {
    /// Inclusive shard range under `plan`; `None` for an empty range.
    fn shards(self, plan: &ShardPlan<i64>) -> Option<(usize, usize)> {
        match self {
            Route::Range(lo, hi) => plan.shard_range(lo, hi),
            Route::Owner(v) => {
                let k = plan.shard_of(v);
                Some((k, k))
            }
            Route::All => Some((0, plan.shards() - 1)),
        }
    }
}

/// The plan-versioned state a replan mutates, shared with the replanner
/// thread.
struct PlanShared {
    /// One column per attribute from construction on; a cold attribute's
    /// cells are all empty. The column is the one source of the
    /// attribute's shard plan and plan version: routing, decomposition and
    /// execution read both off whichever column they find here (in-flight
    /// readers keep their old column `Arc` and finish against the plan
    /// they started with). The lock guards the pointer only — it is
    /// written to swap in a successor (replan cutover, vacated cells),
    /// never held across a build.
    cols: Vec<RwLock<Arc<Shards>>>,
    /// Total split/merge cutovers published across all attributes.
    replans: AtomicU64,
}

struct Replanner {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<()>,
}

/// Adaptive indexing + background tuning.
pub struct HolisticEngine {
    data: Dataset,
    cfg: HolisticEngineConfig,
    space: Arc<IndexSpace>,
    accountant: Arc<LoadAccountant>,
    daemon: parking_lot::Mutex<Option<HolisticDaemon>>,
    /// The attributes' columns, shared with the replanner thread.
    shared: Arc<PlanShared>,
    /// Uniform multiplier for [`QueryEngine::routing_key`] — at least the
    /// maximum shard count across attributes, so no two attributes' keys
    /// collide even when some plans collapsed to fewer shards. With
    /// replanning enabled it is widened to the policy's shard cap so
    /// split-born shards get distinct keys; the stride itself never moves
    /// (routing keys must stay comparable across plan versions).
    routing_stride: u64,
    replan_policy: ReplanPolicy,
    replanner: parking_lot::Mutex<Option<Replanner>>,
}

impl HolisticEngine {
    /// Builds the engine and starts the tuning daemon (and, with
    /// [`HolisticEngineConfig::replan`], the replanner thread).
    pub fn new(data: Dataset, cfg: HolisticEngineConfig) -> Self {
        let space = Arc::new(IndexSpace::new(cfg.holistic.clone()));
        let accountant = LoadAccountant::new(cfg.total_contexts);
        let daemon = HolisticDaemon::spawn(
            Arc::clone(&space),
            Arc::clone(&accountant) as Arc<dyn CpuMonitor>,
            cfg.holistic.clone(),
        );
        let plans: Vec<ShardPlan<i64>> = (0..data.attrs())
            .map(|a| ShardPlan::from_values(data.column(a), cfg.shards))
            .collect();
        let replan_policy = ReplanPolicy::default();
        // Uniform routing stride: plans can collapse to fewer shards on
        // low-cardinality attributes, and per-attribute multipliers would
        // make different attributes' key ranges overlap — every key must
        // identify exactly one (attr, shard) structure.
        let mut routing_stride = plans
            .iter()
            .map(ShardPlan::shards)
            .max()
            .unwrap_or(1)
            .max(1) as u64;
        if cfg.replan {
            routing_stride = routing_stride.max(replan_policy.max_shards as u64);
        }
        let cols = plans
            .iter()
            .enumerate()
            .map(|(attr, plan)| {
                let col = ShardedColumn::lazy(
                    &format!("attr{attr}"),
                    data.shared_column(attr),
                    plan.clone(),
                )
                .with_threads(cfg.user_threads, cfg.holistic.worker_threads)
                .with_piece_floor(cfg.holistic.l1_values(std::mem::size_of::<i64>()));
                RwLock::new(Arc::new(col))
            })
            .collect();
        let shared = Arc::new(PlanShared {
            cols,
            replans: AtomicU64::new(0),
        });
        let replanner = cfg.replan.then(|| {
            spawn_replanner(
                Arc::clone(&shared),
                Arc::clone(&space),
                replan_policy,
                cfg.holistic.monitor_interval,
            )
        });
        HolisticEngine {
            data,
            cfg,
            space,
            accountant,
            daemon: parking_lot::Mutex::new(Some(daemon)),
            shared,
            routing_stride,
            replan_policy,
            replanner: parking_lot::Mutex::new(replanner),
        }
    }

    /// Version of the currently published plan for `attr` (0 until the
    /// first replan cutover).
    pub fn plan_version(&self, attr: usize) -> u64 {
        self.shared.cols[attr].read().version()
    }

    /// Total replan cutovers (splits + merges) published so far.
    pub fn replan_count(&self) -> u64 {
        self.shared.replans.load(Ordering::Relaxed)
    }

    /// The attribute's column with the shards `route` picks under its
    /// plan resident, and that shard range (`None` for an empty range).
    /// Builds what is missing; see [`HolisticEngine::admit`].
    fn touch(&self, attr: usize, route: Route) -> Option<(Arc<Shards>, usize, usize)> {
        let col = Arc::clone(&self.shared.cols[attr].read());
        let (first, last) = route.shards(col.plan())?;
        if (first..=last).all(|k| live(&col, k).is_some()) {
            return Some((col, first, last));
        }
        self.admit(attr, route, Membership::Actual)
    }

    /// [`HolisticEngine::touch`] for the one shard owning `v`.
    fn touch_owner(&self, attr: usize, v: i64) -> (Arc<Shards>, usize) {
        let (col, k, _) = self
            .touch(attr, Route::Owner(v))
            .expect("every value has an owner");
        (col, k)
    }

    /// `true` when materialising all of an attribute evicts nothing.
    fn whole_attribute_fits(&self) -> bool {
        let Some(budget) = self.cfg.holistic.storage_budget else {
            return true;
        };
        // A fresh shard stores values only.
        let tuple = CrackerColumn::<i64>::tuple_bytes(false);
        budget.saturating_sub(self.space.bytes_used()) >= self.data.rows() * tuple
    }

    /// The slow path of [`HolisticEngine::touch`]: builds and registers
    /// the picked shards that are empty or were dropped by the budget.
    ///
    /// Admission rule: an attribute with no live shard whose whole payload
    /// fits the free budget (always, without a budget) is built whole —
    /// one routing pass, one registration batch, nothing evicted, the
    /// daemon sees every shard at once. Otherwise only the picked shards
    /// are built, one filter pass each, again as one batch so siblings of
    /// one operation never evict each other. The cells of dropped shards
    /// are first replaced by empty ones in a successor column that shares
    /// every other cell; the build itself runs under the cells' own locks
    /// (see [`ShardedColumn::admit`]), not under the attribute lock.
    fn admit(
        &self,
        attr: usize,
        route: Route,
        membership: Membership,
    ) -> Option<(Arc<Shards>, usize, usize)> {
        loop {
            let mut col = Arc::clone(&self.shared.cols[attr].read());
            let (first, last) = route.shards(col.plan())?;
            let build = if cold(&col) && self.whole_attribute_fits() {
                0..=col.shard_count() - 1
            } else {
                first..=last
            };
            // Every dropped shard of the attribute goes, wanted now or
            // not: the cell is all that keeps its column allocated.
            let dropped: Vec<usize> = (0..col.shard_count())
                .filter(|&k| col.resident(k).is_some_and(|(_, slot)| slot.is_dropped()))
                .collect();
            if !dropped.is_empty() {
                let mut slot = self.shared.cols[attr].write();
                if !Arc::ptr_eq(&slot, &col) {
                    continue; // a replan or a racing admission swapped the column
                }
                col = Arc::new(col.vacated(&dropped));
                *slot = Arc::clone(&col);
            }
            col.admit(*build.start(), *build.end(), |fresh| {
                register_shards(&self.space, fresh, membership)
            });
            return Some((col, first, last));
        }
    }

    /// The attribute's column with every shard resident (tests, harnesses
    /// and forced replans; query paths build only the shards they route
    /// to).
    pub fn sharded(&self, attr: usize) -> Arc<Shards> {
        self.touch(attr, Route::All)
            .expect("a plan has at least one shard")
            .0
    }

    /// The first shard's cracker column. With `shards == 1` (the default)
    /// this is the attribute's whole cracker column — invariant checks and
    /// single-column experiments use it.
    pub fn column(&self, attr: usize) -> Arc<CrackerColumn<i64>> {
        Arc::clone(self.sharded(attr).shard(0))
    }

    /// Adds speculative indices to `C_potential` (the Fig 9 idle-time
    /// scenario: "holistic indexing chooses random indexes to insert in
    /// C_potential and refines them until the first query arrives").
    ///
    /// Shards that are already live are left alone; empty cells and
    /// shards the storage budget dropped ([`Membership::Dropped`]) are
    /// (re)built and registered — an evicted shard must not block
    /// re-speculation.
    pub fn add_potential(&self, attrs: &[usize]) {
        for &attr in attrs {
            self.admit(attr, Route::All, Membership::Potential);
        }
    }

    /// The shared index space (inspection / experiments).
    pub fn space(&self) -> &Arc<IndexSpace> {
        &self.space
    }

    /// The load accountant — external load (e.g. other clients) can be
    /// modelled by holding task guards.
    pub fn accountant(&self) -> &Arc<LoadAccountant> {
        &self.accountant
    }

    /// Total pieces across all live indices (Fig 6(c)).
    pub fn total_pieces(&self) -> usize {
        self.space.total_pieces()
    }

    /// Tuning-cycle records so far (Fig 6(d)).
    pub fn cycles(&self) -> Vec<CycleRecord> {
        self.daemon
            .lock()
            .as_ref()
            .map(|d| d.cycles())
            .unwrap_or_default()
    }

    /// Stops the daemon and returns all cycle records. The daemon's final
    /// duty is to leave every materialised shard's plan-time summary
    /// fresh (it republished once per cycle while alive), so plan-priced
    /// decisions stay accurate after the background refresher is gone.
    pub fn stop(&self) -> Vec<CycleRecord> {
        // The replanner goes first: a migration racing daemon shutdown
        // would re-register successor shards into a space nobody refines.
        if let Some(replanner) = self.replanner.lock().take() {
            replanner.stop.store(true, Ordering::Relaxed);
            let _ = replanner.handle.join();
        }
        let Some(daemon) = self.daemon.lock().take() else {
            return Vec::new();
        };
        let records = daemon.stop();
        for slot in &self.shared.cols {
            for shard in slot.read().resident_shards() {
                shard.maybe_publish_stats(1);
            }
        }
        records
    }

    /// Queues an insertion of `v` for base row `row` on `attr`; it lands in
    /// the pending buffer of exactly the shard owning `v`'s value range
    /// (built first when it is not resident) and is merged when a query or
    /// worker touches that range (Ripple).
    ///
    /// A shard sealed for migration rejects the enqueue; the update
    /// retries against the successor plan once its cutover publishes (or
    /// against the reopened shard if the migration aborted) — updates are
    /// never silently dropped across a replan.
    pub fn queue_insert(&self, attr: usize, v: i64, row: RowId) {
        loop {
            let (col, _) = self.touch_owner(attr, v);
            if col.queue_insert(v, row) {
                return;
            }
            std::thread::yield_now();
        }
    }

    /// Queues a deletion of the value previously inserted for `row`
    /// (same sealed-shard retry discipline as [`Self::queue_insert`]).
    pub fn queue_delete(&self, attr: usize, v: i64, row: RowId) {
        loop {
            let (col, _) = self.touch_owner(attr, v);
            if col.queue_delete(v, row) {
                return;
            }
            std::thread::yield_now();
        }
    }

    /// Evaluates the replan policy for one attribute and, when it fires,
    /// migrates and publishes the successor plan. Returns the applied
    /// action. Attributes with a shard that is not resident and live are
    /// never replanned.
    pub fn maybe_replan(&self, attr: usize) -> Option<ReplanAction> {
        maybe_replan_attr(&self.shared, &self.space, &self.replan_policy, attr)
    }

    /// Applies a specific split/merge unconditionally (tests force
    /// migrations the policy would pace).
    /// Builds the attribute first. Returns `false` when the action is out
    /// of range or the migration aborted (e.g. an unsplittable
    /// constant-valued shard).
    pub fn force_replan(&self, attr: usize, action: ReplanAction) -> bool {
        let col = self.sharded(attr);
        apply_replan_action(&self.shared, &self.space, attr, &col, action)
    }

    /// Fans a predicate out to the intersecting shards, records per-shard
    /// statistics and folds each shard's selection through `fold`.
    fn fan_out<T>(
        &self,
        q: &QuerySpec,
        mut fold: impl FnMut(
            &CrackerColumn<i64>,
            Predicate<i64>,
            &mut CrackScratch<i64>,
        ) -> (holix_cracking::Selection, T),
        mut merge: impl FnMut(T),
    ) {
        let _task = self.accountant.begin_task(self.cfg.user_threads);
        let pred = Predicate::range(q.lo, q.hi);
        let Some((col, first, last)) = self.touch(q.attr, Route::Range(pred.lo, pred.hi)) else {
            return;
        };
        let plan = col.plan();
        SCRATCH.with(|s| {
            let scratch = &mut s.borrow_mut();
            // Inline fan-out (no intermediate Vec: this runs per query).
            for k in first..=last {
                let (shard, slot) = col.resident(k).expect("touched above");
                let (sel, out) = fold(shard, plan.clamp(k, pred), scratch);
                let cracked = (!sel.hit_lo) as u64 + (!sel.hit_hi) as u64;
                slot.record_user_query(sel.exact_hit(), cracked);
                merge(out);
            }
        });
        // Keep the planner's summaries loosely fresh: a cheap version
        // check per touched shard, the O(p) republish only every ~32
        // structural changes (the daemon forces the remainder each cycle).
        for k in first..=last {
            col.shard(k).maybe_publish_stats(32);
        }
    }

    /// Point-probe screening: `Some(0)` when the owning shard's membership
    /// filter **proves** `v` absent — the probe answers empty having
    /// touched no piece and cracked nothing (recorded as an exact hit, the
    /// paper's `f_Ih` statistic extended to point traffic). `None` when
    /// the value may be present or screening is disabled; the caller runs
    /// the normal unit-range fan-out, which cracks at most one shard.
    /// Screening must inspect the *original* bounds: `ShardPlan::clamp`
    /// widens a unit range ending exactly at a shard cut to the `MAX`
    /// sentinel, which no longer reads as a point.
    fn screen_point(&self, attr: usize, v: i64) -> Option<u64> {
        if !self.cfg.point_filters {
            return None;
        }
        let (col, k) = self.touch_owner(attr, v);
        let (shard, slot) = col.resident(k).expect("touched above");
        shard.ensure_point_filter();
        if shard.probe_point(v) == Some(false) {
            slot.record_user_query(true, 0);
            return Some(0);
        }
        None
    }

    /// The locked range fan-out shared by [`QueryEngine::execute`] and the
    /// unit-range fallbacks of the point paths (which have already probed
    /// the filter and must not probe again).
    fn execute_range(&self, q: &QuerySpec) -> u64 {
        let mut count = 0u64;
        self.fan_out(
            q,
            |shard, pred, scratch| {
                let sel = shard.select(pred, scratch);
                (sel, sel.count())
            },
            |c| count += c,
        );
        count
    }
}

impl QueryEngine for HolisticEngine {
    fn name(&self) -> &'static str {
        "holistic"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            workload_analysis: true,
            idle_before_queries: true,
            idle_during_queries: true,
            full_materialization: false,
            high_update_cost: false,
            dynamic: true,
            point_screening: true,
        }
    }

    fn plan_version(&self, q: &QuerySpec) -> u64 {
        HolisticEngine::plan_version(self, q.attr)
    }

    fn execute(&self, q: &QuerySpec) -> u64 {
        if let Some(v) = Predicate::range(q.lo, q.hi).as_point() {
            if let Some(n) = self.screen_point(q.attr, v) {
                return n;
            }
        }
        self.execute_range(q)
    }

    fn execute_verified(&self, q: &QuerySpec) -> (u64, i128) {
        let mut stats = RangeStats::default();
        self.fan_out(
            q,
            |shard, pred, scratch| {
                let (sel, s) = shard.select_verified(pred, scratch);
                (sel, s)
            },
            |s| stats.merge(s),
        );
        (stats.count, stats.sum)
    }

    fn routing_key(&self, q: &QuerySpec) -> u64 {
        // Home shard of the lower bound under the *published* plan (read
        // off the column in place: nothing is cloned or built): narrow
        // hot-set queries land whole on one shard, so per-key
        // pinning keeps workers off each other's latches for the dominant
        // traffic. The stride is uniform across attributes so keys of
        // different attributes never collide; the clamp covers a plan
        // that split past the stride (pinning is a contention
        // optimisation, never a safety invariant, so key aliasing in that
        // tail is acceptable).
        let shard = self.shared.cols[q.attr].read().plan().shard_of(q.lo) as u64;
        q.attr as u64 * self.routing_stride + shard.min(self.routing_stride - 1)
    }

    fn estimate_cost(&self, q: &QuerySpec) -> Option<PlanCost> {
        let pred = Predicate::range(q.lo, q.hi);
        // Read-only peek at the attribute's column: nothing is built here
        // (admission control prices queries before anything commits to
        // paying the O(N) pass over the base) — a cold attribute's price
        // is exactly that copy-and-crack.
        let col = Arc::clone(&self.shared.cols[q.attr].read());
        if cold(&col) {
            return Some(PlanCost::cold(self.data.rows()));
        }
        let plan = col.plan();
        // Point screening at plan time, from the *published* filter only —
        // one `Arc` load plus k bit probes; `ensure_point_filter`
        // (which takes locks) is never called here. A negative probe
        // prices the query Screened: admission executes it inline instead
        // of spending a queue slot. Probes on unbuilt filters (or shards)
        // fall through to normal range pricing.
        if self.cfg.point_filters {
            if let Some(v) = pred.as_point() {
                let owner = live(&col, plan.shard_of(v));
                if owner.is_some_and(|(shard, _)| shard.probe_point(v) == Some(false)) {
                    return Some(PlanCost::screened_point());
                }
            }
        }
        let Some((first, last)) = plan.shard_range(pred.lo, pred.hi) else {
            // Empty predicate: free.
            return Some(PlanCost {
                exact_hit: true,
                ..PlanCost::default()
            });
        };
        let mut cost = PlanCost::default();
        for k in first..=last {
            // `piece_stats` is an `Arc` load out of the shard's published
            // cell; `estimate` is a pure function of it — no structure,
            // index, pending or maintenance lock.
            // A shard that is empty or was dropped costs its own rebuild,
            // not the attribute's: the base rows it holds (counted by the
            // attribute's first build; `data.rows()` keeps the fallback
            // free of index locks). Resident columns publish at build.
            let stats = live(&col, k).and_then(|(shard, _)| shard.piece_stats());
            let shard_cost = match stats {
                Some(stats) => holix_planner::estimate(&stats, plan.clamp(k, pred)),
                None => PlanCost::cold(col.shard_rows(k).unwrap_or(self.data.rows())),
            };
            cost.merge(shard_cost);
        }
        Some(cost)
    }

    fn decompose(&self, q: &QuerySpec) -> Option<Vec<QuerySpec>> {
        // Derives from the published plan only (like routing_key): stable
        // across eviction and never materialises a column. Parts
        // cut at a replanned boundary stay correct even if another replan
        // publishes before they execute — each part is a plain range
        // query; boundary cuts only lose their single-shard affinity.
        holix_planner::decompose_spanning(self.shared.cols[q.attr].read().plan(), q)
    }

    fn execute_snapshot(&self, q: &QuerySpec) -> Option<(u64, i128)> {
        let _task = self.accountant.begin_task(self.cfg.user_threads);
        let pred = Predicate::range(q.lo, q.hi);
        let Some((col, first, last)) = self.touch(q.attr, Route::Range(pred.lo, pred.hi)) else {
            return Some((0, 0));
        };
        let plan = col.plan();
        SCRATCH.with(|s| {
            let scratch = &mut s.borrow_mut();
            let mut count = 0u64;
            let mut sum = 0i128;
            for k in first..=last {
                let (shard, slot) = col.resident(k).expect("touched above");
                let scan = shard.snapshot_scan(plan.clamp(k, pred), scratch);
                // Snapshot reads never crack; a scan that needed no edge
                // filtering hit snapshot boundaries exactly (the `f_Ih`
                // analogue). Recording keeps the weight heap hot so the
                // daemon still refines what snapshot traffic touches.
                slot.record_user_query(scan.filtered == 0, 0);
                count += scan.count;
                sum += scan.sum;
            }
            Some((count, sum))
        })
    }

    fn execute_collect_snapshot(&self, q: &QuerySpec) -> SnapshotCollect {
        // Copy cap: past this many qualifying values, materialising them
        // costs more than the per-query executions containment coalescing
        // would save — an unselective superset must never turn the
        // service's fast path into a multi-megabyte copy.
        const COLLECT_CAP: usize = 1 << 16;
        let _task = self.accountant.begin_task(self.cfg.user_threads);
        let pred = Predicate::range(q.lo, q.hi);
        let Some((col, first, last)) = self.touch(q.attr, Route::Range(pred.lo, pred.hi)) else {
            return SnapshotCollect::Values(Vec::new());
        };
        let plan = col.plan();
        SCRATCH.with(|s| {
            let scratch = &mut s.borrow_mut();
            // Pre-count with the O(pieces + edges) aggregate scan before
            // materialising anything: a wide superset past the cap must
            // not first copy its (possibly huge) qualifying set only to
            // throw it away.
            let mut total = 0u64;
            for k in first..=last {
                let (shard, slot) = col.resident(k).expect("touched above");
                let scan = shard.snapshot_scan(plan.clamp(k, pred), scratch);
                slot.record_user_query(scan.filtered == 0, 0);
                total += scan.count;
                if total > COLLECT_CAP as u64 {
                    return SnapshotCollect::CapExceeded;
                }
            }
            // Updates can land between the count and the copy, so the
            // collect can exceed the pre-count slightly — the cap is a
            // cost heuristic, not a hard limit.
            let mut values = Vec::with_capacity(total as usize);
            for k in first..=last {
                col.shard(k)
                    .snapshot_collect(plan.clamp(k, pred), scratch, &mut values);
            }
            SnapshotCollect::Values(values)
        })
    }

    fn execute_points(&self, attr: usize, values: &[i64]) -> Option<u64> {
        // Dedupe: an IN list counts each qualifying tuple once, and
        // coalesced batches legitimately repeat values.
        let mut vals: Vec<i64> = values.to_vec();
        vals.sort_unstable();
        vals.dedup();
        let mut total = 0u64;
        for v in vals {
            if v == i64::MAX {
                continue; // the sentinel cannot be probed (empty unit range)
            }
            if let Some(n) = self.screen_point(attr, v) {
                total += n; // filter-negative: zero cracks, zero touches
                continue;
            }
            // Maybe-present: the unit-range fan-out cracks (at most) the
            // one shard owning `v`. Bypasses `execute` so a probe that
            // already failed screening is not screened twice.
            total += self.execute_range(&QuerySpec {
                attr,
                lo: v,
                hi: v + 1,
            });
        }
        Some(total)
    }

    fn execute_conjunction(&self, terms: &[QuerySpec]) -> Option<u64> {
        // Past this many driver rows, materialising the row-id set costs
        // more than the intersection saves — same cap discipline as the
        // snapshot collect; callers fall back to per-term execution.
        const DRIVER_CAP: u64 = 1 << 16;
        if terms.is_empty() {
            return Some(0);
        }
        if terms
            .iter()
            .any(|t| Predicate::range(t.lo, t.hi).is_empty())
        {
            return Some(0); // one empty term empties the conjunction
        }
        // Driver: the term expected to qualify fewest rows. Elected by
        // the equi-depth cardinality estimate (`est_rows`, interpolated
        // inside the edge pieces), not the conservative positional span —
        // on a coarsely cracked attribute the span covers whole pieces
        // and would lose a selective term the histogram can see. Ties and
        // cold attributes (est = full length) fall back to first-wins,
        // exactly as before. Lock-free: priced from published statistics.
        let di = terms
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| self.estimate_cost(t).map_or(u64::MAX, |c| c.est_rows))
            .map(|(i, _)| i)?;
        let driver = &terms[di];
        // Collect the driver's qualifying *base row ids* shard by shard
        // (select cracks the bounds, then `collect_row_ids` re-locates
        // them under the shard's exclusive structure lock, so a Ripple
        // merge racing the select cannot make the copy serve a stale
        // window). Once any shard overflowed the cap or failed to locate
        // its bounds the result is `None` — further copies are skipped
        // (each would take an exclusive lock for nothing); the selects
        // still run for their cracking side effect.
        let mut rows: Option<Vec<RowId>> = Some(Vec::new());
        let mut total = 0u64;
        let mut doomed = false;
        self.fan_out(
            driver,
            |shard, pred, scratch| {
                let sel = shard.select(pred, scratch);
                total += sel.count();
                let ids = if !doomed && total <= DRIVER_CAP {
                    shard.collect_row_ids(pred)
                } else {
                    None
                };
                doomed |= ids.is_none();
                (sel, ids)
            },
            |ids: Option<Vec<RowId>>| match ids {
                Some(ids) => {
                    if let Some(rows) = rows.as_mut() {
                        rows.extend(ids);
                    }
                }
                None => rows = None,
            },
        );
        let rows = rows?;
        // Conjunctions are answered over the *base table*: row ids at or
        // past `data.rows()` belong to queued inserts, whose other-attribute
        // values the engine does not store — they are excluded by
        // definition, so results stay exact under concurrent updates that
        // only add or delete their own inserted rows.
        let base_rows = self.data.rows();
        let others: Vec<(usize, Predicate<i64>)> = terms
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != di)
            .map(|(_, t)| (t.attr, Predicate::range(t.lo, t.hi)))
            .collect();
        let mut count = 0u64;
        for &r in &rows {
            let r = r as usize;
            if r >= base_rows {
                continue;
            }
            if others
                .iter()
                .all(|&(attr, p)| p.matches_unbounded(self.data.column(attr)[r]))
            {
                count += 1;
            }
        }
        Some(count)
    }
}

impl Drop for HolisticEngine {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Shard `k` of `col` when it is resident and neither the storage budget
/// nor a replan has dropped it (one atomic load on its record).
fn live(col: &Shards, k: usize) -> Option<(&Arc<CrackerColumn<i64>>, &Arc<IndexSlot>)> {
    col.resident(k).filter(|(_, slot)| !slot.is_dropped())
}

/// `true` when no shard of `col` is resident and live.
fn cold(col: &Shards) -> bool {
    (0..col.shard_count()).all(|k| live(col, k).is_none())
}

/// Registers freshly built shards as ONE admission batch, so the storage
/// budget can evict other shards but never a sibling of the batch being
/// registered (which would be born dead and rebuilt by the same query).
/// Returns the records in shard order.
fn register_shards(
    space: &IndexSpace,
    fresh: &[Arc<CrackerColumn<i64>>],
    membership: Membership,
) -> Vec<Arc<IndexSlot>> {
    let handles = fresh
        .iter()
        .map(|shard| Arc::new(CrackerHandle::new(Arc::clone(shard))) as Arc<dyn RefinableIndex>)
        .collect();
    space.register(handles, membership)
}

/// Row-equivalents charged per recorded query when converting a shard's
/// `f_I` into [`ShardLoad::access`] heat: one query-touch weighs like
/// scanning this many resident rows. `f_I` is cumulative, but a split
/// re-registers the hot halves with fresh counters, so the heat a split is
/// meant to dissipate actually resets afterwards — untouched shards keep
/// their accumulated weight by `Arc` identity, which is exactly the skew
/// signal the policy wants.
const ACCESS_ROW_EQUIV: u64 = 64;

/// One policy evaluation for one attribute: read per-shard loads from the
/// published statistics (no column lock), propose, migrate, publish.
fn maybe_replan_attr(
    shared: &PlanShared,
    space: &IndexSpace,
    policy: &ReplanPolicy,
    attr: usize,
) -> Option<ReplanAction> {
    let col = Arc::clone(&shared.cols[attr].read());
    // The policy weighs an attribute's shards against each other, so all
    // of them must be resident and live: cold and partially resident
    // attributes wait.
    let shards: Vec<_> = (0..col.shard_count())
        .map(|k| live(&col, k))
        .collect::<Option<_>>()?;
    // Refresh before reading: the daemon republishes the shards it
    // refines each cycle, but a pure pending pile-up (updates with no
    // queries) advances no refinement — the policy must not starve on
    // stale summaries. `maybe_publish_stats(1)` is a no-op when nothing
    // changed.
    for (shard, _) in &shards {
        shard.maybe_publish_stats(1);
    }
    let loads: Vec<ShardLoad> = shards
        .iter()
        .map(|(shard, slot)| {
            // Access heat: the shard's registry `f_I` (queries routed to
            // it) in row-equivalents, so a small shard every query hammers
            // can out-weigh a large cold one and trip the split skew.
            let access = slot.stats().queries().saturating_mul(ACCESS_ROW_EQUIV) as usize;
            match shard.piece_stats() {
                Some(s) => ShardLoad {
                    rows: s.len,
                    pending: s.pending,
                    access,
                },
                // Columns publish at build; the fallback reads the live
                // lengths so a stats-less shard is not mistaken for empty.
                None => ShardLoad {
                    rows: shard.len(),
                    pending: shard.pending_len(),
                    access,
                },
            }
        })
        .collect();
    let action = propose_replan(&loads, policy)?;
    if holix_telemetry::metrics_enabled() {
        holix_telemetry::counter!("planner_replan_proposals_total").inc();
    }
    apply_replan_action(shared, space, attr, &col, action).then_some(action)
}

/// Migrates `action` against `col` and publishes the successor plan.
///
/// Readers are never blocked: the migration seals and drains only the
/// replaced shard(s) while queries keep executing against the predecessor
/// column they already cloned. The cutover is one pointer swap — plan,
/// version and shards change together; the rebuilt shards are registered
/// and the replaced shards' registry records retired, untouched shards
/// keep their identity (and their accumulated daemon weights) by sharing
/// their cells.
fn apply_replan_action(
    shared: &PlanShared,
    space: &IndexSpace,
    attr: usize,
    col: &Arc<Shards>,
    action: ReplanAction,
) -> bool {
    // The slot's write lock, taken once the migration has drained the
    // replaced shards and held through the cutover.
    let mut slot = None;
    let successor = col.apply_replan_with(action, |fresh| {
        let guard = shared.cols[attr].write();
        // An eviction swapped the column while we migrated: the successor
        // would resurrect cells the slot has vacated since — abandon it
        // (the migrated shards reopen, nothing was registered).
        if !Arc::ptr_eq(&guard, col) {
            return None;
        }
        slot = Some(guard);
        Some(register_shards(space, fresh, Membership::Actual))
    });
    let (Some(successor), Some(mut slot)) = (successor, slot) else {
        return false;
    };
    for k in action.replaced() {
        space.retire(col.resident(k).expect("migrated shards are resident").1);
    }
    // Seed the successor's rebuilt shards with fresh statistics so the
    // next policy evaluation (and plan-priced admission) sees them.
    for shard in successor.resident_shards() {
        shard.maybe_publish_stats(1);
    }
    *slot = Arc::new(successor);
    drop(slot);
    shared.replans.fetch_add(1, Ordering::Relaxed);
    if holix_telemetry::metrics_enabled() {
        holix_telemetry::counter!("planner_replan_applies_total").inc();
    }
    true
}

/// The replanner thread: a policy sweep over all attributes every
/// `interval`, for as long as the engine lives.
fn spawn_replanner(
    shared: Arc<PlanShared>,
    space: Arc<IndexSpace>,
    policy: ReplanPolicy,
    interval: std::time::Duration,
) -> Replanner {
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let handle = std::thread::Builder::new()
        .name("holix-replanner".into())
        .spawn(move || {
            while !stop_flag.load(Ordering::Relaxed) {
                for attr in 0..shared.cols.len() {
                    if stop_flag.load(Ordering::Relaxed) {
                        return;
                    }
                    maybe_replan_attr(&shared, &space, &policy, attr);
                }
                std::thread::sleep(interval);
            }
        })
        .expect("spawn replanner thread");
    Replanner { stop, handle }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holix_storage::select::scan_stats;
    use holix_workloads::data::uniform_table;
    use rand::prelude::*;
    use std::time::Duration;

    fn engine(attrs: usize, rows: usize) -> HolisticEngine {
        let data = Dataset::new(uniform_table(attrs, rows, 1_000_000, 3));
        let mut cfg = HolisticEngineConfig::split_half(4);
        cfg.holistic.monitor_interval = Duration::from_millis(1);
        HolisticEngine::new(data, cfg)
    }

    fn sharded_engine(attrs: usize, rows: usize, shards: usize) -> HolisticEngine {
        let data = Dataset::new(uniform_table(attrs, rows, 1_000_000, 3));
        let mut cfg = HolisticEngineConfig::split_half_sharded(4, shards);
        cfg.holistic.monitor_interval = Duration::from_millis(1);
        HolisticEngine::new(data, cfg)
    }

    /// [`sharded_engine`] whose daemon activates no worker: every piece is
    /// a build's or a query's.
    fn quiet_engine(attrs: usize, rows: usize, shards: usize) -> HolisticEngine {
        let data = Dataset::new(uniform_table(attrs, rows, 1_000_000, 3));
        let mut cfg = HolisticEngineConfig::split_half_sharded(4, shards);
        cfg.holistic.max_workers = Some(0);
        HolisticEngine::new(data, cfg)
    }

    /// What a tuple of a freshly built shard costs the budget: its value
    /// (the row ids come with the first conjunction, write or migration).
    const TUPLE: usize = CrackerColumn::<i64>::tuple_bytes(false);

    /// Two 50k-row attributes in four shards under a budget of 1.3
    /// attributes (a 50k-row attribute is 400 KB of values, a shard
    /// 100 KB), no daemon workers. Attribute 0 was touched first and
    /// is resident whole; the narrow query on attribute 1 found room for
    /// a shard but not for an attribute, so only shard 0 of it was built.
    fn partially_resident_engine() -> HolisticEngine {
        let data = Dataset::new(uniform_table(2, 50_000, 1_000_000, 6));
        let mut cfg = HolisticEngineConfig::split_half_sharded(2, 4);
        cfg.holistic.max_workers = Some(0);
        cfg.holistic.storage_budget = Some(50_000 * TUPLE * 13 / 10);
        let e = HolisticEngine::new(data, cfg);
        for attr in 0..2 {
            let q = QuerySpec {
                attr,
                lo: 10_000,
                hi: 20_000,
            };
            let oracle = scan_stats(e.data.column(attr), Predicate::range(q.lo, q.hi));
            assert_eq!(e.execute(&q), oracle.count);
        }
        e
    }

    /// The attribute's current column, nothing built.
    fn peek(e: &HolisticEngine, attr: usize) -> Arc<Shards> {
        Arc::clone(&e.shared.cols[attr].read())
    }

    /// Resident shards the budget has not dropped, over all attributes —
    /// what [`records`] must count too, or a registry record is an orphan
    /// (or a cell lost its record).
    fn live_cells(e: &HolisticEngine) -> usize {
        (0..e.data.attrs())
            .map(|attr| {
                let col = peek(e, attr);
                (0..col.shard_count())
                    .filter(|&k| live(&col, k).is_some())
                    .count()
            })
            .sum()
    }

    /// Every attribute sorted: the count oracle of the long-running tests.
    fn sorted_columns(data: &Dataset) -> Vec<Vec<i64>> {
        (0..data.attrs())
            .map(|a| {
                let mut c = data.column(a).to_vec();
                c.sort_unstable();
                c
            })
            .collect()
    }

    fn count_in(sorted: &[Vec<i64>], q: &QuerySpec) -> u64 {
        let col = &sorted[q.attr];
        (col.partition_point(|&v| v < q.hi) - col.partition_point(|&v| v < q.lo)) as u64
    }

    /// Records the index space holds: the live ones.
    fn records(e: &HolisticEngine) -> usize {
        let (a, p, o, _) = e.space().membership_counts();
        a + p + o
    }

    #[test]
    fn queries_match_scan_oracle_while_daemon_runs() {
        let e = engine(3, 100_000);
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..60 {
            let attr = rng.random_range(0..3);
            let a = rng.random_range(0..1_000_000);
            let b = rng.random_range(0..1_000_000);
            let q = QuerySpec {
                attr,
                lo: a.min(b),
                hi: a.max(b).max(a.min(b) + 1),
            };
            let oracle = scan_stats(e.data.column(attr), Predicate::range(q.lo, q.hi));
            assert_eq!(e.execute(&q), oracle.count);
        }
        e.stop();
    }

    #[test]
    fn sharded_queries_match_scan_oracle_while_daemon_runs() {
        let e = sharded_engine(2, 100_000, 4);
        assert_eq!(peek(&e, 0).plan().shards(), 4);
        let mut rng = StdRng::seed_from_u64(88);
        for _ in 0..80 {
            let attr = rng.random_range(0..2);
            let a = rng.random_range(0..1_000_000);
            let b = rng.random_range(0..1_000_000);
            let q = QuerySpec {
                attr,
                lo: a.min(b),
                hi: a.max(b).max(a.min(b) + 1),
            };
            let oracle = scan_stats(e.data.column(attr), Predicate::range(q.lo, q.hi));
            assert_eq!(e.execute(&q), oracle.count);
            let (count, sum) = e.execute_verified(&q);
            assert_eq!((count, sum), (oracle.count, oracle.sum));
        }
        // One IndexSpace record per (attr, shard) that was touched.
        let (a, p, o, d) = e.space().membership_counts();
        assert_eq!(a + p + o + d, 2 * 4);
        e.stop();
    }

    #[test]
    fn engine_cracks_exactly_like_a_bare_column() {
        // One shard, one user thread, no workers: the engine is a cracker
        // column behind an API. It must go through the same build and crack
        // path as a bare one-shard `ShardedColumn` under the same plan —
        // coarse buckets at first touch, fused three-way kernel on the
        // caller's scratch — so the Selections *and* the cracker arrays
        // come out identical, not merely the counts.
        let rows = 50_000;
        let data = Dataset::new(uniform_table(1, rows, 1_000_000, 3));
        let mut cfg = HolisticEngineConfig {
            shards: 1,
            user_threads: 1,
            ..HolisticEngineConfig::split_half(2)
        };
        cfg.holistic.max_workers = Some(0);
        let e = HolisticEngine::new(data.clone(), cfg);
        let plan = peek(&e, 0).plan().clone();
        let bare = ShardedColumn::from_base_with_plan("bare", data.column(0), plan);
        let bare = bare.shard(0);
        assert!(bare.piece_count() > 1, "big enough for coarse buckets");
        let mut scratch = CrackScratch::new();
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..200 {
            let a = rng.random_range(0..1_000_000);
            let b = rng.random_range(0..1_000_000);
            let (lo, hi) = (a.min(b), a.max(b));
            let mut got = None;
            e.fan_out(
                &QuerySpec { attr: 0, lo, hi },
                |col, pred, s| {
                    let sel = col.select(pred, s);
                    (sel, sel)
                },
                |sel| got = Some(sel),
            );
            let want = bare.select(Predicate::range(lo, hi), &mut scratch);
            assert_eq!(got, Some(want), "selection for [{lo}, {hi})");
        }
        let col = e.column(0);
        assert_eq!(col.snapshot_range(0, rows), bare.snapshot_range(0, rows));
        e.stop();
    }

    #[test]
    fn first_touch_builds_every_shard_with_its_coarse_buckets() {
        // 2^17 rows in 4 shards with |L1| = 4096 values: up to four buckets
        // of two piece floors a shard. No workers, so the pieces counted
        // are the build's and the queries' own.
        let rows = 1 << 17;
        let data = Dataset::new(uniform_table(1, rows, 1_000_000, 9));
        let base = data.column(0).to_vec();
        let mut cfg = HolisticEngineConfig::split_half_sharded(2, 4);
        cfg.holistic.max_workers = Some(0);
        let e = HolisticEngine::new(data, cfg);
        // The same plan and piece floor built bare give the derived counts.
        let plan = peek(&e, 0).plan().clone();
        let bare = ShardedColumn::from_base_with_plan("bare", &base, plan);
        let born: Vec<usize> = (0..4).map(|k| bare.shard(k).piece_count()).collect();
        assert!(born.iter().all(|p| (3..=4).contains(p)), "{born:?}");

        // A narrow first query inside shard 0 cracks one bucket in three.
        let first = QuerySpec {
            attr: 0,
            lo: 1_000,
            hi: 2_000,
        };
        let oracle = |q: &QuerySpec| scan_stats(&base, Predicate::range(q.lo, q.hi)).count;
        assert_eq!(e.execute(&first), oracle(&first));
        let col = peek(&e, 0);
        for (k, &born) in born.iter().enumerate() {
            let (shard, _) = col.resident(k).expect("first touch builds every shard");
            assert_eq!(
                shard.piece_count(),
                born + 2 * (k == 0) as usize,
                "shard {k}"
            );
            shard.check_invariants(None);
        }
        assert_eq!(e.total_pieces(), born.iter().sum::<usize>() + 2);

        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..200 {
            let a = rng.random_range(0..1_000_000);
            let b = rng.random_range(0..1_000_000);
            let q = QuerySpec {
                attr: 0,
                lo: a.min(b),
                hi: a.max(b),
            };
            assert_eq!(e.execute(&q), oracle(&q), "[{}, {})", q.lo, q.hi);
        }
        e.stop();
    }

    #[test]
    fn point_probes_match_oracle_and_absent_values_crack_nothing() {
        // Even values only: every odd probe is provably absent.
        let base: Vec<i64> = (0..40_000).map(|i| (i % 10_000) * 2).collect();
        let data = Dataset::new(vec![base.clone()]);
        // No workers: the piece counts compared below are the probes' own.
        let mut cfg = HolisticEngineConfig::split_half_sharded(4, 4);
        cfg.holistic.max_workers = Some(0);
        let e = HolisticEngine::new(data, cfg);
        // Warm the filters with one probe per shard region, then snapshot
        // the piece count: further absent probes must not crack.
        for v in [1i64, 6_001, 12_001, 18_001] {
            assert_eq!(
                e.execute(&QuerySpec {
                    attr: 0,
                    lo: v,
                    hi: v + 1
                }),
                0
            );
        }
        let col = e.sharded(0);
        let pieces = col.piece_count();
        for i in 0..500 {
            let v = i * 39 * 2 % 20_000 + 1; // odd → absent
            assert_eq!(
                e.execute(&QuerySpec {
                    attr: 0,
                    lo: v,
                    hi: v + 1
                }),
                0
            );
        }
        assert_eq!(
            col.piece_count(),
            pieces,
            "absent point probes cracked shards"
        );
        // Present values still count exactly (4 copies of each even value).
        for v in [0i64, 5_000, 19_998] {
            assert_eq!(
                e.execute(&QuerySpec {
                    attr: 0,
                    lo: v,
                    hi: v + 1
                }),
                4
            );
        }
        e.stop();
    }

    #[test]
    fn execute_points_counts_in_lists_with_duplicates() {
        let e = sharded_engine(1, 50_000, 4);
        let base = e.data.column(0).to_vec();
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..20 {
            let mut vals: Vec<i64> = (0..8).map(|_| rng.random_range(0..1_000_000)).collect();
            vals.push(vals[0]); // duplicate must not double-count
            let got = e.execute_points(0, &vals).unwrap();
            let mut dedup = vals.clone();
            dedup.sort_unstable();
            dedup.dedup();
            let want = base
                .iter()
                .filter(|v| dedup.binary_search(v).is_ok())
                .count() as u64;
            assert_eq!(got, want);
        }
        e.stop();
    }

    #[test]
    fn execute_conjunction_matches_base_table_oracle() {
        let e = sharded_engine(3, 50_000, 4);
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..20 {
            let terms: Vec<QuerySpec> = (0..3)
                .map(|attr| {
                    let a = rng.random_range(0..1_000_000);
                    let b = rng.random_range(0..1_000_000);
                    QuerySpec {
                        attr,
                        lo: a.min(b),
                        hi: a.max(b).max(a.min(b) + 1),
                    }
                })
                .collect();
            let got = e.execute_conjunction(&terms);
            let want = (0..e.data.rows())
                .filter(|&r| {
                    terms
                        .iter()
                        .all(|t| (t.lo..t.hi).contains(&e.data.column(t.attr)[r]))
                })
                .count() as u64;
            // Driver sets past the cap legitimately return None; these
            // selectivities stay far below it, so the result must be exact.
            assert_eq!(got, Some(want));
        }
        // One empty term empties the conjunction.
        let terms = vec![
            QuerySpec {
                attr: 0,
                lo: 0,
                hi: 1_000_000,
            },
            QuerySpec {
                attr: 1,
                lo: 500,
                hi: 500,
            },
        ];
        assert_eq!(e.execute_conjunction(&terms), Some(0));
        assert_eq!(e.execute_conjunction(&[]), Some(0));
        e.stop();
    }

    #[test]
    fn execute_collect_returns_qualifying_values() {
        let e = sharded_engine(1, 50_000, 3);
        let q = QuerySpec {
            attr: 0,
            lo: 250_000,
            hi: 750_000,
        };
        let mut want: Vec<i64> = e.data.column(0).to_vec();
        want.retain(|v| (q.lo..q.hi).contains(v));
        want.sort_unstable();
        let collect = |e: &HolisticEngine| {
            let SnapshotCollect::Values(mut got) = e.execute_collect_snapshot(&q) else {
                panic!("snapshot collect unavailable");
            };
            got.sort_unstable();
            got
        };
        assert_eq!(collect(&e), want, "cold attribute");
        // Locked executions crack inside and across the range, and an
        // accepted but unmerged insert sits in a pending buffer: the
        // collect serves the same values from whatever shape the snapshot
        // is in.
        for (lo, hi) in [(300_000, 400_000), (100_000, 600_000), (700_000, 900_000)] {
            e.execute(&QuerySpec { attr: 0, lo, hi });
        }
        e.queue_insert(0, 500_000, 1_000_000);
        want.insert(want.partition_point(|&v| v < 500_000), 500_000);
        assert_eq!(collect(&e), want, "cracked, one insert pending");
        e.stop();
        // A superset past COLLECT_CAP (64Ki values) is reported as
        // CapExceeded, not Unsupported: the service answers the run per
        // query without first copying the doomed superset.
        let big = sharded_engine(1, 80_000, 2);
        let wide = QuerySpec {
            attr: 0,
            lo: 0,
            hi: 1_000_000,
        };
        assert_eq!(
            big.execute_collect_snapshot(&wide),
            SnapshotCollect::CapExceeded
        );
        big.stop();
    }

    #[test]
    fn snapshot_execution_matches_locked_path_and_oracle() {
        let e = sharded_engine(2, 80_000, 4);
        let mut rng = StdRng::seed_from_u64(99);
        for i in 0..60 {
            let attr = rng.random_range(0..2);
            let a = rng.random_range(0..1_000_000);
            let b = rng.random_range(0..1_000_000);
            let q = QuerySpec {
                attr,
                lo: a.min(b),
                hi: a.max(b).max(a.min(b) + 1),
            };
            let oracle = scan_stats(e.data.column(attr), Predicate::range(q.lo, q.hi));
            let (count, sum) = e.execute_snapshot(&q).expect("holistic supports snapshots");
            assert_eq!((count, sum), (oracle.count, oracle.sum), "i={i}");
            // Interleave locked executions so cracks/merges race snapshots.
            assert_eq!(e.execute(&q), oracle.count, "i={i}");
        }
        e.stop();
    }

    #[test]
    fn snapshot_execution_sees_queued_updates() {
        let e = sharded_engine(1, 40_000, 3);
        let q = QuerySpec {
            attr: 0,
            lo: 0,
            hi: 1_000_000,
        };
        let oracle = scan_stats(e.data.column(0), Predicate::range(q.lo, q.hi));
        let (count, _) = e.execute_snapshot(&q).unwrap();
        assert_eq!(count, oracle.count);
        // Queue updates but never run a locked query: the snapshot overlay
        // must reflect them immediately.
        e.queue_insert(0, 17, 1_000_000);
        e.queue_insert(0, 999_983, 1_000_001);
        let (count, sum) = e.execute_snapshot(&q).unwrap();
        assert_eq!(count, oracle.count + 2);
        assert_eq!(sum, oracle.sum + 17 + 999_983);
        e.queue_delete(0, 17, 1_000_000);
        let (count, _) = e.execute_snapshot(&q).unwrap();
        assert_eq!(count, oracle.count + 1);
        e.stop();
    }

    #[test]
    fn routing_keys_are_shard_granular_and_stable() {
        let e = sharded_engine(2, 50_000, 4);
        let keys: Vec<u64> = [0i64, 300_000, 600_000, 900_000]
            .iter()
            .map(|&lo| {
                e.routing_key(&QuerySpec {
                    attr: 1,
                    lo,
                    hi: lo + 10,
                })
            })
            .collect();
        // Distinct shards for spread-out lows, all in attr 1's key range.
        let mut uniq = keys.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 4, "{keys:?}");
        assert!(keys.iter().all(|&k| (4..8).contains(&k)), "{keys:?}");
        // Stable across eviction/rebuild: keys derive from the plan only.
        let again: Vec<u64> = [0i64, 300_000, 600_000, 900_000]
            .iter()
            .map(|&lo| {
                e.routing_key(&QuerySpec {
                    attr: 1,
                    lo,
                    hi: lo + 10,
                })
            })
            .collect();
        assert_eq!(keys, again);
        e.stop();
    }

    #[test]
    fn decompose_parts_partition_and_sum_to_the_whole() {
        let e = sharded_engine(2, 60_000, 4);
        let mut rng = StdRng::seed_from_u64(71);
        for _ in 0..40 {
            let attr = rng.random_range(0..2);
            let a = rng.random_range(0..1_000_000);
            let b = rng.random_range(0..1_000_000);
            let q = QuerySpec {
                attr,
                lo: a.min(b),
                hi: a.max(b).max(a.min(b) + 1),
            };
            let oracle = scan_stats(e.data.column(attr), Predicate::range(q.lo, q.hi));
            match e.decompose(&q) {
                Some(parts) => {
                    assert!(parts.len() >= 2);
                    assert_eq!(parts[0].lo, q.lo);
                    assert_eq!(parts.last().unwrap().hi, q.hi);
                    for w in parts.windows(2) {
                        assert_eq!(w[0].hi, w[1].lo, "parts must partition the range");
                    }
                    // Every part confined to one routing key; keys ascend.
                    let keys: Vec<u64> = parts.iter().map(|p| e.routing_key(p)).collect();
                    let mut uniq = keys.clone();
                    uniq.dedup();
                    assert_eq!(uniq.len(), keys.len(), "parts share a routing key");
                    let sum: u64 = parts.iter().map(|p| e.execute(p)).sum();
                    assert_eq!(sum, oracle.count, "{q:?} decomposed {parts:?}");
                }
                None => {
                    // Single-shard range: nothing to decompose.
                    let col = peek(&e, q.attr);
                    let (first, last) = col.plan().shard_range(q.lo, q.hi).unwrap();
                    assert_eq!(first, last, "spanning {q:?} was not decomposed");
                }
            }
            assert_eq!(e.execute(&q), oracle.count);
        }
        e.stop();
    }

    #[test]
    fn estimate_cost_prices_hits_and_cold_attrs_without_building() {
        // No workers: a refinement republishing the stride-sampled boundary
        // table between the query and the estimate would unprice the hit.
        let e = quiet_engine(2, 50_000, 4);
        let q = QuerySpec {
            attr: 1,
            lo: 200_000,
            hi: 700_000,
        };
        // Cold attribute: expensive, and the estimate must NOT have
        // materialised the cracker column (no registry slot appears).
        let cold = e.estimate_cost(&q).unwrap();
        assert!(cold.crack_values >= 50_000);
        let (a, p, o, d) = e.space().membership_counts();
        assert_eq!(a + p + o + d, 0, "estimate_cost materialised a column");
        // Warm it, then the same predicate is an exact hit (every cracked
        // bound republished into the stats by the post-query publish).
        e.execute(&q);
        for k in 0..4 {
            e.sharded(1).shard(k).publish_stats();
        }
        let warm = e.estimate_cost(&q).unwrap();
        assert!(warm.exact_hit, "repeat predicate should price as exact hit");
        assert_eq!(warm.crack_values, 0);
        assert!(warm.shards_touched >= 2, "spanning estimate folds shards");
        assert!(cold.crack_values > warm.crack_values);
        e.stop();

        // A partially resident attribute: the built shard is priced from
        // its statistics, each empty one as its own rebuild — its base
        // rows, not the attribute's — and still nothing is built.
        let e = partially_resident_engine();
        let col = peek(&e, 1);
        let empty_rows: usize = (1..4).map(|k| col.shard_rows(k).unwrap()).sum();
        let registered = e.space().membership_counts();
        let all = QuerySpec {
            attr: 1,
            lo: 0,
            hi: 1_000_000,
        };
        let cost = e.estimate_cost(&all).unwrap();
        assert_eq!(cost.shards_touched, 4);
        assert!(
            (empty_rows as u64..=50_000).contains(&cost.crack_values),
            "three empty shards of {empty_rows} rows priced {}",
            cost.crack_values
        );
        assert_eq!(e.space().membership_counts(), registered);
        assert!(
            (1..4).all(|k| peek(&e, 1).resident(k).is_none()),
            "estimate_cost built a shard"
        );
        e.stop();
    }

    #[test]
    fn estimate_cost_takes_no_structure_or_maintenance_lock() {
        // The acceptance bar: plan-time estimates complete while the
        // daemon's weight-heap mutex, a shard's structure write lock and
        // that shard's pending mutex are all held by another thread.
        let e = Arc::new(sharded_engine(1, 40_000, 4));
        let q = QuerySpec {
            attr: 0,
            lo: 0,
            hi: 1_000_000,
        };
        e.execute(&q); // build + publish stats
        let col = e.sharded(0);
        let _structure = col.shard(1).hold_locks_for_test();
        let _heap = e.space().hold_maintenance_lock_for_test();
        let (tx, rx) = std::sync::mpsc::channel();
        let probe = Arc::clone(&e);
        std::thread::spawn(move || {
            // Touches every shard, including the write-locked one.
            let cost = probe.estimate_cost(&q);
            let _ = tx.send(cost);
        });
        let cost = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("estimate_cost blocked on a structure, pending or maintenance lock")
            .expect("holistic engine keeps plan statistics");
        assert_eq!(cost.shards_touched, 4);
        drop(_structure);
        drop(_heap);
        e.stop();

        // The same on one built and three empty cells, under a budget
        // (liveness is a registry membership load, not a lock on the heap).
        let e = Arc::new(partially_resident_engine());
        let col = peek(&e, 1);
        let _structure = col.shard(0).hold_locks_for_test();
        let _heap = e.space().hold_maintenance_lock_for_test();
        let (tx, rx) = std::sync::mpsc::channel();
        let probe = Arc::clone(&e);
        std::thread::spawn(move || {
            let _ = tx.send(probe.estimate_cost(&QuerySpec { attr: 1, ..q }));
        });
        let cost = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("estimate_cost blocked on a partially resident attribute")
            .expect("holistic engine keeps plan statistics");
        assert_eq!(cost.shards_touched, 4);
        drop(_structure);
        drop(_heap);
        e.stop();
    }

    #[test]
    fn daemon_refines_beyond_query_driven_cracks() {
        let q = QuerySpec {
            attr: 0,
            lo: 100,
            hi: 200_000,
        };
        // What the query makes by itself (first-touch buckets plus its two
        // cracks), read where no worker can add to it: the bound must not
        // depend on whether the daemon or this thread ran first.
        let alone = quiet_engine(2, 200_000, 1);
        alone.execute(&q);
        let after_query = alone.total_pieces();
        alone.stop();
        // One query creates the index; then let the daemon work.
        let e = engine(2, 200_000);
        e.execute(&q);
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while e.total_pieces() <= after_query + 10 {
            assert!(
                std::time::Instant::now() < deadline,
                "daemon inactive: still at {} pieces",
                e.total_pieces()
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        let cycles = e.stop();
        assert!(cycles.iter().map(|c| c.refinements).sum::<u64>() > 10);
    }

    #[test]
    fn potential_indices_refined_before_first_query() {
        let e = engine(4, 100_000);
        e.add_potential(&[0, 1, 2, 3]);
        // The daemon is already running and may graduate a potential index
        // (to actual or optimal) before this thread gets scheduled again, so
        // assert on the total tracked rather than racing it on `potential`.
        let (actual, potential, optimal, dropped) = e.space().membership_counts();
        assert_eq!(
            actual + potential + optimal,
            4,
            "all four attrs tracked (a={actual} p={potential} o={optimal} d={dropped})"
        );
        // Bounded wait: under test-runner contention the daemon thread may
        // be scheduled late, so poll instead of sleeping a fixed interval.
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while e.total_pieces() <= 12 {
            assert!(
                std::time::Instant::now() < deadline,
                "potential indices not refined"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        // First query on a potential attr promotes it to actual — unless the
        // daemon already drove it all the way to optimal, which also removes
        // it from C_potential.
        e.execute(&QuerySpec {
            attr: 2,
            lo: 0,
            hi: 500,
        });
        let (actual, potential, optimal, _) = e.space().membership_counts();
        assert!(
            actual + optimal >= 1,
            "queried index neither actual nor optimal"
        );
        assert!(potential <= 3, "queried index still potential");
        e.stop();
    }

    #[test]
    fn eviction_and_recreation_under_budget() {
        let data = Dataset::new(uniform_table(3, 50_000, 1_000_000, 4));
        let mut cfg = HolisticEngineConfig::split_half(2);
        cfg.holistic.monitor_interval = Duration::from_millis(1);
        // Room for one 50k-row column and three quarters of another.
        cfg.holistic.storage_budget = Some(50_000 * TUPLE * 7 / 4);
        let e = HolisticEngine::new(data, cfg);
        for attr in 0..3 {
            let q = QuerySpec {
                attr,
                lo: 0,
                hi: 1_000,
            };
            assert_eq!(
                e.execute(&q),
                scan_stats(e.data.column(attr), Predicate::range(0, 1_000)).count
            );
        }
        let (_, _, _, dropped) = e.space().membership_counts();
        assert!(dropped >= 2, "budget never evicted (dropped={dropped})");
        // Queries on evicted attributes still answer correctly (re-created).
        for attr in 0..3 {
            let q = QuerySpec {
                attr,
                lo: 500_000,
                hi: 600_000,
            };
            assert_eq!(
                e.execute(&q),
                scan_stats(e.data.column(attr), Predicate::range(500_000, 600_000)).count
            );
        }
        e.stop();
    }

    #[test]
    fn narrow_query_under_pressure_admits_one_shard_not_the_attribute() {
        let e = partially_resident_engine();
        let shard_bytes = 50_000 / 4 * TUPLE;
        // Attribute 0 went in whole (nothing had to go for it) ...
        let col0 = peek(&e, 0);
        assert!((0..4).all(|k| live(&col0, k).is_some()));
        // ... attribute 1 as the one shard its query touched.
        let col1 = peek(&e, 1);
        assert!(live(&col1, 0).is_some());
        assert!((1..4).all(|k| col1.resident(k).is_none()));
        assert_eq!(records(&e), 5);
        assert_eq!(e.space().membership_counts().3, 0, "nothing was evicted");
        // The next narrow query, on another cold shard, costs the budget
        // about one shard — not the four of its attribute.
        let before = e.space().bytes_used();
        let q = QuerySpec {
            attr: 1,
            lo: 900_000,
            hi: 910_000,
        };
        let oracle = scan_stats(e.data.column(1), Predicate::range(q.lo, q.hi));
        assert_eq!(e.execute(&q), oracle.count);
        // (Making room for it may have evicted an untouched shard.)
        let evicted = e.space().membership_counts().3 * shard_bytes;
        let grown = e.space().bytes_used() + evicted - before;
        assert!(
            (shard_bytes * 3 / 4..shard_bytes * 3 / 2).contains(&grown),
            "one {shard_bytes}-byte shard admitted, {grown} bytes charged"
        );
        assert_eq!(records(&e), live_cells(&e));
        e.stop();
    }

    #[test]
    fn partial_eviction_rebuilds_only_the_dropped_shard() {
        // Two 400 KB attributes in two shards under a budget of 1.4 of
        // them. Attribute 0 goes in whole; the narrow read on attribute 1
        // finds room for neither the attribute nor its 200 KB shard, so
        // one shard is admitted and the least-queried entry — attribute
        // 0's never-queried upper shard — is evicted for it.
        let budget = 50_000 * TUPLE * 14 / 10;
        let data = Dataset::new(uniform_table(2, 50_000, 1_000_000, 6));
        let mut cfg = HolisticEngineConfig::split_half_sharded(2, 2);
        cfg.holistic.max_workers = Some(0);
        cfg.holistic.storage_budget = Some(budget);
        let e = HolisticEngine::new(data, cfg);
        let exact = |q: QuerySpec| {
            let oracle = scan_stats(e.data.column(q.attr), Predicate::range(q.lo, q.hi));
            assert_eq!(e.execute(&q), oracle.count, "{q:?}");
        };
        // Three reads crack attribute 0's lower shard and make it hot.
        for lo in [10_000, 30_000, 50_000] {
            exact(QuerySpec {
                attr: 0,
                lo,
                hi: lo + 10_000,
            });
        }
        exact(QuerySpec {
            attr: 1,
            lo: 10_000,
            hi: 20_000,
        });
        let before = peek(&e, 0);
        let (survivor, survivor_slot) = live(&before, 0).expect("the hot shard survives");
        let (_, dropped_slot) = before.resident(1).expect("attribute 0 was built whole");
        assert!(
            dropped_slot.is_dropped(),
            "the never-queried shard is the LFU victim"
        );
        let pieces = survivor.piece_count();
        assert!(pieces > 1);
        // A read of the dropped range rebuilds that shard alone: the
        // survivor keeps its column (cracks, snapshots, filters), its
        // record and its pieces; only the dropped shard gets a new column
        // and a new registry record.
        exact(QuerySpec {
            attr: 0,
            lo: 900_000,
            hi: 910_000,
        });
        let after = peek(&e, 0);
        let (kept, kept_slot) = live(&after, 0).expect("survivor still live");
        assert!(Arc::ptr_eq(kept, survivor), "the survivor was rebuilt");
        assert!(Arc::ptr_eq(kept_slot, survivor_slot));
        assert_eq!(kept.piece_count(), pieces);
        let (rebuilt, rebuilt_slot) = live(&after, 1).expect("dropped shard is back");
        assert!(!Arc::ptr_eq(rebuilt, before.shard(1)));
        assert!(!Arc::ptr_eq(rebuilt_slot, dropped_slot));
        // More churn across both attributes stays exact, and every live
        // registry record is a cell the engine holds: no orphan pins bytes
        // the budget cannot see, no cell feeds the daemon a dead column.
        for i in 0..6 {
            for attr in 0..2 {
                let lo = 100_000 + ((i * 450_007 + attr as i64 * 200_003) % 800_000);
                exact(QuerySpec {
                    attr,
                    lo,
                    hi: lo + 5_000,
                });
            }
        }
        assert_eq!(records(&e), live_cells(&e));
        assert!(
            e.space().bytes_used() <= budget + 64 * 1024,
            "live bytes exceed the budget by more than index growth"
        );
        e.stop();
    }

    #[test]
    fn evicted_driver_shard_rebuilds_its_row_ids_for_the_next_conjunction() {
        // Two 400 KB attributes in two shards under a budget of 1.4 of
        // them, no daemon workers.
        let data = Dataset::new(uniform_table(2, 50_000, 1_000_000, 8));
        let mut cfg = HolisticEngineConfig::split_half_sharded(2, 2);
        cfg.holistic.max_workers = Some(0);
        cfg.holistic.storage_budget = Some(50_000 * TUPLE * 14 / 10);
        let e = HolisticEngine::new(data, cfg);
        let read = |attr: usize, lo: i64| {
            let q = QuerySpec {
                attr,
                lo,
                hi: lo + 5_000,
            };
            let oracle = scan_stats(e.data.column(attr), Predicate::range(q.lo, q.hi));
            assert_eq!(e.execute(&q), oracle.count, "{q:?}");
        };
        // Driven by its first, narrow term: attribute 0's lower shard.
        let conjunction = || {
            let terms = [
                QuerySpec {
                    attr: 0,
                    lo: 10_000,
                    hi: 15_000,
                },
                QuerySpec {
                    attr: 1,
                    lo: 0,
                    hi: 600_000,
                },
            ];
            let want = (0..e.data.rows())
                .filter(|&r| {
                    terms
                        .iter()
                        .all(|t| (t.lo..t.hi).contains(&e.data.column(t.attr)[r]))
                })
                .count() as u64;
            assert_eq!(e.execute_conjunction(&terms), Some(want));
        };
        // Attribute 0 goes in whole and without row ids; the conjunction
        // builds those of the shard it drives from, and the budget sees
        // them without being told.
        read(0, 900_000);
        let whole = peek(&e, 0);
        assert!(whole.resident_shards().all(|s| !s.has_row_ids()));
        let charged = e.space().bytes_used();
        conjunction();
        let (driver, _) = live(&whole, 0).expect("resident");
        assert!(driver.has_row_ids() && !whole.shard(1).has_row_ids());
        assert!(
            e.space().bytes_used() >= charged + driver.len() * std::mem::size_of::<RowId>(),
            "the row ids are not charged"
        );
        let old_driver = Arc::downgrade(driver);
        drop(whole);
        // Attribute 1 shard by shard, its lower shard hot: the two
        // admissions evict attribute 0's two once-read shards.
        for lo in [10_000, 30_000, 50_000, 70_000] {
            read(1, lo);
        }
        read(1, 900_000);
        assert!(live(&peek(&e, 0), 0).is_none(), "the driver shard survived");
        // The next conjunction rebuilds the shard from the base — values
        // only — and then its row ids, and is exact; the evicted column
        // went with its cell, ids and all.
        conjunction();
        let after = peek(&e, 0);
        let (rebuilt, _) = live(&after, 0).expect("the driver shard is back");
        assert!(rebuilt.has_row_ids());
        assert!(
            old_driver.upgrade().is_none(),
            "the evicted column lives on"
        );
        conjunction();
        assert_eq!(records(&e), live_cells(&e));
        e.stop();
    }

    #[test]
    fn shard_admissions_race_without_orphans() {
        // Four threads, each on its own shard of three cold attributes,
        // under a budget of one attribute: admissions, evictions and
        // vacated-cell swaps of one attribute race each other all the
        // time. Every answer must be exact, and at quiesce the registry's
        // live records are exactly the cells the engine holds.
        const QUERIES: usize = 2_000;
        let rows = 20_000;
        let data = Dataset::new(uniform_table(3, rows, 1_000_000, 9));
        let sorted = sorted_columns(&data);
        let mut cfg = HolisticEngineConfig::split_half_sharded(4, 4);
        cfg.holistic.monitor_interval = Duration::from_millis(1);
        cfg.holistic.storage_budget = Some(rows * TUPLE);
        let e = HolisticEngine::new(data, cfg);
        let failed = AtomicBool::new(false);
        let done = std::sync::atomic::AtomicUsize::new(0);
        // A thread that panics must not leave the others (or the main
        // loop) running to the deadline.
        struct PanicGuard<'a>(&'a AtomicBool);
        impl Drop for PanicGuard<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.0.store(true, Ordering::Relaxed);
                }
            }
        }
        std::thread::scope(|s| {
            let clients: Vec<_> = (0..4i64)
                .map(|t| {
                    let (e, sorted, failed, done) = (&e, &sorted, &failed, &done);
                    s.spawn(move || {
                        let _guard = PanicGuard(failed);
                        let mut rng = StdRng::seed_from_u64(40 + t as u64);
                        for i in 0..QUERIES {
                            if failed.load(Ordering::Relaxed) {
                                return;
                            }
                            // Well inside shard `t` of every attribute
                            // (the equi-depth cuts of a uniform column
                            // sit near the quarter points).
                            let lo = t * 250_000 + rng.random_range(20_000..200_000);
                            let q = QuerySpec {
                                attr: i % 3,
                                lo,
                                hi: lo + rng.random_range(1..20_000),
                            };
                            let want = count_in(sorted, &q);
                            let got = match i % 4 {
                                0 => e.execute_snapshot(&q).unwrap().0,
                                _ => e.execute(&q),
                            };
                            assert_eq!(got, want, "thread {t} query {i} {q:?}");
                        }
                        done.fetch_add(1, Ordering::Relaxed);
                    })
                })
                .collect();
            // No wait without a deadline: a wedged admission fails the
            // test instead of hanging the suite.
            let deadline = std::time::Instant::now() + Duration::from_secs(120);
            while done.load(Ordering::Relaxed) < 4
                && !failed.load(Ordering::Relaxed)
                && std::time::Instant::now() < deadline
            {
                std::thread::sleep(Duration::from_millis(5));
            }
            let finished = done.load(Ordering::Relaxed);
            failed.store(true, Ordering::Relaxed); // a thread still running leaves
            for client in clients {
                // Re-raise a client's own panic (with its message).
                if let Err(panic) = client.join() {
                    std::panic::resume_unwind(panic);
                }
            }
            assert_eq!(finished, 4, "only {finished} of 4 threads done in 120 s");
        });
        assert!(e.space().membership_counts().3 > 0, "the budget never bit");
        assert_eq!(records(&e), live_cells(&e));
        e.stop();
    }

    /// ROADMAP direction 3(b): no cost may grow with uptime. One budgeted
    /// engine serves narrow reads cycling over three times the shards its
    /// budget holds, so most reads rebuild an evicted shard and evict
    /// another: thousands of registrations on one `IndexSpace`. The space
    /// must hold a record per live cell and nothing else, the dropped
    /// counter must equal the evictions this side saw, and a cold read
    /// must cost at the end what it cost at the start.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "timing assertion: run with --release")]
    fn uptime_soak_keeps_cold_reads_and_the_registry_flat() {
        const OPS: usize = 32_000;
        const WINDOW: usize = 4_000;
        let (attrs, rows, shards) = (18, 1 << 16, 4);
        let data = Dataset::new(uniform_table(attrs, rows, 1_000_000, 19));
        let sorted = sorted_columns(&data);
        let mut cfg = HolisticEngineConfig::split_half_sharded(2, shards);
        cfg.holistic.monitor_interval = Duration::from_millis(1);
        // A third of the shards.
        cfg.holistic.storage_budget = Some(attrs * rows * TUPLE / 3);
        let e = HolisticEngine::new(data, cfg);
        let deadline = std::time::Instant::now() + Duration::from_secs(300);
        let mut rng = StdRng::seed_from_u64(23);
        // Dropped records still sitting in a cell, by address; holding the
        // `Arc` keeps an address from being reused.
        let mut evicted: std::collections::HashMap<*const IndexSlot, Arc<IndexSlot>> =
            std::collections::HashMap::new();
        let mut cold_ns: Vec<Vec<u64>> = vec![Vec::new(); OPS / WINDOW];
        for i in 0..OPS {
            assert!(
                std::time::Instant::now() < deadline,
                "soak at op {i} of {OPS} after 300 s"
            );
            let lo = rng.random_range(0..990_000);
            let q = QuerySpec {
                attr: i % attrs,
                lo,
                hi: lo + rng.random_range(1..10_000),
            };
            let want = count_in(&sorted, &q);
            let (a, p, o, d) = e.space().membership_counts();
            let t0 = std::time::Instant::now();
            let got = e.execute(&q);
            let ns = t0.elapsed().as_nanos() as u64;
            assert_eq!(got, want, "op {i} {q:?}");
            let (a2, p2, o2, d2) = e.space().membership_counts();
            if a2 + p2 + o2 + d2 > a + p + o + d {
                cold_ns[i / WINDOW].push(ns); // the read built a shard
            }
            let mut cells = 0;
            for attr in 0..attrs {
                let col = peek(&e, attr);
                for k in 0..col.shard_count() {
                    match col.resident(k) {
                        Some((_, slot)) if slot.is_dropped() => {
                            evicted.insert(Arc::as_ptr(slot), Arc::clone(slot));
                        }
                        Some(_) => cells += 1,
                        None => {}
                    }
                }
            }
            assert_eq!(a2 + p2 + o2, cells, "op {i}: records held vs live cells");
            assert_eq!(
                d2,
                evicted.len(),
                "op {i}: dropped counter vs evictions seen"
            );
        }
        e.stop();
        let cold: usize = cold_ns.iter().map(Vec::len).sum();
        assert!(cold * 2 > OPS, "only {cold} of {OPS} reads were cold");
        assert!(evicted.len() > OPS / 2, "{} evictions", evicted.len());
        // The 1st percentile of a window's ~3k cold reads: what one costs
        // when the neighbours on this machine are quiet (the quartiles move
        // ±20 % with their load; a registry walk that grows moves this).
        let mut costs = cold_ns.iter_mut().map(|w| {
            w.sort_unstable();
            w[w.len() / 100]
        });
        let first = costs.next().expect("at least one window");
        // The cheapest of the last three windows: growth with uptime never
        // comes back down, a neighbour's burst does.
        let last = costs.skip(OPS / WINDOW - 4).min().expect("three more");
        assert!(
            last * 4 <= first * 5,
            "a cold read costs {last} ns after {OPS} ops, {first} ns in the first {WINDOW}"
        );
    }

    /// Count and sum of a multiset over `0..domain` under inserts and
    /// deletes: the write soak's oracle.
    struct Fenwick {
        count: Vec<i64>,
        sum: Vec<i64>,
    }

    impl Fenwick {
        fn new(domain: i64) -> Self {
            Fenwick {
                count: vec![0; domain as usize + 1],
                sum: vec![0; domain as usize + 1],
            }
        }

        fn add(&mut self, v: i64, sign: i64) {
            let mut i = v as usize + 1;
            while i < self.count.len() {
                self.count[i] += sign;
                self.sum[i] += sign * v;
                i += i & i.wrapping_neg();
            }
        }

        /// Count and sum of the values below `v`.
        fn below(&self, v: i64) -> (i64, i64) {
            let (mut i, mut count, mut sum) = (v as usize, 0, 0);
            while i > 0 {
                count += self.count[i];
                sum += self.sum[i];
                i &= i - 1;
            }
            (count, sum)
        }

        fn in_range(&self, lo: i64, hi: i64) -> (u64, i128) {
            let ((c1, s1), (c0, s0)) = (self.below(hi), self.below(lo));
            ((c1 - c0) as u64, (s1 - s0) as i128)
        }
    }

    /// ROADMAP direction 1(a), the write half of the soak above. One engine
    /// takes 3 × 10⁵ operations of the benchmark's `update_churn` mix —
    /// narrow range reads around fresh writes, IN-lists, snapshot scans,
    /// inserts, deletes and a 500-insert burst every 2 000 operations —
    /// with **unquantised** read bounds, so the piece table never
    /// converges: every read may add two boundaries (12.9k pieces after the
    /// first 10⁴ operations, 264k at the end). Every read is checked
    /// against a Fenwick oracle.
    ///
    /// What it pins is the price of a read that merges pending writes. A
    /// Ripple merge moves one element per merged value in every piece
    /// downstream of the value, so that price cannot be flat in the piece
    /// count; what can be held is its slope. The floor (first quartile) of
    /// a merging read over the last 10⁴ operations, against the first 10⁴,
    /// may grow at most twice as fast as the piece table did in between.
    /// Measured on the 2-vCPU reference box: 30 → 590–670 µs over a
    /// 20.5-fold piece growth (20–22×, about once the piece growth, ≈ 19 ns
    /// per boundary of the shard) with the batch kernel; 32 → 2 690 µs
    /// (84×, four times the piece growth, ≈ 85 ns per boundary) at its
    /// parent, which walked every boundary once per merged value.
    ///
    /// The point filters' rebuild cadence rides along: a shard rebuilds
    /// its filter once the deletes queued since the last build reach a
    /// quarter of its length, so rebuilds are at most linear in deletes.
    /// (On this mix — two inserts per delete and the bursts — no shard
    /// ever gets there: the bound holds at zero rebuilds.)
    #[test]
    #[cfg_attr(debug_assertions, ignore = "timing assertion: run with --release")]
    fn write_soak_merging_reads_grow_no_faster_than_the_piece_table() {
        const OPS: usize = 300_000;
        const WINDOW: usize = 10_000;
        /// How much faster than the piece table the floor may grow.
        const SLOPE: u64 = 2;
        let (attrs, rows, shards) = (2, 1 << 18, 4);
        let domain = 2 * rows as i64;
        let data = Dataset::new(uniform_table(attrs, rows, domain, 29));
        let base: Vec<Vec<i64>> = (0..attrs).map(|a| data.column(a).to_vec()).collect();
        let mut cfg = HolisticEngineConfig::split_half_sharded(2, shards);
        cfg.holistic.monitor_interval = Duration::from_millis(1);
        let e = HolisticEngine::new(data, cfg);
        let mut rng = StdRng::seed_from_u64(31);

        let mut oracle: Vec<Fenwick> = (0..attrs).map(|_| Fenwick::new(domain)).collect();
        for (tree, col) in oracle.iter_mut().zip(&base) {
            col.iter().for_each(|&v| tree.add(v, 1));
        }
        let hot: Vec<i64> = (0..2048).map(|_| rng.random_range(0..domain)).collect();
        let mut base_deleted = vec![vec![false; rows]; attrs];
        let mut inserted: Vec<Vec<(i64, RowId)>> = vec![Vec::new(); attrs];
        let mut recent: Vec<Vec<i64>> = vec![Vec::new(); attrs];
        let mut next_row = rows as RowId;
        let mut deletes = 0usize;

        let pending = |e: &HolisticEngine, attr: usize| -> usize {
            peek(e, attr)
                .resident_shards()
                .map(|shard| shard.pending_len())
                .sum()
        };
        // The published filter of every shard, by address: a change after
        // the first is a rebuild.
        let mut filters: Vec<Option<Arc<holix_cracking::PointFilter>>> = vec![None; attrs * shards];
        let mut rebuilds = 0usize;
        let mut merging_ns: Vec<Vec<u64>> = vec![Vec::new(); OPS / WINDOW];
        let mut first_pieces = 0;

        let deadline = std::time::Instant::now() + Duration::from_secs(600);
        let mut i = 0;
        while i < OPS {
            assert!(
                std::time::Instant::now() < deadline,
                "soak at op {i} of {OPS} after 600 s"
            );
            let attr = rng.random_range(0..attrs);
            let mut insert = |e: &HolisticEngine, rng: &mut StdRng| {
                let v = rng.random_range(0..domain);
                oracle[attr].add(v, 1);
                inserted[attr].push((v, next_row));
                if recent[attr].len() == 64 {
                    recent[attr].remove(0);
                }
                recent[attr].push(v);
                e.queue_insert(attr, v, next_row);
                next_row += 1;
            };
            if i > 0 && i % 2_000 == 0 {
                for _ in 0..500 {
                    insert(&e, &mut rng);
                }
            }
            match rng.random_range(0..100) {
                0..=49 => {
                    let centre = if !recent[attr].is_empty() && rng.random_bool(0.7) {
                        recent[attr][rng.random_range(0..recent[attr].len())]
                    } else {
                        rng.random_range(0..domain)
                    };
                    let width = rng.random_range(1..=domain / 512);
                    let lo = (centre - rng.random_range(0..width)).clamp(0, domain - width);
                    let q = QuerySpec {
                        attr,
                        lo,
                        hi: lo + width,
                    };
                    let want = oracle[attr].in_range(q.lo, q.hi).0;
                    let queued = pending(&e, attr);
                    let t0 = std::time::Instant::now();
                    let got = e.execute(&q);
                    let ns = t0.elapsed().as_nanos() as u64;
                    assert_eq!(got, want, "op {i} {q:?}");
                    if pending(&e, attr) < queued {
                        merging_ns[i / WINDOW].push(ns);
                    }
                }
                50..=64 => {
                    let keys: Vec<i64> = (0..rng.random_range(1..=8))
                        .map(|_| hot[rng.random_range(0..hot.len())])
                        .collect();
                    let mut distinct = keys.clone();
                    distinct.sort_unstable();
                    distinct.dedup();
                    let want: u64 = distinct
                        .iter()
                        .map(|&k| oracle[attr].in_range(k, k + 1).0)
                        .sum();
                    assert_eq!(e.execute_points(attr, &keys), Some(want), "op {i} {keys:?}");
                }
                65..=69 => {
                    let width = rng.random_range(domain / 20..domain / 5);
                    let lo = rng.random_range(0..domain - width);
                    let q = QuerySpec {
                        attr,
                        lo,
                        hi: lo + width,
                    };
                    let want = oracle[attr].in_range(q.lo, q.hi);
                    assert_eq!(e.execute_snapshot(&q), Some(want), "op {i} {q:?}");
                }
                70..=89 => insert(&e, &mut rng),
                _ => {
                    let (v, row) = if !inserted[attr].is_empty() && rng.random_bool(0.5) {
                        let k = rng.random_range(0..inserted[attr].len());
                        inserted[attr].swap_remove(k)
                    } else {
                        let mut row = rng.random_range(0..rows);
                        while std::mem::replace(&mut base_deleted[attr][row], true) {
                            row = (row + 1) % rows;
                        }
                        (base[attr][row], row as RowId)
                    };
                    oracle[attr].add(v, -1);
                    e.queue_delete(attr, v, row);
                    deletes += 1;
                }
            }
            i += 1;
            if i % 64 == 0 {
                for a in 0..attrs {
                    let col = peek(&e, a);
                    for k in 0..col.shard_count() {
                        let now = col.resident(k).and_then(|(shard, _)| shard.point_filter());
                        let seen = &mut filters[a * shards + k];
                        if let (Some(old), Some(new)) = (seen.as_ref(), now.as_ref()) {
                            rebuilds += usize::from(!Arc::ptr_eq(old, new));
                        }
                        *seen = now;
                    }
                }
            }
            if i == WINDOW {
                first_pieces = e.total_pieces();
            }
        }
        let last_pieces = e.total_pieces();
        e.stop();

        let merges: usize = merging_ns.iter().map(Vec::len).sum();
        assert!(merges * 4 > OPS, "only {merges} of {OPS} operations merged");
        assert!(
            last_pieces >= 8 * first_pieces,
            "the piece table grew from {first_pieces} to {last_pieces} only"
        );
        let mut floors = merging_ns.iter_mut().map(|w| {
            w.sort_unstable();
            w[w.len() / 4]
        });
        let first = floors.next().expect("at least one window");
        // The cheapest of the last three windows, as in the soak above: a
        // neighbour's burst comes back down, growth with uptime does not.
        let last = floors.skip(OPS / WINDOW - 4).min().expect("three more");
        assert!(
            last * first_pieces as u64 <= SLOPE * first * last_pieces as u64,
            "a merging read costs {last} ns after {OPS} ops, {first} ns in the first {WINDOW} \
             (pieces {first_pieces} -> {last_pieces})"
        );
        // A rebuild needs a quarter of its shard's length in deletes, and
        // no shard ever holds less than half of what it was born with.
        let born = rows / shards;
        assert!(
            rebuilds * (born / 2 / 4) <= deletes,
            "{rebuilds} filter rebuilds for {deletes} deletes on shards of {born}"
        );
    }

    #[test]
    fn add_potential_rebuilds_dropped_shards_and_leaves_live_ones() {
        // Three 400 KB attributes in two shards, a budget of two of them
        // and a fifth.
        let data = Dataset::new(uniform_table(3, 50_000, 1_000_000, 5));
        let mut cfg = HolisticEngineConfig::split_half_sharded(2, 2);
        cfg.holistic.max_workers = Some(0);
        cfg.holistic.storage_budget = Some(50_000 * TUPLE * 22 / 10);
        let e = HolisticEngine::new(data, cfg);
        e.add_potential(&[0, 1, 2]);
        // Speculating on the third attribute evicted the oldest entries:
        // attribute 0's shards. Attributes 1 and 2 are live.
        let dropped = peek(&e, 0);
        assert!((0..2).all(|k| dropped.resident(k).is_some() && live(&dropped, k).is_none()));
        let live_before = peek(&e, 2);
        assert_eq!(e.space().membership_counts().3, 2);
        assert_eq!(records(&e), live_cells(&e));
        // Speculating again must see through the occupied-but-dead cells
        // of attribute 0 and rebuild them under new records, and must not
        // touch an attribute whose shards are all live.
        e.add_potential(&[2, 0]);
        let rebuilt = peek(&e, 0);
        for k in 0..2 {
            let (shard, slot) = live(&rebuilt, k).expect("dropped shard re-registered");
            assert!(!Arc::ptr_eq(shard, dropped.shard(k)));
            assert!(!Arc::ptr_eq(slot, dropped.resident(k).unwrap().1));
        }
        assert!(
            Arc::ptr_eq(&peek(&e, 2), &live_before),
            "a live attribute was rebuilt"
        );
        assert_eq!(records(&e), live_cells(&e));
        // And every attribute still answers queries correctly.
        for attr in 0..3 {
            let q = QuerySpec {
                attr,
                lo: 0,
                hi: 1_000,
            };
            assert_eq!(
                e.execute(&q),
                scan_stats(e.data.column(attr), Predicate::range(0, 1_000)).count
            );
        }
        e.stop();
    }

    #[test]
    fn stop_is_idempotent() {
        let e = engine(1, 10_000);
        e.stop();
        assert!(e.stop().is_empty());
    }

    #[test]
    fn forced_split_and_merge_preserve_results_across_plan_versions() {
        let e = sharded_engine(1, 40_000, 4);
        let q = QuerySpec {
            attr: 0,
            lo: 100_000,
            hi: 900_000,
        };
        let oracle = scan_stats(e.data.column(0), Predicate::range(q.lo, q.hi)).count;
        assert_eq!(e.execute(&q), oracle);
        assert_eq!(e.plan_version(0), 0);
        let old_col = e.sharded(0);

        assert!(e.force_replan(0, ReplanAction::Split { shard: 1 }));
        assert_eq!(e.plan_version(0), 1);
        assert_eq!(e.replan_count(), 1);
        assert_eq!(e.sharded(0).shard_count(), 5);
        assert_eq!(e.execute(&q), oracle, "results survive the split");

        // A query holding the old plan (it cloned the column before the
        // cutover) still completes correctly: the sealed predecessor
        // drained its backlog and stays readable.
        assert_eq!(old_col.version(), 0);
        SCRATCH.with(|s| {
            let (_, stats) =
                old_col.select_verified(Predicate::range(q.lo, q.hi), &mut s.borrow_mut());
            assert_eq!(stats.count, oracle, "old-plan reader sees exact data");
        });

        // Updates queued across the replan land in the successor (the
        // sealed shard rejects, the engine retries) and stay countable.
        e.queue_insert(0, 500_000, 1_000_000);
        assert_eq!(e.execute(&q), oracle + 1);

        assert!(e.force_replan(0, ReplanAction::Merge { left: 1 }));
        assert_eq!(e.plan_version(0), 2);
        assert_eq!(e.sharded(0).shard_count(), 4);
        assert_eq!(e.execute(&q), oracle + 1, "results survive the merge");

        // Registry bookkeeping: every live record belongs to the current
        // column — the split retired one shard, the merge two.
        assert_eq!(records(&e), live_cells(&e));
        assert_eq!(e.space().membership_counts().3, 3);
        e.stop();
    }

    #[test]
    fn replan_policy_splits_a_pending_hot_spot() {
        let e = sharded_engine(1, 40_000, 4);
        let q = QuerySpec {
            attr: 0,
            lo: 0,
            hi: 1_000_000,
        };
        let oracle = scan_stats(e.data.column(0), Predicate::range(q.lo, q.hi)).count;
        assert_eq!(e.execute(&q), oracle);
        assert_eq!(e.maybe_replan(0), None, "balanced plan: policy is quiet");
        // Pile pending inserts into shard 0's value range: the backlog
        // makes it hot before a single update is merged.
        let col = e.sharded(0);
        let cut = col.plan().cuts()[0];
        let n = 90_000u64;
        for i in 0..n {
            e.queue_insert(0, (i as i64) % cut.max(1), 1_000_000 + i as u32);
        }
        for k in 0..col.shard_count() {
            col.shard(k).publish_stats();
        }
        assert_eq!(
            e.maybe_replan(0),
            Some(ReplanAction::Split { shard: 0 }),
            "pending skew must trip the split"
        );
        assert_eq!(e.plan_version(0), 1);
        assert_eq!(e.execute(&q), oracle + n, "backlog survives the migration");
        e.stop();
    }

    #[test]
    fn replanner_thread_rebalances_under_drift() {
        let data = Dataset::new(uniform_table(1, 40_000, 1_000_000, 11));
        // The replanning engine and a frozen twin, fed the same drift.
        let engine = |replan: bool| {
            let mut cfg = HolisticEngineConfig::split_half_sharded(4, 4);
            cfg.holistic.monitor_interval = Duration::from_millis(1);
            cfg.replan = replan;
            HolisticEngine::new(data.clone(), cfg)
        };
        let (e, frozen) = (engine(true), engine(false));
        // Max/mean shard weight over `len + pending`, read once the
        // engine has stopped (no merge moves tuples between the two reads).
        let skew = |e: &HolisticEngine| {
            let col = e.sharded(0);
            let loads: Vec<ShardLoad> = (0..col.shard_count())
                .map(|k| ShardLoad {
                    rows: col.shard(k).len(),
                    pending: col.shard(k).pending_len(),
                    access: 0,
                })
                .collect();
            holix_planner::load_skew(&loads)
        };
        let q = QuerySpec {
            attr: 0,
            lo: 0,
            hi: 1_000_000,
        };
        let oracle = scan_stats(e.data.column(0), Predicate::range(q.lo, q.hi)).count;
        assert_eq!(e.execute(&q), oracle);
        assert_eq!(frozen.execute(&q), oracle);
        // Drifted hot region: a pending pile-up in the last shard.
        let col = e.sharded(0);
        let lowest = *col.plan().cuts().last().unwrap();
        for i in 0..90_000u64 {
            for e in [&e, &frozen] {
                e.queue_insert(0, lowest + (i as i64 % 1_000), 1_000_000 + i as u32);
            }
        }
        frozen.stop();
        let frozen_skew = skew(&frozen);
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while e.replan_count() == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "replanner never split the hot shard"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(e.plan_version(0) >= 1);
        assert_eq!(e.execute(&q), oracle + 90_000, "exact under live replans");
        e.stop();
        e.stop(); // idempotent with the replanner too
        let replan_skew = skew(&e);
        assert!(
            replan_skew <= frozen_skew + 0.05,
            "replanning left skew {replan_skew:.3} against the frozen plan's {frozen_skew:.3}"
        );
        assert_eq!(frozen.replan_count(), 0, "a frozen plan never replans");
    }
}
