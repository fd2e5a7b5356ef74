//! The holistic indexing engine: adaptive indexing plus the always-on
//! tuning daemon.
//!
//! User queries behave exactly like the adaptive engine (parallel vectorized
//! cracking with the user thread budget); in the background the holistic
//! daemon watches the load accountant and spends every idle hardware context
//! on random-pivot refinements of the registered cracker columns. Every user
//! operation registers its budget with the accountant while it runs, so the
//! daemon leaves those contexts alone; a first touch that builds a whole
//! attribute also runs helper threads of the build on the contexts the
//! accountant sees idle.
//!
//! ## Horizontal shards
//!
//! With [`HolisticEngineConfig::shards`] > 1 each attribute is split into S
//! range-partitioned shards ([`holix_cracking::ShardedColumn`]): every shard
//! is its own cracker column with its own Ripple buffer and its own
//! `(attr, shard)` record in the [`IndexSpace`], so concurrent queries on
//! the same attribute only contend when their value ranges overlap the same
//! shard, and the daemon's pick weighs all `attrs × S` records
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
//! other cell, so survivors keep their cracks, records, prefix sums and
//! filters. A read-only count or sum whose shard would have to evict to
//! come in reads the base zones that can hold its range instead, until
//! the zones such reads have scanned for that shard reach what building
//! it reads; then it builds. Every count and sum (locked, verified,
//! snapshot, an unscreened point's unit range) takes this branch; point
//! screens and a conjunction's driver need the shard, so they build.
//!
//! ## Versioned shard plans
//!
//! With [`HolisticEngineConfig::replan`] the shard plan stops being a
//! build-time constant: a replanner thread watches each materialised
//! shard's load (merged rows + pending backlog, read off the live column),
//! asks `holix_planner::propose_replan` whether a hot shard should split
//! or two cold neighbours merge, and migrates the affected values through
//! [`ShardedColumn::apply_replan`] — sealed predecessor shards drain their
//! Ripple backlog into their pieces, untouched shards are shared by `Arc`
//! into the successor.
//! The successor column carries its own plan and version, so swapping the
//! attribute's one `Arc<Shards>` publishes all three at once: in-flight
//! queries finish against the column (and so the plan) they started with,
//! new queries route by the column they find, and updates rejected by a
//! sealed predecessor retry against the successor. Readers never block
//! mid-replan.

use crate::api::{Capabilities, Dataset, ExactAnswer, QueryEngine};
use holix_core::cpu::LoadAccountant;
use holix_core::index_space::{IndexSlot, IndexSpace, Membership};
use holix_core::{CpuMonitor, CycleRecord, HolisticConfig, HolisticDaemon, RefinableIndex};
use holix_cracking::sharding::ZONE;
use holix_cracking::{CrackScratch, CrackerColumn, ReplanAction, ShardPlan, ShardedColumn};
use holix_planner::{propose_replan, PlanCost, ReplanPolicy, ShardLoad};
use holix_storage::select::{Predicate, RangeStats};
use holix_storage::types::RowId;
use holix_workloads::QuerySpec;
use parking_lot::RwLock;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

thread_local! {
    static SCRATCH: RefCell<CrackScratch> = RefCell::new(CrackScratch::new());
}

/// Engine-level configuration on top of the core [`HolisticConfig`].
#[derive(Debug, Clone)]
pub struct HolisticEngineConfig {
    /// Hardware contexts the experiment exposes (the paper's 32).
    pub total_contexts: usize,
    /// Contexts one user query uses for parallel cracking (the paper's
    /// `uN` labels), and the contexts every user operation — queries,
    /// point probes, queued updates — registers as busy with the load
    /// accountant while it runs. A first touch's whole-attribute build adds
    /// helpers on top, sized from the contexts left idle.
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
pub type Shards = ShardedColumn<Arc<IndexSlot>>;

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
    fn shards(self, plan: &ShardPlan) -> Option<(usize, usize)> {
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

/// The shards of a read that [`HolisticEngine::touch_read`] answered from
/// the base zones instead of building them, and their stats summed.
#[derive(Default)]
struct Scanned {
    shards: Vec<usize>,
    stats: RangeStats,
}

/// What [`HolisticEngine::read`] asks of each live shard.
#[derive(Clone, Copy)]
enum ShardRead {
    /// A count off [`CrackerColumn::select`].
    Count,
    /// Count and sum off [`CrackerColumn::select_verified`].
    Verified,
    /// Count and sum off [`CrackerColumn::snapshot_scan`].
    Snapshot,
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
        let plans: Vec<ShardPlan> = (0..data.attrs())
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
                .with_piece_floor(cfg.holistic.l1_values());
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
    /// Builds what is missing; see [`HolisticEngine::admit`]. Writes,
    /// point screens and conjunction drivers come here: they need the
    /// shard itself.
    fn touch(&self, attr: usize, route: Route) -> Option<(Arc<Shards>, usize, usize)> {
        let col = Arc::clone(&self.shared.cols[attr].read());
        let (first, last) = route.shards(col.plan())?;
        if (first..=last).all(|k| live(&col, k).is_some()) {
            return Some((col, first, last));
        }
        self.admit(attr, route, Membership::Actual)
    }

    /// [`HolisticEngine::touch`] for a read-only count or sum of `pred`,
    /// which may leave a shard unbuilt and answer it from the base instead
    /// ([`ShardedColumn::scan_cold`]); [`HolisticEngine::read`] skips the
    /// shards listed in the returned [`Scanned`] and adds their stats.
    ///
    /// The third branch of the admission rule, decided shard by shard once
    /// an attribute is not built whole: a shard that is not live is
    /// scanned when [`HolisticEngine::scans_cold`] says so, otherwise built
    /// as [`HolisticEngine::admit`] builds it. A scan registers no record,
    /// but the dropped cells of the attribute are vacated all the same, so
    /// an evicted column is freed by the next read that misses a shard of
    /// its attribute. Without a budget, or with every shard routed to live,
    /// this is `touch`.
    fn touch_read(
        &self,
        attr: usize,
        pred: Predicate,
    ) -> Option<(Arc<Shards>, usize, usize, Scanned)> {
        let route = Route::Range(pred.lo, pred.hi);
        let budget = self.cfg.holistic.storage_budget.filter(|_| {
            let col = self.shared.cols[attr].read();
            let missing = |(first, last)| (first..=last).any(|k| live(&col, k).is_none());
            route.shards(col.plan()).is_some_and(missing)
        });
        let Some(budget) = budget else {
            let (col, first, last) = self.touch(attr, route)?;
            return Some((col, first, last, Scanned::default()));
        };
        let col = self.vacate_dropped(attr);
        let (first, last) = route.shards(col.plan())?;
        let (plan, used) = (col.plan(), self.space.bytes_used());
        let mut scanned = Scanned::default();
        // The shards to build (`build` builds the whole attribute when that
        // evicts nothing).
        let mut build = None;
        for k in (first..=last).filter(|&k| live(&col, k).is_none()) {
            let pred = plan.clamp(k, pred);
            if self.scans_cold(&col, k, pred, budget, used).is_some() {
                scanned.shards.push(k);
                scanned.stats.merge(col.scan_cold(k, pred));
            } else {
                build = Some((build.map_or(k, |(first, _)| first), k));
            }
        }
        if let Some((b, e)) = build {
            self.build(&col, b, e, Membership::Actual);
        }
        Some((col, first, last, scanned))
    }

    /// Whether a count or sum of `pred` (clamped to shard `k`) answers
    /// shard `k` of `col`, which is not live, from the base instead of
    /// building it, and then the base zones that scan reads: admitting the
    /// shard would evict (`used`, the index space's bytes, plus its bytes
    /// past `budget`) and the scan still costs less than the build
    /// ([`ShardedColumn::cold_scan_zones`]: this read's base zones plus
    /// those scanned since its cell emptied stay below the zones the build
    /// reads). The one rule by which [`HolisticEngine::touch_read`] scans
    /// and `estimate_cost` prices the scan.
    fn scans_cold(
        &self,
        col: &Shards,
        k: usize,
        pred: Predicate,
        budget: usize,
        used: usize,
    ) -> Option<usize> {
        // A fresh shard stores values only, and at most the attribute's
        // rows: its own are counted only when the whole would not fit.
        let tuple = CrackerColumn::tuple_bytes(false);
        let evicts =
            used + self.data.rows() * tuple > budget && used + col.cold_rows(k) * tuple > budget;
        evicts.then(|| col.cold_scan_zones(k, pred)).flatten()
    }

    /// [`QueryEngine::estimate_cost`] of `q` as read by a path that may
    /// answer a shard from the base (`may_scan`: `touch_read`'s counts and
    /// sums) or by one that builds every shard it reads (a conjunction's
    /// driver), each priced by the path it takes.
    fn price(&self, q: &QuerySpec, may_scan: bool) -> Option<PlanCost> {
        let pred = Predicate::range(q.lo, q.hi);
        // Read-only peek at the attribute's column: nothing is built here
        // (admission control prices queries before anything commits to
        // paying the O(N) pass over the base) — the price of an attribute
        // no build has counted yet is exactly that copy-and-crack. One
        // whose shards were all evicted since is priced shard by shard
        // below, each at its own rebuild, like any dropped shard.
        let col = Arc::clone(&self.shared.cols[q.attr].read());
        if cold(&col) && col.shard_rows(0).is_none() {
            return Some(PlanCost::cold(self.data.rows()));
        }
        let plan = col.plan();
        // Point screening at plan time, from the published filter only
        // (the same screen `execute_exact` answers at submit, so it fires
        // here only for a filter published after the probe queued). A
        // negative probe prices the query Screened and drains ahead of
        // cracks; unbuilt filters fall through to range pricing.
        if let Some(v) = pred.as_point().filter(|_| self.cfg.point_filters) {
            if screened_by_published_filter(&col, v).is_some() {
                return Some(PlanCost::screened_point());
            }
        }
        let Some((first, last)) = plan.shard_range(pred.lo, pred.hi) else {
            // Empty predicate: free.
            return Some(PlanCost {
                exact_hit: true,
                ..PlanCost::default()
            });
        };
        // Under a budget, a shard that is not live is priced by the rule
        // `touch_read` follows, once the column has mapped its zones and
        // while the registry is free: pricing maps nothing and waits on no
        // maintenance lock.
        let scans = |k| {
            let budget = self
                .cfg
                .holistic
                .storage_budget
                .filter(|_| may_scan && col.is_mapped())?;
            let used = self.space.try_bytes_used()?;
            self.scans_cold(&col, k, plan.clamp(k, pred), budget, used)
        };
        let mut cost = PlanCost::default();
        for k in first..=last {
            // A live shard is priced from its index: two lookups under its
            // index read lock and its queue length under the pending
            // mutex — no structure or maintenance lock. One a read would
            // scan in the base costs the zones it reads. A shard the
            // budget dropped, or a replan retired while this column was
            // read, costs its own rebuild, not the attribute's: its rows.
            // So does an empty cell: the base rows it holds, counted by
            // the attribute's first build (`data.rows()` before any).
            let resident = col.resident(k);
            let shard_cost = match resident {
                Some((shard, slot)) if !slot.is_dropped() => {
                    holix_planner::estimate(shard, plan.clamp(k, pred))
                }
                _ => PlanCost::cold(match (scans(k), resident) {
                    (Some(zones), _) => zones * ZONE,
                    (None, Some((shard, _))) => shard.len(),
                    (None, None) => col.shard_rows(k).unwrap_or(self.data.rows()),
                }),
            };
            cost.merge(shard_cost);
        }
        Some(cost)
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
        let tuple = CrackerColumn::tuple_bytes(false);
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
    /// (see [`ShardedColumn::admit`]), not under the attribute lock. A
    /// read-only count or sum takes a third branch first, shard by shard:
    /// a shard whose admission would evict is scanned in the base instead
    /// until scanning stops paying ([`HolisticEngine::touch_read`]).
    ///
    /// A whole build runs on the caller plus one helper per context the
    /// accountant sees idle at that instant, at most `total_contexts − 1`
    /// and at most one thread per
    /// [`holix_cracking::partition::DEFAULT_MIN_PARALLEL`] base rows
    /// ([`ShardedColumn::whole_build_threads`]). Every user path that can
    /// get here holds its own `user_threads` task, so the idle count
    /// excludes it. The helpers are not registered with the accountant:
    /// the daemon keeps its cadence through the build, its short cycles
    /// sharing the helpers' contexts. (Registered, they stopped the daemon
    /// for every build, and with it about four in five refinements of a
    /// `cold_explore` round: a query's cracks grew, and its p50 and p95
    /// rose by a quarter.)
    fn admit(
        &self,
        attr: usize,
        route: Route,
        membership: Membership,
    ) -> Option<(Arc<Shards>, usize, usize)> {
        let col = self.vacate_dropped(attr);
        let (first, last) = route.shards(col.plan())?;
        self.build(&col, first, last, membership);
        Some((col, first, last))
    }

    /// The attribute's published column after every shard the budget
    /// dropped got an empty cell in its place: a successor that shares
    /// every other cell is swapped in when there is one (every dropped
    /// shard goes, wanted now or not: the cell is all that keeps its
    /// column allocated).
    fn vacate_dropped(&self, attr: usize) -> Arc<Shards> {
        loop {
            let col = Arc::clone(&self.shared.cols[attr].read());
            let dropped: Vec<usize> = (0..col.shard_count())
                .filter(|&k| col.resident(k).is_some_and(|(_, slot)| slot.is_dropped()))
                .collect();
            if dropped.is_empty() {
                return col;
            }
            let mut slot = self.shared.cols[attr].write();
            if !Arc::ptr_eq(&slot, &col) {
                continue; // a replan or a racing admission swapped the column
            }
            let col = Arc::new(col.vacated(&dropped));
            *slot = Arc::clone(&col);
            return col;
        }
    }

    /// Builds and registers the empty cells of shards `first..=last` of
    /// `col` as one batch, or every shard of an attribute with no live
    /// shard whose whole payload fits the free budget (the rule of
    /// [`HolisticEngine::admit`]).
    fn build(&self, col: &Shards, first: usize, last: usize, membership: Membership) {
        let whole = cold(col) && self.whole_attribute_fits();
        let (first, last) = if whole {
            (0, col.shard_count() - 1)
        } else {
            (first, last)
        };
        // A whole build gangs the contexts the accountant sees idle, up
        // to all but the caller's.
        let threads = match whole {
            true => col.whole_build_threads(
                1 + self
                    .accountant
                    .idle_contexts(Duration::ZERO)
                    .min(self.cfg.total_contexts.saturating_sub(1)),
            ),
            false => 1,
        };
        col.admit(first, last, threads, |fresh| {
            register_shards(&self.space, fresh, membership)
        });
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
    pub fn column(&self, attr: usize) -> Arc<CrackerColumn> {
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

    /// Tuning-cycle records so far, the daemon's newest 2¹⁴ (Fig 6(d)).
    pub fn cycles(&self) -> Vec<CycleRecord> {
        self.daemon
            .lock()
            .as_ref()
            .map(|d| d.cycles())
            .unwrap_or_default()
    }

    /// Stops the replanner and the daemon and returns the cycle records
    /// the daemon kept (its newest 2¹⁴).
    /// Plan-time prices need neither: they read the live indexes.
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
        daemon.stop()
    }

    /// Queues an insertion of `v` for base row `row` on `attr`; it lands in
    /// the pending buffer of exactly the shard owning `v`'s value range
    /// (built first when it is not resident). Reads count it from there
    /// until an idle worker, or a read finding the shard's queue past its
    /// backlog, Ripple-merges the queue whole.
    ///
    /// A shard sealed for migration rejects the enqueue; the update
    /// retries against the successor plan once its cutover publishes (or
    /// against the reopened shard if the migration aborted) — updates are
    /// never silently dropped across a replan.
    pub fn queue_insert(&self, attr: usize, v: i64, row: RowId) {
        // User work that can first-touch the attribute.
        let _task = self.accountant.begin_task(self.cfg.user_threads);
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
        let _task = self.accountant.begin_task(self.cfg.user_threads);
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

    /// The one per-shard loop of every range count and sum (no allocation:
    /// it runs per query): routes `q` through [`HolisticEngine::touch_read`],
    /// asks each live shard routed to for `kind` and records `f_I`, and
    /// `f_Ih` where the shard cracked and filtered nothing, on its record;
    /// a shard answered from the base zones records nothing.
    fn read(&self, q: &QuerySpec, kind: ShardRead) -> RangeStats {
        let _task = self.accountant.begin_task(self.cfg.user_threads);
        let pred = Predicate::range(q.lo, q.hi);
        let Some((col, first, last, scanned)) = self.touch_read(q.attr, pred) else {
            return RangeStats::default();
        };
        let plan = col.plan();
        let mut stats = scanned.stats;
        SCRATCH.with(|s| {
            let scratch = &mut s.borrow_mut();
            for k in (first..=last).filter(|k| !scanned.shards.contains(k)) {
                let (shard, slot) = col.resident(k).expect("touched above");
                let pred = plan.clamp(k, pred);
                let (count, sum, exact_hit) = match kind {
                    ShardRead::Count => {
                        let sel = shard.select(pred, scratch);
                        (sel.count(), 0, sel.exact_hit())
                    }
                    ShardRead::Verified => {
                        let (sel, part) = shard.select_verified(pred, scratch);
                        (part.count, part.sum, sel.exact_hit())
                    }
                    // A snapshot read that filtered no edge value met
                    // piece boundaries exactly (the `f_Ih` analogue); its
                    // record keeps the daemon refining what it touches.
                    ShardRead::Snapshot => {
                        let scan = shard.snapshot_scan(pred, scratch);
                        (scan.count, scan.sum, scan.filtered == 0)
                    }
                };
                slot.record_user_query(exact_hit);
                stats.merge(RangeStats { count, sum });
            }
        });
        stats
    }

    /// The one pass of every point read (`execute`'s unit range, a whole
    /// IN-list) under one accountant task and one column load: counts the
    /// tuples equal to each of `keys` (sorted, deduplicated, no `i64::MAX`).
    /// A key's owner shard is built as `touch` builds it (unscreened, as
    /// `touch_read` builds or scans it; a scanned key records nothing);
    /// then the owner's point filter, built on first use, may prove the key
    /// absent, cracking nothing and recording an exact hit (`f_Ih` for point
    /// traffic). Any other key records its unit-range selection's `f_Ih`.
    fn read_points(&self, attr: usize, keys: impl IntoIterator<Item = i64>) -> u64 {
        let _task = self.accountant.begin_task(self.cfg.user_threads);
        let screen = self.cfg.point_filters;
        let mut col = Arc::clone(&self.shared.cols[attr].read());
        let mut total = 0;
        SCRATCH.with(|s| {
            let scratch = &mut s.borrow_mut();
            for v in keys {
                let unit = Predicate::range(v, v + 1);
                let mut k = col.plan().shard_of(v);
                if live(&col, k).is_none() && screen {
                    (col, k) = self.touch_owner(attr, v);
                } else if live(&col, k).is_none() {
                    let (c, owner, _, scanned) = self.touch_read(attr, unit).expect("an owner");
                    (col, k) = (c, owner);
                    if !scanned.shards.is_empty() {
                        total += scanned.stats.count;
                        continue;
                    }
                }
                let (shard, slot) = col.resident(k).expect("live or touched above");
                if screen && !shard.ensure_point_filter().contains(v) {
                    slot.record_user_query(true);
                    continue;
                }
                let sel = shard.select(col.plan().clamp(k, unit), scratch);
                slot.record_user_query(sel.exact_hit());
                total += sel.count();
            }
        });
        total
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
        match Predicate::range(q.lo, q.hi).as_point() {
            Some(v) => self.read_points(q.attr, [v]),
            None => self.read(q, ShardRead::Count).count,
        }
    }

    fn execute_verified(&self, q: &QuerySpec) -> (u64, i128) {
        let stats = self.read(q, ShardRead::Verified);
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
        self.price(q, true)
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
        let stats = self.read(q, ShardRead::Snapshot);
        Some((stats.count, stats.sum))
    }

    fn execute_exact(&self, q: &QuerySpec) -> Option<ExactAnswer> {
        let _task = self.accountant.begin_task(self.cfg.user_threads);
        let pred = Predicate::range(q.lo, q.hi);
        // The published column, never built here: a cold or dropped shard
        // has nothing to answer from.
        let col = Arc::clone(&self.shared.cols[q.attr].read());
        if let Some(v) = pred.as_point().filter(|_| self.cfg.point_filters) {
            if let Some(slot) = screened_by_published_filter(&col, v) {
                slot.record_user_query(true);
                return Some(ExactAnswer::Screened);
            }
        }
        let plan = col.plan();
        let Some((first, last)) = plan.shard_range(pred.lo, pred.hi) else {
            return Some(ExactAnswer::Hit(0));
        };
        let mut count = 0u64;
        for k in first..=last {
            let (shard, _) = live(&col, k)?;
            count += shard.count_exact(plan.clamp(k, pred))?;
        }
        for k in first..=last {
            col.resident(k)
                .expect("counted above")
                .1
                .record_user_query(true);
        }
        Some(ExactAnswer::Hit(count))
    }

    fn execute_points(&self, attr: usize, values: &[i64]) -> Option<u64> {
        // Dedupe: an IN list counts each qualifying tuple once, however
        // often the list repeats its value. The sentinel cannot be probed
        // (its unit range is empty).
        let mut keys = values.to_vec();
        keys.sort_unstable();
        keys.dedup();
        keys.retain(|&v| v != i64::MAX);
        Some(self.read_points(attr, keys))
    }

    fn execute_conjunction(&self, terms: &[QuerySpec]) -> Option<u64> {
        // Past this many driver rows, materialising the row-id set costs
        // more than the intersection saves; callers fall back to per-term
        // execution.
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
        // exactly as before. Priced from the live indexes, so a term
        // cracked a moment ago is seen exactly, and a term that is not
        // live at its build: a driver is built, never scanned in the base.
        let di = terms
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| self.price(t, false).map_or(u64::MAX, |c| c.est_rows))
            .map(|(i, _)| i)?;
        let driver = &terms[di];
        // Collect the driver's qualifying *base row ids* shard by shard
        // (select cracks the bounds, then `collect_row_ids` re-locates
        // them under the shard's exclusive structure lock, so a Ripple
        // merge racing the select cannot make the copy serve a stale
        // window), so every shard routed to is built. Once any shard
        // overflowed the cap or failed to locate its bounds the answer is
        // `None` — further copies are skipped (each would take an exclusive
        // lock for nothing); the selects still run to crack.
        let _task = self.accountant.begin_task(self.cfg.user_threads);
        let pred = Predicate::range(driver.lo, driver.hi);
        let (col, first, last) = self.touch(driver.attr, Route::Range(pred.lo, pred.hi))?;
        let plan = col.plan();
        let mut rows: Option<Vec<RowId>> = Some(Vec::new());
        let mut total = 0u64;
        SCRATCH.with(|s| {
            let scratch = &mut s.borrow_mut();
            for k in first..=last {
                let (shard, slot) = col.resident(k).expect("touched above");
                let pred = plan.clamp(k, pred);
                let sel = shard.select(pred, scratch);
                slot.record_user_query(sel.exact_hit());
                total += sel.count();
                rows = rows
                    .take()
                    .filter(|_| total <= DRIVER_CAP)
                    .and_then(|mut rows| {
                        rows.extend(shard.collect_row_ids(pred)?);
                        Some(rows)
                    });
            }
        });
        let rows = rows?;
        // Conjunctions are answered over the *base table*: row ids at or
        // past `data.rows()` belong to queued inserts, whose other-attribute
        // values the engine does not store — they are excluded by
        // definition, so results stay exact under concurrent updates that
        // only add or delete their own inserted rows.
        let base_rows = self.data.rows();
        let others: Vec<(usize, Predicate)> = terms
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
fn live(col: &Shards, k: usize) -> Option<(&Arc<CrackerColumn>, &Arc<IndexSlot>)> {
    col.resident(k).filter(|(_, slot)| !slot.is_dropped())
}

/// The live owner of `v` when its *built* point filter proves `v` absent:
/// one atomic load plus k bit probes. A build takes locks, so the
/// plan-time and submit-time screens never call `ensure_point_filter`; an
/// unbuilt filter (or shard) screens nothing.
fn screened_by_published_filter(col: &Shards, v: i64) -> Option<&Arc<IndexSlot>> {
    let (shard, slot) = live(col, col.plan().shard_of(v))?;
    (shard.probe_point(v) == Some(false)).then_some(slot)
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
    fresh: &[Arc<CrackerColumn>],
    membership: Membership,
) -> Vec<Arc<IndexSlot>> {
    let handles = fresh
        .iter()
        .map(|shard| Arc::clone(shard) as Arc<dyn RefinableIndex>)
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

/// One policy evaluation for one attribute: read per-shard loads off the
/// live columns, propose, migrate, publish.
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
    let loads: Vec<ShardLoad> = shards
        .iter()
        .map(|(shard, slot)| ShardLoad {
            rows: shard.len(),
            pending: shard.pending_len(),
            // Access heat: the shard's registry `f_I` (queries routed to
            // it) in row-equivalents, so a small shard every query hammers
            // can out-weigh a large cold one and trip the split skew.
            access: slot.stats().queries().saturating_mul(ACCESS_ROW_EQUIV) as usize,
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
    use holix_cracking::BoundLookup;
    use holix_storage::select::scan_stats;
    use holix_workloads::data::uniform_table;
    use proptest::prelude::*;
    use rand::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};
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
    /// (the row ids come with the first conjunction or migration).
    const TUPLE: usize = CrackerColumn::tuple_bytes(false);

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
            let q = query(attr, 10_000, 20_000);
            let oracle = scan_stats(e.data.column(attr), Predicate::range(q.lo, q.hi));
            assert_eq!(e.execute(&q), oracle.count);
        }
        e
    }

    fn query(attr: usize, lo: i64, hi: i64) -> QuerySpec {
        QuerySpec { attr, lo, hi }
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
            let q = query(attr, a.min(b), a.max(b).max(a.min(b) + 1));
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
            let q = query(attr, a.min(b), a.max(b).max(a.min(b) + 1));
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
        // One shard, one user thread, no workers, no point screening: the
        // engine is a cracker column behind `execute`. It must go through
        // the same build and crack path as a bare one-shard `ShardedColumn`
        // under the same plan — coarse buckets at first touch, fused
        // three-way kernel on the caller's scratch — so each count and each
        // exact hit *and* the cracker arrays come out identical.
        let rows = 50_000;
        let data = Dataset::new(uniform_table(1, rows, 1_000_000, 3));
        let mut cfg = HolisticEngineConfig {
            shards: 1,
            user_threads: 1,
            point_filters: false,
            ..HolisticEngineConfig::split_half(2)
        };
        cfg.holistic.max_workers = Some(0);
        let e = HolisticEngine::new(data.clone(), cfg);
        let plan = peek(&e, 0).plan().clone();
        let bare = ShardedColumn::from_base_with_plan("bare", data.column(0), plan);
        let bare = bare.shard(0);
        assert!(bare.piece_count() > 1, "big enough for coarse buckets");
        let exact_hits = || {
            let col = peek(&e, 0);
            live(&col, 0).map_or(0, |(_, slot)| slot.stats().exact_hits())
        };
        let mut scratch = CrackScratch::new();
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..200 {
            let a = rng.random_range(0..1_000_000);
            let b = rng.random_range(0..1_000_000);
            let (lo, hi) = (a.min(b), a.max(b) + 1);
            let hits = exact_hits();
            let got = e.execute(&query(0, lo, hi));
            let want = bare.select(Predicate::range(lo, hi), &mut scratch);
            assert_eq!(got, want.count(), "count for [{lo}, {hi})");
            assert_eq!(exact_hits() - hits, want.exact_hit() as u64, "[{lo}, {hi})");
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
        let first = query(0, 1_000, 2_000);
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
            let q = query(0, a.min(b), a.max(b));
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
            assert_eq!(e.execute(&query(0, v, v + 1)), 0);
        }
        let col = e.sharded(0);
        let pieces = col.piece_count();
        for i in 0..500 {
            let v = i * 39 * 2 % 20_000 + 1; // odd → absent
            assert_eq!(e.execute(&query(0, v, v + 1)), 0);
        }
        assert_eq!(
            col.piece_count(),
            pieces,
            "absent point probes cracked shards"
        );
        // Present values still count exactly (4 copies of each even value).
        for v in [0i64, 5_000, 19_998] {
            assert_eq!(e.execute(&query(0, v, v + 1)), 4);
        }
        e.stop();
    }

    #[test]
    fn point_probes_on_a_converged_engine_charge_no_bytes() {
        // Even values only: every odd probe is provably absent.
        let base: Vec<i64> = (0..40_000).map(|i| (i % 10_000) * 2).collect();
        let data = Dataset::new(vec![base]);
        let mut cfg = HolisticEngineConfig::split_half_sharded(4, 4);
        cfg.holistic.max_workers = Some(0);
        let e = HolisticEngine::new(data, cfg);
        let point = |v| query(0, v, v + 1);
        // Converge on the present probes' bounds with range reads, which
        // build no filter: their point probes then crack nothing.
        let present: Vec<i64> = (0..40).map(|i| i * 498).collect();
        for &v in &present {
            e.execute(&QuerySpec {
                hi: v,
                ..point(v - 100)
            });
            e.execute(&QuerySpec {
                lo: v + 1,
                ..point(v + 100)
            });
        }
        let col = e.sharded(0);
        assert!(col.resident_shards().all(|s| s.probe_point(0).is_none()));
        let (bytes, pieces) = (e.space().bytes_used(), col.piece_count());
        // The first probe of each shard builds its filter.
        for &v in &present {
            assert_eq!(e.execute(&point(v)), 4);
            assert_eq!(e.execute(&point(v + 1)), 0);
        }
        assert!(col.resident_shards().all(|s| s.probe_point(0).is_some()));
        assert!(col.resident_shards().all(|s| s.piece_sums().is_none()));
        assert_eq!(col.piece_count(), pieces, "a converged probe cracked");
        assert_eq!(e.space().bytes_used(), bytes, "point filters charged bytes");
        e.stop();
    }

    #[test]
    fn execute_exact_answers_converged_reads_and_builds_nothing() {
        // Even values only: every odd point is provably absent.
        let base: Vec<i64> = (0..40_000).map(|i| (i % 10_000) * 2).collect();
        for shards in [1, 4] {
            let data = Dataset::new(vec![base.clone(), base.clone()]);
            // No workers: every boundary is a query's.
            let mut cfg = HolisticEngineConfig::split_half_sharded(4, shards);
            cfg.holistic.max_workers = Some(0);
            let e = HolisticEngine::new(data, cfg);
            let exact_hits = |attr| {
                let col = peek(&e, attr);
                (0..col.shard_count())
                    .filter_map(|k| live(&col, k))
                    .map(|(_, slot)| slot.stats().exact_hits())
                    .sum::<u64>()
            };
            let span = query(0, 3_001, 17_001);
            // A cold attribute has nothing to answer from, and stays cold.
            assert_eq!(e.execute_exact(&span), None, "S={shards}");
            assert!(
                cold(&peek(&e, 0)),
                "S={shards}: execute_exact built a shard"
            );
            assert_eq!(records(&e), 0, "S={shards}");
            // Built, but the bounds still have to crack.
            e.execute(&query(0, 101, 201));
            let pieces = e.sharded(0).piece_count();
            assert_eq!(e.execute_exact(&span), None, "S={shards}");
            assert_eq!(e.sharded(0).piece_count(), pieces, "S={shards}: it cracked");
            // Converged: answered exactly, one f_Ih per touched shard.
            let want = scan_stats(&base, Predicate::range(span.lo, span.hi)).count;
            assert_eq!(e.execute(&span), want);
            let touched = peek(&e, 0).plan().shard_range(span.lo, span.hi).unwrap();
            assert_eq!(
                touched.1 - touched.0 + 1,
                shards,
                "the span covers every shard"
            );
            let hits = exact_hits(0);
            assert_eq!(e.execute_exact(&span), Some(ExactAnswer::Hit(want)));
            assert_eq!(exact_hits(0), hits + shards as u64, "S={shards}");
            // A pending insert in range is counted from the queue, with
            // nothing merged, and `execute` agrees.
            e.queue_insert(0, 9_000, base.len() as RowId);
            assert_eq!(e.execute_exact(&span), Some(ExactAnswer::Hit(want + 1)));
            assert_eq!(exact_hits(0), hits + 2 * shards as u64, "S={shards}");
            assert_eq!(e.sharded(0).pending_len(), 1, "S={shards}: it merged");
            assert_eq!(e.execute(&span), want + 1);
            assert_eq!(e.execute_exact(&span), Some(ExactAnswer::Hit(want + 1)));
            // A point probe builds its shard's filter; an absent key the
            // published filter screens is answered, a present one whose
            // bounds are not boundaries is not.
            assert_eq!(e.execute(&query(0, 1_001, 1_002)), 0);
            let absent: Vec<_> = (1_003..1_203)
                .step_by(2)
                .map(|v| e.execute_exact(&query(0, v, v + 1)))
                .collect();
            assert!(
                absent
                    .iter()
                    .all(|a| matches!(a, None | Some(ExactAnswer::Screened))),
                "S={shards}: {absent:?}"
            );
            let screened = absent.iter().filter(|a| a.is_some()).count();
            assert!(screened >= 90, "S={shards}: {screened} of 100 screened");
            assert_eq!(e.execute_exact(&query(0, 1_004, 1_005)), None, "S={shards}");
            // Attribute 1 was never touched.
            assert_eq!(e.execute_exact(&query(1, 1_003, 1_004)), None, "S={shards}");
            assert!(
                cold(&peek(&e, 1)),
                "S={shards}: execute_exact built attribute 1"
            );
            e.stop();
        }
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

    /// Values of the point-read property test: base values are even and
    /// below this, so odd keys and keys past it are absent until inserted.
    const POINT_DOMAIN: i64 = 6_000;

    /// One IN-list of 0–10 keys on `attr`: base values (maybe deleted
    /// since), odd and out-of-domain keys, the shard cuts and the values
    /// just below them, the sentinels, and repeats.
    fn in_list(e: &HolisticEngine, attr: usize, rng: &mut StdRng) -> Vec<i64> {
        let (base, cuts) = (e.data.column(attr), peek(e, attr).plan().cuts().to_vec());
        let mut keys: Vec<i64> = Vec::new();
        for _ in 0..rng.random_range(0..=10) {
            let key = match rng.random_range(0..8) {
                0..=2 => base[rng.random_range(0..base.len())],
                3 => rng.random_range(0..POINT_DOMAIN) | 1,
                4 => cuts[rng.random_range(0..cuts.len())] - rng.random_range(0..2),
                5 => [-7, POINT_DOMAIN + 13, i64::MIN, i64::MAX][rng.random_range(0..4)],
                _ => match keys.choose(rng) {
                    Some(&v) => v,
                    None => rng.random_range(0..POINT_DOMAIN),
                },
            };
            keys.push(key);
        }
        keys
    }

    /// Runs IN-lists and unit-range `execute`s on `attr` against the
    /// multiset `tuples` (value → copies). Each IN-list builds no shard but
    /// the owners of its keys (all of them when the attribute was cold and
    /// fits whole), and, with `records`, adds 1 to `f_I` on a key's owner
    /// per distinct key.
    fn point_reads_match(
        e: &HolisticEngine,
        attr: usize,
        tuples: &BTreeMap<i64, u64>,
        records: bool,
        rng: &mut StdRng,
    ) {
        let distinct = |keys: &[i64]| -> BTreeSet<i64> {
            keys.iter().copied().filter(|&v| v != i64::MAX).collect()
        };
        let oracle = |keys: &[i64]| -> u64 {
            let count = |v| tuples.get(v).copied().unwrap_or(0);
            distinct(keys).iter().map(count).sum()
        };
        let shards = |col: &Shards| -> Vec<Option<u64>> {
            let stats = |k| live(col, k).map(|(_, slot)| slot.stats().queries());
            (0..col.shard_count()).map(stats).collect()
        };
        for _ in 0..10 {
            let keys = in_list(e, attr, rng);
            let whole = cold(&peek(e, attr)) && e.whole_attribute_fits();
            let before = shards(&peek(e, attr));
            assert_eq!(
                e.execute_points(attr, &keys),
                Some(oracle(&keys)),
                "{keys:?}"
            );
            let col = peek(e, attr);
            let owners: BTreeSet<usize> = distinct(&keys)
                .iter()
                .map(|&v| col.plan().shard_of(v))
                .collect();
            let after = shards(&col);
            for k in 0..col.shard_count() {
                let built = before[k].is_none() && after[k].is_some();
                assert!(!built || whole || owners.contains(&k), "{keys:?} built {k}");
            }
            if records {
                for (k, (was, is)) in before.iter().zip(&after).enumerate() {
                    let mine = distinct(&keys)
                        .iter()
                        .filter(|&&v| col.plan().shard_of(v) == k)
                        .count();
                    assert_eq!(
                        is.unwrap_or(0) - was.unwrap_or(0),
                        mine as u64,
                        "{keys:?} on {k}"
                    );
                }
            }
            for v in keys.into_iter().filter(|&v| v < i64::MAX - 1) {
                assert_eq!(e.execute(&query(attr, v, v + 1)), oracle(&[v]), "{v}");
            }
        }
    }

    /// The one-pass point read against a multiset oracle, screened and
    /// not, with and without a storage budget of one attribute, on a
    /// four-shard engine with no workers. Attribute 0 (shuffled) is read
    /// cold, with pending inserts and deletes, and after a drain; then,
    /// under the budget, attribute 1 (sorted: a unit range meets one or
    /// two of a shard's zones, so unscreened reads scan before they build)
    /// is read while attribute 0 holds the budget, and again once building
    /// attribute 0 whole evicted every shard of it. Eviction discards a
    /// shard's updates, so attribute 1 takes none.
    fn check_point_reads(seed: u64, point_filters: bool, budget: bool) {
        let rows = 16_384;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut table: Vec<Vec<i64>> = (0..2)
            .map(|_| {
                (0..rows)
                    .map(|_| rng.random_range(0..POINT_DOMAIN / 2) * 2)
                    .collect()
            })
            .collect();
        table[1].sort_unstable();
        let data = Dataset::new(table.clone());
        let mut cfg = HolisticEngineConfig::split_half_sharded(2, 4);
        cfg.point_filters = point_filters;
        cfg.holistic.max_workers = Some(0);
        cfg.holistic.storage_budget = budget.then_some(rows * TUPLE);
        let e = HolisticEngine::new(data, cfg);
        let mut tuples: Vec<BTreeMap<i64, u64>> = vec![BTreeMap::new(); 2];
        for (attr, col) in table.iter().enumerate() {
            for &v in col {
                *tuples[attr].entry(v).or_default() += 1;
            }
        }
        let records = !budget;
        point_reads_match(&e, 0, &tuples[0], records, &mut rng);
        // Inserts of present, odd and out-of-domain values; deletes of base
        // rows and of some of the inserts.
        let mut inserted = Vec::new();
        for row in rows..rows + 200 {
            let v = match rng.random_range(0..3) {
                0 => table[0][rng.random_range(0..rows)],
                1 => rng.random_range(0..POINT_DOMAIN) | 1,
                _ => POINT_DOMAIN + rng.random_range(0..50),
            };
            e.queue_insert(0, v, row as RowId);
            *tuples[0].entry(v).or_default() += 1;
            inserted.push((v, row as RowId));
        }
        let mut deleted = BTreeSet::new();
        for _ in 0..100 {
            let row = rng.random_range(0..rows);
            if deleted.insert(row) {
                e.queue_delete(0, table[0][row], row as RowId);
                *tuples[0].get_mut(&table[0][row]).unwrap() -= 1;
            }
        }
        for &(v, row) in inserted.iter().step_by(3) {
            e.queue_delete(0, v, row);
            *tuples[0].get_mut(&v).unwrap() -= 1;
        }
        let col = peek(&e, 0);
        assert!((0..4).any(|k| live(&col, k).is_some_and(|(s, _)| s.pending_len() > 0)));
        point_reads_match(&e, 0, &tuples[0], records, &mut rng);
        for k in 0..4 {
            if let Some((shard, _)) = live(&peek(&e, 0), k) {
                shard.merge_pending();
                assert_eq!(shard.pending_len(), 0);
            }
        }
        point_reads_match(&e, 0, &tuples[0], records, &mut rng);
        if budget {
            let scans = holix_telemetry::registry().counter("cracking_cold_scans_total");
            let before = scans.get();
            point_reads_match(&e, 1, &tuples[1], false, &mut rng);
            let scanned = scans.get() > before;
            assert!(point_filters || scanned || !holix_telemetry::metrics_enabled());
            e.sharded(0);
            let col = peek(&e, 1);
            assert!(
                (0..4).all(|k| live(&col, k).is_none()),
                "attribute 1 kept a shard"
            );
            point_reads_match(&e, 1, &tuples[1], false, &mut rng);
        }
        e.stop();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn prop_point_reads_match_a_multiset_oracle(seed in any::<u64>()) {
            for (point_filters, budget) in [(true, false), (false, false), (true, true), (false, true)] {
                check_point_reads(seed, point_filters, budget);
            }
        }
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
                    query(attr, a.min(b), a.max(b).max(a.min(b) + 1))
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
        let terms = vec![query(0, 0, 1_000_000), query(1, 500, 500)];
        assert_eq!(e.execute_conjunction(&terms), Some(0));
        assert_eq!(e.execute_conjunction(&[]), Some(0));
        e.stop();
    }

    /// Runs `read` of `q` on a built attribute and asserts what it recorded
    /// on each shard: 1 to `f_I` on every shard `q` routes to, and 1 to
    /// `f_Ih` where both clamped bounds are boundaries — for a snapshot
    /// read, where it filters no value (every bound that is not a boundary
    /// lies in an empty piece). `execute_exact` (`kind` `None`) records on
    /// every shard, or on none when one would crack.
    fn recorded<T>(
        e: &HolisticEngine,
        q: &QuerySpec,
        kind: Option<ShardRead>,
        read: impl FnOnce() -> T,
    ) -> T {
        let col = peek(e, q.attr);
        let (plan, pred) = (col.plan(), Predicate::range(q.lo, q.hi));
        let (first, last) = plan.shard_range(q.lo, q.hi).expect("a non-empty range");
        let stats = |k| live(&col, k).map(|(_, s)| (s.stats().queries(), s.stats().exact_hits()));
        let hit = |k| {
            let pred = plan.clamp(k, pred);
            let bounds = [
                (pred.lo != i64::MIN, pred.lo),
                (pred.hi != i64::MAX, pred.hi),
            ];
            let (shard, _) = live(&col, k).expect("built");
            shard.with_index(|idx| {
                let mut bounds = bounds.into_iter().filter(|&(bound, _)| bound);
                bounds.all(|(_, v)| match idx.locate(v) {
                    BoundLookup::Exact(_) => true,
                    BoundLookup::Piece { start, end, .. } => {
                        matches!(kind, Some(ShardRead::Snapshot)) && start == end
                    }
                })
            })
        };
        let answered = kind.is_some() || (first..=last).all(hit);
        let want: Vec<_> = (0..col.shard_count())
            .map(|k| {
                let (queries, hits) = stats(k).expect("built");
                let gain = answered && (first..=last).contains(&k);
                (queries + gain as u64, hits + (gain && hit(k)) as u64)
            })
            .collect();
        let out = read();
        let got: Option<Vec<_>> = (0..col.shard_count()).map(stats).collect();
        assert_eq!(got, Some(want), "{q:?}");
        out
    }

    #[test]
    fn snapshot_execution_matches_locked_path_and_oracle() {
        // No workers: every boundary is a read's, so what each entry point
        // records is known before it runs.
        let e = quiet_engine(2, 80_000, 4);
        for attr in 0..2 {
            e.sharded(attr);
        }
        let mut rng = StdRng::seed_from_u64(99);
        for i in 0..60 {
            let attr = rng.random_range(0..2);
            let a = rng.random_range(0..1_000_000);
            let b = rng.random_range(0..1_000_000);
            let q = query(attr, a.min(b), a.max(b).max(a.min(b) + 1));
            let oracle = scan_stats(e.data.column(attr), Predicate::range(q.lo, q.hi));
            let (hit, stats) = (ExactAnswer::Hit(oracle.count), (oracle.count, oracle.sum));
            let exact = recorded(&e, &q, None, || e.execute_exact(&q));
            assert!(exact.is_none_or(|a| a == hit), "i={i}");
            let snapshot = Some(ShardRead::Snapshot);
            let got = recorded(&e, &q, snapshot, || e.execute_snapshot(&q));
            assert_eq!(got, Some(stats), "i={i}");
            // Interleave locked executions so cracks/merges race snapshots.
            let count = Some(ShardRead::Count);
            assert_eq!(recorded(&e, &q, count, || e.execute(&q)), oracle.count);
            let verified = Some(ShardRead::Verified);
            assert_eq!(recorded(&e, &q, verified, || e.execute_verified(&q)), stats);
            let exact = recorded(&e, &q, None, || e.execute_exact(&q));
            assert_eq!(exact, Some(hit), "i={i}");
            // A present value is never screened: its unit range is read.
            let v = e.data.column(attr)[rng.random_range(0..80_000)];
            let point = query(attr, v, v + 1);
            let n = scan_stats(e.data.column(attr), Predicate::range(v, v + 1)).count;
            assert_eq!(
                recorded(&e, &point, count, || e.execute_points(attr, &[v])),
                Some(n)
            );
        }
        e.stop();
    }

    #[test]
    fn snapshot_execution_sees_queued_updates() {
        let e = sharded_engine(1, 40_000, 3);
        let q = query(0, 0, 1_000_000);
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

    /// A 8,192-row attribute in four shards of about 2,048 values, each
    /// optimal from birth, every shard summed by a snapshot read; then 140
    /// inserts and 60 deletes of base rows, all on shard 0, and no read.
    /// Returns the engine and the attribute's values after the updates,
    /// sorted.
    fn converged_shard_with_a_due_queue(max_workers: Option<usize>) -> (HolisticEngine, Vec<i64>) {
        let data = Dataset::new(uniform_table(1, 8_192, 1_000_000, 37));
        let mut cfg = HolisticEngineConfig::split_half_sharded(2, 4);
        cfg.holistic.monitor_interval = Duration::from_millis(1);
        cfg.holistic.max_workers = max_workers;
        let e = HolisticEngine::new(data, cfg);
        let everything = query(0, 0, 1_000_000);
        assert!(e.execute_snapshot(&everything).is_some());
        let col = peek(&e, 0);
        for k in 0..col.shard_count() {
            let (shard, slot) = live(&col, k).expect("resident");
            assert_eq!(slot.membership(), Membership::Optimal, "shard {k}");
            assert!(shard.piece_sums().is_some(), "shard {k}");
        }
        let shard = col.shard(0);
        let pieces = shard.piece_count();
        // Locked reads crack shard 0 finer, so the reads after the drain
        // fold piece sums its cracks and the drain kept.
        let base = e.data.column(0);
        for &v in base
            .iter()
            .filter(|&&v| col.plan().shard_of(v) == 0)
            .take(8)
        {
            let q = query(0, v, v + 1_000);
            let want = base.iter().filter(|&&x| q.lo <= x && x < q.hi).count();
            assert_eq!(e.execute(&q), want as u64);
        }
        assert!(shard.piece_count() > pieces);
        // Every context busy while the updates queue, so no worker drains
        // the first 128 alone: from a window after the guard on, the
        // daemon reads no idle context.
        let busy = e.accountant().begin_task(2);
        std::thread::sleep(Duration::from_millis(50));
        let mut values = e.data.column(0).to_vec();
        let in_shard = |v: i64| col.plan().shard_of(v) == 0;
        let deleted: Vec<(i64, RowId)> = (0..values.len())
            .filter(|&r| in_shard(values[r]))
            .step_by(7)
            .take(60)
            .map(|r| (values[r], r as RowId))
            .collect();
        assert_eq!(deleted.len(), 60);
        for &(v, row) in &deleted {
            e.queue_delete(0, v, row);
            values.remove(values.iter().position(|&x| x == v).expect("a base value"));
        }
        // Inserted values meet no deleted one.
        let mut v = 0;
        for row in 0..140 {
            while !in_shard(v) || deleted.iter().any(|&(d, _)| d == v) {
                v += 1;
            }
            e.queue_insert(0, v, (8_192 + row) as RowId);
            values.push(v);
            v += 3;
        }
        assert_eq!(shard.pending_len(), 200);
        drop(busy);
        values.sort_unstable();
        (e, values)
    }

    /// The engine's answers against the sorted `values`, on every read path.
    fn reads_match(e: &HolisticEngine, values: &[i64]) {
        let mut rng = StdRng::seed_from_u64(41);
        for _ in 0..40 {
            let (a, b) = (
                rng.random_range(0..1_000_000),
                rng.random_range(0..1_000_000),
            );
            let q = query(0, a.min(b), a.max(b) + 1);
            let at = |x: i64| values.partition_point(|&v| v < x);
            let (i, j) = (at(q.lo), at(q.hi));
            let want = (j - i) as u64;
            let sum: i128 = values[i..j].iter().map(|&v| v as i128).sum();
            assert_eq!(e.execute_snapshot(&q), Some((want, sum)), "{q:?}");
            assert_eq!(e.execute(&q), want, "{q:?}");
        }
    }

    #[test]
    fn idle_workers_drain_a_converged_shards_queue() {
        let (e, values) = converged_shard_with_a_due_queue(None);
        let col = peek(&e, 0);
        let shard = col.shard(0);
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while shard.pending_len() > 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "no worker drained the converged shard's queue of {}",
                shard.pending_len()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let held = values
            .iter()
            .filter(|&&v| col.plan().shard_of(v) == 0)
            .count();
        // A read of shard 0 takes its structure lock shared, so it waits
        // out the rest of the merge.
        reads_match(&e, &values);
        assert_eq!(shard.len(), held);
        shard.check_invariants(None);
        let merges: u64 = e.stop().iter().map(|c| c.merges).sum();
        assert!(merges >= 1, "no cycle recorded the drain");
    }

    #[test]
    fn without_workers_a_converged_shards_queue_is_left_to_reads() {
        let (e, values) = converged_shard_with_a_due_queue(Some(0));
        let shard = Arc::clone(peek(&e, 0).shard(0));
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(
            shard.pending_len(),
            200,
            "merged without a worker or a read"
        );
        // Reads count the queue below the backlog and merge nothing.
        reads_match(&e, &values);
        assert_eq!(shard.pending_len(), 200);
        assert!(e.stop().is_empty(), "a cycle ran with no worker allowed");
    }

    #[test]
    fn routing_keys_are_shard_granular_and_stable() {
        let e = sharded_engine(2, 50_000, 4);
        let keys: Vec<u64> = [0i64, 300_000, 600_000, 900_000]
            .iter()
            .map(|&lo| e.routing_key(&query(1, lo, lo + 10)))
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
            .map(|&lo| e.routing_key(&query(1, lo, lo + 10)))
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
            let q = query(attr, a.min(b), a.max(b).max(a.min(b) + 1));
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
        // Workers on: refinements only add boundaries, so a cracked
        // bound stays an exact hit whatever they do.
        let e = sharded_engine(2, 50_000, 4);
        let q = query(1, 200_000, 700_000);
        // Cold attribute: expensive, and the estimate must NOT have
        // materialised the cracker column (no registry slot appears).
        let cold = e.estimate_cost(&q).unwrap();
        assert!(cold.crack_values >= 50_000);
        let (a, p, o, d) = e.space().membership_counts();
        assert_eq!(a + p + o + d, 0, "estimate_cost materialised a column");
        // Warm it, then the same predicate is an exact hit.
        e.execute(&q);
        let warm = e.estimate_cost(&q).unwrap();
        assert!(warm.exact_hit, "repeat predicate should price as exact hit");
        assert_eq!(warm.crack_values, 0);
        assert!(warm.shards_touched >= 2, "spanning estimate folds shards");
        assert!(cold.crack_values > warm.crack_values);
        e.stop();

        // A partially resident attribute: the built shard is priced from
        // its index, each empty one as its own rebuild — its base rows,
        // not the attribute's — and still nothing is built.
        let e = partially_resident_engine();
        let col = peek(&e, 1);
        let empty_rows: usize = (1..4).map(|k| col.shard_rows(k).unwrap()).sum();
        let registered = e.space().membership_counts();
        let all = query(1, 0, 1_000_000);
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
    fn a_crack_is_priced_at_once() {
        // No workers, so nothing but the query touches the index: the
        // price after a select reads the bounds it cracked, on one shard
        // and across shards.
        let e = quiet_engine(1, 40_000, 4);
        let cut = e.sharded(0).plan().cuts()[1];
        for (lo, hi) in [(cut + 1_000, cut + 9_000), (cut - 7_000, cut + 5_000)] {
            let q = query(0, lo, hi);
            assert!(!e.estimate_cost(&q).unwrap().exact_hit, "{q:?}");
            e.execute(&q);
            let cost = e.estimate_cost(&q).unwrap();
            assert!(cost.exact_hit, "{q:?} priced {cost:?}");
            assert_eq!(cost.crack_values, 0, "{q:?}");
        }
        e.stop();
    }

    #[test]
    fn estimate_cost_takes_no_structure_or_maintenance_lock() {
        // Plan-time estimates complete while another thread holds the
        // index space's registry lock and a shard's structure lock
        // exclusively (as a Ripple merge does), and price that shard
        // live: updates queued beside the held lock are merge debt at
        // once.
        let e = Arc::new(sharded_engine(1, 40_000, 4));
        let q = query(0, 0, 1_000_000);
        e.execute(&q); // build
        let col = e.sharded(0);
        let shard = col.shard(1);
        let _structure = shard.hold_structure_for_test();
        let _registry = e.space().hold_registry_for_test();
        let queued = CrackerColumn::MERGE_BACKLOG + 44;
        for i in 0..queued {
            assert!(shard.queue_insert(col.plan().cuts()[0], 1_000_000 + i as RowId));
        }
        let (tx, rx) = std::sync::mpsc::channel();
        let probe = Arc::clone(&e);
        std::thread::spawn(move || {
            // Touches every shard, including the write-locked one.
            let cost = probe.estimate_cost(&q);
            let _ = tx.send(cost);
        });
        let cost = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("estimate_cost blocked on a structure or maintenance lock")
            .expect("holistic engine prices queries");
        assert_eq!(cost.shards_touched, 4);
        assert_eq!(cost.merge_backlog, queued as u64, "the held shard's queue");
        drop(_structure);
        drop(_registry);
        e.stop();

        // The same on one built and three empty cells, under a budget
        // (liveness is a slot's membership load, not a lock of the registry).
        let e = Arc::new(partially_resident_engine());
        let col = peek(&e, 1);
        let _structure = col.shard(0).hold_structure_for_test();
        let _registry = e.space().hold_registry_for_test();
        let (tx, rx) = std::sync::mpsc::channel();
        let probe = Arc::clone(&e);
        std::thread::spawn(move || {
            let _ = tx.send(probe.estimate_cost(&QuerySpec { attr: 1, ..q }));
        });
        let cost = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("estimate_cost blocked on a partially resident attribute")
            .expect("holistic engine prices queries");
        assert_eq!(cost.shards_touched, 4);
        drop(_structure);
        drop(_registry);
        e.stop();
    }

    #[test]
    fn daemon_refines_beyond_query_driven_cracks() {
        let q = query(0, 100, 200_000);
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
        e.execute(&query(2, 0, 500));
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
        // Narrow reads inside the domain: every zone of a uniform base
        // meets them, so each builds its attribute (one at the domain's
        // edge meets about half the zones, and would scan them instead).
        for attr in 0..3 {
            let q = query(attr, 400_000, 401_000);
            assert_eq!(
                e.execute(&q),
                scan_stats(e.data.column(attr), Predicate::range(q.lo, q.hi)).count
            );
        }
        let (_, _, _, dropped) = e.space().membership_counts();
        assert!(dropped >= 2, "budget never evicted (dropped={dropped})");
        // Queries on evicted attributes still answer correctly (re-created).
        for attr in 0..3 {
            let q = query(attr, 500_000, 600_000);
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
        let q = query(1, 900_000, 910_000);
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
            exact(query(0, lo, lo + 10_000));
        }
        exact(query(1, 10_000, 20_000));
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
        // survivor keeps its column (cracks, prefix sums, filters), its
        // record and its pieces; only the dropped shard gets a new column
        // and a new registry record.
        exact(query(0, 900_000, 910_000));
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
                exact(query(attr, lo, lo + 5_000));
            }
        }
        assert_eq!(records(&e), live_cells(&e));
        assert!(
            e.space().bytes_used() <= budget + 64 * 1024,
            "live bytes exceed the budget by more than index growth"
        );
        e.stop();
    }

    /// `col`'s values as sorted runs of 1,024 rows in shuffled order: the
    /// ingest-ordered layout a rebuild's zone map prunes.
    fn sorted_runs(col: &[i64], rng: &mut StdRng) -> Vec<i64> {
        let mut sorted = col.to_vec();
        sorted.sort_unstable();
        let mut runs: Vec<&[i64]> = sorted.chunks(1_024).collect();
        for i in (1..runs.len()).rev() {
            runs.swap(i, rng.random_range(0..=i));
        }
        runs.concat()
    }

    #[test]
    fn a_shard_rebuilt_after_eviction_knows_its_domain_on_clustered_and_shuffled_bases() {
        // The eviction of `partial_eviction_rebuilds_only_the_dropped_shard`,
        // over a shuffled base and over the same values in sorted runs.
        let mut rng = StdRng::seed_from_u64(7);
        for clustered in [false, true] {
            let mut table = uniform_table(2, 50_000, 1_000_000, 6);
            if clustered {
                table = table.iter().map(|c| sorted_runs(c, &mut rng)).collect();
            }
            let data = Dataset::new(table);
            let mut cfg = HolisticEngineConfig::split_half_sharded(2, 2);
            cfg.holistic.max_workers = Some(0);
            cfg.holistic.storage_budget = Some(50_000 * TUPLE * 14 / 10);
            let e = HolisticEngine::new(data, cfg);
            let exact = |attr: usize, lo: i64, hi: i64| {
                let oracle = scan_stats(e.data.column(attr), Predicate::range(lo, hi));
                let q = query(attr, lo, hi);
                assert_eq!(e.execute(&q), oracle.count, "{q:?} clustered={clustered}");
            };
            for lo in [10_000, 30_000, 50_000] {
                exact(0, lo, lo + 10_000);
            }
            // Reads of a shard's whole range read every zone its build
            // reads, so they build on either base (a narrow one would scan
            // the few zones it meets on the clustered base instead).
            exact(1, 0, peek(&e, 1).plan().cuts()[0]);
            let before = peek(&e, 0);
            let (_, dropped) = before.resident(1).expect("attribute 0 was built whole");
            assert!(dropped.is_dropped(), "clustered={clustered}");
            let cut = before.plan().cuts()[0];
            exact(0, cut, 1_000_000);
            let after = peek(&e, 0);
            let (rebuilt, _) = live(&after, 1).expect("the dropped shard is back");
            assert!(!Arc::ptr_eq(rebuilt, before.shard(1)));
            let vals = rebuilt.snapshot_range(0, rebuilt.len());
            let mut want: Vec<i64> = e
                .data
                .column(0)
                .iter()
                .copied()
                .filter(|&v| v >= cut)
                .collect();
            assert_eq!(vals.len(), want.len(), "clustered={clustered}");
            want.sort_unstable();
            assert_eq!(
                rebuilt.domain(),
                want.first().copied().zip(want.last().copied()),
                "clustered={clustered}"
            );
            for lo in [cut - 5_000, cut, 600_000, 999_000] {
                exact(0, lo, lo + 7_500);
            }
            e.stop();
        }
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
            let q = query(attr, lo, lo + 5_000);
            let oracle = scan_stats(e.data.column(attr), Predicate::range(q.lo, q.hi));
            assert_eq!(e.execute(&q), oracle.count, "{q:?}");
        };
        // Driven by its first, narrow term: attribute 0's lower shard.
        let conjunction = || {
            let terms = [query(0, 10_000, 15_000), query(1, 0, 600_000)];
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

    /// Records the index space has ever registered: the live ones and
    /// every one evicted or retired since.
    fn registrations(e: &HolisticEngine) -> usize {
        let (a, p, o, d) = e.space().membership_counts();
        a + p + o + d
    }

    /// Zones of `col` (1,024-row blocks, as a shard build reads them) whose
    /// minimum and maximum meet `[lo, hi)`.
    fn zones_meeting(col: &[i64], lo: i64, hi: i64) -> usize {
        col.chunks(1_024)
            .filter(|z| z.iter().max().is_some_and(|&max| lo <= max))
            .filter(|z| z.iter().min().is_some_and(|&min| min < hi))
            .count()
    }

    #[test]
    fn cold_reads_under_the_budget_scan_until_a_build_pays_and_free_evicted_columns() {
        // Three 400 KB attributes in four shards under a budget of one:
        // attribute 0 (uniform) fills it; attribute 1 holds the same kind
        // of values in sorted runs, attribute 2 shuffled. Point screening
        // is off, so a point probe reads its unit range like any count
        // (a screen builds the owning shard).
        let rows = 50_000;
        let mut rng = StdRng::seed_from_u64(51);
        let mut table = uniform_table(3, rows, 1_000_000, 11);
        table[1] = sorted_runs(&table[1], &mut rng);
        let data = Dataset::new(table);
        let mut cfg = HolisticEngineConfig::split_half_sharded(2, 4);
        cfg.point_filters = false;
        cfg.holistic.max_workers = Some(0);
        cfg.holistic.storage_budget = Some(rows * TUPLE);
        let e = HolisticEngine::new(data, cfg);
        // One read of `[lo, hi)` through entry point `entry` against the
        // oracle: verified, locked, snapshot, or the point `lo` (`hi` is
        // `lo + 1`); `entries` lists all four in turn, each with its range.
        let read = |entry: usize, attr: usize, lo: i64, hi: i64| {
            let oracle = scan_stats(e.data.column(attr), Predicate::range(lo, hi));
            let (q, stats) = (query(attr, lo, hi), (oracle.count, oracle.sum));
            match entry {
                0 => assert_eq!(e.execute_verified(&q), stats, "{q:?}"),
                1 => assert_eq!(e.execute(&q), oracle.count, "{q:?}"),
                2 => assert_eq!(e.execute_snapshot(&q), Some(stats), "{q:?}"),
                _ => assert_eq!(e.execute_points(attr, &[lo]), Some(oracle.count), "{q:?}"),
            }
        };
        let entries = |lo: i64, hi: i64| [(0, hi), (1, hi), (2, hi), (3, lo + 1)];
        let exact = |attr: usize, lo: i64, hi: i64| {
            for (entry, hi) in entries(lo, hi) {
                read(entry, attr, lo, hi);
            }
        };
        for _ in 0..3 {
            exact(0, 0, 1_000_000);
        }
        assert_eq!(records(&e), 4, "attribute 0 went in whole");
        // Narrow reads inside shard 1 of the clustered attribute meet a few
        // of the zones its build reads: they are answered from the base
        // and register nothing, until the read whose zones would take the
        // scanned total to the build's.
        let cuts = peek(&e, 1).plan().cuts().to_vec();
        let clustered = e.data.column(1);
        let build = zones_meeting(clustered, cuts[0], cuts[1]);
        assert!(build >= 8, "the shard's build reads {build} zones");
        let (mut scanned, mut reads) = (0, 0);
        'steps: loop {
            let lo = rng.random_range(cuts[0] + 1_000..cuts[1] - 3_000);
            for (entry, hi) in entries(lo, lo + 2_000) {
                let zones = zones_meeting(clustered, lo, hi);
                let before = registrations(&e);
                read(entry, 1, lo, hi);
                reads += 1;
                if scanned + zones < build {
                    scanned += zones;
                    assert_eq!(registrations(&e), before, "read {reads} registered");
                    assert!(peek(&e, 1).resident(1).is_none(), "read {reads} built");
                    continue;
                }
                assert_eq!(registrations(&e), before + 1, "the break-even read");
                assert!(live(&peek(&e, 1), 1).is_some());
                break 'steps;
            }
        }
        assert!(reads > 2, "{reads} reads to break even");
        assert_eq!(records(&e), live_cells(&e));
        // A uniform attribute's first narrow read builds its shard: every
        // zone meets it. Making room evicts attribute 1's once-read shard.
        let evicted = Arc::downgrade(peek(&e, 1).shard(1));
        let before = registrations(&e);
        let uniform_cut = peek(&e, 2).plan().cuts()[0];
        exact(2, uniform_cut + 40_000, uniform_cut + 42_000);
        assert_eq!(registrations(&e), before + 1);
        assert!(live(&peek(&e, 2), 1).is_some());
        assert!(peek(&e, 1)
            .resident(1)
            .expect("still in its cell")
            .1
            .is_dropped());
        assert!(evicted.upgrade().is_some(), "the cell holds the column");
        // The next read of attribute 1 scans, and frees the evicted column;
        // the reads after it scan on until their zones reach the build's.
        let lo = cuts[0] + 5_000;
        let (mut scanned, mut built) = (0, false);
        for (entry, hi) in entries(lo, lo + 2_000) {
            let zones = zones_meeting(clustered, lo, hi);
            read(entry, 1, lo, hi);
            assert!(evicted.upgrade().is_none(), "the evicted column lives on");
            built |= scanned + zones >= build;
            scanned += zones;
            assert_eq!(registrations(&e), before + 1 + built as usize, "{entry}");
        }
        // A read covering the clustered shard reads every zone of its build,
        // so it builds unless the reads above did, and either build evicts
        // the uniform shard; the next read of the uniform attribute
        // rebuilds that, and frees the evicted column.
        let evicted = Arc::downgrade(peek(&e, 2).shard(1));
        exact(1, cuts[0], cuts[1]);
        assert!(peek(&e, 2)
            .resident(1)
            .expect("still in its cell")
            .1
            .is_dropped());
        exact(2, uniform_cut + 60_000, uniform_cut + 62_000);
        assert!(evicted.upgrade().is_none(), "the evicted column lives on");
        assert!(live(&peek(&e, 2), 1).is_some());
        assert_eq!(records(&e), live_cells(&e));
        e.stop();
    }

    #[test]
    fn shard_admissions_race_without_orphans() {
        race_shard_admissions(false);
    }

    /// The same race over values in sorted runs: most narrow reads scan
    /// the base zones they meet, so scans of a shard, its break-even
    /// build, evictions and vacated-cell swaps interleave.
    #[test]
    fn shard_admissions_race_without_orphans_on_clustered_data() {
        let scans = holix_telemetry::registry().counter("cracking_cold_scans_total");
        let before = scans.get();
        race_shard_admissions(true);
        if holix_telemetry::metrics_enabled() {
            assert!(scans.get() > before, "no read scanned");
        }
    }

    /// Four threads, each on its own shard of three cold attributes, under
    /// a budget of one attribute: admissions, evictions and vacated-cell
    /// swaps of one attribute race each other all the time. Every answer
    /// must be exact, and at quiesce the registry's live records are
    /// exactly the cells the engine holds.
    fn race_shard_admissions(clustered: bool) {
        const QUERIES: usize = 2_000;
        let rows = 20_000;
        let mut table = uniform_table(3, rows, 1_000_000, 9);
        if clustered {
            let mut rng = StdRng::seed_from_u64(52);
            table = table.iter().map(|c| sorted_runs(c, &mut rng)).collect();
        }
        let data = Dataset::new(table);
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
                            let q = query(i % 3, lo, lo + rng.random_range(1..20_000));
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
            let q = query(i % attrs, lo, lo + rng.random_range(1..10_000));
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
        // Narrow reads inside the domain: every zone of a uniform base
        // meets them, so each builds its attribute (one at the domain's
        // edge meets about half the zones, and would scan them instead).
        for attr in 0..3 {
            let q = query(attr, 400_000, 401_000);
            assert_eq!(
                e.execute(&q),
                scan_stats(e.data.column(attr), Predicate::range(q.lo, q.hi)).count
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
        let q = query(0, 100_000, 900_000);
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
        let q = query(0, 0, 1_000_000);
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
        let q = query(0, 0, 1_000_000);
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
