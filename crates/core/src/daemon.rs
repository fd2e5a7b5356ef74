//! The holistic indexing thread (Fig 2): monitor CPU utilisation → activate
//! one worker per idle hardware context → wait for all workers → repeat.
//!
//! "At all times there is an active holistic indexing thread which runs in
//! parallel to user queries. […] When n idle CPU cores are detected, n
//! holistic worker threads are activated." The daemon records one
//! [`CycleRecord`] per activation so Fig 6(d) (worker time and worker count
//! per tuning cycle) can be regenerated.

use crate::config::HolisticConfig;
use crate::cpu::CpuMonitor;
use crate::index_space::IndexSpace;
use crate::worker::{idle_function, WorkerReport};
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One tuning-cycle activation (Fig 6(d) series).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleRecord {
    /// Workers activated this cycle.
    pub workers: usize,
    /// Wall time of the cycle (activation to last worker finishing).
    pub wall: Duration,
    /// Summed worker time (the paper's "total response time of all workers
    /// during a single tuning cycle").
    pub worker_time_total: Duration,
    /// Successful refinements across all workers.
    pub refinements: u64,
    /// Attempts aborted on latched pieces.
    pub busy: u64,
    /// Stale snapshot pieces refreshed in the background this cycle.
    pub snapshot_refreshes: u64,
    /// Point membership filters rebuilt after delete churn this cycle.
    pub filter_rebuilds: u64,
    /// Plain snapshot pieces re-encoded (FOR / delta / RLE) this cycle.
    pub segment_morphs: u64,
}

/// Handle to the running holistic indexing thread.
pub struct HolisticDaemon {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
    cycles: Arc<Mutex<Vec<CycleRecord>>>,
    total_refinements: Arc<AtomicU64>,
}

impl HolisticDaemon {
    /// Starts the tuning thread. It runs until [`HolisticDaemon::stop`] (or
    /// drop).
    pub fn spawn(
        space: Arc<IndexSpace>,
        monitor: Arc<dyn CpuMonitor>,
        config: HolisticConfig,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let cycles = Arc::new(Mutex::new(Vec::new()));
        let total_refinements = Arc::new(AtomicU64::new(0));

        let t_stop = Arc::clone(&stop);
        let t_cycles = Arc::clone(&cycles);
        let t_total = Arc::clone(&total_refinements);
        let thread = std::thread::Builder::new()
            .name("holistic-daemon".into())
            .spawn(move || {
                daemon_loop(
                    &space,
                    monitor.as_ref(),
                    &config,
                    &t_stop,
                    &t_cycles,
                    &t_total,
                );
            })
            .expect("failed to spawn holistic daemon");

        HolisticDaemon {
            stop,
            thread: Some(thread),
            cycles,
            total_refinements,
        }
    }

    /// Signals the thread to stop and joins it.
    pub fn stop(mut self) -> Vec<CycleRecord> {
        self.shutdown();
        self.cycles.lock().clone()
    }

    /// Snapshot of cycle records so far.
    pub fn cycles(&self) -> Vec<CycleRecord> {
        self.cycles.lock().clone()
    }

    /// Total successful refinements across all cycles.
    pub fn total_refinements(&self) -> u64 {
        self.total_refinements.load(Ordering::Relaxed)
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for HolisticDaemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn daemon_loop(
    space: &IndexSpace,
    monitor: &dyn CpuMonitor,
    config: &HolisticConfig,
    stop: &AtomicBool,
    cycles: &Mutex<Vec<CycleRecord>>,
    total_refinements: &AtomicU64,
) {
    let mut cycle_no = 0u64;
    while !stop.load(Ordering::Relaxed) {
        // Blocks ~monitor_interval: "Monitor CPU Utilization … Sleep 1 sec".
        let idle = monitor.idle_contexts(config.monitor_interval);
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let n = (idle / config.worker_threads.max(1)).min(config.max_workers.unwrap_or(usize::MAX));
        if n == 0 {
            continue;
        }

        // Nothing to refine? Skip the activation entirely (cheap check so an
        // idle system does not spin worker threads).
        {
            let mut probe = SmallRng::seed_from_u64(config.seed ^ cycle_no);
            if space.pick(&mut probe).is_none() {
                cycle_no += 1;
                continue;
            }
        }

        let t0 = Instant::now();
        let reports: Vec<WorkerReport> = crossbeam::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|w| {
                    let seed = config
                        .seed
                        .wrapping_mul(0x9E3779B97F4A7C15)
                        .wrapping_add(cycle_no << 8)
                        .wrapping_add(w as u64);
                    s.spawn(move |_| {
                        let mut rng = SmallRng::seed_from_u64(seed);
                        idle_function(
                            space,
                            config.refinements_per_worker,
                            config.latch_attempts,
                            &mut rng,
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("holistic worker panicked"))
                .collect()
        })
        .expect("holistic worker scope panicked");

        let record = CycleRecord {
            workers: n,
            wall: t0.elapsed(),
            worker_time_total: reports.iter().map(|r| r.duration).sum(),
            refinements: reports.iter().map(|r| r.refinements).sum(),
            busy: reports.iter().map(|r| r.busy).sum(),
            snapshot_refreshes: reports.iter().map(|r| r.snapshot_refreshes).sum(),
            filter_rebuilds: reports.iter().map(|r| r.filter_rebuilds).sum(),
            segment_morphs: reports.iter().map(|r| r.segment_morphs).sum(),
        };
        total_refinements.fetch_add(record.refinements, Ordering::Relaxed);
        // Mirror the cycle record into the process-wide registry so a live
        // service exposes the daemon's Fig 6(d) series without stopping it.
        if holix_telemetry::metrics_enabled() {
            holix_telemetry::counter!("engine_cycles_total").inc();
            holix_telemetry::counter!("engine_refinements_total").add(record.refinements);
            holix_telemetry::counter!("engine_busy_aborts_total").add(record.busy);
            holix_telemetry::counter!("engine_worker_ns_total")
                .add(record.worker_time_total.as_nanos() as u64);
            holix_telemetry::gauge!("engine_cycle_workers").set(record.workers as i64);
            holix_telemetry::histogram!("engine_cycle_wall_ns")
                .record(record.wall.as_nanos() as u64);
        }
        cycles.lock().push(record);
        cycle_no += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::LoadAccountant;
    use crate::handle::CrackerHandle;
    use crate::index_space::Membership;
    use holix_cracking::CrackerColumn;

    fn space_with_columns(cols: usize, n: usize) -> Arc<IndexSpace> {
        let space = IndexSpace::new(HolisticConfig {
            monitor_interval: Duration::from_millis(1),
            ..HolisticConfig::default()
        });
        for c in 0..cols {
            let base: Vec<i64> = (0..n as i64).rev().collect();
            let h = Arc::new(CrackerHandle::new(Arc::new(CrackerColumn::from_base(
                format!("c{c}"),
                &base,
            ))));
            space.register(vec![h], Membership::Actual);
        }
        Arc::new(space)
    }

    fn fast_config() -> HolisticConfig {
        HolisticConfig {
            monitor_interval: Duration::from_millis(1),
            ..HolisticConfig::default()
        }
    }

    #[test]
    fn daemon_refines_until_stopped() {
        let space = space_with_columns(4, 200_000);
        let monitor = LoadAccountant::new(4);
        let daemon = HolisticDaemon::spawn(Arc::clone(&space), monitor, fast_config());
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while space.total_pieces() <= 4 {
            assert!(std::time::Instant::now() < deadline, "daemon never refined");
            std::thread::sleep(Duration::from_millis(10));
        }
        let cycles = daemon.stop();
        assert!(!cycles.is_empty(), "no cycles ran");
        let total: u64 = cycles.iter().map(|c| c.refinements).sum();
        assert!(total > 0, "no refinements");
    }

    #[test]
    fn no_workers_when_cpu_saturated() {
        let space = space_with_columns(2, 100_000);
        let monitor = LoadAccountant::new(2);
        let _g = monitor.begin_task(2); // saturate both contexts
        let daemon = HolisticDaemon::spawn(
            Arc::clone(&space),
            Arc::clone(&monitor) as Arc<dyn CpuMonitor>,
            fast_config(),
        );
        std::thread::sleep(Duration::from_millis(60));
        let cycles = daemon.stop();
        assert!(cycles.is_empty(), "workers ran despite saturation");
        assert_eq!(space.total_pieces(), 2);
    }

    #[test]
    fn worker_count_matches_idle_contexts() {
        let space = space_with_columns(8, 100_000);
        let monitor = LoadAccountant::new(8);
        let _g = monitor.begin_task(5); // 3 idle
        let daemon = HolisticDaemon::spawn(
            Arc::clone(&space),
            Arc::clone(&monitor) as Arc<dyn CpuMonitor>,
            fast_config(),
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while daemon.cycles().is_empty() {
            assert!(std::time::Instant::now() < deadline, "no cycle ever ran");
            std::thread::sleep(Duration::from_millis(10));
        }
        let cycles = daemon.stop();
        assert!(cycles.iter().all(|c| c.workers == 3), "{cycles:?}");
    }

    #[test]
    fn max_workers_caps_activation() {
        let space = space_with_columns(8, 100_000);
        let monitor = LoadAccountant::new(16);
        let cfg = HolisticConfig {
            max_workers: Some(2),
            ..fast_config()
        };
        let daemon = HolisticDaemon::spawn(Arc::clone(&space), monitor, cfg);
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while daemon.cycles().is_empty() {
            assert!(std::time::Instant::now() < deadline, "no cycle ever ran");
            std::thread::sleep(Duration::from_millis(10));
        }
        let cycles = daemon.stop();
        assert!(cycles.iter().all(|c| c.workers == 2));
    }

    #[test]
    fn daemon_goes_quiet_once_everything_is_optimal() {
        // Small columns: optimal after a couple of splits.
        let space = space_with_columns(2, 10_000);
        let monitor = LoadAccountant::new(4);
        let daemon = HolisticDaemon::spawn(Arc::clone(&space), monitor, fast_config());
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while space.membership_counts().2 < 2 {
            assert!(
                std::time::Instant::now() < deadline,
                "columns did not reach optimal: {:?}",
                space.membership_counts()
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        let cycles_at_optimal = daemon.cycles().len();
        std::thread::sleep(Duration::from_millis(60));
        // No further activations once nothing is pickable.
        assert_eq!(daemon.cycles().len(), cycles_at_optimal);
        drop(daemon);
    }

    #[test]
    fn drop_stops_the_thread() {
        let space = space_with_columns(1, 100_000);
        let monitor = LoadAccountant::new(2);
        let daemon = HolisticDaemon::spawn(space, monitor, fast_config());
        drop(daemon); // must not hang
    }
}
