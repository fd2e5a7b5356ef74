//! The holistic indexing thread (Fig 2): monitor CPU utilisation → activate
//! one worker per idle hardware context → wait for all workers → repeat.
//!
//! "At all times there is an active holistic indexing thread which runs in
//! parallel to user queries. […] When n idle CPU cores are detected, n
//! holistic worker threads are activated." The daemon records one
//! [`CycleRecord`] per activation so Fig 6(d) (worker time and worker count
//! per tuning cycle) can be regenerated; it keeps the newest
//! `CYCLE_LOG_CAP` (2¹⁴) of them, and the totals in counters.

use crate::config::HolisticConfig;
use crate::cpu::CpuMonitor;
use crate::index_space::IndexSpace;
use crate::worker::{idle_function, WorkerReport};
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::VecDeque;
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
    /// Update queues the workers drained in the background this cycle.
    pub merges: u64,
    /// Successful refinements across all workers.
    pub refinements: u64,
    /// Attempts aborted on latched pieces.
    pub busy: u64,
}

/// Cycle records a daemon keeps: the newest ones (≈ 1.2 MB of them), so
/// the log stays flat in uptime however often the daemon activates.
const CYCLE_LOG_CAP: usize = 1 << 14;

/// Appends `record` to `log`, dropping the oldest record at the cap.
fn push_cycle(log: &mut VecDeque<CycleRecord>, record: CycleRecord) {
    if log.len() == CYCLE_LOG_CAP {
        log.pop_front();
    }
    log.push_back(record);
}

/// Handle to the running holistic indexing thread.
pub struct HolisticDaemon {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
    cycles: Arc<Mutex<VecDeque<CycleRecord>>>,
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
        let cycles = Arc::new(Mutex::new(VecDeque::new()));
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

    /// Signals the thread to stop and joins it; returns the cycle records
    /// it kept, as [`HolisticDaemon::cycles`] does.
    pub fn stop(mut self) -> Vec<CycleRecord> {
        self.shutdown();
        self.cycles()
    }

    /// The newest `CYCLE_LOG_CAP` (2¹⁴) cycle records so far, oldest
    /// first.
    pub fn cycles(&self) -> Vec<CycleRecord> {
        self.cycles.lock().iter().copied().collect()
    }

    /// Total successful refinements across all cycles, the dropped
    /// records' included.
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
    cycles: &Mutex<VecDeque<CycleRecord>>,
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

        // Nothing to refine and no queue to drain? Skip the activation
        // entirely (cheap check so an idle system does not spin worker
        // threads).
        {
            let mut probe = SmallRng::seed_from_u64(config.seed ^ cycle_no);
            if space.pick(&mut probe).is_empty() {
                cycle_no += 1;
                continue;
            }
        }

        let t0 = Instant::now();
        let reports: Vec<WorkerReport> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|w| {
                    let seed = config
                        .seed
                        .wrapping_mul(0x9E3779B97F4A7C15)
                        .wrapping_add(cycle_no << 8)
                        .wrapping_add(w as u64);
                    s.spawn(move || {
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
        });

        let record = CycleRecord {
            workers: n,
            wall: t0.elapsed(),
            worker_time_total: reports.iter().map(|r| r.duration).sum(),
            merges: reports.iter().map(|r| r.merges).sum(),
            refinements: reports.iter().map(|r| r.refinements).sum(),
            busy: reports.iter().map(|r| r.busy).sum(),
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
        push_cycle(&mut cycles.lock(), record);
        cycle_no += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::LoadAccountant;
    use crate::index_space::Membership;
    use holix_cracking::CrackerColumn;

    fn space_with_columns(cols: usize, n: usize) -> Arc<IndexSpace> {
        let space = IndexSpace::new(HolisticConfig {
            monitor_interval: Duration::from_millis(1),
            ..HolisticConfig::default()
        });
        for c in 0..cols {
            let base: Vec<i64> = (0..n as i64).rev().collect();
            let h = Arc::new(CrackerColumn::from_base(format!("c{c}"), &base));
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
        // The cycle that made them optimal may still be finishing its
        // activation: count once the records hold still for 20 ms.
        let mut cycles_at_optimal = daemon.cycles().len();
        loop {
            std::thread::sleep(Duration::from_millis(20));
            let now = daemon.cycles().len();
            if now == cycles_at_optimal {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "cycles never stopped");
            cycles_at_optimal = now;
        }
        std::thread::sleep(Duration::from_millis(60));
        // No further activations once nothing is pickable.
        assert_eq!(daemon.cycles().len(), cycles_at_optimal);
        drop(daemon);
    }

    #[test]
    fn the_cycle_log_keeps_the_newest_records() {
        let record = |i: usize| CycleRecord {
            workers: 1,
            wall: Duration::ZERO,
            worker_time_total: Duration::ZERO,
            merges: 0,
            refinements: i as u64,
            busy: 0,
        };
        let mut log = VecDeque::new();
        let pushed = 3 * CYCLE_LOG_CAP + 5;
        for i in 0..pushed {
            push_cycle(&mut log, record(i));
            assert_eq!(log.len(), (i + 1).min(CYCLE_LOG_CAP));
        }
        let kept: Vec<u64> = log.iter().map(|r| r.refinements).collect();
        let newest: Vec<u64> = (pushed - CYCLE_LOG_CAP..pushed).map(|i| i as u64).collect();
        assert_eq!(kept, newest);
    }

    #[test]
    fn drop_stops_the_thread() {
        let space = space_with_columns(1, 100_000);
        let monitor = LoadAccountant::new(2);
        let daemon = HolisticDaemon::spawn(space, monitor, fast_config());
        drop(daemon); // must not hang
    }
}
