//! `service_steady` — §5.8 grown into the service: closed-loop sessions
//! submit through [`QueryService`] against an index the warm-up has already
//! cracked to convergence.
//!
//! `nproc` generator threads drive [`SESSIONS_PER_THREAD`] sessions each.
//! Every session is a closed loop with zero think time — its next query is
//! submitted when its previous answer has been collected — and a thread
//! collects in submission order, so the dispatchers always find a queue to
//! batch from. (With one session per core, the cores idle between
//! hand-offs; on a small virtual machine the wake-up cost of an idle core
//! swings by an order of magnitude with the host's mood, and the
//! benchmark would measure that.)
//!
//! Traffic per session: Zipf-ranked hot regions (16 regions, three quarters
//! exact repeats of the region's canonical window, the rest variants on a
//! grid inside it), 10% unit-range point probes on a hot key set (half of
//! the keys absent) and 5% wide ranges spanning several shards. The work
//! is queueing, tickets, batching/coalescing and per-submission pricing;
//! cracking is exact hits.

use super::{engine_config, nproc, Workload};
use crate::data::{ColumnSpec, Shape};
use crate::layers::BedStats;
use crate::ops::{probe_planner, Op, Stream, Trace, NO_ANSWER};
use crate::rng::{Rng, Zipf};
use crate::runner::{RunConfig, Samples, Scale, CHUNK_OPS, SPAN_CAPACITY};
use crate::spans::{Name, Recorder, NO_PARENT};
use holix_engine::api::{Dataset, QueryEngine};
use holix_engine::HolisticEngine;
use holix_server::{
    AdmissionPolicy, DecomposePolicy, QueryResult, QueryService, Scheduling, ServiceConfig,
    Session, Ticket,
};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// Frozen sizes.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub attrs: usize,
    pub rows: usize,
    pub regions: usize,
    /// Warm-up ops per generator thread (inside `setup_s`).
    pub warmup_ops: usize,
    /// Ops per generator thread in the timed block.
    pub block_ops: usize,
}

impl Sizes {
    pub fn of(scale: Scale) -> Sizes {
        match scale {
            Scale::Tiny => Sizes {
                attrs: 2,
                rows: 1 << 15,
                regions: 16,
                warmup_ops: 4_000,
                block_ops: 4_000,
            },
            Scale::Full => Sizes {
                attrs: 4,
                rows: 1 << 19,
                regions: 16,
                warmup_ops: 40_000,
                block_ops: 150_000,
            },
        }
    }
}

/// Closed-loop sessions each generator thread drives.
pub const SESSIONS_PER_THREAD: usize = 8;
const EXACT_REPEAT: f64 = 0.75;
const POINT_SHARE: f64 = 0.10;
const WIDE_SHARE: f64 = 0.05;
/// Distinct keys the point probes draw from.
const HOT_KEYS: usize = 1024;

/// Generator thread `client`'s stream. The hot regions and keys are
/// fleet-wide (they depend on the seed only); each thread's Zipf ranking is
/// rotated by its index so threads share the hot set but not their
/// favourite.
pub fn generate(sizes: &Sizes, seed: u64, client: usize) -> Stream {
    let spec = ColumnSpec {
        rows: sizes.rows,
        shape: Shape::Uniform,
    };
    let domain = spec.domain();
    let width = domain / 100;
    // Every bound sits on a grid, so the set of distinct bounds is finite
    // and the warm-up can crack all of it: the timed block then runs on a
    // converged index, as a long-lived service would.
    let fine = width / 8;
    let coarse = domain / 64;
    let mut fleet = Rng::new(seed, 0x5E21);
    let regions: Vec<(usize, i64)> = (0..sizes.regions)
        .map(|_| {
            (
                fleet.below(sizes.attrs as u64) as usize,
                fleet.range(2 * width / fine, (domain - 4 * width) / fine) * fine,
            )
        })
        .collect();
    // Even keys are present exactly once, odd keys never.
    let hot_keys: Vec<i64> = (0..HOT_KEYS)
        .map(|i| fleet.range(0, domain / 2) * 2 + (i % 2) as i64)
        .collect();
    let zipf = Zipf::new(sizes.regions);
    let mut rng = Rng::new(seed, 0x5E22 + client as u64);
    let mut stream = Stream::default();
    for _ in 0..sizes.warmup_ops + sizes.block_ops {
        let u = rng.unit();
        let (attr, lo, hi) = if u < POINT_SHARE {
            let attr = rng.below(sizes.attrs as u64) as usize;
            let key = hot_keys[rng.below(HOT_KEYS as u64) as usize];
            (attr, key, key + 1)
        } else if u < POINT_SHARE + WIDE_SHARE {
            let attr = rng.below(sizes.attrs as u64) as usize;
            let w = (32 + rng.range(0, 16)) * coarse;
            let lo = rng.range(0, (domain - w) / coarse + 1) * coarse;
            (attr, lo, lo + w)
        } else {
            let (attr, canonical) = regions[(zipf.sample(&mut rng) + client) % sizes.regions];
            if rng.chance(EXACT_REPEAT) {
                (attr, canonical, canonical + width)
            } else {
                let lo = canonical + rng.range(-16, 17) * fine;
                let w = rng.range(4, 17) * fine;
                (attr, lo, lo + w)
            }
        };
        stream
            .ops
            .push(Op::range(attr, lo, hi, spec.count_sum(lo, hi).0));
    }
    stream
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: (nproc() / 2).max(1),
        queue_capacity: 256,
        admission: AdmissionPolicy::Block,
        scheduling: Scheduling::CrackAware,
        batch_max: 64,
        contexts_per_worker: 1,
        affinity: true,
        decompose: DecomposePolicy::CostBased,
        cutover: true,
        calibration: true,
        ..ServiceConfig::default()
    }
}

/// One submitted, not yet collected query.
struct InFlight {
    ticket: Ticket,
    submitted: Instant,
    expected: u64,
    /// `(op id, bench.op span id, ns when submit returned)` for traced ops.
    traced: Option<(u32, u32, u64)>,
}

/// What one generator thread keeps between rounds: buffers that must not be
/// allocated inside a timed block.
struct Lane {
    samples: Samples,
    ring: Vec<Option<InFlight>>,
}

/// Samples a completed query's latency and checks its answer.
fn collect(
    slot: InFlight,
    result: QueryResult,
    samples: &mut Samples,
    trace: Option<&mut Trace<'_>>,
) -> u64 {
    samples.push(slot.submitted.elapsed());
    if let (Some((op_id, root, t1)), Some(trace)) = (slot.traced, trace) {
        let rec = &mut *trace.rec;
        let t2 = rec.now();
        // In flight from submit's return until seen complete; the engine
        // time the ticket reports sits at the end of that interval, the
        // rest (the span's self time) is queueing and hand-off.
        let wait = rec.push(op_id, Name::ServerWait, root, t1, t2);
        let service = (result.service_time.as_nanos() as u64).min(t2 - t1);
        rec.push(op_id, Name::EngineExecute, wait, t2 - service, t2);
        rec.close(root, t2);
    }
    (result.count != slot.expected) as u64
}

/// Submits `op`; a traced op also gets the benchmark's own planner probe
/// and a `server.submit` span.
fn submit(
    session: &Session,
    engine: &HolisticEngine,
    op: &Op,
    op_id: u32,
    trace: Option<&mut Trace<'_>>,
) -> Option<InFlight> {
    let mut traced = None;
    let mut submitted = Instant::now();
    let ticket = match trace.filter(|t| op_id & t.sample_mask == 0) {
        None => session.submit(op.spec()),
        Some(trace) => {
            probe_planner(engine, &op.spec(), op_id, trace);
            submitted = Instant::now();
            let rec = &mut *trace.rec;
            let t1 = rec.now();
            let root = rec.open(op_id, Name::BenchOp, NO_PARENT, t1);
            let ticket = session.submit(op.spec());
            let t2 = rec.now();
            rec.push(op_id, Name::ServerSubmit, root, t1, t2);
            traced = Some((op_id, root, t2));
            ticket
        }
    };
    Some(InFlight {
        ticket: ticket.ok()?,
        submitted,
        expected: op.expected,
        traced,
    })
}

/// Runs `ops` over the lane's sessions. The thread sweeps its sessions
/// round and round without ever blocking: a session whose answer has
/// arrived is collected and immediately given the next query of the
/// stream. Returns oracle mismatches.
fn pipelined(
    sessions: &[Session],
    engine: &HolisticEngine,
    ops: &[Op],
    first_op_id: u32,
    lane: &mut Lane,
    mut trace: Option<&mut Trace<'_>>,
) -> u64 {
    let mut failed = 0u64;
    let mut next = 0usize;
    let mut in_flight = 0usize;
    let mut finished = 0usize;
    let t0 = Instant::now();
    while next < ops.len() || in_flight > 0 {
        for (slot, session) in sessions.iter().enumerate() {
            if let Some(pending) = &lane.ring[slot] {
                let Some(result) = pending.ticket.try_result() else {
                    continue;
                };
                let done = lane.ring[slot].take().expect("checked above");
                failed += collect(done, result, &mut lane.samples, trace.as_deref_mut());
                in_flight -= 1;
                finished += 1;
                if finished.is_multiple_of(CHUNK_OPS) {
                    lane.samples.tick(finished, t0.elapsed());
                }
            }
            let Some(op) = ops.get(next) else { continue };
            let op_id = first_op_id.wrapping_add(next as u32);
            next += 1;
            lane.ring[slot] = submit(session, engine, op, op_id, trace.as_deref_mut());
            if lane.ring[slot].is_some() {
                in_flight += 1;
            } else {
                // Refused: a failed read. Keep the sample count equal to
                // the op count; no oracle value equals `NO_ANSWER`.
                lane.samples.push(Duration::ZERO);
                failed += (op.expected != NO_ANSWER) as u64;
            }
        }
        std::hint::spin_loop();
    }
    failed
}

pub struct ServiceSteady {
    sizes: Sizes,
    data: Dataset,
    streams: Vec<Stream>,
    lanes: Vec<Mutex<Lane>>,
}

pub struct Bed {
    engine: Arc<HolisticEngine>,
    service: QueryService,
}

impl ServiceSteady {
    pub fn new(cfg: &RunConfig) -> Self {
        let sizes = Sizes::of(cfg.scale);
        let threads = (nproc() / 2).max(1);
        let spec = ColumnSpec {
            rows: sizes.rows,
            shape: Shape::Uniform,
        };
        let columns = (0..sizes.attrs)
            .map(|a| spec.generate(&mut Rng::new(cfg.seed, 0xDA7A + a as u64)))
            .collect();
        ServiceSteady {
            sizes,
            data: Dataset::new(columns),
            streams: (0..threads)
                .map(|c| generate(&sizes, cfg.seed, c))
                .collect(),
            lanes: (0..threads)
                .map(|_| {
                    Mutex::new(Lane {
                        samples: Samples::with_capacity(sizes.block_ops.max(sizes.warmup_ops)),
                        ring: (0..SESSIONS_PER_THREAD).map(|_| None).collect(),
                    })
                })
                .collect(),
        }
    }

    /// Every generator thread runs `range` of its stream at once; returns
    /// `(wall from the common start, oracle mismatches)`. With a trace,
    /// each thread records into its own buffer and the buffers are merged
    /// afterwards.
    fn drive(
        &self,
        bed: &Bed,
        range: std::ops::Range<usize>,
        trace: Option<&mut Trace<'_>>,
    ) -> (Duration, u64) {
        let start = Barrier::new(self.streams.len() + 1);
        let shape = trace
            .as_ref()
            .map(|t| (t.sample_mask, bed.service.calibrator().model()));
        let mut locals: Vec<Option<Recorder>> = self
            .streams
            .iter()
            .map(|_| {
                trace.as_ref().map(|t| {
                    Recorder::with_capacity(SPAN_CAPACITY / self.streams.len(), t.rec.origin())
                })
            })
            .collect();
        let (wall, failed) = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .streams
                .iter()
                .zip(&self.lanes)
                .zip(&mut locals)
                .map(|((stream, lane), local)| {
                    let sessions: Vec<Session> = (0..SESSIONS_PER_THREAD)
                        .map(|_| bed.service.session())
                        .collect();
                    let (start, range, engine) = (&start, range.clone(), &bed.engine);
                    s.spawn(move || {
                        // This thread polls for answers and so occupies a
                        // core for the whole block: tell the accountant, or
                        // the daemon would send a refinement worker to a
                        // context that is not idle.
                        let _load = engine.accountant().begin_task(1);
                        let mut lane = lane.lock().expect("lane poisoned");
                        lane.samples.clear();
                        let mut trace = match (local, shape) {
                            (Some(rec), Some((sample_mask, model))) => Some(Trace {
                                rec,
                                sample_mask,
                                model,
                            }),
                            _ => None,
                        };
                        start.wait();
                        pipelined(
                            &sessions,
                            engine,
                            &stream.ops[range.clone()],
                            range.start as u32,
                            &mut lane,
                            trace.as_mut(),
                        )
                    })
                })
                .collect();
            start.wait();
            let t0 = Instant::now();
            let failed: u64 = handles
                .into_iter()
                .map(|h| h.join().expect("generator thread panicked"))
                .sum();
            (t0.elapsed(), failed)
        });
        if let Some(trace) = trace {
            for local in locals.iter().flatten() {
                trace.rec.absorb(local);
            }
        }
        (wall, failed)
    }
}

impl Workload for ServiceSteady {
    type Bed = Bed;

    fn name(&self) -> &'static str {
        "service_steady"
    }

    fn base_bytes(&self) -> usize {
        self.sizes.attrs * self.sizes.rows * std::mem::size_of::<i64>()
    }

    fn block_ops(&self) -> usize {
        self.sizes.block_ops * self.streams.len()
    }

    fn warmup_ops(&self) -> usize {
        self.sizes.warmup_ops * self.streams.len()
    }

    fn setup(&self, failed: &mut u64) -> Bed {
        let engine = Arc::new(HolisticEngine::new(self.data.clone(), engine_config()));
        let service = QueryService::start(
            Arc::clone(&engine) as Arc<dyn QueryEngine>,
            Some(Arc::clone(engine.accountant())),
            service_config(),
        );
        let bed = Bed { engine, service };
        *failed += self.drive(&bed, 0..self.sizes.warmup_ops, None).1;
        bed.service.reset_window();
        bed
    }

    fn block(
        &self,
        bed: &Bed,
        samples: &mut Samples,
        trace: Option<&mut Trace<'_>>,
    ) -> (Duration, u64) {
        let range = self.sizes.warmup_ops..self.sizes.warmup_ops + self.sizes.block_ops;
        let out = self.drive(bed, range, trace);
        for lane in &self.lanes {
            samples.extend_from(&lane.lock().expect("lane poisoned").samples);
        }
        out
    }

    fn finish(&self, bed: Bed) -> BedStats {
        let window = bed.service.stats();
        let model = bed.service.calibrator().model();
        bed.service.shutdown();
        let mut stats = BedStats::of_engine(&bed.engine, bed.engine.stop());
        stats.service = vec![window];
        stats.service_workers = service_config().workers;
        stats.model = Some(model);
        stats
    }

    fn lanes(&self) -> usize {
        self.streams.len()
    }

    fn trace_sample_mask(&self) -> u32 {
        15 // 1 op in 16
    }
}
