//! The operation stream: what the generator emits, and how one operation
//! is applied to the system through its public interface.

use crate::data::fold_answer;
use crate::spans::{Name, Recorder, NO_PARENT};
use holix_engine::api::QueryEngine;
use holix_engine::HolisticEngine;
use holix_planner::CostModel;
use holix_workloads::QuerySpec;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// `execute`: count of `[lo, hi)`.
    Range = 0,
    /// `execute_snapshot`: count and sum of `[lo, hi)`.
    Snapshot,
    /// `execute_points`: IN-list over `keys[aux .. aux + len]`.
    Points,
    /// `execute_conjunction` over `terms[aux .. aux + len]`.
    Conjunction,
    /// `queue_insert` of value `lo` as row `aux`.
    Insert,
    /// `queue_delete` of value `lo` at row `aux`.
    Delete,
}

impl Kind {
    /// Reads return an answer: they are latency-sampled and oracle-checked.
    /// Writes are acknowledgements and count toward throughput only.
    pub fn is_read(self) -> bool {
        !matches!(self, Kind::Insert | Kind::Delete)
    }
}

/// One generated operation with its precomputed expected answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub kind: Kind,
    pub attr: u32,
    pub lo: i64,
    pub hi: i64,
    pub aux: u32,
    pub len: u32,
    /// The oracle's answer, folded to one word (0 for writes).
    pub expected: u64,
}

impl Op {
    pub fn range(attr: usize, lo: i64, hi: i64, count: u64) -> Op {
        Op {
            kind: Kind::Range,
            attr: attr as u32,
            lo,
            hi,
            aux: 0,
            len: 0,
            expected: count,
        }
    }

    pub fn snapshot(attr: usize, lo: i64, hi: i64, (count, sum): (u64, u64)) -> Op {
        Op {
            kind: Kind::Snapshot,
            expected: fold_answer(count, sum),
            ..Op::range(attr, lo, hi, 0)
        }
    }

    pub fn spec(&self) -> QuerySpec {
        QuerySpec {
            attr: self.attr as usize,
            lo: self.lo,
            hi: self.hi,
        }
    }
}

/// A client's whole operation stream plus the side arrays ops index into.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stream {
    pub ops: Vec<Op>,
    pub keys: Vec<i64>,
    pub terms: Vec<QuerySpec>,
}

impl Stream {
    pub fn push_points(&mut self, attr: usize, keys: &[i64], count: u64) {
        self.ops.push(Op {
            kind: Kind::Points,
            aux: self.keys.len() as u32,
            len: keys.len() as u32,
            ..Op::range(attr, 0, 0, count)
        });
        self.keys.extend_from_slice(keys);
    }

    pub fn push_conjunction(&mut self, terms: &[QuerySpec], count: u64) {
        self.ops.push(Op {
            kind: Kind::Conjunction,
            aux: self.terms.len() as u32,
            len: terms.len() as u32,
            ..Op::range(terms[0].attr, 0, 0, count)
        });
        self.terms.extend_from_slice(terms);
    }

    pub fn push_update(&mut self, kind: Kind, attr: usize, value: i64, row: u32) {
        debug_assert!(!kind.is_read());
        self.ops.push(Op {
            kind,
            aux: row,
            ..Op::range(attr, value, value + 1, 0)
        });
    }

    fn keys_of(&self, op: &Op) -> &[i64] {
        &self.keys[op.aux as usize..(op.aux + op.len) as usize]
    }

    fn terms_of(&self, op: &Op) -> &[QuerySpec] {
        &self.terms[op.aux as usize..(op.aux + op.len) as usize]
    }

    /// The stream as bytes (the seed-determinism test compares these).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.ops.len() * 40);
        for op in &self.ops {
            out.push(op.kind as u8);
            out.extend_from_slice(&op.attr.to_le_bytes());
            out.extend_from_slice(&op.lo.to_le_bytes());
            out.extend_from_slice(&op.hi.to_le_bytes());
            out.extend_from_slice(&op.aux.to_le_bytes());
            out.extend_from_slice(&op.len.to_le_bytes());
            out.extend_from_slice(&op.expected.to_le_bytes());
        }
        for k in &self.keys {
            out.extend_from_slice(&k.to_le_bytes());
        }
        for t in &self.terms {
            out.extend_from_slice(&(t.attr as u64).to_le_bytes());
            out.extend_from_slice(&t.lo.to_le_bytes());
            out.extend_from_slice(&t.hi.to_le_bytes());
        }
        out
    }
}

/// An answer no oracle value can equal in practice: an engine path that
/// declined (`None`) or a refused submission shows up as a failed op.
pub const NO_ANSWER: u64 = u64::MAX;

/// When and how an operation is traced.
pub struct Trace<'a> {
    pub rec: &'a mut Recorder,
    /// Ops whose id has none of these bits set are traced (0 = every op).
    pub sample_mask: u32,
    /// Calibrated cost model to price the planner probe with.
    pub model: CostModel,
}

/// Applies `op` straight to the engine. With a trace, the call is wrapped
/// in a `bench.op` root span with one child span around the engine call,
/// preceded (for range predicates) by a root `planner.estimate` span
/// around a benchmark-issued `estimate_cost` + `price` probe.
#[inline]
pub fn apply_engine(
    engine: &HolisticEngine,
    stream: &Stream,
    op: &Op,
    op_id: u32,
    trace: Option<&mut Trace<'_>>,
) -> u64 {
    let Some(trace) = trace.filter(|t| op_id & t.sample_mask == 0) else {
        return call_engine(engine, stream, op);
    };
    if matches!(op.kind, Kind::Range | Kind::Snapshot) {
        probe_planner(engine, &op.spec(), op_id, trace);
    }
    let rec = &mut *trace.rec;
    let t0 = rec.now();
    let root = rec.open(op_id, Name::BenchOp, NO_PARENT, t0);
    let got = call_engine(engine, stream, op);
    let t1 = rec.now();
    let name = match op.kind {
        Kind::Range => Name::EngineExecute,
        Kind::Snapshot => Name::EngineSnapshot,
        Kind::Points => Name::EnginePoints,
        Kind::Conjunction => Name::EngineConjunction,
        Kind::Insert => Name::EngineInsert,
        Kind::Delete => Name::EngineDelete,
    };
    rec.push(op_id, name, root, t0, t1);
    let t2 = rec.now();
    rec.close(root, t2);
    got
}

/// The benchmark's own `estimate_cost` + `price` call, recorded as a root
/// `planner.estimate` span (outside the op's span: where the service prices
/// a query itself, it does so again inside `submit`).
pub(crate) fn probe_planner(
    engine: &HolisticEngine,
    q: &QuerySpec,
    op_id: u32,
    trace: &mut Trace<'_>,
) {
    let t0 = trace.rec.now();
    let price = engine.estimate_cost(q).map(|c| c.price(&trace.model));
    std::hint::black_box(price);
    let t1 = trace.rec.now();
    trace
        .rec
        .push(op_id, Name::PlannerEstimate, NO_PARENT, t0, t1);
}

#[inline]
fn call_engine(engine: &HolisticEngine, stream: &Stream, op: &Op) -> u64 {
    match op.kind {
        Kind::Range => engine.execute(&op.spec()),
        Kind::Snapshot => match engine.execute_snapshot(&op.spec()) {
            Some((count, sum)) => fold_answer(count, sum as u64),
            None => NO_ANSWER,
        },
        Kind::Points => engine
            .execute_points(op.attr as usize, stream.keys_of(op))
            .unwrap_or(NO_ANSWER),
        Kind::Conjunction => engine
            .execute_conjunction(stream.terms_of(op))
            .unwrap_or(NO_ANSWER),
        Kind::Insert => {
            engine.queue_insert(op.attr as usize, op.lo, op.aux);
            0
        }
        Kind::Delete => {
            engine.queue_delete(op.attr as usize, op.lo, op.aux);
            0
        }
    }
}
