//! Hand-built fleets the transport tests share: specs written without the
//! rewrite layer, whose least models are known exactly.

use std::sync::Arc;

use gst_common::{ituple, Interner};
use gst_eval::plan::RelationId;
use gst_frontend::parser::parse_program_with;
use gst_storage::Database;

use crate::spec::{ProcessorProgram, Route, Shards, WorkerSpec};

/// A spec whose every rule is a processing rule, no session; hand-built,
/// so its pooled shards claim nothing ([`Shards::Overlap`]).
pub(crate) fn spec(
    processor: usize,
    program: gst_frontend::Program,
    routes: Vec<Route>,
    inboxes: Vec<RelationId>,
    pooling: Vec<(RelationId, RelationId)>,
    db: Database,
) -> WorkerSpec {
    let processing_rules = (0..program.rules.len()).collect();
    WorkerSpec {
        program: ProcessorProgram {
            processor,
            program,
            routes,
            inboxes,
            processing_rules,
            pooling: pooling.into_iter().map(|(local, global)| (local, global, Shards::Overlap)).collect(),
            local_idb: vec![],
        },
        edb: Arc::new(db),
        session: None,
    }
}

/// `n` workers computing the transitive closure `t` of the chain
/// `0 → 1 → … → edges`, dealt round-robin between them (edge `k` at worker
/// `k mod n`): every derivation needs another worker's frontier, so every
/// link carries real traffic in both directions.
pub(crate) fn chain_fleet(n: usize, edges: i64) -> (Vec<WorkerSpec>, RelationId) {
    let interner = Interner::new();
    let answer = (interner.intern("t"), 2);
    let id = |name: String| (interner.intern(&name), 2);
    let mut specs = Vec::new();
    for i in 0..n {
        let src = format!("t{i}(X,Y) :- e{i}(X,Y).\nt{i}(X,Y) :- e{i}(X,Z), in{i}(Z,Y).");
        let program = parse_program_with(&src, &interner).unwrap().program;
        let mut db = Database::new(interner.clone());
        for k in (i as i64..edges).step_by(n) {
            db.insert(id(format!("e{i}")), ituple![k, k + 1]).unwrap();
        }
        let t_i = id(format!("t{i}"));
        let peers = (0..n).filter(|&j| j != i).map(|j| (j, id(format!("in{j}")))).collect();
        let route = Route::broadcast(t_i, &interner, peers);
        specs.push(spec(i, program, vec![route], vec![id(format!("in{i}"))], vec![(t_i, answer)], db));
    }
    (specs, answer)
}

/// A two-stage pipeline: processor 0 derives `out0` from `e = {1, 2}` and
/// routes every row to processor 1, which copies what it receives into
/// `out1`; both pool into `answer`, so the answer is `{1, 2}`.
pub(crate) fn pipeline() -> (Vec<WorkerSpec>, RelationId) {
    let interner = Interner::new();
    let id = |name: &str| (interner.intern(name), 1);
    let unit0 = parse_program_with("out0(X) :- e(X).", &interner).unwrap();
    let unit1 = parse_program_with("out1(X) :- inbox1(X).", &interner).unwrap();
    let (answer, inbox1) = (id("answer"), id("inbox1"));
    let mut db0 = Database::new(interner.clone());
    db0.insert(id("e"), ituple![1]).unwrap();
    db0.insert(id("e"), ituple![2]).unwrap();
    let route = Route::broadcast(id("out0"), &interner, vec![(1, inbox1)]);
    let specs = vec![
        spec(0, unit0.program, vec![route], vec![], vec![(id("out0"), answer)], db0),
        spec(1, unit1.program, vec![], vec![inbox1], vec![(id("out1"), answer)], Database::new(interner.clone())),
    ];
    (specs, answer)
}

/// A single worker closing the chain `0 → 1 → … → 5` (15 `t` tuples,
/// pooled into `answer`), its frontier fed back through its own inbox:
/// every `t` row is routed to `inbox` here — a home row, so stored in
/// `inbox` only, which is therefore what is pooled.
pub(crate) fn lone_worker() -> (WorkerSpec, RelationId) {
    let interner = Interner::new();
    let id = |name: &str| (interner.intern(name), 2);
    let src = "t(X,Y) :- e(X,Y).\nt(X,Y) :- e(X,Z), inbox(Z,Y).";
    let program = parse_program_with(src, &interner).unwrap().program;
    let mut db = Database::new(interner.clone());
    for k in 0..5i64 {
        db.insert(id("e"), ituple![k, k + 1]).unwrap();
    }
    let (t, inbox, answer) = (id("t"), id("inbox"), id("answer"));
    let route = Route::broadcast(t, &interner, vec![(0, inbox)]);
    (spec(0, program, vec![route], vec![inbox], vec![(inbox, answer)], db), answer)
}
