//! The wire guard: two fixed full-size cells at N=4, each run on threads,
//! under the deterministic simulator and over TCP loopback
//! (`NetCoordinator` + `InProcessLauncher`), held to the counters that
//! fingerprint batch-mode evaluation and to the frozen wire envelope.
//!
//! * The answer equals the sequential least model.
//! * `bytes_shipped` is at least 2× under the row-format reference in
//!   `BENCH_wire_guard.json`, a frozen snapshot of the pre-columnar codec
//!   that is never regenerated (regenerating it would compare the codec
//!   against itself). Its `firings` column counts sending rules the
//!   workers of that time executed, so it is a bytes reference only.
//! * Every firing is a processing firing: the sending step is a route
//!   table, not rules.
//! * Σ processing firings and `comm_tuples` equal their pinned values on
//!   every transport: an update session promotes base predicates only
//!   inside a session, so ordinary batch compilation must keep exactly
//!   these plans and this traffic.
//! * `bytes_shipped` of the fixed-seed fault-free simulated run is pinned
//!   exactly: that run is deterministic, so any byte a change leaks onto
//!   the batch wire (a retract flag, a lost delta encoding) fails here.
//!   Threaded batching is timing-dependent, so threaded bytes are held to
//!   the envelope only.

use std::sync::Arc;

use gst_common::json::Json;
use gst_core::prelude::{decode_constraint, example2_valduriez, example3_hash_partition};
use gst_core::schemes::CompiledScheme;
use gst_eval::seminaive_eval;
use gst_frontend::LinearSirup;
use gst_runtime::{
    ExecutionOutcome, FaultPlan, InProcessLauncher, NetConfig, NetCoordinator, RuntimeConfig,
    Transport,
};
use gst_storage::{round_robin_fragment, Relation};
use gst_workloads::{chain, grid, linear_ancestor};

const N: usize = 4;

/// One guarded cell: its name in the frozen reference and its pins.
struct Cell {
    workload: &'static str,
    scheme: &'static str,
    processing_firings: u64,
    comm_tuples: u64,
    sim_bytes: u64,
}

/// `bytes_shipped` of the frozen row-format reference row for `cell`.
fn reference_bytes(cell: &Cell) -> u64 {
    let text = include_str!("../../../BENCH_wire_guard.json");
    let base = Json::parse(text).expect("BENCH_wire_guard.json parses");
    let rows = base
        .get("rows")
        .and_then(Json::as_arr)
        .expect("reference has rows");
    let row = rows
        .iter()
        .find(|r| {
            r.get("workload").and_then(Json::as_str) == Some(cell.workload)
                && r.get("scheme").and_then(Json::as_str) == Some(cell.scheme)
                && r.get("n").and_then(Json::as_num) == Some(N as f64)
        })
        .unwrap_or_else(|| {
            panic!(
                "{}/{}/n={N} missing from the reference",
                cell.workload, cell.scheme
            )
        });
    row.get("bytes_shipped")
        .and_then(Json::as_num)
        .expect("reference row has bytes_shipped") as u64
}

/// Run `scheme` on every transport and check each outcome against `cell`.
fn guard(cell: &Cell, data: &Relation, scheme: &CompiledScheme) {
    let fx = linear_ancestor();
    let anc = fx.output_id();
    let oracle = seminaive_eval(&fx.program, &fx.database(data))
        .unwrap()
        .relation(anc);
    let reference = reference_bytes(cell);

    let config = RuntimeConfig::default();
    let net = NetCoordinator::new(
        Arc::new(InProcessLauncher {
            decoder: Some(decode_constraint),
        }),
        NetConfig::default(),
    );
    let runs: [(&str, ExecutionOutcome); 3] = [
        ("threads", scheme.execute(&config).unwrap()),
        ("sim", scheme.run_simulated(7, FaultPlan::none()).unwrap()),
        ("tcp", net.execute(scheme.workers.clone(), &config).unwrap()),
    ];
    for (transport, outcome) in &runs {
        let what = format!("{}/{}/n={N} on {transport}", cell.workload, cell.scheme);
        let stats = &outcome.stats;
        let bytes = stats.total_bytes_sent();
        assert!(
            outcome.relation(anc).set_eq(&oracle),
            "{what}: diverged from the sequential oracle"
        );
        assert!(
            bytes * 2 <= reference,
            "{what}: shipped {bytes} bytes, needs <= {} (2x under the row-format reference)",
            reference / 2
        );
        assert_eq!(
            stats.total_firings(),
            stats.total_processing_firings(),
            "{what}: a sending step ran as rules"
        );
        assert_eq!(
            stats.total_processing_firings(),
            cell.processing_firings,
            "{what}: processing firings"
        );
        assert_eq!(
            stats.total_tuples_sent(),
            cell.comm_tuples,
            "{what}: comm_tuples"
        );
        if *transport == "sim" {
            assert_eq!(
                bytes, cell.sim_bytes,
                "{what}: bytes of the seed-7 simulated run"
            );
        }
    }
}

/// A hash-partition scheme: one buffer per destination.
#[test]
fn grid_under_the_hash_partition() {
    let cell = Cell {
        workload: "grid",
        scheme: "qi-hash",
        processing_firings: 79_800,
        comm_tuples: 39_520,
        sim_bytes: 144_380,
    };
    let fx = linear_ancestor();
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    let data = grid(20, 20);
    let scheme = example3_hash_partition(&sirup, N, &fx.database(&data)).unwrap();
    guard(&cell, &data, &scheme);
}

/// A broadcast scheme: one buffer, multicast.
#[test]
fn chain_under_the_broadcast() {
    let cell = Cell {
        workload: "chain",
        scheme: "ex2-broadcast",
        processing_firings: 18_528,
        comm_tuples: 55_584,
        sim_bytes: 171_948,
    };
    let fx = linear_ancestor();
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    let data = chain(192);
    let frag = round_robin_fragment(&data, N).unwrap();
    let scheme = example2_valduriez(&sirup, frag, &fx.database(&data)).unwrap();
    guard(&cell, &data, &scheme);
}
