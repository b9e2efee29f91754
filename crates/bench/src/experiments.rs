//! One function per reproduced artifact. See DESIGN.md §4 for the index
//! and EXPERIMENTS.md for recorded paper-vs-measured outcomes.

use std::sync::Arc;

use gst_core::dataflow::{zero_comm_choice, DataflowGraph};
use gst_core::discriminator::{
    BitFn, BitVector, Constant, DiscriminatorRef, HashMod, Linear, Mixed,
};
use gst_core::network::derive_network;
use gst_core::prelude::{
    choose, example1_wolfson, example2_valduriez, example3_hash_partition, rewrite_general,
    rewrite_generalized, rewrite_no_comm, skew_aware_hash_partition, CostModel,
    GeneralizedConfig, NoCommConfig, RuleChoice, SchemeProfile, SkewPolicy,
};
use gst_core::schemes::{BaseDistribution, CompiledScheme};
use gst_eval::seminaive_eval;
use gst_frontend::LinearSirup;
use gst_runtime::{ExecutionOutcome, FaultPlan, Journal, ObsKind, RuntimeConfig};
use gst_storage::{round_robin_fragment, Relation};
use gst_workloads::{
    chain, chain_sirup, even_odd, example6_sirup, grid, layered, linear_ancestor,
    nonlinear_ancestor, random_digraph,
};

/// A rendered figure plus whether it matches the paper's drawing.
#[derive(Debug, Clone)]
pub struct FigureResult {
    /// Figure title.
    pub title: String,
    /// Rendered body (multi-line).
    pub body: String,
    /// Whether the computed artifact equals the paper's.
    pub matches_paper: bool,
}

/// **F1 — Figure 1**: the dataflow graph of `p(U,V,W) :- p(V,W,Z), q(U,Z)`
/// must be the chain `1 → 2 → 3`.
pub fn figure1() -> FigureResult {
    let fx = chain_sirup();
    let s = LinearSirup::from_program(&fx.program).unwrap();
    let g = DataflowGraph::of(&s);
    FigureResult {
        title: "Figure 1 — dataflow graph of p(U,V,W) :- p(V,W,Z), q(U,Z)".into(),
        matches_paper: g.display() == "1 → 2 → 3",
        body: g.display(),
    }
}

/// **F2 — Figure 2 / Example 5**: ancestor's dataflow graph is a cycle
/// (self-loop on position 2), so Theorem 3 yields `v(r) = ⟨Y⟩` and a
/// communication-free execution.
pub fn figure2() -> FigureResult {
    let fx = linear_ancestor();
    let s = LinearSirup::from_program(&fx.program).unwrap();
    let g = DataflowGraph::of(&s);
    let choice = zero_comm_choice(&s).unwrap();
    let v_r_name = choice.v_r[0].name(&fx.program.interner);
    let body = format!(
        "{}   (cycle on position 2)\nTheorem 3 choice: v(r) = v(e) = ⟨{}⟩",
        g.display(),
        v_r_name
    );
    FigureResult {
        title: "Figure 2 — dataflow graph of anc(X,Y) :- par(X,Z), anc(Z,Y)".into(),
        matches_paper: g.has_cycle() && v_r_name == "Y",
        body,
    }
}

/// **F3 — Figure 3 / Example 6**: the minimal network for
/// `p(X,Y) :- p(Y,Z), r(X,Z)` under `h(a,b) = (g(a),g(b))`. The paper
/// derives: no channel `(00)→(01)` or `(00)→(11)`, but `(00)→(10)`
/// exists; symmetry gives the rest.
pub fn figure3() -> FigureResult {
    let fx = example6_sirup();
    let s = LinearSirup::from_program(&fx.program).unwrap();
    let h = BitVector::new(BitFn::new(1), 2);
    let net = derive_network(
        &s,
        &[fx.program.var("Y"), fx.program.var("Z")],
        &[fx.program.var("X"), fx.program.var("Y")],
        &h,
    )
    .unwrap();
    let expect: std::collections::BTreeSet<(usize, usize)> =
        [(0, 2), (1, 0), (1, 2), (2, 1), (2, 3), (3, 1)].into_iter().collect();
    FigureResult {
        title: "Figure 3 — minimal network of Example 6, h(a,b) = (g(a), g(b))".into(),
        matches_paper: net.edges == expect,
        body: net.display(),
    }
}

/// **F4 — Figure 4 / Example 7**: the minimal network of the chain sirup
/// under the linear function `h = g(a₁) − g(a₂) + g(a₃)` over
/// `P = {−1,0,1,2}`, derived by solving the paper's equations (4)–(5)
/// over `{0,1}⁴`.
pub fn figure4() -> FigureResult {
    let fx = chain_sirup();
    let s = LinearSirup::from_program(&fx.program).unwrap();
    let h = Linear::new(BitFn::new(1), vec![1, -1, 1]);
    let net = derive_network(
        &s,
        &[fx.program.var("V"), fx.program.var("W"), fx.program.var("Z")],
        &[fx.program.var("U"), fx.program.var("V"), fx.program.var("W")],
        &h,
    )
    .unwrap();
    // Independent re-derivation of the expected edge set from the
    // equations x1−x2+x3 = v, x2−x3+x4 = u.
    let mut expect = std::collections::BTreeSet::new();
    let idx = |v: i64| (v + 1) as usize; // values −1,0,1,2 → 0..3
    for bits in 0..16u32 {
        let x = |k: u32| ((bits >> k) & 1) as i64;
        let v = x(0) - x(1) + x(2);
        let u = x(1) - x(2) + x(3);
        if u != v {
            expect.insert((idx(u), idx(v)));
        }
    }
    FigureResult {
        title: "Figure 4 — minimal network of Example 7, h = g(a1)−g(a2)+g(a3), \
                P = {−1,0,1,2}"
            .into(),
        matches_paper: net.edges == expect,
        body: net.display(),
    }
}

/// One row of the scheme-comparison experiment (E1/E2/E3).
#[derive(Debug, Clone)]
pub struct SchemeRow {
    /// Scheme label.
    pub scheme: String,
    /// Tuples crossing distinct-processor channels.
    pub comm_tuples: u64,
    /// Data messages (batches).
    pub messages: u64,
    /// Processing-rule firings across workers.
    pub firings: u64,
    /// Base tuples stored across workers.
    pub base_tuples: u64,
    /// Result equals the sequential least model.
    pub correct: bool,
}

/// Context + rows of the §4 comparison.
#[derive(Debug, Clone)]
pub struct SchemeComparison {
    /// Human description of the workload.
    pub workload: String,
    /// Sequential baseline firings.
    pub sequential_firings: u64,
    /// One row per example algorithm, in paper order 1, 3, 2.
    pub rows: Vec<SchemeRow>,
}

/// **E1/E2/E3 — §4**: run the three derived algorithms on one workload
/// and measure communication, redundancy and storage.
pub fn compare_examples(nodes: u64, edges: u64, n: usize, seed: u64) -> SchemeComparison {
    let fx = linear_ancestor();
    let data = random_digraph(nodes, edges, seed);
    let db = fx.database(&data);
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    let seq = seminaive_eval(&fx.program, &db).unwrap();
    let anc = fx.output_id();

    let run = |scheme: &CompiledScheme| -> SchemeRow {
        let outcome = scheme.run().unwrap();
        SchemeRow {
            scheme: scheme.kind.to_string(),
            comm_tuples: outcome.stats.total_tuples_sent(),
            messages: outcome.stats.total_messages(),
            firings: outcome.stats.total_processing_firings(),
            base_tuples: scheme.workers.iter().map(|w| w.edb.total_tuples() as u64).sum(),
            correct: outcome.relation(anc).set_eq(&seq.relation(anc)),
        }
    };

    let e1 = example1_wolfson(&sirup, n, &db).unwrap();
    let e3 = example3_hash_partition(&sirup, n, &db).unwrap();
    let frag = round_robin_fragment(&data, n).unwrap();
    let e2 = example2_valduriez(&sirup, frag, &db).unwrap();

    SchemeComparison {
        workload: format!(
            "random digraph: {nodes} nodes, {} edges, |anc| = {}, {n} processors, seed {seed}",
            data.len(),
            seq.relation(anc).len()
        ),
        sequential_firings: seq.stats.firings,
        rows: vec![run(&e1), run(&e3), run(&e2)],
    }
}

/// One seed of the crash-recovery experiment.
#[derive(Debug, Clone)]
pub struct RecoveryRow {
    /// Simulation seed.
    pub seed: u64,
    /// Which worker the fault plan crashed.
    pub crashed_worker: usize,
    /// Supervisor restarts performed (1 expected).
    pub restarts: u64,
    /// Replay-log retransmissions during recovery.
    pub replayed_batches: u64,
    /// Stale pre-epoch deliveries discarded (including stale tokens).
    pub stale_dropped: u64,
    /// Least model identical to the fault-free sequential oracle.
    pub correct: bool,
}

/// **R1 — crash recovery**: under a chaotic network plus one recoverable
/// mid-run crash per seed, the supervised runtime must restart the dead
/// worker, replay its lost traffic, repair the termination-detection
/// ring, and still compute the exact sequential least model (DESIGN.md
/// §7's end-to-end claim).
pub fn recovery_experiment(nodes: u64, edges: u64, n: usize, seeds: std::ops::Range<u64>) -> Vec<RecoveryRow> {
    let fx = linear_ancestor();
    let data = random_digraph(nodes, edges, 42);
    let db = fx.database(&data);
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    let seq = seminaive_eval(&fx.program, &db).unwrap();
    let anc = fx.output_id();
    let scheme = example3_hash_partition(&sirup, n, &db).unwrap();

    seeds
        .map(|seed| {
            let worker = (seed as usize) % n;
            let plan = FaultPlan {
                crash: Some(gst_runtime::CrashSpec {
                    worker,
                    at_time: 40 + (seed % 60),
                    recover: true,
                }),
                ..FaultPlan::chaos()
            };
            let outcome = scheme
                .run_simulated(seed, plan)
                .expect("recoverable crash must not fail the run");
            RecoveryRow {
                seed,
                crashed_worker: worker,
                restarts: outcome.stats.restarts,
                replayed_batches: outcome.stats.total_replayed_batches(),
                stale_dropped: outcome.stats.total_stale_dropped(),
                correct: outcome.relation(anc).set_eq(&seq.relation(anc)),
            }
        })
        .collect()
}

/// One point of the §6 trade-off sweep.
#[derive(Debug, Clone)]
pub struct TradeoffPoint {
    /// Keep-local probability.
    pub alpha: f64,
    /// Tuples sent between distinct processors.
    pub comm_tuples: u64,
    /// Processing firings across workers.
    pub firings: u64,
    /// Firings beyond the sequential count.
    pub redundancy: u64,
    /// Result correctness.
    pub correct: bool,
}

/// **S1 — §6**: sweep the keep-local probability α of the generalized
/// scheme from the non-redundant extreme (α=0) to the zero-communication
/// extreme (α=1).
pub fn tradeoff_sweep(rows: u64, cols: u64, n: usize, alphas: &[f64]) -> Vec<TradeoffPoint> {
    let fx = linear_ancestor();
    let data = grid(rows, cols);
    let db = fx.database(&data);
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    let seq = seminaive_eval(&fx.program, &db).unwrap();
    let anc = fx.output_id();
    let base_h: DiscriminatorRef = Arc::new(HashMod::new(n, 23));

    alphas
        .iter()
        .map(|&alpha| {
            let h_locals: Vec<DiscriminatorRef> = (0..n)
                .map(|i| Arc::new(Mixed::new(i, base_h.clone(), alpha, 31)) as DiscriminatorRef)
                .collect();
            let cfg = GeneralizedConfig {
                v_r: vec![fx.program.var("Z")],
                v_e: vec![fx.program.var("X")],
                h_prime: base_h.clone(),
                h_locals,
            };
            let outcome = rewrite_generalized(&sirup, &cfg, &db).unwrap().run().unwrap();
            let firings = outcome.stats.total_processing_firings();
            TradeoffPoint {
                alpha,
                comm_tuples: outcome.stats.total_tuples_sent(),
                firings,
                redundancy: firings.saturating_sub(seq.stats.firings),
                correct: outcome.relation(anc).set_eq(&seq.relation(anc)),
            }
        })
        .collect()
}

/// One row of the non-redundancy table (T2).
#[derive(Debug, Clone)]
pub struct NonRedundancyRow {
    /// Program name.
    pub program: String,
    /// Dataset name.
    pub dataset: String,
    /// Processors.
    pub n: usize,
    /// Sequential semi-naive firings.
    pub sequential: u64,
    /// Parallel processing firings (summed).
    pub parallel: u64,
    /// `parallel ≤ sequential`.
    pub holds: bool,
}

/// **T2 — Theorems 2 and 6**: firing counts, parallel vs sequential,
/// across programs × datasets × processor counts.
pub fn nonredundancy_table() -> Vec<NonRedundancyRow> {
    let mut rows = Vec::new();
    let datasets: Vec<(&str, Relation)> = vec![
        ("chain-30", chain(30)),
        ("grid-6x6", grid(6, 6)),
        ("layered", layered(5, 5, 2, 7)),
        ("random", random_digraph(25, 60, 3)),
    ];

    // Linear ancestor through Q_i (Example 3 choice).
    let fx = linear_ancestor();
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    for (name, data) in &datasets {
        let db = fx.database(data);
        let seq = seminaive_eval(&fx.program, &db).unwrap();
        for n in [2usize, 4, 8] {
            let outcome = example3_hash_partition(&sirup, n, &db).unwrap().run().unwrap();
            let parallel = outcome.stats.total_processing_firings();
            rows.push(NonRedundancyRow {
                program: "linear ancestor (§3 Q_i)".into(),
                dataset: (*name).into(),
                n,
                sequential: seq.stats.firings,
                parallel,
                holds: parallel <= seq.stats.firings,
            });
        }
    }

    // Non-linear ancestor through T_i (Example 8 choices).
    let fx = nonlinear_ancestor();
    for (name, data) in &datasets {
        let db = fx.database(data);
        let seq = seminaive_eval(&fx.program, &db).unwrap();
        for n in [2usize, 4] {
            let h: DiscriminatorRef = Arc::new(HashMod::new(n, 13));
            let choices = RuleChoice::by_name(&fx.program, &["Y", "Z"], &h);
            let outcome = rewrite_general(&fx.program, &choices, &db, BaseDistribution::Shared)
                .unwrap()
                .run()
                .unwrap();
            let parallel = outcome.stats.total_processing_firings();
            rows.push(NonRedundancyRow {
                program: "non-linear ancestor (§7 T_i)".into(),
                dataset: (*name).into(),
                n,
                sequential: seq.stats.firings,
                parallel,
                holds: parallel <= seq.stats.firings,
            });
        }
    }
    rows
}

/// One row of the S2 general-scheme experiment.
#[derive(Debug, Clone)]
pub struct GeneralRow {
    /// Program name.
    pub program: String,
    /// Output sizes per derived predicate.
    pub output_sizes: Vec<(String, usize)>,
    /// Tuples sent.
    pub comm_tuples: u64,
    /// Correct vs sequential.
    pub correct: bool,
    /// Theorem 6 holds.
    pub non_redundant: bool,
}

/// **S2 — §7**: the general scheme on Example 8 (non-linear ancestor) and
/// mutually recursive even/odd.
pub fn general_scheme_experiments(n: usize) -> Vec<GeneralRow> {
    let mut rows = Vec::new();

    // Example 8.
    let fx = nonlinear_ancestor();
    let db = fx.database(&random_digraph(30, 70, 17));
    let h: DiscriminatorRef = Arc::new(HashMod::new(n, 13));
    let choices = RuleChoice::by_name(&fx.program, &["Y", "Z"], &h);
    let outcome = rewrite_general(&fx.program, &choices, &db, BaseDistribution::Shared)
        .unwrap()
        .run()
        .unwrap();
    let seq = seminaive_eval(&fx.program, &db).unwrap();
    let anc = fx.output_id();
    rows.push(GeneralRow {
        program: "Example 8: non-linear ancestor".into(),
        output_sizes: vec![("anc".into(), outcome.relation(anc).len())],
        comm_tuples: outcome.stats.total_tuples_sent(),
        correct: outcome.relation(anc).set_eq(&seq.relation(anc)),
        non_redundant: outcome.stats.total_processing_firings() <= seq.stats.firings,
    });

    // Even/odd mutual recursion.
    let fx = even_odd();
    let succ: Relation = (0..40i64).map(|k| gst_common::ituple![k, k + 1]).collect();
    let zero: Relation = [gst_common::ituple![0]].into_iter().collect();
    let db = fx.database_multi(&[zero, succ]);
    let h: DiscriminatorRef = Arc::new(HashMod::new(n, 29));
    let choices = RuleChoice::by_name(&fx.program, &["X", "Y", "Y"], &h);
    let outcome = rewrite_general(&fx.program, &choices, &db, BaseDistribution::Shared)
        .unwrap()
        .run()
        .unwrap();
    let seq = seminaive_eval(&fx.program, &db).unwrap();
    let even = fx.output_id();
    let odd = (fx.program.interner.get("odd").unwrap(), 1);
    rows.push(GeneralRow {
        program: "mutual recursion: even/odd".into(),
        output_sizes: vec![
            ("even".into(), outcome.relation(even).len()),
            ("odd".into(), outcome.relation(odd).len()),
        ],
        comm_tuples: outcome.stats.total_tuples_sent(),
        correct: outcome.relation(even).set_eq(&seq.relation(even))
            && outcome.relation(odd).set_eq(&seq.relation(odd)),
        non_redundant: outcome.stats.total_processing_firings() <= seq.stats.firings,
    });
    rows
}

/// **P2 — §8**: profile the candidate schemes once, then show which one a
/// cost-model compiler picks as the architecture's communication and
/// storage costs vary. Returns `(profiles, decisions)`.
pub fn strategy_decisions() -> (Vec<SchemeProfile>, Vec<(f64, f64, String)>) {
    let fx = linear_ancestor();
    let data = random_digraph(40, 100, 21);
    let db = fx.database(&data);
    let sirup = LinearSirup::from_program(&fx.program).unwrap();

    let profile = |name: &str, scheme: &CompiledScheme, outcome: &ExecutionOutcome| {
        SchemeProfile::from_run(name, scheme, outcome)
    };
    let e1 = example1_wolfson(&sirup, 4, &db).unwrap();
    let o1 = e1.run().unwrap();
    let e3 = example3_hash_partition(&sirup, 4, &db).unwrap();
    let o3 = e3.run().unwrap();
    let frag = round_robin_fragment(&data, 4).unwrap();
    let e2 = example2_valduriez(&sirup, frag, &db).unwrap();
    let o2 = e2.run().unwrap();
    // The no-comm redundant scheme as a fourth candidate.
    let cfg = NoCommConfig {
        v_e: vec![fx.program.var("X")],
        h_prime: Arc::new(HashMod::new(4, 11)),
    };
    let nc = rewrite_no_comm(&sirup, &cfg, &db).unwrap();
    let onc = nc.run().unwrap();

    let profiles = vec![
        profile("example1 (zero-comm)", &e1, &o1),
        profile("example3 (hash p2p)", &e3, &o3),
        profile("example2 (broadcast)", &e2, &o2),
        profile("no-comm redundant", &nc, &onc),
    ];

    let mut decisions = Vec::new();
    for &(comm, storage) in &[
        (0.01, 0.0),
        (0.01, 10.0),
        (1.0, 10.0),
        (100.0, 10.0),
        (100.0, 0.0),
    ] {
        let model = CostModel::with_comm_ratio(comm).with_storage_cost(storage);
        let best = choose(&profiles, &model).unwrap();
        decisions.push((comm, storage, best.name.clone()));
    }
    (profiles, decisions)
}

/// One row of the load-balance experiment.
#[derive(Debug, Clone)]
pub struct LoadBalanceRow {
    /// Scheme + workload label.
    pub label: String,
    /// Processing firings per worker.
    pub per_worker: Vec<u64>,
    /// Skew: max worker firings / mean worker firings (1.0 = perfect).
    pub skew: f64,
    /// Wire bytes shipped per worker (sum over its outgoing links).
    pub bytes_per_worker: Vec<u64>,
    /// Skew of bytes shipped: max / mean (1.0 = perfect; 0.0 when the
    /// scheme ships nothing — Example 1 and no-comm).
    pub bytes_skew: f64,
}

/// **L1 — §8 future work**: load balancing and processor utilization.
/// The paper defers these "detailed performance studies"; this experiment
/// measures how evenly the discriminating functions spread work, and how
/// badly a degenerate choice can skew it (a star graph discriminated on
/// its hub sends *all* work to one processor).
pub fn load_balance(n: usize) -> Vec<LoadBalanceRow> {
    let fx = linear_ancestor();
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    let mut rows = Vec::new();

    let mut push = |label: String, outcome: &ExecutionOutcome| {
        let per_worker: Vec<u64> = outcome
            .stats
            .workers
            .iter()
            .map(|w| w.processing_firings)
            .collect();
        let max = *per_worker.iter().max().unwrap() as f64;
        let mean = per_worker.iter().sum::<u64>() as f64 / per_worker.len() as f64;
        let bytes_per_worker: Vec<u64> = outcome
            .stats
            .workers
            .iter()
            .map(|w| w.sent_bytes_to.iter().sum())
            .collect();
        let bmax = *bytes_per_worker.iter().max().unwrap() as f64;
        let bmean =
            bytes_per_worker.iter().sum::<u64>() as f64 / bytes_per_worker.len() as f64;
        rows.push(LoadBalanceRow {
            label,
            skew: if mean > 0.0 { max / mean } else { 1.0 },
            per_worker,
            bytes_skew: if bmean > 0.0 { bmax / bmean } else { 0.0 },
            bytes_per_worker,
        });
    };

    for (wname, data) in [
        ("grid-8x8", grid(8, 8)),
        ("star-64", gst_workloads::star(64)),
        ("zipf-300", gst_workloads::zipf_digraph(300, 240, 30, 42)),
        ("chain-64", chain(64)),
    ] {
        let db = fx.database(&data);
        let e1 = example1_wolfson(&sirup, n, &db).unwrap().run().unwrap();
        push(format!("example1 / {wname}"), &e1);
        let e3 = example3_hash_partition(&sirup, n, &db).unwrap().run().unwrap();
        push(format!("example3 / {wname}"), &e3);
        let sk = skew_aware_hash_partition(&sirup, n, &db, &SkewPolicy::default())
            .unwrap()
            .run()
            .unwrap();
        push(format!("skew-aware / {wname}"), &sk);
        // Degenerate: split the exit substitutions on X — on a star every
        // edge shares the hub as X, so one processor gets everything.
        let cfg = NoCommConfig {
            v_e: vec![fx.program.var("X")],
            h_prime: Arc::new(HashMod::new(n, 11)),
        };
        let nc = rewrite_no_comm(&sirup, &cfg, &db).unwrap().run().unwrap();
        push(format!("nocomm(v_e=X) / {wname}"), &nc);
    }
    rows
}

/// One row of the communication-scaling experiment (E5).
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// Number of edges in the input.
    pub edges: u64,
    /// Size of the computed closure.
    pub closure: u64,
    /// Tuples sent by Example 1 / Example 3 / Example 2.
    pub comm: (u64, u64, u64),
}

/// **E5**: how communication grows with the answer. The paper's
/// qualitative orders (Ex1 = 0; Ex3 routes each tuple at most once per
/// hop; Ex2 broadcasts) become growth curves: Ex3 stays ≈ proportional
/// to the closure, Ex2 ≈ (n−1)× larger.
pub fn communication_scaling(n: usize, sizes: &[u64]) -> Vec<ScalingRow> {
    let fx = linear_ancestor();
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    sizes
        .iter()
        .map(|&nodes| {
            let data = random_digraph(nodes, nodes * 5 / 2, 7 + nodes);
            let db = fx.database(&data);
            let seq = seminaive_eval(&fx.program, &db).unwrap();
            let closure = seq.relation(fx.output_id()).len() as u64;
            // Shipped-tuple totals do not depend on the schedule; the
            // fixed-seed simulated run makes the whole row reproducible.
            let sent = |scheme: CompiledScheme| {
                scheme
                    .run_simulated(nodes, FaultPlan::none())
                    .unwrap()
                    .stats
                    .total_tuples_sent()
            };
            let c1 = sent(example1_wolfson(&sirup, n, &db).unwrap());
            let c3 = sent(example3_hash_partition(&sirup, n, &db).unwrap());
            let c2 = sent(
                example2_valduriez(&sirup, round_robin_fragment(&data, n).unwrap(), &db).unwrap(),
            );
            ScalingRow {
                edges: data.len() as u64,
                closure,
                comm: (c1, c3, c2),
            }
        })
        .collect()
}

/// One row of the machine-model simulation (P3).
#[derive(Debug, Clone)]
pub struct SimulatedRow {
    /// Scheme label.
    pub scheme: String,
    /// Worker count.
    pub n: usize,
    /// Predicted wall µs per machine model: (shared-memory, LAN, WAN).
    pub predicted_us: (f64, f64, f64),
}

/// Cost parameters of a hypothetical parallel machine, in microseconds.
#[derive(Debug, Clone, Copy)]
struct MachineModel {
    /// Per rule firing (compute).
    firing_us: f64,
    /// Per tuple on the wire (bandwidth term).
    tuple_us: f64,
    /// Per message (latency/overhead term).
    message_us: f64,
}

/// Shared-memory multiprocessor: passing a tuple is a pointer write.
const SHARED_MEMORY: MachineModel = MachineModel { firing_us: 1.0, tuple_us: 0.01, message_us: 0.1 };
/// A LAN cluster: communication costs real microseconds.
const LAN_CLUSTER: MachineModel = MachineModel { firing_us: 1.0, tuple_us: 1.0, message_us: 50.0 };
/// A geo-distributed deployment: latency dominates everything.
const WAN: MachineModel = MachineModel { firing_us: 1.0, tuple_us: 2.0, message_us: 10_000.0 };

/// Predicted wall time (µs) of a traced run on `model`, pricing the
/// journal as bulk-synchronous supersteps over a full-bisection network.
/// The workers' k-th engine rounds form superstep k; a batch belongs to
/// the round its sender closed last:
///
/// ```text
/// step time = max_w (firings_w · firing_us)                       (compute)
///           + max_w (batches_w · message_us + tuples_w · tuple_us)   (comm)
/// total     = Σ_steps step time
/// ```
///
/// Absolute numbers are not the point — which scheme wins on which
/// machine is. Initialization firings happen outside any round span and
/// are not priced.
fn predicted_us(journal: &Journal, model: &MachineModel) -> f64 {
    use std::collections::BTreeMap;
    // superstep → worker → (firings, tuples sent, batches sent)
    let mut steps: BTreeMap<u64, BTreeMap<usize, (u64, u64, u64)>> = BTreeMap::new();
    let mut last_round: BTreeMap<usize, u64> = BTreeMap::new();
    for e in &journal.events {
        match e.kind {
            ObsKind::RoundEnd { round, firings, .. } => {
                last_round.insert(e.worker, round);
                steps.entry(round).or_default().entry(e.worker).or_default().0 += firings;
            }
            ObsKind::BatchSent { tuples, .. } => {
                let round = last_round.get(&e.worker).copied().unwrap_or(0);
                let cell = steps.entry(round).or_default().entry(e.worker).or_default();
                cell.1 += tuples;
                cell.2 += 1;
            }
            _ => {}
        }
    }
    steps
        .values()
        .map(|workers| {
            let compute = workers
                .values()
                .map(|&(firings, _, _)| firings as f64 * model.firing_us)
                .fold(0.0, f64::max);
            let comm = workers
                .values()
                .map(|&(_, tuples, batches)| {
                    tuples as f64 * model.tuple_us + batches as f64 * model.message_us
                })
                .fold(0.0, f64::max);
            compute + comm
        })
        .sum()
}

/// **P3 — §8, quantified**: price the journal of one fixed-seed simulated
/// run of each §4 scheme under three machine models (shared memory, LAN
/// cluster, WAN). The winner flips with the architecture — the paper's
/// closing claim, in predicted microseconds.
pub fn simulate_architectures(nodes: u64, edges: u64, seed: u64, ns: &[usize]) -> Vec<SimulatedRow> {
    let fx = linear_ancestor();
    let data = random_digraph(nodes, edges, seed);
    let db = fx.database(&data);
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    let traced = RuntimeConfig {
        trace: true,
        ..RuntimeConfig::default()
    };

    let mut rows = Vec::new();
    for &n in ns {
        let schemes: Vec<(&str, CompiledScheme)> = vec![
            ("example1 (zero-comm)", example1_wolfson(&sirup, n, &db).unwrap()),
            (
                "example3 (hash p2p)",
                example3_hash_partition(&sirup, n, &db).unwrap(),
            ),
            (
                "example2 (broadcast)",
                example2_valduriez(&sirup, round_robin_fragment(&data, n).unwrap(), &db)
                    .unwrap(),
            ),
        ];
        for (name, scheme) in schemes {
            let journal = scheme
                .run_simulated_with(seed, FaultPlan::none(), &traced)
                .unwrap()
                .journal;
            rows.push(SimulatedRow {
                scheme: name.into(),
                n,
                predicted_us: (
                    predicted_us(&journal, &SHARED_MEMORY),
                    predicted_us(&journal, &LAN_CLUSTER),
                    predicted_us(&journal, &WAN),
                ),
            });
        }
    }
    rows
}

/// Degenerate-config §6 check used by the harness: with `h_i ≡ i` the
/// generalized scheme measures exactly zero communication.
pub fn generalized_constant_is_communication_free(n: usize) -> bool {
    let fx = linear_ancestor();
    let db = fx.database(&random_digraph(20, 40, 4));
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    let h_locals: Vec<DiscriminatorRef> = (0..n)
        .map(|i| Arc::new(Constant::new(n, i)) as DiscriminatorRef)
        .collect();
    let cfg = GeneralizedConfig {
        v_r: vec![fx.program.var("Z")],
        v_e: vec![fx.program.var("X")],
        h_prime: Arc::new(HashMod::new(n, 17)),
        h_locals,
    };
    let outcome = rewrite_generalized(&sirup, &cfg, &db).unwrap().run().unwrap();
    outcome.stats.communication_free()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figures_match_the_paper() {
        assert!(figure1().matches_paper, "{}", figure1().body);
        assert!(figure2().matches_paper, "{}", figure2().body);
        assert!(figure3().matches_paper, "{}", figure3().body);
        assert!(figure4().matches_paper, "{}", figure4().body);
    }

    #[test]
    fn scheme_comparison_reproduces_the_ordering() {
        let cmp = compare_examples(30, 70, 4, 5);
        assert_eq!(cmp.rows.len(), 3);
        assert!(cmp.rows.iter().all(|r| r.correct));
        // Paper order in rows: Example 1, Example 3, Example 2.
        assert_eq!(cmp.rows[0].comm_tuples, 0);
        assert!(cmp.rows[1].comm_tuples <= cmp.rows[2].comm_tuples);
        // Non-redundancy everywhere.
        assert!(cmp.rows.iter().all(|r| r.firings <= cmp.sequential_firings));
        // Storage: Ex1 = n·|base| ≥ Ex3 ≥ Ex2 = |base|.
        assert!(cmp.rows[0].base_tuples >= cmp.rows[1].base_tuples);
        assert!(cmp.rows[1].base_tuples >= cmp.rows[2].base_tuples);
    }

    #[test]
    fn tradeoff_endpoints_are_the_two_schemes() {
        let pts = tradeoff_sweep(5, 5, 4, &[0.0, 1.0]);
        assert!(pts.iter().all(|p| p.correct));
        assert_eq!(pts[0].redundancy, 0, "α=0 is non-redundant");
        assert_eq!(pts[1].comm_tuples, 0, "α=1 is communication-free");
        assert!(pts[0].comm_tuples > 0);
    }

    #[test]
    fn nonredundancy_rows_all_hold() {
        let rows = nonredundancy_table();
        assert!(rows.len() >= 16);
        assert!(rows.iter().all(|r| r.holds), "{rows:#?}");
    }

    #[test]
    fn general_scheme_rows_hold() {
        let rows = general_scheme_experiments(3);
        assert!(rows.iter().all(|r| r.correct && r.non_redundant));
    }

    #[test]
    fn constant_generalized_scheme_is_comm_free() {
        assert!(generalized_constant_is_communication_free(3));
    }

    #[test]
    fn strategy_decisions_vary_with_architecture() {
        let (profiles, decisions) = strategy_decisions();
        assert_eq!(profiles.len(), 4);
        let distinct: std::collections::HashSet<&str> =
            decisions.iter().map(|(_, _, name)| name.as_str()).collect();
        assert!(
            distinct.len() >= 2,
            "different architectures should pick different schemes: {decisions:?}"
        );
    }

    #[test]
    fn communication_scaling_preserves_the_ordering() {
        let rows = communication_scaling(4, &[20, 40]);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert_eq!(r.comm.0, 0, "Example 1 never communicates");
            assert!(r.comm.1 <= r.comm.2, "Ex3 ≤ Ex2 at every size: {r:?}");
        }
        // Communication grows with the closure.
        assert!(rows[1].closure > rows[0].closure);
        assert!(rows[1].comm.2 > rows[0].comm.2);
    }

    #[test]
    fn predicted_time_is_max_per_phase_summed_over_supersteps() {
        use gst_runtime::{ObsEvent, TimeBase};
        let ev = |worker, kind| ObsEvent { time: 0, worker, kind };
        let end = |round, firings| ObsKind::RoundEnd { round, fresh: 0, firings };
        let sent = |to, tuples| ObsKind::BatchSent { to, tuples, bytes: 0, seq: 0 };
        let journal = Journal {
            base: TimeBase::VirtualTicks,
            events: vec![
                ev(0, end(0, 10)),
                ev(1, end(0, 30)),
                ev(0, sent(1, 5)),
                ev(0, end(1, 20)),
                ev(1, end(1, 20)),
                ev(1, sent(0, 7)),
            ],
        };
        let model = MachineModel { firing_us: 1.0, tuple_us: 1.0, message_us: 10.0 };
        // step 0: compute max(10,30)=30, comm max(5+10, 0)=15 → 45
        // step 1: compute max(20,20)=20, comm max(0, 7+10)=17 → 37
        assert!((predicted_us(&journal, &model) - 82.0).abs() < 1e-9);
        // Free communication leaves the compute critical path.
        let free = MachineModel { tuple_us: 0.0, message_us: 0.0, ..model };
        assert!((predicted_us(&journal, &free) - 50.0).abs() < 1e-9);
        // Latency-dominated machines punish messages.
        assert!(predicted_us(&journal, &WAN) > 10.0 * predicted_us(&journal, &SHARED_MEMORY));
        assert_eq!(predicted_us(&Journal::default(), &LAN_CLUSTER), 0.0);
    }

    #[test]
    fn simulated_architectures_flip_the_winner() {
        let rows = simulate_architectures(40, 100, 21, &[4]);
        assert_eq!(rows.len(), 3);
        let best_by = |pick: fn(&SimulatedRow) -> f64| -> &str {
            rows.iter()
                .min_by(|a, b| pick(a).partial_cmp(&pick(b)).unwrap())
                .map(|r| r.scheme.as_str())
                .unwrap()
        };
        // WAN latency punishes chatter: the zero-communication scheme
        // must win there.
        assert_eq!(best_by(|r| r.predicted_us.2), "example1 (zero-comm)");
        // Broadcast must never beat point-to-point on bandwidth-priced
        // networks.
        let lan = |name: &str| {
            rows.iter()
                .find(|r| r.scheme == name)
                .unwrap()
                .predicted_us
                .1
        };
        assert!(lan("example3 (hash p2p)") <= lan("example2 (broadcast)"));
    }

    #[test]
    fn load_balance_detects_star_skew() {
        let rows = load_balance(4);
        assert_eq!(rows.len(), 16);
        let star_nocomm = rows
            .iter()
            .find(|r| r.label == "nocomm(v_e=X) / star-64")
            .unwrap();
        // All 64 edges share hub 0 as X: one processor owns everything.
        assert!(
            star_nocomm.skew > 3.9,
            "expected total skew on the star hub: {star_nocomm:?}"
        );
        let star_e1 = rows.iter().find(|r| r.label == "example1 / star-64").unwrap();
        assert!(
            star_e1.skew < star_nocomm.skew,
            "discriminating on Y must spread the star's leaves"
        );
    }

    #[test]
    fn skew_aware_beats_plain_hash_on_skewed_workloads() {
        let rows = load_balance(4);
        for wname in ["star-64", "zipf-300"] {
            let plain = rows
                .iter()
                .find(|r| r.label == format!("example3 / {wname}"))
                .unwrap();
            let skewed = rows
                .iter()
                .find(|r| r.label == format!("skew-aware / {wname}"))
                .unwrap();
            assert!(
                skewed.skew < plain.skew,
                "{wname}: skew-aware {:.3} must beat HashMod {:.3}",
                skewed.skew,
                plain.skew
            );
        }
        // Bytes-skew is populated for the communicating schemes.
        assert!(rows
            .iter()
            .filter(|r| r.label.starts_with("example3"))
            .all(|r| r.bytes_per_worker.len() == 4));
    }
}
