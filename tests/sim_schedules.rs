//! Acceptance sweep for the deterministic simulation transport.
//!
//! The paper's Theorems 1/2 quantify over *schedules*: the per-processor
//! programs compute the sequential least model no matter how the
//! asynchronous transport interleaves steps and deliveries. The OS
//! scheduler only ever shows us a handful of interleavings; the
//! [`SimTransport`] shows us one per seed. These tests sweep 200 seeds
//! per workload × scheme combination — half under pure reordering
//! (`jitter`), half under reordering + duplication + bounded
//! drop-with-redelivery + stalls (`chaos`) — and require agreement with
//! sequential semi-naive evaluation on every single seed.

use std::sync::Arc;

use parallel_datalog::core::schemes::{BaseDistribution, CompiledScheme};
use parallel_datalog::prelude::*;
use parallel_datalog::runtime::message::MessageKind;
use parallel_datalog::runtime::{sweep_seeds, ExpectedModel, FaultPlan, Journal, ObsKind, SimTransport};
use parallel_datalog::workloads::{graphs, linear_ancestor};

/// The sequential least model, keyed by the scheme's answer predicates.
fn oracle(fx: &parallel_datalog::workloads::Fixture, edges: &Relation, scheme: &CompiledScheme)
    -> ExpectedModel
{
    let db = fx.database(edges);
    let seq = seminaive_eval(&fx.program, &db).unwrap();
    let mut expected = ExpectedModel::default();
    for &answer in &scheme.answers {
        expected.insert(answer, seq.relation(answer));
    }
    assert!(!expected.is_empty(), "scheme must pool at least one answer");
    expected
}

/// Sweep `seeds_per_plan` seeds under jitter (reordering only) and then
/// `seeds_per_plan` more under chaos (reordering + duplication + drops +
/// stalls), asserting every run reproduces the oracle.
fn sweep_both_plans(label: &str, scheme: &CompiledScheme, expected: &ExpectedModel) {
    let config = RuntimeConfig::default();
    for (plan_name, plan, seeds) in [
        ("jitter", FaultPlan::jitter(), 0..100u64),
        ("chaos", FaultPlan::chaos(), 100..200u64),
    ] {
        let report = sweep_seeds(&scheme.workers, &config, &plan, seeds, expected);
        assert_eq!(report.seeds_run, 100);
        assert!(
            report.all_passed(),
            "{label} under {plan_name}: {} failing seeds, first: {:?}",
            report.failures.len(),
            report.failures.first()
        );
    }
}

/// Crash-recovery sweep (DESIGN.md §7): every seed runs under chaos
/// faults (reorder + duplicate + drop + stall) *plus* one mid-run crash
/// of worker `seed % n` that the supervisor must recover from — restart,
/// `Recover` broadcast, `AckSync`/replay handshake, detection in the new
/// epoch. The run
/// must terminate, report the restart, and still compute the sequential
/// least model bit-for-bit. Returns the total batches replayed across the
/// sweep so communication-bearing workloads can assert replay actually
/// happened somewhere.
fn sweep_recovery(
    label: &str,
    scheme: &CompiledScheme,
    expected: &ExpectedModel,
    seeds: std::ops::Range<u64>,
    crash_time: impl Fn(u64) -> u64,
) -> u64 {
    let n = scheme.processors();
    let mut replayed = 0u64;
    for seed in seeds {
        let crash_at = crash_time(seed);
        let plan = FaultPlan::with_recovering_crash((seed as usize) % n, crash_at);
        let outcome = scheme
            .run_simulated(seed, plan)
            .unwrap_or_else(|e| panic!("{label} seed {seed}: recovery run failed: {e}"));
        assert!(
            outcome.stats.restarts >= 1,
            "{label} seed {seed}: the crash at t={crash_at} never triggered a restart"
        );
        replayed += outcome.stats.total_replayed_batches();
        for (&pred, want) in expected {
            assert!(
                outcome.relation(pred).set_eq(want),
                "{label} seed {seed}: recovered model diverges from the sequential one"
            );
        }
    }
    replayed
}

/// §4 Example 3 (the §3 non-redundant scheme with `v(r)=⟨Z⟩`) on `edges`
/// over `n` processors.
fn example3_on(edges: &Relation, n: usize) -> (CompiledScheme, ExpectedModel) {
    let fx = linear_ancestor();
    let db = fx.database(edges);
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    let scheme = example3_hash_partition(&sirup, n, &db).unwrap();
    let expected = oracle(&fx, edges, &scheme);
    (scheme, expected)
}

fn chain_example3() -> (CompiledScheme, ExpectedModel) {
    example3_on(&graphs::chain(8), 3)
}

/// §4 Example 1 (zero-communication choice) on a grid.
fn grid_example1() -> (CompiledScheme, ExpectedModel) {
    let fx = linear_ancestor();
    let edges = graphs::grid(3, 4);
    let db = fx.database(&edges);
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    let scheme = example1_wolfson(&sirup, 4, &db).unwrap();
    let expected = oracle(&fx, &edges, &scheme);
    (scheme, expected)
}

/// The §3 scheme with an explicit discriminating choice on a random
/// digraph (cycles, diamonds, unreachable nodes).
fn random_nonredundant() -> (CompiledScheme, ExpectedModel) {
    let fx = linear_ancestor();
    let edges = graphs::random_digraph(8, 16, 3);
    let db = fx.database(&edges);
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    let z = Variable(fx.program.interner.get("Z").unwrap());
    let x = Variable(fx.program.interner.get("X").unwrap());
    let h: DiscriminatorRef = Arc::new(HashMod::new(2, 7));
    let policies = [RulePolicy::shared(vec![x], &h), RulePolicy::shared(vec![z], &h)];
    let scheme = rewrite_sirup(&sirup, policies, &db, BaseDistribution::MinimalFragments, "§3 Q_i").unwrap();
    let expected = oracle(&fx, &edges, &scheme);
    (scheme, expected)
}

/// 200 crash-free schedules on the chain, all equal to the closure.
#[test]
fn example3_on_chain_survives_200_schedules() {
    let (scheme, expected) = chain_example3();
    sweep_both_plans("example3/chain(8)", &scheme, &expected);
}

/// Even with no channel traffic termination detection still runs under
/// faults.
#[test]
fn example1_on_grid_survives_200_schedules() {
    let (scheme, expected) = grid_example1();
    sweep_both_plans("example1/grid(3,4)", &scheme, &expected);
}

#[test]
fn nonredundant_on_random_digraph_survives_200_schedules() {
    let (scheme, expected) = random_nonredundant();
    sweep_both_plans("nonredundant/random(8,16)", &scheme, &expected);
}

/// Tentpole acceptance: 40 crash schedules on the communication-heavy
/// chain workload, every one recovering to the exact least model. Traffic
/// flows on this workload, so the sweep as a whole must witness real
/// replay (not just restarts of an idle worker).
#[test]
fn example3_on_chain_recovers_from_40_crash_schedules() {
    let (scheme, expected) = chain_example3();
    let replayed =
        sweep_recovery("example3/chain(8)", &scheme, &expected, 0..40, |s| 40 + (s % 60));
    assert!(replayed > 0, "chain sweep must witness at least one replayed batch");
}

/// Recovery on the zero-communication scheme: nothing to replay, but the
/// restart and the epoch bump (which voids every report taken before it)
/// must still land on the same model. With no traffic the run terminates
/// as soon as the last worker reports passive, so the crash must land in
/// the first few rounds.
#[test]
fn example1_on_grid_recovers_from_40_crash_schedules() {
    let (scheme, expected) = grid_example1();
    sweep_recovery("example1/grid(3,4)", &scheme, &expected, 40..80, |s| 2 + (s % 6));
}

#[test]
fn nonredundant_on_random_digraph_recovers_from_40_crash_schedules() {
    let (scheme, expected) = random_nonredundant();
    let replayed =
        sweep_recovery("nonredundant/random(8,16)", &scheme, &expected, 80..120, |s| {
            40 + (s % 60)
        });
    assert!(replayed > 0, "random-digraph sweep must witness at least one replayed batch");
}

/// Crash-mid-update sweep: an incremental maintenance session whose
/// every phase — the initial fixpoint, the DRed over-deletion cone, the
/// rederive/insert run — executes on a simulated transport that crashes
/// worker `seed % n` a few ticks in and recovers it (restart, `Recover`
/// broadcast, replay handshake). After every batch the maintained view
/// must still equal a from-scratch sequential recompute, and the sweep
/// as a whole must witness real restarts (the crash tick is early
/// enough to land inside the short update phases on most seeds).
#[test]
fn update_rounds_recover_from_crash_schedules() {
    let fx = linear_ancestor();
    let (anc, edge) = (fx.output_id(), fx.input_id(0));
    let edges = graphs::chain(8);
    let config = RuntimeConfig::default();
    let mut restarts = 0u64;

    for seed in 0..24u64 {
        let db = fx.database(&edges);
        let h: DiscriminatorRef = Arc::new(HashMod::new(3, seed ^ 0x5bd1));
        let choices = RuleChoice::by_name(&fx.program, &["Y", "Z"], &h);
        let scheme =
            rewrite_general(&fx.program, &choices, &db, BaseDistribution::Shared).unwrap();
        let mut session = UpdateSession::new(&scheme, &fx.program, &db).unwrap();

        let plan = FaultPlan::with_recovering_crash((seed as usize) % 3, 2 + (seed % 8));
        let transport =
            SimTransport::with_faults(seed.wrapping_mul(0x9e3779b97f4a7c15), plan);
        session.initialize(&transport, &config).unwrap();

        let mut rng = SmallRng::seed_from_u64(seed);
        for round in 1..=3 {
            let live: Vec<Tuple> = session
                .edb()
                .relation(edge)
                .map(|r| r.iter().cloned().collect())
                .unwrap_or_default();
            let mut batch = UpdateBatch::default();
            for _ in 0..rng.gen_inclusive(1, 4) {
                if rng.gen_bool(0.5) {
                    if let Some(t) = rng.choose(&live) {
                        batch.deletes.push((edge, t.clone()));
                    }
                } else {
                    let (a, b) = (rng.gen_below(12) as i64, rng.gen_below(12) as i64);
                    batch.inserts.push((edge, ituple![a, b]));
                }
            }
            session.apply(&batch, &transport, &config).unwrap();
            let oracle = seminaive_eval(&fx.program, session.edb()).unwrap();
            assert!(
                session.answer(anc).set_eq(&oracle.relation(anc)),
                "seed {seed} round {round}: view maintained across a worker crash \
                 diverges from the sequential recompute"
            );
        }
        restarts += session
            .reports()
            .iter()
            .flat_map(|r| [r.phase_a.as_ref(), r.phase_b.as_ref()])
            .flatten()
            .map(|s| s.restarts)
            .sum::<u64>();
    }
    assert!(
        restarts > 0,
        "the sweep must witness at least one recovered crash inside an update phase"
    );
}

/// Satellite property: duplicated *and* reordered batch delivery leaves
/// the least model unchanged (set-semantics idempotence). Every batch is
/// duplicated (`dup=1.0`) and delivery order is scrambled by a wide delay
/// window; the journal must actually witness duplicate deliveries, and
/// the pooled model must still equal the sequential one.
#[test]
fn duplication_and_reordering_preserve_the_least_model() {
    let fx = linear_ancestor();
    let edges = graphs::chain(8);
    let db = fx.database(&edges);
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    let scheme = example3_hash_partition(&sirup, 3, &db).unwrap();
    let expected = oracle(&fx, &edges, &scheme);

    let plan = FaultPlan::parse("jitter,dup=1.0,min=1,max=60").unwrap();
    let config = RuntimeConfig::default();
    let mut duplicates_witnessed = 0u64;
    for seed in 0..24 {
        let sim = SimTransport::with_faults(seed, plan.clone());
        let (result, journal) = sim.run_traced(scheme.workers.clone(), &config);
        let outcome = result.unwrap();
        // Termination needs every batch absorbed, not every copy: a copy
        // queued behind its receiver's `Terminate` is never read. Count the
        // second copies that arrived before it.
        let mut terminated = [false; 3];
        let mut copies: std::collections::HashMap<(usize, usize, u64), u64> = Default::default();
        for e in &journal.events {
            match e.kind {
                ObsKind::Delivered { kind: MessageKind::Terminate, .. } => terminated[e.worker] = true,
                ObsKind::Delivered { kind: MessageKind::Batch, from, seq, .. } if !terminated[e.worker] => {
                    *copies.entry((e.worker, from, seq)).or_default() += 1
                }
                _ => {}
            }
        }
        let delivered_twice: u64 = copies.values().map(|c| c - 1).sum();
        duplicates_witnessed += delivered_twice;
        for (&pred, want) in &expected {
            assert!(
                outcome.relation(pred).set_eq(want),
                "seed {seed}: duplicated+reordered delivery changed the model"
            );
        }
        let dup_count: u64 = outcome.stats.workers.iter().map(|w| w.duplicate_batches).sum();
        assert_eq!(
            dup_count, delivered_twice,
            "seed {seed}: every second copy delivered before its receiver's Terminate must be absorbed"
        );
    }
    assert!(
        duplicates_witnessed > 0,
        "the plan must actually inject duplicates for the property to mean anything"
    );
}

/// Acceptance: a fixed seed is bit-for-bit reproducible — same journal,
/// same per-worker firing counts, same channel matrix, same final model
/// across two independent runs.
#[test]
fn fixed_seed_is_bit_for_bit_reproducible_on_a_real_scheme() {
    let fx = linear_ancestor();
    let edges = graphs::random_digraph(8, 16, 3);
    let db = fx.database(&edges);
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    let scheme = example3_hash_partition(&sirup, 3, &db).unwrap();
    let config = RuntimeConfig::default();
    let plan = FaultPlan::chaos();

    let run = |seed: u64| {
        let sim = SimTransport::with_faults(seed, plan.clone());
        let (result, journal) = sim.run_traced(scheme.workers.clone(), &config);
        (result.unwrap(), journal)
    };
    let (a, ja) = run(42);
    let (b, jb) = run(42);

    assert_eq!(ja, jb, "journals differ between identical runs");
    assert_eq!(
        a.stats.channel_matrix, b.stats.channel_matrix,
        "per-channel tuple counts differ"
    );
    for (wa, wb) in a.stats.workers.iter().zip(&b.stats.workers) {
        assert_eq!(wa.eval.firings, wb.eval.firings, "worker {} firings differ", wa.processor);
        assert_eq!(wa.processing_firings, wb.processing_firings);
        assert_eq!(wa.duplicate_batches, wb.duplicate_batches);
        assert_eq!(wa.received_tuples, wb.received_tuples);
    }
    for (pred, rel) in &a.relations {
        assert!(b.relation(*pred).set_eq(rel), "final models differ on {pred:?}");
    }

    // ... and a different seed really explores a different schedule.
    let (_, jc) = run(43);
    assert_ne!(ja, jc, "different seeds should produce different journals");
}

/// Linear ancestor on `grid(12, 12)` at N=2: a closure of ~40 rounds per
/// worker with traffic in both directions every round.
fn grid12_example3() -> (CompiledScheme, ExpectedModel) {
    example3_on(&graphs::grid(12, 12), 2)
}

/// Worker `worker`'s sends in `journal`, each checked to carry what the
/// round it just ended emitted — it comes right after a `RoundEnd`
/// (arrivals aside) or bootstrap — and counted by what follows the run:
/// `(the round that processes the rows that stayed, anything else)`.
/// (The workloads it is used on have rounds of less than a chunk, which
/// never ship mid-round.)
fn sends(journal: &Journal, worker: usize) -> (usize, usize) {
    let arrival = |kind: &ObsKind| matches!(kind, ObsKind::Delivered { .. } | ObsKind::BatchReceived { .. });
    let sending = |kind: &&ObsKind| matches!(kind, ObsKind::BatchEncoded { .. } | ObsKind::BatchSent { .. });
    let events: Vec<&ObsKind> =
        journal.events.iter().filter(|e| e.worker == worker && !arrival(&e.kind)).map(|e| &e.kind).collect();
    let (mut into_a_round, mut passive, mut at) = (0, 0, 0);
    while let Some(start) = events[at..].iter().position(sending).map(|k| at + k) {
        let before = start.checked_sub(1).map(|k| events[k]);
        assert!(matches!(before, None | Some(ObsKind::RoundEnd { .. })), "worker {worker}: a send after {before:?}");
        // A round may ship on several channels: skip to the end of its
        // encode/send run.
        at = start + events[start..].iter().take_while(|kind| sending(kind)).count();
        match events.get(at) {
            Some(ObsKind::RoundBegin { .. }) => into_a_round += 1,
            _ => passive += 1,
        }
    }
    (into_a_round, passive)
}

/// The sending step runs every round (§3: "repeat: processing rules,
/// sending rules, receiving rules"): whatever a worker ships is what the
/// round it just ended emitted, on its way into the round that processes
/// the rows that stayed. A worker that ships only at its local fixpoint
/// ships in a handful of rounds, and its peer had nothing to overlap with
/// in the meantime.
#[test]
fn every_send_is_followed_by_the_round_that_processes_it() {
    let (scheme, _) = grid12_example3();
    let (result, journal) =
        SimTransport::new(7).run_traced(scheme.workers.clone(), &RuntimeConfig::default());
    result.unwrap();
    for worker in 0..scheme.processors() {
        let (into_a_round, passive) = sends(&journal, worker);
        assert!(into_a_round > 10, "worker {worker} shipped into only {into_a_round} rounds ({passive} passive)");
    }
}

/// A round whose whole output left the processor leaves nothing fresh for
/// the next advance, and is shipped before the worker goes passive.
/// Shipping only when something is fresh would leave those rows in the
/// outlets: every link balances and the run ends without them.
#[test]
fn a_round_whose_output_all_leaves_is_shipped_before_going_passive() {
    let (scheme, expected) = chain_example3();
    let mut passive = 0;
    for seed in 0..20 {
        let (result, journal) =
            SimTransport::new(seed).run_traced(scheme.workers.clone(), &RuntimeConfig::default());
        let outcome = result.unwrap();
        assert!(expected.iter().all(|(&p, want)| outcome.relation(p).set_eq(want)), "seed {seed}: rows were lost");
        passive += (0..scheme.processors()).map(|worker| sends(&journal, worker).1).sum::<usize>();
    }
    assert!(passive > 0, "no round's output left with nothing fresh behind it");
}

/// Crash recovery when the compacted replay prefix is long: by the time
/// a worker dies at t=400 the survivor has had dozens of per-round
/// batches acked, so the fresh incarnation's history arrives as one
/// snapshot message carrying every one of those payloads, then the
/// unacked tail. Swept over eight schedules, crashing either worker.
#[test]
fn recovery_replays_a_snapshot_of_many_acked_batches() {
    let (scheme, expected) = grid12_example3();
    let plan = FaultPlan::with_recovering_crash(1, 300);
    let (result, journal) = SimTransport::with_faults(3, plan)
        .run_traced(scheme.workers.clone(), &RuntimeConfig::default());
    let outcome = result.unwrap();
    assert_eq!(outcome.stats.restarts, 1);
    let longest_snapshot = journal
        .events
        .iter()
        .filter_map(|e| match e.kind {
            ObsKind::SnapshotReceived { payloads, .. } => Some(payloads),
            _ => None,
        })
        .max();
    assert!(
        longest_snapshot >= Some(10),
        "the crash must land after ≥ 10 batches were acked, saw {longest_snapshot:?}"
    );
    for (&pred, want) in &expected {
        assert!(outcome.relation(pred).set_eq(want), "recovered model diverges");
    }
    let replayed = sweep_recovery("grid(12,12)/example3", &scheme, &expected, 0..8, |_| 300);
    assert!(replayed > 0, "no seed replayed anything");
}

/// Positions in `journal` of the batches a worker sent inside one of its
/// rounds — the chunks of a round shipped while it ran. A crash closes
/// the crashed incarnation's round.
fn mid_round_sends(journal: &Journal) -> Vec<usize> {
    let mut open = std::collections::BTreeSet::new();
    let mut at = Vec::new();
    for (k, e) in journal.events.iter().enumerate() {
        match e.kind {
            ObsKind::RoundBegin { .. } => drop(open.insert(e.worker)),
            ObsKind::RoundEnd { .. } | ObsKind::Crashed => drop(open.remove(&e.worker)),
            ObsKind::BatchSent { .. } if open.contains(&e.worker) => at.push(k),
            _ => {}
        }
    }
    at
}

/// Recovery when rounds ship while they run: on a layered graph whose
/// first round spans several chunks at every processor, 30 crash
/// schedules (worker `seed % 3`, ticks 1–8: the whole run is about ten
/// ticks) each recover to the exact least model, and the sweep witnesses
/// replay and crashes that land between two mid-round ships — batches
/// sent inside a round before the crash and after it. (The other sweeps'
/// rounds fit in one chunk and never ship mid-round.)
#[test]
fn example3_recovers_when_a_crash_lands_between_mid_round_ships() {
    let (scheme, expected) = example3_on(&graphs::layered(3, 180, 12, 7), 3);
    let (mut between, mut replayed) = (0, 0);
    for seed in 0..30u64 {
        let plan = FaultPlan::with_recovering_crash((seed % 3) as usize, 1 + seed % 8);
        let (result, journal) =
            SimTransport::with_faults(seed, plan).run_traced(scheme.workers.clone(), &RuntimeConfig::default());
        let outcome = result.unwrap_or_else(|e| panic!("seed {seed}: recovery run failed: {e}"));
        assert!(outcome.stats.restarts >= 1, "seed {seed}: the crash never triggered a restart");
        replayed += outcome.stats.total_replayed_batches();
        for (&pred, want) in &expected {
            assert!(outcome.relation(pred).set_eq(want), "seed {seed}: recovered model diverges");
        }
        let crash = journal.events.iter().position(|e| matches!(e.kind, ObsKind::Crashed)).expect("a crash");
        let mid = mid_round_sends(&journal);
        between += (mid.first() < Some(&crash) && mid.last() > Some(&crash)) as usize;
    }
    assert!(between > 0 && replayed > 0, "no crash landed between two mid-round ships, or nothing was replayed");
}
