//! The presets: every way of filling in the one loop
//! ([`crate::schemes::general`]) that the paper names. A preset builds
//! the two-rule program `[exit, recursive]` of a linear sirup and one
//! policy per rule, and calls the loop; it compiles nothing itself.
//!
//! §3's `Q_i` ([`rewrite_non_redundant`]) conditions both rules and shares
//! `h`; §6's `R_i` ([`rewrite_generalized`]) drops the recursive rule's
//! condition and routes with a per-processor `h_i`; the communication-free
//! scheme of [Wolfson 88] ([`rewrite_no_comm`]) is `R_i` with
//! `h_i(x) = i`, as §6 states it. The §4 algorithms are `Q_i` under three
//! discriminating sequences:
//!
//! | Preset | Paper | `v(r)` | communication | base relation |
//! |---|---|---|---|---|
//! | [`example1_wolfson`] | Ex. 1, ref \[19\] | `⟨Y⟩` (cycle) | none | shared |
//! | [`example2_valduriez`] | Ex. 2, ref \[16\] | `⟨X,Z⟩` (fragment) | broadcast | any fragmentation |
//! | [`example3_hash_partition`] | Ex. 3, new | `⟨Z⟩` | point-to-point | disjoint hash fragments |
//!
//! Each works for any linear sirup in *transitive-closure shape*:
//! `t(X,Y) :- b(X,Z), t(Z,Y)` with exit `t(X,Y) :- s(X,Y)` — positions
//! may differ; the shape requirements are validated per preset.

use std::sync::Arc;

use gst_common::{Error, Result};
use gst_frontend::ast::Term;
use gst_frontend::{LinearSirup, Program, Variable};
use gst_storage::{Database, Fragmentation};

use crate::dataflow::zero_comm_choice;
use crate::discriminator::{
    Constant, Discriminator, DiscriminatorRef, FragmentOwner, HashMod, SkewAwareHashMod,
    SymmetricHashMod,
};
use crate::schemes::common::BaseDistribution;
use crate::schemes::general::{rewrite, RulePolicy};
use crate::schemes::CompiledScheme;
use crate::strategy::{sample_key_frequencies, SkewPolicy};

/// `sirup` as the program `[exit, recursive]`, through the loop.
fn rewrite_sirup(
    sirup: &LinearSirup,
    policies: [RulePolicy; 2],
    db: &Database,
    base: BaseDistribution,
    kind: &'static str,
) -> Result<CompiledScheme> {
    let rules = vec![sirup.exit_rule().clone(), sirup.recursive_rule().clone()];
    rewrite(&Program::new(rules, sirup.program.interner.clone()), &policies, db, base, kind)
}

/// Parameters of the §3 rewriting.
#[derive(Clone)]
pub struct NonRedundantConfig {
    /// `v(r)` — discriminating sequence of the recursive rule.
    pub v_r: Vec<Variable>,
    /// `v(e)` — discriminating sequence of the exit rule.
    pub v_e: Vec<Variable>,
    /// `h` — discriminating function of the recursive rule.
    pub h: DiscriminatorRef,
    /// `h'` — discriminating function of the exit rule.
    pub h_prime: DiscriminatorRef,
    /// How base relations reach the workers.
    pub base: BaseDistribution,
}

/// §3's non-redundant scheme `Q_i`: both rules conditioned, every
/// processor routing with the one `h` — §7's `T_i` on a linear sirup.
pub fn rewrite_non_redundant(
    sirup: &LinearSirup,
    cfg: &NonRedundantConfig,
    db: &Database,
) -> Result<CompiledScheme> {
    let n = cfg.h_prime.processors();
    let policies = [
        RulePolicy::shared(cfg.v_e.clone(), &cfg.h_prime, n),
        RulePolicy::shared(cfg.v_r.clone(), &cfg.h, n),
    ];
    rewrite_sirup(sirup, policies, db, cfg.base, "non-redundant (§3 Q_i)")
}

/// Parameters of the §6 rewriting.
#[derive(Clone)]
pub struct GeneralizedConfig {
    /// `v(r)`; every variable must appear in the body `t`-atom `Ȳ`.
    pub v_r: Vec<Variable>,
    /// `v(e)`.
    pub v_e: Vec<Variable>,
    /// `h'` shared by all processors for initialization.
    pub h_prime: DiscriminatorRef,
    /// `h_i` per processor — the local routing decisions.
    pub h_locals: Vec<DiscriminatorRef>,
}

/// §6's generalized trade-off scheme `R_i`: the recursive rule
/// unconditioned, processor `i` routing with its own `h_i`. `h_i = h`
/// gives `Q_i`'s traffic back, [`Constant`] the communication-free scheme,
/// [`crate::discriminator::Mixed`] the spectrum between.
///
/// Base relations are shared: the processing rule is unconditioned, so a
/// processor may fire any instance its inputs reach.
pub fn rewrite_generalized(
    sirup: &LinearSirup,
    cfg: &GeneralizedConfig,
    db: &Database,
) -> Result<CompiledScheme> {
    let policies = [
        RulePolicy::shared(cfg.v_e.clone(), &cfg.h_prime, cfg.h_prime.processors()),
        RulePolicy { v: cfg.v_r.clone(), h: cfg.h_locals.clone(), conditioned: false },
    ];
    rewrite_sirup(sirup, policies, db, BaseDistribution::Shared, "generalized trade-off (§6 R_i)")
}

/// Parameters of the communication-free rewriting.
#[derive(Clone)]
pub struct NoCommConfig {
    /// `v(e)` — the only discriminating sequence the scheme uses.
    pub v_e: Vec<Variable>,
    /// `h'` — partitions the exit-rule substitutions across processors.
    pub h_prime: DiscriminatorRef,
}

/// The communication-free, possibly redundant scheme of [Wolfson 88], as
/// §6 restates it: `R_i` with `h_i(x) = i`. No tuple leaves its producer,
/// the same tuple may be generated by several processors, and base
/// relations are shared — every processor must be able to fire any
/// instance of the recursive rule that its seeds reach.
pub fn rewrite_no_comm(
    sirup: &LinearSirup,
    cfg: &NoCommConfig,
    db: &Database,
) -> Result<CompiledScheme> {
    let n = cfg.h_prime.processors();
    let generalized = GeneralizedConfig {
        v_r: vec![], // a constant ignores its argument
        v_e: cfg.v_e.clone(),
        h_prime: cfg.h_prime.clone(),
        h_locals: (0..n).map(|i| Arc::new(Constant::new(n, i)) as DiscriminatorRef).collect(),
    };
    let mut scheme = rewrite_generalized(sirup, &generalized, db)?;
    scheme.kind = "communication-free ([Wolfson 88] / §6)";
    Ok(scheme)
}

/// Example 1 — the Wolfson–Silberschatz algorithm \[19\]: discriminate on a
/// dataflow-graph cycle, so no tuple ever changes processors. Works for
/// any sirup whose dataflow graph has a cycle (Theorem 3); the base
/// relations are shared.
pub fn example1_wolfson(sirup: &LinearSirup, n: usize, db: &Database) -> Result<CompiledScheme> {
    let choice = zero_comm_choice(sirup)?;
    let h: DiscriminatorRef = Arc::new(SymmetricHashMod::new(n, 0xE1));
    let cfg = NonRedundantConfig {
        v_r: choice.v_r,
        v_e: choice.v_e,
        h: h.clone(),
        h_prime: h,
        base: BaseDistribution::Shared,
    };
    let mut scheme = rewrite_non_redundant(sirup, &cfg, db)?;
    scheme.kind = "Example 1 (Wolfson–Silberschatz, zero communication)";
    Ok(scheme)
}

/// Example 2 — the Valduriez–Khoshafian algorithm \[16\]: an *arbitrary*
/// horizontal fragmentation of the base relation; `h(t) = owner fragment`.
/// The ownership test is not evaluable remotely, so every processor
/// broadcasts its new tuples — correct and non-redundant, at maximal
/// communication.
///
/// Requires the recursive rule's base atoms and the exit body to be a
/// single atom over the fragmented predicate (the TC shape).
pub fn example2_valduriez(
    sirup: &LinearSirup,
    fragmentation: Fragmentation,
    db: &Database,
) -> Result<CompiledScheme> {
    if sirup.base_atoms.len() != 1 {
        return Err(Error::Shape(
            "Example 2 needs exactly one base atom in the recursive rule".into(),
        ));
    }
    let pivot = &sirup.base_atoms[0];
    if pivot.pred() != sirup.source {
        return Err(Error::Shape(
            "Example 2 needs the exit rule's base predicate to match the \
             recursive rule's base atom (both read the fragmented relation)"
                .into(),
        ));
    }
    let v_r = vars_of(&pivot.terms, "the recursive base atom")?;
    let exit_atom = sirup
        .exit_rule()
        .body_atoms()
        .next()
        .expect("canonical exit rule");
    let v_e = vars_of(&exit_atom.terms, "the exit body atom")?;
    let h: DiscriminatorRef = Arc::new(FragmentOwner::new(Arc::new(fragmentation)));
    let cfg = NonRedundantConfig {
        v_r,
        v_e,
        h: h.clone(),
        h_prime: h,
        // FragmentOwner constraints carve out exactly each worker's
        // fragment — the paper's `par^i`.
        base: BaseDistribution::MinimalFragments,
    };
    let mut scheme = rewrite_non_redundant(sirup, &cfg, db)?;
    scheme.kind = "Example 2 (Valduriez–Khoshafian, fragmented + broadcast)";
    Ok(scheme)
}

/// Example 3's discriminating position: the variable at the first
/// position `p` of the recursive atom that occurs in a base atom of the
/// recursive rule, and the exit head's variable at `p`.
fn hash_position(sirup: &LinearSirup, who: &str) -> Result<(Variable, Variable)> {
    let in_base = |v: &Variable| sirup.base_atoms.iter().any(|a| a.variables().any(|b| b == *v));
    sirup
        .recursive_args
        .iter()
        .zip(&sirup.exit_head)
        .find_map(|pair| match pair {
            (Term::Var(v), Term::Var(e)) if in_base(v) => Some((*v, *e)),
            _ => None,
        })
        .ok_or_else(|| {
            Error::Shape(format!(
                "{who} needs a recursive-atom position whose variable occurs in a \
                 base atom and whose exit-head position is a variable"
            ))
        })
}

/// Example 3 — the paper's new algorithm: hash-discriminate on the
/// variable `Ȳ` and the exit head share at a dataflow position, giving
/// point-to-point communication over disjoint base fragments — strictly
/// between Examples 1 and 2 on both axes.
///
/// The position picked is the first position `p` such that `Ȳ_p` is a
/// variable occurring in some base atom of the recursive rule (ancestor:
/// `p = 0`, `v(r) = ⟨Z⟩`, `v(e) = ⟨X⟩`).
pub fn example3_hash_partition(
    sirup: &LinearSirup,
    n: usize,
    db: &Database,
) -> Result<CompiledScheme> {
    let (v_r_var, v_e_var) = hash_position(sirup, "Example 3")?;
    let h: DiscriminatorRef = Arc::new(HashMod::new(n, 0xE3));
    let cfg = NonRedundantConfig {
        v_r: vec![v_r_var],
        v_e: vec![v_e_var],
        h: h.clone(),
        h_prime: h,
        base: BaseDistribution::MinimalFragments,
    };
    let mut scheme = rewrite_non_redundant(sirup, &cfg, db)?;
    scheme.kind = "Example 3 (hash partition, point-to-point)";
    Ok(scheme)
}

/// Skew-aware variant of Example 3 (ROADMAP item 4): the same hash
/// partition on the recursive position, except `h` and `h'` sample the EDB
/// at compile time and split each *hot* key across `k` processors.
///
/// Mechanically this is still the §3 non-redundant scheme — only over an
/// *extended* discriminating sequence: the Example-3 key variable followed
/// by the remaining variables of the recursive atom (resp. exit head), so
/// the secondary hash has something to split on. A [`SkewAwareHashMod`]
/// routes cold keys exactly like Example 3's `HashMod` (same seed, same
/// key hash) and spreads a hot key's instances across its split set; the
/// fragmenter replicates the hot key's complementary base fragment to
/// every member of that set via the prefix-coverage rule (§6 `R_i`: pay
/// redundant storage, keep every firing local). With no hot keys detected
/// the compiled scheme routes tuple-for-tuple like Example 3.
pub fn skew_aware_hash_partition(
    sirup: &LinearSirup,
    n: usize,
    db: &Database,
    policy: &SkewPolicy,
) -> Result<CompiledScheme> {
    let (v_r_var, v_e_var) = hash_position(sirup, "skew-aware partition")?;

    // Extended sequences: the key variable first, then the remaining
    // distinct variables of the recursive atom / exit head. Every extended
    // variable still appears in the corresponding rule body, so the
    // sequences stay valid and the sending rules stay point-to-point.
    let v_r = extend_sequence(v_r_var, &sirup.recursive_args);
    let v_e = extend_sequence(v_e_var, &sirup.exit_head);

    let split_k = if policy.split_k == 0 {
        n
    } else {
        policy.split_k.min(n)
    };
    // Example 3's seed: with no hot keys, cold routing is bit-identical.
    //
    // Both functions census the *exit-seed* column. The recursive atom's
    // fragment is seeded by the exit rule's output and then grows by
    // self-join, so the compile-time proxy for "how many recursive tuples
    // carry key value v" is the frequency of v in the column the exit body
    // reads for the key position — not the column a recursive-rule base
    // atom happens to bind. For ancestor both land on `par`'s first column
    // (out-degree): the hub of a star or the head of a zipf distribution.
    let h = skew_hash(sirup, db, v_e_var, n, split_k, policy, 0xE3, 0x53);
    let h_prime = skew_hash(sirup, db, v_e_var, n, split_k, policy, 0xE3, 0x54);
    let hot_keys_split = h.hot_key_count() + h_prime.hot_key_count();

    let cfg = NonRedundantConfig {
        v_r,
        v_e,
        h: Arc::new(h),
        h_prime: Arc::new(h_prime),
        base: BaseDistribution::MinimalFragments,
    };
    let mut scheme = rewrite_non_redundant(sirup, &cfg, db)?;
    scheme.kind = "skew-aware hash partition (sampled hot-key split, §6 R_i)";
    scheme.hot_keys_split = hot_keys_split;
    Ok(scheme)
}

/// `key` followed by the other distinct variables of `terms`, in order.
fn extend_sequence(key: Variable, terms: &[Term]) -> Vec<Variable> {
    let mut seq = vec![key];
    for term in terms {
        if let Term::Var(v) = term {
            if !seq.contains(v) {
                seq.push(*v);
            }
        }
    }
    seq
}

/// Build the skew-aware function for one key variable: census the first
/// base-relation column binding it, flag hot keys per `policy`, and hand
/// each a split set of `split_k` processors starting at its cold-routing
/// home (so one of the replicas is always the worker a plain hash would
/// have used).
#[allow(clippy::too_many_arguments)] // internal builder, one call site per function
fn skew_hash(
    sirup: &LinearSirup,
    db: &Database,
    key_var: Variable,
    n: usize,
    split_k: usize,
    policy: &SkewPolicy,
    seed: u64,
    secondary_seed: u64,
) -> SkewAwareHashMod {
    let cold = SkewAwareHashMod::new(n, 1, seed, secondary_seed);
    // The column to census: where the key variable reads a base relation.
    // The recursive rule's base atoms bind v(r); the exit body binds v(e).
    let exit_atoms: Vec<_> = sirup.exit_rule().body_atoms().cloned().collect();
    let site = sirup
        .base_atoms
        .iter()
        .chain(exit_atoms.iter())
        .find_map(|a| {
            a.terms
                .iter()
                .position(|t| matches!(t, Term::Var(v) if *v == key_var))
                .map(|col| ((a.predicate, a.terms.len()), col))
        });
    let Some((id, col)) = site else {
        return cold; // key never reads a base relation: nothing to sample
    };
    let Some(rel) = db.relation(id) else {
        return cold; // no data: nothing to split
    };
    let profile = sample_key_frequencies(rel, &[col]);
    let hot = profile.hot_keys(n, policy).into_iter().map(|(key, _)| {
        let home = cold.assign(&key);
        let targets = (0..split_k).map(|j| (home + j) % n).collect();
        (key, targets)
    });
    SkewAwareHashMod::new(n, 1, seed, secondary_seed).with_hot_keys(hot)
}

fn vars_of(terms: &[Term], what: &str) -> Result<Vec<Variable>> {
    let vars: Vec<Variable> = terms.iter().filter_map(Term::as_var).collect();
    if vars.len() != terms.len() {
        return Err(Error::Shape(format!(
            "Example preset requires {what} to have only variables"
        )));
    }
    Ok(vars)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gst_eval::seminaive_eval;
    use gst_storage::round_robin_fragment;
    use gst_workloads::{chain, grid, linear_ancestor, random_digraph};

    fn setup() -> (LinearSirup, gst_workloads::Fixture) {
        let fx = linear_ancestor();
        let s = LinearSirup::from_program(&fx.program).unwrap();
        (s, fx)
    }

    #[test]
    fn example1_no_communication_and_correct() {
        let (s, fx) = setup();
        let db = fx.database(&random_digraph(25, 55, 8));
        let scheme = example1_wolfson(&s, 4, &db).unwrap();
        let outcome = scheme.run().unwrap();
        let seq = seminaive_eval(&fx.program, &db).unwrap();
        let anc = fx.output_id();
        assert!(outcome.relation(anc).set_eq(&seq.relation(anc)));
        // The paper's headline property: zero recursive communication.
        assert!(outcome.stats.communication_free());
        // And non-redundant (Theorem 2).
        assert!(outcome.stats.total_processing_firings() <= seq.stats.firings);
    }

    #[test]
    fn example1_base_relation_is_shared() {
        let (s, fx) = setup();
        let db = fx.database(&chain(10));
        let scheme = example1_wolfson(&s, 3, &db).unwrap();
        let par = fx.input_id(0);
        for w in &scheme.workers {
            assert_eq!(w.edb.relation(par).unwrap().len(), 10, "full copy");
        }
    }

    #[test]
    fn example2_arbitrary_fragmentation_and_broadcast() {
        let (s, fx) = setup();
        let edges = random_digraph(20, 45, 3);
        let db = fx.database(&edges);
        // Round-robin is the adversarial "any horizontal fragmentation".
        let frag = round_robin_fragment(&edges, 4).unwrap();
        let scheme = example2_valduriez(&s, frag, &db).unwrap();
        let outcome = scheme.run().unwrap();
        let seq = seminaive_eval(&fx.program, &db).unwrap();
        let anc = fx.output_id();
        assert!(outcome.relation(anc).set_eq(&seq.relation(anc)));
        // Broadcast: every derived tuple crosses every channel, so the
        // channel matrix is (almost) complete.
        let used = outcome.stats.used_channels();
        assert!(
            used.len() >= 9,
            "broadcast should light up most of the 12 channels: {used:?}"
        );
        // Still non-redundant (paper: "the extra communication does not
        // make the parallel execution either incorrect or redundant").
        assert!(outcome.stats.total_processing_firings() <= seq.stats.firings);
    }

    #[test]
    fn example2_workers_hold_their_fragment_only() {
        let (s, fx) = setup();
        let edges = chain(20);
        let db = fx.database(&edges);
        let frag = round_robin_fragment(&edges, 4).unwrap();
        let sizes = frag.sizes();
        let scheme = example2_valduriez(&s, frag, &db).unwrap();
        let par = fx.input_id(0);
        for (i, w) in scheme.workers.iter().enumerate() {
            assert_eq!(
                w.edb.relation(par).map(|r| r.len()).unwrap_or(0),
                sizes[i],
                "worker {i} holds exactly fragment {i}"
            );
        }
    }

    #[test]
    fn example3_point_to_point_and_correct() {
        let (s, fx) = setup();
        let db = fx.database(&grid(5, 5));
        let scheme = example3_hash_partition(&s, 4, &db).unwrap();
        let outcome = scheme.run().unwrap();
        let seq = seminaive_eval(&fx.program, &db).unwrap();
        let anc = fx.output_id();
        assert!(outcome.relation(anc).set_eq(&seq.relation(anc)));
        assert!(outcome.stats.total_processing_firings() <= seq.stats.firings);
    }

    #[test]
    fn the_three_examples_order_by_communication() {
        // Paper §4.3: Example 1 < Example 3 < Example 2 in communication.
        let (s, fx) = setup();
        let edges = random_digraph(24, 60, 12);
        let db = fx.database(&edges);
        let n = 4;

        let c1 = example1_wolfson(&s, n, &db).unwrap().run().unwrap();
        let c3 = example3_hash_partition(&s, n, &db).unwrap().run().unwrap();
        let frag = round_robin_fragment(&edges, n).unwrap();
        let c2 = example2_valduriez(&s, frag, &db).unwrap().run().unwrap();

        let (t1, t3, t2) = (
            c1.stats.total_tuples_sent(),
            c3.stats.total_tuples_sent(),
            c2.stats.total_tuples_sent(),
        );
        assert_eq!(t1, 0, "Example 1 is communication-free");
        assert!(t3 > 0, "Example 3 communicates point-to-point");
        assert!(
            t2 > t3,
            "Example 2 broadcasts more than Example 3 routes: {t2} vs {t3}"
        );
    }

    #[test]
    fn example3_fragments_are_smaller_than_replication() {
        let (s, fx) = setup();
        let edges = chain(40);
        let db = fx.database(&edges);
        let n = 4;
        let scheme = example3_hash_partition(&s, n, &db).unwrap();
        let par = fx.input_id(0);
        let total: usize = scheme
            .workers
            .iter()
            .map(|w| w.edb.relation(par).map(|r| r.len()).unwrap_or(0))
            .sum();
        assert!(
            total <= 2 * edges.len(),
            "X- and Z-fragments: ≤ 2·|par| total, got {total}"
        );
        assert!(total < n * edges.len(), "strictly better than replication");
    }

    #[test]
    fn example2_rejects_wrong_shape() {
        let fx = gst_workloads::same_generation();
        let s = LinearSirup::from_program(&fx.program).unwrap();
        let (up, down, flat) = gst_workloads::same_generation_tree(3);
        let db = fx.database_multi(&[up.clone(), down, flat]);
        let frag = round_robin_fragment(&up, 2).unwrap();
        assert!(example2_valduriez(&s, frag, &db).is_err());
    }

    #[test]
    fn example1_rejects_acyclic_dataflow() {
        let fx = gst_workloads::chain_sirup();
        let s = LinearSirup::from_program(&fx.program).unwrap();
        let db = Database::new(fx.program.interner.clone());
        assert!(example1_wolfson(&s, 2, &db).is_err());
    }

    #[test]
    fn skew_aware_matches_oracle_on_skewed_graph() {
        let (s, fx) = setup();
        // A star melts one worker under any key hash: node 0 is the only
        // exit-side key and carries the whole relation.
        let db = fx.database(&gst_workloads::star(40));
        let policy = crate::strategy::SkewPolicy::default();
        let scheme = skew_aware_hash_partition(&s, 4, &db, &policy).unwrap();
        assert!(scheme.hot_keys_split >= 1, "star's hub must be flagged hot");
        let outcome = scheme.run().unwrap();
        let seq = seminaive_eval(&fx.program, &db).unwrap();
        let anc = fx.output_id();
        assert!(outcome.relation(anc).set_eq(&seq.relation(anc)));
    }

    #[test]
    fn skew_aware_without_hot_keys_matches_example3_routing() {
        let (s, fx) = setup();
        // A chain is perfectly uniform: no key exceeds two fair shares, so
        // the sampler flags nothing and cold routing is Example 3's hash.
        let db = fx.database(&chain(30));
        let policy = crate::strategy::SkewPolicy::default();
        let skew = skew_aware_hash_partition(&s, 4, &db, &policy).unwrap();
        assert_eq!(skew.hot_keys_split, 0);
        let ex3 = example3_hash_partition(&s, 4, &db).unwrap();
        let a = skew.run().unwrap();
        let b = ex3.run().unwrap();
        let anc = fx.output_id();
        assert!(a.relation(anc).set_eq(&b.relation(anc)));
        // Same per-worker firings: every instance routed to the same home.
        for w in 0..4 {
            assert_eq!(
                a.stats.workers[w].processing_firings,
                b.stats.workers[w].processing_firings,
                "worker {w} diverged from Example 3 routing"
            );
        }
        assert_eq!(
            a.stats.total_tuples_sent(),
            b.stats.total_tuples_sent(),
            "cold-only routing ships the same tuples"
        );
    }

    #[test]
    fn skew_aware_replicates_hot_fragment_only() {
        let (s, fx) = setup();
        let edges = gst_workloads::star(32);
        let db = fx.database(&edges);
        let policy = crate::strategy::SkewPolicy::default();
        let scheme = skew_aware_hash_partition(&s, 4, &db, &policy).unwrap();
        let par = fx.input_id(0);
        // The hub key is split across all 4 workers, so its complementary
        // fragment (the whole star) is replicated — but total storage is
        // still bounded by the split factor, not silently "share all".
        let total: usize = scheme
            .workers
            .iter()
            .map(|w| w.edb.relation(par).map(|r| r.len()).unwrap_or(0))
            .sum();
        assert!(total >= edges.len(), "every worker in the split set holds the hub fragment");
        let outcome = scheme.run().unwrap();
        let seq = seminaive_eval(&fx.program, &db).unwrap();
        let anc = fx.output_id();
        assert!(outcome.relation(anc).set_eq(&seq.relation(anc)));
    }

    #[test]
    fn skew_aware_balances_star_init_firings() {
        let (s, fx) = setup();
        let db = fx.database(&gst_workloads::star(64));
        let n = 4;
        let skew_fn = |outcome: &gst_runtime::ExecutionOutcome| {
            let per: Vec<u64> = (0..n)
                .map(|w| outcome.stats.workers[w].processing_firings)
                .collect();
            let max = *per.iter().max().unwrap() as f64;
            let mean = per.iter().sum::<u64>() as f64 / n as f64;
            if mean == 0.0 { 1.0 } else { max / mean }
        };
        let plain = example3_hash_partition(&s, n, &db).unwrap().run().unwrap();
        let policy = crate::strategy::SkewPolicy::default();
        let skewed = skew_aware_hash_partition(&s, n, &db, &policy)
            .unwrap()
            .run()
            .unwrap();
        assert!(
            skew_fn(&skewed) * 2.0 <= skew_fn(&plain),
            "hot-key splitting must at least halve star skew: {} vs {}",
            skew_fn(&skewed),
            skew_fn(&plain)
        );
    }
}

#[cfg(test)]
mod nonredundant {
    use super::*;
    use crate::discriminator::HashMod;
    use gst_common::ituple;
    use gst_eval::seminaive_eval;
    use gst_workloads::{chain, linear_ancestor, random_digraph};
    use std::sync::Arc;

    fn ancestor_sirup() -> (LinearSirup, gst_workloads::Fixture) {
        let fx = linear_ancestor();
        (LinearSirup::from_program(&fx.program).unwrap(), fx)
    }

    fn example3_config(s: &LinearSirup, n: usize) -> NonRedundantConfig {
        let h: DiscriminatorRef = Arc::new(HashMod::new(n, 7));
        NonRedundantConfig {
            v_r: vec![s.program.var("Z")],
            v_e: vec![s.program.var("X")],
            h: h.clone(),
            h_prime: h,
            base: BaseDistribution::MinimalFragments,
        }
    }

    #[test]
    fn matches_sequential_on_chain() {
        let (s, fx) = ancestor_sirup();
        let db = fx.database(&chain(12));
        let scheme = rewrite_non_redundant(&s, &example3_config(&s, 3), &db).unwrap();
        assert_eq!(scheme.processors(), 3);
        let outcome = scheme.run().unwrap();
        let seq = seminaive_eval(&fx.program, &db).unwrap();
        let anc = fx.output_id();
        assert!(outcome.relation(anc).set_eq(&seq.relation(anc)));
        assert_eq!(outcome.relation(anc).len(), 78);
    }

    #[test]
    fn matches_sequential_on_random_graphs() {
        let (s, fx) = ancestor_sirup();
        for seed in 0..3u64 {
            let db = fx.database(&random_digraph(30, 60, seed));
            let scheme = rewrite_non_redundant(&s, &example3_config(&s, 4), &db).unwrap();
            let outcome = scheme.run().unwrap();
            let seq = seminaive_eval(&fx.program, &db).unwrap();
            let anc = fx.output_id();
            assert!(
                outcome.relation(anc).set_eq(&seq.relation(anc)),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn is_seminaive_non_redundant() {
        // Theorem 2: parallel processing firings ≤ sequential firings.
        let (s, fx) = ancestor_sirup();
        // A bushy graph with many duplicate derivations.
        let db = fx.database(&gst_workloads::grid(6, 6));
        let scheme = rewrite_non_redundant(&s, &example3_config(&s, 4), &db).unwrap();
        let outcome = scheme.run().unwrap();
        let seq = seminaive_eval(&fx.program, &db).unwrap();
        assert!(
            outcome.stats.total_processing_firings() <= seq.stats.firings,
            "parallel {} > sequential {}",
            outcome.stats.total_processing_firings(),
            seq.stats.firings
        );
    }

    #[test]
    fn fragments_partition_base_relation() {
        let (s, fx) = ancestor_sirup();
        let edges = chain(40);
        let db = fx.database(&edges);
        let scheme = rewrite_non_redundant(&s, &example3_config(&s, 4), &db).unwrap();
        let par = fx.input_id(0);
        let total: usize = scheme
            .workers
            .iter()
            .map(|w| w.edb.relation(par).map(|r| r.len()).unwrap_or(0))
            .sum();
        // Each worker holds the X-fragment ∪ Z-fragment: ≤ 2·|par| total,
        // and strictly less than full replication (4·|par|).
        assert!(total <= 2 * edges.len());
        assert!(total >= edges.len());
    }

    #[test]
    fn single_processor_degenerates_to_sequential() {
        let (s, fx) = ancestor_sirup();
        let db = fx.database(&chain(8));
        let scheme = rewrite_non_redundant(&s, &example3_config(&s, 1), &db).unwrap();
        let outcome = scheme.run().unwrap();
        assert!(outcome.stats.communication_free());
        assert_eq!(outcome.relation(fx.output_id()).len(), 36);
    }

    #[test]
    fn rejects_mismatched_processor_counts() {
        let (s, fx) = ancestor_sirup();
        let db = fx.database(&chain(4));
        let cfg = NonRedundantConfig {
            v_r: vec![s.program.var("Z")],
            v_e: vec![s.program.var("X")],
            h: Arc::new(HashMod::new(2, 0)),
            h_prime: Arc::new(HashMod::new(3, 0)),
            base: BaseDistribution::Shared,
        };
        assert!(rewrite_non_redundant(&s, &cfg, &db).is_err());
    }

    #[test]
    fn rejects_foreign_discriminating_variable() {
        let (s, fx) = ancestor_sirup();
        let db = fx.database(&chain(4));
        let w = Variable(s.program.interner.intern("Wxyz"));
        let h: DiscriminatorRef = Arc::new(HashMod::new(2, 0));
        let cfg = NonRedundantConfig {
            v_r: vec![w],
            v_e: vec![s.program.var("X")],
            h: h.clone(),
            h_prime: h,
            base: BaseDistribution::Shared,
        };
        assert!(rewrite_non_redundant(&s, &cfg, &db).is_err());
    }

    #[test]
    fn works_on_same_generation() {
        let fx = gst_workloads::same_generation();
        let s = LinearSirup::from_program(&fx.program).unwrap();
        let (up, down, flat) = gst_workloads::same_generation_tree(4);
        let db = fx.database_multi(&[up, down, flat]);
        // v(r) = ⟨U⟩ (first arg of the body sg-atom), v(e) = ⟨X⟩.
        let h: DiscriminatorRef = Arc::new(HashMod::new(3, 5));
        let cfg = NonRedundantConfig {
            v_r: vec![s.program.var("U")],
            v_e: vec![s.program.var("X")],
            h: h.clone(),
            h_prime: h,
            base: BaseDistribution::Shared,
        };
        let scheme = rewrite_non_redundant(&s, &cfg, &db).unwrap();
        let outcome = scheme.run().unwrap();
        let seq = seminaive_eval(&fx.program, &db).unwrap();
        let sg = fx.output_id();
        assert!(outcome.relation(sg).set_eq(&seq.relation(sg)));
        assert!(outcome.relation(sg).contains(&ituple![2, 3]));
    }

    #[test]
    fn chain_sirup_arity3_is_supported() {
        let fx = gst_workloads::chain_sirup();
        let s = LinearSirup::from_program(&fx.program).unwrap();
        // s(u,v,w): seed tuples; q(u,z) drives the recursion.
        let mut sdata = gst_storage::Relation::new(3);
        sdata.insert(ituple![1, 2, 3]).unwrap();
        sdata.insert(ituple![5, 6, 7]).unwrap();
        let mut qdata = gst_storage::Relation::new(2);
        for k in 0..6i64 {
            qdata.insert(ituple![k, k + 2]).unwrap();
        }
        let db = fx.database_multi(&[sdata, qdata]);
        let h: DiscriminatorRef = Arc::new(HashMod::new(2, 3));
        let cfg = NonRedundantConfig {
            v_r: vec![s.program.var("V"), s.program.var("W"), s.program.var("Z")],
            v_e: vec![s.program.var("U"), s.program.var("V"), s.program.var("W")],
            h: h.clone(),
            h_prime: h,
            base: BaseDistribution::Shared,
        };
        let scheme = rewrite_non_redundant(&s, &cfg, &db).unwrap();
        let outcome = scheme.run().unwrap();
        let seq = seminaive_eval(&fx.program, &db).unwrap();
        let p = fx.output_id();
        assert!(outcome.relation(p).set_eq(&seq.relation(p)));
        assert!(!outcome.relation(p).is_empty());
    }
}

#[cfg(test)]
mod generalized {
    use super::*;
    use crate::discriminator::{Constant, HashMod, Mixed};
    use gst_eval::seminaive_eval;
    use gst_workloads::{grid, linear_ancestor, random_digraph};
    use std::sync::Arc;

    fn setup() -> (LinearSirup, gst_workloads::Fixture) {
        let fx = linear_ancestor();
        let s = LinearSirup::from_program(&fx.program).unwrap();
        (s, fx)
    }

    fn config_with(
        s: &LinearSirup,
        h_locals: Vec<DiscriminatorRef>,
        n: usize,
    ) -> GeneralizedConfig {
        GeneralizedConfig {
            v_r: vec![s.program.var("Z")],
            v_e: vec![s.program.var("X")],
            h_prime: Arc::new(HashMod::new(n, 17)),
            h_locals,
        }
    }

    #[test]
    fn shared_h_reduces_to_non_redundant() {
        let (s, fx) = setup();
        let n = 4;
        let h: DiscriminatorRef = Arc::new(HashMod::new(n, 23));
        let cfg = config_with(&s, vec![h; n], n);
        let db = fx.database(&grid(5, 5));
        let outcome = rewrite_generalized(&s, &cfg, &db).unwrap().run().unwrap();
        let seq = seminaive_eval(&fx.program, &db).unwrap();
        let anc = fx.output_id();
        assert!(outcome.relation(anc).set_eq(&seq.relation(anc)));
        // Theorem 2 regime: non-redundant.
        assert!(outcome.stats.total_processing_firings() <= seq.stats.firings);
    }

    #[test]
    fn constant_h_reduces_to_no_communication() {
        let (s, fx) = setup();
        let n = 3;
        let h_locals: Vec<DiscriminatorRef> = (0..n)
            .map(|i| Arc::new(Constant::new(n, i)) as DiscriminatorRef)
            .collect();
        let cfg = config_with(&s, h_locals, n);
        let db = fx.database(&random_digraph(20, 40, 4));
        let outcome = rewrite_generalized(&s, &cfg, &db).unwrap().run().unwrap();
        let seq = seminaive_eval(&fx.program, &db).unwrap();
        let anc = fx.output_id();
        assert!(outcome.relation(anc).set_eq(&seq.relation(anc)));
        assert!(outcome.stats.communication_free());
    }

    #[test]
    fn mixed_alpha_trades_communication_for_redundancy() {
        let (s, fx) = setup();
        let n = 4;
        let db = fx.database(&grid(6, 6));
        let seq = seminaive_eval(&fx.program, &db).unwrap();
        let anc = fx.output_id();

        let base: DiscriminatorRef = Arc::new(HashMod::new(n, 23));
        let mut comm = Vec::new();
        let mut firings = Vec::new();
        for &alpha in &[0.0, 0.5, 1.0] {
            let h_locals: Vec<DiscriminatorRef> = (0..n)
                .map(|i| Arc::new(Mixed::new(i, base.clone(), alpha, 31)) as DiscriminatorRef)
                .collect();
            let cfg = config_with(&s, h_locals, n);
            let outcome = rewrite_generalized(&s, &cfg, &db).unwrap().run().unwrap();
            assert!(
                outcome.relation(anc).set_eq(&seq.relation(anc)),
                "α={alpha}: correctness must hold everywhere on the spectrum"
            );
            comm.push(outcome.stats.total_tuples_sent());
            firings.push(outcome.stats.total_processing_firings());
        }
        // α=0 (pure hash) communicates the most and fires the least;
        // α=1 (keep-local) communicates nothing.
        assert!(comm[0] > comm[1], "comm: {comm:?}");
        assert!(comm[1] > comm[2], "comm: {comm:?}");
        assert_eq!(comm[2], 0);
        assert!(firings[0] <= seq.stats.firings);
        assert!(
            firings[2] >= firings[0],
            "keep-local must not fire fewer times: {firings:?}"
        );
    }

    #[test]
    fn rejects_v_r_outside_y() {
        let (s, fx) = setup();
        let n = 2;
        let h: DiscriminatorRef = Arc::new(HashMod::new(n, 1));
        let cfg = GeneralizedConfig {
            v_r: vec![s.program.var("X")], // X ∉ Ȳ = (Z, Y)
            v_e: vec![s.program.var("X")],
            h_prime: h.clone(),
            h_locals: vec![h; n],
        };
        let db = fx.database(&grid(3, 3));
        let err = rewrite_generalized(&s, &cfg, &db).unwrap_err();
        assert!(err.to_string().contains("appear in Ȳ"));
    }

    #[test]
    fn rejects_mismatched_ranges() {
        let (s, fx) = setup();
        let h2: DiscriminatorRef = Arc::new(HashMod::new(2, 1));
        let h3: DiscriminatorRef = Arc::new(HashMod::new(3, 1));
        let cfg = GeneralizedConfig {
            v_r: vec![s.program.var("Z")],
            v_e: vec![s.program.var("X")],
            h_prime: h3,
            h_locals: vec![h2.clone(), h2],
        };
        let db = fx.database(&grid(3, 3));
        assert!(rewrite_generalized(&s, &cfg, &db).is_err());
    }

    #[test]
    fn rejects_zero_processors() {
        let (s, fx) = setup();
        let cfg = GeneralizedConfig {
            v_r: vec![s.program.var("Z")],
            v_e: vec![s.program.var("X")],
            h_prime: Arc::new(HashMod::new(1, 1)),
            h_locals: vec![],
        };
        let db = fx.database(&grid(2, 2));
        assert!(rewrite_generalized(&s, &cfg, &db).is_err());
    }
}

#[cfg(test)]
mod nocomm {
    use super::*;
    use crate::discriminator::{HashMod, SymmetricHashMod};
    use gst_eval::seminaive_eval;
    use gst_workloads::{chain, linear_ancestor, random_digraph};
    use std::sync::Arc;

    /// `v(e) = ⟨X⟩`: a generic (non-pivot) split of the exit substitutions.
    fn setup(n: usize) -> (LinearSirup, gst_workloads::Fixture, NoCommConfig) {
        let fx = linear_ancestor();
        let s = LinearSirup::from_program(&fx.program).unwrap();
        let x = Variable(s.program.interner.get("X").unwrap());
        let cfg = NoCommConfig {
            v_e: vec![x],
            h_prime: Arc::new(HashMod::new(n, 11)),
        };
        (s, fx, cfg)
    }

    #[test]
    fn computes_the_closure_without_communication() {
        let (s, fx, cfg) = setup(4);
        let db = fx.database(&random_digraph(25, 50, 2));
        let scheme = rewrite_no_comm(&s, &cfg, &db).unwrap();
        let outcome = scheme.run().unwrap();
        let seq = seminaive_eval(&fx.program, &db).unwrap();
        let anc = fx.output_id();
        assert!(outcome.relation(anc).set_eq(&seq.relation(anc)));
        // Property 1 of §6: zero interprocessor tuples.
        assert!(outcome.stats.communication_free());
        assert_eq!(outcome.stats.total_messages(), 0);
    }

    #[test]
    fn may_duplicate_work_across_processors() {
        // On a grid, a tuple (x, y) is derivable through many paths whose
        // final edges start at different nodes; with seeds split by
        // h'(X), several processors rediscover the same tuple — the
        // redundancy §6 trades against communication.
        let (s, fx, cfg) = setup(4);
        let db = fx.database(&gst_workloads::grid(6, 6));
        let scheme = rewrite_no_comm(&s, &cfg, &db).unwrap();
        let outcome = scheme.run().unwrap();
        let seq = seminaive_eval(&fx.program, &db).unwrap();
        assert!(
            outcome.stats.total_processing_firings() > seq.stats.firings,
            "expected redundancy: parallel {} vs sequential {}",
            outcome.stats.total_processing_firings(),
            seq.stats.firings
        );
    }

    #[test]
    fn seeds_are_partitioned_not_replicated() {
        let (s, fx, cfg) = setup(3);
        let db = fx.database(&chain(30));
        let scheme = rewrite_no_comm(&s, &cfg, &db).unwrap();
        let outcome = scheme.run().unwrap();
        // Each edge seeds exactly one processor: summed init firings
        // (rule 0 per worker) equal |par|.
        let init_total: u64 = outcome
            .stats
            .workers
            .iter()
            .map(|w| w.eval.firings_by_rule[0])
            .sum();
        assert_eq!(init_total, 30);
    }

    #[test]
    fn wolfson_pivot_choice_is_non_redundant_here() {
        // Special structure: for ancestor, discriminating on Y (which the
        // recursion preserves) makes even the no-comm scheme duplicate-
        // free across processors — every derivation chain stays where its
        // seed landed. This is the [19] "pivoting" insight Theorem 3
        // generalizes; with a symmetric h it is Example 1.
        let fx = linear_ancestor();
        let s = LinearSirup::from_program(&fx.program).unwrap();
        let y = Variable(s.program.interner.get("Y").unwrap());
        let cfg = NoCommConfig {
            v_e: vec![y],
            h_prime: Arc::new(SymmetricHashMod::new(4, 3)),
        };
        let db = fx.database(&random_digraph(20, 45, 9));
        let scheme = rewrite_no_comm(&s, &cfg, &db).unwrap();
        let outcome = scheme.run().unwrap();
        let seq = seminaive_eval(&fx.program, &db).unwrap();
        let anc = fx.output_id();
        assert!(outcome.relation(anc).set_eq(&seq.relation(anc)));
        assert!(outcome.stats.total_processing_firings() <= seq.stats.firings);
    }

    #[test]
    fn rejects_empty_sequence() {
        let (s, fx, mut cfg) = setup(2);
        cfg.v_e.clear();
        let db = fx.database(&chain(3));
        assert!(rewrite_no_comm(&s, &cfg, &db).is_err());
    }
}
