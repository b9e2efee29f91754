//! The §3 non-redundant scheme `Q_i`.
//!
//! Given a linear sirup
//!
//! ```text
//! e:  t(Z̄) :- s(Z̄)
//! r:  t(X̄) :- t(Ȳ), b₁, …, b_k
//! ```
//!
//! discriminating sequences `v(e)`, `v(r)` and hash functions `h'`, `h`
//! over `P = {0,…,n−1}`, processor `i` executes
//!
//! ```text
//! initialization:  t_out^i(Z̄) :- s(Z̄), h'(v(e)) = i
//! processing:      t_out^i(X̄) :- t_in^i(Ȳ), b₁, …, b_k, h(v(r)) = i
//! sending (∀j):    t_ij(Ȳ)    :- t_out^i(Ȳ), h(v(r)) = j
//! receiving (∀j):  t_in^i(W̄)  :- t_ji(W̄)
//! final pooling:   t(W̄)       :- t_out^i(W̄)
//! ```
//!
//! That rewrite is the *specification*. What a processor runs is its
//! initialization and processing rules plus a [route table]: the sending
//! rules `{t_ij}_j` are one [`Route`] — body atom `t_out^i(Ȳ)`, condition
//! `h(v(r)) = ·`, inbox `t_in^j` per destination — which the engine
//! evaluates on each tuple where a rule emits it: a tuple with `j = i`
//! goes straight to `t_in^i`'s pending pool (the same round) and is
//! stored there only, any other is deduplicated into `t_out^i` — which so
//! holds what `i` has shipped — and appended to processor `j`'s ship
//! buffer. No `t_ij` is materialized and no sending rule fires; final
//! pooling then reads `t_in^i`, whose union over `i` is all of `t`.
//!
//! Implementation notes:
//! * receiving and pooling are performed by the runtime (inbox injection
//!   and answer pooling), not as materialized rules;
//! * when `h` cannot be evaluated on an outgoing tuple — its variables
//!   are not all in `Ȳ`, or `h` is [`FragmentOwner`]-like — the route
//!   drops its condition and broadcasts, exactly the resolution the
//!   paper adopts for Example 2 ("the extra communication does not make
//!   the parallel execution either incorrect or redundant"); the
//!   broadcast is buffered and encoded once for all destinations, every
//!   tuple is shipped, and `t_out^i` stays the pooled relation;
//! * the selection `h(v(r)) = i` of the processing rule is pushed into
//!   the join by the planner's eager constraint placement, realizing the
//!   fragment reads `b_k^i :- b_k, h(v(r)) = i` of the paper.
//!
//! [route table]: gst_runtime::ProcessorProgram::routes
//! [`Route`]: gst_runtime::Route
//! [`FragmentOwner`]: crate::discriminator::FragmentOwner

use gst_common::Result;
use gst_frontend::{LinearSirup, Variable};
use gst_runtime::ProcessorProgram;
use gst_storage::Database;

use crate::discriminator::{DiscConstraint, DiscriminatorRef};
use crate::schemes::common::{
    assemble, can_route, initialization_rule, pooling_pair, processing_rule, program, rel_id, sending_route,
    validate_sequence, BaseDistribution, Namer,
};
use crate::schemes::CompiledScheme;

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

/// Rewrite `sirup` under `cfg` into the non-redundant parallel scheme.
pub fn rewrite_non_redundant(
    sirup: &LinearSirup,
    cfg: &NonRedundantConfig,
    db: &Database,
) -> Result<CompiledScheme> {
    let n = cfg.h.processors();
    if cfg.h_prime.processors() != n {
        return Err(gst_common::Error::Discriminator(format!(
            "h and h' must map to the same processor set ({} vs {})",
            n,
            cfg.h_prime.processors()
        )));
    }
    validate_sequence(sirup.recursive_rule(), &cfg.v_r, "v(r)")?;
    validate_sequence(sirup.exit_rule(), &cfg.v_e, "v(e)")?;

    let interner = sirup.program.interner.clone();
    let namer = Namer::new(interner.clone());
    let t = rel_id(sirup.target);

    // Can h be evaluated on an outgoing tuple?
    let routed = can_route(&sirup.recursive_args, &cfg.v_r, cfg.h.locally_evaluable());

    let mut programs: Vec<ProcessorProgram> = Vec::with_capacity(n);
    for i in 0..n {
        let out_i = namer.out(t, i);
        let in_i = namer.input(t, i);
        // initialization  t_out^i(Z̄) :- s-body, h'(v(e)) = i;
        // processing      t_out^i(X̄) :- …, t_in^i(Ȳ), …, h(v(r)) = i.
        let condition = DiscConstraint::literal(cfg.v_r.clone(), cfg.h.clone(), i);
        let rules = vec![
            initialization_rule(sirup, out_i, &cfg.v_e, &cfg.h_prime, i),
            processing_rule(sirup, out_i, in_i, Some(condition)),
        ];

        // Sending: one route, conditioned on h when h can be evaluated
        // on an outgoing tuple, a broadcast otherwise.
        let key = routed.then_some((cfg.v_r.as_slice(), &cfg.h));
        let routes = vec![sending_route(&namer, t, i, n, &sirup.recursive_args, key)];

        programs.push(ProcessorProgram {
            processor: i,
            program: program(rules, &interner),
            pooling: vec![pooling_pair(&namer, &routes, t, i)],
            routes,
            inboxes: vec![in_i],
            processing_rules: vec![0, 1],
            local_idb: vec![],
        });
    }

    assemble(programs, db, cfg.base, vec![t], "non-redundant (§3 Q_i)")
}

#[cfg(test)]
mod tests {
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
