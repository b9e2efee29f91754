//! Demand-driven point-query scheme: the §7 general scheme `T_i` applied
//! to a magic-sets rewrite under demand-aware partitioning.
//!
//! The front end ([`gst_frontend::magic`]) turns `?- anc("ann", Y).` into
//! an ordinary program of magic and adorned rules plus one seed fact;
//! [`compile_demand`] loads the seed under its auxiliary base predicate,
//! partitions every generated rule on its *demand key* (the magic
//! guard's bound columns) with one shared hash ([`demand_choices`]), and
//! hands the result to the loop ([`general::rewrite`]) — so semi-naive evaluation,
//! every transport, crash recovery, update sessions and profiling run the
//! demand-bounded fixpoint unchanged.
//!
//! Base relations are distributed as
//! [`BaseDistribution::MinimalFragments`]: a base atom whose join column
//! carries the demand key is fragmented by the same hash that routes the
//! demand tuples, co-locating demand with data.
//!
//! A rewrite whose only demand tuple is the seed is compiled for one
//! processor ([`one_demand_key`]): every firing would land on `h(seed)`,
//! so the other processors could only wait.

use std::sync::Arc;

use gst_common::Result;
use gst_frontend::magic::{MagicRewrite, MagicRuleKind};
use gst_storage::Database;

use crate::discriminator::{DiscriminatorRef, HashMod};
use crate::schemes::common::{first_body_variable, validate_sequence, BaseDistribution};
use crate::schemes::general::{self, RuleChoice, RulePolicy};
use crate::schemes::CompiledScheme;

/// Hash seed shared by every rule of a demand-partitioned magic program.
///
/// One seed across all rules is what makes the strategy *co-locating*:
/// `h(c)` computes the same worker whether `c` arrives as a magic
/// (demand) tuple, as the bound column of an adorned answer, or as the
/// join column of a base fragment.
pub const DEMAND_HASH_SEED: u64 = 0xD17;

/// Demand-aware partitioning for a magic-sets rewrite: one
/// [`RuleChoice`] per generated rule, discriminating on the rule's
/// *demand key* — the variables of its magic guard, i.e. the bound
/// columns of the demanded predicate — under a single shared
/// [`HashMod`].
///
/// Why a magic program gets its own choice and not the program-text
/// chooser `--scheme general` runs ([`crate::advisor::choose_sequences`]):
/// the demand key is known from the adornment, not guessed from the
/// rules. Every magic atom's argument pattern *is* its guard key, so
/// magic (demand) tuples always route point-to-point to `h(key)` — they
/// never broadcast — and [`BaseDistribution::MinimalFragments`] places
/// the base fragments whose join column carries the same key on the same
/// worker. Demand lands where the data lives. An adorned answer
/// occurrence whose pattern does not contain the demand key (e.g. the
/// recursive atom of the *left*-linear ancestor rule) falls back to
/// replication — the loop's broadcast path — which ships only
/// the demand-bounded answer set, not the full closure.
///
/// Rules whose guard binds no variable (an all-free sub-adornment, or a
/// constant-bound head) fall back to the first body-atom variable, and to
/// the empty sequence when the body is ground. The choice reads no data:
/// there is no key census, and a hot key is hashed like any other
/// (EXPERIMENTS.md P24).
pub fn demand_choices(
    rewrite: &MagicRewrite,
    workers: usize,
    seed: u64,
) -> Result<Vec<RuleChoice>> {
    let h: DiscriminatorRef = Arc::new(HashMod::new(workers, seed));
    rewrite
        .program
        .rules
        .iter()
        .zip(&rewrite.rules)
        .enumerate()
        .map(|(k, (rule, info))| {
            let v = if info.guard.is_empty() { first_body_variable(rule) } else { info.guard.clone() };
            validate_sequence(rule, &v, &format!("demand v(r{k})"))?;
            Ok(RuleChoice { v, h: h.clone() })
        })
        .collect()
}

/// Whether every firing of `rewrite`'s demand plan lands on one processor,
/// whatever the processor count: the rewrite has no magic rule, so the
/// seed is the one demand tuple, and every rule's guard is the whole
/// demand tuple in distinct variables, so `v(r)` binds exactly the seed's
/// values, in order. Then `h(v(r)) = h(seed)` for every ground
/// substitution of every rule (DESIGN.md §15).
fn one_demand_key(rewrite: &MagicRewrite) -> bool {
    let key = rewrite.seed_fact.arity();
    rewrite.rules.iter().all(|r| r.kind != MagicRuleKind::Magic && r.guard.len() == key)
}

/// Compile a magic-sets rewrite into a demand-partitioned parallel
/// scheme over at most `workers` processors: over one when
/// [`one_demand_key`] holds, over `workers` otherwise.
///
/// The returned scheme's answer relations are the rewrite's derived
/// predicates; filter [`MagicRewrite::answer`]'s relation through
/// [`MagicRewrite::answer_matches`] to obtain exactly the query's
/// answers (the adorned relation also holds answers for transitively
/// demanded bindings).
pub fn compile_demand(
    rewrite: &MagicRewrite,
    db: &Database,
    workers: usize,
) -> Result<CompiledScheme> {
    let mut seeded = db.clone();
    seeded.insert(
        (rewrite.seed_predicate.name, rewrite.seed_predicate.arity),
        rewrite.seed_fact.clone(),
    )?;
    let n = if one_demand_key(rewrite) { 1 } else { workers };
    let policies: Vec<RulePolicy> = demand_choices(rewrite, n, DEMAND_HASH_SEED)?
        .into_iter()
        .map(|c| RulePolicy::shared(c.v, &c.h))
        .collect();
    let base = BaseDistribution::MinimalFragments;
    general::rewrite(&rewrite.program, &policies, &seeded, base, "demand-driven magic (§7 T_i, demand-keyed)")
}

#[cfg(test)]
mod tests {
    use super::*;
    use gst_common::{Value, Tuple};
    use gst_eval::seminaive_eval;
    use gst_frontend::magic::magic_rewrite;
    use gst_frontend::{Atom, Term, Variable};
    use gst_storage::Relation;
    use gst_workloads::{
        chain, linear_ancestor, random_digraph, right_linear_ancestor, zipf_digraph, Fixture,
    };

    /// Bound-first point query `anc(c, Y)` against a fixture.
    fn point_query(fx: &Fixture, c: i64) -> Atom {
        let anc = fx.output_id().0;
        let y = Variable(fx.program.interner.intern("QY"));
        Atom::new(anc, vec![Term::Const(Value::Int(c)), Term::Var(y)])
    }

    /// The full closure filtered to the query, via sequential evaluation
    /// of the *original* program.
    fn oracle(fx: &Fixture, db: &Database, rw: &MagicRewrite) -> Relation {
        let seq = seminaive_eval(&fx.program, db).unwrap();
        let mut out = Relation::new(fx.output_id().1);
        for t in seq.relation(fx.output_id()).iter() {
            if rw.answer_matches(t) {
                out.insert(t.clone()).unwrap();
            }
        }
        out
    }

    fn answers(outcome: &gst_runtime::ExecutionOutcome, rw: &MagicRewrite) -> Relation {
        let rel = outcome.relation((rw.answer.name, rw.answer.arity));
        let mut out = Relation::new(rw.answer.arity);
        for t in rel.iter() {
            if rw.answer_matches(t) {
                out.insert(t.clone()).unwrap();
            }
        }
        out
    }

    #[test]
    fn left_linear_point_query_matches_filtered_closure() {
        let fx = linear_ancestor();
        let db = fx.database(&chain(24));
        let rw = magic_rewrite(&fx.program, &point_query(&fx, 5)).unwrap();
        let scheme = compile_demand(&rw, &db, 3).unwrap();
        let outcome = scheme.run().unwrap();
        assert!(answers(&outcome, &rw).set_eq(&oracle(&fx, &db, &rw)));
    }

    #[test]
    fn right_linear_demand_stays_at_the_seed() {
        // Right-linear recursion keeps the demand set = {c}: the adorned
        // relation holds answers for the queried constant only.
        let fx = right_linear_ancestor();
        let db = fx.database(&random_digraph(40, 90, 7));
        let rw = magic_rewrite(&fx.program, &point_query(&fx, 0)).unwrap();
        let scheme = compile_demand(&rw, &db, 4).unwrap();
        let outcome = scheme.run().unwrap();
        let adorned = outcome.relation((rw.answer.name, rw.answer.arity));
        assert!(adorned.iter().all(|t| t.get(0) == Value::Int(0)));
        assert!(answers(&outcome, &rw).set_eq(&oracle(&fx, &db, &rw)));
    }

    #[test]
    fn magic_tuples_route_instead_of_broadcasting() {
        // Every magic atom's pattern contains its rule's demand key, so
        // demand never broadcasts. With right-linear recursion *nothing*
        // broadcasts: all traffic is keyed on h(c), and a single-source
        // query touches a single worker's partition — communication stays
        // a small constant, independent of the closure size.
        let fx = right_linear_ancestor();
        let db = fx.database(&chain(64));
        let rw = magic_rewrite(&fx.program, &point_query(&fx, 0)).unwrap();
        let scheme = compile_demand(&rw, &db, 4).unwrap();
        let outcome = scheme.run().unwrap();
        let sent = outcome.stats.total_tuples_sent();
        assert!(
            sent <= 4,
            "expected near-zero shipping for a co-located point query, sent {sent}"
        );
        assert!(answers(&outcome, &rw).set_eq(&oracle(&fx, &db, &rw)));
    }

    #[test]
    fn demand_run_beats_full_closure_on_firings_and_bytes() {
        // The acceptance bound: ≤10% of the firings and ≤25% of the bytes
        // of a full-closure parallel run, random and zipf EDBs, N=4.
        for (data, c) in [
            (random_digraph(120, 360, 42), 0),
            (zipf_digraph(300, 240, 30, 42), 7),
        ] {
            let fx = right_linear_ancestor();
            let db = fx.database(&data);
            let rw = magic_rewrite(&fx.program, &point_query(&fx, c)).unwrap();
            let scheme = compile_demand(&rw, &db, 4).unwrap();
            let outcome = scheme.run().unwrap();
            assert!(answers(&outcome, &rw).set_eq(&oracle(&fx, &db, &rw)));

            let sirup = gst_frontend::LinearSirup::from_program(&fx.program).unwrap();
            let full = crate::schemes::presets::example3_hash_partition(&sirup, 4, &db)
                .unwrap()
                .run()
                .unwrap();
            let (mf, ff) = (outcome.stats.total_firings(), full.stats.total_firings());
            let (mb, fb) = (outcome.stats.total_bytes_sent(), full.stats.total_bytes_sent());
            assert!(mf * 10 <= ff, "firings {mf} vs full {ff}");
            assert!(mb * 4 <= fb, "bytes {mb} vs full {fb}");
        }
    }

    #[test]
    fn ground_query_runs_with_fully_bound_adornment() {
        let fx = linear_ancestor();
        let db = fx.database(&chain(10));
        let anc = fx.output_id().0;
        let goal = Atom::new(
            anc,
            vec![Term::Const(Value::Int(2)), Term::Const(Value::Int(7))],
        );
        let rw = magic_rewrite(&fx.program, &goal).unwrap();
        let scheme = compile_demand(&rw, &db, 3).unwrap();
        let outcome = scheme.run().unwrap();
        let got = answers(&outcome, &rw);
        assert_eq!(got.len(), 1);
        assert_eq!(got.iter().next().unwrap(), &Tuple::new(&[Value::Int(2), Value::Int(7)]));
    }

    #[test]
    fn a_guard_binding_part_of_the_seed_keeps_every_processor() {
        // Under `p(5, 1)` the first rule's guard is `m_p_bb(X, 1)`: its
        // `v(r) = ⟨X⟩` hashes part of the seed, the seed rule's `⟨B0, B1⟩`
        // all of it, so two processors may fire. Under `p(5, Y)` every
        // guard is `m_p_bf(X)`, the whole seed.
        let unit = gst_frontend::parse_program("p(X,1) :- e(X).\np(X,Y) :- f(X,Y).\ne(5). f(5,2).").unwrap();
        let mut db = Database::new(unit.program.interner.clone());
        db.load_facts(unit.facts).unwrap();
        let p = unit.program.interner.get("p").unwrap();
        let y = Term::Var(Variable(unit.program.interner.intern("Y")));
        for (second, one_key) in [(Term::Const(Value::Int(1)), false), (y, true)] {
            let rw = magic_rewrite(&unit.program, &Atom::new(p, vec![Term::Const(Value::Int(5)), second])).unwrap();
            assert_eq!(one_demand_key(&rw), one_key);
            let scheme = compile_demand(&rw, &db, 3).unwrap();
            assert_eq!(scheme.processors(), if one_key { 1 } else { 3 });
            assert!(!answers(&scheme.run().unwrap(), &rw).is_empty());
        }
    }
}
