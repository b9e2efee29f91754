//! The one rewrite loop. §7's scheme `T_i` parallelizes **any** Datalog
//! program — non-linear rules, multiple recursive rules, mutual recursion
//! — and §3's `Q_i`, §6's `R_i` and the communication-free scheme are the
//! same loop under other `RulePolicy`s (the presets table in
//! [`crate::schemes`]).
//!
//! Every rule `r_k : A :- B, …, C` gets its own discriminating sequence
//! `v(r_k)` and, per processor `i`, a function `h_k^i`. Processor `i`
//! executes, per rule,
//!
//! ```text
//! processing:       A_out^i :- B_in^i, …, C_in^i [, h_k^i(v(r_k)) = i]
//! sending (∀ derived C in r_k, ∀j):  C_ij :- C_out^i, h_k^i(v(r_k)) = j
//! receiving (∀ derived t, ∀j):       t_in^i(W̄) :- t_ji(W̄)
//! final pooling (∀ derived t):       t(W̄) :- t_out^i(W̄)
//! ```
//!
//! §3 and §7 condition every processing rule and share one `h_k` between
//! the processors, which is what makes them non-redundant (Theorems 2
//! and 6). §6 drops the recursive rule's condition and lets `h_k^i` differ
//! per processor — routing becomes a local decision, at the price of
//! redundant firings — and then requires every consuming occurrence to
//! bind `v(r_k)` (`v(r) ⊆ Ȳ`): with no condition to fall back on, a tuple
//! must be routable from the tuple alone.
//!
//! A tuple of a predicate consumed by several rules (or at several
//! positions of one rule, as in Example 8's non-linear ancestor) is
//! shipped once per *consuming occurrence's* routing — e.g. `anc(a,b)`
//! goes both to `h(b)` (to join as `anc(X,Z)`) and to `h(a)` (to join as
//! `anc(Z,Y)`), matching the paper's two sending rules for Example 8.
//!
//! The sending rules are the specification: each consuming occurrence
//! becomes one [`gst_runtime::Route`] of `C_out^i`, and the engine hashes
//! a tuple under every route of its predicate where it is emitted — a
//! tuple two occurrences send to the same processor goes there once, and
//! one every occurrence keeps at `i` is stored in `C_in^i` alone. An
//! occurrence of a conditioned rule whose `v(r_k)` the atom does not
//! bind, or whose `h_k` cannot be evaluated away from the data (Example
//! 2's [`FragmentOwner`]), broadcasts — "the extra communication does not
//! make the parallel execution either incorrect or redundant". A route
//! lists only the processors its function can name, so `h^i(x) = i`
//! ([`Constant`]) ships nothing and needs no network. A predicate is
//! pooled from `C_in^i` or `C_out^i`, and its shards appended, moved or
//! unioned, as [`gst_eval::route::pooled_shard`] says.
//!
//! The planner pushes `h(v(r_k)) = i` into the join, or omits it where the
//! placement implies it: where every row the rule reads through some atom
//! reached its inbox by a route keyed on that same condition
//! ([`implied_by`]; the literal stays in the rule, marked, and a debug
//! build asserts it). The paper's `D_in^i :- D, h(v(r)) = i` fragments of
//! the base relations fall out of [`BaseDistribution::MinimalFragments`].
//! Over one processor the literal is a tautology and is left out, so a
//! one-processor plan runs no filter and shares every base relation
//! whole. A rule whose body
//! binds no variable takes the empty sequence: its one ground
//! substitution fires at the one processor `h(⟨⟩)` names.
//!
//! [`FragmentOwner`]: crate::discriminator::FragmentOwner
//! [`Constant`]: crate::discriminator::Constant

use std::sync::Arc;

use gst_common::{Error, Result};
use gst_eval::plan::RelationId;
use gst_eval::route::pooled_shard;
use gst_frontend::ast::{Atom, Literal, Term};
use gst_frontend::{Program, ProgramAnalysis, Rule, Variable};
use gst_runtime::{ProcessorProgram, Route, WorkerSpec};
use gst_storage::Database;

use crate::discriminator::{DiscConstraint, DiscriminatorRef};
use crate::schemes::common::{
    atom, can_route, consuming_occurrences, validate_sequence, worker_databases, BaseDistribution,
    Namer,
};
use crate::schemes::CompiledScheme;

/// Discriminating choice for one rule.
#[derive(Clone)]
pub struct RuleChoice {
    /// `v(r_k)`: variables of the rule.
    pub v: Vec<Variable>,
    /// `h_k`: the rule's discriminating function.
    pub h: DiscriminatorRef,
}

impl RuleChoice {
    /// One choice per rule of `program`, rule `k` discriminating on its
    /// variable named `vars[k]`, all under `h` — the shape of the paper's
    /// Example 8 (`v(r₁) = ⟨Y⟩`, `v(r₂) = ⟨Z⟩`, `h₁ = h₂ = h`).
    pub fn by_name(program: &Program, vars: &[&str], h: &DiscriminatorRef) -> Vec<RuleChoice> {
        let choice = |v: &&str| RuleChoice { v: vec![Variable(program.interner.intern(v))], h: h.clone() };
        vars.iter().map(choice).collect()
    }
}

/// What the loop is told about one rule: a [`RuleChoice`] plus the two
/// things §6 adds to it.
pub(crate) struct RulePolicy {
    /// `v(r_k)`.
    pub v: Vec<Variable>,
    /// `h_k^i`, one per processor: what processor `i` conditions the rule
    /// on and routes the tuples it consumes with.
    pub h: Vec<DiscriminatorRef>,
    /// Whether the processing rule carries `h_k^i(v(r_k)) = i`.
    pub conditioned: bool,
}

impl RulePolicy {
    /// The §3/§7 policy: conditioned, one `h` shared by `n` processors.
    pub fn shared(v: Vec<Variable>, h: &DiscriminatorRef, n: usize) -> Self {
        RulePolicy { v, h: vec![h.clone(); n], conditioned: true }
    }
}

/// One `h` per rule, shared by all processors: every route table then
/// routes as every other does.
fn uniform(policies: &[RulePolicy]) -> bool {
    policies.iter().all(|p| p.h.iter().all(|h| Arc::ptr_eq(h, &p.h[0])))
}

/// The policies `rewrite_general` runs `choices` under: §7's, one `h_k`
/// shared by every processor.
fn shared_policies(choices: &[RuleChoice]) -> Vec<RulePolicy> {
    let n = choices.first().map_or(0, |c| c.h.processors());
    choices.iter().map(|c| RulePolicy::shared(c.v.clone(), &c.h, n)).collect()
}

/// Rewrite an arbitrary Datalog program into the §7 parallel scheme.
///
/// `choices[k]` is the discriminating choice for `source.rules[k]`; all
/// functions must share one processor count. Facts for derived predicates
/// are not supported (provide them via an auxiliary base predicate).
pub fn rewrite_general(
    source: &Program,
    choices: &[RuleChoice],
    db: &Database,
    base: BaseDistribution,
) -> Result<CompiledScheme> {
    rewrite(source, &shared_policies(choices), db, base, "general scheme (§7 T_i)")
}

/// [`implied_by`] of every rule, as [`rewrite_general`] compiles `choices`.
pub fn implied_conditions<'a>(source: &'a Program, choices: &[RuleChoice]) -> Vec<Option<(&'a Atom, Vec<usize>)>> {
    let policies = shared_policies(choices);
    (0..source.rules.len().min(policies.len())).map(|k| implied_by(source, &policies, k)).collect()
}

/// Whether the data placement implies rule `k`'s condition `h_k(v(r_k)) =
/// i` at every processor `i` — the rewrite then marks the literal
/// [`Constraint::implied`] — and if so the body atom `a` that implies it,
/// with the columns `c` of `a` holding `v(r_k)`, in order. It does when
/// rule `k` is conditioned, one `h` per rule is shared by every processor,
/// and some derived body atom `a` binds `v(r_k)` such that every route
/// into `a`'s inboxes — one per consuming occurrence of `a`'s predicate,
/// in any rule — is keyed (none broadcasts), by the very function `h_k`
/// (`Arc::ptr_eq`), on the columns `c`. A route puts a row in `t_in^i`
/// only when its key names `i`, so every row of `t_in^i` has `h_k` of its
/// columns `c` equal to `i`, and so has every substitution that reads it.
///
/// [`Constraint::implied`]: gst_frontend::Constraint::implied
pub(crate) fn implied_by<'a>(source: &'a Program, policies: &[RulePolicy], k: usize) -> Option<(&'a Atom, Vec<usize>)> {
    let policy = &policies[k];
    if !policy.conditioned || !uniform(policies) {
        return None;
    }
    // Where a route keyed on `v` reads it in `terms`: each variable's first
    // column (`gst_eval::route::compile`).
    let columns = |terms: &[Term], v: &[Variable]| -> Option<Vec<usize>> {
        v.iter().map(|x| terms.iter().position(|t| t.as_var() == Some(*x))).collect()
    };
    let keyed_alike = |a: &Atom, c: &[usize]| {
        source.rules.iter().zip(policies).all(|(rule, p)| {
            let same_key = |b: &&Atom| {
                can_route(&b.terms, &p.v, p.h[0].locally_evaluable())
                    && Arc::ptr_eq(&p.h[0], &policy.h[0])
                    && columns(&b.terms, &p.v).as_deref() == Some(c)
            };
            consuming_occurrences(source, rule).iter().filter(|b| b.pred() == a.pred()).all(same_key)
        })
    };
    consuming_occurrences(source, &source.rules[k]).into_iter().find_map(|atom| {
        let c = columns(&atom.terms, &policy.v)?;
        keyed_alike(atom, &c).then_some((atom, c))
    })
}

/// The loop: `policies[k]` governs `source.rules[k]`, and processor `i`
/// gets one processing rule per source rule, same order, and one route
/// per rule and distinct derived body occurrence.
pub(crate) fn rewrite(
    source: &Program,
    policies: &[RulePolicy],
    db: &Database,
    base: BaseDistribution,
    kind: &'static str,
) -> Result<CompiledScheme> {
    if policies.len() != source.rules.len() {
        return Err(Error::Discriminator(format!(
            "need one discriminating choice per rule: {} rules, {} choices",
            source.rules.len(),
            policies.len()
        )));
    }
    if source.rules.is_empty() {
        return Err(Error::Shape(
            "the program has no rules: nothing is derived, so there is nothing to distribute \
             and no discriminating function to take a processor count from (evaluate it \
             sequentially)"
                .into(),
        ));
    }
    ProgramAnalysis::new(source)?;
    let n = policies.first().map_or(0, |p| p.h.len());
    if n == 0 || policies.iter().any(|p| p.h.len() != n || p.h.iter().any(|h| h.processors() != n)) {
        return Err(Error::Discriminator(
            "all rules' discriminating functions must share one non-empty processor set".into(),
        ));
    }
    for (k, (rule, policy)) in source.rules.iter().zip(policies).enumerate() {
        // An unconditioned rule's `v(r_k)` only keys its routes, which check it.
        if policy.conditioned {
            validate_sequence(rule, &policy.v, &format!("v(r{k})"))?;
        }
    }

    let interner = source.interner.clone();
    let namer = Namer::new(interner.clone());
    let derived: Vec<RelationId> = source.derived_predicates().into_iter().map(Into::into).collect();
    for d in &derived {
        if db.relation(*d).is_some_and(|r| !r.is_empty()) {
            return Err(Error::Shape(format!(
                "input facts for derived predicate {} are not supported by the parallel \
                 schemes; load them under a base predicate",
                interner.resolve(d.0)
            )));
        }
    }
    let is_derived = |a: &Atom| derived.contains(&a.pred().into());
    // Under one shared `h`, one route table speaks for how a predicate's
    // shards relate.
    let uniform = uniform(policies);
    let implied: Vec<bool> = (0..policies.len()).map(|k| implied_by(source, policies, k).is_some()).collect();

    let mut programs = Vec::with_capacity(n);
    for i in 0..n {
        let (mut rules, mut routes) = (Vec::with_capacity(source.rules.len()), Vec::new());
        for ((rule, policy), &implied) in source.rules.iter().zip(policies).zip(&implied) {
            let h = &policy.h[i];
            // Processing: the rule over `t_in^i`, writing `t_out^i`.
            let mut body: Vec<Literal> = Vec::with_capacity(rule.body.len() + 1);
            for literal in &rule.body {
                body.push(match literal {
                    Literal::Atom(a) if is_derived(a) => {
                        Literal::Atom(atom(namer.input(a.pred().into(), i), a.terms.clone()))
                    }
                    other => other.clone(),
                });
            }
            // Over one processor `h(v(r_k)) = 0` holds for every
            // substitution: no filter to run, no base fragment to cut.
            if policy.conditioned && n > 1 {
                let condition = DiscConstraint { vars: policy.v.clone(), disc: h.clone(), expect: i, implied };
                body.push(Literal::Constraint(Arc::new(condition)));
            }
            let head = namer.out(rule.head.pred().into(), i);
            rules.push(Rule::new(atom(head, rule.head.terms.clone()), body));

            // Sending: one route per distinct derived occurrence `C(Ȳ)` —
            // the family `C_ij(Ȳ) :- C_out^i(Ȳ), h(v(r_k)) = j`, one member
            // per processor `h` can name, when the tuple binds `v(r_k)` and
            // `h` can be evaluated on it; Example 2's unconditioned
            // broadcast to every processor otherwise.
            for a in consuming_occurrences(source, rule) {
                let out = namer.out(a.pred().into(), i);
                let inboxes = |to: Vec<usize>| to.into_iter().map(|j| (j, namer.input(a.pred().into(), j))).collect();
                let everyone = || (0..n).collect();
                routes.push(if can_route(&a.terms, &policy.v, h.locally_evaluable()) {
                    Route {
                        source: atom(out, a.terms.clone()),
                        key: Some(DiscConstraint::literal(policy.v.clone(), h.clone(), i)),
                        dests: inboxes(h.image()),
                        retract: false,
                    }
                } else if policy.conditioned {
                    Route::broadcast(out, &interner, inboxes(everyone()))
                } else {
                    return Err(Error::Discriminator(
                        "§6 requires every variable in v(r) to appear in Ȳ (the body t-atom): \
                         an unconditioned rule has no broadcast to fall back on"
                            .into(),
                    ));
                });
            }
        }

        // Final pooling reads `t_in^i` where the inboxes partition or
        // replicate `t`, or hold the rows of a `t_out^i` that stores none;
        // `t_out^i` otherwise.
        let pooled = |&d: &RelationId| {
            let (local, shards) = pooled_shard(&routes, i, n, namer.out(d, i), uniform);
            (local, d, shards)
        };
        programs.push(ProcessorProgram {
            processor: i,
            program: Program::new(rules, interner.clone()),
            pooling: derived.iter().map(pooled).collect(),
            inboxes: derived.iter().map(|&d| namer.input(d, i)).collect(),
            routes,
            processing_rules: (0..source.rules.len()).collect(),
            local_idb: vec![],
        });
    }

    let edbs = worker_databases(db, &programs, base)?;
    let workers = programs
        .into_iter()
        .zip(edbs)
        .map(|(program, edb)| WorkerSpec { program, edb, session: None })
        .collect();
    Ok(CompiledScheme { workers, answers: derived, kind })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discriminator::HashMod;
    use gst_common::ituple;
    use gst_eval::seminaive_eval;
    use gst_workloads::{
        chain, even_odd, grid, linear_ancestor, nonlinear_ancestor, random_digraph,
    };

    /// Paper Example 8: v(r₁) = ⟨Y⟩, v(r₂) = ⟨Z⟩, h₁ = h₂ = h.
    fn example8_choices(p: &Program, n: usize) -> Vec<RuleChoice> {
        let h: DiscriminatorRef = Arc::new(HashMod::new(n, 13));
        RuleChoice::by_name(p, &["Y", "Z"], &h)
    }

    #[test]
    fn example8_nonlinear_ancestor_is_correct() {
        let fx = nonlinear_ancestor();
        let db = fx.database(&random_digraph(20, 40, 6));
        let scheme = rewrite_general(
            &fx.program,
            &example8_choices(&fx.program, 4),
            &db,
            BaseDistribution::Shared,
        )
        .unwrap();
        let outcome = scheme.run().unwrap();
        let seq = seminaive_eval(&fx.program, &db).unwrap();
        let anc = fx.output_id();
        assert!(outcome.relation(anc).set_eq(&seq.relation(anc)));
    }

    #[test]
    fn example8_is_theorem6_non_redundant() {
        let fx = nonlinear_ancestor();
        let db = fx.database(&grid(5, 5));
        let seq = seminaive_eval(&fx.program, &db).unwrap();
        let scheme = rewrite_general(
            &fx.program,
            &example8_choices(&fx.program, 4),
            &db,
            BaseDistribution::Shared,
        )
        .unwrap();
        let outcome = scheme.run().unwrap();
        assert!(
            outcome.stats.total_processing_firings() <= seq.stats.firings,
            "Theorem 6: parallel {} ≤ sequential {}",
            outcome.stats.total_processing_firings(),
            seq.stats.firings
        );
    }

    #[test]
    fn linear_ancestor_through_general_scheme() {
        // §7 subsumes §3: running the linear program through T_i.
        let fx = linear_ancestor();
        let db = fx.database(&chain(15));
        let h: DiscriminatorRef = Arc::new(HashMod::new(3, 19));
        let choices = RuleChoice::by_name(&fx.program, &["Y", "Z"], &h);
        let scheme =
            rewrite_general(&fx.program, &choices, &db, BaseDistribution::Shared).unwrap();
        let outcome = scheme.run().unwrap();
        let seq = seminaive_eval(&fx.program, &db).unwrap();
        let anc = fx.output_id();
        assert!(outcome.relation(anc).set_eq(&seq.relation(anc)));
        assert_eq!(outcome.relation(anc).len(), 120);
    }

    #[test]
    fn mutual_recursion_even_odd() {
        let fx = even_odd();
        let succ: gst_storage::Relation =
            (0..12i64).map(|k| ituple![k, k + 1]).collect();
        let zero: gst_storage::Relation = [ituple![0]].into_iter().collect();
        let db = fx.database_multi(&[zero, succ]);
        let h: DiscriminatorRef = Arc::new(HashMod::new(3, 29));
        let choices = RuleChoice::by_name(&fx.program, &["X", "Y", "Y"], &h);
        let scheme =
            rewrite_general(&fx.program, &choices, &db, BaseDistribution::Shared).unwrap();
        let outcome = scheme.run().unwrap();
        let seq = seminaive_eval(&fx.program, &db).unwrap();
        let even = fx.output_id();
        let odd = (fx.program.interner.get("odd").unwrap(), 1);
        assert!(outcome.relation(even).set_eq(&seq.relation(even)));
        assert!(outcome.relation(odd).set_eq(&seq.relation(odd)));
        assert_eq!(outcome.relation(even).len(), 7); // 0,2,…,12
    }

    #[test]
    fn minimal_fragments_distribution_works() {
        let fx = nonlinear_ancestor();
        let db = fx.database(&chain(12));
        let scheme = rewrite_general(
            &fx.program,
            &example8_choices(&fx.program, 3),
            &db,
            BaseDistribution::MinimalFragments,
        )
        .unwrap();
        let outcome = scheme.run().unwrap();
        let seq = seminaive_eval(&fx.program, &db).unwrap();
        let anc = fx.output_id();
        assert!(outcome.relation(anc).set_eq(&seq.relation(anc)));
    }

    #[test]
    fn rejects_wrong_choice_count() {
        let fx = nonlinear_ancestor();
        let db = fx.database(&chain(3));
        let err = rewrite_general(&fx.program, &[], &db, BaseDistribution::Shared).unwrap_err();
        assert!(err.to_string().contains("one discriminating choice per rule"));
    }

    #[test]
    fn rejects_facts_for_derived_predicates() {
        let fx = nonlinear_ancestor();
        let mut db = fx.database(&chain(3));
        db.insert(fx.output_id(), ituple![9, 9]).unwrap();
        let err = rewrite_general(
            &fx.program,
            &example8_choices(&fx.program, 2),
            &db,
            BaseDistribution::Shared,
        )
        .unwrap_err();
        assert!(err.to_string().contains("derived predicate"));
    }

    #[test]
    fn rejects_mixed_processor_counts() {
        let fx = nonlinear_ancestor();
        let db = fx.database(&chain(3));
        let choices = vec![
            RuleChoice {
                v: vec![fx.program.var("Y")],
                h: Arc::new(HashMod::new(2, 1)),
            },
            RuleChoice {
                v: vec![fx.program.var("Z")],
                h: Arc::new(HashMod::new(3, 1)),
            },
        ];
        assert!(rewrite_general(&fx.program, &choices, &db, BaseDistribution::Shared).is_err());
    }
}
