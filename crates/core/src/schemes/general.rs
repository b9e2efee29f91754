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
//! Where a row can be is answered once, by the [`Placement`] table the
//! loop builds from the policies; [`Placement::check`] refuses a policy
//! list that under-places a body atom before a tuple moves. Each consuming
//! occurrence becomes one [`gst_runtime::Route`] of `C_out^i` — a tuple of
//! a predicate consumed at several positions (Example 8's `anc(a,b)`, to
//! `h(b)` and to `h(a)`) ships once per occurrence's routing — keyed where
//! the table keys it. An occurrence that does not bind `v(r_k)`, or whose
//! `h_k` cannot be evaluated away from the data (Example 2's
//! [`FragmentOwner`]), broadcasts: "the extra communication does not make
//! the parallel execution either incorrect or redundant". A route lists
//! only the processors its function can name, so `h^i(x) = i`
//! ([`Constant`]) ships nothing. A predicate is pooled from `C_in^i` or
//! `C_out^i`, as the engine's storage rule [`gst_eval::route::home_inbox`]
//! says, in the kind [`Placement::shards`] says.
//!
//! The planner pushes `h(v(r_k)) = i` into the join, or omits it where
//! [`Placement::implied`] says the placement implies it (the literal stays
//! in the rule, marked, and a debug build asserts it). The paper's
//! `D_in^i :- D, h(v(r)) = i` fragments of the base relations fall out of
//! [`BaseDistribution::MinimalFragments`]. Over one processor the literal
//! is a tautology and is left out, so a one-processor plan runs no filter
//! and shares every base relation whole. A rule whose body binds no
//! variable takes the empty sequence: its one ground substitution fires
//! at the one processor `h(⟨⟩)` names.
//!
//! [`FragmentOwner`]: crate::discriminator::FragmentOwner
//! [`Constant`]: crate::discriminator::Constant

use std::sync::Arc;

use gst_common::{Error, Result};
use gst_eval::plan::RelationId;
use gst_eval::route::{home_inbox, Shards};
use gst_frontend::ast::{Atom, Literal};
use gst_frontend::{Program, ProgramAnalysis, Rule, Variable};
use gst_runtime::{ProcessorProgram, Route, WorkerSpec};
use gst_storage::Database;

use crate::discriminator::{DiscConstraint, DiscriminatorRef};
use crate::schemes::common::{atom, validate_sequence, worker_databases, BaseDistribution, Namer};
use crate::schemes::placement::Placement;
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

/// What the loop is told about one rule: its `v(r_k)`, its `h_k^i` per
/// processor, and whether it is conditioned on them. §3's `Q_i`, §6's
/// `R_i`, the communication-free scheme and §7's `T_i` differ in these and
/// nothing else.
#[derive(Clone)]
pub struct RulePolicy {
    /// `v(r_k)`.
    pub v: Vec<Variable>,
    /// `h_k^i`, one per processor: what processor `i` conditions the rule
    /// on and routes the tuples it consumes with.
    pub h: Vec<DiscriminatorRef>,
    /// Whether the processing rule carries `h_k^i(v(r_k)) = i`.
    pub conditioned: bool,
}

impl RulePolicy {
    /// The §3/§7 policy: conditioned, one `h` shared by its
    /// `h.processors()` processors.
    pub fn shared(v: Vec<Variable>, h: &DiscriminatorRef) -> Self {
        RulePolicy { v, h: vec![h.clone(); h.processors()], conditioned: true }
    }

    /// The §6 policy: unconditioned, processor `i` routing with `h[i]`.
    /// Every consuming occurrence must then bind `v` (`v(r) ⊆ Ȳ`).
    pub fn local(v: Vec<Variable>, h: Vec<DiscriminatorRef>) -> Self {
        RulePolicy { v, h, conditioned: false }
    }
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
    // §7's policies: one `h_k` shared by every processor.
    let policies: Vec<RulePolicy> = choices.iter().map(|c| RulePolicy::shared(c.v.clone(), &c.h)).collect();
    rewrite(source, &policies, db, base, "general scheme (§7 T_i)")
}

/// The loop: `policies[k]` governs `source.rules[k]`, and processor `i`
/// gets one processing rule per source rule, same order, and one route
/// per rule and distinct derived body occurrence. `kind` names the
/// scheme in reports.
pub fn rewrite(
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
    let placement = Placement::new(source, policies);
    placement.check()?;
    let implied: Vec<bool> = (0..policies.len()).map(|k| placement.implied(k).is_some()).collect();

    let mut programs = Vec::with_capacity(n);
    for i in 0..n {
        let (mut rules, mut routes) = (Vec::with_capacity(source.rules.len()), Vec::new());
        for (k, ((rule, policy), &implied)) in source.rules.iter().zip(policies).zip(&implied).enumerate() {
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
            // per processor `h` can name, where the table keys it; Example
            // 2's unconditioned broadcast to every processor otherwise.
            for (a, key) in placement.occurrences(k) {
                let out = namer.out(a.pred().into(), i);
                let inboxes = |to: Vec<usize>| to.into_iter().map(|j| (j, namer.input(a.pred().into(), j))).collect();
                routes.push(match key {
                    Some(_) => Route {
                        source: atom(out, a.terms.clone()),
                        key: Some(DiscConstraint::literal(policy.v.clone(), h.clone(), i)),
                        dests: inboxes(h.image()),
                        retract: false,
                    },
                    None => Route::broadcast(out, &interner, inboxes((0..n).collect())),
                });
            }
        }

        // Final pooling reads `t_in^i` where the inboxes are replicas of
        // `t` or hold the rows of a `t_out^i` that stores none; `t_out^i`
        // otherwise.
        let pooled = |&d: &RelationId| {
            let out = namer.out(d, i);
            let home = home_inbox(&routes, i, out);
            let shards = placement.shards(d, home.is_some());
            let local = if shards == Shards::Replica { namer.input(d, i) } else { home.unwrap_or(out) };
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
    let holds = derived.iter().map(|&d| (d, placement.holds(d).clone())).collect();

    let edbs = worker_databases(db, &programs, base)?;
    let workers = programs
        .into_iter()
        .zip(edbs)
        .map(|(program, edb)| WorkerSpec { program, edb, session: None })
        .collect();
    Ok(CompiledScheme { workers, answers: derived, holds, kind })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discriminator::{Constant, HashMod};
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

    /// A conditioned rule whose `h` differs per processor under-places its
    /// derived body atoms: producer `j` routes a row by its own `h^j`, and
    /// the substitution that needs it fires where `h^i` names. On linear
    /// and on non-linear ancestor over `random_digraph(40, 120, 3)` at
    /// W = 2 (`HashMod` seeds 7 and 8 on `v(r₁) = ⟨Z⟩`) such a policy,
    /// compiled, pools 421 of the 1 483 `anc` rows, and an exit rule on two
    /// swapped constants fires nowhere. Both are refused before a tuple
    /// moves, as is an unconditioned rule whose occurrence does not bind
    /// `v(r)`.
    #[test]
    fn a_policy_that_under_places_a_body_atom_is_refused() {
        let per_processor: Vec<DiscriminatorRef> = vec![Arc::new(HashMod::new(2, 7)), Arc::new(HashMod::new(2, 8))];
        let swapped: Vec<DiscriminatorRef> = vec![Arc::new(Constant::new(2, 1)), Arc::new(Constant::new(2, 0))];
        for fx in [linear_ancestor(), nonlinear_ancestor()] {
            let db = fx.database(&random_digraph(40, 120, 3));
            let policy = |v: &str, h: &[DiscriminatorRef], conditioned| RulePolicy { conditioned, ..RulePolicy::local(vec![fx.program.var(v)], h.to_vec()) };
            let compile = |exit, recursive| rewrite(&fx.program, &[exit, recursive], &db, BaseDistribution::Shared, "hand-built");
            let shared = || vec![per_processor[0].clone(); 2];
            let refused = |exit, recursive| match compile(exit, recursive) {
                Err(Error::Discriminator(why)) => why,
                other => panic!("{:?}: not refused", other.map(|s| s.kind)),
            };
            let why = refused(policy("X", &shared(), true), policy("Z", &per_processor, true));
            assert!(why.starts_with("rule r1 is conditioned on a different h_k^i"), "{why}");
            assert!(refused(policy("X", &swapped, true), policy("Z", &shared(), true)).starts_with("rule r0"));
            // Unconditioned, every occurrence must be keyed: anc(Z,Y) does
            // not bind ⟨X⟩.
            assert!(refused(policy("X", &shared(), true), policy("X", &per_processor, false)).contains("appear in Ȳ"));
            // One `h` shared by both processors places every row.
            compile(policy("X", &shared(), true), policy("Z", &shared(), true)).unwrap();
        }
    }

    /// Each worker's program printed, with every rule condition and route
    /// key by its wire bytes, which carry the function and its seed.
    fn printed(scheme: &CompiledScheme) -> Vec<String> {
        let worker = |w: &WorkerSpec| {
            let pp = &w.program;
            let conditions = pp.program.rules.iter().flat_map(|r| &r.body).filter_map(|l| match l {
                Literal::Constraint(c) => Some(c),
                Literal::Atom(_) => None,
            });
            let keys: Vec<_> = conditions.chain(pp.routes.iter().flat_map(|r| &r.key)).map(|c| c.wire_encode()).collect();
            let rules = gst_frontend::pretty::program(&pp.program);
            format!("{rules} {keys:?} {:?} {:?} {:?}", pp.routes, pp.inboxes, pp.pooling)
        };
        scheme.workers.iter().map(worker).collect()
    }

    /// One function built once per processor is one shared `h`: conditioned
    /// rules under `HashMod::new(2, 7)` built apart for every processor
    /// compile, byte for byte, to the worker programs of one shared `Arc`.
    #[test]
    fn an_equal_h_built_apart_is_the_shared_h() {
        for fx in [linear_ancestor(), nonlinear_ancestor()] {
            let db = fx.database(&random_digraph(40, 120, 3));
            let conditioned = |v: &str, h: Vec<DiscriminatorRef>| RulePolicy { conditioned: true, ..RulePolicy::local(vec![fx.program.var(v)], h) };
            let compile = |h: &dyn Fn() -> Vec<DiscriminatorRef>| {
                let policies = [conditioned("X", h()), conditioned("Z", h())];
                rewrite(&fx.program, &policies, &db, BaseDistribution::MinimalFragments, "hand-built").unwrap()
            };
            let shared: DiscriminatorRef = Arc::new(HashMod::new(2, 7));
            let apart = || (0..2).map(|_| Arc::new(HashMod::new(2, 7)) as DiscriminatorRef).collect();
            assert_eq!(printed(&compile(&apart)), printed(&compile(&|| vec![shared.clone(); 2])));
        }
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
