//! The §6 generalized scheme `R_i`: per-processor discriminating
//! functions, exposing the redundancy ↔ communication trade-off.
//!
//! Processor `i` executes
//!
//! ```text
//! initialization:  t_out^i(Z̄) :- s(Z̄), h'(v(e)) = i
//! processing:      t_out^i(X̄) :- t_in^i(Ȳ), b₁, …, b_k        (no condition!)
//! sending (∀j):    t_ij(Ȳ)    :- t_out^i(Ȳ), h_i(v(r)) = j
//! receiving (∀j):  t_in^i(W̄)  :- t_ji(W̄)
//! final pooling:   t(W̄)       :- t_out^i(W̄)
//! ```
//!
//! "The major distinction ... is that the discriminating functions `h_i`
//! used by the processors may be different from one another": routing is
//! a *local decision*. The paper's two degenerate points:
//!
//! * `h_i(x) = i` for all `i` ([`Constant`]) — nothing is ever sent; the
//!   execution *is* the communication-free scheme of [Wolfson 88];
//! * `h_i = h` for all `i` — every tuple is processed at one unique site;
//!   the execution is the non-redundant scheme of §3.
//!
//! [`Mixed`] interpolates: keep each tuple local with probability `α`,
//! else route by the shared hash. Sweeping `α` traces the paper's
//! spectrum (experiment S1).
//!
//! §6 requires every variable of `v(r)` to appear in `Ȳ` — enforced here —
//! which also guarantees `h_i` can always be evaluated on an outgoing
//! tuple (no broadcast fallback exists in this scheme). As in §3, the
//! sending rules are the specification; processor `i` runs them as one
//! [`gst_runtime::Route`] keyed on its own `h_i`, keeps a tuple with
//! `h_i = i` in `t_in^i` alone, and pools `t_in^i`. No send is gated on an
//! inbox — `t_out^i` alone decides what `i` ships — so differing `h_i`
//! stay correct.
//!
//! [`Constant`]: crate::discriminator::Constant
//! [`Mixed`]: crate::discriminator::Mixed

use gst_common::{Error, Result};
use gst_frontend::ast::Term;
use gst_frontend::{LinearSirup, Variable};
use gst_runtime::ProcessorProgram;
use gst_storage::Database;

use crate::discriminator::DiscriminatorRef;
use crate::schemes::common::{
    assemble, initialization_rule, pooling_pair, processing_rule, program, rel_id, sending_route,
    validate_sequence, BaseDistribution, Namer,
};
use crate::schemes::CompiledScheme;

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

/// Rewrite `sirup` into the generalized trade-off scheme.
///
/// Base relations are shared: the processing rule is unconditioned, so a
/// processor may fire any instance its inputs reach.
pub fn rewrite_generalized(
    sirup: &LinearSirup,
    cfg: &GeneralizedConfig,
    db: &Database,
) -> Result<CompiledScheme> {
    let n = cfg.h_locals.len();
    if n == 0 {
        return Err(Error::Discriminator("need at least one processor".into()));
    }
    if cfg.h_prime.processors() != n
        || cfg.h_locals.iter().any(|h| h.processors() != n)
    {
        return Err(Error::Discriminator(
            "h' and every h_i must map onto the same processor set".into(),
        ));
    }
    validate_sequence(sirup.exit_rule(), &cfg.v_e, "v(e)")?;
    validate_sequence(sirup.recursive_rule(), &cfg.v_r, "v(r)")?;
    // §6's restriction: v(r) ⊆ Ȳ.
    for v in &cfg.v_r {
        let in_y = sirup
            .recursive_args
            .iter()
            .any(|t| matches!(t, Term::Var(tv) if tv == v));
        if !in_y {
            return Err(Error::Discriminator(
                "§6 requires every variable in v(r) to appear in Ȳ \
                 (the body t-atom)"
                    .into(),
            ));
        }
    }

    let interner = sirup.program.interner.clone();
    let namer = Namer::new(interner.clone());
    let t = rel_id(sirup.target);

    let mut programs = Vec::with_capacity(n);
    for i in 0..n {
        let out_i = namer.out(t, i);
        let in_i = namer.input(t, i);
        let h_i = &cfg.h_locals[i];
        // Initialization as in §3; the processing rule is unconditioned.
        let rules = vec![
            initialization_rule(sirup, out_i, &cfg.v_e, &cfg.h_prime, i),
            processing_rule(sirup, out_i, in_i, None),
        ];

        // Sending with the processor's own h_i.
        let key = Some((cfg.v_r.as_slice(), h_i));
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

    assemble(programs, db, BaseDistribution::Shared, vec![t], "generalized trade-off (§6 R_i)")
}

#[cfg(test)]
mod tests {
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
