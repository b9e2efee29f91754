//! Compile-time choice of discriminating sequences.
//!
//! §7 lets every rule `r_k` take any sequence `v(r_k)` of its body
//! variables and leaves the choice to the compiler (§5 closes with "can be
//! performed at compile time", §8 says the same of the whole scheme); the
//! rewrite's broadcast fallback keeps *any* choice correct, so the choice
//! is free to minimise traffic. This module makes it, for any program, and
//! ranks it by what happens to the rows one rule produces on their way to
//! one consuming occurrence of their predicate: one [`Pair`] per
//! sending-rule family of the rewrite, its [`Flow`] read off the placement
//! table the rewrite loop itself builds
//! ([`crate::schemes::placement`]), so prediction and compiled routes
//! cannot drift.
//!
//! Its functions assume what `rewrite_general` is given by its callers:
//! every rule conditioned, one function `h` shared by all rules.

use std::cmp::Reverse;
use std::sync::Arc;

use gst_frontend::ast::Atom;
use gst_frontend::{Program, Variable};

use crate::discriminator::{DiscriminatorRef, HashMod};
use crate::schemes::general::RulePolicy;
use crate::schemes::placement::{carries, key_columns, links, Placement};

/// Where the rows of a producing rule go to reach a consuming occurrence,
/// cheapest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Flow {
    /// The producer's head carries its own `v(r_p)` in the columns the
    /// consumer keys on: the processor that fires the rule is the one the
    /// route names, and the row never leaves it (Theorem 3's dataflow
    /// self-cycle, stated for any program).
    Home,
    /// Routed point-to-point by `h(v(r_c))`: ≈ (N−1)/N of the rows ship.
    Keyed,
    /// The occurrence does not bind `v(r_c)`: every row goes everywhere.
    Broadcast,
}

/// One (producing rule → consuming occurrence) pair and its predicted flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pair<'a> {
    /// Index of the rule whose head is the occurrence's predicate.
    pub producer: usize,
    /// Index of the rule whose body holds the occurrence.
    pub consumer: usize,
    /// The occurrence: a derived body atom of the consumer.
    pub atom: &'a Atom,
    /// What the rewrite's route for the occurrence does with the rows.
    pub flow: Flow,
}

/// The placement table `rewrite_general` builds when `program.rules[k]`
/// discriminates on `v[k]`, all rules under one shared `h`.
pub fn placement<'a>(program: &'a Program, v: &[Vec<Variable>]) -> Placement<'a> {
    let h: DiscriminatorRef = Arc::new(HashMod::new(1, 0));
    Placement::new(program, &v.iter().map(|v| RulePolicy::shared(v.clone(), &h)).collect::<Vec<_>>())
}

/// The predicted flow of every pair under that table.
pub fn predict<'a>(program: &'a Program, v: &[Vec<Variable>]) -> Vec<Pair<'a>> {
    placement(program, v).pairs()
}

/// Choose `v(r_k)` for every rule of `program`: what `--scheme general`
/// runs. Candidates are the single variables a rule's body atoms bind
/// (`⟨⟩` when they bind none); the choice minimises broadcast pairs, then
/// pairs that are not home, body order breaking ties. A pure function of
/// the program text — no data, no processor count, no hash seed.
///
/// Broadcasts depend on the consumer's variable alone, so each rule first
/// keeps the candidates that broadcast least. What is left couples rules
/// (a pair is home only if producer and consumer agree on a column), and
/// is settled by sweeps of best responses: a rule takes the candidate with
/// the fewest non-home pairs among those it is an end of, counting a pair
/// with a still undecided rule as home if any candidate of that rule would
/// make it so. Rules that consume more pairs go first — a consumer's key
/// column is what its producers answer to. After the first sweep every
/// change lowers the total, so the sweeps end; the work is polynomial in
/// rules × variables × pairs.
pub fn choose_sequences(program: &Program) -> Vec<Vec<Variable>> {
    let rules = &program.rules;
    let links = links(program);
    let candidates: Vec<Vec<Vec<Variable>>> = (0..rules.len())
        .map(|k| {
            let mut vars: Vec<Variable> = Vec::new();
            for v in rules[k].body_atoms().flat_map(Atom::variables) {
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
            let mut all: Vec<Vec<Variable>> = vars.into_iter().map(|v| vec![v]).collect();
            if all.is_empty() {
                all.push(Vec::new());
            }
            let broadcasts = |v: &Vec<Variable>| {
                links.iter().filter(|&&(_, c, a)| c == k && key_columns(&a.terms, v).is_none()).count()
            };
            let least = all.iter().map(broadcasts).min();
            all.retain(|v| Some(broadcasts(v)) == least);
            all
        })
        .collect();

    let mut pick: Vec<Option<usize>> = vec![None; rules.len()];
    // Non-home pairs with an end at `k`, undecided rules at their best.
    let away = |pick: &[Option<usize>], k: usize| {
        let open = |r: usize| match pick[r] {
            Some(i) => &candidates[r][i..=i],
            None => &candidates[r][..],
        };
        let home = |&&(p, c, a): &&(usize, usize, &Atom)| {
            let carried = |v_p: &Vec<Variable>, v_c| key_columns(&a.terms, v_c).is_some_and(|q| carries(&rules[p].head, v_p, &q));
            open(p).iter().any(|v_p| open(c).iter().any(|v_c| carried(v_p, v_c)))
        };
        links.iter().filter(|l| l.0 == k || l.1 == k).filter(|l| !home(l)).count()
    };
    let mut order: Vec<usize> = (0..rules.len()).collect();
    order.sort_by_key(|&k| Reverse(links.iter().filter(|l| l.1 == k).count()));
    loop {
        let mut changed = false;
        for &k in &order {
            let held = pick[k];
            let mut best = (usize::MAX, 0);
            for i in 0..candidates[k].len() {
                pick[k] = Some(i);
                let cost = away(&pick, k);
                // The held pick wins a tie: a later sweep moves only downhill.
                if cost < best.0 || (cost == best.0 && held == Some(i)) {
                    best = (cost, i);
                }
            }
            pick[k] = Some(best.1);
            changed |= held != pick[k];
        }
        if !changed {
            break;
        }
    }
    pick.iter().zip(candidates).map(|(i, mut c)| c.swap_remove(i.expect("every rule was swept"))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::zero_comm_choice;
    use gst_frontend::{parse_program, LinearSirup};

    fn program(src: &str) -> Program {
        parse_program(src).unwrap().program
    }

    /// The choice, one string of variable names per rule.
    fn chosen(p: &Program) -> Vec<String> {
        let name = |v: &Variable| v.name(&p.interner);
        choose_sequences(p).iter().map(|v| v.iter().map(name).collect()).collect()
    }

    fn flows(p: &Program) -> Vec<Flow> {
        predict(p, &choose_sequences(p)).iter().map(|pair| pair.flow).collect()
    }

    #[test]
    fn ancestor_takes_theorem3s_communication_free_choice() {
        let p = program("anc(X,Y) :- par(X,Y).\nanc(X,Y) :- par(X,Z), anc(Z,Y).");
        assert_eq!(chosen(&p), ["Y", "Y"], "Example 1's choice");
        assert_eq!(flows(&p), [Flow::Home, Flow::Home]);
        // … which is the dataflow graph's self-cycle, by another road.
        let theorem3 = zero_comm_choice(&LinearSirup::from_program(&p).unwrap()).unwrap();
        assert_eq!(choose_sequences(&p), [theorem3.v_e, theorem3.v_r]);
    }

    #[test]
    fn same_generation_is_keyed_on_the_recursive_atom() {
        let p = program("sg(X,Y) :- flat(X,Y).\nsg(X,Y) :- up(X,U), sg(U,V), down(V,Y).");
        assert_eq!(chosen(&p), ["X", "U"]);
        assert_eq!(flows(&p), [Flow::Home, Flow::Keyed]);
        // The first body variable — what the CLI used to take — broadcasts.
        let first = predict(&p, &[vec![p.var("X")], vec![p.var("X")]]);
        assert!(first.iter().all(|pair| pair.flow == Flow::Broadcast));
    }

    #[test]
    fn example8_keys_both_occurrences_on_z() {
        let p = program("anc(X,Y) :- par(X,Y).\nanc(X,Y) :- anc(X,Z), anc(Z,Y).");
        assert_eq!(chosen(&p), ["X", "Z"], "Z is the only variable both anc atoms bind");
        let pairs = predict(&p, &choose_sequences(&p));
        assert_eq!(pairs.len(), 4, "two producers × two occurrences");
        assert!(pairs.iter().all(|pair| pair.flow != Flow::Broadcast));
        // r0's rows are home for anc(Z,Y), which keys on the column X fills.
        let home: Vec<_> = pairs.iter().filter(|pair| pair.flow == Flow::Home).collect();
        assert_eq!(home.len(), 1);
        assert_eq!((home[0].producer, home[0].atom), (0, p.rules[1].body_atoms().nth(1).unwrap()));
    }

    #[test]
    fn an_acyclic_dataflow_graph_keeps_the_recursion_keyed() {
        let p = program("p(U,V,W) :- s(U,V,W).\np(U,V,W) :- p(V,W,Z), q(U,Z).");
        assert_eq!(chosen(&p), ["U", "V"], "the exit rule answers the column r1 reads V at");
        assert_eq!(flows(&p), [Flow::Home, Flow::Keyed], "no column of p feeds itself: Theorem 3 cannot apply");
    }

    #[test]
    fn constants_repeats_and_ground_bodies() {
        // The constant column cannot key; Z can.
        let p = program("t(X,Y) :- s(X,Y).\nt(X,Y) :- t(0,Z), e(Z,X,Y).");
        assert_eq!(chosen(&p), ["Y", "Z"]);
        assert_eq!(flows(&p), [Flow::Home, Flow::Keyed]);
        // A repeated variable keys on its first column.
        let p = program("t(X,Y) :- s(X,Y).\nu(X) :- t(X,X).");
        assert_eq!(chosen(&p), ["X", "X"]);
        assert_eq!(flows(&p), [Flow::Home]);
        // A ground body takes ⟨⟩; its one row is keyed to wherever X hashes.
        let p = program("t(1,2) :- s(3).\nu(X) :- t(X,Y).");
        assert_eq!(chosen(&p), ["", "X"]);
        assert_eq!(flows(&p), [Flow::Keyed]);
    }

    #[test]
    fn a_first_variable_that_is_already_optimal_is_kept() {
        let p = program("even(X) :- zero(X).\neven(Y) :- succ(X,Y), odd(X).\nodd(Y) :- succ(X,Y), even(X).");
        assert_eq!(chosen(&p), ["X", "X", "X"]);
        assert_eq!(flows(&p), [Flow::Keyed, Flow::Home, Flow::Keyed]);
    }
}
