//! Where a row can be, worked out once per rewrite from the rule policies.
//!
//! The correctness argument of §3 and §7 is one fact: a substitution with
//! `h_k(v(r_k)) = i` finds all of its body facts at processor `i`. The
//! rewrite makes it so with one route per consuming occurrence, and
//! [`Placement`] records each route's key — `h_k` and the columns holding
//! `v(r_k)` ([`key_columns`]), or none: a broadcast — and what the routes
//! leave in every inbox `t_in^i` ([`Holds`]). Two `h` are the same when
//! they are one function ([`same_function`]), however often it was built.
//! The loop's keyed-or-broadcast choice, the parallel-correctness check
//! ([`Placement::check`]), the implied conditions, every answer's
//! [`Shards`] kind and the chooser's [`Flow`]s are reads of it.
//! Where a worker *stores* a row is the engine's rule on the routes it
//! receives, [`gst_eval::route::home_inbox`].

use gst_common::{Error, Result};
use gst_eval::plan::RelationId;
use gst_eval::route::Shards;
use gst_frontend::ast::{Atom, Term};
use gst_frontend::{pretty, Predicate, Program, Rule, Variable};

use crate::advisor::{Flow, Pair};
use crate::discriminator::{same_function, DiscriminatorRef};
use crate::schemes::common::consuming_occurrences;
use crate::schemes::general::RulePolicy;

/// The columns of `terms` a route keyed on `v` reads, each variable at its
/// first column; `None` unless `terms` binds all of `v`.
pub fn key_columns(terms: &[Term], v: &[Variable]) -> Option<Vec<usize>> {
    v.iter().map(|x| terms.iter().position(|t| t.as_var() == Some(*x))).collect()
}

/// Whether a rule with `head`, fired where `h(v) = i`, holds `v` in
/// `columns`: a route keyed there by the same `h` keeps its rows home.
pub fn carries(head: &Atom, v: &[Variable], columns: &[usize]) -> bool {
    v.len() == columns.len() && columns.iter().zip(v).all(|(&q, x)| head.terms[q] == Term::Var(*x))
}

/// Every (producer, consumer, occurrence) the rewrite builds sending rules
/// for, consumer-major, in rule and body order.
pub(crate) fn links(program: &Program) -> Vec<(usize, usize, &Atom)> {
    let mut links = Vec::new();
    for (c, rule) in program.rules.iter().enumerate() {
        for atom in consuming_occurrences(program, rule) {
            let producers = program.rules.iter().enumerate().filter(|(_, r)| r.head.pred() == atom.pred());
            links.extend(producers.map(|(p, _)| (p, c, atom)));
        }
    }
    links
}

/// What every processor's inbox `t_in^i` of one derived predicate holds.
#[derive(Debug, Clone)]
pub enum Holds {
    /// Only rows with `h(row[columns]) = i`: every route into the inboxes
    /// is keyed there by this one `h`, shared by every processor.
    Keyed(DiscriminatorRef, Vec<usize>),
    /// All of the predicate: a route broadcasts it.
    Whole,
    /// Rows no one key names.
    Subset,
}

/// One rule's row of the table: its policy, and its consuming occurrences
/// in body order with their routes' key columns (`None` broadcasts).
struct Placed<'a> {
    head: &'a Atom,
    v: Vec<Variable>,
    conditioned: bool,
    /// `h_k`, when every processor shares one.
    shared: Option<DiscriminatorRef>,
    occurrences: Vec<(&'a Atom, Option<Vec<usize>>)>,
}

/// The placement table (module docs).
pub struct Placement<'a> {
    program: &'a Program,
    rules: Vec<Placed<'a>>,
    /// Per derived predicate: what its inboxes hold, and how many routes
    /// feed them.
    holds: Vec<(RelationId, Holds, usize)>,
}

impl<'a> Placement<'a> {
    /// The table of `program` under `policies`, one per rule.
    pub(crate) fn new(program: &'a Program, policies: &[RulePolicy]) -> Self {
        let placed = |(rule, p): (&'a Rule, &RulePolicy)| {
            let evaluable = p.h.iter().all(|h| h.locally_evaluable());
            let key = |a: &'a Atom| (a, key_columns(&a.terms, &p.v).filter(|_| evaluable));
            let shared = p.h.iter().all(|h| same_function(h, &p.h[0])).then(|| p.h[0].clone());
            let occurrences = consuming_occurrences(program, rule).into_iter().map(key).collect();
            Placed { head: &rule.head, v: p.v.clone(), conditioned: p.conditioned, shared, occurrences }
        };
        let rules: Vec<Placed> = program.rules.iter().zip(policies).map(placed).collect();
        let holds = |d: Predicate| {
            let mut keys = Vec::new();
            for r in &rules {
                keys.extend(r.occurrences.iter().filter(|o| o.0.pred() == d).map(|o| (r.shared.as_ref(), o.1.as_ref())));
            }
            let keyed_by = |h, c| keys.iter().all(|&(g, k)| g.is_some_and(|g| same_function(g, h)) && k == Some(c));
            let holds = match keys.first() {
                _ if keys.iter().any(|k| k.1.is_none()) => Holds::Whole,
                Some(&(Some(h), Some(c))) if keyed_by(h, c) => Holds::Keyed(h.clone(), c.clone()),
                _ => Holds::Subset,
            };
            (d.into(), holds, keys.len())
        };
        let holds = program.derived_predicates().into_iter().map(holds).collect();
        Placement { program, rules, holds }
    }

    /// Rule `k`'s consuming occurrences with their routes' key columns.
    pub fn occurrences(&self, k: usize) -> &[(&'a Atom, Option<Vec<usize>>)] {
        &self.rules[k].occurrences
    }

    /// What every inbox of the derived predicate `pred` holds.
    pub fn holds(&self, pred: RelationId) -> &Holds {
        self.holds.iter().find(|h| h.0 == pred).map_or(&Holds::Subset, |h| &h.1)
    }

    /// The parallel-correctness check: every substitution is fired at a
    /// processor that holds its derived body facts. A conditioned rule
    /// fires `θ` at `i` where `h_k^i(θ(v(r_k))) = i`, so it needs one `h_k`
    /// that every processor shares: with `h_k^i` differing, `θ` may fire
    /// nowhere, or miss a row that a producer `j` routed by its own
    /// `h_k^j`. Its occurrences then broadcast or are keyed by that `h_k`.
    /// An unconditioned rule fires where its rows arrive, so each of its
    /// occurrences must be keyed.
    pub fn check(&self) -> Result<()> {
        for (k, rule) in self.rules.iter().enumerate() {
            let why = match rule.occurrences.iter().find(|o| o.1.is_none()) {
                _ if rule.conditioned && rule.shared.is_none() => "is conditioned on a different h_k^i at each \
                    processor, so a substitution may fire at no processor, or miss a row that another \
                    processor's h_k^j stored elsewhere: share one h_k"
                    .to_string(),
                Some((atom, _)) if !rule.conditioned => format!(
                    "under-places its body atom {}: §6 requires every variable in v(r) to appear in Ȳ \
                     (the body t-atom): an unconditioned rule has no broadcast to fall back on",
                    pretty::atom(atom, &self.program.interner)
                ),
                _ => continue,
            };
            return Err(Error::Discriminator(format!("rule r{k} {why}")));
        }
        Ok(())
    }

    /// The body atom, and its columns holding `v(r_k)`, that implies rule
    /// `k`'s condition `h_k(v(r_k)) = i` at every processor `i` (the
    /// rewrite marks the literal [`Constraint::implied`]), if any: the rule
    /// is conditioned and the atom's inboxes are [`Holds::Keyed`]. The
    /// atom's own route is one of theirs, so the key is `h_k` on its
    /// columns of `v(r_k)`, and equals `i` on every row read there.
    ///
    /// [`Constraint::implied`]: gst_frontend::Constraint::implied
    pub fn implied(&self, k: usize) -> Option<(&'a Atom, &[usize])> {
        let keyed = |&(atom, _): &(&'a Atom, _)| match self.holds(atom.pred().into()) {
            Holds::Keyed(_, columns) => Some((atom, &columns[..])),
            _ => None,
        };
        self.rules[k].conditioned.then(|| self.rules[k].occurrences.iter().find_map(keyed)).flatten()
    }

    /// How the shards of the answer `pred` relate, each processor pooling
    /// its inbox where `home` (the engine's storage rule) keeps the rows
    /// there, the rows it derived otherwise: Whole inboxes are replicas;
    /// Keyed ones fed by one route, whose `h` names every processor, a
    /// partition. A second route may copy a row to a second inbox, and an
    /// `h` naming one processor leaves the others pooling what they shipped.
    pub fn shards(&self, pred: RelationId, home: bool) -> Shards {
        match self.holds.iter().find(|h| h.0 == pred) {
            Some((_, Holds::Whole, _)) => Shards::Replica,
            Some((_, Holds::Keyed(h, _), 1)) if home && h.image().len() == h.processors() => Shards::Partition,
            _ => Shards::Overlap,
        }
    }

    /// Every `links` pair with its flow: home when the producer is
    /// conditioned on the `h` the occurrence's route is keyed by and
    /// [`carries`] its key in the route's columns.
    pub fn pairs(&self) -> Vec<Pair<'a>> {
        let pair = |(producer, consumer, atom): (usize, usize, &'a Atom)| {
            let (p, c) = (&self.rules[producer], &self.rules[consumer]);
            let same_h = p.conditioned && p.shared.as_ref().zip(c.shared.as_ref()).is_some_and(|(a, b)| same_function(a, b));
            let flow = match &c.occurrences.iter().find(|o| o.0 == atom).expect("an occurrence of its consumer").1 {
                None => Flow::Broadcast,
                Some(columns) if same_h && carries(p.head, &p.v, columns) => Flow::Home,
                Some(_) => Flow::Keyed,
            };
            Pair { producer, consumer, atom, flow }
        };
        links(self.program).into_iter().map(pair).collect()
    }
}
