//! The route table: the paper's sending step, done where a tuple is
//! emitted instead of by copy rules.
//!
//! The §3 sending rule `t_ij(Ȳ) :- t_out^i(Ȳ), h(v(r)) = j` is a selection
//! on one hash value. A [`Route`] is that rule for every `j` at once: the
//! body atom `t_out^i(Ȳ)`, the condition `h(v(r)) = ·` and, per
//! destination `j`, the inbox `t_in^j` its head feeds. The engine
//! evaluates `h` on a row where a rule emits it and puts the row straight
//! into every sink the keys name — `t_in^i`'s pending pool here, the
//! [`Outlet`] of a remote `j` — so a row is stored once, by the inbox
//! that receives it, and that inbox's dedup is the only difference
//! operation it meets: no channel relation, no rule firing, no copy in
//! `t_out^i`. [`home_inbox`] says for which predicates this holds; the
//! rows of any other (a remote broadcast, selective routes) are
//! deduplicated into `t_out^i`, which is what such a predicate pools, and
//! routed when fresh.
//! Which routes a predicate gets and what its inboxes then hold are read
//! off the compiler's placement table (`gst_core::schemes::placement`); a
//! worker receives routes, not policies, so the storage rule is stated
//! here, on routes, and the compiler asks it rather than restating it.

use gst_common::value::gather;
use gst_common::{Error, FxHashMap, Interner, Result, Tuple, Word};
use gst_frontend::ast::{Atom, ConstraintRef, Term, Variable};

use crate::engine::find_or_push;
use crate::plan::RelationId;

/// One sending rule family `{ t_ij(Ȳ) :- t_out^i(Ȳ), h(v(r)) = j }_j`.
#[derive(Clone)]
pub struct Route {
    /// The body atom `t_out^i(Ȳ)`: the predicate whose rows are routed,
    /// and the pattern a row must match (constants and repeated
    /// variables select, as they would in the rule).
    pub source: Atom,
    /// The condition `h(v(r)) = ·`; every variable must occur in the
    /// pattern. `None` broadcasts: every row goes to every destination
    /// (Example 2 — `h` cannot be evaluated on the tuple).
    pub key: Option<ConstraintRef>,
    /// `(j, t_in^j)` for every processor the route reaches, `i` included.
    pub dests: Vec<(usize, RelationId)>,
    /// The rows are retractions (the `~del` twins of a DRed phase).
    pub retract: bool,
}

impl Route {
    /// Every fresh row of `source` to every `(processor, inbox)` in
    /// `dests`: the unconditioned sending rules of Example 2.
    pub fn broadcast(source: RelationId, interner: &Interner, dests: Vec<(usize, RelationId)>) -> Self {
        let fresh = |k| Term::Var(Variable(interner.intern(&format!("W@{k}"))));
        Route {
            source: Atom::new(source.0, (0..source.1).map(fresh).collect()),
            key: None,
            dests,
            retract: false,
        }
    }

    /// The routed predicate.
    pub fn source_id(&self) -> RelationId {
        (self.source.predicate, self.source.terms.len())
    }
}

impl std::fmt::Debug for Route {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (source, keyed) = (&self.source, self.key.is_some());
        write!(f, "Route {{ {source:?}, keyed: {keyed}, to {:?}, retract: {} }}", self.dests, self.retract)
    }
}

/// How the shards of one answer predicate — the relation each processor
/// pools for it — relate, and so what final pooling has to do with them.
/// The compiler declares it from its placement table
/// (`gst_core::schemes::placement`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shards {
    /// Every row is in exactly one shard: the arenas are appended.
    Partition,
    /// Every shard is the whole predicate: one is moved, the rest dropped.
    Replica,
    /// Shards may share rows: they are unioned through the dedup table.
    Overlap,
}

/// The storage rule, the one place it is stated: where the rows of
/// `source` that hash home are stored at `processor`.
///
/// `Some(t_in^i)` when a row all of whose destinations are `processor`
/// itself is put straight into that inbox and never into `source` — nor
/// is any other row, which goes straight to its destinations: `source`
/// stays empty and the inboxes are what is pooled. That needs (1) no
/// broadcast route of `source` reaching another processor — every row of
/// a remote broadcast is shipped, so none is home — and (2) a route that
/// selects every row (a pattern of distinct variables) and lists an inbox
/// here, so that the inboxes of that route, over all processors, hold the
/// whole predicate. `None` — a predicate no route consumes, or one only
/// selective routes or a remote broadcast do — keeps every row in `source`.
pub fn home_inbox(routes: &[Route], processor: usize, source: RelationId) -> Option<RelationId> {
    let mut of_source = routes.iter().filter(|r| r.source_id() == source);
    let reaches_out = |r: &Route| r.key.is_none() && r.dests.iter().any(|&(j, _)| j != processor);
    if of_source.clone().any(reaches_out) {
        return None;
    }
    let selects_all = |r: &&Route| {
        let terms = &r.source.terms;
        terms.iter().enumerate().all(|(p, t)| t.as_var().is_some() && !terms[..p].contains(t))
    };
    let inbox = |r: &Route| r.dests.iter().find(|&&(j, _)| j == processor).map(|&(_, inbox)| inbox);
    of_source.find(selects_all).and_then(inbox)
}

/// Rows routed to other processors since the last shipment, addressed to
/// every `(processor, inbox)` in `dests`. A broadcast has one outlet with
/// all its destinations, so its rows are buffered — and encoded — once.
#[derive(Debug)]
pub struct Outlet {
    /// `(j, t_in^j)` pairs the rows are addressed to, `j` remote.
    pub dests: Vec<(usize, RelationId)>,
    /// The rows are retractions.
    pub retract: bool,
    /// The routed rows: a home source's in the order its rules emitted
    /// them, one per firing, any other's in the order its arena admitted
    /// them.
    pub rows: Vec<Tuple>,
}

/// Where a routed row is put.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Sink {
    /// The pending pool of a local inbox: its slot among the engine's
    /// inbox-phase states.
    Local(usize),
    /// An index into the engine's outlets.
    Remote(usize),
}

/// The routes out of one source predicate.
pub(crate) struct Router {
    /// Slot of the source predicate (a head-phase state).
    pub(crate) source: usize,
    /// [`home_inbox`] holds: rows go where they are emitted, never into
    /// the source.
    pub(crate) home: bool,
    /// … and every row is one, whatever its keys: each route ends in this
    /// one local inbox (a lone processor), so no key need be evaluated.
    pub(crate) always: Option<usize>,
    /// Where every fresh row goes: the source's broadcast routes, merged
    /// — local inboxes, and one outlet for all remote destinations.
    pub(crate) all: Vec<Sink>,
    pub(crate) keyed: Vec<KeyedRoute>,
}

impl Router {
    /// The source's one route, when that is a hash route: a row then has
    /// at most one sink, [`KeyedRoute::sink`], and no list of them need be
    /// built (every §3 preset routes a predicate so).
    #[inline]
    pub(crate) fn lone(&self) -> Option<&KeyedRoute> {
        match (&self.all[..], &self.keyed[..]) {
            ([], [keyed]) => Some(keyed),
            _ => None,
        }
    }

    /// The distinct sinks of `row`, into `hit`: the source's broadcast
    /// sinks, then each hash route's — a sink once, however many routes
    /// pick it (Example 8: two occurrences hash a row to one processor).
    #[inline]
    pub(crate) fn sinks(&self, row: &Tuple, hit: &mut Vec<Sink>) -> Result<()> {
        hit.clear();
        hit.extend_from_slice(&self.all);
        for keyed in &self.keyed {
            if let Some(sink) = keyed.sink(row)? {
                if !hit.contains(&sink) {
                    hit.push(sink);
                }
            }
        }
        Ok(())
    }
}

/// A selection a row must pass, from a constant (as [`Value::word`]
/// gives it) or a repeated variable in the route's pattern.
#[derive(Debug, Clone, Copy)]
enum Test {
    Const(usize, Word),
    Same(usize, usize),
}

/// A hash route, compiled against the engine's slots.
pub(crate) struct KeyedRoute {
    tests: Vec<Test>,
    /// Row columns holding `v(r)`, in the key's variable order.
    columns: Vec<usize>,
    key: ConstraintRef,
    /// Indexed by destination processor; `None` where the route lists no
    /// inbox. A destination the source's broadcast already reaches holds
    /// the broadcast's sink, so the row is not delivered twice.
    table: Vec<Option<Sink>>,
}

impl KeyedRoute {
    /// Where `row` goes: `None` when the pattern does not select it. The
    /// selections and the key read the row's words; no `Value` is built.
    #[inline]
    pub(crate) fn sink(&self, row: &Tuple) -> Result<Option<Sink>> {
        let selected = self.tests.iter().all(|t| match *t {
            Test::Const(p, word) => row.word(p) == word,
            Test::Same(p, q) => row.word(p) == row.word(q),
        });
        if !selected {
            return Ok(None);
        }
        let columns = &self.columns;
        let dest = gather(columns.len(), |k| row.word(columns[k]), |key| self.key.partition(key)).ok_or_else(|| {
            Error::Eval("route key is not a partitioning constraint `h(v) = k`".into())
        })?;
        match self.table.get(dest) {
            Some(&Some(sink)) => Ok(Some(sink)),
            _ => Err(Error::Eval(format!(
                "route hashed a tuple to processor {dest}, which it lists no inbox for"
            ))),
        }
    }
}

/// Compile the route table of processor `processor` against the engine's
/// slots (`inboxes_from` is where the inbox-phase states start): one
/// [`Router`] per source predicate, its broadcast routes merged into one
/// shared outlet, each hash route given a destination-indexed sink table.
pub(crate) fn compile(
    routes: &[Route],
    processor: usize,
    slots: &FxHashMap<RelationId, usize>,
    inboxes_from: usize,
) -> Result<(Vec<Router>, Vec<Outlet>)> {
    let mut routers: Vec<Router> = Vec::new();
    let mut outlets: Vec<Outlet> = Vec::new();
    let outlet = |dests| Outlet { dests, retract: false, rows: Vec::new() };
    // Broadcasts first, so a hash route finds the destinations its
    // source's broadcast already reaches.
    let (broadcasts, keyed): (Vec<&Route>, Vec<&Route>) =
        routes.iter().partition(|r| r.key.is_none());
    for route in broadcasts.into_iter().chain(keyed) {
        let id = route.source_id();
        let terms = &route.source.terms;
        let bad = |what: &str| Error::Eval(format!("route of {id:?}: {what}"));
        let source = match slots.get(&id) {
            Some(&slot) if slot < inboxes_from => slot,
            Some(_) => return Err(bad("the source is a local inbox of another route")),
            None => return Err(bad("the source is not a derived predicate")),
        };
        let home = home_inbox(routes, processor, id).is_some();
        let fresh = || Router { source, home, always: None, all: Vec::new(), keyed: Vec::new() };
        let k = find_or_push(&mut routers, |r| r.source == source, fresh);
        // The outlet this source's broadcast routes share, if any yet.
        let mut shared = routers[k].all.iter().find_map(|s| match *s {
            Sink::Remote(o) => Some(o),
            Sink::Local(_) => None,
        });
        let mut table = Vec::new();
        for &(dest, inbox) in &route.dests {
            if inbox.1 != id.1 {
                return Err(bad("an inbox's arity differs from the source's"));
            }
            let reached = |o: &Outlet| o.dests.contains(&(dest, inbox));
            let sink = if dest == processor {
                let slot = slots.get(&inbox).and_then(|slot| slot.checked_sub(inboxes_from));
                Sink::Local(slot.ok_or_else(|| bad("the local inbox is not a derived predicate"))?)
            } else if route.key.is_none() {
                let o = *shared.get_or_insert_with(|| {
                    outlets.push(outlet(Vec::new()));
                    outlets.len() - 1
                });
                if !reached(&outlets[o]) {
                    outlets[o].dests.push((dest, inbox));
                }
                Sink::Remote(o)
            } else {
                let own = |o: &Outlet| o.dests == [(dest, inbox)];
                Sink::Remote(shared.filter(|&o| reached(&outlets[o])).unwrap_or_else(|| {
                    find_or_push(&mut outlets, own, || outlet(vec![(dest, inbox)]))
                }))
            };
            if let Sink::Remote(o) = sink {
                outlets[o].retract |= route.retract;
            }
            if table.len() <= dest {
                table.resize(dest + 1, None);
            }
            table[dest] = Some(sink);
        }
        let Some(key) = &route.key else {
            if terms.iter().enumerate().any(|(p, t)| t.as_var().is_none() || terms[..p].contains(t)) {
                return Err(bad("a broadcast route must not select"));
            }
            for sink in table.into_iter().flatten() {
                if !routers[k].all.contains(&sink) {
                    routers[k].all.push(sink);
                }
            }
            continue;
        };
        let mut tests = Vec::new();
        for (p, term) in terms.iter().enumerate() {
            match term {
                Term::Const(v) => tests.push(Test::Const(p, v.word())),
                Term::Var(_) => {
                    if let Some(q) = terms[..p].iter().position(|t| t == term) {
                        tests.push(Test::Same(p, q));
                    }
                }
            }
        }
        let column = |v: &Variable| {
            terms
                .iter()
                .position(|t| t.as_var() == Some(*v))
                .ok_or_else(|| bad("a key variable does not occur in the routed tuple"))
        };
        let columns = key.variables().iter().map(column).collect::<Result<Vec<usize>>>()?;
        routers[k].keyed.push(KeyedRoute { tests, columns, key: key.clone(), table });
    }
    for router in routers.iter_mut().filter(|r| r.home) {
        let mut sinks = router.all.iter().chain(router.keyed.iter().flat_map(|k| k.table.iter().flatten()));
        if let Some(&Sink::Local(slot)) = sinks.next() {
            router.always = sinks.all(|sink| *sink == Sink::Local(slot)).then_some(slot);
        }
    }
    Ok((routers, outlets))
}
