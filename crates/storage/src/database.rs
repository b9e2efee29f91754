//! The database catalog: a named collection of relations.

use std::sync::Arc;

use gst_common::{Error, FxHashMap, Interner, Result, Tuple};

use crate::relation::Relation;

/// Identifies a relation: an interned name plus arity.
///
/// This mirrors `gst_frontend::Predicate` without depending on the AST
/// crate; the two convert through `(SymbolId, usize)`.
pub type RelationId = (gst_common::SymbolId, usize);

/// A catalog of named relations sharing one interner.
///
/// A relation is held behind an `Arc` and copied on write: cloning a
/// database, or sharing one of its relations with another
/// ([`Database::share_from`]), copies no tuple until one side mutates it.
#[derive(Debug, Clone)]
pub struct Database {
    interner: Interner,
    relations: FxHashMap<RelationId, Arc<Relation>>,
}

impl Database {
    /// Create an empty database over `interner`.
    pub fn new(interner: Interner) -> Self {
        Database {
            interner,
            relations: FxHashMap::default(),
        }
    }

    /// The interner naming this database's symbols.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Get (creating if needed) the relation for `id`.
    pub fn relation_mut(&mut self, id: RelationId) -> &mut Relation {
        Arc::make_mut(self.relations.entry(id).or_insert_with(|| Arc::new(Relation::new(id.1))))
    }

    /// Get the relation for `id`, if it exists.
    pub fn relation(&self, id: RelationId) -> Option<&Relation> {
        self.relations.get(&id).map(Arc::as_ref)
    }

    /// Look up by name string; `None` if the name or relation is unknown.
    pub fn relation_by_name(&self, name: &str, arity: usize) -> Option<&Relation> {
        self.relation((self.interner.get(name)?, arity))
    }

    /// Hold `other`'s relation `id` as this database's, copying no tuple
    /// (nothing happens if `other` has none).
    pub fn share_from(&mut self, other: &Database, id: RelationId) {
        if let Some(relation) = other.relations.get(&id) {
            self.relations.insert(id, Arc::clone(relation));
        }
    }

    /// Insert one fact.
    pub fn insert(&mut self, id: RelationId, tuple: Tuple) -> Result<bool> {
        if tuple.arity() != id.1 {
            return Err(Error::Storage(format!(
                "fact arity {} does not match relation arity {}",
                tuple.arity(),
                id.1
            )));
        }
        self.relation_mut(id).insert(tuple)
    }

    /// Tombstone one fact; `true` if it was live (see
    /// [`Relation::delete`]).
    pub fn delete(&mut self, id: RelationId, tuple: &Tuple) -> bool {
        match self.relations.get_mut(&id) {
            Some(rel) => Arc::make_mut(rel).delete(tuple),
            None => false,
        }
    }

    /// Bulk-load facts grouped by relation, e.g. the parser's
    /// `ParsedUnit::facts`; returns how many distinct facts were new.
    ///
    /// A group's id is anything convertible to a `RelationId`; the parser's
    /// `Predicate` converts via `Predicate::{name, arity}`. A relation
    /// that is still empty takes the group's vector as its arena and drops
    /// the repeats in place ([`Relation::insert_owned`]); one that already
    /// has rows inserts the group as one batch.
    pub fn load_facts<I, P>(&mut self, groups: I) -> Result<usize>
    where
        I: IntoIterator<Item = (P, Vec<Tuple>)>,
        P: Into<RelationId>,
    {
        let mut loaded = 0;
        for (id, rows) in groups {
            let id = id.into();
            if let Some(t) = rows.iter().find(|t| t.arity() != id.1) {
                return Err(Error::Storage(format!(
                    "fact arity {} does not match relation arity {}",
                    t.arity(),
                    id.1
                )));
            }
            loaded += self.relation_mut(id).insert_owned(rows) as usize;
        }
        Ok(loaded)
    }

    /// Replace the relation stored at `id`.
    pub fn put_relation(&mut self, id: RelationId, relation: Relation) -> Result<()> {
        if relation.arity() != id.1 {
            return Err(Error::Storage(format!(
                "relation arity {} does not match id arity {}",
                relation.arity(),
                id.1
            )));
        }
        self.relations.insert(id, Arc::new(relation));
        Ok(())
    }

    /// Iterate over all `(id, relation)` pairs (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = (&RelationId, &Relation)> {
        self.relations.iter().map(|(id, relation)| (id, relation.as_ref()))
    }

    /// Total number of live tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.relations.values().map(|relation| relation.live_len()).sum()
    }

    /// Number of relations.
    pub fn relation_count(&self) -> usize {
        self.relations.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gst_common::ituple;

    fn db() -> (Database, RelationId) {
        let interner = Interner::new();
        let par = (interner.intern("par"), 2usize);
        (Database::new(interner), par)
    }

    #[test]
    fn insert_and_lookup() {
        let (mut d, par) = db();
        assert!(d.insert(par, ituple![1, 2]).unwrap());
        assert!(!d.insert(par, ituple![1, 2]).unwrap());
        assert_eq!(d.relation(par).unwrap().len(), 1);
        assert_eq!(d.relation_by_name("par", 2).unwrap().len(), 1);
        assert!(d.relation_by_name("par", 3).is_none());
        assert!(d.relation_by_name("nope", 2).is_none());
    }

    #[test]
    fn insert_arity_mismatch_is_error() {
        let (mut d, par) = db();
        assert!(d.insert(par, ituple![1]).is_err());
    }

    #[test]
    fn load_facts_counts_fresh_only() {
        let (mut d, par) = db();
        let facts = vec![(par, vec![ituple![1, 2], ituple![2, 3], ituple![1, 2]])];
        assert_eq!(d.load_facts(facts).unwrap(), 2);
        assert_eq!(d.total_tuples(), 2);
        assert_eq!(d.relation_count(), 1);
        // A relation that has rows takes a second group as a batch.
        assert_eq!(d.load_facts([(par, vec![ituple![2, 3], ituple![3, 4]])]).unwrap(), 1);
        assert_eq!(d.relation(par).unwrap().rows(), [ituple![1, 2], ituple![2, 3], ituple![3, 4]]);
        assert!(d.load_facts([(par, vec![ituple![1]])]).is_err());
    }

    #[test]
    fn put_relation_replaces() {
        let (mut d, par) = db();
        d.insert(par, ituple![9, 9]).unwrap();
        let fresh: Relation = [ituple![1, 2]].into_iter().collect();
        d.put_relation(par, fresh).unwrap();
        assert_eq!(d.relation(par).unwrap().sorted(), vec![ituple![1, 2]]);
        assert!(d.put_relation(par, Relation::new(3)).is_err());
    }
}
