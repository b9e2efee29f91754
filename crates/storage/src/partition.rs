//! Horizontal fragmentation of relations.
//!
//! The paper's Example 2 (Valduriez–Khoshafian) runs over *any* horizontal
//! partition `par = par¹ ∪ … ∪ parᴺ` with disjoint fragments; Example 3
//! requires the specific partition induced by a discriminating function on
//! one column. [`hash_fragment`] produces the latter; [`Fragmentation`]
//! represents either and can validate the disjoint/covering invariants and
//! answer *owner* queries (which the Example-2 discriminating function
//! `h(a,b) = i ⇔ (a,b) ∈ parⁱ` is defined by).

use gst_common::{fxhash::hash_one, Error, FxHashMap, Result, Tuple};

use crate::relation::Relation;

/// A horizontal partition of one relation into `n` disjoint fragments.
#[derive(Debug, Clone)]
pub struct Fragmentation {
    fragments: Vec<Relation>,
    owner: FxHashMap<Tuple, usize>,
}

impl Fragmentation {
    /// Build from explicit fragments.
    ///
    /// # Errors
    /// Fails if fragments have differing arity or overlap (a tuple in two
    /// fragments would break the disjointness Example 2 relies on).
    pub fn from_fragments(fragments: Vec<Relation>) -> Result<Self> {
        if fragments.is_empty() {
            return Err(Error::Storage("a fragmentation needs at least one fragment".into()));
        }
        let arity = fragments[0].arity();
        let mut owner: FxHashMap<Tuple, usize> = FxHashMap::default();
        for (i, frag) in fragments.iter().enumerate() {
            if frag.arity() != arity {
                return Err(Error::Storage(format!(
                    "fragment {i} has arity {}, expected {arity}",
                    frag.arity()
                )));
            }
            for t in frag.iter() {
                if let Some(prev) = owner.insert(t.clone(), i) {
                    return Err(Error::Storage(format!(
                        "fragments {prev} and {i} overlap on a tuple"
                    )));
                }
            }
        }
        Ok(Fragmentation { fragments, owner })
    }

    /// Number of fragments.
    pub fn len(&self) -> usize {
        self.fragments.len()
    }

    /// True when there are no fragments (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.fragments.is_empty()
    }

    /// The `i`-th fragment.
    pub fn fragment(&self, i: usize) -> &Relation {
        &self.fragments[i]
    }

    /// All fragments in order.
    pub fn fragments(&self) -> &[Relation] {
        &self.fragments
    }

    /// Which fragment holds `tuple`, if any. This is the Example-2
    /// discriminating function: `h(t) = i ⇔ t ∈ parⁱ`.
    pub fn owner_of(&self, tuple: &Tuple) -> Option<usize> {
        self.owner.get(tuple).copied()
    }

    /// Union of all fragments (the reconstructed relation).
    pub fn union(&self) -> Relation {
        let mut out = Relation::new(self.fragments[0].arity());
        for frag in &self.fragments {
            out.absorb(frag).expect("arity checked at construction");
        }
        out
    }

    /// Check that the fragmentation exactly covers `original`.
    pub fn covers(&self, original: &Relation) -> bool {
        self.union().set_eq(original)
    }

    /// Sizes of all fragments (diagnostics: skew measurement).
    pub fn sizes(&self) -> Vec<usize> {
        self.fragments.iter().map(Relation::len).collect()
    }
}

/// Partition `relation` into `n` fragments by hashing the projection onto
/// `columns`. With `columns = [1]` on `par(X, Z)` this is exactly the
/// fragmentation Example 3 requires (`par^i = {par(X,Z) | h(Z) = i}`).
pub fn hash_fragment(relation: &Relation, columns: &[usize], n: usize) -> Result<Fragmentation> {
    if n == 0 {
        return Err(Error::Storage("cannot fragment into 0 pieces".into()));
    }
    let mut fragments = vec![Relation::new(relation.arity()); n];
    for t in relation.iter() {
        let i = (hash_one(&t.project(columns)) % n as u64) as usize;
        fragments[i].insert_unchecked(t.clone());
    }
    Fragmentation::from_fragments(fragments)
}

/// Distribute `relation` into `n` possibly *overlapping* pieces: `targets`
/// names every worker that must hold a given tuple. This is the §6 `R_i`
/// replicating counterpart of [`hash_fragment`] — a skew-aware partition
/// replicates a hot key's complementary join fragment to every member of
/// the key's split set, deliberately breaking the disjointness invariant
/// [`Fragmentation`] enforces, so the result is a plain `Vec<Relation>`.
///
/// # Errors
/// Fails when `n` is zero or `targets` names a worker out of range.
pub fn replicated_fragments<F>(
    relation: &Relation,
    n: usize,
    mut targets: F,
) -> Result<Vec<Relation>>
where
    F: FnMut(&Tuple) -> Vec<usize>,
{
    if n == 0 {
        return Err(Error::Storage("cannot fragment into 0 pieces".into()));
    }
    let mut fragments = vec![Relation::new(relation.arity()); n];
    for t in relation.iter() {
        for i in targets(t) {
            if i >= n {
                return Err(Error::Storage(format!(
                    "replication target {i} out of range for {n} workers"
                )));
            }
            fragments[i].insert_unchecked(t.clone());
        }
    }
    Ok(fragments)
}

/// Partition `relation` round-robin over its (arbitrary) iteration order —
/// an "adversarial" fragmentation exercising Example 2's claim that *any*
/// horizontal partition works.
pub fn round_robin_fragment(relation: &Relation, n: usize) -> Result<Fragmentation> {
    if n == 0 {
        return Err(Error::Storage("cannot fragment into 0 pieces".into()));
    }
    let mut fragments = vec![Relation::new(relation.arity()); n];
    // Sort for determinism: iteration order of a hash set is unstable.
    for (k, t) in relation.sorted().into_iter().enumerate() {
        fragments[k % n].insert_unchecked(t);
    }
    Fragmentation::from_fragments(fragments)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gst_common::ituple;

    fn chain(n: i64) -> Relation {
        (0..n).map(|k| ituple![k, k + 1]).collect()
    }

    #[test]
    fn hash_fragment_is_disjoint_and_covering() {
        let rel = chain(100);
        let frag = hash_fragment(&rel, &[1], 4).unwrap();
        assert_eq!(frag.len(), 4);
        assert!(frag.covers(&rel));
        assert_eq!(frag.sizes().iter().sum::<usize>(), 100);
    }

    #[test]
    fn hash_fragment_groups_by_key() {
        // Tuples sharing column-1 value land in the same fragment.
        let mut rel = Relation::new(2);
        rel.insert(ituple![1, 7]).unwrap();
        rel.insert(ituple![2, 7]).unwrap();
        rel.insert(ituple![3, 7]).unwrap();
        let frag = hash_fragment(&rel, &[1], 3).unwrap();
        let nonempty: Vec<usize> = frag.sizes().into_iter().filter(|&s| s > 0).collect();
        assert_eq!(nonempty, vec![3]);
    }

    #[test]
    fn owner_matches_membership() {
        let rel = chain(50);
        let frag = hash_fragment(&rel, &[0], 5).unwrap();
        for t in rel.iter() {
            let i = frag.owner_of(t).unwrap();
            assert!(frag.fragment(i).contains(t));
        }
        assert_eq!(frag.owner_of(&ituple![999, 999]), None);
    }

    #[test]
    fn round_robin_covers() {
        let rel = chain(10);
        let frag = round_robin_fragment(&rel, 3).unwrap();
        assert!(frag.covers(&rel));
        // Sizes are balanced to within 1.
        let sizes = frag.sizes();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn overlapping_fragments_rejected() {
        let a: Relation = [ituple![1, 2]].into_iter().collect();
        let b: Relation = [ituple![1, 2], ituple![2, 3]].into_iter().collect();
        assert!(Fragmentation::from_fragments(vec![a, b]).is_err());
    }

    #[test]
    fn mixed_arity_fragments_rejected() {
        let a: Relation = [ituple![1, 2]].into_iter().collect();
        let b: Relation = [ituple![1]].into_iter().collect();
        assert!(Fragmentation::from_fragments(vec![a, b]).is_err());
    }

    #[test]
    fn zero_fragments_rejected() {
        assert!(hash_fragment(&chain(5), &[0], 0).is_err());
        assert!(round_robin_fragment(&chain(5), 0).is_err());
        assert!(Fragmentation::from_fragments(vec![]).is_err());
    }

    #[test]
    fn single_fragment_is_identity() {
        let rel = chain(20);
        let frag = hash_fragment(&rel, &[0], 1).unwrap();
        assert!(frag.fragment(0).set_eq(&rel));
        assert!(!frag.is_empty());
    }

    #[test]
    fn union_reconstructs() {
        let rel = chain(30);
        let frag = round_robin_fragment(&rel, 7).unwrap();
        assert!(frag.union().set_eq(&rel));
    }

    #[test]
    fn replicated_fragments_overlap_where_asked() {
        let rel = chain(20);
        // Even keys replicate to workers 0 and 2; odd keys go to worker 1.
        let frags = replicated_fragments(&rel, 3, |t| {
            if t.get(0).as_int().unwrap() % 2 == 0 {
                vec![0, 2]
            } else {
                vec![1]
            }
        })
        .unwrap();
        assert_eq!(frags.len(), 3);
        assert!(frags[0].set_eq(&frags[2]), "replicas are identical");
        assert_eq!(frags[0].len() + frags[1].len(), 20);
        // The union still reconstructs the relation.
        let mut union = Relation::new(2);
        for f in &frags {
            union.absorb(f).unwrap();
        }
        assert!(union.set_eq(&rel));
        // Out-of-range targets and n=0 are rejected.
        assert!(replicated_fragments(&rel, 3, |_| vec![3]).is_err());
        assert!(replicated_fragments(&rel, 0, |_| vec![0]).is_err());
    }
}
