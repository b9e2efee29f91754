//! Seeded graph generators producing arity-2 edge relations.

use gst_common::{ituple, SmallRng, Tuple};
use gst_storage::Relation;

/// A chain `0 → 1 → … → n`: `n` edges, transitive closure of size
/// `n(n+1)/2`. The deepest recursion the TC workloads produce.
pub fn chain(n: u64) -> Relation {
    (0..n as i64).map(|k| ituple![k, k + 1]).collect()
}

/// A directed cycle `0 → 1 → … → n-1 → 0`: the closure is the complete
/// digraph on `n` nodes (n² tuples).
pub fn cycle(n: u64) -> Relation {
    assert!(n >= 1, "a cycle needs at least one node");
    let n = n as i64;
    (0..n).map(|k| ituple![k, (k + 1) % n]).collect()
}

/// A complete binary tree of the given `depth` with edges parent → child;
/// node ids are heap order (root = 1). `2^depth - 2` edges.
pub fn binary_tree(depth: u32) -> Relation {
    let mut rel = Relation::new(2);
    let leaves_start = 1i64 << depth.saturating_sub(1);
    for parent in 1..leaves_start {
        rel.insert_unchecked(ituple![parent, 2 * parent]);
        rel.insert_unchecked(ituple![parent, 2 * parent + 1]);
    }
    rel
}

/// A star: `0 → k` for `k` in `1..=n` (breadth without depth).
pub fn star(n: u64) -> Relation {
    (1..=n as i64).map(|k| ituple![0, k]).collect()
}

/// A random digraph with `nodes` nodes and (up to) `edges` distinct edges,
/// self-loops excluded, deterministic in `seed`.
pub fn random_digraph(nodes: u64, edges: u64, seed: u64) -> Relation {
    assert!(nodes >= 2, "need at least two nodes for non-loop edges");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut rel = Relation::with_capacity(2, edges as usize);
    let mut attempts = 0u64;
    // Distinctness can make exact `edges` unreachable on tiny graphs;
    // bound the attempts so the generator always terminates.
    let max_attempts = edges.saturating_mul(20).max(1000);
    while (rel.len() as u64) < edges && attempts < max_attempts {
        attempts += 1;
        let a = rng.gen_below(nodes) as i64;
        let b = rng.gen_below(nodes) as i64;
        if a != b {
            rel.insert_unchecked(ituple![a, b]);
        }
    }
    rel
}

/// A skewed random DAG: sources are drawn zipf-distributed (node `i` with
/// weight ∝ `1/(i+1)^s`, `s` given in tenths) and each edge points from
/// its source to a uniformly-drawn *higher-numbered* node, so
/// low-numbered nodes carry most of the out-degree — the power-law shape
/// of real graphs — and the closure stays hub-dominated instead of
/// collapsing into one strongly-connected component (where every key
/// drags the same giant closure and no partition can help). Hash
/// partitioning the TC join key then concentrates the hot nodes' closures
/// on whichever processors own them — the input that shows a hash
/// partition's load skew. Deterministic in `seed`. At `s_tenths = 20`
/// (s = 2) node 0 alone is the source of well over half of all edges.
pub fn zipf_digraph(nodes: u64, edges: u64, s_tenths: u32, seed: u64) -> Relation {
    assert!(nodes >= 2, "need at least two nodes for non-loop edges");
    // Integer cumulative-weight table: w_i = round(K / (i+1)^s) with a
    // fixed-point power, so the distribution is identical on every
    // platform (no float summation order concerns at these sizes, but
    // integers make that obvious).
    let s = f64::from(s_tenths) / 10.0;
    let mut cumulative: Vec<u64> = Vec::with_capacity(nodes as usize);
    let mut total = 0u64;
    for i in 0..nodes {
        let w = (1e9 / ((i + 1) as f64).powf(s)).round() as u64;
        total += w.max(1);
        cumulative.push(total);
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut rel = Relation::with_capacity(2, edges as usize);
    let mut attempts = 0u64;
    let max_attempts = edges.saturating_mul(20).max(1000);
    while (rel.len() as u64) < edges && attempts < max_attempts {
        attempts += 1;
        let pick = rng.gen_below(total);
        let a = cumulative.partition_point(|&c| c <= pick) as u64;
        if a + 1 >= nodes {
            continue; // the last node has no higher-numbered target
        }
        let b = a + 1 + rng.gen_below(nodes - a - 1);
        rel.insert_unchecked(ituple![a as i64, b as i64]);
    }
    rel
}

/// A layered DAG: `layers` layers of `width` nodes, every node wired to
/// `fanout` random nodes of the next layer. Node id = `layer * width +
/// position`. Models the bushy, bounded-depth workloads where parallel TC
/// shines.
pub fn layered(layers: u64, width: u64, fanout: u64, seed: u64) -> Relation {
    assert!(layers >= 2 && width >= 1);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut rel = Relation::new(2);
    for layer in 0..layers - 1 {
        for pos in 0..width {
            let from = (layer * width + pos) as i64;
            for _ in 0..fanout {
                let to = ((layer + 1) * width + rng.gen_below(width)) as i64;
                rel.insert_unchecked(ituple![from, to]);
            }
        }
    }
    rel
}

/// A two-dimensional grid: node `(r, c)` (id `r*cols + c`) has edges right
/// and down. Diameter `rows + cols`, many alternative paths — the
/// duplicate-heavy workload where non-redundancy matters.
pub fn grid(rows: u64, cols: u64) -> Relation {
    let mut rel = Relation::new(2);
    for r in 0..rows {
        for c in 0..cols {
            let id = (r * cols + c) as i64;
            if c + 1 < cols {
                rel.insert_unchecked(ituple![id, id + 1]);
            }
            if r + 1 < rows {
                rel.insert_unchecked(ituple![id, id + cols as i64]);
            }
        }
    }
    rel
}

/// Up/down/flat input for the same-generation program over a complete
/// binary tree of `depth`: `up(child, parent)`, `down = up⁻¹`,
/// `flat(x, x)` on the root.
pub fn same_generation_tree(depth: u32) -> (Relation, Relation, Relation) {
    let parent_child = binary_tree(depth);
    let mut up = Relation::new(2);
    let mut down = Relation::new(2);
    for t in parent_child.iter() {
        up.insert_unchecked(Tuple::new(&[t.get(1), t.get(0)]));
        down.insert_unchecked(t.clone());
    }
    let flat: Relation = [ituple![1, 1]].into_iter().collect();
    (up, down, flat)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_counts() {
        let c = chain(10);
        assert_eq!(c.len(), 10);
        assert!(c.contains(&ituple![0, 1]));
        assert!(c.contains(&ituple![9, 10]));
    }

    #[test]
    fn cycle_wraps() {
        let c = cycle(5);
        assert_eq!(c.len(), 5);
        assert!(c.contains(&ituple![4, 0]));
    }

    #[test]
    fn binary_tree_edge_count() {
        assert_eq!(binary_tree(1).len(), 0);
        assert_eq!(binary_tree(2).len(), 2);
        assert_eq!(binary_tree(4).len(), 14);
    }

    #[test]
    fn star_shape() {
        let s = star(6);
        assert_eq!(s.len(), 6);
        assert!(s.iter().all(|t| t.get(0) == gst_common::Value::Int(0)));
    }

    #[test]
    fn random_digraph_is_deterministic() {
        let a = random_digraph(50, 100, 7);
        let b = random_digraph(50, 100, 7);
        assert!(a.set_eq(&b));
        let c = random_digraph(50, 100, 8);
        assert!(!a.set_eq(&c));
        assert_eq!(a.len(), 100);
    }

    #[test]
    fn random_digraph_has_no_self_loops() {
        let g = random_digraph(10, 40, 3);
        assert!(g.iter().all(|t| t.get(0) != t.get(1)));
    }

    #[test]
    fn random_digraph_saturates_small_graphs() {
        // 3 nodes admit at most 6 non-loop edges; asking for more stops.
        let g = random_digraph(3, 100, 1);
        assert!(g.len() <= 6);
    }

    #[test]
    fn zipf_digraph_is_deterministic_and_loop_free() {
        let a = zipf_digraph(100, 300, 15, 5);
        let b = zipf_digraph(100, 300, 15, 5);
        assert!(a.set_eq(&b));
        assert!(a.iter().all(|t| t.get(0) != t.get(1)));
        let c = zipf_digraph(100, 300, 15, 6);
        assert!(!a.set_eq(&c));
    }

    #[test]
    fn zipf_digraph_is_actually_skewed() {
        // With s = 2 over 100 nodes, the top source must beat the uniform
        // out-degree expectation (edges/nodes) by a wide margin and sit at
        // the head of the distribution.
        let g = zipf_digraph(100, 300, 20, 42);
        let mut outdeg = vec![0u64; 100];
        for t in g.iter() {
            outdeg[t.get(0).as_int().unwrap() as usize] += 1;
        }
        let mean = (g.len() as u64 / 100).max(1);
        let max = *outdeg.iter().max().unwrap();
        assert!(max >= 10 * mean, "max out-degree {max} not skewed vs mean {mean}");
        let argmax = outdeg.iter().enumerate().max_by_key(|(_, &d)| d).unwrap().0;
        assert_eq!(argmax, 0, "the hot source should be node 0");
    }

    #[test]
    fn layered_respects_structure() {
        let g = layered(3, 4, 2, 11);
        for t in g.iter() {
            let from = t.get(0).as_int().unwrap() as u64;
            let to = t.get(1).as_int().unwrap() as u64;
            assert_eq!(to / 4, from / 4 + 1, "edges go one layer down");
        }
    }

    #[test]
    fn grid_edge_count() {
        // rows*cols nodes; right edges rows*(cols-1); down (rows-1)*cols.
        let g = grid(3, 4);
        assert_eq!(g.len(), 3 * 3 + 2 * 4);
    }

    #[test]
    fn same_generation_tree_shapes() {
        let (up, down, flat) = same_generation_tree(3);
        assert_eq!(up.len(), 6);
        assert_eq!(down.len(), 6);
        assert_eq!(flat.len(), 1);
        assert!(up.contains(&ituple![2, 1]));
        assert!(down.contains(&ituple![1, 2]));
    }
}
