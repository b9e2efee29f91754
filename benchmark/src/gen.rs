//! The six workloads and their seeded input generators.
//!
//! `pdatalog` only ever sees what is written here: a `.dl` file (rules +
//! facts), and for two workloads a goal list or an update stream. The
//! same seed always produces the same bytes.
//!
//! A workload is the same *structure* on every seed — the same graph up
//! to isomorphism, the same goals and commits on it — and `--seed` draws
//! how its nodes are numbered and in which order its facts are written.
//! So the closure size and the sequential engine's rounds and firings
//! are fixed, and what the seed moves is what depends on the names: which
//! processor the hash sends a tuple to, and where it lands in a table.
//! (Seeding the structure itself moved the closure size of the random
//! digraphs by ±2–4 % from one seed to the next, and the cost of an
//! update stream — which depends on how much hangs below the facts a
//! commit happens to delete — from 1.1 s to 1.7 s.)

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use gst_common::{SmallRng, Tuple};
use gst_storage::Relation;
use gst_workloads::{grid, layered, random_digraph, same_generation_tree};

const LINEAR_ANCESTOR: &str = "anc(X,Y) :- par(X,Y).\nanc(X,Y) :- par(X,Z), anc(Z,Y).\n";
const RIGHT_LINEAR_ANCESTOR: &str = "anc(X,Y) :- par(X,Y).\nanc(X,Y) :- anc(X,Z), par(Z,Y).\n";
const SAME_GENERATION: &str = "sg(X,Y) :- flat(X,Y).\nsg(X,Y) :- up(X,U), sg(U,V), down(V,Y).\n";

/// How a workload is driven end to end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One whole-closure `pdatalog run` per operation.
    Closure,
    /// One fresh `pdatalog run --query` per goal.
    PointQuery,
    /// One `pdatalog run --updates` over a commit stream per operation.
    Updates,
}

/// A benchmark workload: the program, how `pdatalog` is invoked on it,
/// and why it is in the set (repeated in `BENCHMARK.json` and the README).
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub rules: &'static str,
    /// The derived predicate whose relation is verified (arity 2).
    pub answer: &'static str,
    /// A base predicate (arity 2): timed runs `--print` it so formatting
    /// the million-tuple answer is not part of the measurement.
    pub base: &'static str,
    /// `--scheme` of the parallel command.
    pub scheme: &'static str,
    /// Parallel command runs worker *processes* over loopback TCP.
    pub net: bool,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "tc-dense",
        kind: Kind::Closure,
        rules: LINEAR_ANCESTOR,
        answer: "anc",
        base: "par",
        scheme: "example3",
        net: false,
    },
    Workload {
        name: "tc-deep",
        kind: Kind::Closure,
        rules: LINEAR_ANCESTOR,
        answer: "anc",
        base: "par",
        scheme: "example3",
        net: false,
    },
    Workload {
        name: "sg-general",
        kind: Kind::Closure,
        rules: SAME_GENERATION,
        answer: "sg",
        base: "flat",
        scheme: "general",
        net: false,
    },
    Workload {
        name: "tc-tcp",
        kind: Kind::Closure,
        rules: LINEAR_ANCESTOR,
        answer: "anc",
        base: "par",
        scheme: "example3",
        net: true,
    },
    Workload {
        name: "point-query",
        kind: Kind::PointQuery,
        rules: RIGHT_LINEAR_ANCESTOR,
        answer: "anc",
        base: "par",
        scheme: "general",
        net: false,
    },
    Workload {
        name: "tc-updates",
        kind: Kind::Updates,
        rules: LINEAR_ANCESTOR,
        answer: "anc",
        base: "par",
        scheme: "example3",
        net: false,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One commit of the update stream: base facts of `par/2` removed and
/// added.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Commit {
    pub deletes: Vec<(i64, i64)>,
    pub inserts: Vec<(i64, i64)>,
}

/// Everything generated for one (workload, seed, scale).
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The extensional database, one relation per base predicate.
    pub relations: Vec<(&'static str, Relation)>,
    /// The generator call that produced it, for the provenance header.
    pub sizes: String,
    /// Point-query goals `anc(c, Y)`: the constants `c`, in send order.
    pub goals: Vec<i64>,
    /// Update stream commits, in order.
    pub commits: Vec<Commit>,
}

/// The seed of every generated structure (see the module comment).
pub const STRUCTURE_SEED: u64 = 1990;

/// Commits per update stream, and base facts removed / added per commit.
pub const COMMITS: usize = 5;
pub const FACTS_PER_COMMIT: usize = 4;

/// Generate a workload's inputs. `smoke` divides closure sizes by about
/// ten (CI-sized; never used for reported numbers).
pub fn generate(w: &Workload, seed: u64, smoke: bool) -> Inputs {
    let mut inputs = Inputs {
        relations: Vec::new(),
        sizes: String::new(),
        goals: Vec::new(),
        commits: Vec::new(),
    };
    let digraph = |nodes: u64, inputs: &mut Inputs| {
        inputs.sizes = format!("random_digraph({nodes}, {}, {STRUCTURE_SEED})", 3 * nodes);
        inputs.relations = vec![("par", random_digraph(nodes, 3 * nodes, STRUCTURE_SEED))];
        nodes
    };
    // Node count of a structure whose nodes the seed renumbers; the grid
    // and the tree keep the numbering their generators give them (it is
    // part of their shape: a row-major grid under a modulus hash).
    let renumbered = match w.name {
        "tc-dense" => Some(digraph(if smoke { 320 } else { 1100 }, &mut inputs)),
        "tc-tcp" => Some(digraph(if smoke { 160 } else { 500 }, &mut inputs)),
        "tc-deep" => {
            let k = if smoke { 26 } else { 46 };
            inputs.sizes = format!("grid({k}, {k})");
            inputs.relations = vec![("par", grid(k, k))];
            None
        }
        "sg-general" => {
            let depth = if smoke { 9 } else { 11 };
            inputs.sizes = format!("same_generation_tree({depth})");
            let (up, down, flat) = same_generation_tree(depth);
            inputs.relations = vec![("up", up), ("down", down), ("flat", flat)];
            None
        }
        "point-query" => {
            let nodes = digraph(if smoke { 320 } else { 1000 }, &mut inputs);
            let count = if smoke { 20 } else { 200 };
            inputs.sizes.push_str(&format!(", {count} goals"));
            // Goals start at nodes that have an outgoing edge, so every
            // answer is non-empty; drawn with replacement.
            let edges = inputs.relations[0].1.rows();
            let mut rng = SmallRng::seed_from_u64(STRUCTURE_SEED ^ 0x60A1_5EED);
            inputs.goals = (0..count)
                .map(|_| int_pair(&edges[rng.gen_below(edges.len() as u64) as usize]).0)
                .collect();
            Some(nodes)
        }
        "tc-updates" => {
            let (layers, width, fanout) = if smoke { (8, 24, 3) } else { (10, 40, 3) };
            inputs.sizes = format!(
                "layered({layers}, {width}, {fanout}, {STRUCTURE_SEED}), {COMMITS} commits of -{FACTS_PER_COMMIT}/+{FACTS_PER_COMMIT}"
            );
            let edges = layered(layers, width, fanout, STRUCTURE_SEED);
            inputs.commits = layered_commits(&edges, layers, width, STRUCTURE_SEED);
            inputs.relations = vec![("par", edges)];
            Some(layers * width)
        }
        other => unreachable!("no generator for workload {other}"),
    };
    if let Some(nodes) = renumbered {
        inputs
            .sizes
            .push_str(&format!(", renumbered by seed {seed}"));
        renumber(&mut inputs, nodes, seed);
    }
    inputs
}

/// Fisher–Yates.
fn shuffle<T>(items: &mut [T], rng: &mut SmallRng) {
    for k in (1..items.len()).rev() {
        items.swap(k, rng.gen_below(k as u64 + 1) as usize);
    }
}

/// Rename node `v` of every fact, goal and commit to `π(v)` for a
/// permutation `π` of `0..nodes` drawn from `seed`, and write the facts
/// of each relation in an order drawn from it too.
fn renumber(inputs: &mut Inputs, nodes: u64, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut name: Vec<i64> = (0..nodes as i64).collect();
    shuffle(&mut name, &mut rng);
    let pair = |&(a, b): &(i64, i64)| (name[a as usize], name[b as usize]);
    for (_, rel) in &mut inputs.relations {
        let mut edges: Vec<(i64, i64)> = rel.iter().map(int_pair).map(|e| pair(&e)).collect();
        shuffle(&mut edges, &mut rng);
        *rel = edges
            .into_iter()
            .map(|(a, b)| gst_common::ituple![a, b])
            .collect();
    }
    for goal in &mut inputs.goals {
        *goal = name[*goal as usize];
    }
    for commit in &mut inputs.commits {
        commit.deletes = commit.deletes.iter().map(pair).collect();
        commit.inserts = commit.inserts.iter().map(pair).collect();
    }
}

fn int_pair(t: &Tuple) -> (i64, i64) {
    let int = |k| {
        t.get(k)
            .as_int()
            .expect("generated facts are integer pairs")
    };
    (int(0), int(1))
}

/// An update stream over a layered DAG that keeps it layered: each commit
/// removes random present edges and adds absent edges between adjacent
/// layers, so the closure stays the same order of magnitude throughout.
fn layered_commits(edges: &Relation, layers: u64, width: u64, seed: u64) -> Vec<Commit> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x0DD5_7EA4);
    let mut present: BTreeSet<(i64, i64)> = edges.iter().map(int_pair).collect();
    let mut commits = Vec::with_capacity(COMMITS);
    for _ in 0..COMMITS {
        let mut commit = Commit::default();
        for _ in 0..FACTS_PER_COMMIT {
            let k = rng.gen_below(present.len() as u64) as usize;
            let edge = *present.iter().nth(k).expect("k < len");
            present.remove(&edge);
            commit.deletes.push(edge);
        }
        while commit.inserts.len() < FACTS_PER_COMMIT {
            let layer = rng.gen_below(layers - 1);
            let from = (layer * width + rng.gen_below(width)) as i64;
            let to = ((layer + 1) * width + rng.gen_below(width)) as i64;
            // A fact deleted in this commit stays deleted (deletes apply
            // before inserts, so re-adding it would cancel the delete).
            if !commit.deletes.contains(&(from, to)) && present.insert((from, to)) {
                commit.inserts.push((from, to));
            }
        }
        commits.push(commit);
    }
    commits
}

/// The base facts after applying the first `upto` commits.
pub fn edges_after(inputs: &Inputs, upto: usize) -> Relation {
    let mut present: BTreeSet<(i64, i64)> = inputs.relations[0].1.iter().map(int_pair).collect();
    for commit in &inputs.commits[..upto] {
        for e in &commit.deletes {
            present.remove(e);
        }
        present.extend(commit.inserts.iter().copied());
    }
    present
        .into_iter()
        .map(|(a, b)| gst_common::ituple![a, b])
        .collect()
}

/// `name(a, b).` — the surface syntax of a fact, which is also exactly
/// how `pdatalog` prints a tuple.
pub fn fact_line(name: &str, t: &Tuple) -> String {
    let (a, b) = int_pair(t);
    format!("{name}({a}, {b}).")
}

/// The text of a `.dl` file: rules, then one fact per line.
pub fn program_text(rules: &str, relations: &[(&'static str, Relation)]) -> String {
    let mut text = String::from(rules);
    for (name, rel) in relations {
        for t in rel.iter() {
            text.push_str(&fact_line(name, t));
            text.push('\n');
        }
    }
    text
}

/// The text of an `--updates` stream file.
pub fn updates_text(commits: &[Commit]) -> String {
    let mut text = String::new();
    for commit in commits {
        for (a, b) in &commit.deletes {
            text.push_str(&format!("-par({a}, {b}).\n"));
        }
        for (a, b) in &commit.inserts {
            text.push_str(&format!("+par({a}, {b}).\n"));
        }
        text.push_str("commit.\n");
    }
    text
}

/// Paths of the files one workload's inputs were written to.
#[derive(Debug, Clone)]
pub struct Files {
    pub program: PathBuf,
    /// `tc-updates` only: the stream, and the `.dl` after each commit (the
    /// recompute-from-scratch reference runs these under `--scheme seq`).
    pub updates: Option<PathBuf>,
    pub post_commit: Vec<PathBuf>,
}

/// Write a workload's inputs under `dir` (created if missing).
pub fn write_files(w: &Workload, inputs: &Inputs, dir: &Path) -> std::io::Result<Files> {
    std::fs::create_dir_all(dir)?;
    let program = dir.join(format!("{}.dl", w.name));
    std::fs::write(&program, program_text(w.rules, &inputs.relations))?;
    let mut files = Files {
        program,
        updates: None,
        post_commit: Vec::new(),
    };
    if w.kind == Kind::Updates {
        let stream = dir.join(format!("{}.updates", w.name));
        std::fs::write(&stream, updates_text(&inputs.commits))?;
        files.updates = Some(stream);
        for k in 1..=inputs.commits.len() {
            let path = dir.join(format!("{}.after{k}.dl", w.name));
            let edges = edges_after(inputs, k);
            std::fs::write(&path, program_text(w.rules, &[("par", edges)]))?;
            files.post_commit.push(path);
        }
    }
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_generator_is_deterministic_in_the_seed() {
        for w in &WORKLOADS {
            let a = generate(w, 42, true);
            let b = generate(w, 42, true);
            assert_eq!(
                program_text(w.rules, &a.relations),
                program_text(w.rules, &b.relations),
                "{}",
                w.name
            );
            assert_eq!(a.goals, b.goals);
            assert_eq!(a.commits, b.commits);
            assert_eq!(a.sizes, b.sizes);
        }
    }

    #[test]
    fn seeded_generators_change_with_the_seed() {
        for name in ["tc-dense", "tc-tcp", "point-query", "tc-updates"] {
            let w = by_name(name).unwrap();
            let a = generate(w, 42, true);
            let b = generate(w, 43, true);
            assert_ne!(
                program_text(w.rules, &a.relations),
                program_text(w.rules, &b.relations),
                "{name}"
            );
        }
        let pq = by_name("point-query").unwrap();
        assert_ne!(generate(pq, 42, true).goals, generate(pq, 43, true).goals);
    }

    #[test]
    fn fixed_seed_pins_the_generated_bytes() {
        // A change to the generators or the RNG would silently move every
        // baseline; pin the first bytes seed 42 produces.
        let w = by_name("tc-dense").unwrap();
        let text = program_text(w.rules, &generate(w, 42, true).relations);
        let facts: Vec<&str> = text.lines().skip(2).take(3).collect();
        assert_eq!(facts, ["par(190, 72).", "par(212, 3).", "par(310, 46)."]);
        assert_eq!(text.lines().count(), 2 + 960);
        let pq = generate(by_name("point-query").unwrap(), 42, true);
        assert_eq!(pq.goals.len(), 20);
        let updates = updates_text(&generate(by_name("tc-updates").unwrap(), 42, true).commits);
        assert!(
            updates.starts_with("-par(188, 120).\n-par(131, 39).\n"),
            "{updates}"
        );
    }

    #[test]
    fn the_seed_renumbers_one_structure() {
        // Same graph up to the names of its nodes: the out-degrees, read
        // in sorted order, do not depend on the seed.
        let out_degrees = |inputs: &Inputs| {
            let mut by_node = std::collections::BTreeMap::new();
            for (from, _) in inputs.relations[0].1.iter().map(int_pair) {
                *by_node.entry(from).or_insert(0usize) += 1;
            }
            let mut degrees: Vec<usize> = by_node.into_values().collect();
            degrees.sort_unstable();
            degrees
        };
        for name in ["tc-dense", "tc-tcp", "point-query", "tc-updates"] {
            let w = by_name(name).unwrap();
            let (a, b) = (generate(w, 1, true), generate(w, 2, true));
            assert_eq!(a.relations[0].1.len(), b.relations[0].1.len(), "{name}");
            assert_eq!(out_degrees(&a), out_degrees(&b), "{name}");
            assert_eq!(a.sizes.replace("seed 1", ""), b.sizes.replace("seed 2", ""));
        }
        // Goals and commits are renamed with the facts: a goal still
        // starts at a node with an outgoing edge, a deleted fact is present.
        let pq = generate(by_name("point-query").unwrap(), 3, true);
        let sources: BTreeSet<i64> = pq.relations[0].1.iter().map(|t| int_pair(t).0).collect();
        assert!(pq.goals.iter().all(|g| sources.contains(g)));
    }

    #[test]
    fn update_stream_is_consistent_with_post_commit_edbs() {
        let w = by_name("tc-updates").unwrap();
        let inputs = generate(w, 7, true);
        assert_eq!(inputs.commits.len(), COMMITS);
        let mut size = inputs.relations[0].1.len();
        for (k, commit) in inputs.commits.iter().enumerate() {
            assert_eq!(commit.deletes.len(), FACTS_PER_COMMIT);
            assert_eq!(commit.inserts.len(), FACTS_PER_COMMIT);
            let before = edges_after(&inputs, k);
            let after = edges_after(&inputs, k + 1);
            for &(a, b) in &commit.deletes {
                assert!(before.contains(&gst_common::ituple![a, b]));
                assert!(!after.contains(&gst_common::ituple![a, b]));
            }
            for &(a, b) in &commit.inserts {
                assert!(!before.contains(&gst_common::ituple![a, b]));
                assert!(after.contains(&gst_common::ituple![a, b]));
            }
            size = size - commit.deletes.len() + commit.inserts.len();
            assert_eq!(after.len(), size);
        }
        let text = updates_text(&inputs.commits);
        assert_eq!(text.lines().filter(|l| *l == "commit.").count(), COMMITS);
        assert!(text.starts_with("-par("));
    }
}
