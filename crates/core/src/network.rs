//! Minimal network graphs (paper §5, Definition 3, Examples 6–7).
//!
//! Given a linear sirup, discriminating sequences, and a discriminating
//! function built from a bit-valued `g` (a [`BitVector`] or a [`Linear`]
//! combination), the set of channels that can *ever* carry a tuple is
//! data-independent and computable at compile time: abstract every value
//! to its `g`-bit and enumerate.
//!
//! A channel `i → j` can carry a tuple `t` iff
//!
//! * `t` is **consumed** at `j`: `j = h(t|v(r))`, reading `v(r)` off the
//!   positions those variables occupy in the body `t`-atom `Ȳ`;
//! * `t` is **produced** at `i`, either
//!   - by the **exit rule** — `t` instantiates the exit head `Z̄` and
//!     `i = h'(v(e))`, or
//!   - by the **recursive rule** — `t` instantiates the head `X̄` and
//!     `i = h(v(r))` of the *producing* firing: `v(r)` variables found in
//!     `X̄` take the tuple's values; the rest (the paper's `a₄`/`Z`) are
//!     free.
//!
//! Abstracting each distinct value slot to one bit turns both conditions
//! into the constraint systems the paper writes out — equations (1)–(3)
//! of Example 7 — and enumerating `{0,1}^slots` solves them exactly. This
//! reproduces Figure 3 (Example 6) and Figure 4 (Example 7) and, for any
//! other sirup in the supported family, yields its minimal network.

use std::collections::BTreeSet;

use gst_common::{Error, Result};
use gst_frontend::{LinearSirup, Term, Variable};

use crate::discriminator::{BitVector, Linear};

/// A directed graph over processors: which channels may carry data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkGraph {
    /// Number of processors.
    pub processors: usize,
    /// Possible communication edges `(i, j)`, `i ≠ j`, sorted.
    pub edges: BTreeSet<(usize, usize)>,
    /// Display names of processors (e.g. `(00)` or the linear value `-1`).
    pub labels: Vec<String>,
}

impl NetworkGraph {
    /// True if `i → j` may carry data.
    pub fn has_edge(&self, i: usize, j: usize) -> bool {
        self.edges.contains(&(i, j))
    }

    /// Check that every observed channel is predicted by the graph — the
    /// soundness direction, asserted against real executions in tests.
    pub fn covers(&self, used: &[(usize, usize)]) -> bool {
        used.iter().all(|&(i, j)| self.has_edge(i, j))
    }

    /// Degree summary: how many of the `n(n-1)` possible channels exist.
    pub fn density(&self) -> (usize, usize) {
        (self.edges.len(), self.processors * self.processors.saturating_sub(1))
    }

    /// Render the edge list in the paper's figure style.
    pub fn display(&self) -> String {
        if self.edges.is_empty() {
            return "(no interprocessor channels)".to_string();
        }
        self.edges
            .iter()
            .map(|&(i, j)| format!("{} → {}", self.labels[i], self.labels[j]))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// A discriminating function abstracted to `g`-bits: given one bit per
/// sequence element, produce the processor index.
pub trait SymbolicDisc {
    /// Number of processors.
    fn processors(&self) -> usize;
    /// Processor for a bit instantiation of the discriminating sequence.
    fn apply(&self, bits: &[u8]) -> usize;
    /// Display name of a processor.
    fn label(&self, index: usize) -> String;
}

impl SymbolicDisc for BitVector {
    fn processors(&self) -> usize {
        Discriminatable::processors(self)
    }
    fn apply(&self, bits: &[u8]) -> usize {
        bits.iter().fold(0usize, |acc, &b| (acc << 1) | b as usize)
    }
    fn label(&self, index: usize) -> String {
        self.processor_name(index)
    }
}

impl SymbolicDisc for Linear {
    fn processors(&self) -> usize {
        self.processor_values().len()
    }
    fn apply(&self, bits: &[u8]) -> usize {
        let sum: i64 = bits
            .iter()
            .zip(self.coefficients())
            .map(|(&b, &c)| c * b as i64)
            .sum();
        self.processor_of_value(sum)
            .expect("bit assignments yield achievable sums")
    }
    fn label(&self, index: usize) -> String {
        self.processor_values()[index].to_string()
    }
}

// Disambiguation helper: `BitVector` implements both the runtime
// `Discriminator` and the compile-time `SymbolicDisc` traits, which both
// have a `processors` method.
use crate::discriminator::Discriminator as Discriminatable;

/// Where a discriminating variable's bit comes from during enumeration.
#[derive(Debug, Clone, Copy)]
enum BitSource {
    /// Bit of tuple position `p`.
    Tuple(usize),
    /// A free slot (value not determined by the tuple).
    Free(usize),
}

/// The most bits [`derive_network`] enumerates: `2^24` assignments.
const MAX_BITS: usize = 24;

/// Derive the minimal network graph for `sirup` under sequences `v_r`
/// (for the recursive rule) and `v_e` (for the exit rule) and symbolic
/// function `h` (used for both `h` and `h'`, as in the paper's examples).
///
/// Requirements (checked): every `v_r` variable occurs in the body
/// `t`-atom `Ȳ`; every `v_e` variable occurs in the exit rule; the head's
/// arity and the `v(r)` variables it lacks add up to at most 24 bits.
pub fn derive_network(
    sirup: &LinearSirup,
    v_r: &[Variable],
    v_e: &[Variable],
    h: &dyn SymbolicDisc,
) -> Result<NetworkGraph> {
    let m = sirup.head.len();
    let position_in = |terms: &[Term], v: Variable| -> Option<usize> {
        terms
            .iter()
            .position(|t| matches!(t, Term::Var(tv) if *tv == v))
    };

    // Consumption: v(r) over the body t-atom Ȳ.
    let consume: Vec<BitSource> = v_r
        .iter()
        .map(|&v| {
            position_in(&sirup.recursive_args, v)
                .map(BitSource::Tuple)
                .ok_or_else(|| {
                    Error::Discriminator(
                        "network derivation requires every v(r) variable to occur in the \
                         recursive body t-atom"
                            .into(),
                    )
                })
        })
        .collect::<Result<_>>()?;

    // Production by the exit rule: v(e) over the exit head Z̄; variables
    // not in the head are free (bound only by the exit body).
    let mut free_count = 0usize;
    let mut fresh = || {
        let k = free_count;
        free_count += 1;
        BitSource::Free(k)
    };
    let exit_produce: Vec<BitSource> = v_e
        .iter()
        .map(|&v| {
            position_in(&sirup.exit_head, v)
                .map(BitSource::Tuple)
                .unwrap_or_else(&mut fresh)
        })
        .collect();

    // Production by the recursive rule: v(r) over the head X̄; variables
    // not in the head (the paper's Z/a₄) are free.
    let rec_produce: Vec<BitSource> = v_r
        .iter()
        .map(|&v| {
            position_in(&sirup.head, v)
                .map(BitSource::Tuple)
                .unwrap_or_else(&mut fresh)
        })
        .collect();

    let total_bits = m + free_count;
    if total_bits > MAX_BITS {
        return Err(Error::Discriminator(format!(
            "network derivation enumerates one bit per head position and free v(r) variable: \
             {total_bits} bits, at most {MAX_BITS}"
        )));
    }
    let n = h.processors();
    let mut edges = BTreeSet::new();
    for assignment in 0u64..(1u64 << total_bits) {
        let bit = |src: &BitSource| -> u8 {
            let idx = match src {
                BitSource::Tuple(p) => *p,
                BitSource::Free(k) => m + *k,
            };
            ((assignment >> idx) & 1) as u8
        };
        let j = h.apply(&consume.iter().map(&bit).collect::<Vec<u8>>());
        let i_exit = h.apply(&exit_produce.iter().map(&bit).collect::<Vec<u8>>());
        let i_rec = h.apply(&rec_produce.iter().map(&bit).collect::<Vec<u8>>());
        if i_exit != j {
            edges.insert((i_exit, j));
        }
        if i_rec != j {
            edges.insert((i_rec, j));
        }
    }

    Ok(NetworkGraph {
        processors: n,
        edges,
        labels: (0..n).map(|k| h.label(k)).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discriminator::BitFn;
    use gst_frontend::parse_program;

    fn sirup(src: &str) -> LinearSirup {
        LinearSirup::from_program(&parse_program(src).unwrap().program).unwrap()
    }

    fn vars(s: &LinearSirup, names: &[&str]) -> Vec<Variable> {
        names
            .iter()
            .map(|n| Variable(s.program.interner.get(n).unwrap()))
            .collect()
    }

    /// Paper Example 6 / Figure 3: p(X,Y) :- p(Y,Z), r(X,Z) with
    /// h(a,b) = (g(a), g(b)) on four processors.
    #[test]
    fn figure3_example6_network() {
        let s = sirup("p(X,Y) :- q(X,Y).\np(X,Y) :- p(Y,Z), r(X,Z).");
        let v_r = vars(&s, &["Y", "Z"]);
        let v_e = vars(&s, &["X", "Y"]);
        let h = BitVector::new(BitFn::new(1), 2).unwrap();
        let net = derive_network(&s, &v_r, &v_e, &h).unwrap();
        // Processors (00)=0, (01)=1, (10)=2, (11)=3.
        // Derived in the paper: (00)→(10); by symmetry (11)→(01);
        // (01) and (10) may reach both halves.
        let expect: BTreeSet<(usize, usize)> = [
            (0, 2),
            (1, 0),
            (1, 2),
            (2, 1),
            (2, 3),
            (3, 1),
        ]
        .into_iter()
        .collect();
        assert_eq!(net.edges, expect);
        // The paper's explicit negative claims:
        assert!(!net.has_edge(0, 1), "(00) never sends to (01)");
        assert!(!net.has_edge(0, 3), "(00) never sends to (11)");
        assert!(net.has_edge(0, 2), "(00) may send to (10)");
        assert_eq!(net.labels[0], "(00)");
        assert_eq!(net.labels[2], "(10)");
    }

    /// Paper Example 7 / Figure 4: p(U,V,W) :- p(V,W,Z), q(U,Z) with
    /// h(a₁,a₂,a₃) = g(a₁) − g(a₂) + g(a₃), P = {−1, 0, 1, 2}.
    #[test]
    fn figure4_example7_network() {
        let s = sirup("p(U,V,W) :- s(U,V,W).\np(U,V,W) :- p(V,W,Z), q(U,Z).");
        let v_r = vars(&s, &["V", "W", "Z"]);
        let v_e = vars(&s, &["U", "V", "W"]);
        let h = Linear::new(BitFn::new(1), vec![1, -1, 1]).unwrap();
        let net = derive_network(&s, &v_r, &v_e, &h).unwrap();
        // Solve x1−x2+x3=v, x2−x3+x4=u over {0,1}⁴ by hand:
        // enumerate (x1,x2,x3,x4) → (u,v):
        let mut expect = BTreeSet::new();
        let val_index = |v: i64| match v {
            -1 => 0usize,
            0 => 1,
            1 => 2,
            2 => 3,
            _ => unreachable!(),
        };
        for bits in 0..16u32 {
            let x = |k: u32| ((bits >> k) & 1) as i64;
            let v = x(0) - x(1) + x(2);
            let u = x(1) - x(2) + x(3);
            let (i, j) = (val_index(u), val_index(v));
            if i != j {
                expect.insert((i, j));
            }
        }
        // The exit-rule case adds no edges (equations (1)&(2) force i=j).
        assert_eq!(net.edges, expect);
        assert_eq!(net.labels, vec!["-1", "0", "1", "2"]);
        // Spot checks from the equations: u=2 requires x2=1,x3=0,x4=1 →
        // v = x1−1+0 ∈ {−1, 0}: processor "2" only reaches "−1" and "0".
        assert!(net.has_edge(3, 0));
        assert!(net.has_edge(3, 1));
        assert!(!net.has_edge(3, 2));
        assert!(!net.has_edge(3, 3 /* self excluded anyway */));
    }

    /// Ancestor with v(r) = ⟨Y⟩ (Example 1's choice) under a 1-bit
    /// function: production and consumption agree on position 2, so the
    /// network must be empty — Theorem 3 seen through the §5 lens.
    #[test]
    fn ancestor_with_cycle_choice_needs_no_channels() {
        let s = sirup("anc(X,Y) :- par(X,Y).\nanc(X,Y) :- par(X,Z), anc(Z,Y).");
        let v_r = vars(&s, &["Y"]);
        let v_e = vars(&s, &["Y"]);
        let h = BitVector::new(BitFn::new(1), 1).unwrap();
        let net = derive_network(&s, &v_r, &v_e, &h).unwrap();
        assert!(net.edges.is_empty());
        assert_eq!(net.display(), "(no interprocessor channels)");
    }

    /// Ancestor with v(r) = ⟨Z⟩ (Example 3's choice): Z is not a head
    /// variable, so the producer's bit is free and any processor may send
    /// to any other — the price of Example 3's fragmentation freedom.
    #[test]
    fn ancestor_with_z_choice_is_complete() {
        let s = sirup("anc(X,Y) :- par(X,Y).\nanc(X,Y) :- par(X,Z), anc(Z,Y).");
        let v_r = vars(&s, &["Z"]);
        let v_e = vars(&s, &["X"]);
        let h = BitVector::new(BitFn::new(1), 1).unwrap();
        let net = derive_network(&s, &v_r, &v_e, &h).unwrap();
        let expect: BTreeSet<(usize, usize)> = [(0, 1), (1, 0)].into_iter().collect();
        assert_eq!(net.edges, expect);
        let (have, possible) = net.density();
        assert_eq!((have, possible), (2, 2));
    }

    #[test]
    fn v_r_outside_body_atom_is_rejected() {
        let s = sirup("anc(X,Y) :- par(X,Y).\nanc(X,Y) :- par(X,Z), anc(Z,Y).");
        let v_r = vars(&s, &["X"]); // X not in anc(Z,Y)
        let v_e = vars(&s, &["X"]);
        let h = BitVector::new(BitFn::new(1), 1).unwrap();
        assert!(derive_network(&s, &v_r, &v_e, &h).is_err());
    }

    /// A sirup whose v(e) variable does not occur in the exit head: the
    /// producer bit is free, exercising the fresh-slot path for exit
    /// production.
    #[test]
    fn free_exit_slot_widens_the_network() {
        // t(X) :- s(X, W) — W constrains placement but not the tuple.
        let s = sirup("t(X) :- s(X, W).\nt(X) :- t(Y), e(Y, X).");
        let i = &s.program.interner;
        let w = Variable(i.get("W").unwrap());
        let y = Variable(i.get("Y").unwrap());
        let h = BitVector::new(BitFn::new(1), 1).unwrap();
        // v(r) = ⟨Y⟩ over Ȳ = (Y): consumption is determined by the tuple;
        // v(e) = ⟨W⟩ is free: init tuples can land anywhere.
        let net = derive_network(&s, &[y], &[w], &h).unwrap();
        // Exit production: i free, j = bit(t0) → both cross edges exist.
        let expect: BTreeSet<(usize, usize)> = [(0, 1), (1, 0)].into_iter().collect();
        assert_eq!(net.edges, expect);
    }

    /// Same-generation: v(r) = ⟨U⟩ over the body sg-atom; U does not
    /// appear in the head, so recursive production is fully free.
    #[test]
    fn same_generation_network_is_complete() {
        let s = sirup(
            "sg(X,Y) :- flat(X,Y).\nsg(X,Y) :- up(X,U), sg(U,V), down(V,Y).",
        );
        let i = &s.program.interner;
        let u = Variable(i.get("U").unwrap());
        let x = Variable(i.get("X").unwrap());
        let h = BitVector::new(BitFn::new(1), 1).unwrap();
        let net = derive_network(&s, &[u], &[x], &h).unwrap();
        let (have, possible) = net.density();
        assert_eq!((have, possible), (2, 2), "no compile-time pruning possible");
    }

    #[test]
    fn covers_checks_subset() {
        let net = NetworkGraph {
            processors: 3,
            edges: [(0, 1), (1, 2)].into_iter().collect(),
            labels: vec!["0".into(), "1".into(), "2".into()],
        };
        assert!(net.covers(&[(0, 1)]));
        assert!(net.covers(&[]));
        assert!(!net.covers(&[(2, 0)]));
        assert!(net.display().contains("0 → 1"));
    }
}
