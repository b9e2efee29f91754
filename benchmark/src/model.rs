//! The in-process side of verification and of the layer ladder: load a
//! generated `.dl` file the way `pdatalog run` does, compile the same
//! schemes its `--scheme` flag selects, and compare printed answers with
//! the model `seminaive_eval` computes here.

use std::sync::Arc;

use gst_common::{Error, Result, Value};
use gst_core::prelude::{
    example3_hash_partition, rewrite_general, BaseDistribution, CompiledScheme, DiscriminatorRef,
    HashMod, RuleChoice,
};
use gst_eval::plan::RelationId;
use gst_frontend::{parse_program, Atom, LinearSirup, Program, Term, Variable};
use gst_storage::{Database, Relation};

use crate::gen::fact_line;

/// A parsed program with its facts loaded — what `pdatalog`'s `load` builds.
pub struct Loaded {
    pub program: Program,
    pub db: Database,
    pub facts: usize,
}

pub fn load(text: &str) -> Result<Loaded> {
    let unit = parse_program(text)?;
    let mut db = Database::new(unit.program.interner.clone());
    let facts = db.load_facts(unit.facts)?;
    Ok(Loaded {
        program: unit.program,
        db,
        facts,
    })
}

/// The arity-2 relation id of `name` in `program`.
pub fn rel_id(program: &Program, name: &str) -> RelationId {
    (program.interner.intern(name), 2)
}

/// The goal `pred(c, Y)`.
pub fn goal(program: &Program, pred: &str, c: i64) -> Atom {
    Atom::new(
        program.interner.intern(pred),
        vec![
            Term::Const(Value::Int(c)),
            Term::Var(Variable(program.interner.intern("Y"))),
        ],
    )
}

/// Compile `program` for `n` processors exactly as `pdatalog run
/// --scheme example3|general --workers n` does (same discriminating
/// sequences, same hash seeds), so an in-process rung and the CLI cell
/// execute the same plan.
pub fn build_scheme(
    name: &str,
    program: &Program,
    db: &Database,
    n: usize,
) -> Result<CompiledScheme> {
    match name {
        "example3" => example3_hash_partition(&LinearSirup::from_program(program)?, n, db),
        "general" => {
            let h: DiscriminatorRef = Arc::new(HashMod::new(n, 0xC17));
            let choices = program
                .rules
                .iter()
                .map(|rule| {
                    let v = rule
                        .body_atoms()
                        .flat_map(|a| a.variables().collect::<Vec<_>>())
                        .next()
                        .ok_or_else(|| Error::Shape("rule body has no variable".into()))?;
                    Ok(RuleChoice {
                        v: vec![v],
                        h: h.clone(),
                    })
                })
                .collect::<Result<Vec<_>>>()?;
            rewrite_general(program, &choices, db, BaseDistribution::Shared)
        }
        other => Err(Error::Shape(format!(
            "benchmark does not use scheme `{other}`"
        ))),
    }
}

/// An order-independent hash of a multiset of lines: the line count and
/// the wrapping sum of a 64-bit hash per line. Two outputs agree iff they
/// hold the same lines (up to a 2⁻⁶⁴-scale collision), whatever order
/// they were printed in — the same check a sorted-line hash makes,
/// without sorting a million lines twice per run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LineSet {
    pub count: u64,
    pub sum: u64,
}

impl LineSet {
    pub fn add(&mut self, line: &[u8]) {
        // FNV-1a, then a SplitMix64 finalizer so near-identical lines do
        // not contribute near-identical summands.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in line {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.sum = self.sum.wrapping_add(h ^ (h >> 31));
        self.count += 1;
    }

    /// The fact lines `pdatalog` prints for `rel` under predicate `name`.
    pub fn of_relation(name: &str, rel: &Relation) -> LineSet {
        let mut set = LineSet::default();
        for t in rel.iter() {
            set.add(fact_line(name, t).as_bytes());
        }
        set
    }

    /// The fact lines of a `pdatalog run` stdout (`%` comment lines, which
    /// carry the tuple-count headers, are skipped).
    pub fn of_output(stdout: &[u8]) -> LineSet {
        let mut set = LineSet::default();
        for line in stdout.split(|&b| b == b'\n') {
            if !line.is_empty() && line[0] != b'%' {
                set.add(line);
            }
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gst_common::ituple;

    #[test]
    fn line_sets_ignore_order_and_headers_but_not_content() {
        let rel: Relation = [ituple![1, 2], ituple![3, 4]].into_iter().collect();
        let want = LineSet::of_relation("anc", &rel);
        assert_eq!(want.count, 2);
        assert_eq!(
            LineSet::of_output(b"% anc/2: 2 tuples\nanc(3, 4).\nanc(1, 2).\n"),
            want
        );
        assert_ne!(LineSet::of_output(b"anc(1, 2).\nanc(3, 5).\n"), want);
        assert_ne!(LineSet::of_output(b"anc(1, 2).\n"), want);
        assert_ne!(LineSet::of_output(b"anc(1, 2).\nanc(1, 2).\n"), want);
    }

    #[test]
    fn schemes_compile_for_the_benchmark_programs() {
        let l = load(
            "anc(X,Y) :- par(X,Y).\nanc(X,Y) :- par(X,Z), anc(Z,Y).\npar(1, 2).\npar(2, 3).\n",
        )
        .unwrap();
        assert_eq!(l.facts, 2);
        for name in ["example3", "general"] {
            let scheme = build_scheme(name, &l.program, &l.db, 2).unwrap();
            assert_eq!(scheme.processors(), 2);
            let out = scheme.run().unwrap();
            assert_eq!(out.relations[&rel_id(&l.program, "anc")].len(), 3);
        }
        assert!(build_scheme("nocomm", &l.program, &l.db, 2).is_err());
    }
}
