//! A1: ablation of the planner's two optimizations (DESIGN.md design
//! choices) — delta-leading join order and eager constraint pushdown —
//! on sequential semi-naive evaluation. All four combinations compute
//! identical results and firing counts; only wall time differs.

use gst_bench::micro::{BenchmarkId, Criterion};
use gst_bench::{criterion_group, criterion_main};
use gst_eval::{seminaive_eval_with, PlanOptions};
use gst_workloads::{layered, linear_ancestor};

fn bench_ablation(c: &mut Criterion) {
    let fx = linear_ancestor();
    let db = fx.database(&layered(6, 80, 3, 99));
    let mut group = c.benchmark_group("planner-ablation");
    group.sample_size(10);
    for (name, delta_leading, eager_constraints) in [
        ("delta+eager (default)", true, true),
        ("delta+late", true, false),
        ("source+eager", false, true),
        ("source+late", false, false),
    ] {
        let opts = PlanOptions {
            delta_leading,
            eager_constraints,
        };
        group.bench_with_input(BenchmarkId::from_parameter(name), &opts, |b, &opts| {
            b.iter(|| seminaive_eval_with(&fx.program, &db, opts).unwrap())
        });
    }
    group.finish();
}


/// Constraint pushdown only matters when a worker's inbox holds tuples
/// that *fail* its constraint — exactly the §7 general scheme on
/// Example 8, where each anc tuple is routed for two different join
/// occurrences: eager placement discards the wrong-occurrence tuples
/// before the second (expensive) join; late placement joins first and
/// filters after.
fn bench_constraint_pushdown(c: &mut Criterion) {
    use std::sync::Arc;

    use gst_core::discriminator::{DiscriminatorRef, HashMod};
    use gst_core::prelude::{rewrite_general, RuleChoice};
    use gst_core::schemes::BaseDistribution;
    use gst_eval::FixpointEngine;
    use gst_workloads::nonlinear_ancestor;

    let fx = nonlinear_ancestor();
    let db = fx.database(&gst_workloads::grid(8, 8));
    let h: DiscriminatorRef = Arc::new(HashMod::new(4, 13));
    let choices = RuleChoice::by_name(&fx.program, &["Y", "Z"], &h);
    let scheme =
        rewrite_general(&fx.program, &choices, &db, BaseDistribution::Shared).unwrap();
    let worker = scheme.workers[0].clone();

    let mut group = c.benchmark_group("constraint-pushdown");
    group.sample_size(10);
    for (name, eager) in [("eager (default)", true), ("late", false)] {
        let opts = PlanOptions {
            delta_leading: true,
            eager_constraints: eager,
        };
        group.bench_with_input(BenchmarkId::from_parameter(name), &opts, |b, &opts| {
            b.iter(|| {
                let mut engine = FixpointEngine::with_routes(
                    &worker.program.program,
                    worker.edb.clone(),
                    &worker.program.extra_idb(),
                    worker.program.processor,
                    &worker.program.routes,
                    opts,
                )
                .unwrap();
                engine.run_to_fixpoint().unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablation, bench_constraint_pushdown);
criterion_main!(benches);
