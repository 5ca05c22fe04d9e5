//! Advisor benchmark: tabled queries against direct per-query evaluation.
//!
//! The advisor's pitch is that precomputed tables answer policy questions in
//! nanoseconds where direct evaluation needs quadrature (Equation 8) or a full dynamic
//! program (Section 4.3) per query.  The `tabled_*` benches exercise the serving path
//! end to end (validation, table lookups, response assembly); the `direct_*` benches
//! answer the same questions from scratch the way the offline code does.  The headline
//! comparisons are `tabled_checkpoint_plan` vs `direct_checkpoint_plan_cold` (a cold DP
//! solve per query) and `tabled_best_policy` vs `direct_best_policy`; run the bench for
//! the current figures.  `direct_should_reuse_quadrature` is the one direct path that
//! is already cheap, because the bathtub model has a closed-form antiderivative; for
//! empirical or phased ground truths (no closed form) the tabled path wins there too.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tcp_advisor::{AdviceRequest, Advisor, PackBuilder};
use tcp_core::analysis::expected_makespan_from_age;
use tcp_core::BathtubModel;
use tcp_policy::{
    average_failure_probability, CheckpointConfig, DpCheckpointPolicy, MemorylessScheduler,
    ModelDrivenScheduler,
};
use tcp_scenarios::SweepSpec;

fn spec() -> SweepSpec {
    SweepSpec::from_toml(
        r#"
[sweep]
name = "advisor-bench"

[[regime]]
name = "paper"
kind = "bathtub"
a = 0.45
tau1 = 1.0
tau2 = 0.8

[workload]
checkpoint_cost_minutes = [1.0]
dp_step_minutes = 5.0
"#,
    )
    .expect("bench spec parses")
}

fn dp_config() -> CheckpointConfig {
    CheckpointConfig {
        checkpoint_cost_hours: 1.0 / 60.0,
        step_hours: 5.0 / 60.0,
        restart_overhead_hours: 1.0 / 60.0,
    }
}

fn bench_advisor(c: &mut Criterion) {
    let advisor = Advisor::new(
        PackBuilder {
            max_checkpoint_job_hours: 6.0,
            ..PackBuilder::default()
        }
        .build_from_spec(&spec())
        .expect("pack builds"),
    )
    .expect("advisor loads");
    let model = BathtubModel::paper_representative();

    let mut group = c.benchmark_group("advisor");

    // --- The tabled serving path -------------------------------------------------
    let reuse = AdviceRequest::should_reuse("paper", 8.0, 6.0);
    group.bench_function("tabled_should_reuse", |b| {
        b.iter(|| advisor.advise(black_box(&reuse)).unwrap())
    });
    let cost = AdviceRequest::expected_cost_makespan("paper", 8.0, 6.0);
    group.bench_function("tabled_cost_makespan", |b| {
        b.iter(|| advisor.advise(black_box(&cost)).unwrap())
    });
    let plan = AdviceRequest::checkpoint_plan("paper", 0.0, 5.0);
    group.bench_function("tabled_checkpoint_plan", |b| {
        b.iter(|| advisor.advise(black_box(&plan)).unwrap())
    });
    let policy = AdviceRequest::best_policy("paper");
    group.bench_function("tabled_best_policy", |b| {
        b.iter(|| advisor.advise(black_box(&policy)).unwrap())
    });

    // --- Direct per-query evaluation (what the advisor replaces) -----------------
    group.bench_function("direct_should_reuse_quadrature", |b| {
        b.iter(|| {
            let reuse = expected_makespan_from_age(model.dist(), black_box(8.0), black_box(6.0));
            let fresh = expected_makespan_from_age(model.dist(), 0.0, black_box(6.0));
            black_box(reuse <= fresh)
        })
    });
    // A cold DP solve per query: the honest cost of answering a checkpoint-plan
    // question without tables.
    group.sample_size(10);
    group.bench_function("direct_checkpoint_plan_cold", |b| {
        b.iter(|| {
            let policy = DpCheckpointPolicy::new(model, dp_config()).unwrap();
            black_box(policy.schedule(black_box(5.0), 0.0).unwrap())
        })
    });
    group.bench_function("direct_best_policy", |b| {
        let ours = ModelDrivenScheduler::new(model);
        let memoryless = MemorylessScheduler;
        b.iter(|| {
            let a = average_failure_probability(&ours, &model, 6.0, 96).unwrap();
            let b2 = average_failure_probability(&memoryless, &model, 6.0, 96).unwrap();
            black_box(a < b2)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_advisor);
criterion_main!(benches);
