//! The online query engine.
//!
//! An [`Advisor`] wraps an immutable, `Arc`-shared [`ModelPack`] with per-regime
//! interpolants rebuilt at load time.  The read path is lock-free: every query touches
//! only shared immutable tables, so any number of threads can serve concurrently; the
//! only mutable state is a set of sharded [`tcp_obs::Counter`]s (pack-scoped query
//! stats behind [`Advisor::stats`]) plus global `advisor.latency.*` histograms in the
//! [`tcp_obs::Registry`], so `!stats` and `!metrics` read the same recording machinery.
//! Batches fan out over the workspace's work-stealing driver
//! ([`tcp_cloudsim::run_tasks`]) and are returned in request order, which makes batch
//! output bit-identical for every thread count.

use crate::error::{require, validate_non_negative, validate_positive, AdvisorError, Result};
use crate::pack::{ModelPack, PackSchedule, PolicyCard, RegimePack};
use crate::table::Table2D;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use tcp_cloudsim::run_tasks;
use tcp_numerics::interp::LinearInterp;
use tcp_obs::{Counter, Histogram};

/// The kinds of questions the advisor answers.
///
/// Serializes to the kebab-case wire names (`should-reuse`, `checkpoint-plan`,
/// `expected-cost-makespan`, `best-policy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// "Reuse this aged VM or launch fresh?" (Equation 8, Section 4.2.)
    ShouldReuse,
    /// "What checkpoint schedule should this job use?" (Section 4.3.)
    CheckpointPlan,
    /// "What will this job cost and how long will it take?"
    ExpectedCostMakespan,
    /// "Which policies win in this regime?"
    BestPolicy,
}

/// The advisor's per-kind latency histograms in the metric registry, in
/// request-kind order; `serve-bench` and `advise top` merge all four.
pub const LATENCY_HISTOGRAMS: [&str; 4] = [
    "advisor.latency.should_reuse",
    "advisor.latency.checkpoint_plan",
    "advisor.latency.expected_cost_makespan",
    "advisor.latency.best_policy",
];

impl RequestKind {
    fn index(self) -> usize {
        match self {
            RequestKind::ShouldReuse => 0,
            RequestKind::CheckpointPlan => 1,
            RequestKind::ExpectedCostMakespan => 2,
            RequestKind::BestPolicy => 3,
        }
    }
}

/// Implements kebab-case string (de)serialization for a fieldless enum, so the NDJSON
/// wire format reads `"decision": "launch-fresh"` rather than Rust variant names.  The
/// single variant↔name list also feeds `as_str` and `Display`, so the wire names live
/// in exactly one place per type.
macro_rules! wire_enum {
    ($ty:ident { $($variant:ident => $name:literal),+ $(,)? }) => {
        impl $ty {
            /// The wire name of this value.
            pub fn as_str(self) -> &'static str {
                match self { $($ty::$variant => $name),+ }
            }
        }
        impl serde::Serialize for $ty {
            fn serialize(&self) -> serde::Value {
                serde::Value::Str(self.as_str().to_string())
            }
        }
        impl serde::Deserialize for $ty {
            fn deserialize(value: &serde::Value) -> std::result::Result<Self, serde::Error> {
                let s = value
                    .as_str()
                    .ok_or_else(|| serde::Error::expected("a string", stringify!($ty), value))?;
                match s {
                    $($name => Ok($ty::$variant),)+
                    other => Err(serde::Error::custom(format!(
                        concat!("unknown ", stringify!($ty), " `{}` (expected one of: {})"),
                        other,
                        [$($name),+].join(", ")
                    ))),
                }
            }
        }
        impl std::fmt::Display for $ty {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str(self.as_str())
            }
        }
    };
}

wire_enum!(RequestKind {
    ShouldReuse => "should-reuse",
    CheckpointPlan => "checkpoint-plan",
    ExpectedCostMakespan => "expected-cost-makespan",
    BestPolicy => "best-policy",
});

/// One advisory request (one NDJSON line of `advise serve`).
///
/// `kind` selects the question; the remaining fields parameterise it.  Unused fields are
/// ignored, missing required fields produce
/// [`crate::AdvisorError::MissingInput`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdviceRequest {
    /// The question being asked.
    pub kind: RequestKind,
    /// Opaque correlation id, echoed in the response.
    pub id: Option<u64>,
    /// Regime to answer under; defaults to the pack's first regime.
    pub regime: Option<String>,
    /// Calibration cell to route to (`vm-type/zone/time-of-day`).  Interpreted by the
    /// multi-pack router ([`crate::router::MultiAdvisor`]): requests carrying a cell go
    /// to that cell's pack, requests without one fall back to the pooled pack.  A plain
    /// [`Advisor`] ignores the field (its single pack *is* the routing target).
    pub cell: Option<String>,
    /// Age of the candidate VM, hours.
    pub vm_age: Option<f64>,
    /// Uninterrupted job length, hours.
    pub job_len: Option<f64>,
    /// Checkpoint overhead, minutes (selects the closest checkpoint cell).
    pub overhead_minutes: Option<f64>,
}

impl AdviceRequest {
    fn bare(kind: RequestKind) -> Self {
        AdviceRequest {
            kind,
            id: None,
            regime: None,
            cell: None,
            vm_age: None,
            job_len: None,
            overhead_minutes: None,
        }
    }

    /// Tags the request with a calibration cell for multi-pack routing.
    pub fn with_cell(mut self, cell: impl Into<String>) -> Self {
        self.cell = Some(cell.into());
        self
    }

    /// A reuse-or-launch-fresh question.
    pub fn should_reuse(regime: impl Into<String>, vm_age: f64, job_len: f64) -> Self {
        AdviceRequest {
            regime: Some(regime.into()),
            vm_age: Some(vm_age),
            job_len: Some(job_len),
            ..Self::bare(RequestKind::ShouldReuse)
        }
    }

    /// A checkpoint-schedule question for a job of length `job_len` starting at `vm_age`.
    pub fn checkpoint_plan(regime: impl Into<String>, vm_age: f64, job_len: f64) -> Self {
        AdviceRequest {
            regime: Some(regime.into()),
            vm_age: Some(vm_age),
            job_len: Some(job_len),
            ..Self::bare(RequestKind::CheckpointPlan)
        }
    }

    /// A cost/makespan estimate question.
    pub fn expected_cost_makespan(regime: impl Into<String>, vm_age: f64, job_len: f64) -> Self {
        AdviceRequest {
            regime: Some(regime.into()),
            vm_age: Some(vm_age),
            job_len: Some(job_len),
            ..Self::bare(RequestKind::ExpectedCostMakespan)
        }
    }

    /// A best-policy question.
    pub fn best_policy(regime: impl Into<String>) -> Self {
        AdviceRequest {
            regime: Some(regime.into()),
            ..Self::bare(RequestKind::BestPolicy)
        }
    }
}

/// The VM life phase an age falls into (Section 3.2's bathtub walls).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmPhase {
    /// High early hazard.
    Early,
    /// The stable middle of the bathtub.
    Stable,
    /// Approaching the 24 h reclamation deadline.
    Deadline,
}

wire_enum!(VmPhase {
    Early => "early",
    Stable => "stable",
    Deadline => "deadline",
});

/// A reuse-or-launch decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Run the job on the existing VM.
    Reuse,
    /// Relinquish the VM and launch a fresh one.
    LaunchFresh,
}

wire_enum!(Decision {
    Reuse => "reuse",
    LaunchFresh => "launch-fresh",
});

/// One advisory response (one NDJSON line of `advise serve`).
///
/// Flat by design: `kind` says which fields are populated, everything else is `null`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdviceResponse {
    /// Mirrors the request kind.
    pub kind: RequestKind,
    /// Echoed correlation id.
    pub id: Option<u64>,
    /// The regime that answered.
    pub regime: String,
    /// The calibration cell that answered (multi-pack routing only; `null` for answers
    /// from the pooled pack or a single-pack advisor).
    pub cell: Option<String>,
    /// `should-reuse`: the decision.
    pub decision: Option<Decision>,
    /// `should-reuse`: which bathtub phase the queried age falls into.
    pub vm_phase: Option<VmPhase>,
    /// `should-reuse`: expected makespan on the aged VM (absent past the deadline).
    pub reuse_makespan_hours: Option<f64>,
    /// `should-reuse`: expected makespan on a fresh VM.
    pub fresh_makespan_hours: Option<f64>,
    /// `checkpoint-plan` / `expected-cost-makespan`: expected makespan at the query point.
    pub expected_makespan_hours: Option<f64>,
    /// `expected-cost-makespan`: probability the job is interrupted before finishing.
    pub failure_probability: Option<f64>,
    /// `expected-cost-makespan`: VM survival probability at the queried age.
    pub survival_probability: Option<f64>,
    /// `expected-cost-makespan`: expected preemptible cost of the job, USD.
    pub expected_cost_usd: Option<f64>,
    /// `expected-cost-makespan`: on-demand comparison cost (no preemptions), USD.
    pub on_demand_cost_usd: Option<f64>,
    /// `checkpoint-plan`: checkpoint cost of the cell that answered, minutes.
    pub checkpoint_cost_minutes: Option<f64>,
    /// `checkpoint-plan`: work before each checkpoint, hours (fresh-VM schedule of the
    /// nearest tabulated job length).
    pub intervals_hours: Option<Vec<f64>>,
    /// `checkpoint-plan`: number of checkpoints in the schedule.
    pub checkpoint_count: Option<usize>,
    /// `best-policy`: recommended scheduling policy.
    pub scheduling: Option<String>,
    /// `best-policy`: recommended checkpointing policy.
    pub checkpointing: Option<String>,
    /// `best-policy`: the full precomputed ranking card.
    pub card: Option<PolicyCard>,
}

impl AdviceResponse {
    fn bare(kind: RequestKind, id: Option<u64>, regime: &str) -> Self {
        AdviceResponse {
            kind,
            id,
            regime: regime.to_string(),
            cell: None,
            decision: None,
            vm_phase: None,
            reuse_makespan_hours: None,
            fresh_makespan_hours: None,
            expected_makespan_hours: None,
            failure_probability: None,
            survival_probability: None,
            expected_cost_usd: None,
            on_demand_cost_usd: None,
            checkpoint_cost_minutes: None,
            intervals_hours: None,
            checkpoint_count: None,
            scheduling: None,
            checkpointing: None,
            card: None,
        }
    }
}

/// Runtime interpolants for one regime.
struct RegimeEngine {
    horizon: f64,
    survival: LinearInterp,
    first_moment: LinearInterp,
    checkpoints: Vec<CheckpointEngine>,
}

impl RegimeEngine {
    /// Equation 8 from the tabulated first moment:
    /// `E[T_s] = T + W(min(s+T, L)) − W(s)`.
    ///
    /// The `min` resolves the deadline kink exactly — jobs that would cross the horizon
    /// pay the full remaining preemption mass and then grow linearly in `T`, which is
    /// what the closed form does too.
    fn makespan(&self, vm_age: f64, job_len: f64) -> f64 {
        let s = vm_age.min(self.horizon);
        let u = (vm_age + job_len).min(self.horizon);
        job_len + self.first_moment.eval(u) - self.first_moment.eval(s)
    }

    /// Conditional job-failure probability from the tabulated survival curve:
    /// `1 − S(s+T)/S(s)`, with jobs crossing the deadline failing with certainty.
    fn failure_probability(&self, vm_age: f64, job_len: f64) -> f64 {
        if vm_age + job_len >= self.horizon {
            return 1.0;
        }
        let alive = self.survival.eval(vm_age);
        if alive <= 1e-12 {
            return 1.0;
        }
        ((alive - self.survival.eval(vm_age + job_len)) / alive).clamp(0.0, 1.0)
    }
}

struct CheckpointEngine {
    cost_minutes: f64,
    expected: Table2D,
    job_lens: Vec<f64>,
    schedules: Vec<PackSchedule>,
}

/// The model families tracked by the per-family serving counters; anything new lands
/// in the trailing `other` bucket until it gets a slot of its own.
const FAMILIES: [&str; 7] = [
    "bathtub",
    "weibull",
    "exponential",
    "phased",
    "empirical",
    "mixture",
    "other",
];

fn family_index(family: &str) -> usize {
    FAMILIES
        .iter()
        .position(|f| *f == family)
        .unwrap_or(FAMILIES.len() - 1)
}

/// Pack-scoped query counters, one sharded [`Counter`] per request kind and family.
///
/// These belong to the [`Advisor`] instance (they reset when a `!reload` swaps the
/// pack in), while the latency histograms live in the global [`tcp_obs::Registry`]
/// (process lifetime): the two surfaces share the same sharded recording machinery
/// from `tcp-obs`, so `!stats` and `!metrics` cannot drift apart.
struct AdvisorCounters {
    kinds: [Counter; 4],
    /// Queries answered per served curve family (`served_family` of the regime).
    served: [Counter; FAMILIES.len()],
    /// Queries answered per DP-table family (`dp_family` of the regime).
    dp: [Counter; FAMILIES.len()],
}

impl AdvisorCounters {
    fn new() -> Self {
        AdvisorCounters {
            kinds: std::array::from_fn(|_| Counter::new()),
            served: std::array::from_fn(|_| Counter::new()),
            dp: std::array::from_fn(|_| Counter::new()),
        }
    }
}

/// Aggregated serving statistics.
///
/// Field order is alphabetical on purpose: derived serialization emits fields in
/// declaration order, and the `!stats` wire contract promises deterministically
/// sorted JSON keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct AdvisorStats {
    /// `best-policy` queries answered.
    pub best_policy: u64,
    /// `checkpoint-plan` queries answered.
    pub checkpoint_plan: u64,
    /// `expected-cost-makespan` queries answered.
    pub expected_cost_makespan: u64,
    /// `should-reuse` queries answered.
    pub should_reuse: u64,
}

impl AdvisorStats {
    /// Total queries answered.
    pub fn total(&self) -> u64 {
        self.should_reuse + self.checkpoint_plan + self.expected_cost_makespan + self.best_policy
    }

    /// Adds another set of counts into this one, kind by kind.
    pub fn merge(&mut self, other: &AdvisorStats) {
        self.best_policy += other.best_policy;
        self.checkpoint_plan += other.checkpoint_plan;
        self.expected_cost_makespan += other.expected_cost_makespan;
        self.should_reuse += other.should_reuse;
    }
}

/// Per-family serving counters: how many queries each model family actually answered,
/// keyed by the answering regime's `served_family` (the Equation 8 curves) and
/// `dp_family` (the checkpoint tables / policy card).  Only families with non-zero
/// counts appear, in sorted order — the `!stats` histogram operators read to see which
/// models a pack is really serving.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FamilyStats {
    /// Queries per DP-table family.  (Fields are declared alphabetically so derived
    /// serialization emits sorted keys, matching the `!stats` contract.)
    pub dp: BTreeMap<String, u64>,
    /// Queries per served curve family.
    pub served: BTreeMap<String, u64>,
}

impl FamilyStats {
    /// Adds another set of counters into this one.
    pub fn merge(&mut self, other: &FamilyStats) {
        for (family, count) in &other.served {
            *self.served.entry(family.clone()).or_default() += count;
        }
        for (family, count) in &other.dp {
            *self.dp.entry(family.clone()).or_default() += count;
        }
    }
}

/// The online advisory query engine.
pub struct Advisor {
    pack: Arc<ModelPack>,
    engines: Vec<RegimeEngine>,
    /// Per-regime `(served_family, dp_family)` counter slots, resolved at load time so
    /// the nanosecond record path indexes fixed arrays instead of hashing strings.
    families: Vec<(usize, usize)>,
    counters: AdvisorCounters,
    /// Global per-kind latency histograms (`advisor.latency.*`), resolved from the
    /// registry once at load time.
    latency: [&'static Histogram; 4],
    /// Per-kind trace sites (`advisor.lookup.*`), interned once at load time so the
    /// per-query span carries no string hashing — these are the *warm* table-lookup
    /// spans, in contrast to the builder's cold `advisor.build.dp` spans.
    trace_sites: [u32; 4],
}

impl Advisor {
    /// Builds an advisor from a model pack, rebuilding the fast interpolants.
    pub fn new(pack: ModelPack) -> Result<Self> {
        pack.validate()?;
        let engines = pack
            .regimes
            .iter()
            .map(RegimeEngine::new)
            .collect::<Result<Vec<_>>>()?;
        let families = pack
            .regimes
            .iter()
            .map(|r| (family_index(&r.served_family), family_index(&r.dp_family)))
            .collect();
        Ok(Advisor {
            pack: Arc::new(pack),
            engines,
            families,
            counters: AdvisorCounters::new(),
            latency: LATENCY_HISTOGRAMS.map(tcp_obs::histogram),
            trace_sites: [
                tcp_obs::trace::site_id("advisor.lookup.should_reuse"),
                tcp_obs::trace::site_id("advisor.lookup.checkpoint_plan"),
                tcp_obs::trace::site_id("advisor.lookup.expected_cost_makespan"),
                tcp_obs::trace::site_id("advisor.lookup.best_policy"),
            ],
        })
    }

    /// Loads an advisor straight from pack JSON.
    pub fn from_json(text: &str) -> Result<Self> {
        Advisor::new(ModelPack::from_json(text)?)
    }

    /// The underlying pack.
    pub fn pack(&self) -> &ModelPack {
        &self.pack
    }

    /// Aggregated query counters across all statistics shards.
    pub fn stats(&self) -> AdvisorStats {
        AdvisorStats {
            best_policy: self.counters.kinds[RequestKind::BestPolicy.index()].get(),
            checkpoint_plan: self.counters.kinds[RequestKind::CheckpointPlan.index()].get(),
            expected_cost_makespan: self.counters.kinds[RequestKind::ExpectedCostMakespan.index()]
                .get(),
            should_reuse: self.counters.kinds[RequestKind::ShouldReuse.index()].get(),
        }
    }

    /// Per-family query counters across all statistics shards (non-zero entries only).
    pub fn family_stats(&self) -> FamilyStats {
        let mut out = FamilyStats::default();
        for (i, family) in FAMILIES.iter().enumerate() {
            let served = self.counters.served[i].get();
            let dp = self.counters.dp[i].get();
            if served > 0 {
                out.served.insert(family.to_string(), served);
            }
            if dp > 0 {
                out.dp.insert(family.to_string(), dp);
            }
        }
        out
    }

    fn record(&self, kind: RequestKind, regime_index: usize, started: Instant) {
        // Counters scatter across cache-line-padded shards inside `tcp_obs::Counter`
        // (the shard is a pure per-thread function) — record() sits on the nanosecond
        // path and must never contend.
        self.counters.kinds[kind.index()].incr();
        let (served, dp) = self.families[regime_index];
        self.counters.served[served].incr();
        self.counters.dp[dp].incr();
        // Latency lands in the global registry, subject to the process-wide
        // `tcp_obs::set_enabled` gate.
        self.latency[kind.index()].record_duration(started.elapsed());
    }

    fn resolve_regime(&self, requested: Option<&str>) -> Result<usize> {
        match requested {
            None => Ok(0),
            Some(name) => self
                .pack
                .regimes
                .iter()
                .position(|r| r.name == name)
                .ok_or_else(|| AdvisorError::UnknownRegime {
                    regime: name.to_string(),
                    available: self.pack.regime_names(),
                }),
        }
    }

    /// Answers one request.
    pub fn advise(&self, request: &AdviceRequest) -> Result<AdviceResponse> {
        // lint:allow(determinism) latency metric only: `started` feeds the query-stats histogram, never a response field
        let started = Instant::now();
        // The per-kind warm-lookup span (inert unless this thread is tracing a
        // request); the site id is pre-interned so this is pointer work only.
        let _span = tcp_obs::trace::Span::enter(self.trace_sites[request.kind.index()], 0);
        let index = self.resolve_regime(request.regime.as_deref())?;
        let regime = &self.pack.regimes[index];
        let engine = &self.engines[index];
        let response = match request.kind {
            RequestKind::ShouldReuse => Self::should_reuse(regime, engine, request),
            RequestKind::CheckpointPlan => Self::checkpoint_plan(regime, engine, request),
            RequestKind::ExpectedCostMakespan => Self::cost_makespan(regime, engine, request),
            RequestKind::BestPolicy => Ok(Self::best_policy(regime, request)),
        }?;
        // Count (and time) only successfully answered queries, after validation: every
        // error class (parse, unknown regime, invalid input) is excluded uniformly, so
        // the serving counters and latency histograms mean one thing.
        self.record(request.kind, index, started);
        Ok(response)
    }

    /// Answers a batch of requests over `threads` worker threads (`0` = all CPUs),
    /// returning responses in request order — bit-identical for every thread count.
    pub fn advise_batch(
        &self,
        requests: &[AdviceRequest],
        threads: usize,
    ) -> Vec<Result<AdviceResponse>> {
        run_tasks(requests.len(), threads, |i| self.advise(&requests[i]))
    }

    fn phase_of(regime: &RegimePack, age: f64) -> VmPhase {
        if age < regime.phase_early_end_hours {
            VmPhase::Early
        } else if age < regime.phase_deadline_start_hours {
            VmPhase::Stable
        } else {
            VmPhase::Deadline
        }
    }

    fn should_reuse(
        regime: &RegimePack,
        engine: &RegimeEngine,
        request: &AdviceRequest,
    ) -> Result<AdviceResponse> {
        let vm_age = validate_non_negative("vm_age", require("vm_age", request.vm_age)?)?;
        let job_len = validate_positive("job_len", require("job_len", request.job_len)?)?;
        let mut response = AdviceResponse::bare(request.kind, request.id, &regime.name);
        let fresh = engine.makespan(0.0, job_len);
        response.fresh_makespan_hours = Some(fresh);
        response.vm_phase = Some(Self::phase_of(regime, vm_age));
        if vm_age >= regime.horizon_hours {
            // A VM at (or past) the reclamation deadline cannot run anything.
            response.decision = Some(Decision::LaunchFresh);
            return Ok(response);
        }
        let reuse = engine.makespan(vm_age, job_len);
        response.reuse_makespan_hours = Some(reuse);
        response.decision = Some(if reuse <= fresh {
            Decision::Reuse
        } else {
            Decision::LaunchFresh
        });
        Ok(response)
    }

    fn checkpoint_plan(
        regime: &RegimePack,
        engine: &RegimeEngine,
        request: &AdviceRequest,
    ) -> Result<AdviceResponse> {
        let job_len = validate_positive("job_len", require("job_len", request.job_len)?)?;
        let vm_age = match request.vm_age {
            Some(age) => validate_non_negative("vm_age", age)?,
            None => 0.0,
        };
        let cell = match request.overhead_minutes {
            Some(overhead) => {
                let overhead = validate_positive("overhead_minutes", overhead)?;
                engine
                    .checkpoints
                    .iter()
                    .min_by(|a, b| {
                        let da = (a.cost_minutes - overhead).abs();
                        let db = (b.cost_minutes - overhead).abs();
                        da.total_cmp(&db)
                            .then(a.cost_minutes.total_cmp(&b.cost_minutes))
                    })
                    .ok_or_else(|| {
                        AdvisorError::Pack("pack regime carries no checkpoint cells".to_string())
                    })?
            }
            None => engine.checkpoints.first().ok_or_else(|| {
                AdvisorError::Pack("pack regime carries no checkpoint cells".to_string())
            })?,
        };
        // Nearest tabulated job length carries the concrete fresh-VM schedule; ties
        // resolve toward the shorter job for determinism.
        let nearest = cell
            .job_lens
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                let da = (*a - job_len).abs();
                let db = (*b - job_len).abs();
                da.total_cmp(&db).then(a.total_cmp(b))
            })
            .map(|(i, _)| i)
            .ok_or_else(|| {
                AdvisorError::Pack("checkpoint cell carries an empty job grid".to_string())
            })?;
        let schedule = &cell.schedules[nearest];
        let mut response = AdviceResponse::bare(request.kind, request.id, &regime.name);
        response.checkpoint_cost_minutes = Some(cell.cost_minutes);
        response.expected_makespan_hours = Some(cell.expected.eval(vm_age, job_len));
        response.intervals_hours = Some(schedule.intervals_hours.clone());
        response.checkpoint_count = Some(schedule.intervals_hours.len());
        Ok(response)
    }

    fn cost_makespan(
        regime: &RegimePack,
        engine: &RegimeEngine,
        request: &AdviceRequest,
    ) -> Result<AdviceResponse> {
        let vm_age = validate_non_negative("vm_age", require("vm_age", request.vm_age)?)?;
        let job_len = validate_positive("job_len", require("job_len", request.job_len)?)?;
        let vcpus = regime.vcpus as f64;
        let mut response = AdviceResponse::bare(request.kind, request.id, &regime.name);
        response.failure_probability = Some(engine.failure_probability(vm_age, job_len));
        response.survival_probability = Some(engine.survival.eval(vm_age));
        response.on_demand_cost_usd = Some(regime.on_demand_per_vcpu_hour * vcpus * job_len);
        // A VM at (or past) the reclamation deadline cannot run anything: no finite
        // makespan or preemptible cost exists, matching should_reuse's treatment.
        if vm_age < regime.horizon_hours {
            let makespan = engine.makespan(vm_age, job_len);
            response.expected_makespan_hours = Some(makespan);
            response.expected_cost_usd = Some(regime.preemptible_per_vcpu_hour * vcpus * makespan);
        }
        Ok(response)
    }

    fn best_policy(regime: &RegimePack, request: &AdviceRequest) -> AdviceResponse {
        let mut response = AdviceResponse::bare(request.kind, request.id, &regime.name);
        response.scheduling = Some(regime.policy_card.recommended_scheduling.clone());
        response.checkpointing = Some(regime.policy_card.recommended_checkpointing.clone());
        response.card = Some(regime.policy_card.clone());
        response
    }
}

impl RegimeEngine {
    fn new(regime: &RegimePack) -> Result<Self> {
        let survival = LinearInterp::new(regime.ages.clone(), regime.survival.clone())
            .map_err(|e| AdvisorError::Pack(format!("regime `{}`: {e}", regime.name)))?;
        let first_moment = LinearInterp::new(regime.ages.clone(), regime.first_moment.clone())
            .map_err(|e| AdvisorError::Pack(format!("regime `{}`: {e}", regime.name)))?;
        let checkpoints = regime
            .checkpoint_cells
            .iter()
            .map(|cell| {
                Ok(CheckpointEngine {
                    cost_minutes: cell.checkpoint_cost_minutes,
                    expected: Table2D::new(
                        cell.ages.clone(),
                        cell.job_lens.clone(),
                        cell.expected_makespan.clone(),
                    )?,
                    job_lens: cell.job_lens.clone(),
                    schedules: cell.schedules.clone(),
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(RegimeEngine {
            horizon: regime.horizon_hours,
            survival,
            first_moment,
            checkpoints,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::tests::{tiny_builder, tiny_spec};

    fn advisor() -> Advisor {
        Advisor::new(tiny_builder().build_from_spec(&tiny_spec()).unwrap()).unwrap()
    }

    #[test]
    fn should_reuse_matches_the_scheduling_policy() {
        let a = advisor();
        // Stable mid-life VM: reuse (Figure 5's story).
        let r = a
            .advise(&AdviceRequest::should_reuse("gcp-day", 8.0, 6.0))
            .unwrap();
        assert_eq!(r.decision, Some(Decision::Reuse));
        assert_eq!(r.vm_phase, Some(VmPhase::Stable));
        assert!(r.reuse_makespan_hours.unwrap() <= r.fresh_makespan_hours.unwrap());
        // Near the deadline: launch fresh.
        let r = a
            .advise(&AdviceRequest::should_reuse("gcp-day", 21.0, 6.0))
            .unwrap();
        assert_eq!(r.decision, Some(Decision::LaunchFresh));
        // Past the deadline: launch fresh with no reuse estimate.
        let r = a
            .advise(&AdviceRequest::should_reuse("gcp-day", 30.0, 6.0))
            .unwrap();
        assert_eq!(r.decision, Some(Decision::LaunchFresh));
        assert_eq!(r.reuse_makespan_hours, None);
    }

    #[test]
    fn invalid_inputs_are_rejected_not_clamped() {
        let a = advisor();
        for request in [
            AdviceRequest::should_reuse("gcp-day", f64::NAN, 6.0),
            AdviceRequest::should_reuse("gcp-day", -1.0, 6.0),
            AdviceRequest::should_reuse("gcp-day", 3.0, -6.0),
            AdviceRequest::should_reuse("gcp-day", 3.0, f64::INFINITY),
            AdviceRequest::checkpoint_plan("gcp-day", 0.0, f64::NAN),
            AdviceRequest::expected_cost_makespan("gcp-day", 3.0, 0.0),
        ] {
            let err = a.advise(&request).unwrap_err();
            assert!(
                matches!(err, AdvisorError::InvalidInput { .. }),
                "{request:?} -> {err}"
            );
        }
        let mut bad_overhead = AdviceRequest::checkpoint_plan("gcp-day", 0.0, 4.0);
        bad_overhead.overhead_minutes = Some(-2.0);
        assert!(matches!(
            a.advise(&bad_overhead).unwrap_err(),
            AdvisorError::InvalidInput {
                field: "overhead_minutes",
                ..
            }
        ));
        // Rejected queries are not counted as served.
        assert_eq!(a.stats().total(), 0);
    }

    #[test]
    fn missing_required_fields_are_typed_errors() {
        let a = advisor();
        let req = AdviceRequest::bare(RequestKind::ShouldReuse);
        assert!(matches!(
            a.advise(&req).unwrap_err(),
            AdvisorError::MissingInput { field: "vm_age" }
        ));
    }

    #[test]
    fn unknown_regime_lists_available() {
        let a = advisor();
        let err = a
            .advise(&AdviceRequest::best_policy("mars-east1"))
            .unwrap_err();
        match err {
            AdvisorError::UnknownRegime { regime, available } => {
                assert_eq!(regime, "mars-east1");
                assert_eq!(available, vec!["gcp-day", "exp8"]);
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn default_regime_is_the_packs_first() {
        let a = advisor();
        let mut req = AdviceRequest::bare(RequestKind::BestPolicy);
        req.regime = None;
        let r = a.advise(&req).unwrap();
        assert_eq!(r.regime, "gcp-day");
    }

    #[test]
    fn checkpoint_plan_selects_the_nearest_overhead_cell() {
        let a = advisor();
        let mut req = AdviceRequest::checkpoint_plan("gcp-day", 0.0, 4.0);
        req.overhead_minutes = Some(4.2);
        let r = a.advise(&req).unwrap();
        assert_eq!(r.checkpoint_cost_minutes, Some(5.0));
        req.overhead_minutes = Some(1.4);
        let r = a.advise(&req).unwrap();
        assert_eq!(r.checkpoint_cost_minutes, Some(1.0));
        assert!(r.checkpoint_count.unwrap() >= 1);
        let total: f64 = r.intervals_hours.unwrap().iter().sum();
        assert!(total > 0.0);
    }

    #[test]
    fn cost_makespan_reports_the_five_x_story() {
        let a = advisor();
        let r = a
            .advise(&AdviceRequest::expected_cost_makespan("gcp-day", 8.0, 4.0))
            .unwrap();
        let expected = r.expected_cost_usd.unwrap();
        let on_demand = r.on_demand_cost_usd.unwrap();
        // Preemptible at ~5x discount beats on-demand even with preemption overhead.
        assert!(expected < on_demand, "{expected} vs {on_demand}");
        let p = r.failure_probability.unwrap();
        assert!((0.0..=1.0).contains(&p));
        let s = r.survival_probability.unwrap();
        assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn batch_is_order_preserving_and_thread_invariant() {
        let a = advisor();
        let requests: Vec<AdviceRequest> = (0..200)
            .map(|i| {
                let age = (i % 24) as f64;
                let job = 1.0 + (i % 8) as f64;
                let regime = if i % 2 == 0 { "gcp-day" } else { "exp8" };
                let mut req = match i % 4 {
                    0 => AdviceRequest::should_reuse(regime, age, job),
                    1 => AdviceRequest::checkpoint_plan(regime, age, job),
                    2 => AdviceRequest::expected_cost_makespan(regime, age, job),
                    _ => AdviceRequest::best_policy(regime),
                };
                req.id = Some(i as u64);
                req
            })
            .collect();
        let one = a.advise_batch(&requests, 1);
        let many = a.advise_batch(&requests, 4);
        assert_eq!(one, many);
        for (i, r) in one.iter().enumerate() {
            assert_eq!(r.as_ref().unwrap().id, Some(i as u64));
        }
    }

    #[test]
    fn stats_count_served_queries_across_threads() {
        let a = advisor();
        assert_eq!(a.stats().total(), 0);
        let requests: Vec<AdviceRequest> = (0..64)
            .map(|_| AdviceRequest::should_reuse("gcp-day", 5.0, 4.0))
            .collect();
        a.advise_batch(&requests, 4);
        let stats = a.stats();
        assert_eq!(stats.should_reuse, 64);
        assert_eq!(stats.total(), 64);
    }
}
