//! The dynamic-programming checkpointing policy (Section 4.3, Equations 9–13).
//!
//! The job is divided into steps of `step_hours` each.  From a checkpointed state with `j`
//! steps remaining and VM age `t`, the policy chooses how many steps `i` to run before the
//! next checkpoint (cost `δ`).  Over that window the job either succeeds (no preemption)
//! and continues from age `t + iΔ + δ` with `j − i` steps left, or is preempted, loses the
//! un-checkpointed work, and resumes from the most recent checkpoint on a **fresh VM**
//! (age 0), exactly as the paper's prose describes.  The expected-makespan recursion is
//!
//! ```text
//! V(0, t) = 0
//! V(j, t) = min_{1 ≤ i ≤ j}  p_succ(t, w) · ( w + V(j−i, t+w) )
//!                          + p_fail(t, w) · ( E[lost | fail] + restart + V(j, 0) )
//! with w = iΔ + δ
//! ```
//!
//! The self-reference through `V(j, 0)` (a failure sends the job back to a fresh VM with
//! the same remaining work) is resolved by a fixed-point iteration per `j`; the map is a
//! contraction because the failure probability of the chosen action is strictly below one.
//!
//! The window terms — `p_succ(t, w)`, `E[lost | fail]` and the age bin of `t + w` — depend
//! on the age bin and the window length `i`, never on the remaining work `j`.  A solve
//! therefore evaluates them once, into a `bins × J` window table, before the recursion
//! starts; the recursion itself (every `j`, every fixed-point iteration) is array
//! arithmetic over that table.  That makes the model calls O(bins × J) instead of
//! O(bins × J²), with the same operations in the same order, so the value and argmin
//! tables are bit-identical to evaluating the window terms inline.
//!
//! The DP is **generic in the hazard**: it consumes any [`LifetimeModel`] — the
//! closed-form bathtub fit (the fast path, via [`DpCheckpointPolicy::new`]), or any
//! other family materialised as quadrature tables
//! ([`tcp_core::TabulatedLifetime`], via [`DpCheckpointPolicy::from_model`]).  Every
//! probability and expectation below is expressed through survival `S(t)`, the
//! first-moment curve `W(t)` and the deadline atom, which is exactly the interface the
//! trait carries; for the bathtub model those calls resolve to Equation 1's
//! antiderivatives, so the generic recursion reproduces the historical bathtub-only DP
//! bit for bit.

use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex, PoisonError};
use tcp_core::{BathtubModel, LifetimeModel};
use tcp_numerics::{NumericsError, Result};

/// Configuration of the checkpointing policies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CheckpointConfig {
    /// Cost of writing one checkpoint, in hours (the paper uses 1 minute).
    pub checkpoint_cost_hours: f64,
    /// Work-step granularity of the dynamic program, in hours.
    pub step_hours: f64,
    /// Time to acquire and boot a replacement VM after a preemption, in hours.
    pub restart_overhead_hours: f64,
}

impl CheckpointConfig {
    /// The paper's evaluation settings: 1-minute checkpoints, 5-minute DP steps, 1-minute
    /// restart overhead.
    pub fn paper_defaults() -> Self {
        CheckpointConfig {
            checkpoint_cost_hours: 1.0 / 60.0,
            step_hours: 5.0 / 60.0,
            restart_overhead_hours: 1.0 / 60.0,
        }
    }

    /// A coarse configuration (15-minute steps) suitable for unit tests and quick sweeps.
    pub fn coarse() -> Self {
        CheckpointConfig {
            checkpoint_cost_hours: 1.0 / 60.0,
            step_hours: 0.25,
            restart_overhead_hours: 1.0 / 60.0,
        }
    }

    fn validate(&self) -> Result<()> {
        if !(self.checkpoint_cost_hours > 0.0) || !self.checkpoint_cost_hours.is_finite() {
            return Err(NumericsError::invalid("checkpoint cost must be positive"));
        }
        if !(self.step_hours > 0.0) || !self.step_hours.is_finite() {
            return Err(NumericsError::invalid("step size must be positive"));
        }
        if !(self.restart_overhead_hours >= 0.0) || !self.restart_overhead_hours.is_finite() {
            return Err(NumericsError::invalid(
                "restart overhead must be non-negative",
            ));
        }
        Ok(())
    }
}

/// A concrete checkpoint schedule for one job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointSchedule {
    /// Amount of work (hours) executed before each checkpoint, in order.  Sums to the job
    /// length (up to step-quantisation).
    pub intervals_hours: Vec<f64>,
    /// Expected makespan (hours) of the job under this policy, from the DP value function.
    pub expected_makespan: f64,
    /// The job length the schedule was computed for (hours, after step quantisation).
    pub job_len: f64,
    /// The VM age (hours) the job was assumed to start at.
    pub start_age: f64,
}

impl CheckpointSchedule {
    /// Number of checkpoints taken (= number of intervals).
    pub fn checkpoint_count(&self) -> usize {
        self.intervals_hours.len()
    }

    /// Expected fractional increase in running time over the bare job length.
    pub fn expected_overhead_fraction(&self) -> f64 {
        if self.job_len <= 0.0 {
            return 0.0;
        }
        (self.expected_makespan - self.job_len) / self.job_len
    }
}

/// The model-driven DP checkpointing policy, generic over the lifetime model.
pub struct DpCheckpointPolicy {
    model: Arc<dyn LifetimeModel>,
    config: CheckpointConfig,
    age_step: f64,
    age_bins: usize,
    /// Cache of solved DP tables, keyed by the number of job steps they cover.  The tables
    /// for `j` steps contain every smaller job as a sub-problem, so the largest solve is
    /// reused for all subsequent (re-)planning calls — which the Monte-Carlo evaluator and
    /// the batch service issue constantly.
    cache: Mutex<Option<SolvedTables>>,
}

/// DP value table `V[j][age-index]`, shared between clones of the policy.
type ValueTable = Arc<Vec<Vec<f64>>>;
/// DP argmin table (steps to run before the next checkpoint), aligned with [`ValueTable`].
type ChoiceTable = Arc<Vec<Vec<u32>>>;

#[derive(Debug, Clone)]
struct SolvedTables {
    job_steps: usize,
    value: ValueTable,
    choice: ChoiceTable,
}

/// The window terms of one solve, row-major by age bin: entry `bin · steps + (i − 1)`
/// belongs to the window of `i` work steps plus one checkpoint, opened at the bin's age.
struct WindowTable {
    steps: usize,
    /// Conditional probability that the window completes without a preemption.
    p_succ: Vec<f64>,
    /// Expected hours lost when the window is preempted.
    lost: Vec<f64>,
    /// Age bin the VM reaches when the window completes.
    next_bin: Vec<u32>,
}

/// One age bin's slice of a [`WindowTable`], indexed by `i − 1`.
struct WindowRow<'a> {
    p_succ: &'a [f64],
    lost: &'a [f64],
    next_bin: &'a [u32],
}

impl WindowTable {
    fn row(&self, bin: usize) -> WindowRow<'_> {
        let span = bin * self.steps..(bin + 1) * self.steps;
        WindowRow {
            p_succ: &self.p_succ[span.clone()],
            lost: &self.lost[span.clone()],
            next_bin: &self.next_bin[span],
        }
    }
}

impl Clone for DpCheckpointPolicy {
    fn clone(&self) -> Self {
        DpCheckpointPolicy {
            model: self.model.clone(),
            config: self.config,
            age_step: self.age_step,
            age_bins: self.age_bins,
            cache: Mutex::new(self.lock_cache().clone()),
        }
    }
}

impl std::fmt::Debug for DpCheckpointPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DpCheckpointPolicy")
            .field("family", &self.model.family())
            .field("config", &self.config)
            .field("age_bins", &self.age_bins)
            .finish()
    }
}

impl DpCheckpointPolicy {
    /// Creates a policy for a fitted bathtub model — the closed-form fast path.
    pub fn new(model: BathtubModel, config: CheckpointConfig) -> Result<Self> {
        Self::from_model(Arc::new(model), config)
    }

    /// Creates a policy for *any* lifetime model — the generic-hazard DP.  The model's
    /// survival, first-moment curve and deadline atom fully determine the recursion, so
    /// Weibull/exponential/phased/empirical winners (tabulated by
    /// [`tcp_core::TabulatedLifetime`]) plan checkpoints exactly like the bathtub fit
    /// plans its own.
    pub fn from_model(model: Arc<dyn LifetimeModel>, config: CheckpointConfig) -> Result<Self> {
        config.validate()?;
        let horizon = model.horizon();
        if !(horizon > 0.0) || !horizon.is_finite() {
            return Err(NumericsError::invalid("model horizon must be positive"));
        }
        // Age grid resolution: half a work step is plenty (ages only influence the DP
        // through the slowly varying CDF), capped to at most ~2000 bins.
        let age_step = (0.5 * config.step_hours).clamp(horizon / 2000.0, 0.25);
        let age_bins = (horizon / age_step).ceil() as usize + 1;
        Ok(DpCheckpointPolicy {
            model,
            config,
            age_step,
            age_bins,
            cache: Mutex::new(None),
        })
    }

    /// The policy configuration.
    pub fn config(&self) -> CheckpointConfig {
        self.config
    }

    /// The preemption model driving the policy.
    pub fn model(&self) -> &dyn LifetimeModel {
        self.model.as_ref()
    }

    fn age_of_bin(&self, bin: usize) -> f64 {
        (bin as f64 * self.age_step).min(self.model.horizon())
    }

    fn bin_of_age(&self, age: f64) -> usize {
        ((age / self.age_step).round() as usize).min(self.age_bins - 1)
    }

    /// Conditional survival of the window `(t, t+w]` given the VM is alive at age `t`.
    fn window_survival(&self, t: f64, w: f64) -> f64 {
        let horizon = self.model.horizon();
        if t + w >= horizon {
            return 0.0;
        }
        let s_t = self.model.survival(t);
        if s_t <= 1e-12 {
            return 0.0;
        }
        (self.model.survival(t + w) / s_t).clamp(0.0, 1.0)
    }

    /// Expected time lost (hours since the window start) given a preemption occurs inside
    /// the window `(t, t+w]` — Equation 13 adapted to the conditional setting, expressed
    /// entirely through the model-generic surface (CDF, `W`, deadline atom).
    ///
    /// The target is `E[(X − t)·1{fail}] = ∫_t^{L⁻} (x − t) f(x) dx + atom·(L − t)` for
    /// deadline-crossing windows.  `partial_expectation(t, L)` already carries the
    /// atom's `atom·L` term (the [`LifetimeModel`] first-moment contract), so the
    /// crossing branch only subtracts the `atom·t` shift — adding `atom·(L − t)` on
    /// top, as an earlier revision did, double-counts the atom by `atom·L`.
    fn expected_lost_given_failure(&self, t: f64, w: f64) -> f64 {
        let model = self.model.as_ref();
        let horizon = model.horizon();
        let u = (t + w).min(horizon);
        let mut mass = model.cdf(u) - model.cdf(t);
        // `cdf(L − ε)` excludes the atom, so the `t`-shift below only covers the
        // continuous mass; the atom's shift is handled in the crossing branch.
        let mut first_moment =
            model.partial_expectation(t, u) - t * (model.cdf(u.min(horizon - 1e-9)) - model.cdf(t));
        if t + w >= horizon {
            // Window crosses the deadline: every survivor is reclaimed at the horizon.
            let atom = model.deadline_atom();
            mass = (1.0 - model.cdf(t)).max(mass);
            first_moment -= atom * t;
        }
        if mass <= 1e-12 {
            return 0.5 * w;
        }
        (first_moment / mass).clamp(0.0, w)
    }

    /// Evaluates the window terms of every `(age bin, i)` pair with `1 ≤ i ≤ job_steps`.
    fn window_table(&self, job_steps: usize) -> WindowTable {
        let delta = self.config.checkpoint_cost_hours;
        let step = self.config.step_hours;
        let len = self.age_bins * job_steps;
        let mut table = WindowTable {
            steps: job_steps,
            p_succ: Vec::with_capacity(len),
            lost: Vec::with_capacity(len),
            next_bin: Vec::with_capacity(len),
        };
        for bin in 0..self.age_bins {
            let t = self.age_of_bin(bin);
            for i in 1..=job_steps {
                let work = i as f64 * step;
                let w = work + delta;
                table.p_succ.push(self.window_survival(t, w));
                table.lost.push(self.expected_lost_given_failure(t, w));
                // Bins are capped at ~2000 (see `from_model`), so they fit a `u32`.
                table.next_bin.push(self.bin_of_age(t + w) as u32);
            }
        }
        table
    }

    /// Computes the full DP tables for a job of `job_steps` steps.  Returns
    /// `(value, choice)` tables indexed `[j][age_bin]`.
    fn solve(&self, job_steps: usize) -> (Vec<Vec<f64>>, Vec<Vec<u32>>) {
        let delta = self.config.checkpoint_cost_hours;
        let step = self.config.step_hours;
        let bins = self.age_bins;
        let windows = self.window_table(job_steps);

        let mut value = vec![vec![0.0f64; bins]; job_steps + 1];
        let mut choice = vec![vec![1u32; bins]; job_steps + 1];

        for j in 1..=job_steps {
            // Fixed-point for v0 = V(j, 0): the failure branch of every state returns to a
            // fresh VM with the same remaining work.  Age bin 0 is age 0.
            let mut v0 = j as f64 * step + delta; // optimistic seed
            for _ in 0..60 {
                let (new_v0, _) = self.best_action(j, windows.row(0), v0, &value);
                if (new_v0 - v0).abs() < 1e-9 {
                    v0 = new_v0;
                    break;
                }
                v0 = new_v0;
            }
            // Fill the row with v0 fixed.
            for bin in 0..bins {
                let (v, best_i) = self.best_action(j, windows.row(bin), v0, &value);
                value[j][bin] = v;
                choice[j][bin] = best_i;
            }
        }
        (value, choice)
    }

    /// Evaluates `min_i Q(j, t, i)` given the window terms of age `t`, the lower rows of
    /// the value table and the current estimate of `V(j, 0)`.
    fn best_action(&self, j: usize, row: WindowRow<'_>, v0: f64, value: &[Vec<f64>]) -> (f64, u32) {
        let delta = self.config.checkpoint_cost_hours;
        let step = self.config.step_hours;
        let restart = self.config.restart_overhead_hours;

        let mut best = f64::INFINITY;
        let mut best_i = 1;
        for i in 1..=j {
            let work = i as f64 * step;
            let w = work + delta;
            let p_succ = row.p_succ[i - 1];
            let p_fail = 1.0 - p_succ;
            let lost = row.lost[i - 1];
            let cont = if j - i == 0 {
                0.0
            } else {
                value[j - i][row.next_bin[i - 1] as usize]
            };
            let q = p_succ * (w + cont) + p_fail * (lost + restart + v0);
            if q < best {
                best = q;
                best_i = i;
            }
        }
        // `schedule` rejects jobs whose step count does not fit a `u32`.
        (best, best_i as u32)
    }

    /// The solved-table cache.  A panic while another thread held the lock leaves the
    /// cache either empty or holding complete tables, so a poisoned lock is still usable.
    fn lock_cache(&self) -> std::sync::MutexGuard<'_, Option<SolvedTables>> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns cached DP tables covering at least `job_steps` steps, solving if necessary.
    fn solved(&self, job_steps: usize) -> (ValueTable, ChoiceTable) {
        let mut guard = self.lock_cache();
        if let Some(tables) = guard.as_ref() {
            if tables.job_steps >= job_steps {
                return (tables.value.clone(), tables.choice.clone());
            }
        }
        let (value, choice) = self.solve(job_steps);
        let tables = SolvedTables {
            job_steps,
            value: Arc::new(value),
            choice: Arc::new(choice),
        };
        let out = (tables.value.clone(), tables.choice.clone());
        *guard = Some(tables);
        out
    }

    /// Computes the optimal checkpoint schedule for a job of length `job_len` hours
    /// starting at VM age `start_age` hours.
    pub fn schedule(&self, job_len: f64, start_age: f64) -> Result<CheckpointSchedule> {
        if !(job_len > 0.0) || !job_len.is_finite() {
            return Err(NumericsError::invalid("job length must be positive"));
        }
        if !(0.0..self.model.horizon()).contains(&start_age) {
            return Err(NumericsError::invalid(format!(
                "start age {start_age} must lie in [0, horizon)"
            )));
        }
        let step = self.config.step_hours;
        let job_steps = (job_len / step).round().max(1.0) as usize;
        if u32::try_from(job_steps).is_err() {
            return Err(NumericsError::invalid(format!(
                "job length {job_len} spans more than {} DP steps",
                u32::MAX
            )));
        }
        let (value, choice) = self.solved(job_steps);

        // Extract the success-path schedule.
        let mut intervals = Vec::new();
        let mut j = job_steps;
        let mut age = start_age;
        while j > 0 {
            let bin = self.bin_of_age(age);
            let i = (choice[j][bin] as usize).clamp(1, j);
            intervals.push(i as f64 * step);
            age = (age + i as f64 * step + self.config.checkpoint_cost_hours)
                .min(self.model.horizon());
            j -= i;
        }

        let start_bin = self.bin_of_age(start_age);
        Ok(CheckpointSchedule {
            intervals_hours: intervals,
            expected_makespan: value[job_steps][start_bin],
            job_len: job_steps as f64 * step,
            start_age,
        })
    }

    /// Expected makespan only (no schedule extraction).
    pub fn expected_makespan(&self, job_len: f64, start_age: f64) -> Result<f64> {
        Ok(self.schedule(job_len, start_age)?.expected_makespan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(config: CheckpointConfig) -> DpCheckpointPolicy {
        DpCheckpointPolicy::new(BathtubModel::paper_representative(), config).unwrap()
    }

    /// The closed-form bathtub plus every tabulated family the packs drive the DP with.
    fn family_models() -> Vec<Arc<dyn LifetimeModel>> {
        let horizon = 24.0;
        let tabulate = |family: &str, dist: &dyn tcp_dists::LifetimeDistribution| {
            Arc::new(
                tcp_core::TabulatedLifetime::from_distribution(family, dist, horizon, 241).unwrap(),
            ) as Arc<dyn LifetimeModel>
        };
        let empirical = tcp_dists::EmpiricalLifetime::new(
            &[0.4, 1.1, 2.0, 3.5, 5.0, 7.5, 11.0, 16.0, 21.0, 24.0],
            Some(horizon),
        )
        .unwrap();
        vec![
            Arc::new(BathtubModel::paper_representative()),
            tabulate(
                "exponential",
                &tcp_dists::Exponential::new(1.0 / 8.0).unwrap(),
            ),
            tabulate("weibull", &tcp_dists::Weibull::new(0.12, 1.4).unwrap()),
            tabulate("phased", &tcp_dists::PhasedHazard::representative()),
            tabulate("empirical", &empirical),
        ]
    }

    /// The record-weighted winner mixture, as the pooled pack builds it.
    fn mixture_model() -> Arc<dyn LifetimeModel> {
        let components: Vec<(f64, Arc<dyn tcp_dists::LifetimeDistribution>)> = vec![
            (
                0.3,
                Arc::new(tcp_dists::Exponential::new(1.0 / 8.0).unwrap()),
            ),
            (0.7, Arc::new(tcp_dists::PhasedHazard::representative())),
        ];
        Arc::new(tcp_core::TabulatedLifetime::from_mixture(&components, 24.0, 241).unwrap())
    }

    /// The recursion with every window term evaluated inline, once per `(j, bin, i)`
    /// and again on every fixed-point iteration — the reference the window table must
    /// reproduce bit for bit.
    fn reference_solve(p: &DpCheckpointPolicy, job_steps: usize) -> (Vec<Vec<f64>>, Vec<Vec<u32>>) {
        let delta = p.config.checkpoint_cost_hours;
        let step = p.config.step_hours;
        let bins = p.age_bins;
        let mut value = vec![vec![0.0f64; bins]; job_steps + 1];
        let mut choice = vec![vec![1u32; bins]; job_steps + 1];
        for j in 1..=job_steps {
            let mut v0 = j as f64 * step + delta;
            for _ in 0..60 {
                let (new_v0, _) = reference_best_action(p, j, 0.0, v0, &value);
                if (new_v0 - v0).abs() < 1e-9 {
                    v0 = new_v0;
                    break;
                }
                v0 = new_v0;
            }
            for bin in 0..bins {
                let t = p.age_of_bin(bin);
                let (v, best_i) = reference_best_action(p, j, t, v0, &value);
                value[j][bin] = v;
                choice[j][bin] = best_i as u32;
            }
        }
        (value, choice)
    }

    fn reference_best_action(
        p: &DpCheckpointPolicy,
        j: usize,
        t: f64,
        v0: f64,
        value: &[Vec<f64>],
    ) -> (f64, usize) {
        let delta = p.config.checkpoint_cost_hours;
        let step = p.config.step_hours;
        let restart = p.config.restart_overhead_hours;
        let mut best = f64::INFINITY;
        let mut best_i = 1;
        for i in 1..=j {
            let work = i as f64 * step;
            let w = work + delta;
            let p_succ = p.window_survival(t, w);
            let p_fail = 1.0 - p_succ;
            let lost = p.expected_lost_given_failure(t, w);
            let next_age = t + w;
            let cont = if j - i == 0 {
                0.0
            } else {
                value[j - i][p.bin_of_age(next_age)]
            };
            let q = p_succ * (w + cont) + p_fail * (lost + restart + v0);
            if q < best {
                best = q;
                best_i = i;
            }
        }
        (best, best_i)
    }

    /// Asserts two `(value, choice)` table pairs are equal bit for bit.
    fn assert_tables_identical(
        label: &str,
        (value, choice): (&[Vec<f64>], &[Vec<u32>]),
        (ref_value, ref_choice): (&[Vec<f64>], &[Vec<u32>]),
    ) {
        assert_eq!(value.len(), ref_value.len(), "{label}: row count");
        for (j, (row, ref_row)) in value.iter().zip(ref_value).enumerate() {
            let bits: Vec<u64> = row.iter().map(|v| v.to_bits()).collect();
            let ref_bits: Vec<u64> = ref_row.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, ref_bits, "{label}: value row {j}");
        }
        assert_eq!(choice, ref_choice, "{label}: choice table");
    }

    /// Solves `job_hours` with the window table and with the inline reference.
    fn assert_matches_reference(label: &str, p: &DpCheckpointPolicy, job_hours: f64) {
        let steps = (job_hours / p.config.step_hours).round() as usize;
        let fast = p.solve(steps);
        let reference = reference_solve(p, steps);
        assert_tables_identical(label, (&fast.0, &fast.1), (&reference.0, &reference.1));
    }

    #[test]
    fn window_table_solve_matches_the_inline_recursion_for_every_family() {
        let mut models = family_models();
        models.push(mixture_model());
        for model in models {
            let family = model.family().to_string();
            let p = DpCheckpointPolicy::from_model(model, CheckpointConfig::coarse()).unwrap();
            assert_matches_reference(&format!("{family} coarse"), &p, 4.0);
        }
    }

    #[test]
    fn window_table_solve_matches_the_inline_recursion_at_paper_defaults() {
        let models = [
            Arc::new(BathtubModel::paper_representative()) as Arc<dyn LifetimeModel>,
            mixture_model(),
        ];
        for model in models {
            let family = model.family().to_string();
            let p =
                DpCheckpointPolicy::from_model(model, CheckpointConfig::paper_defaults()).unwrap();
            assert_matches_reference(&format!("{family} paper defaults"), &p, 3.0);
        }
    }

    #[test]
    fn window_table_solve_matches_the_inline_recursion_at_both_age_step_clamps() {
        let mut config = CheckpointConfig::coarse();
        // 0.36 minutes: half a step is below horizon/2000, so the age step clamps up.
        config.step_hours = 0.006;
        let tiny = policy(config);
        assert_eq!(tiny.age_step, 24.0 / 2000.0);
        assert_matches_reference("tiny step", &tiny, 0.12);
        // 45 minutes: half a step is above 0.25 h, so the age step clamps down.
        config.step_hours = 0.75;
        let wide = policy(config);
        assert_eq!(wide.age_step, 0.25);
        assert_matches_reference("wide step", &wide, 8.25);
    }

    #[test]
    fn growing_the_cache_gives_the_tables_of_a_direct_solve() {
        let config = CheckpointConfig::coarse();
        let steps = (8.0 / config.step_hours).round() as usize;
        let grown = policy(config);
        grown.expected_makespan(4.0, 0.0).unwrap();
        let (value, choice) = grown.solved(steps);
        let direct = policy(config);
        let (direct_value, direct_choice) = direct.solved(steps);
        assert_tables_identical(
            "4 h then 8 h",
            (&value, &choice),
            (&direct_value, &direct_choice),
        );
        let reference = reference_solve(&direct, steps);
        assert_tables_identical(
            "8 h vs reference",
            (&value, &choice),
            (&reference.0, &reference.1),
        );
        // The shorter job reads a prefix of the larger tables: same answer either way.
        assert_eq!(
            grown.expected_makespan(4.0, 3.0).unwrap().to_bits(),
            policy(config)
                .expected_makespan(4.0, 3.0)
                .unwrap()
                .to_bits()
        );
    }

    #[test]
    fn a_poisoned_cache_lock_still_serves_the_tables() {
        let p = Arc::new(policy(CheckpointConfig::coarse()));
        let expected = p.expected_makespan(2.0, 0.0).unwrap();
        let holder = p.clone();
        let _ = std::thread::spawn(move || {
            let _guard = holder.cache.lock().unwrap();
            panic!("poison the cache lock");
        })
        .join();
        assert!(p.cache.is_poisoned());
        assert_eq!(p.expected_makespan(2.0, 0.0).unwrap(), expected);
        assert_eq!(
            p.clone().expected_makespan(3.0, 0.0).unwrap(),
            p.expected_makespan(3.0, 0.0).unwrap()
        );
    }

    #[test]
    fn config_validation() {
        let model = BathtubModel::paper_representative();
        let mut bad = CheckpointConfig::coarse();
        bad.checkpoint_cost_hours = 0.0;
        assert!(DpCheckpointPolicy::new(model, bad).is_err());
        let mut bad = CheckpointConfig::coarse();
        bad.step_hours = -1.0;
        assert!(DpCheckpointPolicy::new(model, bad).is_err());
        let mut bad = CheckpointConfig::coarse();
        bad.restart_overhead_hours = f64::NAN;
        assert!(DpCheckpointPolicy::new(model, bad).is_err());
    }

    #[test]
    fn schedule_covers_the_whole_job() {
        let p = policy(CheckpointConfig::coarse());
        let sched = p.schedule(4.0, 0.0).unwrap();
        let total: f64 = sched.intervals_hours.iter().sum();
        assert!((total - sched.job_len).abs() < 1e-9);
        assert!(
            sched.checkpoint_count() >= 2,
            "expected multiple checkpoints, got {sched:?}"
        );
        assert!(sched.intervals_hours.iter().all(|&i| i > 0.0));
        assert!(sched.expected_makespan >= sched.job_len);
    }

    #[test]
    fn schedule_argument_validation() {
        let p = policy(CheckpointConfig::coarse());
        assert!(p.schedule(0.0, 0.0).is_err());
        assert!(p.schedule(-1.0, 0.0).is_err());
        assert!(p.schedule(2.0, 25.0).is_err());
    }

    #[test]
    fn intervals_grow_as_the_vm_stabilises() {
        // The paper's example: a 5-hour job on a fresh VM gets increasing intervals
        // (15, 28, 38, 59, 128 minutes) because the failure rate drops after the early
        // phase.  Exact values depend on the fitted parameters; the qualitative property is
        // that the first interval is the shortest and the last is the longest.
        let p = policy(CheckpointConfig::paper_defaults());
        let sched = p.schedule(5.0, 0.0).unwrap();
        let first = sched.intervals_hours[0];
        let last = *sched.intervals_hours.last().unwrap();
        assert!(sched.checkpoint_count() >= 3, "{sched:?}");
        assert!(
            last > first,
            "expected increasing intervals: {:?}",
            sched.intervals_hours
        );
        // first interval should be well under an hour on a fresh VM
        assert!(first <= 0.75, "first interval = {first}");
    }

    #[test]
    fn stable_phase_jobs_checkpoint_less() {
        let p = policy(CheckpointConfig::coarse());
        let fresh = p.schedule(3.0, 0.0).unwrap();
        let stable = p.schedule(3.0, 8.0).unwrap();
        // In the stable phase the failure rate is low, so the DP takes fewer checkpoints
        // and expects a lower makespan.
        assert!(stable.expected_makespan <= fresh.expected_makespan + 1e-9);
        assert!(stable.checkpoint_count() <= fresh.checkpoint_count());
    }

    #[test]
    fn overhead_fraction_small_in_stable_phase() {
        // Figure 8a: with the model-driven policy the increase in running time is ~1-5 %
        // when the job starts in the stable phase.
        let p = policy(CheckpointConfig::paper_defaults());
        let sched = p.schedule(4.0, 8.0).unwrap();
        let overhead = sched.expected_overhead_fraction();
        assert!(overhead < 0.06, "overhead = {overhead}");
        assert!(overhead > 0.0);
    }

    #[test]
    fn near_deadline_start_is_expensive() {
        let p = policy(CheckpointConfig::coarse());
        let stable = p.expected_makespan(4.0, 8.0).unwrap();
        let late = p.expected_makespan(4.0, 21.0).unwrap();
        assert!(late > stable, "late {late} stable {stable}");
    }

    #[test]
    fn expected_lost_is_bounded_by_window() {
        let p = policy(CheckpointConfig::coarse());
        for &t in &[0.0, 2.0, 10.0, 22.0, 23.5] {
            for &w in &[0.25, 1.0, 3.0] {
                let lost = p.expected_lost_given_failure(t, w);
                assert!(lost >= 0.0 && lost <= w + 1e-9, "t={t} w={w} lost={lost}");
            }
        }
    }

    #[test]
    fn generic_hazard_dp_matches_the_bathtub_closed_form() {
        // The acceptance bar of the model-generic redesign: running the DP against the
        // bathtub fit *tabulated by quadrature* (the exact path every non-bathtub
        // winner takes) reproduces the closed-form DP within 5e-3 across the grid,
        // including start ages whose windows cross the deadline.
        let model = BathtubModel::paper_representative();
        let closed = DpCheckpointPolicy::new(model, CheckpointConfig::coarse()).unwrap();
        let tabulated = tcp_core::TabulatedLifetime::from_distribution(
            "bathtub",
            model.dist(),
            model.horizon(),
            1441,
        )
        .unwrap();
        let generic =
            DpCheckpointPolicy::from_model(Arc::new(tabulated), CheckpointConfig::coarse())
                .unwrap();
        for &job in &[1.0, 3.0, 6.0] {
            for &age in &[0.0, 2.0, 8.0, 16.0, 21.5, 23.0] {
                let a = closed.expected_makespan(job, age).unwrap();
                let b = generic.expected_makespan(job, age).unwrap();
                assert!(
                    (a - b).abs() <= 5e-3 * a.max(1.0),
                    "job {job} age {age}: closed {a} vs generic {b}"
                );
            }
        }
    }

    #[test]
    fn bathtub_fast_path_is_bitwise_identical_through_the_trait() {
        // `new` wraps the same model the generic entry point receives; because every
        // bathtub trait method resolves to the Equation 1 antiderivatives, both paths
        // produce the *same* value table, not merely a close one.
        let model = BathtubModel::paper_representative();
        let a = DpCheckpointPolicy::new(model, CheckpointConfig::coarse()).unwrap();
        let b =
            DpCheckpointPolicy::from_model(Arc::new(model), CheckpointConfig::coarse()).unwrap();
        for &(job, age) in &[(2.0, 0.0), (4.0, 7.0), (5.0, 20.0)] {
            assert_eq!(
                a.expected_makespan(job, age).unwrap(),
                b.expected_makespan(job, age).unwrap()
            );
        }
    }

    #[test]
    fn value_function_monotone_in_checkpoint_cost_for_every_family() {
        // A more expensive checkpoint can never make the optimal plan cheaper.
        for model in family_models() {
            let family = model.family().to_string();
            let mut prev = 0.0f64;
            for &cost_minutes in &[0.5, 2.0, 8.0] {
                let config = CheckpointConfig {
                    checkpoint_cost_hours: cost_minutes / 60.0,
                    step_hours: 0.25,
                    restart_overhead_hours: 1.0 / 60.0,
                };
                let policy = DpCheckpointPolicy::from_model(model.clone(), config).unwrap();
                let v = policy.expected_makespan(4.0, 0.0).unwrap();
                assert!(
                    v >= prev - 1e-9,
                    "{family}: cost {cost_minutes}min gave {v} < previous {prev}"
                );
                assert!(v >= 4.0, "{family}: makespan below job length");
                prev = v;
            }
        }
    }

    #[test]
    fn window_survival_monotone_in_window_length() {
        let p = policy(CheckpointConfig::coarse());
        for &t in &[0.0, 5.0, 15.0] {
            let mut prev = 1.0;
            for k in 1..10 {
                let s = p.window_survival(t, k as f64 * 0.5);
                assert!(s <= prev + 1e-12);
                prev = s;
            }
        }
        // windows crossing the deadline never survive
        assert_eq!(p.window_survival(23.0, 2.0), 0.0);
    }
}
