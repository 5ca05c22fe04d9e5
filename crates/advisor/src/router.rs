//! Multi-pack routing and hot reload.
//!
//! [`MultiAdvisor`] holds one [`Advisor`] per calibration cell plus the pooled
//! fallback and routes each request by its optional `cell` field: a request carrying a
//! cell goes to that cell's pack, a request without one falls back to the pooled pack,
//! and an unknown cell is a typed error listing what is loaded.  A single [`ModelPack`]
//! loads as a pooled-only router, so every serving path speaks the same type.
//!
//! [`AdvisorHandle`] adds hot reload on top: the current router lives behind an
//! `RwLock<Arc<…>>`, readers snapshot the `Arc` (lock held only for the clone), and a
//! reload swaps the `Arc` — in-flight batches keep answering from the snapshot they
//! took, untouched by the swap.

use crate::engine::{AdviceRequest, AdviceResponse, Advisor, AdvisorStats, FamilyStats};
use crate::error::{AdvisorError, Result};
use crate::pack::{ModelPack, MultiPack};
use std::sync::{Arc, RwLock};

/// The cell-routing query engine: pooled fallback plus per-cell advisors.
pub struct MultiAdvisor {
    name: String,
    pooled: Advisor,
    /// `(cell name, advisor)`, sorted by cell name for binary-search routing.
    cells: Vec<(String, Advisor)>,
}

impl MultiAdvisor {
    /// Builds a router from a per-cell pack set.
    pub fn from_multi(multi: MultiPack) -> Result<Self> {
        // Only the routing invariant (strictly sorted cell names, for binary search)
        // is checked here; per-pack table validation happens inside `Advisor::new`,
        // and documents arriving through `from_json` were already fully validated.
        if !multi.cells.windows(2).all(|w| match w {
            [a, b] => a.cell < b.cell,
            _ => true,
        }) {
            return Err(AdvisorError::Pack(
                "cell packs must be unique and sorted by cell name".to_string(),
            ));
        }
        let name = multi.name.clone();
        let pooled = Advisor::new(multi.pooled)?;
        let cells = multi
            .cells
            .into_iter()
            .map(|entry| Ok((entry.cell, Advisor::new(entry.pack)?)))
            .collect::<Result<Vec<_>>>()?;
        Ok(MultiAdvisor {
            name,
            pooled,
            cells,
        })
    }

    /// Wraps a single pack as a pooled-only router (no routable cells).
    pub fn from_pack(pack: ModelPack) -> Result<Self> {
        let name = pack.name.clone();
        Ok(MultiAdvisor {
            name,
            pooled: Advisor::new(pack)?,
            cells: Vec::new(),
        })
    }

    /// Loads a router from JSON, accepting either a [`MultiPack`] or a plain
    /// [`ModelPack`] document.
    pub fn from_json(text: &str) -> Result<Self> {
        match MultiPack::from_json(text) {
            Ok(multi) => MultiAdvisor::from_multi(multi),
            Err(multi_err) => match ModelPack::from_json(text) {
                Ok(pack) => MultiAdvisor::from_pack(pack),
                Err(pack_err) => Err(AdvisorError::Pack(format!(
                    "not a loadable pack (as a multi-pack: {multi_err}; as a single \
                     pack: {pack_err})"
                ))),
            },
        }
    }

    /// The pack-set name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The pooled (fallback) advisor.
    pub fn pooled(&self) -> &Advisor {
        &self.pooled
    }

    /// Names of the routable cells, in sorted order.
    pub fn cell_names(&self) -> Vec<String> {
        self.cells.iter().map(|(cell, _)| cell.clone()).collect()
    }

    /// Answers one request, routing by its `cell` field.
    pub fn advise(&self, request: &AdviceRequest) -> Result<AdviceResponse> {
        // Pack/cell resolution span: arg 0 = pooled fallback, arg = cell index + 1
        // for a routed request (inert unless this thread is tracing a request).
        match request.cell.as_deref() {
            None => {
                let _span = tcp_obs::span!("advisor.route", 0u64);
                self.pooled.advise(request)
            }
            Some(cell) => {
                let index = self
                    .cells
                    .binary_search_by(|(name, _)| name.as_str().cmp(cell))
                    .map_err(|_| AdvisorError::UnknownCell {
                        cell: cell.to_string(),
                        available: self.cell_names(),
                    })?;
                let _span = tcp_obs::span!("advisor.route", index as u64 + 1);
                let mut response = self.cells[index].1.advise(request)?;
                response.cell = Some(cell.to_string());
                Ok(response)
            }
        }
    }

    /// The pooled advisor followed by every cell advisor.
    fn advisors(&self) -> impl Iterator<Item = &Advisor> {
        std::iter::once(&self.pooled).chain(self.cells.iter().map(|(_, advisor)| advisor))
    }

    /// Aggregated per-family counters across the pooled pack and every cell pack.
    pub fn family_stats(&self) -> FamilyStats {
        self.advisors()
            .fold(FamilyStats::default(), |mut total, advisor| {
                total.merge(&advisor.family_stats());
                total
            })
    }

    /// Aggregated serving statistics across the pooled pack and every cell pack.
    pub fn stats(&self) -> AdvisorStats {
        self.advisors()
            .fold(AdvisorStats::default(), |mut total, advisor| {
                total.merge(&advisor.stats());
                total
            })
    }
}

/// A hot-reloadable slot holding the current [`MultiAdvisor`].
///
/// Readers call [`AdvisorHandle::current`] to snapshot an `Arc` and serve from it; a
/// [`AdvisorHandle::reload`] swaps the slot without disturbing snapshots already taken.
pub struct AdvisorHandle {
    current: RwLock<Arc<MultiAdvisor>>,
}

/// Records the pack swap in gauges: `advisor.pack.loaded_at_secs` (monotonic
/// timestamp, the basis for `pack_age_secs` in `!health`/`!stats` and for
/// `age`-kind SLO rules) and `advisor.pack.format_version`.
fn publish_pack_gauges(advisor: &MultiAdvisor) {
    tcp_obs::gauge("advisor.pack.loaded_at_secs").set(tcp_obs::log::now_monotonic_secs());
    tcp_obs::gauge("advisor.pack.format_version")
        .set(advisor.pooled().pack().format_version as f64);
}

impl AdvisorHandle {
    /// Creates a handle serving `advisor`.  Stamps the pack gauges, so serving
    /// starts with a fresh `pack_age_secs`.
    pub fn new(advisor: MultiAdvisor) -> Self {
        publish_pack_gauges(&advisor);
        AdvisorHandle {
            current: RwLock::new(Arc::new(advisor)),
        }
    }

    /// Snapshots the advisor currently being served.
    pub fn current(&self) -> Arc<MultiAdvisor> {
        // A writer can only panic between the lock and the store, in which case the
        // previous advisor snapshot is still intact: recover it rather than abort.
        self.current
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Atomically replaces the served advisor.  In-flight work keeps the snapshot it
    /// already holds; only requests routed after the swap see the new packs.  The
    /// pack gauges are re-stamped, resetting `pack_age_secs` to zero.
    pub fn reload(&self, advisor: MultiAdvisor) {
        publish_pack_gauges(&advisor);
        *self.current.write().unwrap_or_else(|e| e.into_inner()) = Arc::new(advisor);
    }

    /// Loads a pack (single or multi) from a JSON file and swaps it in.  On failure the
    /// previous advisor keeps serving.
    pub fn reload_from_path(&self, path: &std::path::Path) -> Result<Arc<MultiAdvisor>> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| AdvisorError::Pack(format!("cannot read {}: {e}", path.display())))?;
        self.reload(MultiAdvisor::from_json(&text)?);
        Ok(self.current())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::tests::{tiny_builder, tiny_spec};
    use tcp_calibrate::Calibrator;
    use tcp_trace::TraceGenerator;

    fn catalog() -> tcp_calibrate::RegimeCatalog {
        let records = TraceGenerator::new(11).generate_study(600, 90).unwrap();
        Calibrator::new("router-test")
            .calibrate(&records, "synthetic", 0)
            .unwrap()
    }

    fn multi() -> MultiAdvisor {
        let builder = crate::builder::PackBuilder {
            age_points: 121,
            checkpoint_age_points: 3,
            checkpoint_job_points: 4,
            max_checkpoint_job_hours: 4.0,
            ..Default::default()
        };
        let multi = builder
            .build_from_catalog(&catalog(), &[5.0], 30.0, 0)
            .unwrap();
        MultiAdvisor::from_multi(multi).unwrap()
    }

    #[test]
    fn requests_route_by_cell_and_fall_back_to_pooled() {
        let m = multi();
        let cells = m.cell_names();
        assert!(!cells.is_empty());
        // No cell: pooled pack answers.
        let mut req = AdviceRequest::should_reuse("pooled", 8.0, 3.0);
        req.regime = None;
        let pooled = m.advise(&req).unwrap();
        assert_eq!(pooled.regime, "pooled");
        assert_eq!(pooled.cell, None);
        // Cell-tagged: the cell's pack answers and echoes the cell.
        let routed = m.advise(&req.clone().with_cell(cells[0].clone())).unwrap();
        assert_eq!(routed.regime, cells[0]);
        assert_eq!(routed.cell.as_deref(), Some(cells[0].as_str()));
        // Unknown cells are typed errors listing what is loaded.
        let err = m
            .advise(&req.clone().with_cell("n1-highcpu-16/mars-east1-z/day"))
            .unwrap_err();
        match err {
            AdvisorError::UnknownCell { cell, available } => {
                assert_eq!(cell, "n1-highcpu-16/mars-east1-z/day");
                assert_eq!(available, cells);
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn routed_answers_differ_across_cells() {
        // Observation 4: the 32-vCPU day cell must look riskier than the 2-vCPU night
        // cell — routing to different cells must actually change the answer.
        let m = multi();
        let cells = m.cell_names();
        let risky = "n1-highcpu-32/us-central1-f/day";
        let calm = "n1-highcpu-2/us-west1-a/night";
        if !cells.iter().any(|c| c == risky) || !cells.iter().any(|c| c == calm) {
            // Cell sampling is uneven; skip quietly when either cell lacked records.
            return;
        }
        let query = |cell: &str| {
            let mut req = AdviceRequest::expected_cost_makespan("x", 6.0, 4.0);
            req.regime = None;
            m.advise(&req.with_cell(cell)).unwrap()
        };
        let risky_resp = query(risky);
        let calm_resp = query(calm);
        assert_ne!(
            risky_resp.failure_probability, calm_resp.failure_probability,
            "per-cell packs must answer from different models"
        );
    }

    #[test]
    fn single_pack_loads_as_pooled_only_router() {
        let pack = tiny_builder().build_from_spec(&tiny_spec()).unwrap();
        let m = MultiAdvisor::from_json(&pack.to_json().unwrap()).unwrap();
        assert!(m.cell_names().is_empty());
        let mut req = AdviceRequest::should_reuse("gcp-day", 8.0, 3.0);
        assert!(m.advise(&req).is_ok());
        req = req.with_cell("n1-highcpu-2/us-west1-a/night");
        let err = m.advise(&req).unwrap_err();
        assert!(err.to_string().contains("no per-cell packs"), "{err}");
    }

    #[test]
    fn multi_pack_json_round_trips_with_identical_answers() {
        let builder = crate::builder::PackBuilder {
            age_points: 121,
            checkpoint_age_points: 3,
            checkpoint_job_points: 4,
            max_checkpoint_job_hours: 4.0,
            ..Default::default()
        };
        let multi_pack = builder
            .build_from_catalog(&catalog(), &[5.0], 30.0, 2)
            .unwrap();
        let json = multi_pack.to_json().unwrap();
        let reparsed = MultiPack::from_json(&json).unwrap();
        assert_eq!(reparsed, multi_pack);
        let a = MultiAdvisor::from_multi(multi_pack).unwrap();
        let b = MultiAdvisor::from_json(&json).unwrap();
        let mut requests = Vec::new();
        for (i, cell) in a.cell_names().into_iter().enumerate() {
            let mut req = AdviceRequest::expected_cost_makespan("x", i as f64, 2.0);
            req.regime = None;
            requests.push(req.with_cell(cell));
        }
        for request in &requests {
            assert_eq!(a.advise(request), b.advise(request));
        }
    }

    #[test]
    fn hot_reload_leaves_in_flight_snapshots_untouched() {
        let pack_a = tiny_builder().build_from_spec(&tiny_spec()).unwrap();
        let handle = AdvisorHandle::new(MultiAdvisor::from_pack(pack_a.clone()).unwrap());

        // An in-flight batch snapshots the advisor before the reload...
        let snapshot = handle.current();
        let requests: Vec<AdviceRequest> = (0..64)
            .map(|i| AdviceRequest::should_reuse("gcp-day", (i % 24) as f64, 3.0))
            .collect();

        // ...then the pack is swapped for one with different regimes...
        let spec_b = tcp_scenarios::SweepSpec::from_toml(
            r#"
[sweep]
name = "reloaded"

[[regime]]
name = "exp12"
kind = "exponential"
mean_hours = 12.0

[workload]
dp_step_minutes = 30.0
"#,
        )
        .unwrap();
        let pack_b = tiny_builder().build_from_spec(&spec_b).unwrap();
        handle.reload(MultiAdvisor::from_pack(pack_b).unwrap());

        // ...and the snapshot still answers exactly like a fresh advisor on the old
        // pack, while new lookups see the new one.
        let expected = MultiAdvisor::from_pack(pack_a).unwrap();
        for request in &requests {
            assert_eq!(snapshot.advise(request), expected.advise(request));
        }
        assert_eq!(handle.current().pooled().pack().name, "reloaded");
        let old_regime = snapshot.advise(&requests[0]).unwrap().regime;
        assert_eq!(old_regime, "gcp-day");
        assert!(
            handle.current().advise(&requests[0]).is_err(),
            "gcp-day is gone"
        );
    }

    #[test]
    fn v2_multi_packs_load_with_bathtub_dp_families() {
        // A multi-pack written by a v2 build: inner packs at format 2, no dp_family.
        let builder = crate::builder::PackBuilder {
            age_points: 121,
            checkpoint_age_points: 3,
            checkpoint_job_points: 4,
            max_checkpoint_job_hours: 4.0,
            ..Default::default()
        };
        let multi_pack = builder
            .build_from_catalog(&catalog(), &[5.0], 30.0, 0)
            .unwrap();
        let mut v2 = multi_pack.to_json().unwrap().replace(
            &format!("\"format_version\":{}", crate::pack::PACK_FORMAT_VERSION),
            "\"format_version\":2",
        );
        for family in [
            "bathtub",
            "weibull",
            "exponential",
            "phased",
            "empirical",
            "mixture",
        ] {
            v2 = v2.replace(&format!("\"dp_family\":\"{family}\","), "");
        }
        assert!(!v2.contains("dp_family"));
        let upgraded = MultiPack::from_json(&v2).unwrap();
        assert_eq!(upgraded.pooled.regimes[0].dp_family, "bathtub");
        for entry in &upgraded.cells {
            assert_eq!(entry.pack.regimes[0].dp_family, "bathtub");
            // The served family survives the upgrade untouched.
            assert_eq!(
                entry.pack.regimes[0].served_family,
                multi_pack
                    .cells
                    .iter()
                    .find(|c| c.cell == entry.cell)
                    .unwrap()
                    .pack
                    .regimes[0]
                    .served_family
            );
        }
        // The upgraded set routes and answers.
        let m = MultiAdvisor::from_multi(upgraded).unwrap();
        let mut req = AdviceRequest::should_reuse("pooled", 6.0, 3.0);
        req.regime = None;
        assert!(m.advise(&req).is_ok());
    }

    #[test]
    fn family_stats_follow_the_answering_regime() {
        let m = multi();
        assert_eq!(m.family_stats(), tcp_advisor_family_default());
        let cells = m.cell_names();
        let mut req = AdviceRequest::expected_cost_makespan("x", 5.0, 2.0);
        req.regime = None;
        // Two pooled answers (mixture curves) and one per-cell answer.
        m.advise(&req).unwrap();
        m.advise(&req).unwrap();
        m.advise(&req.clone().with_cell(cells[0].clone())).unwrap();
        let stats = m.family_stats();
        assert_eq!(stats.served.get("mixture"), Some(&2));
        assert_eq!(stats.dp.get("mixture"), Some(&2));
        let per_cell_total: u64 = stats
            .served
            .iter()
            .filter(|(family, _)| family.as_str() != "mixture")
            .map(|(_, n)| n)
            .sum();
        assert_eq!(per_cell_total, 1);
        // dp histograms mirror served histograms for v3 packs.
        assert_eq!(stats.served, stats.dp);
    }

    fn tcp_advisor_family_default() -> crate::engine::FamilyStats {
        crate::engine::FamilyStats::default()
    }

    #[test]
    fn reload_from_a_bad_path_keeps_the_old_advisor() {
        let pack = tiny_builder().build_from_spec(&tiny_spec()).unwrap();
        let handle = AdvisorHandle::new(MultiAdvisor::from_pack(pack).unwrap());
        let before = handle.current().pooled().pack().name.clone();
        assert!(handle
            .reload_from_path(std::path::Path::new("/nonexistent/pack.json"))
            .is_err());
        assert_eq!(handle.current().pooled().pack().name, before);
    }

    #[test]
    fn stats_aggregate_across_packs() {
        let m = multi();
        let cells = m.cell_names();
        let mut req = AdviceRequest::best_policy("pooled");
        req.regime = None;
        m.advise(&req).unwrap();
        m.advise(&req.clone().with_cell(cells[0].clone())).unwrap();
        let stats = m.stats();
        assert_eq!(stats.best_policy, 2);
        assert_eq!(stats.total(), 2);
    }
}
