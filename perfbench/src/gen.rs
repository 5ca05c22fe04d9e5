//! Seeded workload inputs: request lines and their expected replies.
//!
//! The benchmark generates its own traffic from `--seed` with its own generator,
//! so a change to `advise gen` or to the repository's RNG cannot change a
//! workload.  The request mix follows the advisor's documented proportions: 40 %
//! should-reuse, 25 % expected-cost-makespan, 25 % checkpoint-plan and 10 %
//! best-policy, with ages across the whole horizon and job lengths up to half of it.

use crate::tally::Expect;
use tcp_advisor::{respond_line, AdviceRequest, ModelPack, MultiAdvisor, MultiPack};

/// SplitMix64: a small, fixed generator whose stream never depends on a
/// dependency's version.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    pub fn index(&mut self, len: usize) -> usize {
        (self.next_u64() % len as u64) as usize
    }
}

/// Where a request is routed: an optional cell and the regime answering in it.
#[derive(Debug, Clone)]
pub struct Target {
    pub cell: Option<String>,
    pub regime: String,
    pub horizon: f64,
    pub checkpoint_costs: Vec<f64>,
}

/// Every regime of a single pack, unrouted (no `cell`).
pub fn pack_targets(pack: &ModelPack) -> Vec<Target> {
    regime_targets(pack, None)
}

/// The pooled pack unrouted, then every cell pack routed by its cell name.
pub fn multi_targets(multi: &MultiPack) -> Vec<Target> {
    let mut targets = regime_targets(&multi.pooled, None);
    for entry in &multi.cells {
        targets.extend(regime_targets(&entry.pack, Some(&entry.cell)));
    }
    targets
}

fn regime_targets(pack: &ModelPack, cell: Option<&str>) -> Vec<Target> {
    pack.regimes
        .iter()
        .map(|regime| Target {
            cell: cell.map(str::to_string),
            regime: regime.name.clone(),
            horizon: regime.horizon_hours,
            checkpoint_costs: regime
                .checkpoint_cells
                .iter()
                .map(|c| c.checkpoint_cost_minutes)
                .collect(),
        })
        .collect()
}

/// One draw of the request mix against `target`.
pub fn request(rng: &mut Rng, target: &Target, id: u64) -> AdviceRequest {
    let vm_age = rng.range(0.0, target.horizon);
    let job_len = rng.range(0.1, 0.5 * target.horizon);
    let roll = rng.unit();
    let regime = target.regime.clone();
    let mut request = if roll < 0.40 {
        AdviceRequest::should_reuse(regime, vm_age, job_len)
    } else if roll < 0.65 {
        AdviceRequest::expected_cost_makespan(regime, vm_age, job_len)
    } else if roll < 0.90 {
        let mut req = AdviceRequest::checkpoint_plan(regime, vm_age, job_len);
        if !target.checkpoint_costs.is_empty() {
            req.overhead_minutes =
                Some(target.checkpoint_costs[rng.index(target.checkpoint_costs.len())]);
        }
        req
    } else {
        AdviceRequest::best_policy(regime)
    };
    request.id = Some(id);
    request.cell = target.cell.clone();
    request
}

fn render(request: &AdviceRequest) -> Result<String, String> {
    serde_json::to_string(request).map_err(|e| format!("cannot render a request: {e}"))
}

/// A line that must get a typed error back: malformed JSON, an unknown cell, a
/// NaN input or a negative input, by `kind % 4`.
pub fn invalid_line(
    rng: &mut Rng,
    target: &Target,
    id: u64,
    kind: usize,
) -> Result<String, String> {
    let mut base = request(rng, target, id);
    Ok(match kind % 4 {
        0 => {
            let text = render(&base)?;
            text[..text.len() / 2].to_string()
        }
        1 => {
            base.cell = Some("n1-highcpu-64/nowhere-1z/day".to_string());
            render(&base)?
        }
        2 => format!(
            "{{\"kind\":\"should-reuse\",\"id\":{id},\"regime\":{},\"vm_age\":NaN,\"job_len\":1.5}}",
            serde_json::to_string(&target.regime).map_err(|e| e.to_string())?
        ),
        _ => {
            let mut req = AdviceRequest::should_reuse(target.regime.clone(), -1.0, 2.0);
            req.id = Some(id);
            req.cell = target.cell.clone();
            render(&req)?
        }
    })
}

/// A request line with its in-process reply and what kind of reply it must be.
#[derive(Debug, Clone)]
pub struct Line {
    pub text: String,
    pub expected: String,
    pub expect: Expect,
}

/// Generates `count` lines over `targets`; every `invalid_every`-th line (when
/// non-zero) is deliberately invalid.  Each expected reply comes from the
/// in-process `respond_line`, and each is checked to be of the promised kind.
pub fn lines(
    advisor: &MultiAdvisor,
    targets: &[Target],
    count: usize,
    invalid_every: usize,
    seed: u64,
) -> Result<Vec<Line>, String> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let id = i as u64;
        let target = &targets[rng.index(targets.len())];
        let invalid = invalid_every > 0 && i % invalid_every == invalid_every - 1;
        let (text, expect) = if invalid {
            let kind = i / invalid_every;
            (
                invalid_line(&mut rng, target, id, kind)?,
                Expect::TypedError,
            )
        } else {
            (render(&request(&mut rng, target, id))?, Expect::Answer)
        };
        let expected = respond_line(advisor, &text);
        let is_error = expected.starts_with("{\"error\"");
        if is_error != (expect == Expect::TypedError) {
            return Err(format!(
                "generated line {i} got an unexpected reply kind: {text} -> {expected}"
            ));
        }
        out.push(Line {
            text,
            expected,
            expect,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded_and_in_range() {
        let a: Vec<u64> = {
            let mut r = Rng::new(5);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(5);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut r = Rng::new(6);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            assert!(r.index(3) < 3);
        }
    }
}
