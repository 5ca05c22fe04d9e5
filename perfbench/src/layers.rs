//! In-process layer timing for the serving workloads: the benchmark calls each
//! layer's public functions on the workload's own lines, inside spans, then
//! repeats the calls with allocation counting on.
//!
//! * `wire` — `serde_json::from_str::<AdviceRequest>`, `serde_json::to_string` of
//!   the response, and `respond_line` on deliberately invalid lines;
//! * `advisor` — `MultiAdvisor::advise`, one span name per request kind, and the
//!   routing cost: the router against the engine of the answering pack (the
//!   pooled pack, or the cell pack wrapped alone by `MultiAdvisor::from_pack`);
//! * `session` — `Session::process` on batches of one line and of
//!   `ServeOptions::default().max_batch` lines.

use crate::gen::Line;
use crate::spans::Recorder;
use crate::stats::median;
use crate::tally::{classify, Expect, Outcome};
use crate::{Metrics, Run};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use tcp_advisor::{
    respond_line, AdviceRequest, AdviceResponse, Advisor, AdvisorHandle, MultiAdvisor, RequestKind,
    Session,
};
use tcp_obs::profile::{alloc_totals, set_counting};

fn lookup_span(kind: RequestKind) -> &'static str {
    match kind {
        RequestKind::ShouldReuse => "advisor.lookup.should-reuse",
        RequestKind::CheckpointPlan => "advisor.lookup.checkpoint-plan",
        RequestKind::ExpectedCostMakespan => "advisor.lookup.expected-cost-makespan",
        RequestKind::BestPolicy => "advisor.lookup.best-policy",
    }
}

/// Runs `pass` over the corpus at least once and until `budget` has elapsed.
fn repeat_for(budget: Duration, mut pass: impl FnMut()) {
    let started = Instant::now();
    loop {
        pass();
        if started.elapsed() >= budget {
            break;
        }
    }
}

/// Allocation calls and bytes (all threads) while `f` runs, with counting on.
pub fn count_allocs(f: impl FnOnce()) -> (u64, u64) {
    let before = alloc_totals();
    set_counting(true);
    f();
    set_counting(false);
    let after = alloc_totals();
    (after.allocs - before.allocs, after.bytes - before.bytes)
}

fn parse(line: &Line) -> Option<AdviceRequest> {
    serde_json::from_str::<AdviceRequest>(&line.text).ok()
}

/// Measures the wire, advisor and session layers on `lines` and returns the
/// in-process `respond_line` median in nanoseconds (the base of
/// `serve.overhead_us`).  `cells` maps each routable cell to its pack wrapped
/// alone by `MultiAdvisor::from_pack`.
pub fn measure(
    rec: &mut Recorder,
    pack_json: &str,
    lines: &[Line],
    cells: &BTreeMap<String, MultiAdvisor>,
    budget: Duration,
    run: &mut Run,
) -> Result<f64, String> {
    let advisor = MultiAdvisor::from_json(pack_json).map_err(|e| e.to_string())?;
    let check = |run: &mut Run, line: &Line, got: &str| {
        run.tally.record(classify(
            line.expect,
            line.expected.as_bytes(),
            Some(got.as_bytes()),
        ));
    };

    // Wire + advisor: each valid line parsed, answered and rendered in its own
    // spans under one `request` root; invalid lines through `respond_line`.
    let mut id = 0u64;
    repeat_for(budget, || {
        for line in lines {
            id += 1;
            let reply = rec.span("request", id, |rec| match line.expect {
                Expect::TypedError => {
                    rec.span("wire.error", id, |_| respond_line(&advisor, &line.text))
                }
                Expect::Answer => {
                    let Some(request) = rec.span("wire.parse", id, |_| parse(line)) else {
                        return String::new();
                    };
                    let Ok(response) =
                        rec.span(lookup_span(request.kind), id, |_| advisor.advise(&request))
                    else {
                        return String::new();
                    };
                    rec.span("wire.render", id, |_| {
                        serde_json::to_string(&response).unwrap_or_default()
                    })
                }
            });
            check(run, line, &reply);
        }
    });
    // The whole per-line function, for the serving overhead.
    repeat_for(budget / 4, || {
        for line in lines {
            id += 1;
            let reply = rec.span("respond_line", id, |_| respond_line(&advisor, &line.text));
            check(run, line, &reply);
        }
    });

    // Routing: each valid request answered through the router and by the engine
    // of the pack that answers it (the pooled pack, or the cell pack wrapped
    // alone); the answers must agree apart from the echoed cell.
    let routed: Vec<(AdviceRequest, &Advisor)> = lines
        .iter()
        .filter(|l| l.expect == Expect::Answer)
        .filter_map(parse)
        .filter_map(|r| {
            let engine = match r.cell.as_deref() {
                None => advisor.pooled(),
                Some(cell) => cells.get(cell)?.pooled(),
            };
            Some((r, engine))
        })
        .collect();
    repeat_for(budget / 2, || {
        for (request, engine) in &routed {
            id += 1;
            let via_router = rec.span("advisor.route.routed", id, |_| advisor.advise(request));
            let alone = rec.span("advisor.route.direct", id, |_| engine.advise(request));
            let agree = match (via_router, alone) {
                (Ok(a), Ok(mut b)) => {
                    b.cell = a.cell.clone();
                    a == b
                }
                _ => false,
            };
            run.tally.record(if agree {
                Outcome::Answered
            } else {
                Outcome::Mismatch
            });
        }
    });

    // Session: batches of 1 line and of the server's default max batch.
    let handle = AdvisorHandle::new(MultiAdvisor::from_json(pack_json).map_err(|e| e.to_string())?);
    let mut session = Session::new(&handle, 1);
    let max_batch = tcp_serve::ServeOptions::default().max_batch;
    let texts: Vec<&str> = lines.iter().map(|l| l.text.as_str()).collect();
    let mut out = String::with_capacity(1 << 20);
    let check_batch = |run: &mut Run, batch: &[Line], out: &str| {
        let mut replies = out.lines();
        for line in batch {
            let got = replies.next().map(str::as_bytes);
            run.tally
                .record(classify(line.expect, line.expected.as_bytes(), got));
        }
        if replies.next().is_some() {
            run.tally.record(Outcome::Mismatch);
        }
    };
    repeat_for(budget / 2, || {
        for (i, text) in texts.iter().enumerate() {
            id += 1;
            out.clear();
            rec.span("session.batch1", id, |_| session.process(&[text], &mut out));
            check_batch(run, &lines[i..=i], &out);
        }
    });
    repeat_for(budget / 2, || {
        for (chunk, batch) in texts.chunks(max_batch).zip(lines.chunks(max_batch)) {
            if chunk.len() < max_batch {
                continue;
            }
            id += 1;
            out.clear();
            rec.span("session.batchmax", id, |_| session.process(chunk, &mut out));
            check_batch(run, batch, &out);
        }
    });

    let by_name = rec.self_times_by_name();
    let med = |name: &str| by_name.get(name).and_then(|v| median(v));
    let m: &mut Metrics = &mut run.metrics;
    for (metric, span) in [
        ("wire.parse.ns_per_op", "wire.parse"),
        ("wire.render.ns_per_op", "wire.render"),
        ("wire.error.ns_per_op", "wire.error"),
        (
            "advisor.lookup.should-reuse.ns_per_op",
            "advisor.lookup.should-reuse",
        ),
        (
            "advisor.lookup.checkpoint-plan.ns_per_op",
            "advisor.lookup.checkpoint-plan",
        ),
        (
            "advisor.lookup.expected-cost-makespan.ns_per_op",
            "advisor.lookup.expected-cost-makespan",
        ),
        (
            "advisor.lookup.best-policy.ns_per_op",
            "advisor.lookup.best-policy",
        ),
        ("session.process.ns_per_line.batch1", "session.batch1"),
    ] {
        if let Some(v) = med(span) {
            m.insert(metric, v);
        }
    }
    if let Some(v) = med("session.batchmax") {
        m.insert("session.process.ns_per_line.batchmax", v / max_batch as f64);
    }
    if let (Some(routed), Some(direct)) = (med("advisor.route.routed"), med("advisor.route.direct"))
    {
        m.insert("advisor.route.ns_per_op", routed - direct);
    }
    let respond_ns = med("respond_line").ok_or("no respond_line samples")?;

    // Allocation counts: the same calls again, without spans.
    let valid: Vec<&Line> = lines
        .iter()
        .filter(|l| l.expect == Expect::Answer)
        .collect();
    let (allocs, _) = count_allocs(|| {
        for line in &valid {
            std::hint::black_box(parse(line));
        }
    });
    m.insert(
        "wire.parse.allocs_per_op",
        allocs as f64 / valid.len() as f64,
    );
    let responses: Vec<AdviceResponse> = valid
        .iter()
        .filter_map(|l| advisor.advise(&parse(l)?).ok())
        .collect();
    let (allocs, bytes) = count_allocs(|| {
        for response in &responses {
            std::hint::black_box(serde_json::to_string(response).ok());
        }
    });
    m.insert(
        "wire.render.allocs_per_op",
        allocs as f64 / responses.len() as f64,
    );
    m.insert(
        "wire.render.bytes_per_op",
        bytes as f64 / responses.len() as f64,
    );
    let (allocs, _) = count_allocs(|| {
        for text in &texts {
            out.clear();
            session.process(&[text], &mut out);
        }
    });
    m.insert(
        "session.process.allocs_per_line",
        allocs as f64 / texts.len() as f64,
    );
    Ok(respond_ns)
}
