//! The operator path, in process: trace records → `Calibrator::calibrate` →
//! `PackBuilder::build_from_catalog` → `MultiPack::to_json` →
//! `MultiAdvisor::from_json`.

use crate::serve_bench::{
    prepare_multi, spans_path, trace_overhead_pct, traced_serving, write_spans, Focus,
};
use crate::spans::Recorder;
use crate::stats::median;
use crate::tally::{classify, Expect};
use crate::{peak_rss_mb, Fnv, Run, DEFAULT_SEED};
use std::time::{Duration, Instant};
use tcp_advisor::{MultiAdvisor, MultiPack, PackBuilder};
use tcp_calibrate::{Calibrator, CellFit, RegimeCatalog};
use tcp_trace::{PreemptionRecord, TraceGenerator, VmType};

/// Digest of the `pack-build` multi-pack JSON at [`DEFAULT_SEED`].
const PACK_DIGEST: u64 = 0x9ca4_be4a_a0e0_1a38;

/// Records per parametric showcase cell (the runt cell always has five).
const SHOWCASE_PER_CELL: usize = 300;
/// Threads for the timed calibrate and build.
const THREADS: usize = 2;
/// Checkpoint cost and DP step of the timed build.  A 10-minute step keeps one
/// build under a second on two cores, so a run holds ten or more builds; the DP
/// tables remain nearly all of the work.
const CHECKPOINT_COSTS: &[f64] = &[1.0];
const DP_STEP_MINUTES: f64 = 10.0;
/// Codec repetitions; the metric is their median.
const REPS: usize = 7;
/// Catalog decodes before the first pipeline and after each one; `setup_s` is
/// the median of all of them.  Spreading them over the run averages over the
/// vCPUs' speed, which on the benchmark's host changes for minutes at a time.
const SETUP_REPS: usize = 4;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn showcase_records(seed: u64) -> Result<Vec<PreemptionRecord>, String> {
    TraceGenerator::new(seed)
        .generate_family_showcase(SHOWCASE_PER_CELL)
        .map_err(err)
}

fn calibrate(records: &[PreemptionRecord], threads: usize) -> Result<RegimeCatalog, String> {
    Calibrator::new("showcase")
        .calibrate(records, "perfbench showcase", threads)
        .map_err(err)
}

/// `pack.encode_ms`, `pack.decode_ms` and `pack.bytes` of a served pack; the
/// encoding must reproduce `json` byte for byte.
pub fn codec_metrics(
    run: &mut Run,
    encode: impl Fn() -> Result<String, String>,
    json: &str,
) -> Result<(), String> {
    let (mut encode_ms, mut decode_ms) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let started = Instant::now();
        let encoded = encode()?;
        encode_ms.push(started.elapsed().as_secs_f64() * 1e3);
        run.check(encoded == json, || {
            "pack re-encoding changed its bytes".to_string()
        });
        let started = Instant::now();
        std::hint::black_box(MultiAdvisor::from_json(json).map_err(err)?);
        decode_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    run.metrics
        .insert("pack.encode_ms", median(&encode_ms).unwrap_or(0.0));
    run.metrics
        .insert("pack.decode_ms", median(&decode_ms).unwrap_or(0.0));
    run.metrics.insert("pack.bytes", json.len() as f64);
    Ok(())
}

/// One timed pipeline, each stage in its own span under `pack.pipeline`.
fn pipeline(rec: &mut Recorder, id: u64, records: &[PreemptionRecord]) -> Result<String, String> {
    rec.span("pack.pipeline", id, |rec| {
        let catalog = rec.span("calibrate", id, |_| calibrate(records, THREADS))?;
        let multi = rec.span("pack.build", id, |_| {
            PackBuilder::default()
                .build_from_catalog(&catalog, CHECKPOINT_COSTS, DP_STEP_MINUTES, THREADS)
                .map_err(err)
        })?;
        let json = rec.span("pack.encode", id, |_| multi.to_json().map_err(err))?;
        rec.span("pack.decode", id, |_| {
            MultiAdvisor::from_json(&json).map_err(err)
        })?;
        Ok(json)
    })
}

/// Span and metric names of a showcase cell's build, labelled with the
/// layout's ground-truth family for the cell's machine type (the fitted winner
/// can differ by seed; the label does not).
fn showcase_family(cell: &CellFit) -> Result<(&'static str, &'static str), String> {
    Ok(match cell.vm_type {
        Some(VmType::N1HighCpu2) => (
            "pack.build.cell.exponential",
            "pack.build.cell.exponential_s",
        ),
        Some(VmType::N1HighCpu4) => ("pack.build.cell.weibull", "pack.build.cell.weibull_s"),
        Some(VmType::N1HighCpu8) => ("pack.build.cell.phased", "pack.build.cell.phased_s"),
        Some(VmType::N1HighCpu16) => ("pack.build.cell.bathtub", "pack.build.cell.bathtub_s"),
        Some(VmType::N1HighCpu32) => ("pack.build.cell.empirical", "pack.build.cell.empirical_s"),
        None => return Err(format!("cell `{}` has no machine type", cell.cell)),
    })
}

/// A catalog holding `cell` alone, with the cell as its own pooled entry.
fn sub_catalog(catalog: &RegimeCatalog, cell: &CellFit) -> RegimeCatalog {
    RegimeCatalog {
        total_records: cell.records,
        pooled: CellFit {
            cell: "pooled".to_string(),
            vm_type: None,
            zone: None,
            time_of_day: None,
            ..cell.clone()
        },
        cells: vec![cell.clone()],
        ..catalog.clone()
    }
}

/// Per-cell and whole-catalog builds on one thread.  Each cell's pack must match
/// the same cell's pack in the two-thread build `reference` byte for byte, and the
/// whole-catalog build must match `reference` entirely.
fn single_thread_builds(
    rec: &mut Recorder,
    catalog: &RegimeCatalog,
    reference: &MultiPack,
    run: &mut Run,
) -> Result<(), String> {
    let builder = PackBuilder::default();
    for (i, cell) in catalog.cells.iter().enumerate() {
        let (name, metric) = showcase_family(cell)?;
        let sub = sub_catalog(catalog, cell);
        let started = Instant::now();
        let multi = rec.span(name, i as u64, |_| {
            builder
                .build_from_catalog(&sub, CHECKPOINT_COSTS, DP_STEP_MINUTES, 1)
                .map_err(err)
        })?;
        let seconds = started.elapsed().as_secs_f64();
        run.metrics.insert(metric, seconds);
        let same = |m: &MultiPack| {
            m.cells
                .iter()
                .find(|e| e.cell == cell.cell)
                .and_then(|e| e.pack.to_json().ok())
        };
        let (alone, within) = (same(&multi), same(reference));
        run.check(alone.is_some() && alone == within, || {
            format!("cell `{}` packs differ between builds", cell.cell)
        });
    }
    let started = Instant::now();
    let whole = rec.span("pack.build.pooled", 0, |_| {
        builder
            .build_from_catalog(catalog, CHECKPOINT_COSTS, DP_STEP_MINUTES, 1)
            .map_err(err)
    })?;
    run.metrics
        .insert("pack.build.pooled_s", started.elapsed().as_secs_f64());
    let (one, two) = (
        whole.to_json().map_err(err)?,
        reference.to_json().map_err(err)?,
    );
    run.check(one == two, || {
        "1-thread and 2-thread packs differ".to_string()
    });
    Ok(())
}

/// `pack-build`: the whole operator pipeline, back to back, for `seconds`.
pub fn pack_build(seed: u64, seconds: f64, trace: bool) -> Result<Run, String> {
    let records = showcase_records(seed)?;
    let mut run = Run::default();
    let mut rec = Recorder::new(false);

    // Warm-up: one untimed pipeline, whose output every timed one must repeat.
    let reference = pipeline(&mut rec, 0, &records)?;
    let mut digest = Fnv::default();
    digest.bytes(reference.as_bytes());
    run.info("pack_digest", format!("\"{:016x}\"", digest.value()));
    if seed == DEFAULT_SEED {
        run.check(digest.value() == PACK_DIGEST, || {
            format!(
                "pack digest {:016x} != committed {PACK_DIGEST:016x}",
                digest.value()
            )
        });
    }

    // Set-up: decoding the catalog an operator hands to the builder.
    let catalog_json = calibrate(&records, THREADS)?.to_json().map_err(err)?;
    let mut setup = Vec::new();
    let decode_catalog = |setup: &mut Vec<f64>| -> Result<(), String> {
        for _ in 0..SETUP_REPS {
            let started = Instant::now();
            std::hint::black_box(RegimeCatalog::from_json(&catalog_json).map_err(err)?);
            setup.push(started.elapsed().as_secs_f64());
        }
        Ok(())
    };
    decode_catalog(&mut setup)?;

    let budget = Duration::from_secs_f64(if trace { seconds / 2.0 } else { seconds });
    let started = Instant::now();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut id = 1;
    while started.elapsed() < budget || untraced.len() < 3 || (trace && traced.len() < 3) {
        // Traced runs alternate spans off and on, build by build.
        let on = trace && id % 2 == 0;
        rec.set_enabled(on);
        let t = Instant::now();
        let json = pipeline(&mut rec, id, &records)?;
        let elapsed = t.elapsed().as_secs_f64();
        if on { &mut traced } else { &mut untraced }.push(elapsed);
        let outcome = classify(Expect::Answer, reference.as_bytes(), Some(json.as_bytes()));
        run.tally.record(outcome);
        decode_catalog(&mut setup)?;
        id += 1;
    }
    run.metrics.insert("setup_s", median(&setup).unwrap_or(0.0));
    let window = started.elapsed().as_secs_f64();
    run.info("builds", untraced.len() + traced.len());
    if !trace {
        run.metrics
            .insert("latency_p50_us", median(&untraced).unwrap_or(0.0) * 1e6);
        run.info("builds_per_s", untraced.len() as f64 / window);
        run.metrics.insert("peak_rss_mb", peak_rss_mb());
        return Ok(run);
    }

    run.metrics
        .insert("trace.overhead_pct", trace_overhead_pct(&untraced, &traced));
    // The built pack must serve: the traced run's serving measurements on it.
    let built = MultiPack::from_json(&reference).map_err(err)?;
    let served = prepare_multi(built.clone(), seed)?;
    traced_serving(&served, seed, seconds, Focus::Elsewhere, &mut rec, &mut run)?;
    operator_layers(&mut rec, seed, Some(&built), &mut run)?;
    write_spans(&rec, &mut run, spans_path("pack-build"));
    Ok(run)
}

/// The operator-path layers of a traced run, on the seed's showcase records:
/// `calibrate.fit_ms` (median over every `calibrate` span of the run, five more
/// calibrations included) and the 1-thread per-cell and whole-catalog builds,
/// checked against `built`, the 2-thread build of the same catalog (built here
/// when not given).
pub fn operator_layers(
    rec: &mut Recorder,
    seed: u64,
    built: Option<&MultiPack>,
    run: &mut Run,
) -> Result<(), String> {
    let records = showcase_records(seed)?;
    rec.set_enabled(true);
    let mut catalog = None;
    for i in 0..5 {
        catalog = Some(rec.span("calibrate", i, |_| calibrate(&records, THREADS))?);
    }
    let catalog = catalog.ok_or("no catalog")?;
    let by_name = rec.self_times_by_name();
    if let Some(ns) = by_name.get("calibrate").and_then(|v| median(v)) {
        run.metrics.insert("calibrate.fit_ms", ns / 1e6);
    }
    let reference = match built {
        Some(multi) => multi.clone(),
        None => PackBuilder::default()
            .build_from_catalog(&catalog, CHECKPOINT_COSTS, DP_STEP_MINUTES, THREADS)
            .map_err(err)?,
    };
    single_thread_builds(rec, &catalog, &reference, run)
}
