//! Serving over a real loopback server in this process, driven by one client
//! thread over at most one open connection: the `stream-mixed` workload, and
//! the traced run's serving measurements, which every workload makes on its
//! own pack and lines.

use crate::client::{Conn, Corpus, SessionTiming, Sessions};
use crate::gen::{self, Line, Target};
use crate::spans::Recorder;
use crate::stats::{median, percentile, sorted, tail_supported};
use crate::tally::Expect;
use crate::{host_cpus, layers, pack_bench, peak_rss_mb, Run, DEFAULT_SEED};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};
use tcp_advisor::{ModelPack, MultiAdvisor, MultiPack, PackBuilder};
use tcp_serve::{ServeOptions, Server, ServerReport};

/// Reply-stream digest of the first pass over the corpus at [`DEFAULT_SEED`].
const STREAM_DIGEST: u64 = 0xa5e6_3ee9_e14e_8c2b;

/// Set-up repetitions after each closed-loop block of an untraced run.
const SETUP_REPS: usize = 5;
/// Untimed traffic before each timed phase.
const WARMUP: Duration = Duration::from_millis(200);
/// Fresh servers per untraced run, so one server's state (its threads' malloc
/// arenas, its warm-up) cannot set a whole run's figures.
const ROUNDS: usize = 4;
/// Distinct lines in the `stream-mixed` corpus (resent cyclically).
const STREAM_LINES: usize = 4096;
/// Lines per session in the traced runs' sessions phase, and distinct sessions
/// in a multi-pack corpus.
const SESSION_LINES: usize = 16;
const SESSIONS: usize = 512;
/// Every eighth multi-pack corpus line is invalid on purpose.
const INVALID_EVERY: usize = 8;
/// Invalid lines added to the in-process layer pass of a corpus that has none,
/// so every workload times the error path.
const ERROR_PROBES: usize = 256;
/// Outstanding requests in the pipelined phase: four default `max_batch` batches.
const WINDOW: u64 = 1024;
/// Timed phases run as this many equal blocks; the pipelined rate and the
/// round-trip p99 are the medians of their per-block values, so a burst of
/// host contention moves a few blocks and not the figure.
const BLOCKS: u32 = 20;
/// Closed-loop slice: each slice's median round trip is one sample of
/// `latency_p50_us`.
const SLICE: Duration = Duration::from_millis(25);
/// The quantile of the slice medians, and of the set-up times, that an
/// untraced `stream-mixed` run reports.  The host alternates between a
/// contended state and a quiet one, in which round trips and set-up take about
/// 60 % of their contended time, and the mix changes from run to run.  The
/// 90th percentile reads the contended state whenever it fills a tenth of a
/// run, instead of jumping with the mix as the median does.
const CONTENDED: f64 = 0.9;
/// Traced runs alternate this many untraced and traced blocks.
const TRACE_BLOCKS: u32 = 8;
/// Length of an allocation-counting pass.
const COUNT_PASS: Duration = Duration::from_millis(500);

/// The server configuration: at most two workers, never more than the host has.
fn server_options() -> ServeOptions {
    ServeOptions {
        workers: host_cpus().clamp(1, 2),
        ..ServeOptions::default()
    }
}

/// Restricts every thread of this process, and every thread it starts later,
/// to the highest CPU it may run on, with `taskset`.  Client, acceptor and
/// workers then share one CPU: a round trip is their work plus two context
/// switches, and no longer depends on where the scheduler places the threads
/// or on how fast the hypervisor wakes an idle vCPU.  Returns the CPU.
fn pin_to_one_cpu() -> Result<u32, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let allowed = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .ok_or("no Cpus_allowed_list in /proc/self/status")?;
    let cpu: u32 = allowed
        .trim()
        .rsplit([',', '-'])
        .next()
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| format!("cannot read Cpus_allowed_list `{}`", allowed.trim()))?;
    let pinned = std::process::Command::new("taskset")
        .args([
            "-a",
            "-p",
            "-c",
            &cpu.to_string(),
            &std::process::id().to_string(),
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("taskset: {e}"))?;
    if !pinned.success() {
        return Err(format!("taskset exited with {pinned}"));
    }
    Ok(cpu)
}

/// The served pack as the operator ships it, kept to time its encoding.
enum PackDoc {
    Single(ModelPack),
    Multi(MultiPack),
}

impl PackDoc {
    fn to_json(&self) -> Result<String, String> {
        match self {
            PackDoc::Single(pack) => pack.to_json(),
            PackDoc::Multi(multi) => multi.to_json(),
        }
        .map_err(|e| e.to_string())
    }
}

/// Untimed input preparation for serving a pack.
pub struct Prepared {
    pack: PackDoc,
    pack_json: String,
    targets: Vec<Target>,
    lines: Vec<Line>,
    /// Each routable cell's pack wrapped alone, for the routing measurement.
    cells: BTreeMap<String, MultiAdvisor>,
}

fn prepare_stream(seed: u64) -> Result<Prepared, String> {
    let spec = tcp_scenarios::SweepSpec::from_toml(include_str!("../inputs/advisor_pack.toml"))
        .map_err(|e| e.to_string())?;
    let pack = PackBuilder::default()
        .build_from_spec(&spec)
        .map_err(|e| e.to_string())?;
    let pack_json = pack.to_json().map_err(|e| e.to_string())?;
    let advisor = MultiAdvisor::from_json(&pack_json).map_err(|e| e.to_string())?;
    let targets = gen::pack_targets(&pack);
    let lines = gen::lines(&advisor, &targets, STREAM_LINES, 0, seed)?;
    Ok(Prepared {
        pack: PackDoc::Single(pack),
        pack_json,
        targets,
        lines,
        cells: BTreeMap::new(),
    })
}

/// Serving inputs for a per-cell multi-pack: lines routed to the pooled pack or
/// a cell, every [`INVALID_EVERY`]-th one invalid on purpose.
pub fn prepare_multi(multi: MultiPack, seed: u64) -> Result<Prepared, String> {
    let pack_json = multi.to_json().map_err(|e| e.to_string())?;
    let advisor = MultiAdvisor::from_json(&pack_json).map_err(|e| e.to_string())?;
    let targets = gen::multi_targets(&multi);
    let lines = gen::lines(
        &advisor,
        &targets,
        SESSION_LINES * SESSIONS,
        INVALID_EVERY,
        seed,
    )?;
    let mut cells = BTreeMap::new();
    for entry in &multi.cells {
        let alone = MultiAdvisor::from_pack(entry.pack.clone()).map_err(|e| e.to_string())?;
        cells.insert(entry.cell.clone(), alone);
    }
    Ok(Prepared {
        pack: PackDoc::Multi(multi),
        pack_json,
        targets,
        lines,
        cells,
    })
}

/// Decodes the pack and starts a server; returns it with its set-up time in
/// seconds.
fn start_server(pack_json: &str) -> Result<(Server, f64), String> {
    let started = Instant::now();
    let advisor = MultiAdvisor::from_json(pack_json).map_err(|e| e.to_string())?;
    let server = Server::start(advisor, server_options())?;
    Ok((server, started.elapsed().as_secs_f64()))
}

/// Starts and stops `reps` servers, pushing each set-up time to `out`.
fn time_setups(pack_json: &str, reps: usize, out: &mut Vec<f64>) -> Result<(), String> {
    for _ in 0..reps {
        let (server, seconds) = start_server(pack_json)?;
        out.push(seconds);
        server.shutdown();
        server.join();
    }
    Ok(())
}

/// Runs `body` against `rounds` freshly started servers in turn, always draining
/// and joining each.  Checks the servers' totals against the registry's
/// `serve.requests.served` counter, reports the shed ratio, and returns the
/// servers' set-up times.
fn with_servers(
    prep: &Prepared,
    run: &mut Run,
    rounds: usize,
    mut body: impl FnMut(SocketAddr, &mut Run) -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    let served = tcp_obs::counter("serve.requests.served");
    let served_before = served.get();
    let mut setup = Vec::new();
    let mut total = [0u64; 4];
    for _ in 0..rounds {
        let (server, seconds) = start_server(&prep.pack_json)?;
        setup.push(seconds);
        let outcome = body(server.local_addr(), run);
        server.shutdown();
        let report: ServerReport = server.join();
        outcome?;
        for (sum, value) in total.iter_mut().zip([
            report.connections,
            report.requests,
            report.overload_responses,
            report.refused_connections,
        ]) {
            *sum += value;
        }
    }
    let [connections, requests, overloads, refused] = total;
    let served_delta = served.get() - served_before;
    run.check(served_delta == requests, || {
        format!("registry served {served_delta} requests, server reports {requests}")
    });
    run.metrics.insert(
        "serve.shed_ratio",
        overloads as f64 / (requests + overloads).max(1) as f64,
    );
    run.info("connections", connections);
    run.info("requests_served", requests);
    run.info("overload_responses", overloads);
    run.info("refused_connections", refused);
    Ok(setup)
}

fn check_digest(run: &mut Run, seed: u64, what: &str, complete: bool, got: u64, pinned: u64) {
    run.info(&format!("{what}_digest"), format!("\"{got:016x}\""));
    if seed == DEFAULT_SEED {
        run.check(complete && got == pinned, || {
            format!("{what} digest {got:016x} (complete: {complete}) != committed {pinned:016x}")
        });
    }
}

fn p(sample: &[f64], q: f64) -> f64 {
    percentile(&sorted(sample), q).unwrap_or(0.0)
}

/// Traced minus untraced median, as a percentage of the untraced median.
pub fn trace_overhead_pct(untraced: &[f64], traced: &[f64]) -> f64 {
    let base = p(untraced, 0.5);
    (p(traced, 0.5) - base) / base * 100.0
}

/// Where a traced run writes its spans; each run of a workload replaces the
/// previous run's file.
pub fn spans_path(workload: &str) -> std::path::PathBuf {
    std::path::PathBuf::from(format!(".bench_out/spans-{workload}.ndjson"))
}

/// `stream-mixed`: a closed-loop phase, then a pipelined phase, on one
/// long-lived connection per server round.
pub fn stream_mixed(seed: u64, seconds: f64, trace: bool) -> Result<Run, String> {
    let prep = prepare_stream(seed)?;
    let mut run = Run::default();
    let cpu = pin_to_one_cpu()?;
    run.info("pinned_cpu", cpu);
    if trace {
        traced(
            &prep,
            seed,
            seconds,
            Focus::Closed,
            "stream-mixed",
            &mut run,
        )?;
        return Ok(run);
    }
    let mut corpus = Corpus::new(&prep.lines);
    let mut rec = Recorder::new(false);
    // One block of samples at a time, so the client's own memory stays small
    // and does not grow with the server's speed.
    let mut samples = Vec::with_capacity(1 << 16);
    let (mut slices, mut p99s, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut setup = Vec::new();
    let mut count = 0usize;
    let block = Duration::from_secs_f64(seconds / 2.0 / f64::from(BLOCKS));
    let starts = with_servers(&prep, &mut run, ROUNDS, |addr, run| {
        let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let tally = &mut run.tally;
        corpus.closed_loop(&mut conn, WARMUP, &mut rec, &mut samples, tally);
        for _ in 0..BLOCKS as usize / ROUNDS {
            samples.clear();
            let until = Instant::now() + block;
            while Instant::now() < until {
                let from = samples.len();
                corpus.closed_loop(&mut conn, SLICE, &mut rec, &mut samples, tally);
                slices.push(p(&samples[from..], 0.5));
            }
            count += samples.len();
            p99s.push(p(&samples, 0.99));
            // Set-up is timed all through the run, like the round trips.
            time_setups(&prep.pack_json, SETUP_REPS, &mut setup)?;
        }
        corpus.pipelined(&mut conn, WINDOW, WARMUP, tally);
        for _ in 0..BLOCKS as usize / ROUNDS {
            rates.push(corpus.pipelined(&mut conn, WINDOW, block, tally));
        }
        Ok(())
    })?;
    setup.extend(starts);
    let (done, digest) = (corpus.first_pass_done(), corpus.digest.value());
    check_digest(&mut run, seed, "stream", done, digest, STREAM_DIGEST);
    run.info("pipelined_qps", median(&rates).unwrap_or(0.0));
    run.info("rtt_samples", count);
    run.info("rtt_slices", slices.len());
    run.info("rtt_p50_us", median(&slices).unwrap_or(0.0) / 1e3);
    run.info("rtt_p99_us", median(&p99s).unwrap_or(0.0) / 1e3);
    let per_block = count / p99s.len().max(1);
    run.info("rtt_p99_supported", tail_supported(0.99, per_block));
    run.info("setup_reps", setup.len());
    run.metrics.insert("setup_s", p(&setup, CONTENDED));
    run.metrics
        .insert("latency_p50_us", p(&slices, CONTENDED) / 1e3);
    run.metrics.insert("peak_rss_mb", peak_rss_mb());
    Ok(run)
}

fn totals(timings: &[SessionTiming]) -> Vec<f64> {
    timings.iter().map(|t| t.total_ns).collect()
}

/// A workload's own unit of work in the traced run: the phase that gets half of
/// the run and gives the tracing overhead.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Focus {
    Closed,
    /// Not a serving phase: the caller measures its own unit of work.
    Elsewhere,
}

/// The traced run of a serving workload: serving measurements, then the
/// operator-path layers on the seed's showcase records.
fn traced(
    prep: &Prepared,
    seed: u64,
    seconds: f64,
    focus: Focus,
    workload: &str,
    run: &mut Run,
) -> Result<(), String> {
    let mut rec = Recorder::new(false);
    traced_serving(prep, seed, seconds, focus, &mut rec, run)?;
    pack_bench::operator_layers(&mut rec, seed, None, run)?;
    write_spans(&rec, run, spans_path(workload));
    Ok(())
}

/// Serving measurements of a traced run on `prep`, against one server: a
/// closed-loop phase (half of `seconds` when it is the focus, a tenth
/// otherwise), a pipelined phase and a phase of short 16-line sessions (a tenth
/// each), then the in-process layer pass and the pack codec.
pub fn traced_serving(
    prep: &Prepared,
    seed: u64,
    seconds: f64,
    focus: Focus,
    rec: &mut Recorder,
    run: &mut Run,
) -> Result<(), String> {
    let mut corpus = Corpus::new(&prep.lines);
    let mut sessions = Sessions::new(&prep.lines, SESSION_LINES);
    // Closed-loop and session phases alternate untraced and traced blocks.
    let closed_share = seconds * if focus == Focus::Closed { 0.5 } else { 0.1 };
    let closed_block = Duration::from_secs_f64(closed_share / f64::from(TRACE_BLOCKS));
    let tenth = Duration::from_secs_f64(seconds * 0.1);
    let (mut closed, mut closed_traced) = (Vec::new(), Vec::new());
    let (mut timings, mut rates) = (Vec::new(), Vec::new());
    let mut closed_allocs = 0.0;
    with_servers(prep, run, 1, |addr, run| {
        let tally = &mut run.tally;
        let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let mut scratch = Vec::with_capacity(1 << 16);
        corpus.closed_loop(&mut conn, WARMUP, rec, &mut scratch, tally);
        for b in 0..TRACE_BLOCKS {
            let on = b % 2 == 1;
            rec.set_enabled(on);
            let sink = if on { &mut closed_traced } else { &mut closed };
            corpus.closed_loop(&mut conn, closed_block, rec, sink, tally);
        }
        rec.set_enabled(false);
        scratch.clear();
        let before = corpus.next;
        let (allocs, _) = layers::count_allocs(|| {
            corpus.closed_loop(&mut conn, COUNT_PASS, rec, &mut scratch, tally);
        });
        closed_allocs = allocs as f64 / (corpus.next - before).max(1) as f64;
        corpus.pipelined(&mut conn, WINDOW, WARMUP, tally);
        for _ in 0..5 {
            rates.push(corpus.pipelined(&mut conn, WINDOW, tenth / 5, tally));
        }
        drop(conn);

        sessions.run(addr, WARMUP, rec, &mut Vec::new(), tally);
        rec.set_enabled(true);
        sessions.run(addr, tenth, rec, &mut timings, tally);
        Ok(())
    })?;

    // The layer pass covers the error path even when the corpus has no invalid
    // lines.
    let mut layer_lines = prep.lines.clone();
    if layer_lines.iter().all(|l| l.expect == Expect::Answer) {
        let advisor = MultiAdvisor::from_json(&prep.pack_json).map_err(|e| e.to_string())?;
        layer_lines.extend(gen::lines(&advisor, &prep.targets, ERROR_PROBES, 1, seed)?);
    }
    rec.set_enabled(true);
    let budget = Duration::from_secs_f64(seconds / 40.0);
    let respond_ns = layers::measure(rec, &prep.pack_json, &layer_lines, &prep.cells, budget, run)?;
    pack_bench::codec_metrics(run, || prep.pack.to_json(), &prep.pack_json)?;

    let session_totals = totals(&timings);
    let connects: Vec<f64> = timings.iter().map(|t| t.connect_ns).collect();
    let m = &mut run.metrics;
    m.insert("serve.overhead_us", (p(&closed, 0.5) - respond_ns) / 1e3);
    m.insert("serve.rtt_p99_us", p(&closed, 0.99) / 1e3);
    m.insert("serve.session_p99_us", p(&session_totals, 0.99) / 1e3);
    m.insert("serve.connect_us", p(&connects, 0.5) / 1e3);
    m.insert("serve.pipelined_qps", median(&rates).unwrap_or(0.0));
    m.insert("serve.allocs_per_req", closed_allocs);
    if focus == Focus::Closed {
        let overhead = trace_overhead_pct(&closed, &closed_traced);
        m.insert("trace.overhead_pct", overhead);
    }
    Ok(())
}

pub fn write_spans(rec: &Recorder, run: &mut Run, path: std::path::PathBuf) {
    match rec.write_json(&path) {
        Ok(()) => {
            run.info("spans", rec.spans().len());
            run.info("spans_file", format!("\"{}\"", path.display()));
        }
        Err(e) => run
            .errors
            .push(format!("cannot write {}: {e}", path.display())),
    }
}
