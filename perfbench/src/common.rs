//! Pieces every workload shares: repeated set-up, the rate ladder, the
//! serial-replay correctness gate for read traffic, and the metrics
//! derived from a traced phase.

use crate::load::{self, Phase, Stream, SUBMIT_SPAN};
use crate::spans::SpanLog;
use crate::stats::{median, Samples};
use crate::{sys, Args, Report};
use saccs_core::{SaccsService, SearchApi};
use saccs_data::Entity;
use saccs_index::{LiveIndex, LiveSnapshot};
use saccs_serve::{RecorderConfig, SaccsServer, ServeConfig};
use saccs_text::SubjectiveTag;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workers of the server under test.
pub const WORKERS: usize = 2;
/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Untimed open-loop traffic at the nominal rate before measuring, so
/// per-worker caches fill and lazy set-up finishes.
pub const WARMUP: Duration = Duration::from_millis(1000);

/// Where runs keep their scratch state (stores, the written trace),
/// relative to the directory the benchmark runs from.
pub fn run_dir() -> PathBuf {
    PathBuf::from(".bench_run")
}

/// Generator threads for read traffic: at most `nproc`, at most two.
pub fn generator_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .clamp(1, 2)
}

/// A registry counter's current value.
pub fn counter(name: &str) -> u64 {
    saccs_obs::registry().counter(name).get()
}

/// The fixed rates of a workload, low to high, and its latency limit on
/// the tail percentile. The middle rate is the nominal one.
#[derive(Debug, Clone, Copy)]
pub struct Ladder {
    pub rates: [f64; 3],
    pub limit_ms: f64,
    /// Closed-loop passes over every template before the timed warm-up,
    /// for workloads whose workers keep per-thread caches: enough that
    /// each worker has met each template, so the measured phases see a
    /// steady cache rather than one still filling.
    pub warm_passes: usize,
}

/// Each rung's share of the measured seconds. The nominal rung, which
/// the latency metrics come from, gets most and runs as
/// [`NOMINAL_WINDOWS`] back-to-back windows.
const RUNG_SHARE: [f64; 3] = [0.2, 0.6, 0.2];
/// The latency metrics are medians over these windows, so one stall of
/// the machine moves at most one of them.
pub const NOMINAL_WINDOWS: usize = 3;

impl Ladder {
    pub fn nominal(&self) -> f64 {
        self.rates[1]
    }

    /// How long rung `i` runs in all.
    pub fn rung(&self, args: &Args, i: usize) -> Duration {
        Duration::from_secs_f64(args.seconds as f64 * RUNG_SHARE[i])
    }

    /// One window of the nominal rung.
    pub fn window(&self, args: &Args) -> Duration {
        self.rung(args, 1) / NOMINAL_WINDOWS as u32
    }
}

/// What one pass over the ladder measured.
pub struct LadderRun {
    pub low: Phase,
    pub windows: Vec<Phase>,
    /// The windows as one phase.
    pub nominal: Phase,
    pub top: Phase,
    /// CPU seconds of the system's threads over the nominal windows.
    pub nominal_cpu_s: f64,
    /// When the nominal windows started and ended.
    pub nominal_span: (Instant, Instant),
}

impl LadderRun {
    pub fn phases(&self) -> impl Iterator<Item = &Phase> {
        std::iter::once(&self.low)
            .chain(self.windows.iter())
            .chain(std::iter::once(&self.top))
    }
}

/// Run `build` `times` times and keep the last result; returns the
/// per-build seconds too.
pub fn repeated_setup<T>(
    times: usize,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        // Drop the previous build first so peak memory is one build's.
        drop(last.take());
        let t0 = Instant::now();
        let built = build()?;
        secs.push(t0.elapsed().as_secs_f64());
        last = Some(built);
    }
    Ok((last.expect("at least one set-up ran"), secs))
}

pub fn start_server(service: &Arc<SaccsService>, entities: &[Entity], traced: bool) -> SaccsServer {
    let recorder = traced.then(|| RecorderConfig {
        // Large enough to keep every traced request of a run.
        ring: 1 << 16,
        exemplars: 8,
        ..RecorderConfig::default()
    });
    SaccsServer::start(
        Arc::clone(service),
        entities.to_vec(),
        ServeConfig {
            workers: WORKERS,
            queue_depth: 64,
            batch: 4,
            recorder,
        },
    )
}

/// Allocates request ids so every request of a run has its own.
pub struct Ids(u64);

impl Ids {
    pub fn new() -> Self {
        Ids(0)
    }

    /// `n` fresh ids, the first a multiple of `align`.
    pub fn take(&mut self, n: usize, align: usize) -> u64 {
        let align = align.max(1) as u64;
        let first = self.0.div_ceil(align) * align;
        self.0 = first + n as u64;
        first
    }
}

/// Run every rung of `ladder` in order.
pub fn run_ladder(
    server: &SaccsServer,
    stream: &Stream,
    spans: &SpanLog,
    ladder: &Ladder,
    args: &Args,
    threads: usize,
    ids: &mut Ids,
) -> Result<LadderRun, String> {
    let mut rung =
        |i: usize, d: Duration| fixed_rate(server, stream, spans, ladder.rates[i], d, threads, ids);
    let low = rung(0, ladder.rung(args, 0));
    let cpu0 = sys::system_cpu_seconds()?;
    let start = Instant::now();
    let windows: Vec<Phase> = (0..NOMINAL_WINDOWS)
        .map(|_| rung(1, ladder.window(args)))
        .collect();
    let end = Instant::now();
    let nominal_cpu_s = sys::system_cpu_seconds()? - cpu0;
    let top = rung(2, ladder.rung(args, 2));
    Ok(LadderRun {
        nominal: Phase::merge(&windows),
        low,
        windows,
        top,
        nominal_cpu_s,
        nominal_span: (start, end),
    })
}

/// One open-loop phase at `rate` for `duration`, with fresh request ids.
pub fn fixed_rate(
    server: &SaccsServer,
    stream: &Stream,
    spans: &SpanLog,
    rate: f64,
    duration: Duration,
    threads: usize,
    ids: &mut Ids,
) -> Phase {
    let n = load::planned(rate, duration);
    // Phases start on a cycle boundary of the stream, so a phase of whole
    // cycles carries exactly the stream's template mix.
    load::open_loop(
        server,
        stream,
        spans,
        rate,
        n,
        threads,
        ids.take(n, stream.cycle),
    )
}

/// Untimed warm-up: `ladder.warm_passes` closed-loop passes over every
/// template, then open-loop traffic at the nominal rate.
pub fn warm_up(
    server: &SaccsServer,
    stream: &Stream,
    ladder: &Ladder,
    threads: usize,
    ids: &mut Ids,
) {
    let total = ladder.warm_passes * stream.templates.len();
    std::thread::scope(|scope| {
        for g in 0..threads {
            scope.spawn(move || {
                for i in (g..total).step_by(threads) {
                    let template = &stream.templates[i % stream.templates.len()];
                    // Outcomes are not measured here; a failure shows in
                    // the timed phases that follow.
                    let _ = server.submit(template.clone());
                }
            });
        }
    });
    let quiet = SpanLog::new(false);
    fixed_rate(
        server,
        stream,
        &quiet,
        ladder.nominal(),
        WARMUP,
        threads,
        ids,
    );
}

/// The rank metrics of a ladder run: latency is the median over the
/// nominal windows of each window's percentile.
pub fn put_rank(report: &mut Report, ladder: &Ladder, run: &LadderRun) {
    let mut p50s = Vec::new();
    let mut p90s = Vec::new();
    let mut tails = Vec::new();
    let mut tail_pct = Vec::new();
    for w in &run.windows {
        let mut lat = w.latency_ms();
        p50s.push(lat.p50());
        p90s.push(lat.p90());
        tails.push(lat.tail());
        tail_pct.push(lat.tail_pct());
    }
    let n = run.nominal.shots.len();
    let note = format!(
        "median of {} windows at {} rps; window tails are p{:.2}",
        run.windows.len(),
        ladder.nominal(),
        median(&tail_pct)
    );
    report.put_note("rank_p50_ms", median(&p50s), n, &note);
    report.put_note("rank_p90_ms", median(&p90s), n, &note);
    report.put_note("rank_p99_ms", median(&tails), n, &note);
    let rungs = [&run.low, &run.nominal, &run.top];
    let best = rungs
        .iter()
        .filter(|p| p.sustains(ladder.limit_ms))
        .max_by(|a, b| a.rate.total_cmp(&b.rate));
    let shown: Vec<String> = rungs
        .iter()
        .map(|p| {
            let mut l = p.latency_ms();
            format!(
                "{}rps:sent={}/{},p50={:.3}ms,tail={:.3}ms,{}",
                p.rate,
                p.shots.len(),
                p.planned,
                l.p50(),
                l.tail(),
                if p.sustains(ladder.limit_ms) {
                    "ok"
                } else {
                    "over"
                }
            )
        })
        .collect();
    report.info(format!(
        "ladder limit={}ms on the tail percentile: {}",
        ladder.limit_ms,
        shown.join(" ")
    ));
    report.put_note(
        "rank_max_rps",
        best.map_or(0.0, |p| p.achieved_rps()),
        best.map_or(0, |p| p.completed()),
        &format!(
            "achieved rate at the highest rung meeting {} ms (rung {} rps)",
            ladder.limit_ms,
            best.map_or(0.0, |p| p.rate)
        ),
    );
    // The top rung is meant to overload the generator; lateness is
    // judged where the ladder should hold.
    let mut late = Samples::new();
    for s in run.low.shots.iter().chain(&run.nominal.shots) {
        late.push(s.late.as_secs_f64() * 1e3);
    }
    report.put_note(
        "gen.late_p99_ms",
        late.tail(),
        late.len(),
        "low and nominal rungs",
    );
}

/// `ok_pct`, `fail_pct` and the JSON counts from operation totals.
pub fn put_outcomes(report: &mut Report, attempted: u64, failed: u64) {
    report.attempted = attempted;
    report.failed = failed;
    let fail = 100.0 * failed as f64 / attempted.max(1) as f64;
    report.put("ok_pct", 100.0 - fail, attempted as usize);
    report.put("fail_pct", fail, attempted as usize);
}

/// CPU per completed operation over the nominal windows; `other_ops`
/// are operations besides rank requests completed in that span.
pub fn put_cpu(report: &mut Report, run: &LadderRun, other_ops: usize) {
    let ops = run.nominal.completed() + other_ops;
    report.put_note(
        "cpu_ms_per_op",
        run.nominal_cpu_s * 1e3 / ops.max(1) as f64,
        ops,
        "user+system CPU of the saccs- threads over the nominal windows",
    );
}

pub fn put_setup_and_rss(report: &mut Report, setup_secs: &[f64]) -> Result<(), String> {
    let per: Vec<String> = setup_secs.iter().map(|s| format!("{s:.3}")).collect();
    report.put_note(
        "setup_s",
        median(setup_secs),
        setup_secs.len(),
        &format!("median of set-ups [{}] s", per.join(", ")),
    );
    report.put("peak_rss_mb", sys::peak_rss_mb()?, 1);
    Ok(())
}

/// Replay every distinct request that was served at full fidelity
/// through serial `rank_request` on the same service and compare scores
/// bit for bit.
pub fn gate_serial_replay(
    service: &SaccsService,
    entities: &[Entity],
    stream: &Stream,
    run: &LadderRun,
) -> Result<usize, String> {
    let api = SearchApi::new(entities);
    let mut reference: BTreeMap<usize, Vec<(usize, u32)>> = BTreeMap::new();
    let mut checked = 0usize;
    for phase in run.phases() {
        for shot in phase.shots.iter().filter(|s| !s.outcome.failed()) {
            let want = reference.entry(shot.key).or_insert_with(|| {
                load::bits(
                    &service
                        .rank_request(&stream.templates[shot.key], &api)
                        .results,
                )
            });
            if *want != shot.results {
                return Err(format!(
                    "request {} (template {}) served {:?}, serial rank_request gives {:?}",
                    shot.id, shot.key, shot.results, want
                ));
            }
            checked += 1;
        }
    }
    if checked == 0 {
        return Err("no request was served at full fidelity".into());
    }
    Ok(checked)
}

/// Per-request queue wait (µs) of the traced requests in `phase`, read
/// from the server's flight recorder.
pub fn queue_wait_us(server: &SaccsServer, phase: &Phase) -> Samples {
    let ids = phase.ids();
    let mut out = Samples::new();
    if let Some(report) = server.obs_report() {
        for t in report.traces.iter().filter(|t| ids.contains(&t.id)) {
            out.push(t.queue_ns as f64 / 1e3);
        }
    }
    out
}

/// Stage and serve self times of a traced phase, from the span log.
pub fn put_traced_phase(
    report: &mut Report,
    spans: &SpanLog,
    server: &SaccsServer,
    run: &LadderRun,
) {
    let (nominal, top) = (&run.nominal, &run.top);
    let mut selfs = spans.self_times_us(Some(nominal.ids()));
    let mut stage = |name: &str| selfs.remove(name).unwrap_or_default();
    let mut put_stage = |metric_p50: &str, metric_tail: Option<&str>, mut s: Samples| {
        report.put(metric_p50, s.p50(), s.len());
        if let Some(m) = metric_tail {
            report.put(m, s.tail(), s.len());
        }
    };
    put_stage(
        "algo1.extract_us_p50",
        Some("algo1.extract_us_p99"),
        stage("algo1.extract"),
    );
    put_stage(
        "algo1.filter_us_p50",
        Some("algo1.filter_us_p99"),
        stage("algo1.filter"),
    );
    put_stage(
        "algo1.probe_us_p50",
        Some("algo1.probe_us_p99"),
        stage("algo1.probe"),
    );
    put_stage("algo1.aggregate_us_p50", None, stage("algo1.aggregate"));
    put_stage("algo1.pad_us_p50", None, stage("algo1.pad"));
    put_stage("algo1.search_api_us_p50", None, stage("algo1.search_api"));
    put_stage("serve.self_us_p50", None, stage(SUBMIT_SPAN));
    let mut wait = queue_wait_us(server, top);
    let note = format!("top rung, {} rps", top.rate);
    report.put_note("serve.queue_wait_p50_us", wait.p50(), wait.len(), &note);
    report.put_note("serve.queue_wait_p99_us", wait.tail(), wait.len(), &note);
    let t = load::tally([nominal, top]);
    report.put("serve.shed", t[2] as f64, t[0] as usize);
    report.put("core.degraded", t[4] as f64, t[0] as usize);
}

/// `obs.trace_overhead_pct`: traced against untraced median latency at
/// the nominal rate.
pub fn put_trace_overhead(report: &mut Report, untraced: &Phase, run: &LadderRun) {
    let traced = &run.nominal;
    let mut u = untraced.latency_ms();
    let mut t = traced.latency_ms();
    let base = u.p50();
    report.put_note(
        "obs.trace_overhead_pct",
        100.0 * (t.p50() - base) / base.max(1e-9),
        u.len().min(t.len()),
        &format!("traced p50 {:.4} ms vs untraced {:.4} ms", t.p50(), base),
    );
}

/// Write the traced run's spans out and note where.
pub fn write_trace(report: &mut Report, spans: &SpanLog, args: &Args) -> Result<(), String> {
    let path = run_dir().join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    let n = spans.write(&path)?;
    report.info(format!("trace: {n} spans written to {}", path.display()));
    Ok(())
}

/// Direct `LiveIndex::probe_pinned` timings, split by path, with the
/// probe counters read around them.
pub struct ProbeTimes {
    exact: Samples,
    fallback: Samples,
    before: [u64; 4],
}

const PROBE_COUNTERS: [&str; 4] = [
    "index.probe.exact",
    "index.probe.fallback",
    "index.probe.ann.candidates",
    "index.probe.ann.rescored",
];

impl ProbeTimes {
    pub fn new() -> Self {
        ProbeTimes {
            exact: Samples::new(),
            fallback: Samples::new(),
            before: PROBE_COUNTERS.map(counter),
        }
    }

    pub fn probe(
        &mut self,
        live: &LiveIndex,
        snapshot: &LiveSnapshot,
        tag: &SubjectiveTag,
        id: u64,
        spans: &SpanLog,
    ) {
        let exact = snapshot
            .index()
            .lookup(tag)
            .is_some_and(|postings| !postings.is_empty());
        let name = if exact {
            "iso.probe_exact"
        } else {
            "iso.probe_fallback"
        };
        let (_, us) = spans.time(id, name, || live.probe_pinned(snapshot, tag));
        if exact {
            self.exact.push(us);
        } else {
            self.fallback.push(us);
        }
    }

    pub fn put(mut self, report: &mut Report) {
        let after = PROBE_COUNTERS.map(counter);
        let d = |i: usize| (after[i] - self.before[i]) as f64;
        report.put(
            "index.probe_exact_us_p50",
            self.exact.p50(),
            self.exact.len(),
        );
        report.put(
            "index.probe_fallback_us_p50",
            self.fallback.p50(),
            self.fallback.len(),
        );
        report.put(
            "index.probe_fallback_us_p99",
            self.fallback.tail(),
            self.fallback.len(),
        );
        report.put(
            "index.fallback_share",
            d(1) / (d(0) + d(1)).max(1.0),
            (d(0) + d(1)) as usize,
        );
        report.put(
            "index.ann.rescore_ratio",
            d(3) / d(2).max(1.0),
            d(2) as usize,
        );
    }
}

/// The end-to-end `op_*` metrics of a workload whose primary operation
/// is the rank request; `tail` names the rank percentile gated as
/// `op_tail_ms`.
pub fn rank_is_primary(report: &mut Report, tail: &str) {
    report.alias("rank_p50_ms", "op_p50_ms");
    report.alias(tail, "op_tail_ms");
    report.alias("rank_max_rps", "op_max_per_s");
}

/// Serve the ladder for a read-only workload. Untraced runs warm one
/// plain server and measure on it. Traced runs first measure an untraced
/// nominal window for the tracing overhead, then warm a recorder-enabled
/// server and run the traced ladder, recording the per-layer serve
/// metrics.
#[allow(clippy::too_many_arguments)]
pub fn serve_read_ladder(
    report: &mut Report,
    service: &Arc<SaccsService>,
    entities: &[Entity],
    stream: &Stream,
    spans: &SpanLog,
    ladder: &Ladder,
    args: &Args,
    ids: &mut Ids,
) -> Result<LadderRun, String> {
    let threads = generator_threads();
    let plain = start_server(service, entities, false);
    warm_up(&plain, stream, ladder, threads, ids);
    if !args.trace {
        return run_ladder(&plain, stream, spans, ladder, args, threads, ids);
    }
    let quiet = SpanLog::new(false);
    let window = ladder.window(args);
    let baseline = fixed_rate(
        &plain,
        stream,
        &quiet,
        ladder.nominal(),
        window,
        threads,
        ids,
    );
    drop(plain);
    let server = start_server(service, entities, true);
    warm_up(&server, stream, ladder, threads, ids);
    let before = server.stats();
    let run = run_ladder(&server, stream, spans, ladder, args, threads, ids)?;
    let after = server.stats();
    let served = (after.served - before.served).max(1);
    report.put_note(
        "serve.batched_warm_share",
        (after.batched_warms - before.batched_warms) as f64 / served as f64,
        served as usize,
        "batched warm ticks per served request",
    );
    put_traced_phase(report, spans, &server, &run);
    put_trace_overhead(report, &baseline, &run);
    Ok(run)
}
