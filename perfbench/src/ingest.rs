//! `ingest_mix`: reviews streaming in beside tag rank requests, through
//! one server and one persistent index.
//!
//! One generator thread streams reviews of 1–3 synthetic tags through
//! `SaccsServer::submit_ingest`, closed loop; the other sends tag rank
//! requests open loop through the same server. The index is a
//! persistent `LiveIndex` (default `LiveConfig`: seal and persist every
//! 64 reviews) with ANN on. Every `add_review` pays the index-sized
//! fold, publish and ANN rebuild, and competes with probes for the two
//! workers.

use crate::common::{self, Ids, Ladder, SETUPS};
use crate::load::{self, Outcome, Phase, Stream};
use crate::spans::SpanLog;
use crate::stats::Samples;
use crate::{sys, Args, Report};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saccs_core::{RankInput, RankRequest, SaccsConfig, SaccsService};
use saccs_data::{synthetic_tags, Entity};
use saccs_index::index::{EntityEvidence, IndexConfig};
use saccs_index::{LiveConfig, LiveIndex, ReviewRecord, SubjectiveIndex};
use saccs_serve::SaccsServer;
use saccs_text::{ConceptualSimilarity, Domain, Lexicon, SubjectiveTag};
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ENTITIES: usize = 500;
const INDEX_TAGS: usize = 1000;
/// Review tags are drawn from this many synthetic tags; the ones past
/// `INDEX_TAGS` are unindexed.
const VOCAB: usize = 2000;
const INITIAL_REVIEWS_PER_ENTITY: usize = 2;
const CORPUS_SEED: u64 = 0x1A6E;
const TAG_SEED: u64 = 0x5EED;
const TEMPLATE_SEED: u64 = 0x7A65;
/// Distinct rank templates: one nominal window (100 rps for 3 s at the
/// default 15 s run) sends each exactly once.
const TEMPLATES: usize = 300;
const CYCLES: usize = 64;
/// Distinct reviews; the stream sends each once per cycle, in seeded order.
const REVIEW_POOL: usize = 512;
const REVIEW_CYCLES: usize = 32;
const REVIEW_SEED: u64 = 0x4E71;
/// Reviews streamed into a reopened store between two simulated
/// crashes; `lost_acked` counts how many of them the second reopen
/// misses. A fixed count makes the loss repeat exactly.
const CRASH_PROBE_REVIEWS: usize = 100;
/// Direct `add_review` calls in the isolation pass.
const ISOLATED_REVIEWS: usize = 128;
/// How long an acknowledged review may take to become visible.
const VISIBLE_TIMEOUT: Duration = Duration::from_secs(5);

pub const LADDER: Ladder = Ladder {
    rates: [50.0, 100.0, 16000.0],
    limit_ms: 250.0,
    warm_passes: 0,
};

fn index_config() -> IndexConfig {
    IndexConfig {
        ann_enabled: true,
        ..IndexConfig::default()
    }
}

fn sim() -> ConceptualSimilarity {
    ConceptualSimilarity::new(Lexicon::new(Domain::Restaurants))
}

struct Mix {
    entities: Vec<Entity>,
    live: Arc<LiveIndex>,
    service: Arc<SaccsService>,
    vocab: Vec<SubjectiveTag>,
}

fn open(dir: &Path) -> Result<LiveIndex, String> {
    LiveIndex::open(dir, sim(), index_config(), LiveConfig::default())
        .map_err(|e| format!("open store {}: {e:?}", dir.display()))
}

fn build(dir: &Path) -> Result<Mix, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let lexicon = Lexicon::new(Domain::Restaurants);
    let mut rng = StdRng::seed_from_u64(CORPUS_SEED);
    let entities: Vec<Entity> = (0..ENTITIES)
        .map(|id| Entity::sample(id, &lexicon, &mut rng))
        .collect();
    let vocab = synthetic_tags(&lexicon, VOCAB, TAG_SEED);
    if vocab.len() < VOCAB {
        return Err(format!(
            "synthetic tag space holds only {} tags",
            vocab.len()
        ));
    }
    let live = open(dir)?;
    for _ in 0..INITIAL_REVIEWS_PER_ENTITY {
        for entity in &entities {
            live.add_review(entity.id, &review_tags(&vocab, &mut rng));
        }
    }
    live.add_tags(&vocab[..INDEX_TAGS]);
    let live = Arc::new(live);
    let service = Arc::new(SaccsService::with_live_index(
        Arc::clone(&live),
        SaccsConfig::default(),
    ));
    Ok(Mix {
        entities,
        live,
        service,
        vocab,
    })
}

fn review_tags(vocab: &[SubjectiveTag], rng: &mut StdRng) -> Vec<SubjectiveTag> {
    let k = 1 + rng.gen_range(0..3);
    (0..k)
        .map(|_| vocab[rng.gen_range(0..VOCAB)].clone())
        .collect()
}

/// The review stream and the rank-request stream: fixed reviews and
/// templates, each once per cycle, each cycle in seeded order.
fn streams(vocab: &[SubjectiveTag], seed: u64) -> (Vec<(usize, Vec<SubjectiveTag>)>, Stream) {
    use rand::seq::SliceRandom;
    let mut rng = StdRng::seed_from_u64(REVIEW_SEED);
    let pool: Vec<(usize, Vec<SubjectiveTag>)> = (0..REVIEW_POOL)
        .map(|_| (rng.gen_range(0..ENTITIES), review_tags(vocab, &mut rng)))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut reviews = Vec::with_capacity(REVIEW_POOL * REVIEW_CYCLES);
    for _ in 0..REVIEW_CYCLES {
        let mut cycle = pool.clone();
        cycle.shuffle(&mut rng);
        reviews.extend(cycle);
    }
    let mut rng = StdRng::seed_from_u64(TEMPLATE_SEED);
    let templates = (0..TEMPLATES)
        .map(|_| {
            let k = 1 + rng.gen_range(0..3);
            let mut tags: Vec<SubjectiveTag> = (0..k)
                .map(|_| vocab[rng.gen_range(0..INDEX_TAGS)].clone())
                .collect();
            if rng.gen_range(0..4) == 0 {
                tags.push(vocab[rng.gen_range(INDEX_TAGS..VOCAB)].clone());
            }
            RankRequest::tags(tags)
        })
        .collect();
    let stream = Stream::balanced(templates, &[1; TEMPLATES], seed, CYCLES);
    (reviews, stream)
}

/// One review as the ingest generator saw it.
struct Ack {
    /// When the review was submitted.
    at: Instant,
    seq: Option<u64>,
    outcome: Outcome,
    ack_ms: f64,
    visible_ms: Option<f64>,
}

/// Reviews handed out in stream order across windows.
struct ReviewFeed<'a> {
    reviews: &'a [(usize, Vec<SubjectiveTag>)],
    next: usize,
}

impl ReviewFeed<'_> {
    fn next(&mut self) -> (usize, Vec<SubjectiveTag>) {
        let r = self.reviews[self.next % self.reviews.len()].clone();
        self.next += 1;
        r
    }
}

/// Closed-loop ingest until `stop`; each review is acknowledged, then
/// polled on fresh pins until visible.
fn ingest_loop(
    server: &SaccsServer,
    live: &LiveIndex,
    feed: &mut ReviewFeed<'_>,
    stop: &AtomicBool,
) -> Vec<Ack> {
    let mut acks = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        let (entity, tags) = feed.next();
        let t0 = Instant::now();
        let reply = server.submit_ingest(entity, tags);
        let ack_ms = t0.elapsed().as_secs_f64() * 1e3;
        acks.push(match reply {
            Ok(receipt) => {
                let visible_ms = loop {
                    if live.pin().ingested() > receipt.seq {
                        break Some(t0.elapsed().as_secs_f64() * 1e3);
                    }
                    if t0.elapsed() > VISIBLE_TIMEOUT {
                        break None;
                    }
                    std::thread::yield_now();
                };
                Ack {
                    at: t0,
                    seq: Some(receipt.seq),
                    outcome: if visible_ms.is_some() {
                        Outcome::Full
                    } else {
                        Outcome::Error
                    },
                    ack_ms,
                    visible_ms,
                }
            }
            Err(e) => Ack {
                at: t0,
                seq: None,
                outcome: Outcome::of_error(&e),
                ack_ms,
                visible_ms: None,
            },
        });
    }
    acks
}

/// Run `rank` on this thread while a second thread streams reviews.
fn mixed<T>(
    server: &SaccsServer,
    live: &LiveIndex,
    feed: &mut ReviewFeed<'_>,
    rank: impl FnOnce() -> T,
) -> (T, Vec<Ack>) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let ingest = std::thread::Builder::new()
            .name("perfbench-ingest".into())
            .spawn_scoped(scope, || ingest_loop(server, live, feed, &stop))
            .expect("spawn ingest generator");
        let out = rank();
        stop.store(true, Ordering::Relaxed);
        let acks = ingest.join().expect("ingest generator panicked");
        (out, acks)
    })
}

pub fn run(args: &Args) -> Result<(Report, Result<(), String>), String> {
    let mut report = Report::default();
    let dir = common::run_dir().join(format!("store-{}", std::process::id()));
    let result = run_in(args, &dir, &mut report);
    let _ = std::fs::remove_dir_all(&dir);
    result.map(|gate| (report, gate))
}

fn run_in(args: &Args, dir: &Path, report: &mut Report) -> Result<Result<(), String>, String> {
    let setups = if args.trace { 1 } else { SETUPS };
    let (mix, setup_secs) = common::repeated_setup(setups, || build(dir))?;
    let (reviews, stream) = streams(&mix.vocab, args.seed);
    let mut feed = ReviewFeed {
        reviews: &reviews,
        next: 0,
    };
    report.info(format!(
        "ingest_mix: {ENTITIES} entities, {} index tags, ANN on, persistent store, seal every {}; \
         1 closed-loop ingest thread + 1 open-loop rank thread, rates {:?} rps over {} s",
        mix.live.tag_count(),
        LiveConfig::default().seal_every,
        LADDER.rates,
        args.seconds
    ));
    let spans = SpanLog::new(args.trace);
    let mut ids = Ids::new();
    let mut acked_seqs: Vec<u64> = Vec::new();
    let mut keep = |acks: &[Ack]| acked_seqs.extend(acks.iter().filter_map(|a| a.seq));

    let plain = common::start_server(&mix.service, &mix.entities, false);
    let (_, warm) = mixed(&plain, &mix.live, &mut feed, || {
        common::warm_up(&plain, &stream, &LADDER, 1, &mut ids)
    });
    keep(&warm);
    let mut baseline: Option<Phase> = None;
    let server = if args.trace {
        let quiet = SpanLog::new(false);
        let window = LADDER.window(args);
        let (phase, acks) = mixed(&plain, &mix.live, &mut feed, || {
            common::fixed_rate(
                &plain,
                &stream,
                &quiet,
                LADDER.nominal(),
                window,
                1,
                &mut ids,
            )
        });
        keep(&acks);
        baseline = Some(phase);
        drop(plain);
        let traced = common::start_server(&mix.service, &mix.entities, true);
        let (_, warm) = mixed(&traced, &mix.live, &mut feed, || {
            common::warm_up(&traced, &stream, &LADDER, 1, &mut ids)
        });
        keep(&warm);
        traced
    } else {
        plain
    };

    let counters0 = [
        common::counter("index.ingest.seals"),
        common::counter("index.ingest.merges"),
    ];
    let (run, acks) = mixed(&server, &mix.live, &mut feed, || {
        common::run_ladder(&server, &stream, &spans, &LADDER, args, 1, &mut ids)
    });
    let run = run?;
    keep(&acks);
    let seals = common::counter("index.ingest.seals") - counters0[0];
    let merges = common::counter("index.ingest.merges") - counters0[1];
    let acked = acks.iter().filter(|a| a.seq.is_some()).count();

    common::put_rank(report, &LADDER, &run);
    let t = load::tally(run.phases());
    let ingest_failed = acks.iter().filter(|a| a.outcome.failed()).count() as u64;
    common::put_outcomes(report, t[0] + acks.len() as u64, t[1] + ingest_failed);
    // The ingest metrics, like the rank latencies and CPU, cover the
    // reviews sent during the nominal windows.
    let (from, to) = run.nominal_span;
    let steady: Vec<&Ack> = acks
        .iter()
        .filter(|a| a.seq.is_some() && a.at >= from && a.at < to)
        .collect();
    common::put_cpu(report, &run, steady.len());
    common::put_setup_and_rss(report, &setup_secs)?;
    let mut ack_ms = Samples::new();
    let mut visible_ms = Samples::new();
    for a in &steady {
        ack_ms.push(a.ack_ms);
        if let Some(v) = a.visible_ms {
            visible_ms.push(v);
        }
    }
    let span = to.duration_since(from).as_secs_f64();
    report.put_note(
        "ingest_rps",
        steady.len() as f64 / span,
        steady.len(),
        &format!("reviews sent in the {span:.3} s of the nominal windows"),
    );
    report.put("ingest_p99_ms", ack_ms.tail(), ack_ms.len());
    report.put("visible_p99_ms", visible_ms.tail(), visible_ms.len());
    // The review acknowledgement is this workload's primary operation.
    report.put_note(
        "op_p50_ms",
        ack_ms.p50(),
        ack_ms.len(),
        "review acknowledgement",
    );
    report.alias("ingest_p99_ms", "op_tail_ms");
    report.alias("ingest_rps", "op_max_per_s");
    let kreviews = acked.max(1) as f64 / 1e3;
    report.put("index.seals_per_kreview", seals as f64 / kreviews, acked);
    report.put("index.merges_per_kreview", merges as f64 / kreviews, acked);
    report.put("index.segments", mix.live.segment_count() as f64, 1);

    if let Some(base) = &baseline {
        common::put_traced_phase(report, &spans, &server, &run);
        common::put_trace_overhead(report, base, &run);
    }
    drop(server);

    let gate = gate(&mix, &stream, &acked_seqs);
    if let Ok(n) = &gate {
        report.info(format!(
            "gate: {} acknowledged seqs present; {n} probes equal a from-scratch rebuild bit for bit",
            acked_seqs.len()
        ));
    }

    if args.trace {
        isolate(
            report,
            &mix,
            &stream,
            &spans,
            &run.nominal,
            &mut feed,
            dir,
            &ack_ms,
        )?;
        common::write_trace(report, &spans, args)?;
    }
    let Mix {
        live,
        service,
        entities,
        ..
    } = mix;
    drop(service);
    crash_probe(report, live, &entities, &mut feed, dir)?;
    Ok(gate.map(|_| ()))
}

/// The from-scratch comparator of the ingest test suite: register the
/// review log's evidence in first-seen order, then index the tags.
fn rebuild(log: &[ReviewRecord], tags: &[SubjectiveTag]) -> SubjectiveIndex {
    let mut idx = SubjectiveIndex::new(sim(), index_config());
    let mut evidence: Vec<EntityEvidence> = Vec::new();
    for record in log {
        match evidence
            .iter_mut()
            .find(|e| e.entity_id == record.entity_id)
        {
            Some(ev) => {
                ev.review_count += 1;
                ev.review_tags.extend(record.tags.iter().cloned());
            }
            None => evidence.push(EntityEvidence {
                entity_id: record.entity_id,
                review_count: 1,
                review_tags: record.tags.clone(),
            }),
        }
    }
    for ev in evidence {
        idx.register_entity(ev);
    }
    idx.index_tags(tags);
    idx
}

/// Every acknowledged seq is in the review log, and probes of the final
/// snapshot equal a rebuild over that log bit for bit.
fn gate(mix: &Mix, stream: &Stream, acked: &[u64]) -> Result<usize, String> {
    let log = mix.live.review_log();
    let present: BTreeSet<u64> = log.iter().map(|r| r.seq).collect();
    if let Some(missing) = acked.iter().find(|s| !present.contains(s)) {
        return Err(format!(
            "acknowledged review seq {missing} is missing from the review log"
        ));
    }
    let frozen = rebuild(&log, &mix.vocab[..INDEX_TAGS]);
    let snapshot = mix.live.pin();
    let mut probes: BTreeSet<SubjectiveTag> = mix.vocab[..32].iter().cloned().collect();
    probes.extend(mix.vocab[INDEX_TAGS..INDEX_TAGS + 8].iter().cloned());
    for t in &stream.templates {
        if let RankInput::Tags(tags) = &t.input {
            probes.extend(tags.iter().cloned());
        }
    }
    for tag in &probes {
        let got = load::bits(&mix.live.probe_pinned(&snapshot, tag));
        let want = load::bits(&frozen.probe_readonly(tag));
        if got != want {
            return Err(format!(
                "live probe for {} differs from the rebuild over {} reviews",
                tag.phrase(),
                log.len()
            ));
        }
    }
    Ok(probes.len())
}

/// Direct `add_review`, `pin`, `probe_pinned`, `compact_now` and
/// `checkpoint` calls on the same index, continuing the review stream.
#[allow(clippy::too_many_arguments)]
fn isolate(
    report: &mut Report,
    mix: &Mix,
    stream: &Stream,
    spans: &SpanLog,
    nominal: &Phase,
    feed: &mut ReviewFeed<'_>,
    dir: &Path,
    ack_ms: &Samples,
) -> Result<(), String> {
    let base_id = u64::MAX / 2;
    let mut add = Samples::new();
    let mut pin = Samples::new();
    for i in 0..ISOLATED_REVIEWS {
        let id = base_id + i as u64;
        let (entity, tags) = feed.next();
        let (_, us) = spans.time(id, "iso.add_review", || mix.live.add_review(entity, &tags));
        add.push(us);
        let (_, us) = spans.time(id, "iso.pin", || mix.live.pin());
        pin.push(us);
    }
    report.put("index.add_review_us_p50", add.p50(), add.len());
    report.put("index.add_review_us_p99", add.tail(), add.len());
    report.put("index.pin_us_p50", pin.p50(), pin.len());
    let mut ack_us = ack_ms.clone();
    let wait = ack_us.tail() * 1e3 - add.p50();
    report.put_note(
        "ingest.wait_us_p99",
        wait.max(0.0),
        ack_ms.len(),
        "tail ack latency minus median isolated add_review",
    );

    let mut probes = common::ProbeTimes::new();
    let snapshot = mix.live.pin();
    for shot in &nominal.shots {
        if let RankInput::Tags(tags) = &stream.templates[shot.key].input {
            for tag in tags {
                probes.probe(&mix.live, &snapshot, tag, shot.id, spans);
            }
        }
    }
    probes.put(report);

    let id = base_id + ISOLATED_REVIEWS as u64;
    let (merged, us) = spans.time(id, "iso.compact_now", || mix.live.compact_now());
    merged.map_err(|e| format!("compact_now: {e:?}"))?;
    report.info(format!("isolated compact_now took {:.3} ms", us / 1e3));
    let (done, us) = spans.time(id, "iso.checkpoint", || mix.live.checkpoint());
    done.map_err(|e| format!("checkpoint: {e:?}"))?;
    report.put("index.checkpoint_ms", us / 1e3, 1);
    let ingested = mix.live.ingested();
    report.put(
        "index.store_bytes_per_review",
        sys::dir_bytes(dir)? as f64 / ingested.max(1) as f64,
        ingested as usize,
    );
    Ok(())
}

/// Simulate two process crashes: drop the index without a checkpoint
/// and reopen it, stream [`CRASH_PROBE_REVIEWS`] acknowledged reviews
/// into the reopened store, drop and reopen again, and count the
/// acknowledged reviews the second reopen lost.
fn crash_probe(
    report: &mut Report,
    live: Arc<LiveIndex>,
    entities: &[Entity],
    feed: &mut ReviewFeed<'_>,
    dir: &Path,
) -> Result<(), String> {
    let before = live.ingested();
    drop(live);
    let reopened = Arc::new(open(dir)?);
    let recovered = reopened.ingested();
    report.info(format!(
        "crash after the run: {before} acknowledged, {recovered} recovered"
    ));
    let service = Arc::new(SaccsService::with_live_index(
        Arc::clone(&reopened),
        SaccsConfig::default(),
    ));
    let server = common::start_server(&service, entities, false);
    for _ in 0..CRASH_PROBE_REVIEWS {
        let (entity, tags) = feed.next();
        server
            .submit_ingest(entity, tags)
            .map_err(|e| format!("crash probe ingest: {e}"))?;
    }
    drop(server);
    drop(service);
    drop(reopened);
    let again = open(dir)?.ingested();
    let acked = recovered + CRASH_PROBE_REVIEWS as u64;
    report.put_note(
        "lost_acked",
        acked.saturating_sub(again) as f64,
        CRASH_PROBE_REVIEWS,
        &format!("of {CRASH_PROBE_REVIEWS} acknowledged reviews after a crash without checkpoint"),
    );
    Ok(())
}
