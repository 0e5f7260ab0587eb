//! `chat`: utterance requests against the trained service.
//!
//! Traffic is `RankRequest::utterance` built from the paper's query sets
//! (Short, Medium and Long difficulty, 1–6 canonical tags each), drawn
//! with a Zipf popularity over a seed-shuffled order so a popular head
//! repeats. The service is `SaccsBuilder::quick()` trained on a
//! 280-entity Yelp-style corpus. Extraction (encoder, tagger, pairing)
//! dominates; the index probes hit 18 exact tags.

use crate::common::{self, Ids, Ladder, SETUPS};
use crate::load::{self, Stream};
use crate::spans::SpanLog;
use crate::stats::Samples;
use crate::{Args, Report};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use saccs_core::{RankRequest, SaccsBuilder, SaccsService};
use saccs_data::queries::query_sets;
use saccs_data::yelp::{YelpConfig, YelpCorpus};
use saccs_data::{CrowdSimulator, Query};
use saccs_text::{Domain, Lexicon};
use std::collections::BTreeMap;
use std::sync::Arc;

const ENTITIES: usize = 280;
const REVIEWS: usize = 2000;
/// Queries per difficulty level (the paper's sets hold 100 each).
const QUERIES_PER_LEVEL: usize = 100;
const QUERY_SEED: u64 = 0x0C4A7;
/// Zipf exponent of query popularity.
const ZIPF_S: f64 = 0.9;
const POPULARITY_SEED: u64 = 0x21FF;
/// Requests per popularity cycle: one nominal window (200 rps for 3 s at
/// the default 15 s run).
const CYCLE: usize = 600;
const CYCLES: usize = 32;

/// The tail gated end to end. A chat request takes about a millisecond,
/// so its p99 sits on scheduler hiccups of the same size and moves by
/// 45% from run to run; the p90 holds within a few percent.
const GATED_TAIL: &str = "rank_p90_ms";

pub const LADDER: Ladder = Ladder {
    rates: [100.0, 200.0, 12800.0],
    limit_ms: 100.0,
    warm_passes: 8,
};

struct Chat {
    corpus: YelpCorpus,
    service: Arc<SaccsService>,
}

fn build() -> Result<Chat, String> {
    let corpus = YelpCorpus::generate(
        Lexicon::new(Domain::Restaurants),
        &YelpConfig {
            n_entities: ENTITIES,
            n_reviews: REVIEWS,
            ..Default::default()
        },
    );
    let trained = SaccsBuilder::quick().build(&corpus);
    Ok(Chat {
        corpus,
        service: Arc::new(trained.service),
    })
}

fn queries() -> Vec<Query> {
    query_sets(QUERIES_PER_LEVEL, QUERY_SEED)
        .into_iter()
        .flat_map(|(_, qs)| qs)
        .collect()
}

/// Zipf popularity over a fixed shuffled query order: in every cycle of
/// [`CYCLE`] requests the query at popularity rank `r` appears in
/// proportion to `1 / (r + 1)^s`, at least once (the most popular one
/// takes the rounding). The seed orders each cycle.
fn stream(queries: &[Query], seed: u64) -> Stream {
    let mut order: Vec<usize> = (0..queries.len()).collect();
    order.shuffle(&mut StdRng::seed_from_u64(POPULARITY_SEED));
    let weights: Vec<f64> = (0..order.len())
        .map(|rank| 1.0 / ((rank + 1) as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut counts = vec![0usize; queries.len()];
    for (rank, &q) in order.iter().enumerate() {
        counts[q] = ((CYCLE as f64 * weights[rank] / total).round() as usize).max(1);
    }
    let rest: usize = counts.iter().sum::<usize>() - counts[order[0]];
    counts[order[0]] = CYCLE - rest;
    let templates = queries
        .iter()
        .map(|q| RankRequest::utterance(q.utterance()))
        .collect();
    Stream::balanced(templates, &counts, seed, CYCLES)
}

pub fn run(args: &Args) -> Result<(Report, Result<(), String>), String> {
    let mut report = Report::default();
    let setups = if args.trace { 1 } else { SETUPS };
    let (chat, setup_secs) = common::repeated_setup(setups, build)?;
    let queries = queries();
    let stream = stream(&queries, args.seed);
    let threads = common::generator_threads();
    report.info(format!(
        "chat: {ENTITIES} entities, {REVIEWS} reviews, {} distinct utterances, zipf s={ZIPF_S}, \
         {} generator threads, rates {:?} rps over {} s",
        queries.len(),
        threads,
        LADDER.rates,
        args.seconds
    ));
    let entities = chat.corpus.entities.clone();
    let spans = SpanLog::new(args.trace);
    let mut ids = Ids::new();
    let run = common::serve_read_ladder(
        &mut report,
        &chat.service,
        &entities,
        &stream,
        &spans,
        &LADDER,
        args,
        &mut ids,
    )?;

    common::put_rank(&mut report, &LADDER, &run);
    common::rank_is_primary(&mut report, GATED_TAIL);
    let t = load::tally(run.phases());
    common::put_outcomes(&mut report, t[0], t[1]);
    common::put_cpu(&mut report, &run, 0);
    common::put_setup_and_rss(&mut report, &setup_secs)?;

    // Quality: NDCG@10 of the served rankings against crowd gains, one
    // value per distinct query served at the nominal rate.
    let crowd = CrowdSimulator::default();
    let mut per_query: BTreeMap<usize, f64> = BTreeMap::new();
    for shot in run.nominal.shots.iter().filter(|s| !s.outcome.failed()) {
        per_query.entry(shot.key).or_insert_with(|| {
            let gains = saccs_bench::query_gains(&queries[shot.key], &crowd, &chat.corpus);
            let ranked: Vec<usize> = shot.results.iter().map(|&(e, _)| e).collect();
            f64::from(saccs_bench::ndcg_of_ranking(&ranked, &gains, 10))
        });
    }
    report.put_note(
        "ndcg10",
        per_query.values().sum::<f64>() / per_query.len().max(1) as f64,
        per_query.len(),
        "mean over distinct queries served",
    );

    // Isolation runs before the serial replay of the gate, so this
    // thread's extractor meets each utterance first here, as a worker
    // does in the served run.
    if args.trace {
        isolate_extraction(&mut report, &chat.service, &stream, &spans, &run.nominal);
        common::write_trace(&mut report, &spans, args)?;
    }
    let gate = common::gate_serial_replay(&chat.service, &entities, &stream, &run).map(|n| {
        report.info(format!(
            "gate: {n} served replies equal serial rank_request bit for bit"
        ))
    });
    Ok((report, gate))
}

/// Direct `SaccsService::extract_tags` calls over the nominal rung's
/// utterances, with the extraction counters read around them.
fn isolate_extraction(
    report: &mut Report,
    service: &SaccsService,
    stream: &Stream,
    spans: &SpanLog,
    nominal: &load::Phase,
) {
    let before = [
        common::counter("embed.cache.hit"),
        common::counter("embed.cache.miss"),
        common::counter("embed.forward"),
        common::counter("pairing.candidates"),
    ];
    let mut call = Samples::new();
    for shot in &nominal.shots {
        let utterance = match &stream.templates[shot.key].input {
            saccs_core::RankInput::Utterance(u) => u.as_str(),
            saccs_core::RankInput::Tags(_) => continue,
        };
        let (_, us) = spans.time(shot.id, "iso.extract_tags", || {
            service.extract_tags(utterance)
        });
        call.push(us);
    }
    let after = [
        common::counter("embed.cache.hit"),
        common::counter("embed.cache.miss"),
        common::counter("embed.forward"),
        common::counter("pairing.candidates"),
    ];
    let d = |i: usize| (after[i] - before[i]) as f64;
    let n = call.len();
    report.put("extract.call_us_p50", call.p50(), n);
    report.put("extract.call_us_p99", call.tail(), n);
    report.put(
        "embed.cache_hit_ratio",
        d(0) / (d(0) + d(1)).max(1.0),
        (d(0) + d(1)) as usize,
    );
    report.put("embed.forward_per_req", d(2) / n.max(1) as f64, n);
    report.put("pairing.candidates_per_req", d(3) / n.max(1) as f64, n);
}
