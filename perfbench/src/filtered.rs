//! `filtered`: pre-extracted tag requests with subjective filters over a
//! read-only live index.
//!
//! Traffic is `RankRequest::tags(..).with_filter_dsl(..)`: 1–3 index
//! tags, a filter mixing subjective predicates of varied selectivity
//! with objective ones (`price<=`, `rating>=`), and in about a quarter
//! of requests one unindexed typo-variant tag whose probe takes the
//! θ_filter similarity fallback. The index is a `LiveIndex` of
//! `synthetic_tags` over synthetic entities, ANN off. There is no
//! extraction: time goes to filter compilation, probes and aggregation.

use crate::common::{self, Ids, Ladder, SETUPS};
use crate::load::{self, Stream};
use crate::spans::SpanLog;
use crate::stats::Samples;
use crate::{Args, Report};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saccs_core::{RankInput, RankRequest, SaccsConfig, SaccsService, SearchApi};
use saccs_data::{synthetic_tags, Entity};
use saccs_index::index::IndexConfig;
use saccs_index::{LiveConfig, LiveIndex};
use saccs_query::{compile, JoinOrder};
use saccs_text::{ConceptualSimilarity, Domain, Lexicon, SubjectiveTag};
use std::sync::Arc;

const ENTITIES: usize = 2000;
const INDEX_TAGS: usize = 1000;
/// Review tags are drawn from this many synthetic tags; the ones past
/// `INDEX_TAGS` are unindexed typo variants.
const VOCAB: usize = 2000;
const REVIEWS_PER_ENTITY: usize = 3;
const CORPUS_SEED: u64 = 0xF11E;
const TAG_SEED: u64 = 0x5EED;
const TEMPLATE_SEED: u64 = 0xF17E;
/// Distinct request templates: one nominal window (80 rps for 3 s at the
/// default 15 s run) sends each exactly once.
const TEMPLATES: usize = 240;
const CYCLES: usize = 64;

/// The tail gated end to end. A quarter of the requests carry a fallback
/// probe costing 1-45 ms, so the p90 sits on the steep edge of that
/// population and moves by a third from run to run; the p99 holds.
const GATED_TAIL: &str = "rank_p99_ms";

pub const LADDER: Ladder = Ladder {
    rates: [40.0, 80.0, 3200.0],
    limit_ms: 250.0,
    warm_passes: 0,
};

struct Filtered {
    entities: Vec<Entity>,
    live: Arc<LiveIndex>,
    service: Arc<SaccsService>,
    vocab: Vec<SubjectiveTag>,
}

fn build() -> Result<Filtered, String> {
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
    let live = LiveIndex::new(
        ConceptualSimilarity::new(lexicon),
        IndexConfig::default(),
        LiveConfig::default(),
    );
    // Evidence first, index tags after: one column fold per tag instead
    // of one per review.
    for _ in 0..REVIEWS_PER_ENTITY {
        for entity in &entities {
            let k = 1 + rng.gen_range(0..3);
            let tags: Vec<SubjectiveTag> = (0..k)
                .map(|_| vocab[rng.gen_range(0..VOCAB)].clone())
                .collect();
            live.add_review(entity.id, &tags);
        }
    }
    live.add_tags(&vocab[..INDEX_TAGS]);
    let live = Arc::new(live);
    let service = Arc::new(SaccsService::with_live_index(
        Arc::clone(&live),
        SaccsConfig::default(),
    ));
    Ok(Filtered {
        entities,
        live,
        service,
        vocab,
    })
}

/// A tag the filter DSL can spell: one word each side.
fn dsl_safe(tag: &SubjectiveTag) -> bool {
    let word = |w: &str| {
        !w.is_empty()
            && w.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
            && !["and", "or", "not"].contains(&w.to_ascii_lowercase().as_str())
    };
    word(&tag.opinion) && word(&tag.aspect)
}

/// The request templates (fixed) and their seeded stream: every template
/// once per cycle.
fn stream(vocab: &[SubjectiveTag], seed: u64) -> Stream {
    let mut rng = StdRng::seed_from_u64(TEMPLATE_SEED);
    let indexed: Vec<&SubjectiveTag> = vocab[..INDEX_TAGS].iter().filter(|t| dsl_safe(t)).collect();
    let unindexed = &vocab[INDEX_TAGS..];
    let term = |rng: &mut StdRng| -> String {
        let tag = indexed[rng.gen_range(0..indexed.len())];
        match rng.gen_range(0..4) {
            // A bare opinion matches it under any aspect: a broad leaf.
            0 => tag.opinion.clone(),
            1 => format!("{} {}@0.3", tag.opinion, tag.aspect),
            _ => format!("{} {}", tag.opinion, tag.aspect),
        }
    };
    let templates = (0..TEMPLATES)
        .map(|_| {
            let k = 1 + rng.gen_range(0..3);
            let mut tags: Vec<SubjectiveTag> = (0..k)
                .map(|_| indexed[rng.gen_range(0..indexed.len())].clone())
                .collect();
            if rng.gen_range(0..4) == 0 {
                tags.push(unindexed[rng.gen_range(0..unindexed.len())].clone());
            }
            let lead = format!("{} {}", tags[0].opinion, tags[0].aspect);
            let price = 2 + rng.gen_range(0..3);
            let rating = [2.0, 2.5, 3.0, 3.5][rng.gen_range(0..4)];
            let dsl = match rng.gen_range(0..5) {
                0 => format!("{lead}, price<={price}"),
                1 => format!("{lead} AND {}, rating>={rating}", term(&mut rng)),
                2 => format!("{lead} OR {}", term(&mut rng)),
                3 => format!("{lead} AND NOT {}, price<={price}", term(&mut rng)),
                _ => format!("({lead} OR {}), rating>={rating}", term(&mut rng)),
            };
            RankRequest::tags(tags).with_filter_dsl(&dsl)
        })
        .collect();
    Stream::balanced(templates, &[1; TEMPLATES], seed, CYCLES)
}

pub fn run(args: &Args) -> Result<(Report, Result<(), String>), String> {
    let mut report = Report::default();
    let setups = if args.trace { 1 } else { SETUPS };
    let (f, setup_secs) = common::repeated_setup(setups, build)?;
    let stream = stream(&f.vocab, args.seed);
    for t in &stream.templates {
        t.validate()
            .map_err(|e| format!("generated an invalid request: {e}"))?;
    }
    report.info(format!(
        "filtered: {ENTITIES} entities, {} index tags, {REVIEWS_PER_ENTITY} reviews/entity over \
         {VOCAB} tags, ANN off, {TEMPLATES} templates, {} generator threads, rates {:?} rps \
         over {} s",
        f.live.tag_count(),
        common::generator_threads(),
        LADDER.rates,
        args.seconds
    ));
    let spans = SpanLog::new(args.trace);
    let mut ids = Ids::new();
    let run = common::serve_read_ladder(
        &mut report,
        &f.service,
        &f.entities,
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

    let gate = common::gate_serial_replay(&f.service, &f.entities, &stream, &run).map(|n| {
        report.info(format!(
            "gate: {n} served replies equal serial rank_request bit for bit"
        ))
    });

    if args.trace {
        isolate_query_and_probe(&mut report, &f, &stream, &spans, &run.nominal);
        common::write_trace(&mut report, &spans, args)?;
    }
    Ok((report, gate))
}

/// Direct `LiveIndex::pin`, `saccs_query::compile` and
/// `LiveIndex::probe_pinned` calls over the nominal rung's requests.
fn isolate_query_and_probe(
    report: &mut Report,
    f: &Filtered,
    stream: &Stream,
    spans: &SpanLog,
    nominal: &load::Phase,
) {
    let api = SearchApi::new(&f.entities);
    let candidates = api.search(&Default::default()).len();
    let mut pin = Samples::new();
    let mut comp = Samples::new();
    let (mut passed, mut offered) = (0usize, 0usize);
    let mut probes = common::ProbeTimes::new();
    for shot in &nominal.shots {
        let request = &stream.templates[shot.key];
        let (snapshot, us) = spans.time(shot.id, "iso.pin", || f.live.pin());
        pin.push(us);
        if let Some(filter) = &request.filter {
            let (compiled, us) = spans.time(shot.id, "iso.compile", || {
                compile(filter, snapshot.index(), &api, JoinOrder::RarestFirst)
            });
            comp.push(us);
            if let Ok(compiled) = compiled {
                passed += compiled.count();
                offered += candidates;
            }
        }
        if let RankInput::Tags(tags) = &request.input {
            for tag in tags {
                probes.probe(&f.live, &snapshot, tag, shot.id, spans);
            }
        }
    }
    report.put("index.pin_us_p50", pin.p50(), pin.len());
    report.put("query.compile_us_p50", comp.p50(), comp.len());
    report.put("query.compile_us_p99", comp.tail(), comp.len());
    report.put(
        "query.pass_ratio",
        passed as f64 / offered.max(1) as f64,
        offered,
    );
    probes.put(report);
}
