//! perfbench — the SACCS end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <chat|filtered|ingest_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process drives a 2-worker `SaccsServer` through the public API
//! only, from at most `nproc` generator threads, with no failpoint armed
//! and the `fault` feature off. Every metric is printed by name with its
//! unit and sample count; the last line of standard output is one JSON
//! object carrying the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). Outputs are checked after the timed phases and
//! any failure exits non-zero. See `perfbench/README.md` for the
//! workloads and the layer → end-to-end map.

mod chat;
mod common;
mod filtered;
mod ingest;
mod load;
mod spans;
mod stats;
mod sys;

use std::fmt::Write as _;

/// End-to-end metrics: every workload reports all of them. The `op_*`
/// metrics follow the workload's primary operation: a rank request on
/// `chat` and `filtered`, a review acknowledgement on `ingest_mix`.
/// `op_tail_ms` is the p90 on `chat` and the p99 elsewhere.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("op_max_per_s", "1/s"),
    ("ok_pct", "%"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics. A layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("serve.queue_wait_p50_us", "us"),
    ("serve.queue_wait_p99_us", "us"),
    ("serve.batched_warm_share", "ratio"),
    ("serve.shed", "count"),
    ("serve.self_us_p50", "us"),
    ("algo1.extract_us_p50", "us"),
    ("algo1.extract_us_p99", "us"),
    ("algo1.filter_us_p50", "us"),
    ("algo1.filter_us_p99", "us"),
    ("algo1.probe_us_p50", "us"),
    ("algo1.probe_us_p99", "us"),
    ("algo1.aggregate_us_p50", "us"),
    ("algo1.pad_us_p50", "us"),
    ("algo1.search_api_us_p50", "us"),
    ("core.degraded", "count"),
    ("extract.call_us_p50", "us"),
    ("extract.call_us_p99", "us"),
    ("embed.cache_hit_ratio", "ratio"),
    ("embed.forward_per_req", "count"),
    ("pairing.candidates_per_req", "count"),
    ("query.compile_us_p50", "us"),
    ("query.compile_us_p99", "us"),
    ("query.pass_ratio", "ratio"),
    ("index.probe_exact_us_p50", "us"),
    ("index.probe_fallback_us_p50", "us"),
    ("index.probe_fallback_us_p99", "us"),
    ("index.fallback_share", "ratio"),
    ("index.ann.rescore_ratio", "ratio"),
    ("index.add_review_us_p50", "us"),
    ("index.add_review_us_p99", "us"),
    ("ingest.wait_us_p99", "us"),
    ("index.pin_us_p50", "us"),
    ("index.seals_per_kreview", "count"),
    ("index.merges_per_kreview", "count"),
    ("index.segments", "count"),
    ("index.checkpoint_ms", "ms"),
    ("index.store_bytes_per_review", "B"),
    ("obs.trace_overhead_pct", "%"),
    ("gen.late_p99_ms", "ms"),
    ("rank_p50_ms", "ms"),
    ("rank_p90_ms", "ms"),
    ("rank_p99_ms", "ms"),
    ("rank_max_rps", "1/s"),
    ("ndcg10", "ratio"),
    ("ingest_rps", "1/s"),
    ("ingest_p99_ms", "ms"),
    ("visible_p99_ms", "ms"),
    ("lost_acked", "count"),
    ("fail_pct", "%"),
];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| format!("bad --seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(15),
        trace: trace.unwrap_or(false),
    })
}

/// One reported value.
struct Metric {
    name: String,
    value: f64,
    samples: u64,
    note: String,
}

/// Everything a run measured, plus what the JSON line needs.
#[derive(Default)]
pub struct Report {
    metrics: Vec<Metric>,
    info: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    fn is_declared(name: &str) -> bool {
        END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .any(|(n, _)| *n == name)
    }

    /// Record `name` measured over `samples` samples.
    pub fn put(&mut self, name: &str, value: f64, samples: usize) {
        self.put_note(name, value, samples, "");
    }

    pub fn put_note(&mut self, name: &str, value: f64, samples: usize, note: &str) {
        assert!(Self::is_declared(name), "metric {name} is not declared");
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            samples: samples as u64,
            note: note.to_string(),
        });
    }

    /// Report `from`, already recorded, under the name `to` as well.
    pub fn alias(&mut self, from: &str, to: &str) {
        let (value, samples, note) = match self.get(from) {
            Some(m) => (m.value, m.samples as usize, m.note.clone()),
            None => panic!("metric {from} was not recorded"),
        };
        self.put_note(to, value, samples, &note);
    }

    /// A context line printed ahead of the metrics.
    pub fn info(&mut self, line: String) {
        self.info.push(line);
    }

    fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The human-readable lines: every metric with unit and sample count.
    fn print(&self) {
        for line in &self.info {
            println!("info       {line}");
        }
        for (group, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            for (name, unit) in list {
                match self.get(name) {
                    Some(m) => {
                        let note = if m.note.is_empty() {
                            String::new()
                        } else {
                            format!("  [{}]", m.note)
                        };
                        println!(
                            "{group:<10} {name:<30} {:>14.4} {unit:<5} n={}{note}",
                            m.value, m.samples
                        );
                    }
                    None => println!(
                        "{group:<10} {name:<30} {:>14} {unit:<5} n=0  [not measured in this mode]",
                        "-"
                    ),
                }
            }
        }
    }

    /// The result line. Per-layer metrics a workload does not exercise
    /// read 0; an end-to-end metric must always be present.
    fn json(&self, trace: bool, correct: bool) -> Result<String, String> {
        let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in list.iter().enumerate() {
            let value = match self.get(name) {
                Some(m) => m.value,
                None if trace => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

fn run(args: &Args) -> Result<(Report, Result<(), String>), String> {
    match args.workload.as_str() {
        "chat" => chat::run(args),
        "filtered" => filtered::run(args),
        "ingest_mix" => ingest::run(args),
        other => Err(format!(
            "unknown workload {other:?} (chat, filtered, ingest_mix)"
        )),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={} profile={} features=default(fault off) nproc={nproc}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if cfg!(debug_assertions) { "debug" } else { "release" },
    );
    let (report, gate) = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    report.print();
    let correct = gate.is_ok();
    if let Err(e) = &gate {
        println!("correctness gate FAILED: {e}");
    } else {
        println!("correctness gate passed");
    }
    match report.json(args.trace, correct) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
    if !correct {
        std::process::exit(1);
    }
}
