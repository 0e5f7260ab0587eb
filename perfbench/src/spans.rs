//! The harness trace: spans recorded around every call the benchmark
//! makes into the system, kept in memory and written out at the end.
//!
//! A span has a name, a start, a duration and the name of the span that
//! caused it; spans of one request share its id. The stage totals a
//! traced `RankResponse` carries become child spans of the harness
//! `serve.submit` span (they have a duration but no start of their own).
//! A layer's self time is its duration minus its children's.

use crate::stats::Samples;
use saccs_obs::trace::StageTimings;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    id: u64,
    name: &'static str,
    parent: Option<&'static str>,
    /// Nanoseconds since the log's epoch; `None` for stage totals.
    start_ns: Option<u64>,
    dur_ns: u64,
}

/// In-memory span log. Disabled logs record nothing and cost one branch.
pub struct SpanLog {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl SpanLog {
    pub fn new(enabled: bool) -> Self {
        SpanLog {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("span log lock poisoned by a panicking generator")
            .push(span);
    }

    /// Record a harness span that ran from `start` to `end`.
    pub fn record(&self, id: u64, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        self.push(Span {
            id,
            name,
            parent: None,
            start_ns: Some(nanos(start.saturating_duration_since(self.epoch))),
            dur_ns: nanos(end.saturating_duration_since(start)),
        });
    }

    /// Record a response's per-stage totals as children of `parent`.
    pub fn record_stages(&self, id: u64, parent: &'static str, timings: &StageTimings) {
        if !self.enabled {
            return;
        }
        let mut spans = self
            .spans
            .lock()
            .expect("span log lock poisoned by a panicking generator");
        for &(name, dur_ns) in &timings.stages {
            spans.push(Span {
                id,
                name,
                parent: Some(parent),
                start_ns: None,
                dur_ns,
            });
        }
    }

    /// Time `f` as a direct layer call named `name`.
    pub fn time<T>(&self, id: u64, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let end = Instant::now();
        self.record(id, name, start, end);
        (out, end.duration_since(start).as_secs_f64() * 1e6)
    }

    /// Self time in microseconds per span name, over spans whose id lies
    /// in `ids` (all spans when `None`).
    pub fn self_times_us(
        &self,
        ids: Option<std::ops::Range<u64>>,
    ) -> BTreeMap<&'static str, Samples> {
        let spans = self
            .spans
            .lock()
            .expect("span log lock poisoned by a panicking generator");
        let in_range = |id: u64| ids.as_ref().is_none_or(|r| r.contains(&id));
        // Children's total duration per (request id, parent name).
        let mut children: BTreeMap<(u64, &'static str), u64> = BTreeMap::new();
        for s in spans.iter().filter(|s| in_range(s.id)) {
            if let Some(parent) = s.parent {
                *children.entry((s.id, parent)).or_default() += s.dur_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Samples> = BTreeMap::new();
        for s in spans.iter().filter(|s| in_range(s.id)) {
            let covered = children.get(&(s.id, s.name)).copied().unwrap_or(0);
            out.entry(s.name)
                .or_default()
                .push(s.dur_ns.saturating_sub(covered) as f64 / 1e3);
        }
        out
    }

    /// Write every span as one JSON line to `path`.
    pub fn write(&self, path: &std::path::Path) -> Result<usize, String> {
        let spans = self
            .spans
            .lock()
            .expect("span log lock poisoned by a panicking generator");
        let mut doc = String::with_capacity(spans.len() * 96);
        for s in spans.iter() {
            let _ = write!(doc, "{{\"id\":{},\"span\":\"{}\"", s.id, s.name);
            match s.parent {
                Some(p) => {
                    let _ = write!(doc, ",\"parent\":\"{p}\"");
                }
                None => doc.push_str(",\"parent\":null"),
            }
            match s.start_ns {
                Some(t) => {
                    let _ = write!(doc, ",\"start_ns\":{t}");
                }
                None => doc.push_str(",\"start_ns\":null"),
            }
            let _ = writeln!(doc, ",\"dur_ns\":{}}}", s.dur_ns);
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(spans.len())
    }
}
