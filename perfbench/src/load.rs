//! The open-loop rank generator and what it measured.
//!
//! Request `i` of a phase is due at `start + i / rate`, whatever
//! happened to earlier requests. Generator threads take requests
//! round-robin and block in `SaccsServer::submit`, so when the server
//! falls behind the later requests are sent late. Every
//! latency is timed from the due time, which charges that stall to the
//! requests that suffered it, and the lateness itself is reported so an
//! overloaded generator shows.

use crate::spans::SpanLog;
use crate::stats::Samples;
use saccs_core::{RankRequest, SaccsError};
use saccs_serve::SaccsServer;
use std::time::{Duration, Instant};

/// The harness span around each `submit`.
pub const SUBMIT_SPAN: &str = "serve.submit";

/// How an operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Served at full fidelity.
    Full,
    /// Served, but the resilience ladder gave something up.
    Degraded,
    /// Refused at admission.
    Shed,
    /// Rejected as malformed (`InvalidRequest`).
    Invalid,
    /// Any other error.
    Error,
}

impl Outcome {
    pub fn failed(self) -> bool {
        self != Outcome::Full
    }

    pub fn of_error(e: &SaccsError) -> Outcome {
        match e {
            SaccsError::Unavailable {
                stage: saccs_core::Stage::Admission,
            } => Outcome::Shed,
            SaccsError::InvalidRequest { .. } => Outcome::Invalid,
            _ => Outcome::Error,
        }
    }
}

/// One rank request as the generator saw it.
#[derive(Debug, Clone)]
pub struct Shot {
    /// Request id, unique within the run (also the trace id).
    pub id: u64,
    /// Which distinct request template it was.
    pub key: usize,
    /// Sent minus due.
    pub late: Duration,
    /// Done minus due.
    pub latency: Duration,
    pub outcome: Outcome,
    /// Ranked `(entity, score bits)`.
    pub results: Vec<(usize, u32)>,
}

/// A seeded request stream over a fixed set of distinct templates.
pub struct Stream {
    pub templates: Vec<RankRequest>,
    keys: Vec<usize>,
    /// Requests per cycle; every cycle carries the same template mix.
    pub cycle: usize,
}

impl Stream {
    /// A stream of `cycles` cycles in which template `k` appears
    /// `counts[k]` times per cycle, each cycle in its own seeded order.
    /// A phase that starts on a cycle boundary and sends a whole number
    /// of cycles carries exactly the template mix, whatever the seed; the
    /// seed decides the order.
    pub fn balanced(
        templates: Vec<RankRequest>,
        counts: &[usize],
        seed: u64,
        cycles: usize,
    ) -> Stream {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cycle: Vec<usize> = counts
            .iter()
            .enumerate()
            .flat_map(|(k, &c)| std::iter::repeat_n(k, c))
            .collect();
        let mut keys = Vec::with_capacity(cycles * cycle.len());
        for _ in 0..cycles.max(1) {
            let mut round = cycle.clone();
            round.shuffle(&mut rng);
            keys.extend(round);
        }
        Stream {
            templates,
            keys,
            cycle: cycle.len(),
        }
    }

    pub fn request(&self, id: u64) -> (usize, RankRequest) {
        let key = self.keys[id as usize % self.keys.len()];
        (key, self.templates[key].clone().with_trace_id(id))
    }
}

pub fn bits(ranked: &[(usize, f32)]) -> Vec<(usize, u32)> {
    ranked.iter().map(|&(e, s)| (e, s.to_bits())).collect()
}

/// One fixed-rate phase.
#[derive(Debug, Clone)]
pub struct Phase {
    pub rate: f64,
    /// Request ids are `first_id..first_id + planned`.
    pub first_id: u64,
    /// Requests scheduled; fewer were sent if the generator gave up.
    pub planned: usize,
    pub shots: Vec<Shot>,
    /// From the first due time to the last completion.
    pub wall: Duration,
}

impl Phase {
    /// Consecutive phases at one rate as a single phase.
    pub fn merge(parts: &[Phase]) -> Phase {
        Phase {
            rate: parts[0].rate,
            first_id: parts[0].first_id,
            planned: parts.iter().map(|p| p.planned).sum(),
            shots: parts.iter().flat_map(|p| p.shots.iter().cloned()).collect(),
            wall: parts.iter().map(|p| p.wall).sum(),
        }
    }

    pub fn ids(&self) -> std::ops::Range<u64> {
        self.first_id..self.first_id + self.planned as u64
    }

    pub fn latency_ms(&self) -> Samples {
        let mut s = Samples::new();
        for shot in &self.shots {
            s.push(shot.latency.as_secs_f64() * 1e3);
        }
        s
    }

    pub fn completed(&self) -> usize {
        self.shots
            .iter()
            .filter(|s| matches!(s.outcome, Outcome::Full | Outcome::Degraded))
            .count()
    }

    pub fn achieved_rps(&self) -> f64 {
        self.completed() as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Meets the latency limit without a growing backlog: every planned
    /// request was sent, the tail latency (failures count as misses) is
    /// within `limit_ms`, and the last request was sent less than
    /// `limit_ms` late.
    pub fn sustains(&self, limit_ms: f64) -> bool {
        let mut lat = Samples::new();
        for shot in &self.shots {
            let ms = if shot.outcome.failed() {
                f64::INFINITY
            } else {
                shot.latency.as_secs_f64() * 1e3
            };
            lat.push(ms);
        }
        let last_late = self
            .shots
            .iter()
            .max_by_key(|s| s.id)
            .map_or(0.0, |s| s.late.as_secs_f64() * 1e3);
        self.shots.len() == self.planned && lat.tail() <= limit_ms && last_late <= limit_ms
    }
}

/// A generator this far behind its schedule stops sending: the rung is
/// already over its latency limit, and the rest would only lengthen it.
pub const ABANDON_LATE: Duration = Duration::from_millis(1000);

/// Requests a phase at `rate` plans over `duration`.
pub fn planned(rate: f64, duration: Duration) -> usize {
    ((rate * duration.as_secs_f64()).round() as usize).max(1)
}

/// Send `n` requests at `rate` per second through `server` from
/// `threads` generator threads (run inline when `threads == 1`), which
/// take the requests round-robin.
pub fn open_loop(
    server: &SaccsServer,
    stream: &Stream,
    spans: &SpanLog,
    rate: f64,
    n: usize,
    threads: usize,
    first_id: u64,
) -> Phase {
    let threads = threads.max(1);
    let start = Instant::now() + Duration::from_millis(2);
    let gen = |g: usize| -> Vec<Shot> {
        let mut out = Vec::with_capacity(n / threads + 1);
        for i in (g..n).step_by(threads) {
            let id = first_id + i as u64;
            let (key, request) = stream.request(id);
            let due = start + Duration::from_secs_f64(i as f64 / rate);
            if Instant::now().saturating_duration_since(due) > ABANDON_LATE {
                break;
            }
            // Wait by spinning, yielding to any runnable thread: a sleeping
            // generator lets its virtual CPU halt, and waking a halted
            // virtual CPU costs milliseconds that depend on the host's
            // load, not on the system under test.
            while Instant::now() < due {
                std::thread::yield_now();
            }
            let sent = Instant::now();
            let reply = server.submit(request);
            let done = Instant::now();
            spans.record(id, SUBMIT_SPAN, sent, done);
            let (outcome, results) = match reply {
                Ok(response) => {
                    if let Some(t) = &response.timings {
                        spans.record_stages(id, SUBMIT_SPAN, t);
                    }
                    let outcome = if response.is_full_fidelity() {
                        Outcome::Full
                    } else {
                        Outcome::Degraded
                    };
                    (outcome, bits(&response.results))
                }
                Err(e) => (Outcome::of_error(&e), Vec::new()),
            };
            out.push(Shot {
                id,
                key,
                late: sent.saturating_duration_since(due),
                latency: done.saturating_duration_since(due),
                outcome,
                results,
            });
        }
        out
    };
    let mut shots: Vec<Shot> = if threads == 1 {
        gen(0)
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|g| {
                    let gen = &gen;
                    std::thread::Builder::new()
                        .name(format!("perfbench-gen-{g}"))
                        .spawn_scoped(scope, move || gen(g))
                        .expect("spawn generator thread")
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("generator thread panicked"))
                .collect()
        })
    };
    let end = Instant::now();
    shots.sort_by_key(|s| s.id);
    Phase {
        rate,
        first_id,
        planned: n,
        shots,
        wall: end.saturating_duration_since(start),
    }
}

/// Outcome counts over a set of phases: `(attempted, failed, shed,
/// invalid, degraded)`.
pub fn tally<'a>(phases: impl IntoIterator<Item = &'a Phase>) -> [u64; 5] {
    let mut t = [0u64; 5];
    for phase in phases {
        for shot in &phase.shots {
            t[0] += 1;
            match shot.outcome {
                Outcome::Full => {}
                Outcome::Degraded => t[4] += 1,
                Outcome::Shed => t[2] += 1,
                Outcome::Invalid => t[3] += 1,
                Outcome::Error => {}
            }
            if shot.outcome.failed() {
                t[1] += 1;
            }
        }
    }
    t
}
