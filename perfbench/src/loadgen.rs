//! The open-loop load generator: a seeded Poisson arrival schedule, one
//! generator thread that submits on schedule regardless of completions,
//! and one collector thread that polls every outstanding ticket.

use std::sync::mpsc::{self, TryRecvError};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::Rng;

use crate::spans::Recorder;

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Due time, from the start of the phase.
    pub at: Duration,
    /// Index of the target model.
    pub model: usize,
    /// Index of the sample in the model's sample pool.
    pub sample: usize,
}

/// `count` Poisson arrivals at `rate` per second. Each request goes to
/// model `i` with probability `mix[i]` (the shares sum to 1) and carries a
/// uniformly chosen sample of `samples`. Fixing the count rather than the
/// length guarantees every phase the samples its percentiles need.
pub fn poisson_schedule(
    rng: &mut StdRng,
    rate: f64,
    count: usize,
    mix: &[f64],
    samples: usize,
) -> Vec<Arrival> {
    let mut t = 0.0;
    (0..count)
        .map(|_| {
            t += -(1.0 - rng.gen_range(0.0..1.0_f64)).ln() / rate;
            let u: f64 = rng.gen_range(0.0..1.0);
            let mut acc = 0.0;
            let model = mix.iter().position(|&p| {
                acc += p;
                u < acc
            });
            Arrival {
                at: Duration::from_secs_f64(t),
                model: model.unwrap_or(mix.len() - 1),
                sample: rng.gen_range(0..samples),
            }
        })
        .collect()
}

/// A claim on a result that completes asynchronously.
pub trait Pending {
    /// The result, once it has arrived (at most once).
    fn try_take(&self) -> Option<Vec<f32>>;
}

impl Pending for scissor_serve::Ticket {
    fn try_take(&self) -> Option<Vec<f32>> {
        scissor_serve::Ticket::try_take(self)
    }
}

/// A submitted request the collector has not yet seen complete.
pub struct InFlight<T> {
    pub id: usize,
    pub due: Instant,
    pub ticket: T,
}

/// Takes every ready result out of `pending`, in whatever order they
/// completed: each call scans all outstanding tickets, so a slow request
/// never hides later ones that finished first.
pub fn collect_ready<T: Pending>(
    pending: &mut Vec<InFlight<T>>,
    mut done: impl FnMut(InFlight<T>, Vec<f32>, Instant),
) {
    let mut k = 0;
    while k < pending.len() {
        match pending[k].ticket.try_take() {
            Some(out) => {
                let seen = Instant::now();
                done(pending.swap_remove(k), out, seen);
            }
            None => k += 1,
        }
    }
}

/// Polling and drain settings of the collector.
#[derive(Debug, Clone, Copy)]
pub struct CollectorConfig {
    /// Sleep between scans of the outstanding tickets.
    pub poll: Duration,
    /// Longest the collector waits past the last due time for stragglers;
    /// any still outstanding then count as failed.
    pub drain: Duration,
}

/// One completed request as the collector observed it.
#[derive(Debug, Clone, Copy)]
pub struct Delivery {
    pub model: usize,
    /// Scheduled send time from the phase start.
    pub at: Duration,
    /// From the scheduled send time to when delivery was observed.
    pub latency_ms: f64,
}

/// Everything one open-loop phase measured.
#[derive(Default)]
pub struct PhaseResult {
    pub attempted: usize,
    /// Refused submissions.
    pub refused: usize,
    /// Delivered outputs that failed the correctness check.
    pub wrong: usize,
    /// Admitted requests never delivered within the drain limit.
    pub lost: usize,
    pub deliveries: Vec<Delivery>,
    /// How late the generator sent each request, in ms.
    pub late_ms: Vec<f64>,
    /// Outstanding requests at each collector scan, with the scan time
    /// from the phase start.
    pub backlog: Vec<(Duration, usize)>,
    /// Phase length as scheduled.
    pub scheduled: Duration,
    /// Collector scans and the time they spanned.
    pub polls: u64,
    pub poll_span: Duration,
    /// CPU seconds of the collector thread.
    pub collector_cpu_s: f64,
    /// Spans of the traced run: `submit` and `delivered` per request.
    pub spans: Option<Recorder>,
}

impl PhaseResult {
    pub fn failed(&self) -> usize {
        self.refused + self.wrong + self.lost
    }

    /// Sorted latencies of the deliveries to `model` (all when `None`).
    pub fn latencies(&self, model: Option<usize>) -> Vec<f64> {
        let v: Vec<f64> = self
            .deliveries
            .iter()
            .filter(|d| model.is_none_or(|m| d.model == m))
            .map(|d| d.latency_ms)
            .collect();
        crate::stats::sorted(&v)
    }

    pub fn backlog_max(&self) -> usize {
        self.backlog.iter().map(|&(_, n)| n).max().unwrap_or(0)
    }

    /// Whether the outstanding count over the last quarter of the
    /// schedule exceeds that over the first quarter by more than `slack`.
    pub fn backlog_grew(&self, slack: f64) -> bool {
        let q = self.scheduled / 4;
        let mean = |lo: Duration, hi: Duration| {
            let v: Vec<f64> = self
                .backlog
                .iter()
                .filter(|&&(t, _)| t >= lo && t < hi)
                .map(|&(_, n)| n as f64)
                .collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        mean(self.scheduled - q, self.scheduled) > mean(Duration::ZERO, q) + slack
    }

    /// Mean interval between collector scans, in µs.
    pub fn poll_us(&self) -> f64 {
        self.poll_span.as_secs_f64() * 1e6 / self.polls.max(1) as f64
    }
}

/// Runs one open-loop phase: the calling thread submits each arrival at
/// its due time through `submit`, and one collector thread polls the
/// admitted tickets and checks each output with `check`. With `trace`,
/// every request gets a `submit` span and a `delivered` span.
pub fn run_phase<T, E>(
    schedule: &[Arrival],
    cfg: CollectorConfig,
    trace: Option<Instant>,
    mut submit: impl FnMut(&Arrival) -> Result<T, E>,
    check: impl Fn(&Arrival, &[f32]) -> bool + Sync,
) -> PhaseResult
where
    T: Pending + Send,
{
    let scheduled = schedule.last().map_or(Duration::ZERO, |a| a.at);
    let (tx, rx) = mpsc::channel::<InFlight<T>>();
    // A short lead lets the collector start before the first due time.
    let start = Instant::now() + Duration::from_millis(5);
    let mut result = PhaseResult {
        attempted: schedule.len(),
        scheduled,
        late_ms: Vec::with_capacity(schedule.len()),
        ..PhaseResult::default()
    };
    let mut submit_spans = trace.map(Recorder::new);

    let collected = std::thread::scope(|s| {
        let check = &check;
        let collector = s.spawn(move || {
            let cpu0 = crate::cpu::thread_s();
            let mut delivered_spans = trace.map(Recorder::new);
            let mut pending: Vec<InFlight<T>> = Vec::new();
            let mut deliveries = Vec::with_capacity(schedule.len());
            let (mut wrong, mut polls, mut open) = (0, 0u64, true);
            let mut backlog = Vec::new();
            let deadline = start + scheduled + cfg.drain;
            loop {
                loop {
                    match rx.try_recv() {
                        Ok(f) => pending.push(f),
                        Err(TryRecvError::Empty) => break,
                        Err(TryRecvError::Disconnected) => {
                            open = false;
                            break;
                        }
                    }
                }
                collect_ready(&mut pending, |f, out, seen| {
                    let a = &schedule[f.id];
                    if !check(a, &out) {
                        wrong += 1;
                    }
                    let latency = seen.saturating_duration_since(f.due);
                    deliveries.push(Delivery {
                        model: a.model,
                        at: a.at,
                        latency_ms: latency.as_secs_f64() * 1e3,
                    });
                    if let Some(r) = delivered_spans.as_mut() {
                        r.record("delivered", seen, seen, None, f.id as u64 + 1);
                    }
                });
                let now = Instant::now();
                polls += 1;
                backlog.push((now.saturating_duration_since(start), pending.len()));
                if !open && pending.is_empty() {
                    break;
                }
                if now > deadline && !open {
                    break;
                }
                std::thread::sleep(cfg.poll);
            }
            let span = Instant::now().saturating_duration_since(start);
            let cpu = crate::cpu::thread_s() - cpu0;
            (deliveries, wrong, pending.len(), backlog, polls, span, cpu, delivered_spans)
        });

        for (id, a) in schedule.iter().enumerate() {
            let due = start + a.at;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            result.late_ms.push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
            let outcome = submit(a);
            if let Some(r) = submit_spans.as_mut() {
                r.record("submit", sent, Instant::now(), None, id as u64 + 1);
            }
            match outcome {
                Ok(ticket) => tx.send(InFlight { id, due, ticket }).expect("collector alive"),
                Err(_) => result.refused += 1,
            }
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    });

    let (deliveries, wrong, lost, backlog, polls, span, collector_cpu_s, delivered_spans) =
        collected;
    result.deliveries = deliveries;
    result.wrong = wrong;
    result.lost = lost;
    result.backlog = backlog;
    result.polls = polls;
    result.poll_span = span;
    result.collector_cpu_s = collector_cpu_s;
    if let (Some(mut a), Some(b)) = (submit_spans, delivered_spans) {
        a.absorb(b);
        result.spans = Some(a);
    }
    result
}

/// Finds the highest offered rate `probe` accepts. `probe(rate)` runs one
/// phase at `rate` and returns the value to report (the achieved rate)
/// when the phase passes. The search halves from `start` until a rate
/// passes (giving up below `floor`), doubles until one fails (stopping at
/// `ceiling`), then bisects geometrically `refine` times. Returns the
/// highest passing rate and its reported value.
pub fn search_max_rps(
    start: f64,
    floor: f64,
    ceiling: f64,
    refine: usize,
    mut probe: impl FnMut(f64) -> Option<f64>,
) -> Option<(f64, f64)> {
    let mut rate = start;
    let mut fail = None;
    let mut pass = loop {
        match probe(rate) {
            Some(v) => break (rate, v),
            None => {
                fail = Some(rate);
                rate /= 2.0;
                if rate < floor {
                    return None;
                }
            }
        }
    };
    let mut fail = match fail {
        Some(f) => f,
        None => loop {
            let up = pass.0 * 2.0;
            if up > ceiling {
                return Some(pass);
            }
            match probe(up) {
                Some(v) => pass = (up, v),
                None => break up,
            }
        },
    };
    for _ in 0..refine {
        let mid = (pass.0 * fail).sqrt();
        match probe(mid) {
            Some(v) => pass = (mid, v),
            None => fail = mid,
        }
    }
    Some(pass)
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, Ordering};

    use rand::SeedableRng;

    use super::*;

    #[test]
    fn schedule_is_deterministic_per_seed_and_hits_the_rate() {
        let make = |seed| {
            poisson_schedule(&mut StdRng::seed_from_u64(seed), 1000.0, 20_000, &[0.8, 0.2], 64)
        };
        let (a, b, c) = (make(1), make(1), make(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
        for s in [&a, &c] {
            assert_eq!(s.len(), 20_000);
            // 20 000 exponential gaps of mean 1 ms: the span's sd is ~0.14 s.
            let span = s.last().unwrap().at.as_secs_f64();
            assert!((span - 20.0).abs() < 0.6, "{span} s for 20 000 arrivals");
            let share = s.iter().filter(|x| x.model == 1).count() as f64 / s.len() as f64;
            assert!((share - 0.2).abs() < 0.02, "model-1 share {share}");
            assert!(s.windows(2).all(|w| w[0].at <= w[1].at));
            assert!(s.iter().all(|x| x.sample < 64));
        }
    }

    #[test]
    fn search_returns_the_highest_passing_rate() {
        let limit = 1733.0;
        let mut probes = Vec::new();
        let found = search_max_rps(1200.0, 10.0, 1e6, 4, |r| {
            probes.push(r);
            (r <= limit).then_some(r + 0.5)
        })
        .expect("1200 passes");
        assert!(found.0 <= limit && found.0 >= limit / 2f64.powf(1.0 / 16.0), "{found:?}");
        assert_eq!(found.1, found.0 + 0.5);
        assert_eq!(probes.len(), 2 + 4);

        // Starting above the limit halves down first.
        let found = search_max_rps(5000.0, 10.0, 1e6, 4, |r| (r <= limit).then_some(r)).unwrap();
        assert!(found.0 <= limit && found.0 >= limit / 2f64.powf(1.0 / 16.0), "{found:?}");

        // Nothing passes above the floor; everything passes up to the ceiling.
        assert_eq!(search_max_rps(100.0, 10.0, 1e6, 4, |_| None), None);
        assert_eq!(search_max_rps(100.0, 10.0, 1000.0, 4, Some).map(|p| p.0), Some(800.0));
    }

    struct Flag<'a>(&'a AtomicBool, Vec<f32>);

    impl Pending for Flag<'_> {
        fn try_take(&self) -> Option<Vec<f32>> {
            self.0.swap(false, Ordering::SeqCst).then(|| self.1.clone())
        }
    }

    #[test]
    fn out_of_order_completions_are_seen_without_head_of_line_wait() {
        let flags: Vec<AtomicBool> = (0..3).map(|_| AtomicBool::new(false)).collect();
        let due = Instant::now();
        let mut pending: Vec<InFlight<Flag>> = (0..3)
            .map(|id| InFlight { id, due, ticket: Flag(&flags[id], vec![id as f32]) })
            .collect();
        let mut seen = Vec::new();

        // The last request completes first while the first stays pending.
        flags[2].store(true, Ordering::SeqCst);
        collect_ready(&mut pending, |f, out, _| seen.push((f.id, out)));
        assert_eq!(seen, vec![(2, vec![2.0])]);

        flags[1].store(true, Ordering::SeqCst);
        collect_ready(&mut pending, |f, out, _| seen.push((f.id, out)));
        assert_eq!(seen.last(), Some(&(1, vec![1.0])));
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].id, 0);

        flags[0].store(true, Ordering::SeqCst);
        collect_ready(&mut pending, |f, out, _| seen.push((f.id, out)));
        assert!(pending.is_empty());
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn backlog_growth_compares_first_and_last_quarter() {
        let mut r = PhaseResult { scheduled: Duration::from_secs(4), ..PhaseResult::default() };
        r.backlog = (0..40).map(|i| (Duration::from_millis(i * 100), 5)).collect();
        assert!(!r.backlog_grew(8.0));
        r.backlog = (0..40).map(|i| (Duration::from_millis(i * 100), i as usize * 2)).collect();
        assert!(r.backlog_grew(8.0));
        assert_eq!(r.backlog_max(), 78);
    }
}
