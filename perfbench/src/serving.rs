//! The serving half of a workload: clipped plans behind one `Router`,
//! driven open loop at a low and a high fixed rate, then searched for the
//! highest rate that meets the latency limit.

use std::sync::Arc;
use std::time::{Duration, Instant};

use group_scissor::ModelKind;
use rand::rngs::StdRng;
use rand::SeedableRng;
use scissor_data::SynthOptions;
use scissor_linalg::Matrix;
use scissor_ncs::CrossbarSpec;
use scissor_nn::layers::{Conv2d, Linear};
use scissor_nn::{CompiledNet, InferScratch, Layer, Network, Tensor4};
use scissor_router::{ModelConfig, Router, ServeConfig, ServeStats};

use crate::loadgen::{self, Arrival, CollectorConfig, PhaseResult};
use crate::stats::{median, percentile, percentile_supported, tail_percentile};
use crate::Report;

/// Latency limit on p99 for the `max_rps` search.
const P99_LIMIT_MS: f64 = 25.0;
/// Distinct samples per model; requests draw from this pool.
const SAMPLE_POOL: usize = 128;
const MAX_BATCH: usize = 32;
/// Requests per fixed-rate phase and the least per `max_rps` probe
/// window: enough for p99 to have at least ten samples beyond it.
const PHASE_SAMPLES: usize = 1100;
const MIN_ROUNDS: usize = 3;
const COLLECTOR: CollectorConfig =
    CollectorConfig { poll: Duration::from_micros(100), drain: Duration::from_secs(20) };

/// One model behind the router.
pub struct Served {
    /// Router id and metric suffix.
    pub name: &'static str,
    pub kind: ModelKind,
    pub int8: bool,
    /// Share of requests sent to this model.
    pub share: f64,
    pub replicas: usize,
}

/// The serving shape of a workload.
pub struct ServeSpec {
    pub models: Vec<Served>,
    pub low_rps: f64,
    pub high_rps: f64,
}

/// The network of `kind` with every clipped layer replaced by random
/// low-rank factors at the paper's Table 1 ranks: the shapes and the work
/// of the clipped plan, without a decomposition at set-up.
pub fn clipped_network(kind: ModelKind, rng: &mut StdRng) -> Network {
    let mut net = kind.build(rng);
    for (name, k) in kind.paper_clipped_ranks() {
        let layer = net.layer(name).expect("clipped layer exists").as_any();
        let factors = |rng: &mut StdRng, n: usize, m: usize| {
            let u = Matrix::random_uniform(n, k, 1.0 / (n as f32).sqrt(), rng);
            let v = Matrix::random_uniform(m, k, 1.0 / (k as f32).sqrt(), rng);
            (u, v)
        };
        let low: Box<dyn Layer> = if let Some(c) = layer.downcast_ref::<Conv2d>() {
            let (u, v) = factors(rng, c.geometry().fan_in(), c.out_channels());
            Box::new(c.to_low_rank(u, v))
        } else if let Some(l) = layer.downcast_ref::<Linear>() {
            let (u, v) = factors(rng, l.fan_in(), l.fan_out());
            Box::new(l.to_low_rank(u, v))
        } else {
            panic!("layer {name} is neither conv nor linear");
        };
        net.replace_layer(name, low).expect("replace clipped layer");
    }
    net
}

/// Compiles `net` in the served form; int8 groups span one crossbar's
/// columns, as the pipeline exports them.
pub fn compile(net: &Network, int8: bool) -> CompiledNet {
    if int8 {
        net.compile_quantized(CrossbarSpec::default().max_cols()).expect("compile int8")
    } else {
        net.compile().expect("compile f32")
    }
}

/// Everything built before the first timed request.
pub struct Setup {
    pub router: Router,
    plans: Vec<Arc<CompiledNet>>,
    samples: Vec<Vec<Tensor4>>,
    /// Direct single-sample `infer_into` output of every pooled sample,
    /// filled by [`Setup::compute_references`] outside the timed set-up.
    expected: Vec<Vec<Vec<f32>>>,
    pub synth_s: f64,
}

/// Synthesizes the sample pools, builds and compiles the plans, registers
/// every model with a fresh router and waits until each replica has
/// served its first request, so its warm-up is part of the set-up.
pub fn setup(spec: &ServeSpec, seed: u64) -> Setup {
    let mut samples = Vec::new();
    let mut plans = Vec::new();
    let mut synth_s = 0.0;
    let router = Router::new();
    for (i, m) in spec.models.iter().enumerate() {
        let t = Instant::now();
        let data = m.kind.dataset(
            SAMPLE_POOL,
            seed.wrapping_add(1000 + i as u64),
            SynthOptions::default(),
        );
        synth_s += t.elapsed().as_secs_f64();
        let pool: Vec<Tensor4> = (0..SAMPLE_POOL).map(|s| data.images().gather(&[s])).collect();
        let net =
            clipped_network(m.kind, &mut StdRng::seed_from_u64(seed ^ 0x5eed_0000 ^ i as u64));
        let plan = Arc::new(compile(&net, m.int8));
        let cfg = ModelConfig {
            replicas: m.replicas,
            queue_high_water: 4096,
            replica: ServeConfig {
                max_batch: MAX_BATCH,
                max_wait: Duration::from_micros(500),
                ..ServeConfig::default()
            },
            ..ModelConfig::default()
        };
        router.register_shared(m.name, Arc::clone(&plan), cfg).expect("register model");
        samples.push(pool);
        plans.push(plan);
    }
    // A replica warms its scratch on its own thread before it serves. A
    // burst of one request per replica reaches every replica of a fresh
    // router (ties rotate), so waiting for the burst waits for every
    // warm-up.
    for (m, pool) in spec.models.iter().zip(&samples) {
        let burst: Vec<_> = (0..m.replicas)
            .map(|_| router.submit(m.name, &pool[0]).expect("first request admitted"))
            .collect();
        for ticket in burst {
            ticket.wait();
        }
    }
    Setup { router, plans, samples, expected: Vec::new(), synth_s }
}

impl Setup {
    /// The reference output of every pooled sample: one direct
    /// single-sample `infer_into` on the served plan.
    pub fn compute_references(&mut self) {
        let mut scratch = InferScratch::new();
        self.expected = self
            .plans
            .iter()
            .zip(&self.samples)
            .map(|(plan, pool)| {
                pool.iter().map(|x| plan.infer_into(x, &mut scratch).as_slice().to_vec()).collect()
            })
            .collect();
    }
}

fn bitwise_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Counter increments of `after` over `before` (merged across models).
fn stats_delta(before: &ServeStats, after: &ServeStats) -> ServeStats {
    let mut d = ServeStats::zero();
    d.batches = after.batches - before.batches;
    d.samples = after.samples - before.samples;
    d.full_batches = after.full_batches - before.full_batches;
    d.shed = after.shed - before.shed;
    d.infer_time = after.infer_time.saturating_sub(before.infer_time);
    d
}

/// Open-loop phases against one set-up router.
pub struct Driver<'a> {
    pub spec: &'a ServeSpec,
    pub setup: &'a Setup,
    rng: StdRng,
}

/// A phase's result with the serving-layer counters it moved.
pub struct Phase {
    pub result: PhaseResult,
    pub serve: ServeStats,
    pub router_shed: u64,
    pub pool: rayon::PoolStats,
    pub wall: Duration,
    /// CPU seconds the program spent serving the phase: every thread of
    /// the process but the collector. The generator thread counts, since
    /// nearly all of its CPU is `Router::submit`.
    pub serve_cpu_s: f64,
}

impl Phase {
    pub fn p(&self, model: Option<usize>, p: f64) -> Option<f64> {
        let lat = self.result.latencies(model);
        (!lat.is_empty()).then(|| percentile(&lat, p))
    }
}

impl<'a> Driver<'a> {
    pub fn new(spec: &'a ServeSpec, setup: &'a Setup, seed: u64) -> Self {
        Self { spec, setup, rng: StdRng::seed_from_u64(seed ^ 0xa11_1ea5) }
    }

    fn totals(&self) -> (ServeStats, u64) {
        let mut serve = ServeStats::zero();
        let mut shed = 0;
        for (_, s) in self.setup.router.stats() {
            serve.merge(&s.serve);
            shed += s.shed;
        }
        (serve, shed)
    }

    /// Runs one phase of `count` requests at `rate`, spans recorded when
    /// `trace` holds the recorder origin.
    pub fn phase(&mut self, rate: f64, count: usize, trace: Option<Instant>) -> Phase {
        let shares: Vec<f64> = self.spec.models.iter().map(|m| m.share).collect();
        let schedule = loadgen::poisson_schedule(&mut self.rng, rate, count, &shares, SAMPLE_POOL);
        let (serve0, shed0) = self.totals();
        let mut pool = rayon::pool_stats();
        let cpu0 = crate::cpu::process_s();
        let t0 = Instant::now();
        let setup = self.setup;
        let names: Vec<&str> = self.spec.models.iter().map(|m| m.name).collect();
        let result = loadgen::run_phase(
            &schedule,
            COLLECTOR,
            trace,
            |a: &Arrival| setup.router.submit(names[a.model], &setup.samples[a.model][a.sample]),
            |a: &Arrival, out: &[f32]| bitwise_eq(out, &setup.expected[a.model][a.sample]),
        );
        let wall = t0.elapsed();
        let serve_cpu_s = crate::cpu::process_s() - cpu0 - result.collector_cpu_s;
        let pool = rayon::pool_stats_delta(&mut pool);
        let (serve1, shed1) = self.totals();
        let serve = stats_delta(&serve0, &serve1);
        Phase { result, serve, router_shed: shed1 - shed0, pool, wall, serve_cpu_s }
    }

    /// Whether a probe meets the `max_rps` conditions: nothing failed,
    /// the backlog did not grow, and the median p99 over the probe's
    /// consecutive windows of at least [`PHASE_SAMPLES`] deliveries stayed
    /// within the limit, so one transient stall of the host does not
    /// decide the search.
    fn passes(&self, ph: &Phase) -> bool {
        let slack = (MAX_BATCH * self.spec.models.iter().map(|m| m.replicas).sum::<usize>()) as f64;
        let mut by_due = ph.result.deliveries.clone();
        by_due.sort_by_key(|d| d.at);
        let windows = (by_due.len() / PHASE_SAMPLES).max(1);
        let width = by_due.len().div_ceil(windows).max(1);
        let p99s: Vec<f64> = by_due
            .chunks(width)
            .map(|w| {
                let lat: Vec<f64> = w.iter().map(|d| d.latency_ms).collect();
                if percentile_supported(lat.len(), 99.0) {
                    percentile(&crate::stats::sorted(&lat), 99.0)
                } else {
                    f64::INFINITY
                }
            })
            .collect();
        ph.result.failed() == 0 && !ph.result.backlog_grew(slack) && median(&p99s) <= P99_LIMIT_MS
    }
}

/// The untraced serving measurement: rounds of one low-rate and one
/// high-rate phase fill `budget` (at least three rounds, an odd count).
/// Reports the serving CPU per delivered request over all rounds, and
/// prints the latency percentiles of each rate as medians over the rounds.
pub fn measure(spec: &ServeSpec, setup: &Setup, seed: u64, budget: Duration, report: &mut Report) {
    let mut d = Driver::new(spec, setup, seed);
    let phases = [("low", spec.low_rps), ("high", spec.high_rps)];
    let round: f64 = phases.iter().map(|&(_, rate)| PHASE_SAMPLES as f64 / rate).sum();
    let fit = ((budget.as_secs_f64() / round) as usize).max(MIN_ROUNDS);
    let rounds = fit - (1 - fit % 2);
    let mut lat = vec![(Vec::new(), Vec::new()); phases.len()];
    let (mut cpu_s, mut delivered) = (0.0, 0);
    for _ in 0..rounds {
        for (&(label, rate), (p50, p99)) in phases.iter().zip(&mut lat) {
            let ph = d.phase(rate, PHASE_SAMPLES, None);
            count_phase(report, label, &ph);
            p50.push(ph.p(None, 50.0).unwrap_or(0.0));
            p99.push(ph.p(None, 99.0).unwrap_or(0.0));
            cpu_s += ph.serve_cpu_s;
            delivered += ph.result.deliveries.len();
        }
    }
    report.metric("serve_cpu_us_per_req", cpu_s * 1e6 / delivered.max(1) as f64, "us");
    for (&(label, _), (p50, p99)) in phases.iter().zip(&lat) {
        report.info(&format!("p50_ms.{label}"), median(p50), "ms");
        report.info(&format!("p99_ms.{label}"), median(p99), "ms");
    }
}

/// The highest offered rate that meets p99 <= 25 ms with nothing failed
/// and no growing backlog (see [`Driver::passes`]), reported as the rate
/// achieved at it; `0` when no probe down to half the low rate passes.
fn max_rps(d: &mut Driver, budget: Duration, report: &mut Report) {
    let probe_s = budget.as_secs_f64() * 0.4 / 6.0;
    let mut wrong = 0;
    let floor = d.spec.low_rps / 2.0;
    let found = loadgen::search_max_rps(d.spec.high_rps, floor, 50_000.0, 3, |rate| {
        let ph = d.phase(rate, ((probe_s * rate) as usize).max(PHASE_SAMPLES), None);
        wrong += ph.result.wrong;
        d.passes(&ph).then(|| ph.result.deliveries.len() as f64 / ph.result.scheduled.as_secs_f64())
    });
    report.check("serve.max_rps_outputs_bitwise_equal", wrong == 0);
    if found.is_none() {
        eprintln!("perfbench: no probe down to {floor} req/s met the max_rps conditions");
    }
    report.metric("max_rps", found.map_or(0.0, |f| f.1), "req/s");
}

/// Counts a fixed-rate phase's requests towards `attempted`/`failed` and
/// checks its outputs.
fn count_phase(report: &mut Report, label: &str, ph: &Phase) {
    let r = &ph.result;
    report.attempted += r.attempted as u64;
    report.failed += r.failed() as u64;
    report.check(&format!("serve.{label}.outputs_bitwise_equal"), r.wrong == 0);
}

/// The traced serving measurement: one untraced phase at each rate for
/// the latency percentiles and the serving-layer counters, the high rate
/// again with spans on, and the `max_rps` search.
pub fn measure_traced(
    spec: &ServeSpec,
    setup: &Setup,
    seed: u64,
    budget: Duration,
    origin: Instant,
    report: &mut Report,
    spans: &mut crate::spans::Recorder,
) {
    let mut d = Driver::new(spec, setup, seed);
    let low = d.phase(spec.low_rps, PHASE_SAMPLES, None);
    let high = d.phase(spec.high_rps, PHASE_SAMPLES, None);
    let traced = d.phase(spec.high_rps, PHASE_SAMPLES, Some(origin));
    for (label, ph) in [("low", &low), ("high", &high), ("high_traced", &traced)] {
        count_phase(report, label, ph);
    }
    for (label, ph) in [("low", &low), ("high", &high)] {
        report.metric(&format!("p50_ms.{label}"), ph.p(None, 50.0).unwrap_or(0.0), "ms");
        report.metric(&format!("p99_ms.{label}"), ph.p(None, 99.0).unwrap_or(0.0), "ms");
        report.metric(
            &format!("serve.batch_size.mean.{label}"),
            ph.serve.mean_batch_size(),
            "count",
        );
    }
    let s = &high.serve;
    report.metric(
        "serve.full_batch_ratio.high",
        s.full_batches as f64 / s.batches.max(1) as f64,
        "ratio",
    );
    report.metric(
        "serve.infer_busy_ratio.high",
        s.infer_time.as_secs_f64() / high.wall.as_secs_f64(),
        "ratio",
    );
    report.metric(
        "serve.infer_us_per_sample.high",
        s.infer_time.as_secs_f64() * 1e6 / s.samples.max(1) as f64,
        "us",
    );

    let submits: Vec<f64> = traced
        .result
        .spans
        .iter()
        .flat_map(|r| r.spans())
        .filter(|s| s.name == "submit")
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect();
    let submits = crate::stats::sorted(&submits);
    report.metric("router.submit_us.p50", percentile(&submits, 50.0), "us");
    report.metric("router.submit_us.p99", percentile(&submits, 99.0), "us");
    let shed: u64 = [&low, &high, &traced].iter().map(|ph| ph.router_shed + ph.serve.shed).sum();
    report.metric("router.shed", shed as f64, "count");
    // A model gets only its share of a phase's deliveries, too few for
    // p99 on `mix`: report the highest percentile they support.
    for name in ["lenet", "convnet"] {
        let idx = spec.models.iter().position(|m| m.name == name);
        let lat = idx.map_or_else(Vec::new, |i| high.result.latencies(Some(i)));
        let tail = tail_percentile(lat.len());
        report.info(&format!("router.tail_percentile.high.{name}"), tail.unwrap_or(0.0), "pct");
        let value = tail.map_or(0.0, |p| percentile(&lat, p));
        report.metric(&format!("router.tail_ms.high.{name}"), value, "ms");
    }

    let late = crate::stats::sorted(&high.result.late_ms);
    report.metric("loadgen.late_p99_ms", percentile(&late, 99.0), "ms");
    report.metric("loadgen.backlog_max", high.result.backlog_max() as f64, "count");
    report.metric("loadgen.poll_us", high.result.poll_us(), "us");
    record_pool(report, "serve", &high.pool);

    let traced_p50 = traced.p(None, 50.0).unwrap_or(0.0);
    let untraced_p50 = high.p(None, 50.0).unwrap_or(0.0);
    report.metric("trace.overhead_pct.serve", (traced_p50 / untraced_p50 - 1.0) * 100.0, "%");
    if let Some(r) = traced.result.spans {
        spans.absorb(r);
    }
    max_rps(&mut d, budget, report);
}

/// `pool.steal_ratio.<label>` and `pool.injected.<label>` of one interval.
pub fn record_pool(report: &mut Report, label: &str, d: &rayon::PoolStats) {
    let pops = d.local_pops + d.steals + d.injector_pops;
    report.metric(
        &format!("pool.steal_ratio.{label}"),
        d.steals as f64 / pops.max(1) as f64,
        "ratio",
    );
    report.metric(&format!("pool.injected.{label}"), d.injected as f64, "count");
}
