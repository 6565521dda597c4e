//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <lenet|mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each workload compresses one model with
//! the micro-budget pipeline, then serves clipped plans through one
//! `Router` under open-loop Poisson load. With `--trace 0` the run reports
//! the end-to-end metrics; with `--trace 1` it re-runs the pipeline stage
//! by stage and the high-rate phase with spans on, and reports the
//! per-layer metrics. Every metric is printed as `name value unit`; the
//! last line is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. The process exits non-zero when a correctness check fails.
//! A record with the host fingerprint goes to `perfbench/out/`, and the
//! traced run's spans next to it.

mod compress;
mod cpu;
mod loadgen;
mod probes;
mod serving;
mod spans;
mod stats;

use std::time::{Duration, Instant};

use group_scissor::ModelKind;
use serde::Value;

use crate::serving::{ServeSpec, Served};
use crate::spans::Recorder;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 11;
const OUT_DIR: &str = "perfbench/out";

/// The metrics, correctness checks and operation counts of one run.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Printed and recorded, but not part of the result line.
    info: Vec<(String, f64, &'static str)>,
    checks: Vec<(String, bool)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn info(&mut self, name: &str, value: f64, unit: &'static str) {
        self.info.push((name.to_string(), value, unit));
    }

    /// Records a correctness check; repeats of a name must all pass.
    pub fn check(&mut self, name: &str, ok: bool) {
        match self.checks.iter_mut().find(|(n, _)| n == name) {
            Some((_, all)) => *all &= ok,
            None => self.checks.push((name.to_string(), ok)),
        }
    }

    fn correct(&self) -> bool {
        self.checks.iter().all(|&(_, ok)| ok) && self.metrics.iter().all(|&(_, v, _)| v.is_finite())
    }

    fn metrics_value(&self) -> Value {
        let entry = |value: f64, unit: &str| {
            let value = if value.is_finite() { value } else { 0.0 };
            Value::Map(vec![
                ("value".to_string(), Value::F64(value)),
                ("unit".to_string(), Value::Str(unit.to_string())),
            ])
        };
        Value::Map(self.metrics.iter().map(|(n, v, u)| (n.clone(), entry(*v, u))).collect())
    }
}

fn json(v: &Value) -> String {
    serde_json::to_string(v).expect("JSON of a value tree")
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Lenet,
    Mix,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "lenet" => Some(Self::Lenet),
            "mix" => Some(Self::Mix),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::Lenet => "lenet",
            Self::Mix => "mix",
        }
    }

    /// The model the workload compresses.
    fn compressed(self) -> ModelKind {
        match self {
            Self::Lenet => ModelKind::LeNet,
            Self::Mix => ModelKind::ConvNet,
        }
    }

    /// What the workload serves: clipped LeNet f32 on two replicas, or
    /// 80% LeNet int8 and 20% ConvNet f32 on one replica each.
    fn serving(self) -> ServeSpec {
        match self {
            Self::Lenet => ServeSpec {
                models: vec![Served {
                    name: "lenet",
                    kind: ModelKind::LeNet,
                    int8: false,
                    share: 1.0,
                    replicas: 2,
                }],
                low_rps: 400.0,
                high_rps: 1200.0,
            },
            Self::Mix => ServeSpec {
                models: vec![
                    Served {
                        name: "lenet",
                        kind: ModelKind::LeNet,
                        int8: true,
                        share: 0.8,
                        replicas: 1,
                    },
                    Served {
                        name: "convnet",
                        kind: ModelKind::ConvNet,
                        int8: false,
                        share: 0.2,
                        replicas: 1,
                    },
                ],
                low_rps: 250.0,
                high_rps: 400.0,
            },
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?.max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(30),
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds the hypervisor gave this machine's CPUs to other guests, from
/// the `steal` column of `/proc/stat`.
fn host_steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let steal = stat.lines().next().and_then(|l| l.split_whitespace().nth(8));
    steal.and_then(|v| v.parse::<f64>().ok()).map_or(0.0, |ticks| ticks / 100.0)
}

/// The host and build the numbers came from.
fn fingerprint(seed: u64) -> Vec<(&'static str, String)> {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let wanted = [
        "sse4_2",
        "avx",
        "avx2",
        "fma",
        "avx512f",
        "avx512bw",
        "avx512vl",
        "avx512_vnni",
        "avx512vnni",
    ];
    let isa: Vec<&str> = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("flags"))
        .map(|f| f.split_whitespace().filter(|x| wanted.contains(x)).collect())
        .unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .unwrap_or("")
        .trim_start_matches([' ', '\t', ':']);
    let compiled: Vec<&str> = [
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
    ]
    .into_iter()
    .filter_map(|(n, on)| on.then_some(n))
    .collect();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("seed", seed.to_string()),
        ("nproc", nproc.to_string()),
        ("cpu_model", model.to_string()),
        ("isa_flags", isa.join(" ")),
        ("rustflags", option_env!("RUSTFLAGS").unwrap_or("").to_string()),
        ("compiled_target_features", compiled.join(" ")),
        ("matmul_worker_threads", scissor_linalg::matmul_worker_threads().to_string()),
        ("git_revision", git_revision()),
    ]
}

/// `HEAD` of the repository in the working directory, read from `.git`;
/// `unknown` outside a git checkout.
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed.lines().find(|l| l.ends_with(r))?.split(' ').next().map(str::to_string)
            })
            .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string()),
    }
}

/// Everything built before the first timed stage or request: the
/// pipeline's datasets, the serving sample pools and plans, and the
/// registered, warmed router. Repeated; the last set-up is kept, and only
/// then are the reference outputs computed.
struct Setup {
    train: scissor_data::Dataset,
    test: scissor_data::Dataset,
    cfg: group_scissor::GroupScissorConfig,
    serving: serving::Setup,
    synth_s: f64,
}

/// Reports `setup_s`, the median CPU seconds (all threads) of the
/// set-ups: CPU time, like the other gated costs, leaves out the time
/// the hypervisor gives the CPUs to other guests.
fn setup(w: Workload, spec: &ServeSpec, seed: u64, report: &mut Report) -> Setup {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        // Release the previous router first so its teardown is not timed.
        drop(last.take());
        let (t, cpu) = (Instant::now(), cpu::process_s());
        let cfg = compress::micro_cfg(w.compressed());
        let (train, test) = cfg.datasets();
        let synth_s = t.elapsed().as_secs_f64();
        let serving = serving::setup(spec, seed);
        times.push(cpu::process_s() - cpu);
        let synth_s = synth_s + serving.synth_s;
        last = Some(Setup { train, test, cfg, serving, synth_s });
    }
    report.metric("setup_s", stats::median(&times), "s");
    let mut s = last.expect("at least one set-up");
    s.serving.compute_references();
    s
}

fn run_untraced(w: Workload, args: &Args, report: &mut Report) {
    let spec = w.serving();
    let s = setup(w, &spec, args.seed, report);
    let (summary, cost) = compress::run(&s.cfg, &s.train, &s.test);
    report.attempted += 1;
    let exported_ok = summary.f32_accuracy.to_bits() == summary.final_accuracy.to_bits();
    report.failed += u64::from(!exported_ok);
    report.check("compress.exported_accuracy_equals_final", exported_ok);
    report.info("pipeline_wall_s", cost.wall_s, "s");
    report.metric("pipeline_cpu_s", cost.cpu_s, "s");
    report.metric("accuracy", summary.f32_accuracy, "ratio");
    report.metric("crossbar_area_ratio", summary.crossbar_area_ratio, "ratio");
    report.metric("routing_area_ratio", summary.routing_area_ratio, "ratio");

    serving::measure(&spec, &s.serving, args.seed, Duration::from_secs(args.seconds), report);
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
}

fn run_traced(w: Workload, args: &Args, report: &mut Report) -> Recorder {
    let origin = Instant::now();
    let mut spans = Recorder::new(origin);
    let spec = w.serving();
    // The traced run reports per-layer metrics only; its `setup_s` is dropped.
    let s = setup(w, &spec, args.seed, &mut Report::default());
    report.metric("data.synth_s", s.synth_s, "s");

    let (untraced, untraced_cost) = compress::run(&s.cfg, &s.train, &s.test);
    let mut pool = rayon::pool_stats();
    let (traced, traced_cost) = compress::run_traced(&s.cfg, &s.train, &s.test, &mut spans);
    serving::record_pool(report, "pipeline", &rayon::pool_stats_delta(&mut pool));
    report.attempted += 1;
    let same = traced == untraced;
    report.failed += u64::from(!same);
    report.check("compress.stage_by_stage_equals_run_pipeline_on", same);
    report.metric("core.train_s", spans.total_s("core.train_baseline"), "s");
    report.metric("core.evaluate_s", spans.total_s("core.evaluate"), "s");
    report.metric("lra.rank_clip_s", spans.total_s("lra.rank_clip"), "s");
    report.metric("lra.direct_lra_s", spans.total_s("lra.direct_lra"), "s");
    report.metric("lra.clips", traced.clips as f64, "count");
    report.metric("prune.deletion_s", spans.total_s("prune.group_connection_deletion"), "s");
    report.metric("pipeline.wall_s", traced_cost.wall_s, "s");
    report.metric(
        "trace.overhead_pct.pipeline",
        (traced_cost.cpu_s / untraced_cost.cpu_s - 1.0) * 100.0,
        "%",
    );

    serving::measure_traced(
        &spec,
        &s.serving,
        args.seed,
        Duration::from_secs(args.seconds),
        origin,
        report,
        &mut spans,
    );
    probes::nn(report);
    probes::linalg(report);
    spans
}

fn write_record(args: &Args, report: &Report, fp: &[(&str, String)], spans: Option<&Recorder>) {
    let stem = format!(
        "{OUT_DIR}/{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let str_map = |entries: &[(&str, String)]| {
        Value::Map(entries.iter().map(|(k, v)| (k.to_string(), Value::Str(v.clone()))).collect())
    };
    let checks = report.checks.iter().map(|(k, ok)| (k.clone(), Value::Bool(*ok))).collect();
    let info = report
        .info
        .iter()
        .map(|(k, v, u)| (k.clone(), Value::Seq(vec![Value::F64(*v), Value::Str(u.to_string())])))
        .collect();
    let rec = Value::Map(vec![
        ("fingerprint".to_string(), str_map(fp)),
        ("workload".to_string(), Value::Str(args.workload.name().to_string())),
        ("checks".to_string(), Value::Map(checks)),
        ("metrics".to_string(), report.metrics_value()),
        ("info".to_string(), Value::Map(info)),
    ]);
    let rec = json(&rec) + "\n";
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(format!("{stem}.json"), rec))
        .and_then(|()| {
            spans.map_or(Ok(()), |s| std::fs::write(format!("{stem}-spans.json"), s.to_json()))
        });
    if let Err(e) = written {
        eprintln!("perfbench: could not write the record under {OUT_DIR}: {e}");
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <lenet|mix> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let fp = fingerprint(args.seed);
    for (k, v) in &fp {
        println!("# {k}: {v}");
    }
    let mut report = Report::default();
    let steal0 = host_steal_s();
    let spans = if args.trace {
        Some(run_traced(args.workload, &args, &mut report))
    } else {
        run_untraced(args.workload, &args, &mut report);
        None
    };
    println!("# host_steal_s: {}", host_steal_s() - steal0);
    let fail_ratio = report.failed as f64 / report.attempted.max(1) as f64;
    report.info("fail_ratio", fail_ratio, "ratio");
    for (name, ok) in &report.checks {
        println!("# check {name}: {}", if *ok { "ok" } else { "FAILED" });
    }
    for (name, value, unit) in report.metrics.iter().chain(&report.info) {
        println!("{name} {value} {unit}");
    }
    write_record(&args, &report, &fp, spans.as_ref());
    let correct = report.correct();
    let result = Value::Map(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::U64(report.attempted.max(1))),
        ("failed".to_string(), Value::U64(report.failed)),
        ("metrics".to_string(), report.metrics_value()),
    ]);
    println!("{}", json(&result));
    if !correct {
        std::process::exit(1);
    }
}
