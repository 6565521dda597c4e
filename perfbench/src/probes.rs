//! Per-layer probes of the traced run: warm `CompiledNet::infer_into`
//! passes, compile times, the per-step profile, and the `linalg` kernels
//! at the shapes the served plans and the pipeline use.

use std::hint::black_box;
use std::time::Instant;

use group_scissor::ModelKind;
use rand::rngs::StdRng;
use rand::SeedableRng;
use scissor_data::SynthOptions;
use scissor_linalg::{matmul_q8_into, svd, Matrix, Pca, QuantActivations, QuantMatrix};

use crate::serving::{clipped_network, compile};
use crate::stats::median;
use crate::Report;

/// Median wall time of `reps` calls of `f`, in seconds.
fn median_s<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// `nn.infer_us.<plan>.b1/.b32`, `nn.compile_ms.<plan>` and
/// `nn.step_us.<plan>.<step>` for every plan either workload serves.
pub fn nn(report: &mut Report) {
    let plans = [
        ("lenet_f32", ModelKind::LeNet, false),
        ("lenet_int8", ModelKind::LeNet, true),
        ("convnet_f32", ModelKind::ConvNet, false),
    ];
    for (label, kind, int8) in plans {
        let net = clipped_network(kind, &mut StdRng::seed_from_u64(7));
        let compile_s = median_s(3, || compile(&net, int8));
        report.metric(&format!("nn.compile_ms.{label}"), compile_s * 1e3, "ms");

        let images = kind.dataset(32, 3, SynthOptions::default()).images().clone();
        let one = images.gather(&[0]);
        let plan = compile(&net, int8);
        let mut scratch = plan.warm_scratch(32);
        let b1 = median_s(41, || plan.infer_into(&one, &mut scratch).as_slice().len());
        report.metric(&format!("nn.infer_us.{label}.b1"), b1 * 1e6, "us");
        let b32 = median_s(9, || plan.infer_into(&images, &mut scratch).as_slice().len());
        report.metric(&format!("nn.infer_us.{label}.b32"), b32 * 1e6, "us");

        let profiler = plan.enable_profiling();
        for _ in 0..9 {
            black_box(plan.infer_into(&images, &mut scratch).as_slice().len());
        }
        plan.disable_profiling();
        for (i, step) in profiler.snapshot().steps.iter().enumerate() {
            let name = format!("nn.step_us.{label}.{i:02}_{}_{}", step.name, step.kind);
            report.metric(&name, step.mean_ns() / 1e3, "us");
        }
    }
}

/// The `linalg` kernels: f32 and q8 matmul at the clipped LeNet `fc1`
/// batch-32 shape, f32 matmul at LeNet's `conv2` im2col shape, and the
/// spectral solvers rank clipping runs.
pub fn linalg(report: &mut Report) {
    let mut rng = StdRng::seed_from_u64(11);
    let mut rand = |r, c| Matrix::random_uniform(r, c, 0.5, &mut rng);

    let (a, b) = (rand(32, 800), rand(800, 36));
    let mut out = Matrix::zeros(32, 36);
    let t = median_s(301, || a.matmul_into(&b, &mut out));
    report.metric("linalg.matmul_us.fc1_lowrank_32x800x36", t * 1e6, "us");

    let mut qa = QuantActivations::new();
    qa.quantize_from(&a);
    let qb = QuantMatrix::quantize_cols(&b, 64);
    let t = median_s(301, || matmul_q8_into(&qa, &qb, &mut out));
    report.metric("linalg.q8_matmul_us.fc1_lowrank_32x800x36", t * 1e6, "us");

    let (a, b) = (rand(2048, 500), rand(500, 50));
    let mut out = Matrix::zeros(2048, 50);
    let t = median_s(21, || a.matmul_into(&b, &mut out));
    report.metric("linalg.matmul_us.conv2_2048x500x50", t * 1e6, "us");

    let w = rand(200, 64);
    let t = median_s(5, || svd(&w).expect("svd"));
    report.metric("linalg.svd_ms.200x64", t * 1e3, "ms");

    let w = rand(500, 50);
    let t = median_s(5, || Pca::fit(&w).expect("pca"));
    report.metric("linalg.pca_ms.500x50", t * 1e3, "ms");
}
