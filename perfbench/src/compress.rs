//! The compression half of a workload: one micro-budget
//! `train → rank_clip → group_connection_deletion → compile` pipeline.

use std::time::Instant;

use group_scissor::{
    area_report_at_ranks, run_pipeline_on, train_baseline, GroupScissorConfig, ModelKind,
    PipelineOutcome,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use scissor_data::Dataset;
use scissor_lra::{direct_lra, rank_clip, LraMethod};
use scissor_prune::{group_connection_deletion, GroupLassoRegularizer};

use crate::spans::Recorder;

/// The pipeline configuration: the fast preset's layer sizes, data and
/// seeds with the iteration budgets cut so one pass takes tens of seconds. LeNet
/// clips with PCA, ConvNet with SVD, so the two workloads drive both
/// spectral solvers. The inputs do not depend on the run's seed: the
/// accuracy and area results then repeat exactly in every run, and any
/// change to them is a change of the program.
pub fn micro_cfg(model: ModelKind) -> GroupScissorConfig {
    let mut cfg = GroupScissorConfig::fast(model);
    cfg.train_samples = match model {
        ModelKind::LeNet => 400,
        ModelKind::ConvNet => 320,
    };
    cfg.test_samples = 200;
    // A ConvNet training step costs several LeNet steps.
    let (baseline, clip, deletion, finetune) = match model {
        ModelKind::LeNet => (20, 10, 15, 5),
        ModelKind::ConvNet => (10, 5, 8, 4),
    };
    cfg.baseline.iters = baseline;
    cfg.clip_every = clip;
    cfg.clip_iters = clip;
    cfg.deletion.iters = deletion;
    cfg.deletion.finetune_iters = finetune;
    cfg.deletion.record_every = deletion;
    cfg.method = match model {
        ModelKind::LeNet => LraMethod::Pca,
        ModelKind::ConvNet => LraMethod::Svd,
    };
    cfg
}

/// The results of a pipeline pass that must not move with performance
/// work; compared exactly between passes.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub ranks: Vec<usize>,
    pub clips: usize,
    pub direct_lra_accuracy: f64,
    pub final_accuracy: f64,
    pub f32_accuracy: f64,
    pub int8_accuracy: f64,
    pub crossbar_area_ratio: f64,
    pub routing_area_ratio: f64,
}

impl Summary {
    fn of(o: &PipelineOutcome) -> Self {
        Self {
            ranks: o.clip.final_ranks.clone(),
            clips: o.clip.trace.len(),
            direct_lra_accuracy: o.direct_lra_accuracy,
            final_accuracy: o.deletion.final_accuracy,
            f32_accuracy: o.f32_accuracy,
            int8_accuracy: o.int8_accuracy,
            crossbar_area_ratio: o.crossbar_area_ratio(),
            routing_area_ratio: o.routing_area_ratio(),
        }
    }
}

/// Wall and CPU seconds of one measured pass.
#[derive(Debug, Clone, Copy)]
pub struct Cost {
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl Cost {
    fn since(wall: Instant, cpu: f64) -> Self {
        Self { wall_s: wall.elapsed().as_secs_f64(), cpu_s: crate::cpu::process_s() - cpu }
    }
}

/// One `run_pipeline_on` pass and its cost.
pub fn run(cfg: &GroupScissorConfig, train: &Dataset, test: &Dataset) -> (Summary, Cost) {
    let (t, cpu) = (Instant::now(), crate::cpu::process_s());
    let outcome = run_pipeline_on(cfg, train, test).expect("pipeline");
    let cost = Cost::since(t, cpu);
    (Summary::of(&outcome), cost)
}

/// The same pipeline stage by stage through the public functions
/// `run_pipeline_on` calls, each call a span under one `pipeline` root.
/// Returns the summary and the pass's cost.
pub fn run_traced(
    cfg: &GroupScissorConfig,
    train: &Dataset,
    test: &Dataset,
    rec: &mut Recorder,
) -> (Summary, Cost) {
    let (t, cpu) = (Instant::now(), crate::cpu::process_s());
    let root = rec.open("pipeline", None);
    let mut net = cfg.model.build(&mut StdRng::seed_from_u64(cfg.init_seed));
    rec.time("core.train_baseline", root, || train_baseline(&mut net, train, test, &cfg.baseline));
    let baseline_state = net.state_dict();
    let clip = rec
        .time("lra.rank_clip", root, || rank_clip(&mut net, train, test, &cfg.clip_config()))
        .expect("rank clip");
    let direct_lra_accuracy = {
        let mut dnet = cfg.model.build(&mut StdRng::seed_from_u64(cfg.init_seed));
        dnet.load_state_dict(&baseline_state).expect("load baseline");
        rec.time("lra.direct_lra", root, || {
            direct_lra(&mut dnet, &clip.final_rank_map(), cfg.method)
        })
        .expect("direct lra");
        rec.time("core.evaluate", root, || {
            dnet.evaluate(test.images(), test.labels(), cfg.baseline.eval_batch)
        })
    };
    let area = rec.time("ncs.area_report_at_ranks", root, || {
        area_report_at_ranks(cfg.model, &clip.final_rank_map(), &cfg.spec)
    });
    let reg = rec
        .time("prune.auto_register", root, || {
            GroupLassoRegularizer::auto_register(&net, &cfg.spec, cfg.lambda)
        })
        .expect("auto register");
    let deletion = rec
        .time("prune.group_connection_deletion", root, || {
            group_connection_deletion(&mut net, train, test, &reg, &cfg.deletion)
        })
        .expect("deletion");
    let mut compiled = rec.time("nn.compile", root, || net.compile()).expect("compile");
    rec.time("prune.apply_to_compiled", root, || deletion.masks.apply_to_compiled(&mut compiled))
        .expect("apply masks");
    let mut int8 = rec
        .time("nn.compile_quantized", root, || net.compile_quantized(cfg.spec.max_cols()))
        .expect("compile int8");
    rec.time("prune.apply_to_compiled", root, || deletion.masks.apply_to_compiled(&mut int8))
        .expect("apply masks");
    let eval_batch = cfg.deletion.eval_batch;
    let f32_accuracy = rec.time("core.evaluate", root, || {
        compiled.evaluate(test.images(), test.labels(), eval_batch)
    });
    let int8_accuracy =
        rec.time("core.evaluate", root, || int8.evaluate(test.images(), test.labels(), eval_batch));
    rec.close(root);
    let summary = Summary {
        ranks: clip.final_ranks.clone(),
        clips: clip.trace.len(),
        direct_lra_accuracy,
        final_accuracy: deletion.final_accuracy,
        f32_accuracy,
        int8_accuracy,
        crossbar_area_ratio: area.total_ratio(),
        routing_area_ratio: deletion.mean_area_fraction(),
    };
    (summary, Cost::since(t, cpu))
}
