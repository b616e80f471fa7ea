//! The training workloads: `HybridGnn::fit` with the paper's defaults on a
//! generated dataset, plus a walk pass over the in-RAM training graph.

use std::time::Instant;

use hybridgnn::HybridConfig;
use mhg_datasets::{Dataset, DatasetKind, EdgeSplit};
use mhg_graph::{GraphStore, NodeId, ShardedCsr};
use mhg_models::{FitData, TrainError, TrainReport};
use mhg_obs::{MetricValue, Obs, ObsConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::counting::CountingStore;
use crate::probes::{autograd_probe, replay_sampling, Limits};
use crate::report::{median, peak_rss_mb, Fnv, Report};
use crate::walk::{store_gates, store_options, walk_epochs, WorkDir};
use crate::{graph_layer_metrics, sampling_metrics, Args, StoreTimes, DATASET_SEED};

/// Kernel pool width of every fit; the background sampler adds one thread.
const FIT_THREADS: usize = 1;
/// 48-pair steps timed by the autograd probe.
const PROBE_STEPS: usize = 32;

struct TrainSpec {
    kind: DatasetKind,
    scale: f64,
    epochs: usize,
    /// In-RAM walk pass: epochs of this many starts.
    walk_epoch_len: usize,
    walk_epochs: usize,
}

fn spec(workload: &str, smoke: bool) -> TrainSpec {
    let (kind, scale, epochs) = match workload {
        "train-amazon" => (DatasetKind::Amazon, 0.25, 2),
        _ => (DatasetKind::Kuaishou, 1.0, 1),
    };
    if smoke {
        return TrainSpec {
            kind,
            scale: 0.01,
            epochs: 1,
            walk_epoch_len: 256,
            walk_epochs: 2,
        };
    }
    TrainSpec {
        kind,
        scale,
        epochs,
        walk_epoch_len: 1 << 16,
        walk_epochs: 16,
    }
}

/// Paper defaults (`d_m = 128`, `d_h = 8`, 5 negatives), `epochs` epochs,
/// one kernel thread plus the background sampler, and the given tracing.
pub fn config(epochs: usize, obs: Obs) -> HybridConfig {
    let mut cfg = HybridConfig::default();
    cfg.common.epochs = epochs;
    cfg.common.threads = FIT_THREADS;
    cfg.common.background_sampling = true;
    cfg.common.obs = obs;
    cfg
}

/// Generates the dataset and splits it with a `seed`-driven split, timed.
fn setup(spec: &TrainSpec, seed: u64) -> (f64, Dataset, EdgeSplit) {
    let t = Instant::now();
    let dataset = spec.kind.generate(spec.scale, DATASET_SEED);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5350_4c49);
    let split = EdgeSplit::default_split(&dataset.graph, &mut rng);
    (t.elapsed().as_secs_f64(), dataset, split)
}

struct Fit {
    result: Result<TrainReport, TrainError>,
    wall_s: f64,
    hash: u64,
}

/// One seeded `fit_store` over `graph`; the hash covers every relation's
/// embedding of every node.
fn fit<G: GraphStore>(
    graph: &G,
    dataset: &Dataset,
    split: &EdgeSplit,
    cfg: HybridConfig,
    seed: u64,
) -> Fit {
    let mut model = hybridgnn::HybridGnn::new(cfg);
    let data = FitData {
        graph,
        metapath_shapes: &dataset.metapath_shapes,
        val: &split.val,
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4649_5421);
    let t = Instant::now();
    let result = model.fit_store(&data, &mut rng);
    let wall_s = t.elapsed().as_secs_f64();
    let mut hash = Fnv::new();
    if result.is_ok() {
        for v in graph.node_id_range() {
            for r in graph.schema().relations() {
                for x in model.embedding(NodeId(v), r) {
                    hash.word(x.to_bits());
                }
            }
        }
    }
    Fit {
        result,
        wall_s,
        hash: hash.finish(),
    }
}

/// Nodes per second of the validation inference passes (one per epoch).
fn embed_nodes_per_s(report: &TrainReport, nodes: usize) -> f64 {
    (nodes * report.epochs_run) as f64 / (report.timing.eval_ms / 1e3).max(1e-12)
}

fn context(out: &mut Report, spec: &TrainSpec, dataset: &Dataset, split: &EdgeSplit) {
    let g = &split.train_graph;
    out.context(
        "dataset",
        format!("{} scale {}", spec.kind.name(), spec.scale),
    );
    out.context("nodes", g.num_nodes());
    out.context("node_types", g.schema().num_node_types());
    out.context("relations", g.schema().num_relations());
    out.context("graph_edges", dataset.graph.num_edges());
    out.context("train_edges", g.num_edges());
    out.context("val_edges", split.val.len());
    out.context("epochs_per_fit", spec.epochs);
    out.context(
        "fit_threads",
        format!("{FIT_THREADS} kernel + 1 background sampler"),
    );
}

pub fn run(args: &Args, out: &mut Report) {
    let spec = spec(&args.workload, args.smoke);
    if !args.trace {
        run_untraced(args, &spec, out);
    } else {
        run_traced(args, &spec, out);
    }
}

fn run_untraced(args: &Args, spec: &TrainSpec, out: &mut Report) {
    let mut setups = Vec::new();
    let mut last = None;
    while crate::more_setups(&setups) {
        let (s, dataset, split) = setup(spec, args.seed);
        setups.push(s);
        last = Some((dataset, split));
    }
    let (dataset, split) = last.expect("at least one set-up");
    context(out, spec, &dataset, &split);
    let graph = &split.train_graph;

    // One untimed epoch first, so the allocator's first page faults are not
    // charged to the in-RAM walks.
    walk_epochs(graph, args.seed, spec.walk_epoch_len, |k, _| k >= 1);
    let walks = walk_epochs(graph, args.seed, spec.walk_epoch_len, |k, _| {
        k >= spec.walk_epochs
    });

    // Repeated identical fits: the median epoch time, and the determinism
    // gate (every fit of one seed must learn the same embeddings).
    let start = Instant::now();
    let mut fits = Vec::new();
    while fits.len() < 2 || start.elapsed().as_secs_f64() < args.seconds {
        fits.push(fit(
            graph,
            &dataset,
            &split,
            config(spec.epochs, Obs::disabled()),
            args.seed,
        ));
    }
    let rss = peak_rss_mb();

    let ok: Vec<(&Fit, &TrainReport)> = fits
        .iter()
        .filter_map(|f| f.result.as_ref().ok().map(|r| (f, r)))
        .collect();
    out.attempted += fits.len() as u64;
    out.failed += (fits.len() - ok.len()) as u64;
    for f in &fits {
        if let Err(e) = &f.result {
            out.gate(false, format!("fit failed: {e}"));
        }
    }
    let epoch_s: Vec<f64> = ok
        .iter()
        .map(|(f, r)| f.wall_s / r.epochs_run.max(1) as f64)
        .collect();
    crate::setup_metric(out, &setups);
    out.metric("epoch_s", median(&epoch_s), "s");
    walks.report(out);
    out.metric("peak_rss_mb", rss, "MB");
    out.metric("success_frac", ok.len() as f64 / fits.len() as f64, "frac");
    out.context("fits", fits.len());
    out.context(
        "fit_wall_s",
        format!("{:?}", fits.iter().map(|f| f.wall_s).collect::<Vec<_>>()),
    );

    if let Some((first, report)) = ok.first() {
        let auc = report.best_val_auc;
        out.info("val_auc", auc, "auc");
        out.info(
            "embed_nodes_per_s",
            median(
                &ok.iter()
                    .map(|(_, r)| embed_nodes_per_s(r, graph.num_nodes()))
                    .collect::<Vec<_>>(),
            ),
            "nodes/s",
        );
        out.context("embedding_hash", format!("{:#018x}", first.hash));
        for (f, r) in &ok {
            out.gate(
                f.hash == first.hash && r.best_val_auc.to_bits() == auc.to_bits(),
                "fits of one seed learned different embeddings",
            );
            out.gate(
                r.epochs_run == spec.epochs,
                format!(
                    "fit stopped after {} of {} epochs",
                    r.epochs_run, spec.epochs
                ),
            );
        }
    }
}

/// Sum and count of an obs histogram.
fn histogram(obs: &Obs, name: &str) -> (u64, u64) {
    obs.metrics()
        .into_iter()
        .find(|(n, _)| n == name)
        .and_then(|(_, v)| match v {
            MetricValue::Histogram(h) => Some((h.sum, h.count)),
            _ => None,
        })
        .unwrap_or((0, 0))
}

fn run_traced(args: &Args, spec: &TrainSpec, out: &mut Report) {
    let (_, dataset, split) = setup(spec, args.seed);
    context(out, spec, &dataset, &split);
    let graph = &split.train_graph;

    // Untraced, traced, untraced again: the overhead compares the traced
    // fit with the mean of the two around it.
    let untraced = || {
        fit(
            graph,
            &dataset,
            &split,
            config(spec.epochs, Obs::disabled()),
            args.seed,
        )
    };
    let plain = untraced();
    let obs = ObsConfig {
        summary: true,
        ..ObsConfig::default()
    }
    .build();
    let counting = CountingStore::new(graph);
    let traced = fit(
        &counting,
        &dataset,
        &split,
        config(spec.epochs, obs.clone()),
        args.seed,
    );
    let again = untraced();
    out.attempted += 3;
    out.gate(
        again.hash == plain.hash,
        "fits of one seed learned different embeddings",
    );
    let (report, plain_report) = match (&traced.result, &plain.result, &again.result) {
        (Ok(t), Ok(p), Ok(_)) => (*t, *p),
        (t, p, a) => {
            out.failed += u64::from(t.is_err()) + u64::from(p.is_err()) + u64::from(a.is_err());
            out.gate(
                false,
                format!("fit failed: traced {t:?}, untraced {p:?}, {a:?}"),
            );
            (TrainReport::default(), TrainReport::default())
        }
    };
    out.gate(
        traced.hash == plain.hash
            && report.best_val_auc.to_bits() == plain_report.best_val_auc.to_bits(),
        "counting wrapper or tracing changed the learned embeddings",
    );

    let (step_ns, steps) = histogram(&obs, "train/step");
    out.metric("train.sample_s", report.timing.sample_ms / 1e3, "s");
    out.metric("train.step_s", step_ns as f64 / 1e9, "s");
    out.metric("train.steps", steps as f64, "count");
    out.metric(
        "train.step_ms.mean",
        step_ns as f64 / 1e6 / steps.max(1) as f64,
        "ms",
    );
    out.metric("train.eval_s", report.timing.eval_ms / 1e3, "s");
    out.metric("train.val_auc", report.best_val_auc, "auc");
    out.metric(
        "train.embed_nodes_per_s",
        embed_nodes_per_s(&report, graph.num_nodes()),
        "nodes/s",
    );

    // The store layer on this workload: a sharded mirror of the training
    // graph, as `--graph-store sharded` builds it.
    let work = WorkDir::new(&args.workload);
    let t = Instant::now();
    drop(ShardedCsr::build(graph, &work.0, store_options()).expect("build the mirror"));
    let build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mirror = ShardedCsr::open(&work.0, store_options()).expect("open the mirror");
    let open_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let verified = mirror.verify();
    let verify_s = t.elapsed().as_secs_f64();
    out.gate(
        verified.is_ok(),
        format!("mirror verify failed: {verified:?}"),
    );
    store_gates(&mirror, out);
    graph_layer_metrics(
        out,
        &counting.stats(),
        None,
        StoreTimes {
            build_s,
            edges: graph.num_edges(),
            open_s,
            verify_s,
        },
        &mirror,
    );

    let cfg = config(spec.epochs, Obs::disabled());
    let replay = replay_sampling(
        graph,
        &dataset.metapath_shapes,
        &cfg,
        args.seed,
        Limits::FULL,
    );
    sampling_metrics(out, &replay);
    let probe = mhg_par::with_threads(FIT_THREADS, || {
        autograd_probe(
            graph,
            &dataset.metapath_shapes,
            &cfg,
            &replay.batches,
            args.seed,
            PROBE_STEPS,
        )
    });
    out.metric(
        "autograd.tape_nodes_per_center",
        probe.tape_nodes_per_center,
        "nodes",
    );
    out.metric(
        "autograd.forward_ns_per_node",
        probe.forward_ns_per_node,
        "ns",
    );
    out.metric(
        "autograd.backward_ns_per_node",
        probe.backward_ns_per_node,
        "ns",
    );
    out.metric("autograd.optim_step_us", probe.optim_step_us, "us");
    out.metric(
        "trace_overhead_frac",
        traced.wall_s / ((plain.wall_s + again.wall_s) / 2.0).max(1e-12) - 1.0,
        "frac",
    );
}
