//! Benchmark of HybridGNN training, full-graph embedding and sharded-store
//! walks, end to end and per layer.
//!
//! ```text
//! perfbench --workload <train-amazon|train-kuaishou|walk-sharded>
//!           --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off
//! (`Obs::disabled()`, whatever `MHG_OBS` says). `--trace 1` is the
//! separate traced run: it repeats the workload with an `mhg-obs` recorder
//! and a counting `GraphStore` wrapper, runs the outside-in layer probes,
//! and reports the per-layer metrics. `--smoke` shrinks every input to a
//! few hundred nodes for the benchmark's own tests.
//!
//! Context lines and a metric table go to standard output first; the last
//! line is one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! The exit code is 0 when every correctness gate passed, 1 when one
//! failed, and 2 on bad arguments (with no result line). See README.md for
//! the workloads and the layer → metric map.

mod counting;
mod probes;
mod report;
mod train;
mod walk;

use mhg_graph::{GraphStore, PageStats, ShardedCsr};

use crate::counting::NeighborStats;
use crate::probes::SamplingReplay;
use crate::report::Report;

/// An untraced run sets up at least `SETUP_REPS` times and until
/// `SETUP_MIN_S` seconds of set-up are measured (at most `SETUP_MAX_REPS`
/// times); `setup_s` is the median.
const SETUP_REPS: usize = 3;
const SETUP_MIN_S: f64 = 1.0;
const SETUP_MAX_REPS: usize = 100;

/// Whether to run another set-up after the timed ones in `done`.
pub fn more_setups(done: &[f64]) -> bool {
    done.len() < SETUP_REPS
        || (done.iter().sum::<f64>() < SETUP_MIN_S && done.len() < SETUP_MAX_REPS)
}

/// Reports `setup_s`, the median of the timed set-ups, with their count
/// and range as context.
pub fn setup_metric(out: &mut Report, setups: &[f64]) {
    let (lo, hi) = setups.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &s| {
        (lo.min(s), hi.max(s))
    });
    out.context("setup_reps", setups.len());
    out.context("setup_s_range", format!("{lo} .. {hi}"));
    out.metric("setup_s", report::median(setups), "s");
}

/// Generator seed of every graph. A workload's graph is its fixed input,
/// like a dataset file: `--seed` drives the split, the model's
/// initialization and every sampling and walk stream, so runs with
/// different seeds differ in those, not in the graph's size and shape.
pub const DATASET_SEED: u64 = 2022;

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["train-amazon", "train-kuaishou", "walk-sharded"];

/// Every end-to-end metric (`--trace 0`), in output order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("epoch_s", "s"),
    ("walks_per_s", "1/s"),
    ("walk_ms.p50", "ms"),
    ("walk_ms.p99", "ms"),
    ("peak_rss_mb", "MB"),
    ("success_frac", "frac"),
];

/// Every per-layer metric (`--trace 1`), in output order.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("train.sample_s", "s"),
    ("train.step_s", "s"),
    ("train.steps", "count"),
    ("train.step_ms.mean", "ms"),
    ("train.eval_s", "s"),
    ("train.val_auc", "auc"),
    ("train.embed_nodes_per_s", "nodes/s"),
    ("graph.neighbor_calls", "count"),
    ("graph.neighbor_s", "s"),
    ("graph.neighbor_ns.p50", "ns"),
    ("graph.neighbor_ns.p99", "ns"),
    ("graph.page_loads", "count"),
    ("graph.page_hits", "count"),
    ("graph.page_hit_ratio", "frac"),
    ("graph.page_evictions", "count"),
    ("graph.page_peak_bytes", "B"),
    ("graph.build_s", "s"),
    ("graph.build_edges_per_s", "edges/s"),
    ("graph.open_s", "s"),
    ("graph.verify_s", "s"),
    ("graph.verify_mb_per_s", "MB/s"),
    ("graph.on_disk_bytes", "B"),
    ("graph.resident_metadata_bytes", "B"),
    ("graph.shard_retries", "count"),
    ("graph.shard_repairs", "count"),
    ("sampling.walk_s", "s"),
    ("sampling.walk_steps", "count"),
    ("sampling.batch_s", "s"),
    ("sampling.neighbor_sample_s", "s"),
    ("sampling.neighbor_sample_nodes", "count"),
    ("autograd.tape_nodes_per_center", "nodes"),
    ("autograd.forward_ns_per_node", "ns"),
    ("autograd.backward_ns_per_node", "ns"),
    ("autograd.optim_step_us", "us"),
    ("trace_overhead_frac", "frac"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    })
}

/// Build, open and verify times of a sharded store, with its edge count.
pub struct StoreTimes {
    pub build_s: f64,
    pub edges: usize,
    pub open_s: f64,
    pub verify_s: f64,
}

/// The `graph.*` metrics: neighbor access through the counting wrapper,
/// the pager (`None` for an in-RAM store, which has none), and the sharded
/// store's build/open/verify, size and self-healing counters.
pub fn graph_layer_metrics(
    out: &mut Report,
    neighbors: &NeighborStats,
    pages: Option<&PageStats>,
    times: StoreTimes,
    store: &ShardedCsr,
) {
    out.metric("graph.neighbor_calls", neighbors.calls as f64, "count");
    out.metric("graph.neighbor_s", neighbors.total_s, "s");
    out.metric("graph.neighbor_ns.p50", neighbors.p50_ns, "ns");
    out.metric("graph.neighbor_ns.p99", neighbors.p99_ns, "ns");
    let pages = pages.copied().unwrap_or_default();
    let accesses = pages.loads + pages.hits;
    out.metric("graph.page_loads", pages.loads as f64, "count");
    out.metric("graph.page_hits", pages.hits as f64, "count");
    out.metric(
        "graph.page_hit_ratio",
        if accesses == 0 {
            0.0
        } else {
            pages.hits as f64 / accesses as f64
        },
        "frac",
    );
    out.metric("graph.page_evictions", pages.evictions as f64, "count");
    out.metric("graph.page_peak_bytes", pages.peak_bytes as f64, "B");
    out.metric("graph.build_s", times.build_s, "s");
    out.metric(
        "graph.build_edges_per_s",
        times.edges as f64 / times.build_s.max(1e-12),
        "edges/s",
    );
    out.metric("graph.open_s", times.open_s, "s");
    let on_disk = store.on_disk_bytes().unwrap_or(0);
    out.metric("graph.verify_s", times.verify_s, "s");
    out.metric(
        "graph.verify_mb_per_s",
        on_disk as f64 / 1e6 / times.verify_s.max(1e-12),
        "MB/s",
    );
    out.metric("graph.on_disk_bytes", on_disk as f64, "B");
    out.metric(
        "graph.resident_metadata_bytes",
        store.resident_metadata_bytes() as f64,
        "B",
    );
    let heal = store.heal_stats();
    out.metric("graph.shard_retries", heal.retries as f64, "count");
    out.metric("graph.shard_repairs", heal.repairs as f64, "count");
    out.context("store_nodes", store.num_nodes());
}

/// The `sampling.*` metrics of a recipe replay.
pub fn sampling_metrics(out: &mut Report, replay: &SamplingReplay) {
    out.metric("sampling.walk_s", replay.walk_s, "s");
    out.metric("sampling.walk_steps", replay.walk_steps as f64, "count");
    out.metric("sampling.batch_s", replay.batch_s, "s");
    out.metric("sampling.neighbor_sample_s", replay.neighbor_sample_s, "s");
    out.metric(
        "sampling.neighbor_sample_nodes",
        replay.neighbor_sample_nodes as f64,
        "count",
    );
}

/// Reports 0 for every per-layer metric under `prefix`: the layer is not
/// on this workload's path.
pub fn zero_metrics(out: &mut Report, prefix: &str) {
    for (name, unit) in PER_LAYER.iter().filter(|(n, _)| n.starts_with(prefix)) {
        out.metric(name, 0.0, unit);
    }
}

/// Puts the metrics in declaration order and checks that each declared
/// metric was emitted exactly once with its declared unit.
fn canonicalize(out: &mut Report, declared: &[(&'static str, &'static str)]) -> Result<(), String> {
    let mut ordered = Vec::with_capacity(declared.len());
    for &(name, unit) in declared {
        let found: Vec<usize> = (0..out.metrics.len())
            .filter(|&i| out.metrics[i].name == name)
            .collect();
        match found.as_slice() {
            [i] if out.metrics[*i].unit == unit => ordered.push(out.metrics.swap_remove(*i)),
            [i] => return Err(format!("{name}: unit {} not {unit}", out.metrics[*i].unit)),
            _ => return Err(format!("{name} emitted {} times", found.len())),
        }
    }
    if let Some(extra) = out.metrics.first() {
        return Err(format!("undeclared metric {}", extra.name));
    }
    out.metrics = ordered;
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut out = Report::default();
    out.context("workload", &args.workload);
    out.context("seed", args.seed);
    out.context("dataset_seed", DATASET_SEED);
    out.context("seconds", args.seconds);
    out.context("trace", u8::from(args.trace));
    out.context("smoke", args.smoke);
    out.context(
        "nproc",
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    out.context("walk_pool_threads", walk::POOL_THREADS);
    out.context("git_rev", report::git_rev());
    out.context("page_budget_bytes", walk::PAGE_BUDGET);
    out.context("shard_target_cap", walk::store_options().shard_target_cap);
    out.context(
        "io",
        "shard reads are served from the OS page cache (files just written), \
         so store latencies are this machine's memory and CPU, not a storage device's",
    );

    if args.workload == "walk-sharded" {
        walk::run(&args, &mut out);
    } else {
        train::run(&args, &mut out);
    }

    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if let Err(e) = canonicalize(&mut out, declared) {
        out.gate(
            false,
            format!("metric set does not match the declaration: {e}"),
        );
    }
    print!("{}", out.human());
    println!("{}", out.json());
    if !out.correct() {
        std::process::exit(1);
    }
}
