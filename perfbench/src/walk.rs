//! The `walk-sharded` workload and the walk pass every workload shares.
//!
//! Walks are uniform, length 10, on a pool of [`POOL_THREADS`] threads,
//! grouped in epochs of a fixed start set: epoch `k` starts one walk at
//! each of the `epoch_len` consecutive nodes from `k * epoch_len` on, with
//! its own walk seed derived from the run's, so any number of epochs
//! replays exactly on another store.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use mhg_datasets::SyntheticTier;
use mhg_graph::{GraphStore, NodeId, NodeTypeId, ShardedCsr, ShardedCsrOptions};
use mhg_sampling::{derive_seed, sharded_over, UniformWalker};

use crate::counting::CountingStore;
use crate::probes::{replay_sampling, Limits};
use crate::report::{median, peak_rss_mb, percentile_sorted, Fnv, Report};
use crate::{graph_layer_metrics, sampling_metrics, zero_metrics, Args, StoreTimes, DATASET_SEED};

/// Walk length, in nodes.
pub const WALK_LEN: usize = 10;
/// Pool width of every walk pass.
pub const POOL_THREADS: usize = 2;
/// Page-cache budget of the sharded store: smaller than the store, so the
/// walk working set does not fit.
pub const PAGE_BUDGET: usize = 64 << 20;

/// Outcome of a run of walk epochs.
pub struct WalkRun {
    pub epochs: usize,
    pub epoch_s: Vec<f64>,
    pub walk_ns: Vec<u64>,
    pub walks: u64,
    pub failed: u64,
    pub hash: u64,
}

impl WalkRun {
    pub fn walking_s(&self) -> f64 {
        self.epoch_s.iter().sum()
    }

    /// Adds the end-to-end walk metrics: throughput and per-walk latency.
    pub fn report(&self, out: &mut Report) {
        let mut sorted = self.walk_ns.clone();
        sorted.sort_unstable();
        out.metric(
            "walks_per_s",
            self.walks as f64 / self.walking_s().max(1e-12),
            "1/s",
        );
        out.metric(
            "walk_ms.p50",
            percentile_sorted(&sorted, 50.0) as f64 / 1e6,
            "ms",
        );
        out.metric(
            "walk_ms.p99",
            percentile_sorted(&sorted, 99.0) as f64 / 1e6,
            "ms",
        );
        out.context("walk_samples", sorted.len());
        out.attempted += self.walks;
        out.failed += self.failed;
    }
}

/// Runs walk epochs over `graph` until `stop(epochs_done, seconds_walked)`.
/// Each walk is timed on its worker; a store failure that escapes the
/// infallible store API as a panic counts as a failed walk.
pub fn walk_epochs<G: GraphStore>(
    graph: &G,
    seed: u64,
    epoch_len: usize,
    stop: impl Fn(usize, f64) -> bool,
) -> WalkRun {
    let n = graph.num_nodes();
    let walker = UniformWalker::new(graph);
    let mut run = WalkRun {
        epochs: 0,
        epoch_s: Vec::new(),
        walk_ns: Vec::new(),
        walks: 0,
        failed: 0,
        hash: 0,
    };
    let mut hash = Fnv::new();
    mhg_par::with_threads(POOL_THREADS, || {
        while !stop(run.epochs, run.walking_s()) {
            let first = run.epochs * epoch_len;
            let starts: Vec<NodeId> = (0..epoch_len)
                .map(|i| NodeId(((first + i) % n) as u32))
                .collect();
            let t = Instant::now();
            let walks = sharded_over(
                derive_seed(seed, run.epochs as u64 + 1),
                &starts,
                |chunk, rng| {
                    chunk
                        .iter()
                        .map(|&s| {
                            let t = Instant::now();
                            let walk =
                                catch_unwind(AssertUnwindSafe(|| walker.walk(s, WALK_LEN, rng)));
                            (walk.ok(), t.elapsed().as_nanos() as u64)
                        })
                        .collect::<Vec<_>>()
                },
            );
            run.epoch_s.push(t.elapsed().as_secs_f64());
            run.epochs += 1;
            for (walk, ns) in walks {
                run.walks += 1;
                run.walk_ns.push(ns);
                match walk {
                    Some(w) => w.iter().for_each(|v| hash.word(v.0)),
                    None => {
                        run.failed += 1;
                        hash.word(u32::MAX - 1);
                    }
                }
                hash.word(u32::MAX);
            }
        }
    });
    run.hash = hash.finish();
    run
}

/// A scratch directory under the working directory, removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn new(tag: &str) -> Self {
        let dir = Path::new(".bench_work").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        WorkDir(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// The shipped shard cap with the benchmark's page budget.
pub fn store_options() -> ShardedCsrOptions {
    ShardedCsrOptions {
        page_budget_bytes: PAGE_BUDGET,
        ..ShardedCsrOptions::default()
    }
}

/// Checks the store-health gates of a clean store.
pub fn store_gates(store: &ShardedCsr, out: &mut Report) {
    let heal = store.heal_stats();
    out.gate(
        heal.retries == 0 && heal.repairs == 0 && heal.repair_failures == 0,
        format!("heal counters not zero on a clean store: {heal:?}"),
    );
    let quarantined = store.quarantined();
    out.gate(
        quarantined.is_empty(),
        format!("quarantined shards on a clean store: {quarantined:?}"),
    );
    let peak = store.page_stats().peak_bytes;
    out.gate(
        peak <= PAGE_BUDGET,
        format!("page peak {peak} B exceeds the {PAGE_BUDGET} B budget"),
    );
}

struct WalkSpec {
    scale: f64,
    epoch_len: usize,
}

fn spec(smoke: bool) -> WalkSpec {
    if smoke {
        WalkSpec {
            scale: 0.001,
            epoch_len: 64,
        }
    } else {
        WalkSpec {
            scale: 1.0,
            epoch_len: 1024,
        }
    }
}

/// Builds the store (timed), then opens it (timed) with a cold pager.
fn build_and_open(tier: &SyntheticTier, dir: &Path) -> (f64, f64, ShardedCsr) {
    let _ = std::fs::remove_dir_all(dir);
    let t = Instant::now();
    drop(ShardedCsr::build(tier, dir, store_options()).expect("build the sharded store"));
    let build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let store = ShardedCsr::open(dir, store_options()).expect("open the sharded store");
    (build_s, t.elapsed().as_secs_f64(), store)
}

pub fn run(args: &Args, out: &mut Report) {
    let spec = spec(args.smoke);
    let tier = SyntheticTier::taobao(spec.scale, DATASET_SEED);
    let work = WorkDir::new("walk-sharded");
    let walk_seed = derive_seed(args.seed, 0x5741_4c4b);
    out.context("tier", format!("taobao scale {}", spec.scale));
    out.context("candidate_edges", tier.total_edges());
    out.context(
        "walk",
        format!(
            "uniform, length {WALK_LEN}, epochs of {} starts",
            spec.epoch_len
        ),
    );

    if !args.trace {
        let mut setups = Vec::new();
        let mut store = None;
        while crate::more_setups(&setups) {
            let (build_s, open_s, s) = build_and_open(&tier, &work.0);
            setups.push(build_s + open_s);
            store = Some(s);
        }
        let store = store.expect("at least one set-up");
        out.context("nodes", store.num_nodes());
        out.context("stored_edges", store.num_edges());
        let run = walk_epochs(&store, walk_seed, spec.epoch_len, |k, s| {
            k >= 2 && s >= args.seconds
        });
        let rss = peak_rss_mb();
        crate::setup_metric(out, &setups);
        out.metric("epoch_s", median(&run.epoch_s), "s");
        run.report(out);
        out.metric("peak_rss_mb", rss, "MB");
        out.metric(
            "success_frac",
            1.0 - run.failed as f64 / run.walks as f64,
            "frac",
        );
        out.context("walk_epochs", run.epochs);
        store_gates(&store, out);

        // Parity: the same epochs over the tier's in-RAM materialization.
        let ram = tier.materialize();
        let ram_run = walk_epochs(&ram, walk_seed, spec.epoch_len, |k, _| k >= run.epochs);
        out.gate(
            ram_run.hash == run.hash && ram_run.failed == 0,
            format!(
                "sharded walk stream {:#018x} differs from in-RAM {:#018x}",
                run.hash, ram_run.hash
            ),
        );
        return;
    }

    let (build_s, open_s, store) = build_and_open(&tier, &work.0);
    // Untraced, traced, untraced again, each over a fresh open with a cold
    // pager and the same epochs: the overhead compares the traced pass with
    // the mean of the two around it, and the traced pass must reproduce
    // the walk stream exactly.
    let before = walk_epochs(&store, walk_seed, spec.epoch_len, |k, s| {
        k >= 2 && s >= args.seconds / 3.0
    });
    store_gates(&store, out);
    drop(store);
    let epochs = before.epochs;
    let reopen = || ShardedCsr::open(&work.0, store_options()).expect("reopen the sharded store");
    let store = reopen();
    let counting = CountingStore::new(&store);
    let traced = walk_epochs(&counting, walk_seed, spec.epoch_len, |k, _| k >= epochs);
    store_gates(&store, out);
    let after = walk_epochs(&reopen(), walk_seed, spec.epoch_len, |k, _| k >= epochs);
    for run in [&before, &traced, &after] {
        out.gate(
            run.hash == before.hash,
            "counting wrapper changed the walk stream",
        );
        out.attempted += run.walks;
        out.failed += run.failed;
    }
    let plain_s = (before.walking_s() + after.walking_s()) / 2.0;

    let verify_store = reopen();
    let t = Instant::now();
    let verified = verify_store.verify();
    let verify_s = t.elapsed().as_secs_f64();
    out.gate(verified.is_ok(), format!("verify failed: {verified:?}"));
    drop(verify_store);

    zero_metrics(out, "train.");
    let replay_store = reopen();
    let shapes = tier_shapes();
    let cfg = crate::train::config(1, mhg_obs::Obs::disabled());
    let replay = replay_sampling(
        &replay_store,
        &shapes,
        &cfg,
        args.seed,
        Limits {
            starts_per_stream: if args.smoke { 16 } else { 256 },
            neighbor_batches: 16,
        },
    );
    graph_layer_metrics(
        out,
        &counting.stats(),
        Some(&store.page_stats()),
        StoreTimes {
            build_s,
            edges: tier.total_edges(),
            open_s,
            verify_s,
        },
        &store,
    );
    sampling_metrics(out, &replay);
    zero_metrics(out, "autograd.");
    out.metric(
        "trace_overhead_frac",
        traced.walking_s() / plain_s.max(1e-12) - 1.0,
        "frac",
    );
    out.context("walk_epochs", epochs);
}

/// The tier's metapath shapes: user-item-user and item-user-item.
fn tier_shapes() -> Vec<Vec<NodeTypeId>> {
    vec![
        vec![NodeTypeId(0), NodeTypeId(1), NodeTypeId(0)],
        vec![NodeTypeId(1), NodeTypeId(0), NodeTypeId(1)],
    ]
}
