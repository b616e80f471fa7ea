//! The 10×-scale streaming contract of the sharded graph store: the
//! 10M-candidate-edge synthetic Taobao tier builds into a [`ShardedCsr`],
//! opens, verifies, and serves a uniform walk workload while its page cache
//! stays inside a 64 MiB budget that is far smaller than the store on disk.
//!
//! This file holds exactly one test so the process's peak resident set
//! (`VmHWM`) belongs to it alone. CI additionally runs it under a hard
//! address-space cap:
//!
//! ```sh
//! cargo test --release --test graph_10x --no-run
//! ulimit -v 393216; cargo test --release --test graph_10x
//! ```
//!
//! The toy-scale version of the same property is
//! `crates/graph/tests/sharded.rs::paging_stays_inside_budget_and_evicts`.

use hybridgnn_repro::datasets::SyntheticTier;
use hybridgnn_repro::graph::{GraphStore, NodeId, ShardedCsr, ShardedCsrOptions};
use hybridgnn_repro::sampling::{sharded_over, UniformWalker, Walk};

const PAGE_BUDGET: usize = 64 << 20;
const WALKS: usize = 5_000;
const WALK_LEN: usize = 10;
const THREADS: usize = 4;
/// Peak resident set allowed for the whole test process.
const MAX_HWM_KB: u64 = 384 << 10;

/// Peak resident set size in KiB, from `/proc/self/status` (Linux only).
fn vm_hwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[test]
fn ten_million_edge_store_streams_walks_under_ram_cap() {
    let tier = SyntheticTier::taobao(1.0, 2022);
    let opts = ShardedCsrOptions {
        shard_target_cap: 1 << 16,
        page_budget_bytes: PAGE_BUDGET,
        build_budget_bytes: 32 << 20,
    };
    let dir = std::env::temp_dir().join(format!("mhg_graph_10x_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    drop(ShardedCsr::build(&tier, &dir, opts).expect("sharded build"));
    let store = ShardedCsr::open(&dir, opts).expect("sharded open");
    store.verify().expect("sharded verify");

    let num_nodes = store.num_nodes();
    let starts: Vec<NodeId> = (0..WALKS).map(|i| NodeId((i % num_nodes) as u32)).collect();
    let walker = UniformWalker::new(&store);
    let walks = hybridgnn_repro::par::with_threads(THREADS, || {
        sharded_over(2022 ^ 0x9e37_79b9, &starts, |chunk, rng| {
            chunk
                .iter()
                .map(|&s| walker.walk(s, WALK_LEN, rng))
                .collect::<Vec<Walk>>()
        })
    });
    assert_eq!(walks.len(), WALKS);

    let stats = store.page_stats();
    assert!(
        stats.evictions > 0,
        "budget never forced eviction: {stats:?}"
    );
    assert!(
        stats.peak_bytes <= PAGE_BUDGET,
        "peak {} exceeded budget: {stats:?}",
        stats.peak_bytes
    );
    let on_disk = store.on_disk_bytes().expect("on-disk size");
    let working = PAGE_BUDGET + store.resident_metadata_bytes();
    assert!(
        (working as u64) < on_disk,
        "working set {working} not below on-disk {on_disk}"
    );
    assert_eq!(store.heal_stats(), Default::default());
    assert!(store.quarantined().is_empty());

    let hwm = vm_hwm_kb().expect("VmHWM in /proc/self/status");
    assert!(
        hwm < MAX_HWM_KB,
        "peak RSS {hwm} KiB not below {MAX_HWM_KB} KiB"
    );

    drop(store);
    std::fs::remove_dir_all(&dir).expect("remove store dir");
}
