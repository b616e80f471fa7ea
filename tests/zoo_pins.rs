//! Per-model pins for the whole ten-model zoo on the tiny
//! `fault_injection.rs` configuration (Amazon scale 0.004, dim 8, 2 epochs).
//!
//! Three contracts per model:
//!
//! * **Golden result** — an FNV-1a hash over `score(u, v, r).to_bits()` on
//!   every validation edge, plus the bits of `best_val_auc` and
//!   `epochs_run`. Any change to a model's RNG draws, its tape op order or
//!   the snapshot the pipeline keeps fails here.
//! * **Resume** — a 1-epoch checkpointed run resumed to 2 epochs by a fresh
//!   model with an unrelated RNG seed must land on the same golden result.
//! * **Checkpoint keys** — the sorted key list of the final checkpoint's
//!   `StateDict`, so the `loop/*` and `model/*` layout cannot drift.
//!
//! Re-pin only on an intentional change, from the failure message.

use std::collections::BTreeMap;
use std::path::PathBuf;

use hybridgnn_repro::ckpt::Checkpointer;
use hybridgnn_repro::datasets::{DatasetKind, EdgeSplit};
use hybridgnn_repro::model::{HybridConfig, HybridGnn};
use hybridgnn_repro::models::{
    CommonConfig, DeepWalk, FitData, Gatne, Gcn, GraphSage, Han, Line, LinkPredictor, Magnn,
    Node2Vec, RGcn,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Dataset and split seed shared by every run.
const SEED: u64 = 5;

/// Zoo order, as in `tiny_zoo` of `fault_injection.rs`.
const MODELS: [&str; 10] = [
    "DeepWalk",
    "node2vec",
    "LINE",
    "GCN",
    "GraphSage",
    "HAN",
    "MAGNN",
    "R-GCN",
    "GATNE",
    "HybridGNN",
];

/// The tiny shared training config of `fault_injection.rs`.
fn tiny_common() -> CommonConfig {
    let mut cfg = CommonConfig::fast();
    cfg.epochs = 2;
    cfg.dim = 8;
    cfg.background_sampling = true;
    cfg
}

/// The model named `name` under config `c`.
fn model(name: &str, c: CommonConfig) -> Box<dyn LinkPredictor> {
    match name {
        "DeepWalk" => Box::new(DeepWalk::new(c)),
        "node2vec" => Box::new(Node2Vec::new(c)),
        "LINE" => Box::new(Line::new(c)),
        "GCN" => Box::new(Gcn::new(c)),
        "GraphSage" => Box::new(GraphSage::new(c)),
        "HAN" => Box::new(Han::new(c)),
        "MAGNN" => Box::new(Magnn::new(c)),
        "R-GCN" => Box::new(RGcn::new(c)),
        "GATNE" => Box::new(Gatne::new(c)),
        "HybridGNN" => Box::new(HybridGnn::new(HybridConfig {
            common: c,
            ..HybridConfig::default()
        })),
        other => panic!("unknown model {other}"),
    }
}

/// What a finished fit is pinned by: (val-score hash, `best_val_auc` bits,
/// `epochs_run`).
type Fingerprint = (u64, u64, usize);

/// FNV-1a over a stream of `u32` words (little-endian byte order).
fn fnv1a(words: impl Iterator<Item = u32>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Fits `name` on the tiny dataset with the caller's RNG seeded by
/// `rng_seed` (the split always uses [`SEED`]) and fingerprints the result.
fn fit(name: &str, cfg: CommonConfig, rng_seed: u64) -> Fingerprint {
    let dataset = DatasetKind::Amazon.generate(0.004, SEED);
    let mut split_rng = StdRng::seed_from_u64(SEED);
    let split = EdgeSplit::default_split(&dataset.graph, &mut split_rng);
    let data = FitData {
        graph: &split.train_graph,
        metapath_shapes: &dataset.metapath_shapes,
        val: &split.val,
    };
    let mut rng = if rng_seed == SEED {
        split_rng
    } else {
        StdRng::seed_from_u64(rng_seed)
    };
    let mut m = model(name, cfg);
    let report = m
        .fit(&data, &mut rng)
        .unwrap_or_else(|e| panic!("{name} fit failed: {e}"));
    let hash = fnv1a(
        split
            .val
            .iter()
            .map(|e| m.score(e.u, e.v, e.relation).to_bits()),
    );
    (hash, report.best_val_auc.to_bits(), report.epochs_run)
}

fn ckpt_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mhg_zoo_pins_{}_{}",
        std::process::id(),
        name.replace('-', "")
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Golden fingerprint per model, in [`MODELS`] order.
const GOLDEN: [Fingerprint; 10] = [
    (0xe551fd92c4cb6361, 0x3fe7021d9ead7cd4, 2), // DeepWalk
    (0x8afd7f6f7cc989af, 0x3fea1d9ead7cd392, 2), // node2vec
    (0x95bc0507ee69fab0, 0x3fe6152832c6e044, 2), // LINE
    (0x2121d003b07a2a40, 0x3fe9c8fde2615283, 2), // GCN
    (0xd4302b75b27940ee, 0x3fe26152832c6e04, 2), // GraphSage
    (0xe9feedc1a70b3d16, 0x3fe391fbc4c2a506, 2), // HAN
    (0x1aa81697dfe06b0d, 0x3fe33d5af9a723f8, 2), // MAGNN
    (0x44f5b508423887ce, 0x3fe52832c6e043b4, 2), // R-GCN
    (0x0c26dbf9e4fe5775, 0x3fe47ef130a94196, 2), // GATNE
    (0xb50318789a85e53c, 0x3fe31b810ecf56be, 2), // HybridGNN
];

/// The pipeline's own checkpoint keys, identical for every model; they sort
/// ahead of every `model/*` key.
const LOOP_KEYS: [&str; 13] = [
    "loop/base",
    "loop/epoch",
    "loop/format",
    "loop/report/compute_ms",
    "loop/report/epochs_run",
    "loop/report/eval_ms",
    "loop/report/final_loss",
    "loop/report/sample_ms",
    "loop/rng",
    "loop/stopped",
    "loop/stopper/best",
    "loop/stopper/patience",
    "loop/stopper/since",
];

/// The `model/*` keys of each model's final checkpoint, in [`MODELS`]
/// order, sorted. Numeric path segments (parameter and table indices) are
/// written `#`, with `[n]` giving how many keys share the pattern.
const MODEL_KEYS: [&[&str]; 10] = [
    &[
        "model/scores/context",
        "model/scores/ntables",
        "model/scores/table/#",
        "model/sgns/ctx",
        "model/sgns/emb",
    ],
    &[
        "model/scores/context",
        "model/scores/ntables",
        "model/scores/table/#",
        "model/sgns/ctx",
        "model/sgns/emb",
    ],
    &[
        "model/first",
        "model/scores/ntables",
        "model/scores/table/#",
        "model/second/ctx",
        "model/second/emb",
    ],
    &[
        "model/opt/#/m [2]",
        "model/opt/#/rows [2]",
        "model/opt/#/step [2]",
        "model/opt/#/v [2]",
        "model/opt/ids",
        "model/params/# [2]",
        "model/params/n",
        "model/scores/ntables",
        "model/scores/table/#",
    ],
    &[
        "model/opt/#/m [5]",
        "model/opt/#/rows [5]",
        "model/opt/#/step [5]",
        "model/opt/#/v [5]",
        "model/opt/ids",
        "model/params/# [5]",
        "model/params/n",
        "model/scores/ntables",
        "model/scores/table/#",
    ],
    &[
        "model/opt/#/m [7]",
        "model/opt/#/rows [7]",
        "model/opt/#/step [7]",
        "model/opt/#/v [7]",
        "model/opt/ids",
        "model/params/# [7]",
        "model/params/n",
        "model/scores/ntables",
        "model/scores/table/#",
    ],
    &[
        "model/opt/#/m [7]",
        "model/opt/#/rows [7]",
        "model/opt/#/step [7]",
        "model/opt/#/v [7]",
        "model/opt/ids",
        "model/params/# [7]",
        "model/params/n",
        "model/scores/ntables",
        "model/scores/table/#",
    ],
    &[
        "model/diag_snap",
        "model/node_reps",
        "model/opt/#/m [5]",
        "model/opt/#/rows [5]",
        "model/opt/#/step [5]",
        "model/opt/#/v [5]",
        "model/opt/ids",
        "model/params/# [5]",
        "model/params/n",
    ],
    &[
        "model/opt/#/m [10]",
        "model/opt/#/rows [10]",
        "model/opt/#/step [10]",
        "model/opt/#/v [10]",
        "model/opt/ids",
        "model/params/# [10]",
        "model/params/n",
        "model/scores/context",
        "model/scores/ntables",
        "model/scores/table/# [2]",
    ],
    &[
        "model/attention",
        "model/opt/#/m [13]",
        "model/opt/#/rows [13]",
        "model/opt/#/step [13]",
        "model/opt/#/v [13]",
        "model/opt/ids",
        "model/params/# [14]",
        "model/params/n",
        "model/scores/context",
        "model/scores/ntables",
        "model/scores/table/# [2]",
    ],
];

/// Panics listing every model whose fingerprint differs from [`GOLDEN`],
/// each as a ready-to-paste table row.
fn assert_golden(what: &str, got: &[Fingerprint]) {
    let drifted: Vec<String> = MODELS
        .iter()
        .zip(got.iter().zip(GOLDEN))
        .filter(|(_, (g, golden))| **g != *golden)
        .map(|(name, (g, _))| format!("    ({:#018x}, {:#018x}, {}), // {name}", g.0, g.1, g.2))
        .collect();
    assert!(
        drifted.is_empty(),
        "{what}: {} model(s) drifted from GOLDEN; got:\n{}",
        drifted.len(),
        drifted.join("\n")
    );
}

#[test]
fn every_model_matches_its_golden_result() {
    let got: Vec<Fingerprint> = MODELS
        .iter()
        .map(|name| fit(name, tiny_common(), SEED))
        .collect();
    assert_golden("uninterrupted run", &got);
}

/// Collapses sorted checkpoint keys into the [`LOOP_KEYS`] /
/// [`MODEL_KEYS`] notation: digit-only path segments become `#`, and a
/// pattern shared by `n > 1` keys gets an ` [n]` suffix.
fn key_patterns(keys: &[String]) -> Vec<String> {
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for key in keys {
        let pattern: Vec<&str> = key
            .split('/')
            .map(|seg| {
                if seg.bytes().all(|b| b.is_ascii_digit()) {
                    "#"
                } else {
                    seg
                }
            })
            .collect();
        *counts.entry(pattern.join("/")).or_default() += 1;
    }
    counts
        .into_iter()
        .map(|(p, n)| if n > 1 { format!("{p} [{n}]") } else { p })
        .collect()
}

/// Trains 1 epoch with checkpointing, then resumes to 2 epochs in a fresh
/// model whose own RNG seed is unrelated; returns the resumed fingerprint
/// and the sorted keys of the final checkpoint.
fn split_run(name: &str) -> (Fingerprint, Vec<String>) {
    let dir = ckpt_dir(name);
    let configure = |epochs: usize, resume: bool| {
        let mut cfg = tiny_common();
        cfg.epochs = epochs;
        cfg.checkpoint_every = 1;
        cfg.checkpoint_dir = Some(dir.clone());
        cfg.resume = resume;
        cfg
    };
    fit(name, configure(1, false), SEED);
    let resumed = fit(name, configure(2, true), 999);
    let (epoch, dict) = Checkpointer::create(&dir)
        .and_then(|c| c.load_latest())
        .expect("checkpoint dir must load")
        .expect("a final checkpoint must exist");
    assert_eq!(epoch, 2, "{name}: final checkpoint epoch");
    let mut keys: Vec<String> = dict.iter().map(|(k, _)| k.to_string()).collect();
    keys.sort();
    let _ = std::fs::remove_dir_all(&dir);
    (resumed, keys)
}

#[test]
fn every_model_resumes_to_its_golden_result_with_pinned_keys() {
    let mut got = Vec::new();
    for (name, model_keys) in MODELS.iter().zip(MODEL_KEYS) {
        let (fp, keys) = split_run(name);
        got.push(fp);
        let expected: Vec<&str> = LOOP_KEYS.iter().chain(model_keys).copied().collect();
        assert_eq!(
            key_patterns(&keys),
            expected,
            "{name}: final checkpoint keys drifted; full sorted list: {keys:?}"
        );
    }
    assert_golden("1-epoch checkpoint resumed to 2 epochs", &got);
}
