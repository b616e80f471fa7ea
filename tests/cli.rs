//! End-to-end tests for `hybridgnn-cli`: generate → stats → train →
//! recommend over a temp directory.

use std::path::PathBuf;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hybridgnn-cli"))
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("hybridgnn_cli_tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

#[test]
fn full_workflow() {
    let graph_path = temp_path("workflow.mhg");
    let model_path = temp_path("workflow.emb");

    // generate
    let out = cli()
        .args([
            "generate",
            "--dataset",
            "taobao",
            "--scale",
            "0.005",
            "--seed",
            "3",
            "--out",
        ])
        .arg(&graph_path)
        .output()
        .expect("run generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(graph_path.exists());

    // stats
    let out = cli()
        .args(["stats", "--graph"])
        .arg(&graph_path)
        .output()
        .expect("run stats");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("|R|=4"), "{text}");
    assert!(text.contains("page-view"), "{text}");

    // train (tiny budget)
    let out = cli()
        .args(["train", "--graph"])
        .arg(&graph_path)
        .args(["--epochs", "2", "--dim", "16", "--out"])
        .arg(&model_path)
        .output()
        .expect("run train");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("ROC-AUC"), "{text}");
    assert!(model_path.exists());

    // recommend
    let out = cli()
        .args(["recommend", "--graph"])
        .arg(&graph_path)
        .args(["--model"])
        .arg(&model_path)
        .args(["--node", "0", "--relation", "page-view", "--k", "3"])
        .output()
        .expect("run recommend");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("top-3"), "{text}");

    std::fs::remove_file(graph_path).ok();
    std::fs::remove_file(model_path).ok();
}

#[test]
fn recommend_rejects_damaged_embedding_files() {
    let graph_path = temp_path("damaged.mhg");
    let model_path = temp_path("damaged.emb");
    let out = cli()
        .args([
            "generate",
            "--dataset",
            "taobao",
            "--scale",
            "0.005",
            "--out",
        ])
        .arg(&graph_path)
        .output()
        .expect("run generate");
    assert!(out.status.success());
    let out = cli()
        .args(["train", "--graph"])
        .arg(&graph_path)
        .args(["--epochs", "1", "--dim", "8", "--out"])
        .arg(&model_path)
        .output()
        .expect("run train");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let good = std::fs::read(&model_path).expect("read embeddings");
    assert_eq!(&good[..4], b"MHE2");

    // Header: magic (4) + version (2) + three u32 dimensions (12); the
    // float payload follows, then the 8-byte checksum trailer.
    let mut flipped = good.clone();
    flipped[18 + 5] ^= 0x10;
    let mut extended = good.clone();
    extended.push(0);
    let truncated = good[..good.len() / 2].to_vec();
    // The pre-checksum layout: "MHE1" + the same dimensions and floats.
    let mut old = b"MHE1".to_vec();
    old.extend_from_slice(&good[6..good.len() - 8]);

    for (case, bytes, expect) in [
        ("bit flip", flipped, "checksum mismatch"),
        ("trailing byte", extended, "checksum mismatch"),
        ("truncation", truncated, "not a valid embedding file"),
        ("old format", old, "re-run `train`"),
    ] {
        let damaged = temp_path(&format!("damaged-{}.emb", case.replace(' ', "-")));
        std::fs::write(&damaged, &bytes).expect("write damaged file");
        let out = cli()
            .args(["recommend", "--graph"])
            .arg(&graph_path)
            .arg("--model")
            .arg(&damaged)
            .args(["--node", "0", "--relation", "page-view", "--k", "3"])
            .output()
            .expect("run recommend");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{case}: recommend must fail");
        assert!(!stderr.contains("panicked"), "{case}: {stderr}");
        assert!(stderr.contains(expect), "{case}: {stderr}");
        std::fs::remove_file(damaged).ok();
    }

    // The untouched file still serves.
    let out = cli()
        .args(["recommend", "--graph"])
        .arg(&graph_path)
        .arg("--model")
        .arg(&model_path)
        .args(["--node", "0", "--relation", "page-view", "--k", "3"])
        .output()
        .expect("run recommend");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_file(graph_path).ok();
    std::fs::remove_file(model_path).ok();
}

#[test]
fn helpful_errors() {
    // Unknown command.
    let out = cli().arg("frobnicate").output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    // Missing flags.
    let out = cli().arg("train").output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--graph"));

    // Unknown dataset.
    let out = cli()
        .args(["generate", "--dataset", "nope", "--out", "/tmp/x.mhg"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown dataset"));

    // Unknown relation on a real graph.
    let graph_path = temp_path("errors.mhg");
    let out = cli()
        .args([
            "generate",
            "--dataset",
            "amazon",
            "--scale",
            "0.005",
            "--out",
        ])
        .arg(&graph_path)
        .output()
        .expect("run");
    assert!(out.status.success());
    let out = cli()
        .args(["recommend", "--graph"])
        .arg(&graph_path)
        .args([
            "--model",
            "/nonexistent.emb",
            "--node",
            "0",
            "--relation",
            "buy",
        ])
        .output()
        .expect("run");
    assert!(!out.status.success());
    std::fs::remove_file(graph_path).ok();
}
