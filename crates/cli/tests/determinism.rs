//! Cross-process build determinism: `prague generate` + `prague build`
//! run twice as child processes must write byte-identical datasets and
//! catalogs. `tests/integration_determinism.rs` compares builds inside one
//! process; separate processes also vary the allocator state, ASLR and
//! the miner's thread start-up order.

use std::path::Path;
use std::process::Command;

fn prague(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_prague"))
        .args(args)
        .output()
        .expect("prague binary runs");
    assert!(
        out.status.success(),
        "prague {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Generate and build in `dir`, returning the dataset and catalog bytes.
fn pipeline(dir: &Path, run: u32, kind: &str, graphs: &str) -> (Vec<u8>, Vec<u8>) {
    let data = dir.join(format!("{run}.lg"));
    let catalog = dir.join(format!("{run}.prgc"));
    let (data_s, catalog_s) = (
        data.to_str().expect("utf-8"),
        catalog.to_str().expect("utf-8"),
    );
    prague(&[
        "generate", "--kind", kind, "--graphs", graphs, "--out", data_s,
    ]);
    prague(&[
        "build",
        "--data",
        data_s,
        "--alpha",
        "0.1",
        "--max-edges",
        "6",
        "--out",
        catalog_s,
    ]);
    (
        std::fs::read(&data).expect("dataset written"),
        std::fs::read(&catalog).expect("catalog written"),
    )
}

fn assert_reproducible(kind: &str, graphs: &str) {
    let dir =
        std::env::temp_dir().join(format!("prague-determinism-{}-{kind}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (data_a, catalog_a) = pipeline(&dir, 1, kind, graphs);
    let (data_b, catalog_b) = pipeline(&dir, 2, kind, graphs);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!catalog_a.is_empty(), "{kind}: empty catalog");
    assert!(data_a == data_b, "{kind}: generated datasets differ");
    assert!(
        catalog_a == catalog_b,
        "{kind}: catalogs differ across processes"
    );
}

#[test]
fn molecules_catalog_is_identical_across_processes() {
    assert_reproducible("molecules", "400");
}

#[test]
fn synthetic_catalog_is_identical_across_processes() {
    assert_reproducible("synthetic", "400");
}
