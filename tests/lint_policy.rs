//! The part of the lint policy the compiler cannot count.
//!
//! `unsafe_code = "deny"` and the `clippy.toml` determinism rules are
//! enforced by `cargo clippy`, and every excuse is an
//! `#[expect(.., reason = "..")]` that fails the build once it excuses
//! nothing. What no lint states is *how many* excuses there are: the
//! workspace has exactly one `unsafe` call, the AES-NI dispatch in
//! `kernels/src/aes/hw.rs`; exactly one host thread, the TaskTracker's
//! record-digest worker; and clippy's `allow_attributes` sees outer allow
//! attributes only, not inner ones. These tests walk every source file the
//! workspace lints apply to and pin all three.
//!
//! Needles are assembled with `concat!` so this file does not match them.

use std::path::{Path, PathBuf};

const ROOTS: [&str; 4] = ["crates", "src", "tests", "examples"];

/// Every `.rs` file under [`ROOTS`], skipping build output, hidden
/// directories and the benchmark package, which has its own manifest and
/// `unsafe_code = "forbid"`.
fn workspace_sources() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut stack: Vec<PathBuf> = ROOTS.iter().map(|r| root.join(r)).collect();
    let mut out = Vec::new();
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("readable source directory") {
            let path = entry.expect("readable directory entry").path();
            let rel = path
                .strip_prefix(root)
                .unwrap()
                .to_string_lossy()
                .replace('\\', "/");
            let name = path.file_name().unwrap().to_string_lossy();
            if path.is_dir() {
                if name != "target" && !name.starts_with('.') && rel != "crates/bench/benchmark" {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                let src = std::fs::read_to_string(&path).expect("readable source file");
                // Attributes may wrap: compare with all whitespace removed.
                out.push((rel, src.split_whitespace().collect()));
            }
        }
    }
    out.sort();
    out
}

fn files_containing<'a>(sources: &'a [(String, String)], needle: &str) -> Vec<&'a str> {
    sources
        .iter()
        .flat_map(|(rel, src)| std::iter::repeat_n(rel.as_str(), src.matches(needle).count()))
        .collect()
}

#[test]
fn exactly_one_unsafe_expectation_and_it_is_the_aes_ni_call() {
    let sources = workspace_sources();
    assert!(
        sources
            .iter()
            .any(|(rel, _)| rel == "crates/kernels/src/aes/hw.rs"),
        "the walk must reach the kernels crate"
    );
    let sites = files_containing(&sources, concat!("expect(", "unsafe_code"));
    assert_eq!(sites, ["crates/kernels/src/aes/hw.rs"]);
}

#[test]
fn exactly_one_host_thread_and_it_is_the_digest_worker() {
    const DIGEST: &str = "crates/mapred/src/tasktracker/digest.rs";
    let sources = workspace_sources();
    let mut starts = Vec::new();
    for needle in [
        concat!("thread::", "spawn"),
        concat!("thread::", "Builder"),
        concat!("thread::", "scope"),
    ] {
        starts.extend(files_containing(&sources, needle));
    }
    assert_eq!(starts, [DIGEST], "thread start sites");
    let excuses = files_containing(
        &sources,
        concat!(
            "expect(clippy::",
            "disallowed_methods,reason=\"the",
            "onehostthread"
        ),
    );
    assert_eq!(excuses, [DIGEST], "host-thread expectations");
}

#[test]
fn lints_are_excused_only_by_reasoned_expects() {
    let sources = workspace_sources();
    for needle in [concat!("#[", "allow("), concat!("#![", "allow(")] {
        let sites = files_containing(&sources, needle);
        assert!(
            sites.is_empty(),
            "`{needle}` in {sites:?}: use #[expect(.., reason = \"..\")]"
        );
    }
}
