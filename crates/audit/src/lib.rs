//! # accelmr-audit — the determinism auditor
//!
//! Every reproducibility guarantee this workspace makes — golden trace
//! fingerprints, fabric-vs-oracle completion-time equivalence,
//! digest-exact churn reruns — rests on the DES being bit-for-bit
//! deterministic. The invariants that make it so used to live in
//! comments and reviewer vigilance; this crate machine-checks them as a
//! static analysis pass run in CI (`cargo run -p accelmr-audit`).
//!
//! ## Rules
//!
//! | Rule | Invariant |
//! |---|---|
//! | `wall-clock` | `Instant`/`SystemTime` only in `crates/bench` — sim code uses `SimTime` |
//! | `os-random` | no `thread_rng`/`RandomState`/`rand::` — in-tree seeded `Xoshiro256` only |
//! | `std-hashmap` | sim crates construct maps via the fixed-seed `des::fxmap` aliases |
//! | `map-order` | hash-map iteration in event-scheduling crates is sorted or reasoned order-insensitive |
//! | `unsafe` | every `unsafe` block, fn or impl states why it is sound; the workspace has one, the AES-NI dispatch in `kernels/src/aes/hw.rs` |
//!
//! Violations are suppressed with `// audit:allow(<rule>): <reason>` on
//! the offending line or the line above. The reason is mandatory, and
//! unused allows are themselves errors — annotations cannot rot.
//!
//! The crate is deliberately dependency-free: the workspace builds
//! offline with zero third-party crates, so instead of `syn` it ships a
//! small comment/string/raw-string-aware token scanner ([`lexer`])
//! driving a rule engine ([`rules`]) over a sorted file walk ([`walk`]).

pub mod lexer;
pub mod rules;
pub mod walk;

use std::path::Path;

pub use rules::{check_file, Finding, RULES};

/// Audits every `.rs` file under `root`; returns `(files_scanned,
/// findings)` with findings in (path, line) order.
pub fn audit_workspace(root: &Path) -> std::io::Result<(usize, Vec<Finding>)> {
    let files = walk::rust_files(root)?;
    let mut findings = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(path)?;
        // A directory module's files share the structs its `mod.rs` declares.
        let parent = path.with_file_name("mod.rs");
        let parent_src = if parent != *path && parent.is_file() {
            Some(std::fs::read_to_string(&parent)?)
        } else {
            None
        };
        findings.extend(rules::check_file_in(&rel, &src, parent_src.as_deref()));
    }
    Ok((files.len(), findings))
}
