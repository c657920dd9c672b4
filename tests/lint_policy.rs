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
//! workspace lints apply to and pin all three, and two conventions no lint
//! knows: an actor receives through its `accelmr_des::inbox!`, and the
//! functional path allocates no record image of its own. A last pair keeps
//! the tier-1 test profile's debug assertions on and the hardware model free
//! of settings, and a ceiling holds the non-test code to its size.
//!
//! Needles are assembled with `concat!` so this file does not match them.

use std::path::{Path, PathBuf};

const ROOTS: [&str; 4] = ["crates", "src", "tests", "examples"];

/// Every `.rs` file under [`ROOTS`] as written, skipping build output,
/// hidden directories and the benchmark package, which has its own
/// manifest and `unsafe_code = "forbid"`.
fn raw_sources() -> Vec<(String, String)> {
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
                out.push((rel, src));
            }
        }
    }
    out.sort();
    out
}

/// [`raw_sources`] with all whitespace removed: attributes may wrap.
fn workspace_sources() -> Vec<(String, String)> {
    let strip = |(rel, src): (String, String)| (rel, src.split_whitespace().collect());
    raw_sources().into_iter().map(strip).collect()
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

const CFG_TEST: &str = concat!("#[cfg(", "test)]");

/// The module's name when `rest`, the text right after a `#[cfg(test)]`,
/// declares a test-only module file (`mod name;`), with or without
/// whitespace.
fn declared_test_module(rest: &str) -> Option<&str> {
    let rest = rest.trim_start().strip_prefix("mod")?.trim_start();
    let len = rest.find(|c: char| !(c.is_alphanumeric() || c == '_'))?;
    (len > 0 && rest[len..].starts_with(';')).then(|| &rest[..len])
}

/// Files their parent includes as `#[cfg(test)] mod name;`: test-only
/// modules, such as a crate's reference oracle or a unit-test file.
fn test_only_modules(sources: &[(String, String)]) -> Vec<String> {
    let mut out = Vec::new();
    for (rel, src) in sources {
        let (dir, stem) = rel.rsplit_once('/').expect("a file under a root");
        let stem = stem.trim_end_matches(".rs");
        let dir = match stem {
            "lib" | "main" | "mod" => dir.to_string(),
            _ => format!("{dir}/{stem}"),
        };
        for name in src.split(CFG_TEST).skip(1).filter_map(declared_test_module) {
            out.push(format!("{dir}/{name}.rs"));
            out.push(format!("{dir}/{name}/mod.rs"));
        }
    }
    out
}

/// `src` up to its own test section: the first `#[cfg(test)]` that does
/// not just declare a test-only module file (such a declaration often
/// sits near the top, above the production code).
fn before_inline_tests(src: &str) -> &str {
    let end = src
        .match_indices(CFG_TEST)
        .map(|(at, _)| at)
        .find(|&at| declared_test_module(&src[at + CFG_TEST.len()..]).is_none());
    &src[..end.unwrap_or(src.len())]
}

/// One message-handling idiom: outside the event core, every actor decodes
/// an arriving message once, through its `accelmr_des::inbox!`, and
/// matches the result exhaustively. No file that implements `Actor` probes
/// a message's type itself outside its test section; test-only modules are
/// exempt.
#[test]
fn one_message_idiom() {
    let sources = workspace_sources();
    let exempt = test_only_modules(&sources);
    assert!(
        exempt.iter().any(|m| m == "crates/net/src/reference.rs"),
        "the walk must find the test-only modules"
    );
    let mut actors = 0;
    let mut probes = Vec::new();
    for (rel, src) in &sources {
        if rel.starts_with("crates/des/")
            || exempt.contains(rel)
            || !src.contains(concat!("implActor", "for"))
        {
            continue;
        }
        actors += 1;
        let production = before_inline_tests(src);
        for needle in [
            concat!("peek", "::<"),
            concat!("is", "::<"),
            concat!("downcast", "::<"),
        ] {
            if production.contains(needle) {
                probes.push(format!("{rel}: {needle}"));
            }
        }
    }
    assert!(
        actors >= 7,
        "the walk must reach the actor files, found {actors}"
    );
    assert!(
        probes.is_empty(),
        "probe chains in {probes:?}: declare an accelmr_des::inbox! and match its decode"
    );
}

/// Every record image on the functional path comes from the record-image
/// pool (`accelmr_kernels::pool`), which hands out used images unzeroed:
/// the code that fills one writes every byte. A zero-allocated or copied
/// image in the production part of a file on that path would pay an
/// allocation and a zero pass or a copy per record again. The one
/// `.to_vec()` these files keep copies a write pipeline's node ids, not
/// bytes.
#[test]
fn record_images_on_the_functional_path_are_never_freshly_allocated() {
    const FUNCTIONAL_PATH: [&str; 4] = [
        "crates/dfs/src/datanode.rs",
        "crates/cellbe/src/machine.rs",
        "crates/mapred/src/tasktracker/map.rs",
        "crates/core/src/kernels.rs",
    ];
    const NEEDLES: [&str; 3] = [concat!("vec![", "0u8"), concat!("vec![", "0;"), ".to_vec()"];
    // Sources are compared with all whitespace removed.
    const NOT_AN_IMAGE: &str = "rest:rest.to_vec(),";
    let sources = workspace_sources();
    let mut fresh = Vec::new();
    for file in FUNCTIONAL_PATH {
        let (_, src) = sources
            .iter()
            .find(|(rel, _)| rel == file)
            .unwrap_or_else(|| panic!("the walk must reach {file}"));
        let production = before_inline_tests(src).replace(NOT_AN_IMAGE, "");
        for needle in NEEDLES {
            if production.contains(needle) {
                fresh.push(format!("{file}: {needle}"));
            }
        }
    }
    assert!(
        fresh.is_empty(),
        "record images allocated outside accelmr_kernels::pool: {fresh:?}"
    );
}

/// The root manifest optimises the test profile for a shorter tier-1 loop;
/// `debug-assertions` is a separate setting, and every `debug_assert!` and
/// `debug_check_*` invariant (the fabric's link index among them) runs only
/// while it is on. A profile edit that turned it off fails here.
#[test]
#[expect(
    clippy::assertions_on_constants,
    reason = "the constant is the profile setting under test"
)]
fn the_tier1_test_profile_keeps_debug_assertions() {
    assert!(
        cfg!(debug_assertions),
        "cargo test must build with debug assertions"
    );
}

/// The testbed's hardware is constants, not settings: the three config
/// types the benchmark package passes exist only as a call surface and
/// carry nothing. A field re-added to any of them fails here.
#[test]
fn hardware_model_structs_carry_no_setting() {
    use std::mem::size_of;
    assert_eq!(size_of::<accelmr::net::NetConfig>(), 0, "NetConfig");
    assert_eq!(size_of::<accelmr::cellbe::CellConfig>(), 0, "CellConfig");
    assert_eq!(
        size_of::<accelmr::cellmr::CellMrConfig>(),
        0,
        "CellMrConfig"
    );
}

/// Non-test code lines the workspace may hold. A change that grows the
/// tree past it raises it in the same diff and says why in CHANGES.md.
const CEILING: usize = 11_949;

/// The tree's size by the rule ROADMAP's "Lines" table is kept by: every
/// file outside a `tests/` directory and outside the test-only modules, read
/// up to its own test section. "Code" is a non-blank line that is not a
/// `//` comment. Prints both counts; fails when code exceeds [`CEILING`].
#[test]
fn non_test_code_stays_under_its_ceiling() {
    let sources = raw_sources();
    let exempt = test_only_modules(&sources);
    let (mut raw, mut code) = (0, 0);
    for (rel, src) in &sources {
        if rel.starts_with("tests/") || rel.contains("/tests/") || exempt.contains(rel) {
            continue;
        }
        for line in before_inline_tests(src).lines() {
            raw += 1;
            let line = line.trim();
            code += usize::from(!line.is_empty() && !line.starts_with("//"));
        }
    }
    println!("non-test lines: {raw} raw / {code} code (ceiling {CEILING})");
    assert!(
        code > CEILING / 2,
        "the walk must reach the sources: {code} code lines"
    );
    assert!(
        code <= CEILING,
        "non-test code grew to {code} lines, past the ceiling of {CEILING}"
    );
}
