//! The determinism rules, the `unsafe` rule, and the allow/suppression
//! engine.
//!
//! Every rule reports `rule file:line message` findings. A finding can be
//! suppressed with a *reasoned* annotation on the offending line (or on a
//! comment line directly above it):
//!
//! ```text
//! // audit:allow(<rule>): <why this is order-insensitive / exempt>
//! ```
//!
//! The reason is mandatory, and an allow that suppresses nothing is
//! itself an error (`unused-allow`) — annotations cannot rot in place
//! when the code they excused changes underneath them.

use crate::lexer::{lex, Lexed, Tok};

/// The four determinism rules and the `unsafe` rule (see
/// `docs/ARCHITECTURE.md`).
pub const RULES: [&str; 5] = [
    "wall-clock",
    "os-random",
    "std-hashmap",
    "map-order",
    "unsafe",
];

/// One diagnostic, formatted as `rule file:line message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule name (one of [`RULES`], `unused-allow`, or `malformed-allow`).
    pub rule: String,
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human explanation.
    pub msg: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}:{} {}", self.rule, self.file, self.line, self.msg)
    }
}

/// Where a file sits in the workspace; decides which rules apply.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Area {
    /// `crates/<name>/…`
    Crate(String),
    /// The facade crate's `src/`.
    Facade,
    /// Workspace-level `tests/` and `examples/`.
    TestsOrExamples,
    /// Anything else (scripts, build helpers).
    Other,
}

fn area_of(rel: &str) -> Area {
    let rel = rel.replace('\\', "/");
    if let Some(rest) = rel.strip_prefix("crates/") {
        if let Some((name, _)) = rest.split_once('/') {
            return Area::Crate(name.to_string());
        }
    }
    if rel.starts_with("src/") {
        return Area::Facade;
    }
    if rel.starts_with("tests/") || rel.starts_with("examples/") {
        return Area::TestsOrExamples;
    }
    Area::Other
}

/// Crates whose event scheduling the map-order rule protects.
const EVENT_CRATES: [&str; 4] = ["des", "net", "dfs", "mapred"];

/// Hash-map/set type names whose iteration order is insertion-history
/// dependent (BTree types are deterministic and exempt).
const MAP_TYPES: [&str; 4] = ["FxHashMap", "FxHashSet", "HashMap", "HashSet"];

/// Iterator-producing methods on hash maps that expose bucket order.
const ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Chain terminators whose result is independent of visit order.
const ORDER_FREE_SINKS: [&str; 9] = [
    "count", "sum", "product", "min", "max", "all", "any", "len", "is_empty",
];

#[derive(Debug)]
struct Allow {
    rule: String,
    /// Line the annotation suppresses findings on.
    applies_to: u32,
    /// Line the annotation itself sits on (for unused-allow reporting).
    at: u32,
    used: std::cell::Cell<bool>,
}

/// Runs every applicable rule over one file. `rel` is the path relative
/// to the workspace root (used for scoping and diagnostics).
pub fn check_file(rel: &str, src: &str) -> Vec<Finding> {
    check_file_in(rel, src, None)
}

/// [`check_file`] for a file of a directory module, given the source of
/// the directory's `mod.rs`: an `impl` block split across a module's files
/// iterates `self.<field>` maps whose struct is declared in the parent, so
/// the parent's map-typed fields count as this file's too.
pub(crate) fn check_file_in(rel: &str, src: &str, parent_src: Option<&str>) -> Vec<Finding> {
    let lexed = lex(src);
    let parent_fields = parent_src.map_or_else(Vec::new, |p| collect_map_idents(&lex(p)).fields);
    let area = area_of(rel);
    let mut findings: Vec<Finding> = Vec::new();
    let mut allows: Vec<Allow> = Vec::new();

    parse_allows(rel, &lexed, &mut allows, &mut findings);

    let mut raw: Vec<Finding> = Vec::new();
    if applies_wall_clock(&area) {
        rule_wall_clock(rel, &lexed, &mut raw);
    }
    rule_os_random(rel, &lexed, &mut raw);
    rule_unsafe(rel, &lexed, &mut raw);
    if applies_std_hashmap(&area) {
        rule_std_hashmap(rel, &lexed, &mut raw);
    }
    if applies_map_order(&area) {
        rule_map_order(rel, &lexed, parent_fields, &mut raw);
    }

    // Suppression: an allow for the same rule bound to the finding's line.
    for f in raw {
        let suppressed = allows.iter().any(|a| {
            if a.rule == f.rule && a.applies_to == f.line {
                a.used.set(true);
                true
            } else {
                false
            }
        });
        if !suppressed {
            findings.push(f);
        }
    }

    for a in &allows {
        if !a.used.get() {
            findings.push(Finding {
                rule: "unused-allow".into(),
                file: rel.into(),
                line: a.at,
                msg: format!(
                    "audit:allow({}) suppresses nothing — the code it excused \
                     changed; remove or move the annotation",
                    a.rule
                ),
            });
        }
    }

    findings.sort_by(|a, b| (a.line, &a.rule).cmp(&(b.line, &b.rule)));
    findings
}

fn applies_wall_clock(area: &Area) -> bool {
    // Only the bench harness may read the host clock (it measures
    // simulator wall speed); everywhere else is simulation code.
    !matches!(area, Area::Crate(c) if c == "bench")
}

fn applies_std_hashmap(area: &Area) -> bool {
    match area {
        Area::Crate(c) => c != "bench" && c != "audit",
        Area::Facade => true,
        _ => false,
    }
}

fn applies_map_order(area: &Area) -> bool {
    matches!(area, Area::Crate(c) if EVENT_CRATES.contains(&c.as_str()))
}

fn parse_allows(rel: &str, lexed: &Lexed, allows: &mut Vec<Allow>, findings: &mut Vec<Finding>) {
    for c in &lexed.comments {
        for (off, text) in c.text.lines().enumerate() {
            // An annotation line *begins* with `audit:allow` (after the
            // doc-comment `!`/`/` markers). Prose that merely mentions
            // the syntax always shows it behind `//` or backticks, so it
            // cannot collide.
            let trimmed = text
                .trim_start()
                .trim_start_matches(['!', '/'])
                .trim_start();
            if trimmed.starts_with("audit:allow") {
                parse_allow_line(
                    rel,
                    lexed,
                    c,
                    c.line + off as u32,
                    trimmed,
                    allows,
                    findings,
                );
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn parse_allow_line(
    rel: &str,
    lexed: &Lexed,
    c: &crate::lexer::Comment,
    line: u32,
    text: &str,
    allows: &mut Vec<Allow>,
    findings: &mut Vec<Finding>,
) {
    let after = &text["audit:allow".len()..];
    let mut malformed = |msg: String| {
        findings.push(Finding {
            rule: "malformed-allow".into(),
            file: rel.into(),
            line,
            msg,
        });
    };
    let Some(open) = after.find('(') else {
        malformed("expected `audit:allow(<rule>): <reason>`".into());
        return;
    };
    let Some(close) = after.find(')') else {
        malformed("unclosed `audit:allow(`".into());
        return;
    };
    let rule = after[open + 1..close].trim().to_string();
    if !RULES.contains(&rule.as_str()) {
        malformed(format!(
            "unknown rule '{rule}' (valid: {})",
            RULES.join(", ")
        ));
        return;
    }
    let rest = &after[close + 1..];
    let reason = rest.strip_prefix(':').map(str::trim).unwrap_or("");
    if !rest.trim_start().starts_with(':') || reason.is_empty() {
        malformed(format!(
            "audit:allow({rule}) needs a reason: `audit:allow({rule}): <why>`"
        ));
        return;
    }
    // End-of-line annotation binds to its own line; a standalone comment
    // binds to the next line holding code after the comment ends.
    let applies_to = if lexed.has_code_on(c.line) {
        c.line
    } else {
        match lexed.next_code_line(c.end_line) {
            Some(l) => l,
            None => {
                malformed(format!(
                    "audit:allow({rule}) trails the file — nothing follows for it to excuse"
                ));
                return;
            }
        }
    };
    allows.push(Allow {
        rule,
        applies_to,
        at: line,
        used: std::cell::Cell::new(false),
    });
}

fn ident_at(lexed: &Lexed, i: usize) -> Option<&str> {
    match lexed.tokens.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn punct_at(lexed: &Lexed, i: usize, c: char) -> bool {
    matches!(lexed.tokens.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
}

fn pathsep_at(lexed: &Lexed, i: usize) -> bool {
    matches!(lexed.tokens.get(i).map(|t| &t.tok), Some(Tok::PathSep))
}

// ---------------------------------------------------------------- rules

fn rule_wall_clock(rel: &str, lexed: &Lexed, out: &mut Vec<Finding>) {
    for (i, t) in lexed.tokens.iter().enumerate() {
        if let Tok::Ident(s) = &t.tok {
            if s == "Instant" || s == "SystemTime" {
                let _ = i;
                out.push(Finding {
                    rule: "wall-clock".into(),
                    file: rel.into(),
                    line: t.line,
                    msg: format!(
                        "`{s}` reads the host clock; simulation code must use \
                         `SimTime`/`SimDuration` (wall-clock is bench-only)"
                    ),
                });
            }
        }
    }
}

fn rule_os_random(rel: &str, lexed: &Lexed, out: &mut Vec<Finding>) {
    const BANNED: [&str; 7] = [
        "thread_rng",
        "ThreadRng",
        "RandomState",
        "OsRng",
        "StdRng",
        "SmallRng",
        "getrandom",
    ];
    for (i, t) in lexed.tokens.iter().enumerate() {
        if let Tok::Ident(s) = &t.tok {
            let banned = BANNED.contains(&s.as_str()) || (s == "rand" && pathsep_at(lexed, i + 1));
            if banned {
                out.push(Finding {
                    rule: "os-random".into(),
                    file: rel.into(),
                    line: t.line,
                    msg: format!(
                        "`{s}` draws OS/ambient randomness; use the in-tree \
                         seeded `des::Xoshiro256` only"
                    ),
                });
            }
        }
    }
}

fn rule_unsafe(rel: &str, lexed: &Lexed, out: &mut Vec<Finding>) {
    for (i, t) in lexed.tokens.iter().enumerate() {
        if matches!(&t.tok, Tok::Ident(s) if s == "unsafe") {
            let what = match ident_at(lexed, i + 1) {
                Some(kw @ ("fn" | "impl" | "trait" | "extern")) => kw,
                _ if punct_at(lexed, i + 1, '{') => "block",
                _ => "use",
            };
            out.push(Finding {
                rule: "unsafe".into(),
                file: rel.into(),
                line: t.line,
                msg: format!(
                    "`unsafe` {what}: every unsafe site carries \
                     `audit:allow(unsafe): <why this is sound>`"
                ),
            });
        }
    }
}

fn rule_std_hashmap(rel: &str, lexed: &Lexed, out: &mut Vec<Finding>) {
    let toks = &lexed.tokens;
    let mut i = 0;
    while i < toks.len() {
        // `use` statements importing std::collections::{HashMap, HashSet}.
        if ident_at(lexed, i) == Some("use") {
            let mut j = i + 1;
            let (mut has_std, mut has_coll) = (false, false);
            let mut offender: Option<(u32, &str)> = None;
            while j < toks.len() && !punct_at(lexed, j, ';') {
                match ident_at(lexed, j) {
                    Some("std") => has_std = true,
                    Some("collections") => has_coll = true,
                    Some(s @ ("HashMap" | "HashSet")) if offender.is_none() => {
                        offender = Some((toks[j].line, s));
                    }
                    _ => {}
                }
                j += 1;
            }
            if let (true, true, Some((line, name))) = (has_std, has_coll, offender) {
                out.push(Finding {
                    rule: "std-hashmap".into(),
                    file: rel.into(),
                    line,
                    msg: format!(
                        "`std::collections::{name}` imported in a sim crate; \
                         use the fixed-seed `des::fxmap` aliases"
                    ),
                });
            }
            i = j;
            continue;
        }
        // Direct construction: HashMap::new() etc.
        if let Some(s @ ("HashMap" | "HashSet")) = ident_at(lexed, i) {
            if pathsep_at(lexed, i + 1) {
                if let Some(m @ ("new" | "with_capacity" | "default" | "from" | "from_iter")) =
                    ident_at(lexed, i + 2)
                {
                    out.push(Finding {
                        rule: "std-hashmap".into(),
                        file: rel.into(),
                        line: toks[i].line,
                        msg: format!(
                            "`{s}::{m}` constructs a SipHash-seeded std map; \
                             use `Fx{s}::default()` from `des::fxmap`"
                        ),
                    });
                }
            }
        }
        i += 1;
    }
}

/// Identifiers a file declares with a hash-map/set type: struct fields
/// (matched as `self.<field>`) and `let`/`fn`-parameter bindings
/// (matched bare). Heuristic by design — a token scanner has no type
/// inference — but tight enough that every hit is a real map and misses
/// are limited to maps smuggled through untyped closures.
#[derive(Debug, Default)]
struct MapIdents {
    fields: Vec<String>,
    locals: Vec<String>,
}

fn is_map_type_path(lexed: &Lexed, mut j: usize) -> bool {
    // Skip `&`, `mut` and leading path segments; `true` iff the last
    // segment before `<` / a delimiter is a known map type.
    while punct_at(lexed, j, '&') || ident_at(lexed, j) == Some("mut") {
        j += 1;
    }
    let mut last: Option<&str> = None;
    loop {
        match lexed.tokens.get(j).map(|t| &t.tok) {
            Some(Tok::Ident(s)) => {
                last = Some(s.as_str());
                j += 1;
            }
            Some(Tok::PathSep) => j += 1,
            Some(Tok::Punct('<'))
            | Some(Tok::Punct(','))
            | Some(Tok::Punct(')'))
            | Some(Tok::Punct('}'))
            | Some(Tok::Punct(';'))
            | Some(Tok::Punct('=')) => break,
            _ => break,
        }
    }
    last.map(|s| MAP_TYPES.contains(&s)).unwrap_or(false)
}

fn collect_map_idents(lexed: &Lexed) -> MapIdents {
    let toks = &lexed.tokens;
    let mut out = MapIdents::default();
    let mut depth: i32 = 0;
    // Brace depth at which each active struct body's fields live.
    let mut struct_bodies: Vec<i32> = Vec::new();
    let mut pending_struct = false;
    let mut i = 0;
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Punct('{') => {
                depth += 1;
                if pending_struct {
                    struct_bodies.push(depth);
                    pending_struct = false;
                }
            }
            Tok::Punct('}') => {
                if struct_bodies.last() == Some(&depth) {
                    struct_bodies.pop();
                }
                depth -= 1;
            }
            Tok::Punct(';') | Tok::Punct('(') if pending_struct => {
                // Tuple struct / unit struct: no named fields.
                pending_struct = false;
            }
            Tok::Ident(s) if s == "struct" => pending_struct = true,
            Tok::Ident(s) if s == "let" => {
                let mut j = i + 1;
                if ident_at(lexed, j) == Some("mut") {
                    j += 1;
                }
                if let Some(name) = ident_at(lexed, j) {
                    let name = name.to_string();
                    let is_map = if punct_at(lexed, j + 1, ':') {
                        is_map_type_path(lexed, j + 2)
                    } else if punct_at(lexed, j + 1, '=') {
                        // `let m = FxHashMap::default()` — first path
                        // segment names the type.
                        ident_at(lexed, j + 2)
                            .map(|s| MAP_TYPES.contains(&s))
                            .unwrap_or(false)
                    } else {
                        false
                    };
                    if is_map {
                        out.locals.push(name);
                    }
                }
            }
            Tok::Ident(s) if s == "fn" => {
                // Parameters: `name: MapType<...>` inside the signature.
                let mut j = i + 1;
                while j < toks.len() && !punct_at(lexed, j, '(') && !punct_at(lexed, j, '{') {
                    j += 1;
                }
                if punct_at(lexed, j, '(') {
                    let mut pdepth = 1;
                    let mut k = j + 1;
                    while k < toks.len() && pdepth > 0 {
                        if punct_at(lexed, k, '(') {
                            pdepth += 1;
                        } else if punct_at(lexed, k, ')') {
                            pdepth -= 1;
                        } else if pdepth == 1 && punct_at(lexed, k + 1, ':') {
                            if let Some(name) = ident_at(lexed, k) {
                                if is_map_type_path(lexed, k + 2) {
                                    out.locals.push(name.to_string());
                                }
                            }
                        }
                        k += 1;
                    }
                }
            }
            // Struct field `name: MapType<...>` at field depth.
            Tok::Ident(name)
                if struct_bodies.last() == Some(&depth)
                    && punct_at(lexed, i + 1, ':')
                    && is_map_type_path(lexed, i + 2) =>
            {
                out.fields.push(name.clone());
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// `true` if the expression starting at token `recv` is a for-loop's
/// iterator (`for x in <recv…>`): look back past `&`/`mut` for `in`.
fn in_for_header(lexed: &Lexed, recv: usize) -> bool {
    let mut j = recv;
    while j > 0 {
        j -= 1;
        match &lexed.tokens[j].tok {
            Tok::Punct('&') => continue,
            Tok::Ident(s) if s == "mut" => continue,
            Tok::Ident(s) if s == "in" => return true,
            _ => return false,
        }
    }
    false
}

/// Scan forward from the iteration call for evidence the result is made
/// order-independent: an order-free sink in the same chain, or a sort
/// within the next two statements (the collect-then-sort idiom). The
/// window deliberately spans two `;` so
/// `let v: Vec<_> = m.keys().collect(); v.sort_unstable();` passes.
fn sorted_or_order_free(lexed: &Lexed, from: usize) -> bool {
    let mut semis = 0;
    for t in lexed.tokens.iter().skip(from).take(200) {
        match &t.tok {
            Tok::Punct(';') => {
                semis += 1;
                if semis >= 2 {
                    return false;
                }
            }
            Tok::Ident(s)
                if s.starts_with("sort")
                    || ORDER_FREE_SINKS.contains(&s.as_str())
                    || s == "BTreeMap"
                    || s == "BTreeSet"
                    || s == "BinaryHeap" =>
            {
                return true;
            }
            _ => {}
        }
    }
    false
}

fn push_map_order(rel: &str, line: u32, recv: &str, how: &str, out: &mut Vec<Finding>) {
    out.push(Finding {
        rule: "map-order".into(),
        file: rel.into(),
        line,
        msg: format!(
            "{how} over hash map `{recv}` exposes insertion-history-dependent \
             order to event scheduling; sort (collect-then-sort) or annotate \
             `audit:allow(map-order): <reason>`"
        ),
    });
}

fn rule_map_order(rel: &str, lexed: &Lexed, parent_fields: Vec<String>, out: &mut Vec<Finding>) {
    let mut maps = collect_map_idents(lexed);
    maps.fields.extend(parent_fields);
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        // Method form: `<recv>.iter()` / `self.<field>.values_mut()` …
        if let Some(m) = ident_at(lexed, i) {
            if ITER_METHODS.contains(&m)
                && i >= 2
                && punct_at(lexed, i - 1, '.')
                && punct_at(lexed, i + 1, '(')
            {
                let (recv_idx, recv, is_map) = match ident_at(lexed, i - 2) {
                    Some(field)
                        if i >= 4
                            && punct_at(lexed, i - 3, '.')
                            && ident_at(lexed, i - 4) == Some("self") =>
                    {
                        (i - 4, field, maps.fields.iter().any(|f| f == field))
                    }
                    Some(local) => (i - 2, local, maps.locals.iter().any(|l| l == local)),
                    None => continue,
                };
                if !is_map {
                    continue;
                }
                // A for-loop body is unbounded: no forward window, the
                // loop must be sorted beforehand or annotated.
                let ok = !in_for_header(lexed, recv_idx) && sorted_or_order_free(lexed, i + 2);
                if !ok {
                    push_map_order(rel, toks[i].line, recv, &format!("`.{m}()`"), out);
                }
            }
        }
        // Sugared form: `for x in &map {` / `for x in &mut self.map {`.
        if ident_at(lexed, i) == Some("for") {
            let mut j = i + 1;
            while j < toks.len() && ident_at(lexed, j) != Some("in") {
                if punct_at(lexed, j, '{') || punct_at(lexed, j, ';') {
                    j = toks.len();
                }
                j += 1;
            }
            if j >= toks.len() {
                continue;
            }
            let mut k = j + 1;
            while punct_at(lexed, k, '&') || ident_at(lexed, k) == Some("mut") {
                k += 1;
            }
            let (recv, is_map, end) = match ident_at(lexed, k) {
                Some("self") if punct_at(lexed, k + 1, '.') => match ident_at(lexed, k + 2) {
                    Some(field) => (field, maps.fields.iter().any(|f| f == field), k + 3),
                    None => continue,
                },
                Some(local) => (local, maps.locals.iter().any(|l| l == local), k + 1),
                None => continue,
            };
            // Only the bare `for x in &map {` form: anything else after
            // the receiver (a method call, an index) is the method form's
            // job or not a map walk at all.
            if is_map && punct_at(lexed, end, '{') {
                push_map_order(rel, toks[k].line, recv, "`for … in`", out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIM: &str = "crates/dfs/src/fake.rs";

    fn rules_of(findings: &[Finding]) -> Vec<&str> {
        findings.iter().map(|f| f.rule.as_str()).collect()
    }

    #[test]
    fn wall_clock_flagged_outside_bench_only() {
        let src = "fn f() { let t = std::time::Instant::now(); }";
        assert_eq!(rules_of(&check_file(SIM, src)), ["wall-clock"]);
        assert!(check_file("crates/bench/src/bin/x.rs", src).is_empty());
    }

    #[test]
    fn wall_clock_inside_raw_string_is_invisible() {
        let src = "fn f() { let s = r#\"Instant::now()\"#; }";
        assert!(check_file(SIM, src).is_empty());
    }

    #[test]
    fn os_random_flagged_everywhere() {
        let src = "fn f() { let r = rand::thread_rng(); }";
        let found = check_file("crates/bench/src/lib2.rs", src);
        assert!(found.iter().all(|f| f.rule == "os-random"));
        assert_eq!(found.len(), 2); // `rand::` and `thread_rng`
    }

    #[test]
    fn unsafe_block_fn_and_impl_flagged_everywhere() {
        let src = "fn f() { unsafe { g() } }\n\
                   unsafe fn h() {}\n\
                   unsafe impl Send for S {}\n\
                   #[allow(unsafe_code)] fn k() {} // unsafe in a comment";
        for rel in [SIM, "crates/bench/src/x.rs", "tests/t.rs"] {
            let found = check_file(rel, src);
            assert_eq!(rules_of(&found), ["unsafe", "unsafe", "unsafe"]);
            assert_eq!(found.iter().map(|f| f.line).collect::<Vec<_>>(), [1, 2, 3]);
        }
    }

    #[test]
    fn annotated_unsafe_passes() {
        let src = "fn f() {\n\
                   // audit:allow(unsafe): fixture — g's precondition checked above\n\
                   unsafe { g() }\n\
                   }";
        assert!(check_file(SIM, src).is_empty());
    }

    #[test]
    fn unsafe_allow_left_behind_is_unused() {
        let src = "fn f() {\n\
                   // audit:allow(unsafe): fixture — g's precondition checked above\n\
                   g()\n\
                   }";
        let found = check_file(SIM, src);
        assert_eq!(rules_of(&found), ["unused-allow"]);
        assert_eq!(found[0].line, 2);
    }

    #[test]
    fn std_hashmap_import_and_construction() {
        let src = "use std::collections::HashMap;\nfn f() { let m = HashMap::new(); }";
        let found = check_file(SIM, src);
        assert_eq!(rules_of(&found), ["std-hashmap", "std-hashmap"]);
        assert_eq!((found[0].line, found[1].line), (1, 2));
        // Not a sim crate: tests/examples may use std maps freely.
        assert!(check_file("tests/t.rs", src).is_empty());
        // BTree imports are deterministic and exempt.
        let ok = "use std::collections::{BTreeMap, BinaryHeap};";
        assert!(check_file(SIM, ok).is_empty());
    }

    #[test]
    fn map_order_local_flagged_and_sorted_passes() {
        let bad = "fn f() { let m: FxHashMap<u32, u32> = FxHashMap::default();\n\
                   for v in m.values() { emit(v); } }";
        assert_eq!(rules_of(&check_file(SIM, bad)), ["map-order"]);

        let sorted = "fn f(m: &FxHashMap<u32, u32>) {\n\
                      let mut v: Vec<u32> = m.keys().copied().collect();\n\
                      v.sort_unstable();\n\
                      for k in v { emit(k); } }";
        assert!(check_file(SIM, sorted).is_empty());

        let counted = "fn f(m: &FxHashMap<u32, u32>) -> usize { m.values().count() }";
        assert!(check_file(SIM, counted).is_empty());
    }

    #[test]
    fn map_order_field_via_self_and_for_sugar() {
        let src = "struct S { tbl: FxHashMap<u32, u32>, v: Vec<u32> }\n\
                   impl S { fn f(&self) {\n\
                   for x in &self.tbl { emit(x); }\n\
                   for x in &self.v { emit(x); } } }";
        let found = check_file(SIM, src);
        assert_eq!(rules_of(&found), ["map-order"]);
        assert_eq!(found[0].line, 3);
    }

    #[test]
    fn map_order_sees_parent_module_fields() {
        let parent = "struct S { tbl: FxHashMap<u32, u32> }";
        let child = "impl S { fn f(&self) { for x in self.tbl.values() { emit(x); } } }";
        assert!(check_file(SIM, child).is_empty());
        let found = check_file_in(SIM, child, Some(parent));
        assert_eq!(rules_of(&found), ["map-order"]);
    }

    #[test]
    fn map_order_scoped_to_event_crates() {
        let src = "fn f(m: &FxHashMap<u32, u32>) { for v in m.values() { emit(v); } }";
        assert_eq!(rules_of(&check_file(SIM, src)), ["map-order"]);
        assert!(check_file("crates/kernels/src/fake.rs", src).is_empty());
    }

    #[test]
    fn allow_on_preceding_line_suppresses_and_is_consumed() {
        let src = "fn f(m: &FxHashMap<u32, u32>) {\n\
                   // audit:allow(map-order): fixture — commutative fold\n\
                   for v in m.values() { acc(v); } }";
        assert!(check_file(SIM, src).is_empty());
    }

    #[test]
    fn allow_at_end_of_line_suppresses() {
        let src = "fn f(m: &FxHashMap<u32, u32>) {\n\
                   for v in m.values() { acc(v); } // audit:allow(map-order): fixture — commutative\n\
                   }";
        assert!(check_file(SIM, src).is_empty());
    }

    #[test]
    fn unused_allow_is_an_error() {
        let src = "// audit:allow(wall-clock): nothing here uses the clock\nfn f() {}";
        let found = check_file(SIM, src);
        assert_eq!(rules_of(&found), ["unused-allow"]);
        assert_eq!(found[0].line, 1);
    }

    #[test]
    fn allow_without_reason_is_malformed() {
        let src = "fn f() { let t = Instant::now(); // audit:allow(wall-clock)\n}";
        let found = check_file(SIM, src);
        let rules = rules_of(&found);
        // The malformed allow does not suppress: both diagnostics fire.
        assert!(rules.contains(&"malformed-allow"));
        assert!(rules.contains(&"wall-clock"));
    }

    #[test]
    fn allow_with_unknown_rule_is_malformed() {
        let src = "// audit:allow(map-ordering): typo in the rule name\nfn f() {}";
        assert_eq!(rules_of(&check_file(SIM, src)), ["malformed-allow"]);
    }

    #[test]
    fn allow_hidden_in_nested_block_comment_still_parses() {
        // Block comments are captured too; the annotation binds to the
        // next code line after the comment ends.
        let src = "/* rationale /* nested */\n audit:allow(wall-clock): fixture reason */\n\
                   let t = Instant::now();";
        assert!(check_file(SIM, src).is_empty());
    }

    #[test]
    fn self_named_local_does_not_shadow_field_rule() {
        // A Vec local named like a map field: bare iteration is not
        // flagged (fields only match through `self.`).
        let src = "struct S { fetches: FxHashMap<u64, u32> }\n\
                   impl S { fn f(&self, fetches: Vec<u32>) {\n\
                   for x in &fetches { emit(x); } } }";
        let found = check_file(SIM, src);
        // The param `fetches: Vec<u32>` is not a map; nothing fires.
        assert!(found.is_empty(), "{found:?}");
    }
}
