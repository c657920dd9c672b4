//! The bench harness behind the two binaries: `figures` regenerates the
//! paper's series, `perf` runs the wall-clock and robustness sections
//! ([`perf::SECTIONS`]) and writes `BENCH_perf.json` / `BENCH_sched.json`.
//!
//! A section reports through one [`Json`] tree, so a metric is named once:
//! the tree is what gets printed ([`Json::text`]) and what gets written
//! ([`Json::pretty`]).
#![expect(
    clippy::disallowed_types,
    reason = "the harness measures the simulator's wall speed: host-clock reads are its job, and none feeds a simulation"
)]

pub mod figures;
pub mod perf;

use std::fmt::Write;

/// A JSON value. Objects keep their keys in insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer, written exactly (counters pass 2^53).
    Int(u64),
    /// A float and the number of decimals it is written with; a non-finite
    /// value is written as `null`.
    Float(f64, usize),
    /// A string, escaped on output.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: `(key, value)` pairs in insertion order.
    Obj(Vec<(String, Json)>),
}

/// `x` written with `decimals` digits after the point.
pub fn float(x: f64, decimals: usize) -> Json {
    Json::Float(x, decimals)
}

/// Builds a [`Json::Obj`] from `key => value` pairs; values go through
/// `Json::from`.
#[macro_export]
macro_rules! obj {
    ($($key:expr => $value:expr),* $(,)?) => {
        $crate::Json::Obj(vec![$(($key.to_string(), $crate::Json::from($value))),*])
    };
}

macro_rules! json_from {
    ($($t:ty => |$x:ident| $e:expr),*) => {
        $(impl From<$t> for Json {
            fn from($x: $t) -> Json {
                $e
            }
        })*
    };
}
json_from!(
    bool => |x| Json::Bool(x),
    u64 => |x| Json::Int(x),
    u32 => |x| Json::Int(u64::from(x)),
    usize => |x| Json::Int(x as u64),
    &str => |x| Json::Str(x.to_string()),
    String => |x| Json::Str(x),
    Vec<Json> => |x| Json::Arr(x),
    Option<String> => |x| x.map_or(Json::Null, Json::Str)
);

impl Json {
    /// An object whose keys are computed at run time (one per counter
    /// name, per policy, ...), in the iterator's order.
    pub fn object<K: ToString, V: Into<Json>>(fields: impl IntoIterator<Item = (K, V)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v.into()))
                .collect(),
        )
    }

    /// A scalar's text (a string's is raw, not yet quoted); `None` for an
    /// array or object.
    fn scalar(&self) -> Option<String> {
        Some(match self {
            Json::Null => "null".to_string(),
            Json::Bool(b) => b.to_string(),
            Json::Int(i) => i.to_string(),
            Json::Float(x, _) if !x.is_finite() => "null".to_string(),
            Json::Float(x, decimals) => format!("{x:.decimals$}"),
            Json::Str(s) => s.clone(),
            Json::Arr(_) | Json::Obj(_) => return None,
        })
    }

    /// An array's items or an object's fields; none for a scalar.
    fn children(&self) -> Vec<(Option<&str>, &Json)> {
        match self {
            Json::Arr(items) => items.iter().map(|v| (None, v)).collect(),
            Json::Obj(fields) => fields.iter().map(|(k, v)| (Some(&**k), v)).collect(),
            _ => Vec::new(),
        }
    }

    /// Appends `other`'s fields to this object's.
    ///
    /// # Panics
    /// If either value is not an object.
    pub fn extend(&mut self, other: Json) {
        match (self, other) {
            (Json::Obj(fields), Json::Obj(more)) => fields.extend(more),
            (a, b) => panic!("extend: not two objects: {a:?}, {b:?}"),
        }
    }

    /// JSON text, two-space indented: an array or object holding only
    /// scalars stays on one line, any other puts one child per line.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_json(&self, out: &mut String, indent: usize) {
        if let Some(text) = self.scalar() {
            return match self {
                Json::Str(_) => escape(&text, out),
                _ => out.push_str(&text),
            };
        }
        let (open, close) = match self {
            Json::Arr(_) => ('[', ']'),
            _ => ('{', '}'),
        };
        let children = self.children();
        out.push(open);
        if !children.is_empty() {
            let nested = children.iter().any(|(_, v)| v.scalar().is_none());
            let (first, end) = match nested {
                true => (
                    format!("\n{:1$}", "", indent + 2),
                    format!("\n{:1$}", "", indent),
                ),
                false => (" ".to_string(), " ".to_string()),
            };
            for (i, (key, value)) in children.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&first);
                if let Some(key) = key {
                    escape(key, out);
                    out.push_str(": ");
                }
                value.write_json(out, indent + 2);
            }
            out.push_str(&end);
        }
        out.push(close);
    }

    /// The same tree for a terminal: `key: value`, no quotes, brackets or
    /// commas; scalars share a line, anything deeper is indented under its
    /// key, array items are marked `-`.
    pub fn text(&self) -> String {
        let mut out = String::new();
        self.write_text(&mut out, 0);
        out.trim_start_matches('\n').to_string() + "\n"
    }

    fn write_text(&self, out: &mut String, indent: usize) {
        if let Some(text) = self.scalar() {
            return out.push_str(&text);
        }
        let children = self.children();
        let nested = children.iter().any(|(_, v)| v.scalar().is_none());
        for (i, (key, value)) in children.iter().enumerate() {
            match nested {
                true => write!(out, "\n{:indent$}", "").expect("write to a String"),
                false if i > 0 => out.push_str("  "),
                false => {}
            }
            match key {
                Some(key) => write!(out, "{key}: ").expect("write to a String"),
                None if nested => out.push_str("- "),
                None => {}
            }
            value.write_text(out, indent + 2);
        }
    }
}

/// Appends `s` as a JSON string literal.
fn escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if c < ' ' => write!(out, "\\u{:04x}", c as u32).expect("write to a String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// What a bench binary was asked to do.
#[derive(Debug, PartialEq)]
pub struct Args {
    /// `--quick`: the scaled-down sweep CI runs.
    pub quick: bool,
    /// Per entry of the binary's name table, whether it was asked for
    /// (by name, any number of times, or by `all`).
    pub picked: Vec<bool>,
}

/// Parses a bench binary's arguments against its name table. Anything that
/// is not `--quick`, `all` or a name in `names` is an error, so a typo
/// cannot fall through to a full run.
pub fn parse_args(args: impl IntoIterator<Item = String>, names: &[&str]) -> Result<Args, String> {
    let mut parsed = Args {
        quick: false,
        picked: vec![false; names.len()],
    };
    for arg in args {
        if arg == "--quick" {
            parsed.quick = true;
        } else if arg == "all" {
            parsed.picked.fill(true);
        } else if let Some(i) = names.iter().position(|&n| n == arg) {
            parsed.picked[i] = true;
        } else if arg.starts_with('-') {
            return Err(format!("unknown flag `{arg}`"));
        } else {
            return Err(format!("unknown name `{arg}`"));
        }
    }
    Ok(parsed)
}

/// [`parse_args`] over the process arguments; on an error prints it with
/// the usage line and exits with status 2 before anything has run.
pub fn args_or_exit(bin: &str, names: &[&str]) -> Args {
    parse_args(std::env::args().skip(1), names).unwrap_or_else(|e| {
        eprintln!("{e}\nusage: {bin} [--quick] [{}|all]...", names.join("|"));
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree() -> Json {
        obj! {
            "name" => "a\"b\\c\n\u{1}",
            "big" => u64::MAX,
            "rate" => float(2.0 / 3.0, 2),
            "whole" => float(1_387_249.4, 0),
            "nan" => float(f64::NAN, 1),
            "none" => None::<String>,
            "empty" => Vec::new(),
            "queue" => obj! { "pushes" => 3u32, "ok" => true },
            "runs" => vec![obj! { "n" => 1usize, "tags" => vec![Json::from("x")] }],
        }
    }

    #[test]
    fn pretty_is_pinned() {
        // Escapes (quote, backslash, newline, control), a u64 above 2^53
        // digit for digit, decimals as asked, insertion order, scalar-only
        // containers inline and deeper ones one child per line.
        let want = r#"{
  "name": "a\"b\\c\n\u0001",
  "big": 18446744073709551615,
  "rate": 0.67,
  "whole": 1387249,
  "nan": null,
  "none": null,
  "empty": [],
  "queue": { "pushes": 3, "ok": true },
  "runs": [
    {
      "n": 1,
      "tags": [ "x" ]
    }
  ]
}
"#;
        assert_eq!(tree().pretty(), want);
    }

    #[test]
    fn text_is_pinned() {
        let want = "name: a\"b\\c\n\u{1}\nbig: 18446744073709551615\nrate: 0.67\nwhole: 1387249\n\
                    nan: null\nnone: null\nempty: \nqueue: pushes: 3  ok: true\nruns: \n  - \n    n: 1\n    tags: x\n";
        assert_eq!(tree().text(), want);
    }

    #[test]
    fn name_tables_are_unique_and_all_picks_every_entry() {
        let sections: Vec<&str> = perf::SECTIONS.iter().map(|s| s.0).collect();
        let figures: Vec<&str> = figures::FIGURES.iter().map(|f| f.0).collect();
        for names in [sections, figures] {
            let mut sorted = names.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), names.len(), "a name appears twice: {names:?}");
            assert!(!names.contains(&"all"), "`all` is the parser's keyword");
            let all = parse_args(["all".to_string()], &names).expect("valid");
            assert_eq!(all.picked, vec![true; names.len()]);
        }
    }

    #[test]
    fn args_are_checked_against_the_table() {
        let names = ["des_core", "net_scale", "churn_scale"];
        let parse = |args: &[&str]| parse_args(args.iter().map(|a| a.to_string()), &names);
        let picked = |args: &[&str]| parse(args).expect("valid").picked;
        assert_eq!(picked(&[]), [false; 3]);
        assert!(!parse(&["all"]).expect("valid").quick);
        assert!(parse(&["--quick"]).expect("valid").quick);
        assert_eq!(picked(&["net_scale", "--quick"]), [false, true, false]);
        assert_eq!(
            picked(&["churn_scale", "des_core", "churn_scale"]),
            [true, false, true]
        );
        assert_eq!(picked(&["all"]), [true; 3]);
        assert_eq!(
            parse(&["churn_scale", "--quik"]),
            Err("unknown flag `--quik`".to_string())
        );
        assert_eq!(
            parse(&["net_scal"]),
            Err("unknown name `net_scal`".to_string())
        );
    }
}
