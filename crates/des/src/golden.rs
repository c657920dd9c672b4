//! The golden ledger: exact pins on simulated outcomes, one row per line,
//! `<row> <field>=<value> ...` with integer values, decimal or `0x` hex
//! (blank lines and `#` comments are skipped). [`Ledger::check`] fails with
//! one report: each moved field as `ledger → measured`, then the measured
//! rows as ledger lines. Pasting those lines over the old ones is how a
//! deliberate change of the event stream is re-blessed.

use std::fmt::Write;

/// A row's name and its fields.
pub type Row = (String, Vec<(&'static str, u64)>);

/// A parsed row's fields, each with whether it is written in hex (a
/// replacement line keeps the radix).
type Fields = Vec<(String, u64, bool)>;

/// A parsed ledger: its rows in file order.
#[derive(Debug)]
pub struct Ledger(Vec<(String, Fields)>);

impl Ledger {
    /// Parses `text`; a malformed line or a duplicate row is an error that
    /// names its line number.
    pub fn parse(text: &str) -> Result<Ledger, String> {
        let mut rows: Vec<(String, Fields)> = Vec::new();
        for (at, line) in text.lines().enumerate() {
            let mut words = line.split_whitespace();
            let Some(name) = words.next().filter(|w| !w.starts_with('#')) else {
                continue;
            };
            let bad = |why| Err(format!("ledger line {}: {why}: `{line}`", at + 1));
            let fields: Option<Vec<_>> = words.map(field).collect();
            match fields.filter(|f| !f.is_empty() && !name.contains('=')) {
                None => return bad("expected `<row> <field>=<integer> ...`"),
                Some(_) if rows.iter().any(|(r, _)| r == name) => return bad("duplicate row"),
                Some(fields) => rows.push((name.to_string(), fields)),
            }
        }
        Ok(Ledger(rows))
    }

    /// The names of the rows that start with `prefix`, in file order.
    pub fn rows(&self, prefix: &str) -> Vec<&str> {
        let names = self.0.iter().map(|(name, _)| name.as_str());
        names.filter(|name| name.starts_with(prefix)).collect()
    }

    /// Holds each measured row to the ledger's row of that name, field by
    /// field; panics with the report if any differs or the row is missing.
    pub fn check(&self, measured: &[Row]) {
        let (mut moved, mut lines) = (String::new(), String::new());
        for (name, fields) in measured {
            let Some((_, pinned)) = self.0.iter().find(|r| r.0 == *name) else {
                writeln!(moved, "  {name}: no such row in the ledger").unwrap();
                writeln!(lines, "{name}{}", words(fields, |_| false)).unwrap();
                continue;
            };
            let was = |f: &str| pinned.iter().find(|p| p.0 == f).map(|p| p.1);
            let now = |f: &str| fields.iter().find(|p| p.0 == f).map(|p| p.1);
            let hex = |f: &str| pinned.iter().any(|p| p.0 == f && p.2);
            let show = |f, v: Option<u64>| v.map_or("-".into(), |v| value(v, hex(f)));
            let unpinned = fields.iter().map(|f| f.0).filter(|&f| was(f).is_none());
            let keys = pinned.iter().map(|p| p.0.as_str()).chain(unpinned);
            let keys: Vec<&str> = keys.filter(|&f| was(f) != now(f)).collect();
            for &f in &keys {
                let (before, after) = (show(f, was(f)), show(f, now(f)));
                writeln!(moved, "  {name} {f}: {before} → {after}").unwrap();
            }
            if !keys.is_empty() {
                writeln!(lines, "{name}{}", words(fields, hex)).unwrap();
            }
        }
        assert!(
            moved.is_empty(),
            "golden ledger: moved fields (ledger → measured):\n{moved}# replacement lines:\n{lines}"
        );
    }
}

/// One `<field>=<integer>` word.
fn field(word: &str) -> Option<(String, u64, bool)> {
    let (key, text) = word.split_once('=').filter(|(key, _)| !key.is_empty())?;
    let n = match text.strip_prefix("0x") {
        Some(digits) => u64::from_str_radix(digits, 16),
        None => text.parse(),
    };
    Some((key.to_string(), n.ok()?, text.starts_with("0x")))
}

/// `n` as the ledger writes it.
fn value(n: u64, hex: bool) -> String {
    if hex {
        format!("{n:#018x}")
    } else {
        n.to_string()
    }
}

/// A row's fields as ledger words, ` <field>=<value>` each.
fn words(fields: &[(&str, u64)], hex: impl Fn(&str) -> bool) -> String {
    let word = |&(f, v): &(&str, u64)| format!(" {f}={}", value(v, hex(f)));
    fields.iter().map(word).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The panic message of a failing `check`.
    fn report(ledger: &Ledger, measured: &[Row]) -> String {
        let check = std::panic::AssertUnwindSafe(|| ledger.check(measured));
        let payload = std::panic::catch_unwind(check).expect_err("the check must fail");
        payload
            .downcast_ref::<String>()
            .expect("a formatted message")
            .clone()
    }

    #[test]
    fn a_duplicate_row_is_rejected() {
        let err = Ledger::parse("x n=1\ny n=2\nx n=1\n").unwrap_err();
        assert!(err.starts_with("ledger line 3: duplicate row"), "{err}");
    }

    #[test]
    fn a_malformed_line_is_rejected_by_its_line_number() {
        for (text, at) in [
            ("x n=1\n\n# note\ny n=1.5\n", 4),
            ("x n=1\ny\n", 2),
            ("x n=0xzz\n", 1),
            ("x =4\n", 1),
            ("x=1 n=1\n", 1),
            ("x n=-1\n", 1),
        ] {
            let err = Ledger::parse(text).unwrap_err();
            assert!(
                err.starts_with(&format!("ledger line {at}:")),
                "{text:?}: {err}"
            );
        }
    }

    #[test]
    fn a_row_the_ledger_lacks_fails_naming_the_row() {
        let ledger = Ledger::parse("a n=1\n").unwrap();
        ledger.check(&[("a".into(), vec![("n", 1)])]);
        let msg = report(&ledger, &[("net.c".into(), vec![("n", 1)])]);
        assert!(msg.contains("net.c: no such row in the ledger"), "{msg}");
    }

    #[test]
    fn the_report_lists_each_moved_field_and_lines_that_parse_to_the_measurement() {
        let ledger = Ledger::parse("a fp=0x00000000000000ff events=3 ns=10\nb events=7\n").unwrap();
        let measured: [Row; 3] = [
            (
                "a".into(),
                vec![("fp", u64::MAX), ("events", 4), ("extra", 2)],
            ),
            ("b".into(), vec![("events", 7)]),
            ("c".into(), vec![("calls", 48)]),
        ];
        let msg = report(&ledger, &measured);
        for moved in [
            "a fp: 0x00000000000000ff → 0xffffffffffffffff",
            "a events: 3 → 4",
            "a ns: 10 → -",
            "a extra: - → 2",
            "c: no such row in the ledger",
        ] {
            assert!(msg.contains(moved), "{moved}: {msg}");
        }
        assert!(!msg.contains("\n  b ") && !msg.contains("\nb "), "{msg}");
        // What follows the header is a ledger of the moved and missing rows
        // at exactly their measured values, the hex field still in hex.
        let (_, lines) = msg.split_once("# replacement lines:\n").unwrap();
        let pasted = Ledger::parse(lines).unwrap();
        assert_eq!(pasted.rows(""), ["a", "c"]);
        pasted.check(&[measured[0].clone(), measured[2].clone()]);
        assert!(
            lines.starts_with("a fp=0xffffffffffffffff events=4"),
            "{lines}"
        );
    }
}
