//! Shared helpers for the benchmark harness binaries.

/// Returns `true` when `--quick` was passed: figure binaries then run a
/// scaled-down sweep (useful in CI; the default regenerates the paper's
/// full parameter ranges).
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Renders the engine's event-core counters ([`accelmr_des::QueueStats`])
/// as a one-line JSON object for a bench section, so queue-health
/// regressions (depth blow-ups, lost rearm batching) show up in the
/// `BENCH_perf.json` trajectory.
pub fn queue_stats_json(q: &accelmr_des::QueueStats) -> String {
    format!(
        "{{ \"pushes\": {}, \"peak_depth\": {}, \"cancelled_drops\": {}, \"dead_actor_drops\": {}, \"timer_rearms\": {}, \"timer_slots\": {}, \"rungs_spawned\": {}, \"peak_cur_len\": {} }}",
        q.pushes,
        q.peak_depth,
        q.cancelled_drops,
        q.dead_actor_drops,
        q.timer_rearms,
        q.timer_slots,
        q.rungs_spawned,
        q.peak_cur_len
    )
}

/// Renders per-actor-class dispatch costs ([`accelmr_des::ActorCost`],
/// collected under [`Sim::enable_profiling`](accelmr_des::Sim::enable_profiling))
/// as a JSON array for a bench section. Each row carries the class label,
/// its event count, and the mean host-nanoseconds per event — the number
/// the heartbeat-path scalability bar is pinned against.
pub fn actor_costs_json(costs: &[accelmr_des::ActorCost]) -> String {
    let rows: Vec<String> = costs
        .iter()
        .map(|c| {
            format!(
                "{{ \"class\": \"{}\", \"events\": {}, \"nanos_per_event\": {:.0} }}",
                c.class,
                c.events,
                c.nanos as f64 / c.events.max(1) as f64
            )
        })
        .collect();
    format!("[{}]", rows.join(", "))
}

/// Renders lap rows ([`accelmr_des::Stats::lap_costs`]: an actor's own
/// split of its handler time into named phases) as a JSON object, one
/// key per lap name holding the laps taken and their summed host seconds.
pub fn lap_costs_json(laps: &[accelmr_des::ActorCost]) -> String {
    let rows: Vec<String> = laps
        .iter()
        .map(|c| {
            format!(
                "\"{}\": {{ \"laps\": {}, \"busy_s\": {:.4} }}",
                c.class,
                c.events,
                c.nanos as f64 / 1e9
            )
        })
        .collect();
    format!("{{ {} }}", rows.join(", "))
}

/// Prints a figure's table, prefixed with timing of the harness itself.
pub fn emit(fig: &accelmr_hybrid::experiments::Figure, started: std::time::Instant) {
    print!("{}", fig.to_table());
    eprintln!(
        "[{}] regenerated in {:.1}s wall",
        fig.id,
        started.elapsed().as_secs_f64()
    );
}

/// Rewrites one named section of a multi-bench JSON file, preserving the
/// others — `BENCH_perf.json` holds one top-level object per bench bin
/// (`net_scale`, `churn_scale`), and each bin owns only its section.
///
/// `section_json` must be a JSON object (starts with `{`). The file format
/// is exactly what this function writes: a top-level object whose values
/// are objects; anything unparseable (including the pre-section flat
/// format) is treated as empty and overwritten.
pub fn update_bench_section(path: &str, name: &str, section_json: &str) -> std::io::Result<()> {
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    let mut sections = parse_bench_sections(&existing);
    match sections.iter_mut().find(|(k, _)| k == name) {
        Some((_, body)) => *body = section_json.to_string(),
        None => sections.push((name.to_string(), section_json.to_string())),
    }
    sections.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out = String::from("{\n");
    for (i, (key, body)) in sections.iter().enumerate() {
        let sep = if i + 1 < sections.len() { "," } else { "" };
        out.push_str(&format!("  \"{key}\": {body}{sep}\n"));
    }
    out.push_str("}\n");
    std::fs::write(path, out)
}

/// Extracts `(key, object-body)` pairs from a top-level JSON object whose
/// values are objects. Returns empty on any shape it does not understand —
/// the caller then rebuilds the file from scratch.
fn parse_bench_sections(s: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let bytes = s.as_bytes();
    let mut i = match s.find('{') {
        Some(i) => i + 1,
        None => return out,
    };
    loop {
        // Next key.
        let Some(q1) = s[i..].find('"').map(|p| i + p) else {
            return out;
        };
        let Some(q2) = s[q1 + 1..].find('"').map(|p| q1 + 1 + p) else {
            return Vec::new();
        };
        let key = s[q1 + 1..q2].to_string();
        // Its value must be an object.
        let Some(start) = s[q2 + 1..].find('{').map(|p| q2 + 1 + p) else {
            return Vec::new();
        };
        if s[q2 + 1..start].trim() != ":" {
            return Vec::new();
        }
        // Match braces, skipping string contents.
        let mut depth = 0usize;
        let mut in_str = false;
        let mut escaped = false;
        let mut end = None;
        for (j, &b) in bytes.iter().enumerate().skip(start) {
            if in_str {
                if escaped {
                    escaped = false;
                } else if b == b'\\' {
                    escaped = true;
                } else if b == b'"' {
                    in_str = false;
                }
                continue;
            }
            match b {
                b'"' => in_str = true,
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = Some(j);
                        break;
                    }
                }
                _ => {}
            }
        }
        let Some(end) = end else {
            return Vec::new();
        };
        out.push((key, s[start..=end].to_string()));
        i = end + 1;
        // More sections, or the closing brace?
        match s[i..].trim_start().chars().next() {
            Some(',') => {
                i += s[i..].find(',').expect("comma present") + 1;
            }
            _ => return out,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section_parse_roundtrip_and_merge() {
        let dir = std::env::temp_dir().join("accelmr_bench_json_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH.json");
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);

        update_bench_section(path, "net_scale", "{\n    \"a\": 1\n  }").unwrap();
        update_bench_section(path, "churn_scale", "{\n    \"b\": \"x{y}\"\n  }").unwrap();
        let s = std::fs::read_to_string(path).unwrap();
        assert!(s.contains("\"net_scale\""), "{s}");
        assert!(s.contains("\"churn_scale\""), "{s}");
        // Updating one section preserves the other.
        update_bench_section(path, "net_scale", "{ \"a\": 2 }").unwrap();
        let s = std::fs::read_to_string(path).unwrap();
        assert!(s.contains("\"a\": 2"), "{s}");
        assert!(s.contains("x{y}"), "{s}");
        let sections = parse_bench_sections(&s);
        assert_eq!(sections.len(), 2);
        // A flat legacy file is treated as empty and rebuilt.
        std::fs::write(path, "{ \"bench\": \"net_scale\", \"runs\": [] }").unwrap();
        update_bench_section(path, "net_scale", "{ \"a\": 3 }").unwrap();
        let s = std::fs::read_to_string(path).unwrap();
        assert!(s.contains("\"a\": 3"), "{s}");
        assert!(!s.contains("runs"), "{s}");
    }
}
