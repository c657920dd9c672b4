//! The accelmr benchmark: four workloads, end-to-end metrics with bounds,
//! and a per-layer ledger from a separate traced run. See `README.md` in
//! this directory for the glossary and `BENCHMARK.json` at the repo root
//! for the machine-readable contract.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! benchmark --all [--seed N] [--seconds S] [--quick] [--out FILE] [--bless]
//! benchmark --repeat-check [--seed N] [--seconds S] [--quick]
//! ```
//!
//! `--workload` measures one workload in this process and prints, as the
//! last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer ones with `--trace 1`. `--all` runs every
//! workload that way, each in its own child process (so `peak_rss_mb` is
//! per workload), one after the other: the simulator is single-threaded
//! and so is the benchmark. Any failed check exits non-zero.

mod json;
mod ledger;
mod probes;
mod stats;
mod timed_kernel;
mod workloads;

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use accelmr_mapred::SchedulerPolicy;

use json::Value;
use ledger::{Better, Ledger, END_TO_END};
use stats::Summary;
use workloads::{Bench, EncryptMapper, Mode as RunMode, Outcome, Workload};

/// Seed of the human-facing runs and of `expected.json`.
const DEFAULT_SEED: u64 = 2009;
/// Measuring time per workload when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 8.0;
/// Fewest trajectories a run pools.
const MIN_TRAJECTORIES: u64 = 3;
/// Set-up-only repetitions after each trajectory. Set-up takes 0.1 to 3 ms
/// of mostly page faults and single samples scatter by 20%, so `setup_s`
/// is the median of ten times as many samples as `wall_s`.
const EXTRA_SETUPS: usize = 9;

/// Simulated statistics pinned at the default seed, full scale.
const EXPECTED: &str = include_str!("../expected.json");
const EXPECTED_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/expected.json");

// ------------------------------------------------------------------ options

#[derive(Clone, Debug, PartialEq)]
enum Mode {
    One(Workload),
    All,
    RepeatCheck,
}

#[derive(Clone, Debug)]
struct Opts {
    mode: Mode,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    bless: bool,
    out: Option<String>,
    /// Set on the children `--all` spawns: the parent printed the header.
    no_header: bool,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        mode: Mode::All,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        quick: false,
        bless: false,
        out: None,
        no_header: false,
    };
    let mut mode = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} needs {what}"))
                .cloned()
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let workload = Workload::from_name(&name).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload '{name}' (one of: {})", names.join(", "))
                })?;
                mode = Some(Mode::One(workload));
            }
            "--all" => mode = Some(Mode::All),
            "--repeat-check" => mode = Some(Mode::RepeatCheck),
            "--seed" => {
                opts.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                opts.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                opts.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
                };
            }
            "--quick" => opts.quick = true,
            "--bless" => opts.bless = true,
            "--out" => opts.out = Some(value("a file")?),
            "--no-header" => opts.no_header = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    opts.mode = mode.ok_or("give --workload NAME, --all or --repeat-check")?;
    if opts.bless && (opts.mode != Mode::All || opts.quick || opts.seed != DEFAULT_SEED) {
        return Err(format!(
            "--bless rewrites expected.json and needs --all at full scale and seed {DEFAULT_SEED}"
        ));
    }
    Ok(opts)
}

// ---------------------------------------------------------------- reporting

/// What one `--workload` run found: the contract's result line plus the
/// simulated statistics an `--all` parent compares against `expected.json`.
struct Report {
    failures: Vec<String>,
    attempted: usize,
    failed: usize,
    /// `(name, value, unit)` in table order.
    metrics: Vec<(&'static str, f64, &'static str)>,
    pins: Value,
}

impl Report {
    fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The contract's result object.
    fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                let entry = Value::Obj(vec![
                    ("value".into(), Value::Num(value)),
                    ("unit".into(), Value::Str(unit.into())),
                ]);
                (name.to_string(), entry)
            })
            .collect();
        Value::Obj(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::Num(self.attempted as f64)),
            ("failed".into(), Value::Num(self.failed as f64)),
            ("metrics".into(), Value::Obj(metrics)),
        ])
        .render()
    }
}

/// The simulated statistics of one trajectory, which must repeat exactly:
/// between the warm-up and timed trajectory 0, between a traced and an
/// untraced run, and (at the default seed) against `expected.json`.
fn pins(out: &Outcome) -> Value {
    let (_, deadline_hits) = out.deadlines();
    // Order-sensitive fold of every job's digest and key/value output.
    let mut outputs = 0u64;
    for r in &out.results {
        for x in [r.digest.0, r.digest.1]
            .into_iter()
            .chain(r.kv.iter().flat_map(|&(k, v)| [k, v]))
        {
            outputs = outputs.rotate_left(7) ^ x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }
    let num = |v: u64| Value::Num(v as f64);
    Value::Obj(vec![
        ("des.events".into(), num(out.events)),
        ("makespan_s".into(), Value::Num(out.makespan_s)),
        ("mapred.tasks".into(), num(out.tasks())),
        ("mapred.attempts".into(), num(out.attempts())),
        (
            "mapred.preemptions".into(),
            num(out.counter("mr.preemptions")),
        ),
        ("mapred.deadline_hits".into(), num(deadline_hits as u64)),
        (
            "dfs.blocks_replicated".into(),
            num(out.counter("dfs.blocks_replicated")),
        ),
        ("net.flows_done".into(), num(out.counter("net.flows_done"))),
        ("net.rpcs".into(), num(out.counter("net.rpcs"))),
        ("outputs".into(), Value::Str(format!("{outputs:016x}"))),
    ])
}

/// Records a failure for every pin on which `got` differs from `want`.
fn compare_pins(failures: &mut Vec<String>, what: &str, want: &Value, got: &Value) {
    for (key, w) in want.members() {
        let g = got.get(key);
        if g != Some(w) {
            failures.push(format!(
                "{what}: {key} is {}, expected {}",
                g.map_or("missing".into(), Value::render),
                w.render()
            ));
        }
    }
}

/// Resets this process's `VmHWM` to its current resident size, so that
/// the next [`peak_rss_mb`] reads the peak of one trajectory, not of the
/// process so far. A kernel that refuses leaves the running maximum,
/// which is still a peak, only a less steady one.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Commit of the checkout the program runs in, read from `.git` by hand
/// (no process is spawned; a checkout without `.git` reads "unknown").
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| reference.to_string()),
        None => head.to_string(),
    };
    if id.is_empty() {
        "unknown".into()
    } else {
        id
    }
}

fn print_header(opts: &Opts) {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let load = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    let load1: f64 = load
        .split_whitespace()
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.0);
    println!(
        "# accelmr benchmark: seed {}, {:.0} s per workload{}, nproc {nproc}, load {}, commit {}",
        opts.seed,
        opts.seconds,
        if opts.quick { ", --quick sizes" } else { "" },
        load.split_whitespace()
            .take(3)
            .collect::<Vec<_>>()
            .join(" "),
        commit()
    );
    if load1 > 0.5 {
        println!("# WARNING: 1-minute load {load1:.2} exceeds 0.5; host times will be noisy");
    }
}

// -------------------------------------------------------- one workload, e2e

/// How many trajectories `--seconds` buys on `workload`.
fn trajectories(opts: &Opts, workload: Workload) -> u64 {
    let n = (opts.seconds / workload.nominal_run_s(opts.quick)).floor() as u64;
    n.max(MIN_TRAJECTORIES)
}

/// One untimed warm-up, then one timed run per trajectory.
///
/// Every timed run simulates a *different* trajectory: the same generated
/// inputs on a cluster seeded differently (trajectory 0 is `--seed`
/// itself). Host cost and simulated outcome both depend on the trajectory
/// (heartbeat phases decide who preempts whom), by more than any bound
/// worth enforcing, so a run pools them: host metrics are lower quartiles
/// over the trajectories, simulated ones are pooled over them. Each deploys its own
/// cluster, and re-deploys it a few more times for `setup_s` samples.
fn run_end_to_end(opts: &Opts, workload: Workload) -> Report {
    let bench = Bench::new(workload, opts.seed, opts.quick);
    let warm_up = bench.run(bench.cluster_seed(0), RunMode::EndToEnd);
    let reference = pins(&warm_up);
    let mut failures = warm_up.failures.clone();

    let runs = trajectories(opts, workload);
    let (mut setup, mut wall, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let (mut jobs, mut jobs_failed, mut tasks, mut attempts) = (0, 0, 0, 0);
    let (mut deadline_jobs, mut deadline_hits) = (0, 0);
    let (mut makespan_sum, mut events) = (0.0, 0);
    for i in 0..runs {
        reset_peak_rss();
        let out = bench.run(bench.cluster_seed(i), RunMode::EndToEnd);
        setup.push(out.setup_s);
        wall.push(out.wall_s);
        rss.push(peak_rss_mb());
        for _ in 0..EXTRA_SETUPS {
            setup.push(bench.run(bench.cluster_seed(i), RunMode::SetupOnly).setup_s);
        }
        jobs += out.results.len();
        jobs_failed += out.jobs_failed();
        tasks += out.tasks();
        attempts += out.attempts();
        let (dj, dh) = out.deadlines();
        deadline_jobs += dj;
        deadline_hits += dh;
        makespan_sum += out.makespan_s;
        events += out.events;
        failures.extend(out.failures.iter().map(|f| {
            format!(
                "trajectory {i} (cluster seed {}): {f}",
                bench.cluster_seed(i)
            )
        }));
        if i == 0 {
            // Trajectory 0 is the warm-up's: it must repeat exactly.
            compare_pins(
                &mut failures,
                "the simulator is not deterministic",
                &reference,
                &pins(&out),
            );
        }
    }
    failures.sort();
    failures.dedup();

    let share = |num: f64, den: f64, when_none: f64| if den == 0.0 { when_none } else { num / den };
    let samples = |v: &[f64]| {
        let shown: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
        shown.join(" ")
    };
    let (wall_samples, rss_samples) = (samples(&wall), samples(&rss));
    let (setup, wall, rss) = (Summary::of(&setup), Summary::of(&wall), Summary::of(&rss));
    let useful = share(tasks as f64, attempts as f64, 1.0);
    let deadline_hit = share(deadline_hits as f64, deadline_jobs as f64, 1.0);
    let makespan_s = makespan_sum / runs as f64;
    // Host metrics report the lower quartile of their samples, not the
    // median. What disturbs them only ever adds: a shared machine slows a
    // run down in episodes of seconds, and allocator retention inflates
    // later trajectories. Measured on eight 20 s runs of pi_heartbeat_1k
    // the lower quartile spread 2.8% between runs where the median spread
    // 5.8% (13% vs 18% on churn_terasort_1k during a noisy hour).
    let value = |name: &str| match name {
        "setup_s" => setup.q1,
        "wall_s" => wall.q1,
        "makespan_s" => makespan_s,
        "peak_rss_mb" => rss.q1,
        "useful_attempt_share" => useful,
        "deadline_hit_share" => deadline_hit,
        other => unreachable!("end-to-end metric '{other}' has no value"),
    };
    let metrics: Vec<_> = END_TO_END
        .iter()
        .map(|m| (m.name, value(m.name), m.unit))
        .collect();

    println!(
        "\n## {} (end to end: {runs} trajectories after 1 warm-up, seed {})",
        workload.name(),
        opts.seed
    );
    println!(
        "{:<24} {:>12} {:>12} {:>12} {:>4}  unit",
        "metric", "median", "q1 (metric)", "q3", "n"
    );
    for (name, s, unit) in [
        ("setup_s", setup, "s"),
        ("wall_s", wall, "s"),
        ("peak_rss_mb", rss, "MiB"),
    ] {
        println!(
            "{name:<24} {:>12.6} {:>12.6} {:>12.6} {:>4}  {unit} (host; IQR/median {:.1}%)",
            s.median,
            s.q1,
            s.q3,
            s.n,
            100.0 * s.spread()
        );
    }
    println!("wall_s samples: {wall_samples}");
    println!("peak_rss_mb samples: {rss_samples}");
    let pooled = [
        ("makespan_s", makespan_s, "s (simulated, mean)"),
        (
            "jobs_failed_share",
            share(jobs_failed as f64, jobs as f64, 0.0),
            "ratio (pooled)",
        ),
        ("useful_attempt_share", useful, "ratio (pooled)"),
        ("wasted_attempt_share", 1.0 - useful, "ratio (pooled)"),
        ("deadline_hit_share", deadline_hit, "ratio (pooled)"),
        ("deadline_miss_share", 1.0 - deadline_hit, "ratio (pooled)"),
    ];
    for (name, v, unit) in pooled {
        println!(
            "{name:<24} {v:>12.6} {:>12} {:>12} {:>4}  {unit}",
            "", "", ""
        );
    }
    println!(
        "{:<24} {:>12.0} {:>12} {:>12} {:>4}  1/s (host; not a metric: see des.events, des.self_ns_per_event)",
        "(events_per_sec)",
        events as f64 / runs as f64 / wall.q1,
        "",
        "",
        ""
    );
    Report {
        failures,
        attempted: jobs + warm_up.results.len(),
        failed: jobs_failed + warm_up.jobs_failed(),
        metrics,
        pins: reference,
    }
}

// ------------------------------------------------------ one workload, traced

/// One untimed warm-up, one untraced reference run, then traced runs
/// worth a third of `--seconds`, all on trajectory 0; control rows and
/// probes ride along. Nothing measured here feeds the end-to-end numbers.
fn run_traced(opts: &Opts, workload: Workload) -> Report {
    let bench = Bench::new(workload, opts.seed, opts.quick);
    let seed = bench.cluster_seed(0);
    let warm_up = bench.run(seed, RunMode::EndToEnd);
    let untraced = bench.run(seed, RunMode::EndToEnd);
    let reference = pins(&untraced);
    let mut failures = warm_up.failures.clone();
    failures.extend(untraced.failures.iter().cloned());
    let mut attempted = warm_up.results.len() + untraced.results.len();
    let mut failed = warm_up.jobs_failed() + untraced.jobs_failed();

    let mut ledgers = Vec::new();
    let mut last = None;
    for _ in 0..(trajectories(opts, workload) / 3).max(1) {
        let out = bench.run(seed, RunMode::Traced);
        attempted += out.results.len();
        failed += out.jobs_failed();
        failures.extend(out.failures.iter().cloned());
        compare_pins(
            &mut failures,
            "tracing changed a simulated statistic",
            &reference,
            &pins(&out),
        );
        ledgers.push(ledger::of_traced_run(&out, untraced.wall_s));
        last = Some(out);
    }
    let traced = last.expect("at least one traced run");
    let runs = ledgers.len();
    let mut ledger = Ledger::median_of(&ledgers);

    // Control rows: same workload, one thing changed.
    let mut controls = Vec::new();
    match workload {
        Workload::EncryptFunctional => {
            // The paper's EmptyMapper subtraction, measured from outside.
            let floor = bench.encrypt(EncryptMapper::Empty, seed, RunMode::Traced);
            ledger.set("mapred.sim_floor_s", floor.makespan_s);
            ledger.set(
                "mapred.sim_kernel_delta_s",
                traced.makespan_s - floor.makespan_s,
            );
            let variant = bench.encrypt(EncryptMapper::CellMr, seed, RunMode::Traced);
            ledger.set("cellmr.variant.wall_s", variant.wall_s);
            ledger.set("cellmr.variant.makespan_s", variant.makespan_s);
            ledger.set(
                "cellmr.variant.kernel_busy_s",
                variant.kernel.as_ref().map_or(0.0, |k| k.host_s()),
            );
            controls.push(("EmptyKernel floor", floor));
            controls.push(("CellMrAesKernel variant", variant));
        }
        Workload::MultiTenantHetero => {
            let fifo = bench.multi_tenant(SchedulerPolicy::Fifo, seed, RunMode::Traced);
            let (jobs, hits) = fifo.deadlines();
            ledger.set(
                "mapred.fifo_control.deadline_miss_share",
                (jobs - hits) as f64 / jobs.max(1) as f64,
            );
            controls.push(("FIFO control", fifo));
        }
        Workload::ChurnTerasort1k | Workload::PiHeartbeat1k => {}
    }
    for (what, out) in &controls {
        attempted += out.results.len();
        failed += out.jobs_failed();
        failures.extend(out.failures.iter().map(|f| format!("{what}: {f}")));
    }
    ledger.merge(&probes::run(opts.seed));
    failures.sort();
    failures.dedup();

    print_traced(workload, runs, &traced, &controls, &ledger);
    let metrics = ledger.iter().collect();
    Report {
        failures,
        attempted,
        failed,
        metrics,
        pins: reference,
    }
}

fn print_traced(
    workload: Workload,
    runs: usize,
    traced: &Outcome,
    controls: &[(&str, Outcome)],
    ledger: &Ledger,
) {
    println!(
        "\n## {} (traced: median of {runs} profiled run(s), wall {:.3} s vs {:.3} s untraced, overhead {:+.1}%)",
        workload.name(),
        ledger.get("bench.traced_wall_s"),
        ledger.get("bench.untraced_wall_s"),
        100.0 * ledger.get("bench.trace_overhead_share"),
    );
    let wall = ledger.get("bench.traced_wall_s");
    println!(
        "{:<24} {:>11} {:>10} {:>7} {:>9}",
        "span", "events", "busy_s", "share", "ns/event"
    );
    let row = |span: &str, events: f64, busy_s: f64| {
        println!(
            "{span:<24} {events:>11.0} {busy_s:>10.4} {:>6.1}% {:>9.0}",
            100.0 * busy_s / wall,
            if events > 0.0 {
                busy_s * 1e9 / events
            } else {
                0.0
            }
        );
    };
    for (_, prefix) in ledger::SPANS {
        row(
            prefix,
            ledger.get(&format!("{prefix}.events")),
            ledger.get(&format!("{prefix}.busy_s")),
        );
    }
    row(
        "  hybrid.kernel (child)",
        ledger.get("hybrid.kernel_calls"),
        ledger.get("hybrid.kernel_busy_s"),
    );
    row("other actors", 0.0, ledger.get("bench.other_actors_busy_s"));
    row(
        "des.self",
        ledger.get("des.events"),
        ledger.get("des.self_s"),
    );
    for c in &traced.actor_costs {
        println!(
            "  actor {:<22} {:>9} events {:>8.0} ns/event",
            c.class,
            c.events,
            c.nanos as f64 / c.events.max(1) as f64
        );
    }
    for (what, out) in controls {
        let (jobs, hits) = out.deadlines();
        println!(
            "control row: {what}: makespan {:.3} s, wall {:.3} s, kernel busy {:.3} s, deadlines {hits}/{jobs}, preemptions {}",
            out.makespan_s,
            out.wall_s,
            out.kernel.as_ref().map_or(0.0, |k| k.host_s()),
            out.counter("mr.preemptions"),
        );
    }
    println!("{:<44} {:>18}  unit", "per-layer metric", "value");
    for (name, value, unit) in ledger.iter() {
        println!("{name:<44} {value:>18.6}  {unit}");
    }
}

fn run_one(opts: &Opts, workload: Workload) -> ExitCode {
    let report = if opts.traced {
        run_traced(opts, workload)
    } else {
        run_end_to_end(opts, workload)
    };
    for failure in &report.failures {
        println!("FAILED: {failure}");
    }
    println!("pins {}", report.pins.render());
    println!("{}", report.result_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ------------------------------------------------------------ every workload

/// What a child process reported.
struct ChildReport {
    ok: bool,
    result: Value,
    pins: Value,
}

/// Re-executes this binary for one workload and waits for it. The child's
/// human-readable lines are passed through; its last two lines (pins and
/// result) are parsed.
fn spawn_child(opts: &Opts, workload: Workload, traced: bool) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--no-header")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if opts.quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("spawn {}: {e}", workload.name()))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let result = lines.pop().unwrap_or_default();
    let pins_line = lines.pop().unwrap_or_default();
    for line in lines {
        println!("{line}");
    }
    let what = format!("{} (trace {})", workload.name(), u8::from(traced));
    let result =
        json::parse(result).map_err(|e| format!("{what}: result line does not parse: {e}"))?;
    let pins = pins_line
        .strip_prefix("pins ")
        .ok_or_else(|| format!("{what}: no pins line"))
        .and_then(|p| json::parse(p).map_err(|e| format!("{what}: pins: {e}")))?;
    Ok(ChildReport {
        ok: output.status.success() && result.get("correct") == Some(&Value::Bool(true)),
        result,
        pins,
    })
}

/// What one pass found for one workload: the two result objects (the
/// traced one is `Null` when the pass skipped it) and trajectory 0's pins.
struct Row {
    workload: Workload,
    end_to_end: Value,
    per_layer: Value,
    pins: Value,
}

/// One pass over every workload: end-to-end child, then traced child.
fn run_all_once(opts: &Opts, with_traced: bool, failures: &mut Vec<String>) -> Vec<Row> {
    let mut rows = Vec::new();
    for workload in Workload::ALL {
        let mut child = |traced: bool| match spawn_child(opts, workload, traced) {
            Ok(report) => {
                if !report.ok {
                    failures.push(format!(
                        "{} (trace {}) reported a failed check",
                        workload.name(),
                        u8::from(traced)
                    ));
                }
                (report.result, report.pins)
            }
            Err(e) => {
                failures.push(e);
                (Value::Null, Value::Null)
            }
        };
        let (end_to_end, pins) = child(false);
        let per_layer = if with_traced {
            child(true).0
        } else {
            Value::Null
        };
        rows.push(Row {
            workload,
            end_to_end,
            per_layer,
            pins,
        });
    }
    rows
}

fn metric_value(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn run_all(opts: &Opts) -> ExitCode {
    let started = Instant::now();
    print_header(opts);
    let mut failures = Vec::new();
    let rows = run_all_once(opts, true, &mut failures);

    // Simulated statistics at the default seed are pinned in
    // expected.json; a host-side optimisation must not move any of them.
    let gated = opts.seed == DEFAULT_SEED && !opts.quick;
    if opts.bless {
        let doc = Value::Obj(
            rows.iter()
                .map(|r| (r.workload.name().to_string(), r.pins.clone()))
                .collect(),
        );
        match std::fs::write(EXPECTED_PATH, doc.render_pretty()) {
            Ok(()) => println!("\nblessed {EXPECTED_PATH}; rebuild to embed it"),
            Err(e) => failures.push(format!("write {EXPECTED_PATH}: {e}")),
        }
    } else if gated {
        match json::parse(EXPECTED) {
            Ok(expected) => {
                for r in &rows {
                    let name = r.workload.name();
                    match expected.get(name) {
                        Some(want) => compare_pins(
                            &mut failures,
                            &format!("{name} vs expected.json"),
                            want,
                            &r.pins,
                        ),
                        None => failures.push(format!("expected.json has no '{name}'")),
                    }
                }
            }
            Err(e) => failures.push(format!("expected.json: {e}")),
        }
    }

    if let Some(path) = &opts.out {
        let doc = Value::Obj(vec![
            ("seed".into(), Value::Num(opts.seed as f64)),
            ("seconds".into(), Value::Num(opts.seconds)),
            ("quick".into(), Value::Bool(opts.quick)),
            ("commit".into(), Value::Str(commit())),
            (
                "workloads".into(),
                Value::Obj(
                    rows.iter()
                        .map(|r| {
                            let row = Value::Obj(vec![
                                ("end_to_end".into(), r.end_to_end.clone()),
                                ("per_layer".into(), r.per_layer.clone()),
                                ("pins".into(), r.pins.clone()),
                            ]);
                            (r.workload.name().to_string(), row)
                        })
                        .collect(),
                ),
            ),
        ]);
        if let Err(e) = std::fs::write(path, doc.render_pretty()) {
            failures.push(format!("write {path}: {e}"));
        }
    }
    finish(started, gated && !opts.bless, failures)
}

/// Runs the end-to-end set twice and fails unless every metric of the
/// second pass agrees with the first within its bound: host metrics by
/// their share (plus `setup_s`'s absolute slack), simulated ones exactly.
fn run_repeat_check(opts: &Opts) -> ExitCode {
    let started = Instant::now();
    print_header(opts);
    let mut failures = Vec::new();
    let first = run_all_once(opts, false, &mut failures);
    let second = run_all_once(opts, false, &mut failures);
    println!("\n## repeat check (second pass against first)");
    println!(
        "{:<22} {:<22} {:>12} {:>12} {:>9} {:>9}",
        "workload", "metric", "first", "second", "change", "allowed"
    );
    for (a, b) in first.iter().zip(&second) {
        let w = a.workload;
        compare_pins(
            &mut failures,
            &format!("{}: passes disagree", w.name()),
            &a.pins,
            &b.pins,
        );
        for m in &END_TO_END {
            let (Some(x), Some(y)) = (
                metric_value(&a.end_to_end, m.name),
                metric_value(&b.end_to_end, m.name),
            ) else {
                failures.push(format!("{}: {} missing from a pass", w.name(), m.name));
                continue;
            };
            let allowed = if m.simulated {
                1e-9 * x.abs()
            } else {
                (m.bound * x.abs()).max(m.slack)
            };
            let worse = match m.better {
                Better::Lower => y - x,
                Better::Higher => x - y,
            };
            println!(
                "{:<22} {:<22} {x:>12.6} {y:>12.6} {:>+8.2}% {:>8.2}%",
                w.name(),
                m.name,
                100.0 * (y - x) / x.abs().max(f64::MIN_POSITIVE),
                100.0 * allowed / x.abs().max(f64::MIN_POSITIVE),
            );
            let out_of_bound = if m.simulated {
                (y - x).abs() > allowed
            } else {
                worse > allowed
            };
            if out_of_bound {
                failures.push(format!(
                    "{}: {} went from {x} to {y}, beyond its bound",
                    w.name(),
                    m.name
                ));
            }
        }
    }
    finish(started, false, failures)
}

fn finish(started: Instant, checked_expected: bool, failures: Vec<String>) -> ExitCode {
    println!(
        "\n# total {:.1} s{}",
        started.elapsed().as_secs_f64(),
        if checked_expected {
            "; simulated statistics match expected.json"
        } else {
            ""
        }
    );
    if failures.is_empty() {
        println!("# all checks passed");
        ExitCode::SUCCESS
    } else {
        for failure in &failures {
            println!("FAILED: {failure}");
        }
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("benchmark: {e}");
            eprintln!(
                "usage: benchmark (--workload NAME | --all | --repeat-check) [--seed N] \
                 [--seconds S] [--trace 0|1] [--quick] [--out FILE] [--bless]"
            );
            return ExitCode::from(2);
        }
    };
    match opts.mode {
        Mode::One(workload) => {
            if !opts.no_header {
                print_header(&opts);
            }
            run_one(&opts, workload)
        }
        Mode::All => run_all(&opts),
        Mode::RepeatCheck => run_repeat_check(&opts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(workload: Workload, traced: bool) -> Opts {
        Opts {
            mode: Mode::One(workload),
            seed: 11,
            seconds: 0.01,
            traced,
            quick: true,
            bless: false,
            out: None,
            no_header: true,
        }
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    /// The contract's result line: parses, has exactly the four keys, and
    /// carries every declared metric under a well-formed name.
    fn check_result_line(report: &Report, declared: &[&str]) {
        let v = json::parse(&report.result_line()).expect("result line parses");
        let keys: Vec<&str> = v.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            v.get("correct"),
            Some(&Value::Bool(true)),
            "{:?}",
            report.failures
        );
        assert!(v.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
        assert_eq!(v.get("failed").and_then(Value::as_f64), Some(0.0));
        let metrics = v.get("metrics").unwrap().members();
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, declared);
        for (name, entry) in metrics {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(
                entry.get("value").and_then(Value::as_f64).is_some(),
                "{name}"
            );
            assert!(matches!(entry.get("unit"), Some(Value::Str(_))), "{name}");
        }
    }

    #[test]
    fn end_to_end_result_line_carries_every_declared_metric() {
        let report = run_end_to_end(
            &opts(Workload::MultiTenantHetero, false),
            Workload::MultiTenantHetero,
        );
        let declared: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        check_result_line(&report, &declared);
    }

    #[test]
    fn traced_result_line_carries_every_declared_metric() {
        let report = run_traced(
            &opts(Workload::MultiTenantHetero, true),
            Workload::MultiTenantHetero,
        );
        let declared: Vec<&str> = ledger::PER_LAYER.iter().map(|&(n, _, _)| n).collect();
        check_result_line(&report, &declared);
    }

    /// Profiling and the kernel wrapper change no simulated statistic:
    /// same events, makespan, attempts and outputs with and without them.
    #[test]
    fn tracing_is_transparent_on_a_multi_job_session() {
        let bench = Bench::new(Workload::MultiTenantHetero, 5, true);
        let (plain, traced) = (
            bench.run(5, RunMode::EndToEnd),
            bench.run(5, RunMode::Traced),
        );
        assert!(plain.failures.is_empty(), "{:?}", plain.failures);
        assert_eq!(pins(&plain), pins(&traced));
        assert!(plain.actor_costs.is_empty() && !traced.actor_costs.is_empty());
        let profiled_events: u64 = traced.actor_costs.iter().map(|c| c.events).sum();
        assert_eq!(profiled_events, traced.events);
    }

    /// `TimedKernel` is transparent on real bytes: the same digest (equal
    /// to the serial reference, or the run would report a failure), the
    /// same makespan and the same event count as the bare kernel.
    #[test]
    fn timed_kernel_is_transparent_on_a_materialized_job() {
        let bench = Bench::new(Workload::EncryptFunctional, 3, true);
        let (plain, traced) = (
            bench.run(5, RunMode::EndToEnd),
            bench.run(5, RunMode::Traced),
        );
        assert!(plain.failures.is_empty(), "{:?}", plain.failures);
        assert!(traced.failures.is_empty(), "{:?}", traced.failures);
        assert_eq!(plain.results[0].digest, traced.results[0].digest);
        assert_eq!(pins(&plain), pins(&traced));
        let tally = traced.kernel.as_ref().expect("traced runs carry a tally");
        assert_eq!(tally.calls(), 8, "16 MiB in 2 MiB records");
        assert_eq!(tally.bytes(), 16 << 20);
        assert!(tally.host_s() > 0.0 && tally.sim_s() > 0.0);
    }

    #[test]
    fn pins_disagreement_is_reported_by_key() {
        let want = json::parse(r#"{"a": 1, "b": "x"}"#).unwrap();
        let got = json::parse(r#"{"a": 2, "b": "x"}"#).unwrap();
        let mut failures = Vec::new();
        compare_pins(&mut failures, "t", &want, &got);
        assert_eq!(failures, ["t: a is 2, expected 1"]);
        compare_pins(&mut failures, "t", &want, &want);
        assert_eq!(failures.len(), 1);
    }

    #[test]
    fn arguments_parse_as_the_contract_passes_them() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse_args(&args(
            "--workload pi_heartbeat_1k --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.mode, Mode::One(Workload::PiHeartbeat1k));
        assert_eq!((o.seed, o.seconds, o.traced), (7, 20.0, true));
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--seed 1")).is_err());
        assert!(parse_args(&args("--all --bless --seed 3")).is_err());
        assert!(parse_args(&args("--all --bless")).unwrap().bless);
    }

    /// `BENCHMARK.json` at the repo root declares exactly the workloads and
    /// metrics this program emits.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<String> {
            let Some(Value::Arr(items)) = doc.get(key) else {
                panic!("BENCHMARK.json has no '{key}' array");
            };
            items
                .iter()
                .map(|i| match i.get("name") {
                    Some(Value::Str(s)) => s.clone(),
                    other => panic!("{key}: bad name {other:?}"),
                })
                .collect()
        };
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names("workloads"), workloads);
        let end_to_end: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names("end_to_end"), end_to_end);
        let per_layer: Vec<&str> = ledger::PER_LAYER.iter().map(|&(n, _, _)| n).collect();
        assert_eq!(names("per_layer"), per_layer);
        let Some(Value::Arr(e2e)) = doc.get("end_to_end") else {
            unreachable!()
        };
        for (entry, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(entry.get("unit"), Some(&Value::Str(m.unit.into())));
            let better = match m.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            assert_eq!(entry.get("better"), Some(&Value::Str(better.into())));
            assert_eq!(entry.get("bound").and_then(Value::as_f64), Some(m.bound));
        }
    }
}
