//! perf — runs the wall-clock and robustness sections: `perf [--quick]
//! [des_core|net_scale|kernels_host|churn_scale|fault_matrix|
//! sched_ablation|all]...`; no name means all of them.
//!
//! Before any section runs, the host's pace is measured once
//! ([`calibration`]); host-speed bars
//! are stated in that unit. Every section prints its report. A run of all
//! of them also writes `BENCH_perf.json` and `BENCH_sched.json`
//! (`.quick.json` under `--quick`, so a smoke run never overwrites the
//! committed full-scale numbers) in the current directory, whole, each
//! opening with the calibration; a run restricted to named sections writes
//! nothing.

use accelmr_bench::perf::{calibration, SECTIONS};
use accelmr_bench::{float, obj, Json};

fn main() {
    let names: Vec<&str> = SECTIONS.iter().map(|s| s.0).collect();
    let args = accelmr_bench::args_or_exit("perf", &names);
    // None named, or every one.
    let everything = args.picked.iter().all(|&picked| picked == args.picked[0]);

    eprintln!("# calibration ...");
    let calibration = obj! { "calibration" => obj! {
        "workload" => "des_core timer_wheel, 8192 actors x 200 firings, median of 3 runs",
        "events_per_sec" => float(calibration(), 0),
    } };
    print!("{}", calibration.text());
    let mut files: Vec<(&str, Json)> = Vec::new();
    for (&(name, file, run), _) in SECTIONS
        .iter()
        .zip(&args.picked)
        .filter(|(_, &picked)| picked || everything)
    {
        eprintln!("# {name} ...");
        let entries = run(args.quick);
        print!("{}", entries.text());
        match files.iter_mut().find(|(f, _)| *f == file) {
            Some((_, so_far)) => so_far.extend(entries),
            None => files.push((file, entries)),
        }
    }
    if everything {
        for (stem, entries) in files {
            let mut tree = calibration.clone();
            tree.extend(entries);
            let path = format!("{stem}{}.json", if args.quick { ".quick" } else { "" });
            std::fs::write(&path, tree.pretty()).unwrap_or_else(|e| panic!("write {path}: {e}"));
            eprintln!("wrote {path}");
        }
    }
}
