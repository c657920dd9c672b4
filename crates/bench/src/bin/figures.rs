//! figures — regenerates the paper's series: `figures [--quick]
//! <fig2|fig4|fig5|fig6|fig7|fig8|terasort|ablations|all>...`. Tables go
//! to stdout, harness timing to stderr.

use accelmr_bench::figures::FIGURES;

fn main() {
    let names: Vec<&str> = FIGURES.iter().map(|f| f.0).collect();
    let args = accelmr_bench::args_or_exit("figures", &names);
    if !args.picked.contains(&true) {
        eprintln!("name a figure: {}, or all", names.join(", "));
        std::process::exit(2);
    }
    for (&(name, run), _) in FIGURES
        .iter()
        .zip(&args.picked)
        .filter(|(_, &picked)| picked)
    {
        let started = std::time::Instant::now();
        run(args.quick);
        eprintln!(
            "[{name}] regenerated in {:.1}s wall",
            started.elapsed().as_secs_f64()
        );
    }
}
