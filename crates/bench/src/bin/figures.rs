//! Regenerate the paper's figures and this repository's extensions.
//!
//! ```text
//! figures [--quick] [--only NAME]...
//! ```
//!
//! Runs each `--only` figure in the order given, or every registered
//! figure when there is none, printing its tables to stdout. `--quick`
//! selects each figure's small sweep. Each figure's wall time and the
//! process's peak resident set so far go to stderr, so stdout stays
//! byte-identical to the committed `results/NAME[_quick].txt`.

use std::process::ExitCode;
use std::time::Instant;

use semplar_bench::{Figure, FIGURES};

fn usage(error: &str) -> ExitCode {
    let names: Vec<_> = FIGURES.iter().map(|f| f.name).collect();
    eprintln!(
        "figures: {error}\nusage: figures [--quick] [--only NAME]...\nfigures: {}",
        names.join(" ")
    );
    ExitCode::from(2)
}

/// The process's peak resident set size (`VmHWM`) in MiB, if
/// `/proc/self/status` can be read. It is a high-water mark: when one
/// process runs several figures it covers every figure so far.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

fn main() -> ExitCode {
    let mut quick = false;
    let mut only: Vec<&Figure> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--only" => {
                let Some(name) = args.next() else {
                    return usage("--only needs a figure name");
                };
                match FIGURES.iter().find(|f| f.name == name) {
                    Some(f) => only.push(f),
                    None => return usage(&format!("unknown figure {name:?}")),
                }
            }
            _ => return usage(&format!("unknown argument {arg:?}")),
        }
    }
    if only.is_empty() {
        only = FIGURES.iter().collect();
    }
    for f in only {
        let t0 = Instant::now();
        (f.run)(quick);
        let took = t0.elapsed().as_secs_f64();
        let peak = peak_rss_mib()
            .map(|mib| format!(", peak RSS {mib:.0} MiB"))
            .unwrap_or_default();
        eprintln!(
            "figures: {}{} took {took:.1} s{peak}",
            f.name,
            if quick { " --quick" } else { "" },
        );
    }
    ExitCode::SUCCESS
}
