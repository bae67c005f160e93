//! # semplar-bench
//!
//! The harness that regenerates every figure of the paper's evaluation
//! (§7) and of this repository's extensions. Each figure is one module
//! holding its experiment driver and its printing side by side, plus one
//! entry in [`FIGURES`]. The `figures` binary runs them by name:
//!
//! ```text
//! figures [--quick] [--only NAME]...
//! ```
//!
//! Every figure runs in virtual time with fixed seeds, so its stdout is
//! deterministic. It is committed as `results/NAME_quick.txt` for the
//! `--quick` size when that file exists, else as `results/NAME.txt`, and
//! CI diffs each one.
//!
//! | Name | Experiment |
//! |------|------------|
//! | `fig6_blast` | Fig. 6: MPI-BLAST execution time, sync vs async vs max-speedup |
//! | `fig7_laplace` | Fig. 7: 2D Laplace execution time, + two TCP streams |
//! | `fig8_perf` | Fig. 8: ROMIO perf aggregate bandwidth, one vs two streams |
//! | `fig9_compress` | Fig. 9: on-the-fly compression aggregate write bandwidth |
//! | `contention` | §7.1: overlap + double-connection bus contention |
//! | `ablations` | sweeps of the design choices behind the three optimizations |
//! | `collective_io` | §9 future work: remote two-phase collective I/O |
//! | `fig_availability` | the `perf` write under a seeded fault plan |
//! | `fig9_compress_faults` | the Fig. 9 pipeline under the same plan |
//! | `fig_workload_faults` | BLAST and Laplace under the same plan |
//! | `fig_cache` | server block cache and client read leases |
//! | `fig_degrade` | round-robin vs adaptive striping over a degraded link |
//! | `fig_federation` | sharded federation, primary crash and reconciliation |
//! | `fig_federation_ha` | quorum promotion vs failover-only recovery |
//! | `fig_mc` | bounded model check of the federation crash scenario |
//! | `fig_scale` | thousands of thread clients, per-open vs shared pool |
//! | `fig_scale_actors` | up to 10⁵ event-driven client sessions |
//! | `fig_strided` | noncontiguous access: per-fragment vs list-I/O vs sieving |
//! | `fig_tenants` | per-tenant p99 goodput, FIFO vs DRR, one abusive tenant |

#![warn(missing_docs)]

use std::sync::Arc;

use semplar_clusters::{ClusterSpec, Testbed};
use semplar_runtime::{SimRuntime, SimStats, Time};

mod ablations;
mod collective_io;
mod contention;
mod fig6_blast;
mod fig7_laplace;
mod fig8_perf;
mod fig9_compress;
mod fig9_compress_faults;
mod fig_availability;
mod fig_cache;
mod fig_degrade;
mod fig_federation;
mod fig_federation_ha;
mod fig_mc;
mod fig_scale;
mod fig_strided;
mod fig_tenants;
mod fig_workload_faults;
mod table;

/// One figure: the stem of its committed `results/` file and the function
/// that runs it and prints its tables to stdout (`true` = `--quick` size).
pub struct Figure {
    /// Registry name, also the `results/` file stem.
    pub name: &'static str,
    /// Runs the experiment and prints it.
    pub run: fn(quick: bool),
}

/// Every figure, in the order `figures` runs them by default.
pub const FIGURES: &[Figure] = &[
    fig("fig6_blast", fig6_blast::run),
    fig("fig7_laplace", fig7_laplace::run),
    fig("fig8_perf", fig8_perf::run),
    fig("fig9_compress", fig9_compress::run),
    fig("contention", contention::run),
    fig("ablations", ablations::run),
    fig("collective_io", collective_io::run),
    fig("fig_availability", fig_availability::run),
    fig("fig9_compress_faults", fig9_compress_faults::run),
    fig("fig_workload_faults", fig_workload_faults::run),
    fig("fig_cache", fig_cache::run),
    fig("fig_degrade", fig_degrade::run),
    fig("fig_federation", fig_federation::run),
    fig("fig_federation_ha", fig_federation_ha::run),
    fig("fig_mc", fig_mc::run),
    fig("fig_scale", fig_scale::run),
    fig("fig_scale_actors", fig_scale::run_actors),
    fig("fig_strided", fig_strided::run),
    fig("fig_tenants", fig_tenants::run),
];

const fn fig(name: &'static str, run: fn(bool)) -> Figure {
    Figure { name, run }
}

/// Run `f` inside a fresh virtual-time simulation with a testbed of
/// `nodes` nodes of `spec`; also returns the simulation's engine counters.
fn with_testbed<T, F>(spec: ClusterSpec, nodes: usize, f: F) -> (T, SimStats)
where
    T: Send + 'static,
    F: FnOnce(Arc<Testbed>) -> T + Send + 'static,
{
    let sim = SimRuntime::new();
    let out = sim.run_root(move |rt| f(Testbed::new(rt, spec, nodes)));
    (out, sim.stats())
}

/// Column sums `(Σ base, Σ improved)` of paired measurements. The paper's
/// averaged statistics are ratios of these: "sync is X % slower on
/// average" is `Σ base / Σ improved − 1`, "cuts execution time by X %" is
/// `1 − Σ improved / Σ base`, "bandwidth is X % more" is
/// `Σ improved / Σ base − 1`.
fn sums(pairs: impl Iterator<Item = (f64, f64)>) -> (f64, f64) {
    pairs.fold((0.0, 0.0), |(b, i), (base, imp)| (b + base, i + imp))
}

/// Print a fault injector's ledger, one event per line in virtual time.
fn print_ledger(header: &str, ledger: &[(Time, String)]) {
    println!("{header}");
    for (at, what) in ledger {
        println!("  [{:9.3} s] {what}", (*at - Time::ZERO).as_secs_f64());
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    use std::path::{Path, PathBuf};

    use super::{Figure, FIGURES};

    fn results_dir() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
    }

    #[test]
    fn registry_names_are_unique() {
        let names: BTreeSet<_> = FIGURES.iter().map(|f| f.name).collect();
        assert_eq!(names.len(), FIGURES.len(), "duplicate figure name");
    }

    #[test]
    fn every_figure_has_a_committed_result() {
        let dir = results_dir();
        for &Figure { name, .. } in FIGURES {
            let quick = dir.join(format!("{name}_quick.txt"));
            let full = dir.join(format!("{name}.txt"));
            assert!(
                quick.exists() || full.exists(),
                "figure {name} has neither results/{name}_quick.txt nor results/{name}.txt"
            );
        }
    }

    #[test]
    fn every_committed_result_has_a_figure() {
        for entry in std::fs::read_dir(results_dir()).expect("results/ dir") {
            let file = entry.unwrap().file_name().into_string().unwrap();
            let Some(stem) = file.strip_suffix(".txt") else {
                continue;
            };
            let name = stem.strip_suffix("_quick").unwrap_or(stem);
            assert!(
                FIGURES.iter().any(|f| f.name == name),
                "results/{file} belongs to no registered figure"
            );
        }
    }
}
