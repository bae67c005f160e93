//! Fig. 8: ROMIO `perf` aggregate I/O bandwidth with one vs two
//! concurrent TCP streams per node, on DAS-2 (up to 30 processors) and
//! TG-NCSA (up to 10).
//!
//! Paper reference points (averages over the sweep): two streams improve
//! write bandwidth by 43 % and read bandwidth by 96 % on DAS-2; by 24 % and
//! 75 % on TG-NCSA. Each node reads/writes a 32 MB array.
//!
//! Below each table the figure prints the whole sweep's engine counters:
//! the netsim allocator's work, the scheduler's, and the server block
//! cache's (all zeros: the baseline runs uncached). The allocator's wall
//! time is the one nondeterministic number, so it goes to stderr.

use semplar_clusters::{das2, tg_ncsa};
use semplar_workloads::{run_perf, PerfParams};

use crate::table::{mbps, pct, Table};
use crate::{sums, with_testbed};

pub(crate) fn run(quick: bool) {
    let bytes_per_proc: u64 = if quick { 8 << 20 } else { 32 << 20 };
    let das2_procs: &'static [usize] = if quick {
        &[2, 8]
    } else {
        &[1, 2, 4, 8, 12, 16, 20, 25, 30]
    };
    let tg_procs: &'static [usize] = if quick {
        &[2, 6]
    } else {
        &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    };

    for (spec, procs, paper) in [
        (das2(), das2_procs, "paper: write +43%, read +96%"),
        (tg_ncsa(), tg_procs, "paper: write +24%, read +75%"),
    ] {
        let name = spec.name;
        let max_procs = procs.iter().copied().max().unwrap_or(1);
        // Per row: (procs, write 1-stream, read 1-stream, write 2-stream,
        // read 2-stream), Mb/s.
        let ((rows, net, cache), sim) = with_testbed(spec, max_procs, move |tb| {
            let rows: Vec<_> = procs
                .iter()
                .map(|&n| {
                    let perf = |streams| {
                        let p = PerfParams {
                            bytes_per_proc,
                            streams,
                        };
                        run_perf(&tb, n, p)
                    };
                    let (one, two) = (perf(1), perf(2));
                    let (w1, r1) = (one.write_mbps, one.read_mbps);
                    (n, w1, r1, two.write_mbps, two.read_mbps)
                })
                .collect();
            (rows, tb.net.stats(), tb.server.cache_stats())
        });
        let mut t = Table::new(
            &format!("Fig. 8 ({name}): perf aggregate I/O bandwidth (Mb/s)"),
            &[
                "procs",
                "write 1-stream",
                "write 2-stream",
                "read 1-stream",
                "read 2-stream",
            ],
        );
        for &(n, w1, r1, w2, r2) in &rows {
            t.row(vec![n.to_string(), mbps(w1), mbps(w2), mbps(r1), mbps(r2)]);
        }
        t.print();
        let (w1, w2) = sums(rows.iter().map(|r| (r.1, r.3)));
        let (r1, r2) = sums(rows.iter().map(|r| (r.2, r.4)));
        println!(
            "{name}: average two-stream gain — write {}, read {}   ({paper})",
            pct(w2 / w1 - 1.0),
            pct(r2 / r1 - 1.0)
        );
        println!(
            "{name}: netsim allocator — {} recomputes, {:.1} flows touched each, \
             {} settles skipped, {} signals",
            net.recomputes,
            net.flows_touched as f64 / net.recomputes.max(1) as f64,
            net.settles_skipped,
            net.signals,
        );
        eprintln!(
            "{name}: netsim allocator — {:.1} ms total (wall clock)",
            net.alloc_nanos as f64 / 1e6
        );
        println!(
            "{name}: scheduler — {} clock advances, {} timers, {} peak actors, \
             {} choice points / {} alternatives (exploration hook inactive)",
            sim.clock_advances,
            sim.timers_armed,
            sim.max_actors,
            sim.choice_points,
            sim.choice_alternatives,
        );
        println!(
            "{name}: engine — {} thread actors spawned (peak {}), \
             {} event-driven tasks spawned (peak {})",
            sim.actors_spawned, sim.peak_live_actors, sim.tasks_spawned, sim.peak_live_tasks,
        );
        println!(
            "{name}: server block cache — {} hits, {} misses, {} evictions, \
             {} bytes saved (cache disabled in this figure; see fig_cache)",
            cache.hits, cache.misses, cache.evictions, cache.bytes_saved,
        );
    }
}
