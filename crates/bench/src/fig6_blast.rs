//! Fig. 6: MPI-BLAST execution time vs number of processors on the
//! DAS-2, OSC P4, and TG-NCSA clusters — synchronous vs asynchronous I/O
//! plus the maximum-speedup bound.
//!
//! Paper reference points: async improves average execution time by 20 %
//! (DAS-2), 26 % (OSC), 22 % (TG-NCSA); 92–97 % of the maximum expected
//! speedup is achieved.

use semplar_clusters::all_clusters;
use semplar_workloads::{run_blast, BlastParams};

use crate::table::{pct, secs, Table};
use crate::{sums, with_testbed};

pub(crate) fn run(quick: bool) {
    let (procs, queries): (&'static [usize], usize) = if quick {
        (&[2, 4, 8], 120)
    } else {
        (&[2, 3, 4, 6, 8, 10, 13], 2425)
    };

    for spec in all_clusters() {
        let name = spec.name;
        let max_procs = procs.iter().copied().max().unwrap_or(2);
        // Per row: (procs, sync s, async s, max-speedup s). Paper §7.1: the
        // expected time under complete overlap is the larger of the
        // measured compute and I/O phases (plus the part of the run that
        // cannot overlap, which is negligible here as in the paper).
        let (rows, _) = with_testbed(spec, max_procs, move |tb| {
            procs
                .iter()
                .map(|&n| {
                    let base = BlastParams::calibrated(&tb.spec, queries, 4.0);
                    let sync = run_blast(&tb, n, base.with_async(false));
                    let asy = run_blast(&tb, n, base.with_async(true));
                    let expected = sync.compute_secs.max(sync.io_secs);
                    (n, sync.exec_secs, asy.exec_secs, expected)
                })
                .collect::<Vec<_>>()
        });
        // Fraction of the maximum possible speedup achieved (paper: 92–97 %).
        let overlap = |&(_, sync, asy, max): &(usize, f64, f64, f64)| (sync / asy) / (sync / max);
        let mut t = Table::new(
            &format!("Fig. 6 ({name}): MPI-BLAST execution time"),
            &[
                "procs",
                "sync (s)",
                "async (s)",
                "max-speedup (s)",
                "gain",
                "overlap",
            ],
        );
        for r @ &(n, sync, asy, max) in &rows {
            t.row(vec![
                n.to_string(),
                secs(sync),
                secs(asy),
                secs(max),
                pct(1.0 - asy / sync),
                format!("{:.0}%", overlap(r) * 100.0),
            ]);
        }
        t.print();
        let (sync_sum, async_sum) = sums(rows.iter().map(|r| (r.1, r.2)));
        let mean_overlap = rows.iter().map(overlap).sum::<f64>() / rows.len() as f64;
        let paper = match name {
            "das2" => "paper: sync +20% slower, 92% overlap",
            "osc" => "paper: sync +26% slower, 97% overlap",
            _ => "paper: sync +22% slower, 96% overlap",
        };
        println!(
            "{name}: sync slower by {} on average | overlap {:.0}% of max speedup   ({paper})",
            pct(sync_sum / async_sum - 1.0),
            mean_overlap * 100.0
        );
    }
}
