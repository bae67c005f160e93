//! Fig. 7: 2D Laplace solver execution time vs number of processors —
//! synchronous vs asynchronous (overlap) vs the maximum-speedup bound, plus
//! the two-TCP-streams variant.
//!
//! Paper reference points: async improves average execution time by 7 %
//! (DAS-2), 9 % (OSC), 6 % (TG-NCSA) — the 9:1 I/O:compute ratio bounds the
//! gain; two TCP streams cut execution time by 38 % on DAS-2 and 23 % on
//! TG-NCSA but are NAT-bound on OSC; 96–97 % of the maximum expected
//! speedup is achieved.

use semplar_clusters::all_clusters;
use semplar_workloads::{run_laplace, LaplaceMode, LaplaceParams};

use crate::table::{pct, secs, Table};
use crate::{sums, with_testbed};

pub(crate) fn run(quick: bool) {
    let (procs, base): (&'static [usize], LaplaceParams) = if quick {
        (
            &[2, 4],
            LaplaceParams {
                grid: 1201,
                checkpoints: 2,
                ..LaplaceParams::default()
            },
        )
    } else {
        (&[1, 2, 4, 6, 8, 10, 12], LaplaceParams::default())
    };

    for spec in all_clusters() {
        let name = spec.name;
        let max_procs = procs.iter().copied().max().unwrap_or(1);
        // Per row: (procs, sync s, async s, max-speedup s, two-stream s).
        let (rows, _) = with_testbed(spec, max_procs, move |tb| {
            procs
                .iter()
                .map(|&n| {
                    let exec = |mode, streams| {
                        let p = LaplaceParams {
                            mode,
                            streams,
                            ..base
                        };
                        run_laplace(&tb, n, p)
                    };
                    let sync = exec(LaplaceMode::Sync, 1);
                    let asy = exec(LaplaceMode::AsyncOverlap, 1);
                    let two = exec(LaplaceMode::Sync, 2);
                    let expected = sync.compute_secs.max(sync.io_secs);
                    (n, sync.exec_secs, asy.exec_secs, expected, two.exec_secs)
                })
                .collect::<Vec<_>>()
        });
        // Fraction of the maximum possible overlap speedup achieved.
        let overlap = |r: &(usize, f64, f64, f64, f64)| (r.1 / r.2) / (r.1 / r.3);
        let mut t = Table::new(
            &format!("Fig. 7 ({name}): 2D Laplace solver execution time"),
            &[
                "procs",
                "sync (s)",
                "async (s)",
                "max-speedup (s)",
                "2 streams (s)",
                "async gain",
                "2-stream gain",
            ],
        );
        for &(n, sync, asy, max, two) in &rows {
            t.row(vec![
                n.to_string(),
                secs(sync),
                secs(asy),
                secs(max),
                secs(two),
                pct(1.0 - asy / sync),
                pct(1.0 - two / sync),
            ]);
        }
        t.print();
        let (sync_sum, async_sum) = sums(rows.iter().map(|r| (r.1, r.2)));
        let two_sum: f64 = rows.iter().map(|r| r.4).sum();
        let mean_overlap = rows.iter().map(overlap).sum::<f64>() / rows.len() as f64;
        let paper = match name {
            "das2" => "paper: sync +7% slower than async, two-stream -38% exec, 96% overlap",
            "osc" => "paper: sync +9% slower than async, two-stream NAT-bound, 97% overlap",
            _ => "paper: sync +6% slower than async, two-stream -23% exec, 97% overlap",
        };
        println!(
            "{name}: sync slower than async by {} | 2 streams cut exec by {} | overlap {:.0}%   ({paper})",
            pct(sync_sum / async_sum - 1.0),
            pct(1.0 - two_sum / sync_sum),
            mean_overlap * 100.0
        );
    }
}
