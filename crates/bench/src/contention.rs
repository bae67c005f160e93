//! §7.1 contention experiment: 2D Laplace with overlap + two connections.
//!
//! The paper's counter-intuitive result: combining overlap with the double
//! connection yields "approximately the same \[time\] as the highest of the
//! two (overlapping alone)" because of I/O-bus contention between the
//! interconnect and Ethernet NICs; restructuring the code (moving the
//! `MPIO_Wait` from position 1 to position 2, so remote I/O no longer
//! overlaps MPI communication) recovers the double-connection time.

use semplar_clusters::das2;
use semplar_workloads::{run_laplace, LaplaceMode, LaplaceParams};

use crate::table::{secs, Table};
use crate::with_testbed;

pub(crate) fn run(quick: bool) {
    let base = if quick {
        LaplaceParams {
            grid: 1201,
            checkpoints: 4,
            ..LaplaceParams::default()
        }
    } else {
        LaplaceParams {
            checkpoints: 6,
            ..LaplaceParams::default()
        }
    };
    let n = if quick { 2 } else { 4 };

    let arms = [
        ("overlap alone (1 stream)", LaplaceMode::AsyncOverlap, 1),
        ("two streams alone (no overlap)", LaplaceMode::Sync, 2),
        (
            "combined, wait at position 1 (naive)",
            LaplaceMode::AsyncOverlap,
            2,
        ),
        (
            "combined, wait at position 2 (restructured)",
            LaplaceMode::AsyncNoCommOverlap,
            2,
        ),
    ];
    let (exec, _) = with_testbed(das2(), n, move |tb| {
        arms.map(|(_, mode, streams)| {
            let p = LaplaceParams {
                mode,
                streams,
                ..base
            };
            run_laplace(&tb, n, p).exec_secs
        })
    });
    let mut t = Table::new(
        &format!("§7.1 contention experiment (das2, {n} procs): 2D Laplace"),
        &["configuration", "exec (s)"],
    );
    for ((label, _, _), secs_) in arms.iter().zip(exec) {
        t.row(vec![label.to_string(), secs(secs_)]);
    }
    t.print();
    let [overlap_alone, two_streams_alone, naive, restructured] = exec;
    println!(
        "naive combined / overlap-alone = {:.2} (paper: ~1.0 — the 2nd stream's benefit is lost)",
        naive / overlap_alone
    );
    println!(
        "restructured / two-streams-alone = {:.2} (paper: ~1.0 — restructuring recovers it)",
        restructured / two_streams_alone
    );
}
