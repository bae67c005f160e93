//! The Fig. 9 compression pipeline under injected faults: the
//! async-compressed write on DAS-2, fault-free vs under the same seeded
//! fault plan as `fig_availability` (WAN link flaps, a vault stall, a
//! connection reset, a server crash + restart).
//!
//! The pipeline retains each compressed frame until the server
//! acknowledges it, so a severed connection costs a re-ship of at most
//! `depth` frames — never a recompression. Entirely in virtual time and
//! seeded, so the output is bit-identical across invocations.

use semplar_clusters::das2;
use semplar_runtime::Dur;
use semplar_workloads::{run_compress, CompressMode, CompressParams};

use crate::fig9_compress::est_data;
use crate::fig_availability::{availability_plan, recovery_rows};
use crate::table::{mbps, Table};
use crate::{print_ledger, with_testbed};

pub(crate) fn run(quick: bool) {
    // Crash timing mirrors fig_availability: late enough that the ranks
    // have re-established the connections the reset severed.
    let (procs, file_bytes, crash_at) = if quick {
        (2, 8 << 20, Dur::from_secs(8))
    } else {
        (4, 32 << 20, Dur::from_secs(16))
    };
    let seed = 7u64;

    let data = est_data(file_bytes);
    let ((base, faulted, faults), _) = with_testbed(das2(), procs, move |tb| {
        let params = CompressParams {
            file_bytes,
            mode: CompressMode::AsyncCompressed,
            ..CompressParams::default()
        };
        let base = run_compress(&tb, procs, data.clone(), params);
        let plan = availability_plan(&tb, seed, Dur::from_secs(2), crash_at);
        let inj = plan.inject(&tb.rt, &tb.net, &tb.server);
        let faulted = run_compress(&tb, procs, data.clone(), params);
        while !inj.done() {
            tb.rt.sleep(Dur::from_millis(50));
        }
        (base, faulted, inj.stats())
    });

    let mut t = Table::new(
        &format!(
            "Compression under faults (das2): {procs} procs x {} MiB async-compressed, seed {seed}",
            file_bytes >> 20
        ),
        &["metric", "value"],
    );
    let (base_mbps, faulted_mbps) = (base.agg_write_mbps, faulted.agg_write_mbps);
    t.row(vec!["write fault-free".into(), mbps(base_mbps)]);
    t.row(vec!["write under faults".into(), mbps(faulted_mbps)]);
    t.row(vec![
        "goodput".into(),
        format!("{:.1} %", faulted_mbps / base_mbps * 100.0),
    ]);
    t.row(vec!["lz ratio".into(), format!("{:.2}", faulted.ratio)]);
    t.row(vec![
        "frames re-shipped (no recompress)".into(),
        faulted.resumed_frames.to_string(),
    ]);
    recovery_rows(&mut t, &faulted.recovery);
    t.row(vec![
        "connections severed".into(),
        faults.conns_severed.to_string(),
    ]);
    t.print();
    print_ledger("fault ledger (virtual time):", &faults.ledger);
}
