//! Availability under injected faults: the ROMIO `perf` shared-file write
//! on DAS-2, fault-free vs under a seeded fault plan (two WAN link flaps,
//! a vault stall, a server crash + restart, a connection reset).
//!
//! The run is entirely in virtual time and every fault is drawn from the
//! seeded plan, so the output is bit-identical across invocations.
//!
//! The wire model charges a send's full transfer time to the sender, so a
//! client pushing a large payload into a severed connection only observes
//! the cut when that charge completes — the crash is placed after the
//! post-reset reconnects to hit live connections again.

use std::sync::{Arc, Mutex};

use semplar::{OpenFlags, Payload};
use semplar::{RecoveryStats, SrbFs, StripeUnit, StripedFile};
use semplar_clusters::{das2, Testbed};
use semplar_faults::FaultPlan;
use semplar_runtime::{spawn, Dur};

use crate::table::{mbps, Table};
use crate::{print_ledger, with_testbed};

/// The availability fault mix: two WAN uplink flaps from 0.5 s, a vault
/// stall at 0.9 s, a connection reset at `reset_at`, and a 0.4 s server
/// crash at `crash_at`.
pub(crate) fn availability_plan(
    tb: &Testbed,
    seed: u64,
    reset_at: Dur,
    crash_at: Dur,
) -> FaultPlan {
    let (wan_up, _) = tb.wan_links();
    FaultPlan::new(seed)
        .link_flap(wan_up, Dur::from_millis(500), Dur::from_millis(300), 2)
        .vault_stall_at(Dur::from_millis(900), 4 << 20)
        .conn_reset_at(reset_at)
        .server_crash_at(crash_at, Dur::from_millis(400))
}

/// The client-side recovery counters every availability table reports.
pub(crate) fn recovery_rows(t: &mut Table, rec: &RecoveryStats) {
    t.row(vec!["disconnects seen".into(), rec.disconnects.to_string()]);
    t.row(vec!["reconnects".into(), rec.reconnects.to_string()]);
    t.row(vec!["ops recovered".into(), rec.recovered_ops.to_string()]);
    t.row(vec![
        "total recovery time".into(),
        format!("{:.3} s", rec.recovery_time.as_secs_f64()),
    ]);
}

/// One `perf`-style shared-file write: every rank writes `bytes` at its own
/// section of `path` over `streams` connections. Returns the aggregate
/// bandwidth and the summed recovery counters.
fn perf_write(
    tb: &Arc<Testbed>,
    procs: usize,
    bytes: u64,
    streams: usize,
    path: &str,
) -> (f64, RecoveryStats) {
    let rt = tb.rt.clone();
    let mounts: Arc<Mutex<Vec<Arc<SrbFs>>>> = Arc::new(Mutex::new(Vec::new()));
    let t0 = rt.now();
    let handles: Vec<_> = (0..procs)
        .map(|rank| {
            let tb = tb.clone();
            let mounts = mounts.clone();
            let path = path.to_string();
            spawn(&rt, &format!("avail/rank{rank}"), move || {
                let fs = tb.srbfs(rank);
                mounts.lock().unwrap().push(fs.clone());
                let f = StripedFile::open(
                    &tb.rt,
                    &fs,
                    &path,
                    OpenFlags::CreateRw,
                    streams,
                    StripeUnit::Even,
                )
                .expect("open availability file");
                f.write_at(rank as u64 * bytes, Payload::sized(bytes))
                    .expect("availability write");
                f.close().expect("close availability file");
            })
        })
        .collect();
    for h in handles {
        h.join_unwrap();
    }
    let elapsed = (rt.now() - t0).as_secs_f64();
    let mut rec = RecoveryStats::default();
    for fs in mounts.lock().unwrap().iter() {
        let s = fs.recovery_stats();
        rec.disconnects += s.disconnects;
        rec.reconnects += s.reconnects;
        rec.recovered_ops += s.recovered_ops;
        rec.recovery_time += s.recovery_time;
    }
    (procs as f64 * bytes as f64 * 8.0 / elapsed / 1e6, rec)
}

pub(crate) fn run(quick: bool) {
    // The crash is timed to land after the ranks have re-established the
    // connections the reset severed (notice latency scales with the
    // payload still in flight, hence with bytes per process).
    let (procs, bytes, crash_at) = if quick {
        (2, 4 << 20, Dur::from_secs(8))
    } else {
        (4, 8 << 20, Dur::from_secs(16))
    };
    let streams = 2;
    let seed = 7u64;

    let ((baseline, faulted, recovery, faults), _) = with_testbed(das2(), procs, move |tb| {
        let (baseline, _) = perf_write(&tb, procs, bytes, streams, "/avail-baseline");
        let plan = availability_plan(&tb, seed, Dur::from_secs(2), crash_at);
        let inj = plan.inject(&tb.rt, &tb.net, &tb.server);
        let (faulted, recovery) = perf_write(&tb, procs, bytes, streams, "/avail-faulted");
        while !inj.done() {
            tb.rt.sleep(Dur::from_millis(50));
        }
        (baseline, faulted, recovery, inj.stats())
    });

    let mut t = Table::new(
        &format!(
            "Availability (das2): perf write, {procs} procs x {} MiB, {streams} streams, seed {seed}",
            bytes >> 20
        ),
        &["metric", "value"],
    );
    t.row(vec!["write fault-free".into(), mbps(baseline)]);
    t.row(vec!["write under faults".into(), mbps(faulted)]);
    t.row(vec![
        "goodput".into(),
        format!("{:.1} %", faulted / baseline * 100.0),
    ]);
    recovery_rows(&mut t, &recovery);
    // Mean virtual time from a failure to the completion of the affected
    // operation.
    let mean_recovery = match recovery.recovered_ops {
        0 => 0.0,
        ops => recovery.recovery_time.as_secs_f64() / ops as f64,
    };
    t.row(vec![
        "mean recovery latency".into(),
        format!("{mean_recovery:.3} s"),
    ]);
    t.row(vec![
        "connections severed".into(),
        faults.conns_severed.to_string(),
    ]);
    t.print();
    print_ledger("fault ledger (virtual time):", &faults.ledger);
}
