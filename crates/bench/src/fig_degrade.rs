//! Degraded-link striping: one striped write on a multi-homed client with
//! a seeded single-link degrade (stream 0's uplink throttled 4×), with
//! round-robin vs goodput-adaptive block placement.
//!
//! Round-robin keeps feeding the throttled path its full share of blocks,
//! so the slow stream gates the whole write; the adaptive scheduler weighs
//! placement by each stream's measured goodput and rebalances mid-write.
//! Entirely in virtual time and seeded, so the output is bit-identical
//! across invocations.

use semplar::{OpenFlags, Payload, SrbFs, SrbFsConfig, StripeStats, StripeUnit, StripedFile};
use semplar_faults::{FaultPlan, FaultStats};
use semplar_netsim::{Bw, Network};
use semplar_runtime::{Dur, SimRuntime};
use semplar_srb::{ConnRoute, PoolPolicy, RetryPolicy, SrbServer, SrbServerCfg};

use crate::print_ledger;
use crate::table::{mbps, Table};

/// One arm in a fresh simulation: a multi-homed client (one 50 Mb/s path
/// per stream) writes `bytes` over a striped file while a seeded plan
/// throttles stream 0's uplink to `factor` of its capacity from
/// `degrade_at` on. Returns (virtual seconds, placement stats, fault
/// ledger).
fn degrade_write(
    unit: StripeUnit,
    streams: usize,
    bytes: u64,
    factor: f64,
    seed: u64,
    degrade_at: Dur,
) -> (f64, StripeStats, FaultStats) {
    SimRuntime::new().run_root(move |rt| {
        let net = Network::new(rt.clone());
        let routes: Vec<ConnRoute> = (0..streams)
            .map(|i| ConnRoute {
                fwd: vec![net.add_link(&format!("up{i}"), Bw::mbps(50.0), Dur::from_millis(10))],
                rev: vec![net.add_link(&format!("down{i}"), Bw::mbps(50.0), Dur::from_millis(10))],
                send_cap: None,
                recv_cap: None,
                bus: None,
            })
            .collect();
        let server = SrbServer::new(net.clone(), SrbServerCfg::default());
        server.mcat().add_user("u", "p");
        let fs = SrbFs::with_stream_routes(
            server.clone(),
            SrbFsConfig {
                route: routes[0].clone(),
                user: "u".into(),
                password: "p".into(),
            },
            routes.clone(),
            PoolPolicy::PerOpen,
            RetryPolicy::default(),
        );
        // The degrade persists past the end of the write (restore far out);
        // the run ends when the root closure returns.
        let plan = FaultPlan::new(seed).link_degrade_at(
            routes[0].fwd[0],
            degrade_at,
            factor,
            Dur::from_secs(3600),
        );
        let inj = plan.inject(&rt, &net, &server);

        let f = StripedFile::open(&rt, &fs, "/deg", OpenFlags::CreateRw, streams, unit)
            .expect("open degrade file");
        let t0 = rt.now();
        let req = f.iwrite_at(0, Payload::sized(bytes));
        let total = req.wait_rebalanced().expect("degrade write");
        assert_eq!(total, bytes, "short striped write");
        let secs = (rt.now() - t0).as_secs_f64();
        let stats = f.stripe_stats();
        f.close().expect("close degrade file");
        (secs, stats, inj.stats())
    })
}

pub(crate) fn run(quick: bool) {
    let bytes: u64 = if quick { 16 << 20 } else { 64 << 20 };
    let streams = 2;
    let block = 1u64 << 20;
    let factor = 0.25;
    let seed = 11u64;
    let degrade_at = Dur::from_millis(200);

    let write = |unit| degrade_write(unit, streams, bytes, factor, seed, degrade_at);
    let (rr_secs, _, _) = write(StripeUnit::Bytes(block));
    let (adaptive_secs, stats, faults) = write(StripeUnit::Adaptive { block });
    let rr_mbps = bytes as f64 * 8.0 / rr_secs / 1e6;
    let adaptive_mbps = bytes as f64 * 8.0 / adaptive_secs / 1e6;

    let mut t = Table::new(
        &format!(
            "Degraded link (2x50 Mb/s paths): {} MiB striped write, {streams} streams, \
             1 MiB blocks, uplink 0 at {}x from t={:.1}s, seed {seed}",
            bytes >> 20,
            factor,
            degrade_at.as_secs_f64()
        ),
        &["metric", "value"],
    );
    t.row(vec!["round-robin write".into(), mbps(rr_mbps)]);
    t.row(vec!["round-robin time".into(), format!("{rr_secs:.3} s")]);
    t.row(vec!["adaptive write".into(), mbps(adaptive_mbps)]);
    t.row(vec![
        "adaptive time".into(),
        format!("{adaptive_secs:.3} s"),
    ]);
    t.row(vec![
        "adaptive speedup".into(),
        format!("{:.2}x", adaptive_mbps / rr_mbps),
    ]);
    for (i, (blocks, by)) in stats.blocks.iter().zip(&stats.bytes).enumerate() {
        t.row(vec![
            format!("stream {i} carried"),
            format!("{blocks} blocks / {} MiB", by >> 20),
        ]);
    }
    t.row(vec![
        "blocks migrated off home".into(),
        stats.migrated.to_string(),
    ]);
    t.row(vec![
        "blocks requeued on failure".into(),
        stats.requeued.to_string(),
    ]);
    t.print();
    print_ledger("fault ledger (virtual time):", &faults.ledger);
}
