//! Scale-out: thousands of simulated clients against one SRB server.
//!
//! `fig_scale` compares per-open connections (paper-faithful, one TCP
//! stream per open) with the shared multiplexed pool
//! (`PoolPolicy::Shared`) for thread-actor clients. `fig_scale_actors`
//! drives every session as a poll-style task on one executor instead,
//! which pushes the axis to 10⁵ clients. Both run entirely in virtual time
//! and fault-free, so the output is bit-identical across invocations.

use std::sync::Arc;

use semplar::{AdioFs, OpenFlags, Payload, SrbFs};
use semplar_clusters::das2;
use semplar_runtime::sync::Barrier;
use semplar_runtime::{spawn, Dur};
use semplar_srb::{PoolPolicy, TenantId};
use semplar_workloads::{run_swarm, SwarmMode, SwarmParams, TenantMix};

use crate::table::Table;
use crate::with_testbed;

/// Client nodes in both scale figures.
const NODES: usize = 16;

/// One thread-actor scale run: `NODES * procs` clients each open their
/// own object and, after a global barrier, write `bytes` concurrently.
///
/// `policy = None` mounts the paper-faithful per-open SRBFS (every open
/// dials its own TCP connection, §4 of the paper); `Some(Shared { .. })`
/// multiplexes all of a node's sessions over a bounded stream set via the
/// connection pool. The WAN is the shared bottleneck either way, so the
/// aggregate bandwidth should match while the server's connection
/// footprint collapses from `clients` to `nodes * max_streams`. Returns
/// (connections accepted, live handlers with every file open, write s).
fn scale_run(procs: usize, bytes: u64, policy: Option<PoolPolicy>) -> (u64, usize, f64) {
    let clients = NODES * procs;
    let (out, _) = with_testbed(das2(), NODES, move |tb| {
        let rt = tb.rt.clone();
        let mounts: Vec<Arc<SrbFs>> = (0..NODES)
            .map(|n| match policy {
                None => tb.srbfs(n),
                Some(p) => tb.srbfs_pooled(n, p),
            })
            .collect();
        let setup = mounts[0].admin_conn().unwrap();
        setup.mk_coll("/scale").unwrap();
        setup.disconnect().unwrap();

        // Clients rendezvous twice: `opened` marks every file open (the
        // server's peak footprint), `go` releases the write phase.
        let opened = Barrier::new(&rt, clients + 1);
        let go = Barrier::new(&rt, clients + 1);
        let handles: Vec<_> = (0..NODES)
            .flat_map(|n| (0..procs).map(move |p| (n, p)))
            .map(|(n, p)| {
                let fs = mounts[n].clone();
                let opened = opened.clone();
                let go = go.clone();
                spawn(&rt, &format!("cl{n}-{p}"), move || {
                    let mut f = fs
                        .open(&format!("/scale/n{n}p{p}"), OpenFlags::CreateRw)
                        .unwrap();
                    opened.wait();
                    go.wait();
                    f.write_at(0, &Payload::sized(bytes)).unwrap();
                    f.close().unwrap();
                })
            })
            .collect();

        opened.wait();
        let live = tb.server.live_conn_count();
        let conns = tb.server.stats().connections;
        let t0 = rt.now();
        go.wait();
        for h in handles {
            h.join_unwrap();
        }
        (conns, live, (rt.now() - t0).as_secs_f64())
    });
    out
}

pub(crate) fn run(quick: bool) {
    let bytes = 256 * 1024u64;
    let (max_streams, max_inflight) = (4, 8);
    let shared = PoolPolicy::Shared {
        max_streams,
        max_inflight,
    };
    let shared_label = format!("shared({max_streams}x{max_inflight})");
    // procs per node: 16 nodes x {64,128,256} = 1024/2048/4096 clients.
    let scales: &[usize] = if quick { &[16] } else { &[64, 128, 256] };

    let mut t = Table::new(
        &format!(
            "Scale-out (das2): {NODES} nodes, per-client {} KiB write, per-open vs shared pool",
            bytes >> 10
        ),
        &[
            "clients",
            "policy",
            "conns accepted",
            "live handlers",
            "write s",
            "aggregate Mb/s",
        ],
    );
    for &procs in scales {
        for (label, policy) in [("per-open", None), (shared_label.as_str(), Some(shared))] {
            let clients = NODES * procs;
            let (conns, live, secs) = scale_run(procs, bytes, policy);
            let mbps = (clients as u64 * bytes) as f64 * 8.0 / 1e6 / secs;
            eprintln!("fig_scale: {clients} clients / {label}: {conns} conns, {live} live, {mbps:.1} Mb/s");
            t.row(vec![
                clients.to_string(),
                label.into(),
                conns.to_string(),
                live.to_string(),
                format!("{secs:.3}"),
                format!("{mbps:.1}"),
            ]);
        }
    }
    t.print();
}

/// Actor-mode scale-out: `clients` sessions arrive open-loop (heavy-tailed
/// gaps around a 500 µs mean, seeded), each opens its own object over the
/// node's shared pool, writes 64 KiB, closes, and retires its session —
/// all as poll-style tasks on a single executor, so the OS-thread
/// footprint is the node count plus the pool daemons, not the client
/// count.
pub(crate) fn run_actors(quick: bool) {
    let bytes = 64 * 1024u64;
    let (max_streams, max_inflight) = (8, 64);
    let scales: &[usize] = if quick { &[2_000] } else { &[10_000, 100_000] };
    let mut t = Table::new(
        &format!(
            "Actor-mode scale-out (das2): {NODES} nodes, per-client {} KiB write, event-driven sessions",
            bytes >> 10
        ),
        &[
            "clients",
            "policy",
            "conns accepted",
            "completed",
            "span s",
            "aggregate Mb/s",
        ],
    );
    let mut engine_lines = Vec::new();
    for &clients in scales {
        let ((completed, conns, secs), sim) = with_testbed(das2(), NODES, move |tb| {
            let params = SwarmParams {
                clients,
                streams_per_node: max_streams,
                inflight_per_stream: max_inflight,
                mix: TenantMix::single(TenantId(1)),
                writes: 1,
                reads: 0,
                bytes_per_op: bytes,
                mean_gap: Dur::from_micros(500),
                think: Dur::ZERO,
                seed: 42,
                real_payload: false,
                mode: SwarmMode::Tasks,
                coll: "/scale".into(),
                abuse: None,
                per_tenant_streams: false,
                skew: None,
            };
            let report = run_swarm(&tb, &params);
            (
                report.completed(),
                tb.server.stats().connections,
                report.secs,
            )
        });
        let mbps = (clients as u64 * bytes) as f64 * 8.0 / 1e6 / secs;
        eprintln!("fig_scale_actors: {clients} clients: {conns} conns, {completed}/{clients} completed, {mbps:.1} Mb/s");
        engine_lines.push(format!(
            "{clients} clients: engine — {} thread actors spawned (peak {}), {} tasks spawned (peak {}), {} clock advances",
            sim.actors_spawned,
            sim.peak_live_actors,
            sim.tasks_spawned,
            sim.peak_live_tasks,
            sim.clock_advances,
        ));
        t.row(vec![
            clients.to_string(),
            format!("shared({max_streams}x{max_inflight})"),
            conns.to_string(),
            completed.to_string(),
            format!("{secs:.3}"),
            format!("{mbps:.1}"),
        ]);
    }
    t.print();
    for l in engine_lines {
        println!("{l}");
    }
}
