//! Federated SRB: sharded MCAT, write-path replication, reconciliation.
//!
//! The same round-robin multi-file write runs twice — fault-free, then
//! with a seeded crash of the primary owning the first file, landing
//! mid-write. During the outage writes and reads fail over to the shard's
//! replica (the replicator is quiesced first, so every acked byte is
//! durable there); once the primary restarts, the replica's divergent
//! suffix is replayed back in order. Zero acked bytes may be lost: both
//! arms must end with bit-identical per-file checksums on every primary
//! and every replica. Entirely in virtual time and seeded, so the output
//! is bit-identical across invocations.

use std::sync::Arc;

use semplar::{AdioFile, AdioFs, FedFs, FedShard, OpenFlags, Payload};
use semplar::{ReconcileLedger, RecoveryStats, SrbFs, SrbFsConfig};
use semplar_faults::{FaultPlan, FaultStats};
use semplar_netsim::{Bw, Network};
use semplar_runtime::{Dur, Runtime, SimRuntime};
use semplar_srb::{ConnRoute, ReplStats, Replicator, RetryPolicy, SrbServer, SrbServerCfg};

use crate::print_ledger;
use crate::table::{mbps, Table};

/// A dedicated forward/reverse link pair named `{name}-fwd` / `{name}-rev`.
pub(crate) fn route(net: &Network, name: &str, bw_mbps: f64, lat_ms: u64) -> ConnRoute {
    let link = |dir: &str| {
        net.add_link(
            &format!("{name}-{dir}"),
            Bw::mbps(bw_mbps),
            Dur::from_millis(lat_ms),
        )
    };
    ConnRoute {
        fwd: vec![link("fwd")],
        rev: vec![link("rev")],
        send_cap: None,
        recv_cap: None,
        bus: None,
    }
}

/// A client mount of `server` as user `u` over `route` that fails fast: in
/// a federation, failover *is* the recovery, so a crashed primary refuses
/// instantly instead of the client backing off.
pub(crate) fn fed_mount(server: &Arc<SrbServer>, route: ConnRoute) -> Arc<SrbFs> {
    let cfg = SrbFsConfig {
        route,
        user: "u".into(),
        password: "p".into(),
    };
    SrbFs::with_retry(server.clone(), cfg, RetryPolicy::none())
}

/// The deterministic bytes `[offset, offset + len)` of federation file
/// `file`.
pub(crate) fn fed_pattern(file: usize, offset: u64, len: u64) -> Vec<u8> {
    (0..len)
        .map(|k| (((offset + k) as usize).wrapping_mul(131) + file * 29 + 17) as u8)
        .collect()
}

/// Write every file of `paths` round-robin in `chunk`-byte pieces through
/// `fed`. At the first failover, read file 0 back mid-outage. Returns the
/// write's virtual seconds and whether that read returned the written
/// bytes (`None` when no failover happened).
pub(crate) fn write_round_robin(
    rt: &Arc<dyn Runtime>,
    fed: &Arc<FedFs>,
    paths: &[String],
    bytes_per_file: u64,
    chunk: u64,
) -> (f64, Option<bool>, Vec<Box<dyn AdioFile>>) {
    let mut handles: Vec<Box<dyn AdioFile>> = paths
        .iter()
        .map(|p| fed.open(p, OpenFlags::CreateRw).expect("open federated"))
        .collect();
    let mut outage_read_ok = None;
    let t0 = rt.now();
    for c in 0..bytes_per_file / chunk {
        for (i, h) in handles.iter_mut().enumerate() {
            let data = Payload::bytes(fed_pattern(i, c * chunk, chunk));
            let n = h.write_at(c * chunk, &data).expect("federated write");
            assert_eq!(n, chunk, "short federated write");
        }
        // First failover observed: read the crashed shard's file back
        // through the federation mid-outage. The replicator is quiesced
        // and the replica serves every acked byte.
        if outage_read_ok.is_none() && fed.failovers() > 0 {
            let mut r = fed.open(&paths[0], OpenFlags::Read).expect("outage open");
            let got = r.read_at(0, chunk).expect("outage read");
            let _ = r.close();
            outage_read_ok = Some(got.data() == Some(&fed_pattern(0, 0, chunk)[..]));
        }
    }
    ((rt.now() - t0).as_secs_f64(), outage_read_ok, handles)
}

/// Per-file adler32 checksums on the owning primaries and on the replicas.
pub(crate) fn checksums(fed: &Arc<FedFs>, paths: &[String]) -> (Vec<u32>, Vec<u32>) {
    let sum = |fs: &SrbFs, p: &str| {
        let conn = fs.admin_conn().expect("admin connection");
        let sum = conn.checksum(p).expect("checksum");
        let _ = conn.disconnect();
        sum
    };
    paths
        .iter()
        .map(|p| {
            let shard = &fed.shards()[fed.shard_of(p)];
            (sum(&shard.primary, p), sum(&shard.replica, p))
        })
        .unzip()
}

/// One arm of one federation run.
pub(crate) struct FedArm {
    pub(crate) secs: f64,
    pub(crate) primary_sums: Vec<u32>,
    pub(crate) replica_sums: Vec<u32>,
    pub(crate) failovers: u64,
    pub(crate) recovery: RecoveryStats,
    pub(crate) ledger: ReconcileLedger,
    pub(crate) repl: Vec<ReplStats>,
    pub(crate) outage_read_ok: bool,
    pub(crate) faults: Option<FaultStats>,
}

/// One federation run in a fresh simulation: `shards` primary/replica
/// server pairs on one network, a per-shard write-path [`Replicator`], and
/// `files` files written round-robin in `chunk`-byte pieces through a
/// [`FedFs`]. With `crash = Some((at, down_for))` a seeded plan crashes
/// the primary that owns the first file mid-write: writes and reads fail
/// over to its replica, and the divergent suffix is replayed back once the
/// primary restarts.
pub(crate) fn federation_run(
    shards: usize,
    files: usize,
    bytes_per_file: u64,
    chunk: u64,
    seed: u64,
    crash: Option<(Dur, Dur)>,
) -> FedArm {
    SimRuntime::new().run_root(move |rt| {
        let net = Network::new(rt.clone());
        let mut fed_shards = Vec::with_capacity(shards);
        let mut primary_servers = Vec::with_capacity(shards);
        for s in 0..shards {
            let primary = SrbServer::new(net.clone(), SrbServerCfg::default());
            let replica = SrbServer::new(net.clone(), SrbServerCfg::default());
            primary.mcat().add_user("u", "p");
            replica.mcat().add_user("u", "p");
            // The replication service account on the replica.
            replica.mcat().add_user("fed", "fed");
            let primary_fs = fed_mount(
                &primary,
                route(&net, &format!("s{s}-client-primary"), 50.0, 10),
            );
            let replica_fs = fed_mount(
                &replica,
                route(&net, &format!("s{s}-client-replica"), 50.0, 10),
            );
            // Fast server-to-server path for the replication stream.
            let repl = Replicator::start(
                &rt,
                primary.clone(),
                replica,
                route(&net, &format!("s{s}-repl"), 1000.0, 1),
                "fed",
                "fed",
                RetryPolicy::default(),
            );
            primary_servers.push(primary);
            fed_shards.push(FedShard {
                primary: primary_fs,
                replica: replica_fs,
                replicator: Some(repl),
                reverse: None,
            });
        }
        let fed = FedFs::new(&rt, fed_shards);
        fed.mk_coll_all("/fed").expect("mk /fed everywhere");
        let paths: Vec<String> = (0..files).map(|i| format!("/fed/data{i}")).collect();
        // The crash targets the primary that owns the first file, so the
        // outage is guaranteed to land on an actively written shard.
        let inj = crash.map(|(at, down_for)| {
            FaultPlan::new(seed).server_crash_at(at, down_for).inject(
                &rt,
                &net,
                &primary_servers[fed.shard_of(&paths[0])],
            )
        });

        let (secs, outage_read_ok, handles) =
            write_round_robin(&rt, &fed, &paths, bytes_per_file, chunk);
        for mut h in handles {
            h.close().expect("close federated");
        }
        // Let the plan finish (the restart may land after the writes), then
        // replay whatever divergence remains and settle replication.
        if let Some(inj) = &inj {
            while !inj.done() {
                rt.sleep(Dur::from_millis(100));
            }
        }
        while !fed.reconcile() {
            rt.sleep(Dur::from_millis(50));
        }
        for shard in fed.shards() {
            if let Some(repl) = &shard.replicator {
                repl.quiesce();
            }
        }
        let (primary_sums, replica_sums) = checksums(&fed, &paths);
        FedArm {
            secs,
            primary_sums,
            replica_sums,
            failovers: fed.failovers(),
            recovery: fed.recovery_stats(),
            ledger: fed.reconcile_ledger(),
            repl: fed
                .shards()
                .iter()
                .filter_map(|s| s.replicator.as_ref())
                .map(|r| r.stats())
                .collect(),
            outage_read_ok: outage_read_ok.unwrap_or(crash.is_none()),
            faults: inj.map(|i| i.stats()),
        }
    })
}

/// Replication counters as one table cell.
pub(crate) fn repl_cell(r: &ReplStats) -> String {
    format!(
        "{} extents / {} blocks / {} MiB ({} re-ships)",
        r.enqueued,
        r.shipped_blocks,
        r.shipped_bytes >> 20,
        r.reships
    )
}

pub(crate) fn run(quick: bool) {
    let shards = 2usize;
    let (files, bytes_per_file, chunk, crash_at, down_for) = if quick {
        (2usize, 6u64 << 20, 1u64 << 20, 1_000u64, 1_500u64)
    } else {
        (3usize, 16u64 << 20, 2u64 << 20, 2_500u64, 3_000u64)
    };
    let seed = 23u64;
    let (crash_at, down_for) = (Dur::from_millis(crash_at), Dur::from_millis(down_for));
    let clean = federation_run(shards, files, bytes_per_file, chunk, seed, None);
    let faulted = federation_run(
        shards,
        files,
        bytes_per_file,
        chunk,
        seed,
        Some((crash_at, down_for)),
    );
    let total_bits = (files as u64 * bytes_per_file) as f64 * 8.0;
    let (clean_mbps, faulted_mbps) = (
        total_bits / clean.secs / 1e6,
        total_bits / faulted.secs / 1e6,
    );
    // Zero acked-byte loss: after reconciliation, every file checksums
    // bit-identically to the fault-free run on the primary *and* the
    // replica.
    let converged =
        faulted.primary_sums == clean.primary_sums && faulted.replica_sums == clean.primary_sums;

    let mut t = Table::new(
        &format!(
            "Federated SRB ({shards} shards x primary+replica, 50 Mb/s client paths): \
             {files} x {} MiB files, shard-0 owner crashed at t={:.1}s for {:.1}s, seed {seed}",
            bytes_per_file >> 20,
            crash_at.as_secs_f64(),
            down_for.as_secs_f64()
        ),
        &["metric", "value"],
    );
    t.row(vec!["fault-free write".into(), mbps(clean_mbps)]);
    t.row(vec![
        "fault-free time".into(),
        format!("{:.3} s", clean.secs),
    ]);
    t.row(vec!["faulted write".into(), mbps(faulted_mbps)]);
    t.row(vec![
        "faulted time".into(),
        format!("{:.3} s", faulted.secs),
    ]);
    t.row(vec![
        "goodput retained".into(),
        format!("{:.1} %", 100.0 * faulted_mbps / clean_mbps.max(1e-9)),
    ]);
    t.row(vec![
        "ops failed over to replica".into(),
        faulted.failovers.to_string(),
    ]);
    t.row(vec![
        "mid-outage federated read".into(),
        if faulted.outage_read_ok {
            "bytes intact"
        } else {
            "MISMATCH"
        }
        .into(),
    ]);
    t.row(vec![
        "reconciliation rounds".into(),
        faulted.ledger.rounds.to_string(),
    ]);
    t.row(vec![
        "extents replayed".into(),
        faulted.ledger.entries.len().to_string(),
    ]);
    t.row(vec![
        "bytes replayed to primary".into(),
        format!("{} MiB", faulted.ledger.bytes >> 20),
    ]);
    t.row(vec![
        "recovery time".into(),
        format!("{:.3} s", faulted.recovery.recovery_time.as_secs_f64()),
    ]);
    for (s, r) in faulted.repl.iter().enumerate() {
        t.row(vec![format!("shard {s} replicated"), repl_cell(r)]);
    }
    t.row(vec![
        "checksums (faulted vs fault-free)".into(),
        if converged {
            "bit-identical on primaries and replicas"
        } else {
            "DIVERGED"
        }
        .into(),
    ]);
    for (i, sum) in faulted.primary_sums.iter().enumerate() {
        t.row(vec![format!("file {i} adler32"), format!("{sum:08x}")]);
    }
    t.print();

    let faults = faulted.faults.expect("faulted arm has an injector");
    print_ledger("fault ledger (virtual time):", &faults.ledger);
    assert!(converged, "acked bytes lost: checksums diverged");
}
