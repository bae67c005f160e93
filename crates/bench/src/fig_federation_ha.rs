//! Federation HA: quorum promotion vs failover-only recovery.
//!
//! The same federated round-robin write runs three times against the same
//! seeded mid-write crash of one shard's primary: fault-free, with
//! failover-only recovery (the replica serves detoured ops until the
//! primary restarts), and under membership governance. In the promotion
//! arm the crashed primary's lease expires, the shard's replica is
//! elevated to primary by quorum vote at a bumped epoch, and the restarted
//! old primary comes back hard-fenced, is certified in as the replica, and
//! receives the divergent suffix through the reverse replication stream.
//! The replica also fronts the block cache, so mid-outage reads are warm.
//! Promotion must retain strictly more goodput than failover-only — once
//! the replica *is* the primary, writes stop detouring — with zero
//! acked-byte loss on any seat. Entirely in virtual time and seeded, so
//! the output is bit-identical across invocations.

use std::sync::Arc;

use semplar::{AdioFs, FedFs, FedShard, OpenFlags};
use semplar_faults::{FaultPlan, FaultStats};
use semplar_netsim::Network;
use semplar_runtime::{Dur, SimRuntime, Time};
use semplar_srb::{
    CacheSpec, CacheStats, MembershipCfg, PromotionLedger, ReplStats, Replicator, RetryPolicy,
};
use semplar_srb::{SrbServer, SrbServerCfg};

use crate::fig_federation::{
    checksums, fed_mount, fed_pattern, federation_run, repl_cell, route, write_round_robin,
};
use crate::print_ledger;
use crate::table::{mbps, Table};

/// The promotion arm's observables.
struct Promotion {
    secs: f64,
    sums: (Vec<u32>, Vec<u32>),
    failovers: u64,
    outage_read_ok: bool,
    faults: FaultStats,
    div_high_water: u64,
    /// The membership transition ledger.
    ledger: PromotionLedger,
    /// Final epoch and primary seat per shard.
    epochs: Vec<u64>,
    primaries: Vec<usize>,
    /// Block-cache counters of the crashed shard's replica.
    replica_cache: CacheStats,
    /// Stale-epoch mutations the fenced old primary rejected.
    fenced_rejects: u64,
    /// Forward and reverse replicator counters per shard.
    repl: Vec<(ReplStats, ReplStats)>,
}

/// The promotion arm: the same federated write as [`federation_run`], but
/// with every shard under membership governance (forward + reverse
/// replicators, epoch fencing, quorum promotion) and the replica of every
/// pair fronted by a block cache so failover reads during the outage are
/// warm.
fn promotion_run(
    shards: usize,
    files: usize,
    bytes_per_file: u64,
    chunk: u64,
    seed: u64,
    (at, down_for): (Dur, Dur),
    (heartbeat, lease): (Dur, Dur),
) -> Promotion {
    SimRuntime::new().run_root(move |rt| {
        let net = Network::new(rt.clone());
        let mut fed_shards = Vec::with_capacity(shards);
        let mut primary_servers = Vec::with_capacity(shards);
        let mut replica_servers = Vec::with_capacity(shards);
        for s in 0..shards {
            let primary = SrbServer::new(net.clone(), SrbServerCfg::default());
            let replica = SrbServer::new(net.clone(), SrbServerCfg::default());
            for srv in [&primary, &replica] {
                srv.mcat().add_user("u", "p");
                srv.mcat().add_user("fed", "fed");
            }
            // Mid-outage failover reads are served from warm memory.
            replica.set_block_cache(CacheSpec::default());
            let primary_fs = fed_mount(
                &primary,
                route(&net, &format!("s{s}-client-primary"), 50.0, 10),
            );
            let replica_fs = fed_mount(
                &replica,
                route(&net, &format!("s{s}-client-replica"), 50.0, 10),
            );
            let forward = Replicator::start(
                &rt,
                primary.clone(),
                replica.clone(),
                route(&net, &format!("s{s}-repl"), 1000.0, 1),
                "fed",
                "fed",
                RetryPolicy::default(),
            );
            let reverse = Replicator::start_inactive(
                &rt,
                replica.clone(),
                primary.clone(),
                route(&net, &format!("s{s}-repl-rev"), 1000.0, 1),
                "fed",
                "fed",
                RetryPolicy::default(),
            );
            primary_servers.push(primary);
            replica_servers.push(replica);
            fed_shards.push(FedShard {
                primary: primary_fs,
                replica: replica_fs,
                replicator: Some(forward),
                reverse: Some(reverse),
            });
        }
        let fed = FedFs::new(&rt, fed_shards);
        let membership = fed.enable_membership(MembershipCfg {
            heartbeat_every: heartbeat,
            lease_timeout: lease,
            hop_delay: Dur::from_millis(1),
            base_epoch: 1,
            witnesses: 0,
        });
        fed.mk_coll_all("/fed").expect("mk /fed everywhere");
        let paths: Vec<String> = (0..files).map(|i| format!("/fed/data{i}")).collect();
        let crashed = fed.shard_of(&paths[0]);
        let inj = FaultPlan::new(seed).server_crash_at(at, down_for).inject(
            &rt,
            &net,
            &primary_servers[crashed],
        );

        let (secs, outage_read_ok, handles) =
            write_round_robin(&rt, &fed, &paths, bytes_per_file, chunk);
        // Untimed warm-read pair against the promoted seat: the first
        // populates its block cache, the second must be served from it.
        {
            let mut r = fed.open(&paths[0], OpenFlags::Read).expect("warm open");
            for _ in 0..2 {
                let got = r.read_at(0, chunk).expect("warm read");
                assert_eq!(
                    got.data(),
                    Some(&fed_pattern(0, 0, chunk)[..]),
                    "warm read bytes"
                );
            }
            let _ = r.close();
        }
        for mut h in handles {
            h.close().expect("close federated");
        }
        while !inj.done() {
            rt.sleep(Dur::from_millis(100));
        }
        // The deposed primary restarts hard-fenced; membership certifies it
        // back in as the shard's replica. Wait for the rejoin, then settle
        // replication in both directions and replay any residue.
        let mut rounds = 0;
        while primary_servers[crashed].is_fenced() {
            rounds += 1;
            assert!(rounds < 600, "deposed primary never rejoined");
            rt.sleep(Dur::from_millis(10));
        }
        while !fed.reconcile() {
            rt.sleep(Dur::from_millis(50));
        }
        for shard in fed.shards() {
            for repl in [&shard.replicator, &shard.reverse].into_iter().flatten() {
                repl.quiesce();
            }
        }
        Promotion {
            secs,
            sums: checksums(&fed, &paths),
            failovers: fed.failovers(),
            outage_read_ok: outage_read_ok.unwrap_or(false),
            faults: inj.stats(),
            div_high_water: fed.divergence_high_water(),
            ledger: membership.ledger(),
            epochs: (0..shards).map(|s| membership.epoch(s)).collect(),
            primaries: (0..shards).map(|s| membership.primary_of(s)).collect(),
            replica_cache: replica_servers[crashed].cache_stats(),
            fenced_rejects: primary_servers[crashed].fenced_rejects(),
            repl: fed
                .shards()
                .iter()
                .map(|s| {
                    let stats =
                        |r: &Option<Arc<Replicator>>| r.as_ref().expect("replicator").stats();
                    (stats(&s.replicator), stats(&s.reverse))
                })
                .collect(),
        }
    })
}

fn join<T: ToString>(v: &[T]) -> String {
    v.iter()
        .map(|x| x.to_string())
        .collect::<Vec<_>>()
        .join(" / ")
}

pub(crate) fn run(quick: bool) {
    let shards = 2usize;
    let (files, bytes_per_file, chunk, crash_at, down_for) = if quick {
        (2usize, 6u64 << 20, 1u64 << 20, 800u64, 1_500u64)
    } else {
        (3usize, 16u64 << 20, 2u64 << 20, 2_500u64, 3_000u64)
    };
    let (heartbeat, lease) = (50u64, 200u64);
    let seed = 23u64;
    let crash = (Dur::from_millis(crash_at), Dur::from_millis(down_for));

    let clean = federation_run(shards, files, bytes_per_file, chunk, seed, None);
    let failover = federation_run(shards, files, bytes_per_file, chunk, seed, Some(crash));
    let promo = promotion_run(
        shards,
        files,
        bytes_per_file,
        chunk,
        seed,
        crash,
        (Dur::from_millis(heartbeat), Dur::from_millis(lease)),
    );
    let total_bits = (files as u64 * bytes_per_file) as f64 * 8.0;
    let goodput = |secs: f64| total_bits / secs / 1e6;
    let (clean_mbps, failover_mbps, promo_mbps) = (
        goodput(clean.secs),
        goodput(failover.secs),
        goodput(promo.secs),
    );
    // Zero acked-byte loss across every arm: all four checksum vectors are
    // bit-identical to the fault-free run.
    let want = &clean.primary_sums;
    let converged = &failover.primary_sums == want
        && &failover.replica_sums == want
        && &promo.sums.0 == want
        && &promo.sums.1 == want;
    let failover_hw = failover
        .repl
        .iter()
        .map(|r| r.queue_high_water)
        .max()
        .unwrap_or(0);
    let intact = |ok: bool| if ok { "bytes intact" } else { "MISMATCH" };

    let mut t = Table::new(
        &format!(
            "Federation HA ({shards} shards x primary+replica, 50 Mb/s client paths): \
             {files} x {} MiB files, owner of file 0 crashed at t={:.1}s for {:.1}s, \
             heartbeat {heartbeat}ms / lease {lease}ms, seed {seed}",
            bytes_per_file >> 20,
            crash.0.as_secs_f64(),
            crash.1.as_secs_f64(),
        ),
        &["metric", "value"],
    );
    t.row(vec!["fault-free write".into(), mbps(clean_mbps)]);
    t.row(vec![
        "fault-free time".into(),
        format!("{:.3} s", clean.secs),
    ]);
    t.row(vec!["failover-only write".into(), mbps(failover_mbps)]);
    t.row(vec![
        "failover-only time".into(),
        format!("{:.3} s", failover.secs),
    ]);
    t.row(vec!["promotion write".into(), mbps(promo_mbps)]);
    t.row(vec![
        "promotion time".into(),
        format!("{:.3} s", promo.secs),
    ]);
    t.row(vec![
        "goodput retained (failover-only)".into(),
        format!("{:.1} %", 100.0 * failover_mbps / clean_mbps.max(1e-9)),
    ]);
    t.row(vec![
        "goodput retained (promotion)".into(),
        format!("{:.1} %", 100.0 * promo_mbps / clean_mbps.max(1e-9)),
    ]);
    t.row(vec![
        "detoured ops (failover / promotion)".into(),
        format!("{} / {}", failover.failovers, promo.failovers),
    ]);
    t.row(vec![
        "divergence high-water (failover / promotion)".into(),
        format!("{failover_hw} / {} extents", promo.div_high_water),
    ]);
    for tr in &promo.ledger.entries {
        t.row(vec![
            format!(
                "[{:.3} s] shard {} {:?}",
                (tr.at - Time::ZERO).as_secs_f64(),
                tr.shard,
                tr.kind
            ),
            format!(
                "epoch {} seat {} ({} echoes, {} readies)",
                tr.epoch, tr.primary, tr.echoes, tr.readies
            ),
        ]);
    }
    t.row(vec!["final epochs".into(), join(&promo.epochs)]);
    t.row(vec!["final primary seats".into(), join(&promo.primaries)]);
    t.row(vec![
        "fenced writes rejected (old primary)".into(),
        promo.fenced_rejects.to_string(),
    ]);
    t.row(vec![
        "replica block cache (crashed shard)".into(),
        format!(
            "{} hits / {} misses",
            promo.replica_cache.hits, promo.replica_cache.misses
        ),
    ]);
    for (s, (fwd, rev)) in promo.repl.iter().enumerate() {
        t.row(vec![format!("shard {s} forward repl"), repl_cell(fwd)]);
        t.row(vec![format!("shard {s} reverse repl"), repl_cell(rev)]);
    }
    t.row(vec![
        "mid-outage reads (failover / promotion)".into(),
        format!(
            "{} / {}",
            intact(failover.outage_read_ok),
            intact(promo.outage_read_ok)
        ),
    ]);
    t.row(vec![
        "checksums (all arms vs fault-free)".into(),
        if converged {
            "bit-identical on every seat"
        } else {
            "DIVERGED"
        }
        .into(),
    ]);
    for (i, sum) in promo.sums.0.iter().enumerate() {
        t.row(vec![format!("file {i} adler32"), format!("{sum:08x}")]);
    }
    t.print();

    print_ledger("fault ledger (virtual time):", &promo.faults.ledger);
    assert!(converged, "acked bytes lost: checksums diverged");
    assert!(
        promo.ledger.promotions().count() >= 1,
        "lease expiry never promoted the replica"
    );
    assert!(
        promo_mbps > failover_mbps,
        "promotion arm did not beat failover-only: {promo_mbps:.3} vs {failover_mbps:.3} Mb/s"
    );
}
