//! Storage tier v2: the server block cache and client read leases over a
//! concurrency-aware disk model.
//!
//! The testbed is deliberately disk-bound: TG-NCSA geometry with WAN-tuned
//! TCP windows (so a single stream is limited by the 220 Mb/s WAN share,
//! not the window) over a 1 MB/s + 2 ms-seek vault with dslab-style
//! concurrency degradation. Three pass arms read a working set twice —
//! cold, then warm:
//!
//! * **hot set / server cache** — the set fits the cache; the warm pass
//!   serves every block from memory and skips the disk entirely;
//! * **scan / over capacity** — the set is larger than the cache, so a
//!   sequential re-scan evicts ahead of itself (LRU's classic failure,
//!   with a CLOCK row for comparison);
//! * **client leases** — lease-granted reads are cached *client-side*; the
//!   warm pass makes zero wire round-trips and completes in zero virtual
//!   time.
//!
//! A second table runs a Zipf(0.99)-skewed client swarm against the same
//! slow vault with the cache off and on. Entirely in virtual time and
//! seeded.

use semplar::{File, LeaseStats, OpenFlags, Payload};
use semplar_clusters::{ClusterSpec, Testbed};
use semplar_netsim::Bw;
use semplar_runtime::{Dur, SimRuntime};
use semplar_srb::vault::DiskSpec;
use semplar_srb::{CacheSpec, CacheStats, Eviction};
use semplar_workloads::{run_swarm, AccessSkew, SwarmParams};

use crate::table::Table;

/// A fresh simulation of the disk-bound testbed with `nodes` client nodes
/// and, when `cache` is set, that server block cache installed.
fn with_slow_vault<T, F>(nodes: usize, cache: Option<CacheSpec>, f: F) -> T
where
    T: Send + 'static,
    F: FnOnce(&Testbed) -> T + Send + 'static,
{
    let spec = ClusterSpec {
        send_window: 4 << 20,
        recv_window: 4 << 20,
        ..semplar_clusters::tg_ncsa()
    };
    let disk = DiskSpec {
        bandwidth: Bw::mbyte_per_s(1.0),
        seek: Dur::from_millis(2),
        degradation: 0.3,
    };
    SimRuntime::new().run_root(move |rt| {
        let tb = Testbed::with_server_disk(rt, spec, nodes, disk);
        if let Some(c) = cache {
            tb.server.set_block_cache(c);
        }
        f(&tb)
    })
}

/// One pass arm: write `objects` objects of `obj_bytes`, then read them all
/// twice. Returns (cold s, warm s, server cache counters, client lease
/// counters). `cache_bytes > 0` installs a server block cache of that
/// capacity; `leases` also turns on client read leases of the same size.
fn pass_arm(
    objects: usize,
    obj_bytes: u64,
    cache_bytes: u64,
    eviction: Eviction,
    leases: bool,
) -> (f64, f64, CacheStats, LeaseStats) {
    let cache = (cache_bytes > 0).then_some(CacheSpec {
        block: 256 << 10,
        capacity: cache_bytes,
        eviction,
    });
    with_slow_vault(1, cache, move |tb| {
        let rt = &tb.rt;
        let fs = tb.srbfs(0);
        if leases {
            fs.enable_read_leases(cache_bytes.max(1));
        }
        let admin = fs.admin_conn().unwrap();
        admin.mk_coll("/cache").unwrap();
        admin.disconnect().unwrap();
        for i in 0..objects {
            let f = File::open(rt, &fs, &format!("/cache/o{i}"), OpenFlags::CreateRw).unwrap();
            f.write_at(0, &Payload::sized(obj_bytes)).unwrap();
            f.close().unwrap();
        }
        // Open once, read twice: the passes time the *reads*, not the
        // per-object open/close round-trips.
        let files: Vec<File> = (0..objects)
            .map(|i| File::open(rt, &fs, &format!("/cache/o{i}"), OpenFlags::Read).unwrap())
            .collect();
        let pass = || {
            let t0 = rt.now();
            for f in &files {
                let got = f.read_at(0, obj_bytes).unwrap();
                assert_eq!(got.len(), obj_bytes);
            }
            (rt.now() - t0).as_secs_f64()
        };
        let cold = pass();
        let warm = pass();
        for f in files {
            f.close().unwrap();
        }
        (cold, warm, tb.server.cache_stats(), fs.lease_stats())
    })
}

/// The swarm arm: `clients` sessions of 1 write + 4 reads of 64 KiB each,
/// Zipf(0.99) over `hot_objects` shared objects. Returns (span s,
/// completed sessions, server cache counters).
fn swarm_arm(clients: usize, hot_objects: usize, cache_bytes: u64) -> (f64, usize, CacheStats) {
    let cache = (cache_bytes > 0).then_some(CacheSpec {
        block: 64 << 10,
        capacity: cache_bytes,
        eviction: Eviction::Lru,
    });
    with_slow_vault(2, cache, move |tb| {
        let params = SwarmParams {
            clients,
            writes: 1,
            reads: 4,
            bytes_per_op: 64 << 10,
            skew: Some(AccessSkew {
                theta: 0.99,
                hot_objects,
            }),
            coll: "/zipf".into(),
            ..SwarmParams::quick()
        };
        let report = run_swarm(tb, &params);
        (report.secs, report.completed(), tb.server.cache_stats())
    })
}

pub(crate) fn run(quick: bool) {
    let obj: u64 = if quick { 512 << 10 } else { 2 << 20 };
    let hot = if quick { 4 } else { 8 };
    let scan = if quick { 24 } else { 48 };
    let cache_bytes: u64 = if quick { 4 << 20 } else { 16 << 20 };
    let clients = if quick { 48 } else { 192 };

    let arms = [
        ("no cache (baseline)", hot, 0, Eviction::Lru, false),
        (
            "server cache, hot set",
            hot,
            cache_bytes,
            Eviction::Lru,
            false,
        ),
        (
            "server cache, scan > capacity (LRU)",
            scan,
            cache_bytes,
            Eviction::Lru,
            false,
        ),
        (
            "server cache, scan > capacity (CLOCK)",
            scan,
            cache_bytes,
            Eviction::Clock,
            false,
        ),
        (
            "client leases, hot set",
            hot,
            cache_bytes,
            Eviction::Lru,
            true,
        ),
    ]
    .map(|(name, objects, cache, eviction, leases)| {
        let (cold, warm, server, lease) = pass_arm(objects, obj, cache, eviction, leases);
        (name, objects, cold, warm, server, lease)
    });

    let mut t = Table::new(
        &format!(
            "Block cache & read leases on a disk-bound vault (1 MB/s + 2 ms seek): \
             two passes over {} x {} KiB objects, {} MiB cache",
            hot,
            obj >> 10,
            cache_bytes >> 20
        ),
        &[
            "arm",
            "cold (s)",
            "warm (s)",
            "cold Mb/s",
            "speedup",
            "hits",
            "misses",
            "evict",
            "saved KiB",
        ],
    );
    // Warm-over-cold speedup; `None` when the warm pass took zero virtual
    // time (pure client-cache hits — no wire, no disk).
    let speedup = |cold: f64, warm: f64| (warm > 0.0).then(|| cold / warm);
    for (name, objects, cold, warm, server, lease) in &arms {
        // Client-lease hits never reach the server; fold both tiers into
        // one hit/saved column so every arm reads the same way.
        let saved = server.bytes_saved + lease.bytes_saved;
        t.row(vec![
            name.to_string(),
            format!("{cold:.3}"),
            format!("{warm:.3}"),
            format!("{:.1}", (*objects as u64 * obj) as f64 * 8.0 / cold / 1e6),
            match speedup(*cold, *warm) {
                Some(s) => format!("{s:.1}x"),
                None => "inf (zero-wire)".into(),
            },
            (server.hits + lease.hits).to_string(),
            (server.misses + lease.misses).to_string(),
            server.evictions.to_string(),
            (saved >> 10).to_string(),
        ]);
    }
    t.print();

    let mut t = Table::new(
        &format!(
            "Zipf(0.99) swarm on the same vault: {clients} clients, 1 write + 4 reads \
             of 64 KiB over {hot} hot objects"
        ),
        &["arm", "secs", "completed", "hits", "misses", "hit rate"],
    );
    for (name, cache) in [("swarm, no cache", 0), ("swarm, server cache", cache_bytes)] {
        let (secs, completed, c) = swarm_arm(clients, hot, cache);
        let total = c.hits + c.misses;
        t.row(vec![
            name.to_string(),
            format!("{secs:.3}"),
            completed.to_string(),
            c.hits.to_string(),
            c.misses.to_string(),
            if total == 0 {
                "-".into()
            } else {
                format!("{:.0}%", c.hits as f64 * 100.0 / total as f64)
            },
        ]);
    }
    t.print();

    let (_, _, cold, warm, _, _) = arms[1];
    let lease = &arms[4].5;
    println!(
        "\nwarm hot-set speedup {:.1}x (acceptance: >= 5x); \
         client-lease arm: {} local hits, {} wire reads across both passes",
        speedup(cold, warm).unwrap_or(f64::INFINITY),
        lease.hits,
        lease.misses
    );
}
