//! `swarm`: an open loop of event-driven client sessions on the NCSA
//! TeraGrid cluster, through `run_swarm`.
//!
//! Two nodes each multiplex their sessions over `STREAMS` pooled streams;
//! two tenants share the server behind the `TenantScheduler` DRR gate.
//! Each session opens, writes once, reads twice and closes a 64 KiB object
//! drawn Zipf(0.99) from a hot set of at most half the server block cache.
//! Arrivals are heavy-tailed and seeded, their gaps scaled so that each
//! round offers exactly `RATE_PER_S`, below half the measured session
//! capacity, so the backlog stays flat. Latency runs from
//! each session's scheduled arrival.

use std::collections::BTreeMap;

use semplar_clusters::{tg_ncsa, Testbed, PASSWORD, USER};
use semplar_runtime::Dur;
use semplar_srb::{CacheSpec, OpenFlags, Payload, TenantId, TenantScheduler};
use semplar_workloads::{
    heavy_tailed_arrivals, run_swarm, AccessSkew, SwarmMode, SwarmParams, TenantMix,
};

use crate::harness::{self, simulate, Cfg, Run, Stopwatch};
use crate::stats::{mean, ms, percentile, ratio};
use crate::trace::Span;

/// Client nodes.
const NODES: usize = 2;
/// Pooled streams per node.
const STREAMS: usize = 4;
/// Concurrent exchanges per stream.
const INFLIGHT: usize = 8;
/// Session object size and per-operation payload.
const OBJECT: u64 = 64 << 10;
/// Reads per session.
const READS: u32 = 2;
/// Hot-set objects: 2 MiB, a quarter of the cache.
const HOT: usize = 32;
/// Server block-cache capacity.
const CACHE_BYTES: u64 = 8 << 20;
/// Zipf exponent of the object popularity.
const THETA: f64 = 0.99;
/// Session arrivals per virtual second.
const RATE_PER_S: f64 = 18.0;
/// Sessions for each second of `--seconds`.
const SESSIONS_PER_SECOND: f64 = 350.0;
/// DRR quantum and service width (the `fig_tenants` gate).
const QUANTUM: u64 = 64 << 10;
const WIDTH: usize = 48;
/// Largest `swarm.backlog_ratio` for which the open loop still counts as
/// keeping up (latency of the last decile over the first).
const BACKLOG_LIMIT: f64 = 3.0;
const COLL: &str = "/swarm";

/// Run the workload.
pub fn run(cfg: &Cfg) -> Run {
    let cfg = cfg.clone();
    let sessions = cfg.work(SESSIONS_PER_SECOND, 20) as usize;
    // The heavy tail makes the rate a seed realises wander from the
    // nominal one; scale the gaps so every round offers exactly
    // `RATE_PER_S` over its sessions, and the tail keeps its shape.
    let nominal = 1.0 / RATE_PER_S;
    let drawn = heavy_tailed_arrivals(cfg.seed, sessions, Dur::from_secs_f64(nominal));
    let span = drawn.last().map_or(0.0, |d| d.as_secs_f64());
    let mean_gap = Dur::from_secs_f64(nominal * ratio(nominal * sessions as f64, span));
    simulate(move |rt, sim, setup| {
        // ---- set-up: testbed, cache, DRR gate, hot set written and read ----
        let tb = Testbed::new(rt.clone(), tg_ncsa(), NODES);
        tb.server.set_block_cache(CacheSpec {
            capacity: CACHE_BYTES,
            ..CacheSpec::default()
        });
        let sched = TenantScheduler::new(&rt, QUANTUM, WIDTH);
        tb.server.set_tenant_scheduler(sched.clone());
        let admin = tb
            .server
            .connect(tb.route(0), USER, PASSWORD)
            .expect("admin connect");
        admin.mk_coll(COLL).expect("mk swarm collection");
        for j in 0..HOT {
            let fd = admin
                .open(&format!("{COLL}/h{j}"), OpenFlags::CreateRw)
                .expect("create hot object");
            admin
                .write(fd, 0, Payload::sized(OBJECT))
                .expect("write hot object");
            admin.read(fd, 0, OBJECT).expect("warm the cache");
            admin.close_fd(fd).expect("close hot object");
        }
        let params = SwarmParams {
            clients: sessions,
            streams_per_node: STREAMS,
            inflight_per_stream: INFLIGHT,
            mix: TenantMix::new(&[(TenantId(1), 1), (TenantId(2), 1)]),
            writes: 1,
            reads: READS,
            bytes_per_op: OBJECT,
            mean_gap,
            think: Dur::ZERO,
            seed: cfg.seed,
            real_payload: false,
            mode: SwarmMode::Tasks,
            coll: COLL.into(),
            abuse: None,
            per_tenant_streams: false,
            skew: Some(AccessSkew {
                theta: THETA,
                hot_objects: HOT,
            }),
        };
        let mut run = Run {
            setup_s: setup.seconds(),
            ..Run::default()
        };
        // ---- timed phase ----
        let server0 = tb.server.stats();
        let cache0 = tb.server.cache_stats();
        let admitted0 = sched.admitted();
        let net0 = tb.net.stats();
        let watch = Stopwatch::start(&rt, &sim);
        let report = cfg.tracer.span(&rt, "workloads.run_swarm", 0, 0, |_| {
            run_swarm(&tb, &params)
        });
        let lap = watch.stop(&rt, &sim);
        let server1 = tb.server.stats();
        let cache1 = tb.server.cache_stats();
        let net1 = tb.net.stats();

        // ---- latency from the scheduled arrival ----
        // `run_swarm` starts its arrival clock after warming its pools; the
        // earliest session that started on time pins that instant.
        let offsets = heavy_tailed_arrivals(cfg.seed, sessions, params.mean_gap);
        let start = report
            .outcomes
            .iter()
            .zip(&offsets)
            .map(|(o, off)| o.arrival_ns - off.as_nanos())
            .min()
            .unwrap_or(0);
        let due: Vec<u64> = offsets.iter().map(|off| start + off.as_nanos()).collect();
        let latency: Vec<f64> = report
            .outcomes
            .iter()
            .zip(&due)
            .map(|(o, &d)| ms(o.done_ns - d))
            .collect();
        for (o, &d) in report.outcomes.iter().zip(&due) {
            let id = cfg.tracer.id();
            cfg.tracer.record(Span {
                name: "swarm.session",
                id,
                parent: 0,
                op: id,
                v0: d,
                v1: o.done_ns,
                w0: 0,
                w1: 0,
            });
        }
        let lag_max = report
            .outcomes
            .iter()
            .zip(&due)
            .map(|(o, &d)| o.arrival_ns - d)
            .max()
            .unwrap_or(0);
        let decile = (sessions / 10).max(1);
        let backlog = ratio(
            percentile(&latency[sessions - decile..], 50.0),
            percentile(&latency[..decile], 50.0),
        );

        // ---- checks ----
        let ok = report.completed() as u64;
        let reads = (cache1.hits - cache0.hits) + (cache1.misses - cache0.misses);
        run.attempted = sessions as u64;
        run.failed = sessions as u64 - ok;
        run.check("swarm.every_session_ok", ok == sessions as u64);
        run.check(
            "swarm.cache_hits_plus_misses_equal_reads",
            reads == sessions as u64 * READS as u64,
        );
        run.check("swarm.backlog_ratio_bounded", backlog <= BACKLOG_LIMIT);

        // ---- end-to-end metrics ----
        let useful = sessions as u64 * (1 + READS as u64) * OBJECT;
        run.wall_s = lap.wall_s;
        run.proc = lap.proc;
        run.virt("virtual_s", lap.virtual_s);
        run.virt("goodput_mbps", useful as f64 * 8.0 / lap.virtual_s / 1e6);
        run.virt("op_p50_ms", percentile(&latency, 50.0));
        run.virt("op_p99_ms", percentile(&latency, 99.0));
        run.latencies = latency.clone();

        // ---- per-layer metrics ----
        harness::runtime_layer(&mut run, &lap);
        harness::netsim_layer(&mut run, &net0, &net1, lap.wall_s);
        harness::server_layer(&mut run, &server0, &server1, sessions as u64);
        harness::cache_layer(&mut run, &cache0, &cache1);
        run.layer("srb.qos.admitted", (sched.admitted() - admitted0) as f64);
        // `run_swarm` owns its pools, so the pool figures come from its
        // fixed client-to-slot mapping: client `i` rides node `i % NODES`,
        // slot `(i / NODES) % STREAMS`.
        // Less the one set-up session `run_swarm` dials before its pools.
        run.layer(
            "srb.pool.live_streams",
            (server1.connections - server0.connections).saturating_sub(1) as f64,
        );
        let mut slots: BTreeMap<(usize, usize), (u64, Vec<f64>)> = BTreeMap::new();
        for (i, (o, l)) in report.outcomes.iter().zip(&latency).enumerate() {
            let slot = slots.entry((i % NODES, (i / NODES) % STREAMS)).or_default();
            slot.0 += (1 + READS as u64) * OBJECT * u64::from(o.ok);
            slot.1.push(*l);
        }
        let slot_goodput: Vec<f64> = slots
            .values()
            .map(|(bytes, _)| *bytes as f64 * 8.0 / lap.virtual_s / 1e6)
            .collect();
        let slot_latency: Vec<f64> = slots.values().map(|(_, l)| mean(l)).collect();
        run.layer("srb.pool.slot_goodput_mbps", mean(&slot_goodput));
        run.layer("srb.pool.slot_latency_ms", mean(&slot_latency));
        run.layer("swarm.arrival_lag_max_ms", ms(lag_max));
        run.layer("swarm.backlog_ratio", backlog);
        run.spans = cfg.tracer.spans();
        run
    })
}
