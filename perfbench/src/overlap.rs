//! `overlap`: the paper's §7.1 Laplace-checkpoint shape on DAS-2.
//!
//! `RANKS` ranks run a closed loop, each over its own per-open SRBFS file
//! (one TCP connection, one I/O thread). Every iteration does modelled
//! compute, a ring halo exchange through `semplar_mpi`, then waits for the
//! previous checkpoint request and issues the next `File::iwrite_at` (the
//! paper's `MPIO_Wait` placement). A write-path `Replicator` ships every
//! server write to a second server on the same network. The checkpoints
//! cycle through `SLOTS` slots of each rank's file, so the server keeps a
//! bounded amount of real data.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use semplar::{File, OpenFlags, Payload};
use semplar_clusters::{das2, orion_cfg, Testbed, PASSWORD, USER};
use semplar_mpi::run_world;
use semplar_netsim::Bw;
use semplar_runtime::Dur;
use semplar_srb::{adler32, ConnRoute, Replicator, RetryPolicy, SrbServer, SrbServerCfg};

use crate::harness::{self, pattern, simulate, unit, Cfg, Run, Stopwatch};
use crate::stats::{ms, percentile, ratio};
use crate::trace::{self, timed_wait, OpCtx, Span, TimedFs};

/// Ranks, one per DAS-2 node.
const RANKS: usize = 8;
/// Checkpoint bytes per iwrite are drawn uniformly from
/// `[CKPT_MIN, CKPT_MAX]` per rank and iteration: a 64 KiB mean.
const CKPT_MIN: u64 = 48 << 10;
const CKPT_MAX: u64 = 80 << 10;
/// Checkpoint slots per rank file, `CKPT_MAX` bytes apart.
const SLOTS: u64 = 4;
/// Halo bytes sent to each neighbour per iteration (one 3001-point row).
const HALO: u64 = 3001 * 8;
/// Iterations per rank for each second of `--seconds`.
const ITERS_PER_SECOND: f64 = 120.0;
/// Mean modelled compute per iteration, near one checkpoint's I/O time.
const COMPUTE_MS: f64 = 360.0;
/// Compute varies uniformly by this share either side of the mean.
const COMPUTE_JITTER: f64 = 0.2;
/// Halo-exchange message tags.
const TAG_RIGHT: u32 = 7;
const TAG_LEFT: u32 = 8;

fn ckpt_path(rank: usize) -> String {
    format!("/ckpt/r{rank}")
}

/// Bytes of rank `rank`'s checkpoint at iteration `it`.
fn ckpt_len(seed: u64, rank: usize, it: u64) -> u64 {
    let u = unit(seed ^ 0xC4EC_4B01, rank as u64, it);
    CKPT_MIN + (u * (CKPT_MAX - CKPT_MIN + 1) as f64) as u64
}

/// What one rank reports.
#[derive(Default)]
struct RankOut {
    /// (op id, submit virtual ns, iteration span, submit wall ns).
    submits: Vec<(u64, u64, u64, u64)>,
    /// Virtual ns blocked in each wait.
    blocked: Vec<u64>,
    /// Requests that completed with an error or a short count.
    failed: u64,
    /// Bytes submitted.
    submitted: u64,
    /// What the rank's file must hold once every write has landed.
    model: Vec<u8>,
    /// Deepest engine queue seen right after a submit.
    depth_max: usize,
}

/// Run the workload.
pub fn run(cfg: &Cfg) -> Run {
    let cfg = cfg.clone();
    simulate(move |rt, sim, setup| {
        // ---- set-up: testbed, replica, replicator, files ----
        let tb = Testbed::new(rt.clone(), das2(), RANKS);
        let replica = SrbServer::new(
            tb.net.clone(),
            SrbServerCfg {
                name: "replica".into(),
                ..orion_cfg()
            },
        );
        replica.mcat().add_user("fed", "fed");
        let link = |name: &str| tb.net.add_link(name, Bw::gbps(1.0), Dur::from_millis(1));
        let repl_route = ConnRoute {
            fwd: vec![link("repl-fwd")],
            rev: vec![link("repl-rev")],
            send_cap: None,
            recv_cap: None,
            bus: None,
        };
        let repl = Replicator::start(
            &rt,
            tb.server.clone(),
            replica.clone(),
            repl_route.clone(),
            "fed",
            "fed",
            RetryPolicy::default(),
        );
        let admin = tb
            .server
            .connect(tb.route(0), USER, PASSWORD)
            .expect("admin connect");
        admin.mk_coll("/ckpt").expect("mk /ckpt");
        let ctxs: Vec<Arc<OpCtx>> = (0..RANKS).map(|_| OpCtx::new()).collect();
        let mounts: Vec<_> = (0..RANKS).map(|r| tb.srbfs(r)).collect();
        let files: Arc<Vec<File>> = Arc::new(
            (0..RANKS)
                .map(|r| {
                    let fs = TimedFs::new(Box::new(mounts[r].clone()), &rt, &cfg.tracer, &ctxs[r]);
                    File::open(&rt, &fs, &ckpt_path(r), OpenFlags::CreateRw)
                        .expect("open checkpoint file")
                })
                .collect(),
        );
        let iters = cfg.work(ITERS_PER_SECOND, SLOTS);
        let mut run = Run {
            setup_s: setup.seconds(),
            ..Run::default()
        };
        // ---- timed phase ----
        let server0 = tb.server.stats();
        let net0 = tb.net.stats();
        let watch = Stopwatch::start(&rt, &sim);
        let outs: Arc<Mutex<BTreeMap<usize, RankOut>>> = Arc::default();
        {
            let (tb, files, outs, tracer) =
                (tb.clone(), files.clone(), outs.clone(), cfg.tracer.clone());
            let ctxs = ctxs.clone();
            let seed = cfg.seed;
            run_world(tb.topo.clone(), RANKS, move |r| {
                let rt = r.runtime().clone();
                let (me, n) = (r.rank, r.size);
                let (right, left) = ((me + 1) % n, (me + n - 1) % n);
                let file = &files[me];
                let mut out = RankOut::default();
                let mut pending: Option<(u64, u64, semplar::Request)> = None;
                for it in 0..iters {
                    tracer.span(&rt, "overlap.iter", 0, 0, |sid| {
                        let jitter = 1.0 + COMPUTE_JITTER * (2.0 * unit(seed, me as u64, it) - 1.0);
                        let work = Dur::from_secs_f64(COMPUTE_MS * jitter / 1e3);
                        tracer.span(&rt, "overlap.compute", sid, 0, |_| tb.compute(me, work));
                        tracer.span(&rt, "mpi.exchange", sid, 0, |xid| {
                            trace::send(&tracer, &r, xid, right, TAG_RIGHT, (), HALO);
                            trace::send(&tracer, &r, xid, left, TAG_LEFT, (), HALO);
                            let _: (usize, ()) =
                                trace::recv(&tracer, &r, xid, Some(left), TAG_RIGHT);
                            let _: (usize, ()) =
                                trace::recv(&tracer, &r, xid, Some(right), TAG_LEFT);
                        });
                        if let Some((op, len, req)) = pending.take() {
                            let (res, blocked) = timed_wait(&tracer, &rt, &req, sid, op);
                            out.blocked.push(blocked);
                            out.failed += u64::from(!matches!(res, Ok(ref s) if s.bytes == len));
                        }
                        let op = tracer.id();
                        ctxs[me].begin(op);
                        let len = ckpt_len(seed, me, it);
                        let offset = (it % SLOTS) * CKPT_MAX;
                        let data = pattern(seed, me as u64, it, len as usize);
                        let end = (offset + len) as usize;
                        if out.model.len() < end {
                            out.model.resize(end, 0);
                        }
                        out.model[offset as usize..end].copy_from_slice(&data);
                        out.submitted += len;
                        out.submits
                            .push((op, rt.now().as_nanos(), sid, tracer.wall_ns()));
                        pending = Some((op, len, file.iwrite_at(offset, Payload::bytes(data))));
                        out.depth_max = out.depth_max.max(file.queue_depth());
                    });
                }
                if let Some((op, len, req)) = pending.take() {
                    let (res, blocked) = timed_wait(&tracer, &rt, &req, 0, op);
                    out.blocked.push(blocked);
                    out.failed += u64::from(!matches!(res, Ok(ref s) if s.bytes == len));
                }
                outs.lock().expect("rank outputs poisoned").insert(me, out);
            });
        }
        let lap = watch.stop(&rt, &sim);
        let server1 = tb.server.stats();
        let net1 = tb.net.stats();

        // ---- replication drain and checks ----
        repl.quiesce();
        let drain_ms = ms(rt.now().as_nanos() - lap.v1);
        let replica_conn = replica
            .connect(repl_route, "fed", "fed")
            .expect("replica connect");
        let outs = std::mem::take(&mut *outs.lock().expect("rank outputs poisoned"));
        let total_ops = RANKS as u64 * iters;
        run.attempted = total_ops;
        run.failed = outs.values().map(|o| o.failed).sum();
        let mut sums_match = true;
        let mut replica_match = true;
        for (r, o) in &outs {
            let primary = admin.checksum(&ckpt_path(*r)).expect("primary checksum");
            let copy = replica_conn
                .checksum(&ckpt_path(*r))
                .expect("replica checksum");
            sums_match &= primary == adler32(&o.model);
            replica_match &= copy == primary;
        }
        let submitted: u64 = outs.values().map(|o| o.submitted).sum();
        let written = server1.bytes_written - server0.bytes_written;
        run.check("overlap.primary_holds_last_checkpoints", sums_match);
        run.check("overlap.replica_checksum_equals_primary", replica_match);
        run.check(
            "overlap.server_bytes_written_equal_submitted",
            written == submitted,
        );
        run.check("overlap.every_iwrite_completed", run.failed == 0);
        if !(sums_match && replica_match && written == submitted) {
            run.failed = run.failed.max(1);
        }

        // ---- end-to-end metrics ----
        let calls: Vec<trace::BackendCall> = ctxs.iter().flat_map(|c| c.calls()).collect();
        // A request completes when its backend write returns.
        let done: BTreeMap<u64, (u64, u64)> = calls
            .iter()
            .filter(|c| c.write)
            .map(|c| (c.op, (c.v1, c.w1)))
            .collect();
        let mut ops = Vec::new();
        for o in outs.values() {
            for &(op, v0, sid, w0) in &o.submits {
                let Some(&(v1, w1)) = done.get(&op) else {
                    continue;
                };
                ops.push((op, v0, v1));
                cfg.tracer.record(Span {
                    name: "core.request",
                    id: op,
                    parent: sid,
                    op,
                    v0,
                    v1,
                    w0,
                    w1,
                });
            }
        }
        let latency: Vec<f64> = ops.iter().map(|&(_, v0, v1)| ms(v1 - v0)).collect();
        let blocked: u64 = outs.values().flat_map(|o| o.blocked.iter()).sum();
        let latency_sum: f64 = latency.iter().sum();
        run.wall_s = lap.wall_s;
        run.proc = lap.proc;
        run.virt("virtual_s", lap.virtual_s);
        run.virt("goodput_mbps", submitted as f64 * 8.0 / lap.virtual_s / 1e6);
        run.virt("op_p50_ms", percentile(&latency, 50.0));
        run.virt("op_p99_ms", percentile(&latency, 99.0));
        run.latencies = latency.clone();
        let overlap = 100.0 * (1.0 - ratio(ms(blocked), latency_sum));
        run.virt("overlap_pct", overlap);

        // ---- per-layer metrics ----
        harness::runtime_layer(&mut run, &lap);
        harness::netsim_layer(&mut run, &net0, &net1, lap.wall_s);
        harness::request_layer(&mut run, &ops, &calls);
        run.layer("core.wait_blocked_ms", ms(blocked) / RANKS as f64);
        run.layer("core.overlap_pct", overlap);
        harness::backend_layer(&mut run, &calls);
        harness::engine_layer(&mut run, files.iter().map(|f| f.engine_stats()));
        run.layer(
            "core.queue_depth_max",
            outs.values().map(|o| o.depth_max).max().unwrap_or(0) as f64,
        );
        harness::recovery_layer(&mut run, mounts.iter().map(|m| m.recovery_stats()));
        harness::server_layer(&mut run, &server0, &server1, total_ops);
        let rs = repl.stats();
        run.layer("srb.repl.shipped_blocks", rs.shipped_blocks as f64);
        run.layer("srb.repl.shipped_bytes", rs.shipped_bytes as f64);
        run.layer("srb.repl.reships", rs.reships as f64);
        run.layer("srb.repl.high_water", rs.queue_high_water as f64);
        run.layer("srb.repl.drain_ms", drain_ms);

        for f in files.iter() {
            f.close().expect("close checkpoint file");
        }
        run.spans = cfg.tracer.spans();
        run
    })
}
