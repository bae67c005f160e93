//! `bulk`: the shape of Figs. 8 and 9 on the NCSA TeraGrid cluster.
//!
//! `RANKS` ranks run a closed loop. Each writes its region through a
//! two-stream `StripedFile` (`StripeUnit::Adaptive`) in `CALL`-byte calls,
//! meets the others at a barrier, and reads the region back in the same
//! calls. Last, each rank pushes an `estgen` file through a
//! `CompressedWriter` with LZF and reads it back with `CompressedReader`.
//! The server block cache is on, and the read-back volume is at least four
//! times its capacity, so the region reads all miss.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

use semplar::{
    CompressedReader, CompressedWriter, ComputeModel, File, OpenFlags, Payload, StripeUnit,
    StripedFile,
};
use semplar_clusters::{tg_ncsa, Testbed, PASSWORD, USER};
use semplar_compress::Lzf;
use semplar_mpi::run_world;
use semplar_netsim::Bw;
use semplar_runtime::Dur;
use semplar_srb::CacheSpec;
use semplar_workloads::{generate, EstGenConfig};

use crate::harness::{self, simulate, unit, Cfg, Run, Stopwatch};
use crate::stats::{ms, percentile, ratio};
use crate::trace::{self, BackendCall, OpCtx, TimedCodec, TimedFs};

/// Ranks, one per node.
const RANKS: usize = 8;
/// Bytes per block call.
const CALL: u64 = 512 << 10;
/// Stripe block: the adaptive scheduler's granule.
const STRIPE_BLOCK: u64 = 128 << 10;
/// Connections behind each rank's striped file (the paper's two descriptors
/// per node).
const STREAMS: usize = 2;
/// Block calls per rank per phase for each second of `--seconds`.
const CALLS_PER_SECOND: f64 = 12.0;
/// Modelled compute before each block call, drawn uniformly from
/// `[0, 2 * THINK_MS]` per rank and call, so ranks drift out of step.
const THINK_MS: f64 = 20.0;
/// Server block-cache capacity; the read-back volume is at least 4× it.
const CACHE_BYTES: u64 = 16 << 20;
/// `estgen` bytes each rank compresses.
const EST_BYTES: usize = 2 << 20;
/// Compression pipeline block.
const EST_BLOCK: usize = 256 << 10;
/// Modelled compression rate on the reference CPU (the Fig. 9 default).
const COMPRESS_RATE_MBYTE: f64 = 100.0;
/// Barrier spans belong to no operation.
const NO_OP: u64 = 0;

/// The `estgen` inputs, one per rank, generated once per process and
/// before any set-up clock starts.
fn sources(seed: u64) -> Arc<Vec<Vec<u8>>> {
    static SOURCES: OnceLock<(u64, Arc<Vec<Vec<u8>>>)> = OnceLock::new();
    let (for_seed, data) = SOURCES.get_or_init(|| {
        let data = (0..RANKS)
            .map(|r| {
                generate(
                    EST_BYTES,
                    seed ^ ((r as u64) << 32),
                    &EstGenConfig::default(),
                )
            })
            .collect();
        (seed, Arc::new(data))
    });
    assert_eq!(*for_seed, seed, "one seed per process");
    data.clone()
}

/// What one rank reports.
#[derive(Default)]
struct RankOut {
    /// (op id, virtual start, virtual end) of each block call.
    calls: Vec<(u64, u64, u64)>,
    /// Block calls that failed or came back short.
    failed: u64,
    /// Whether the compressed file read back exactly.
    roundtrip: bool,
}

/// Run the workload.
pub fn run(cfg: &Cfg) -> Run {
    let cfg = cfg.clone();
    let calls_per_phase = cfg.work(CALLS_PER_SECOND, 1);
    let region = calls_per_phase * CALL;
    // The read-back volume must dwarf the cache, whatever `--seconds` is.
    let cache = CACHE_BYTES.min(RANKS as u64 * region / 4);
    let sources = sources(cfg.run_seed);
    simulate(move |rt, sim, setup| {
        // ---- set-up: testbed with cache, striped and compressed files ----
        let tb = Testbed::new(rt.clone(), tg_ncsa(), RANKS);
        tb.server.set_block_cache(CacheSpec {
            capacity: cache,
            ..CacheSpec::default()
        });
        let admin = tb
            .server
            .connect(tb.route(0), USER, PASSWORD)
            .expect("admin connect");
        admin.mk_coll("/bulk").expect("mk /bulk");
        let ctxs: Vec<Arc<OpCtx>> = (0..RANKS).map(|_| OpCtx::new()).collect();
        let mounts: Vec<_> = (0..RANKS).map(|r| tb.srbfs(r)).collect();
        let mut striped = Vec::with_capacity(RANKS);
        let mut est = Vec::with_capacity(RANKS);
        for r in 0..RANKS {
            let fs = TimedFs::new(Box::new(mounts[r].clone()), &rt, &cfg.tracer, &ctxs[r]);
            striped.push(
                StripedFile::open(
                    &rt,
                    &fs,
                    &format!("/bulk/region-r{r}"),
                    OpenFlags::CreateRw,
                    STREAMS,
                    StripeUnit::Adaptive {
                        block: STRIPE_BLOCK,
                    },
                )
                .expect("open striped region"),
            );
            est.push(
                File::open(&rt, &fs, &format!("/bulk/est-r{r}"), OpenFlags::CreateRw)
                    .expect("open compressed file"),
            );
        }
        let (striped, est) = (Arc::new(striped), Arc::new(est));
        let codec = Arc::new(TimedCodec::new(Lzf, &rt, &cfg.tracer));
        let mut run = Run {
            setup_s: setup.seconds(),
            ..Run::default()
        };
        // ---- timed phase ----
        let server0 = tb.server.stats();
        let cache0 = tb.server.cache_stats();
        let net0 = tb.net.stats();
        let watch = Stopwatch::start(&rt, &sim);
        let outs: Arc<Mutex<BTreeMap<usize, RankOut>>> = Arc::default();
        {
            let (tb, striped, est, outs, codec, sources) = (
                tb.clone(),
                striped.clone(),
                est.clone(),
                outs.clone(),
                codec.clone(),
                sources.clone(),
            );
            let (tracer, ctxs) = (cfg.tracer.clone(), ctxs.clone());
            let seed = cfg.seed;
            run_world(tb.topo.clone(), RANKS, move |r| {
                let rt = r.runtime().clone();
                let me = r.rank;
                let (f, ctx) = (&striped[me], &ctxs[me]);
                let mut out = RankOut::default();
                let mut block_call = |write: bool, k: u64| {
                    let think = 2.0 * THINK_MS * unit(seed, me as u64, 2 * k + u64::from(write));
                    tracer.span(&rt, "bulk.compute", 0, 0, |_| {
                        tb.compute(me, Dur::from_secs_f64(think / 1e3))
                    });
                    let op = tracer.id();
                    ctx.begin(op);
                    let name = if write {
                        "core.stripe.write"
                    } else {
                        "core.stripe.read"
                    };
                    let v0 = rt.now().as_nanos();
                    let ok = tracer.span(&rt, name, 0, op, |_| {
                        if write {
                            matches!(f.write_at(k * CALL, Payload::sized(CALL)), Ok(CALL))
                        } else {
                            matches!(f.read_at(k * CALL, CALL), Ok(ref p) if p.len() == CALL)
                        }
                    });
                    out.calls.push((op, v0, rt.now().as_nanos()));
                    out.failed += u64::from(!ok);
                };
                for k in 0..calls_per_phase {
                    block_call(true, k);
                }
                trace::barrier(&tracer, &r, NO_OP);
                for k in 0..calls_per_phase {
                    block_call(false, k);
                }

                let op = tracer.id();
                ctx.begin(op);
                let file = &est[me];
                let source = &sources[me];
                let written = tracer.span(&rt, "compress.pipeline", 0, op, |_| {
                    let mut w = CompressedWriter::new(file, codec.as_ref())
                        .block_size(EST_BLOCK)
                        .depth(2)
                        .compute_model(ComputeModel {
                            cpu: tb.cpu(me).clone(),
                            rate: Bw::mbyte_per_s(COMPRESS_RATE_MBYTE),
                        });
                    w.write(source).and_then(|()| w.finish())
                });
                let back = tracer.span(&rt, "compress.readback", 0, op, |_| {
                    CompressedReader::read_all(file, codec.as_ref())
                });
                out.roundtrip = written.is_ok() && back.as_deref() == Ok(&source[..]);
                outs.lock().expect("rank outputs poisoned").insert(me, out);
            });
        }
        let lap = watch.stop(&rt, &sim);
        let server1 = tb.server.stats();
        let cache1 = tb.server.cache_stats();
        let net1 = tb.net.stats();

        // ---- checks ----
        let outs = std::mem::take(&mut *outs.lock().expect("rank outputs poisoned"));
        let block_calls = 2 * RANKS as u64 * calls_per_phase;
        run.attempted = block_calls + RANKS as u64;
        let short: u64 = outs.values().map(|o| o.failed).sum();
        let roundtrips = outs.values().filter(|o| o.roundtrip).count() as u64;
        run.failed = short + (RANKS as u64 - roundtrips);
        run.check("bulk.every_block_call_full_length", short == 0);
        run.check(
            "bulk.compressed_roundtrip_exact",
            roundtrips == RANKS as u64,
        );

        // ---- end-to-end metrics ----
        let calls: Vec<BackendCall> = ctxs.iter().flat_map(|c| c.calls()).collect();
        let ops: Vec<(u64, u64, u64)> = outs
            .values()
            .flat_map(|o| o.calls.iter().copied())
            .collect();
        let latency: Vec<f64> = ops.iter().map(|&(_, v0, v1)| ms(v1 - v0)).collect();
        let useful = 2 * RANKS as u64 * region + 2 * (RANKS * EST_BYTES) as u64;
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
        harness::request_layer(&mut run, &ops, &calls);
        harness::backend_layer(&mut run, &calls);
        harness::engine_layer(&mut run, est.iter().map(|f| f.engine_stats()));
        let stripe: Vec<_> = striped.iter().map(|f| f.stripe_stats()).collect();
        let per_stream: Vec<f64> = stripe
            .iter()
            .flat_map(|s| s.bytes.iter().map(|&b| b as f64))
            .collect();
        let mean_bytes = per_stream.iter().sum::<f64>() / per_stream.len() as f64;
        let max_bytes = per_stream.iter().copied().fold(0.0, f64::max);
        run.layer(
            "core.stripe.blocks",
            stripe.iter().flat_map(|s| s.blocks.iter()).sum::<u64>() as f64,
        );
        run.layer(
            "core.stripe.migrated",
            stripe.iter().map(|s| s.migrated).sum::<u64>() as f64,
        );
        run.layer(
            "core.stripe.requeued",
            stripe.iter().map(|s| s.requeued).sum::<u64>() as f64,
        );
        run.layer("core.stripe.imbalance", ratio(max_bytes, mean_bytes));
        harness::recovery_layer(&mut run, mounts.iter().map(|m| m.recovery_stats()));
        let codec_totals = codec.totals();
        run.layer("compress.calls", codec_totals.calls as f64);
        run.layer("compress.bytes_in", codec_totals.bytes_in as f64);
        run.layer(
            "compress.mb_per_s",
            ratio(
                codec_totals.bytes_in as f64 / 1e6,
                codec_totals.compress_ns as f64 / 1e9,
            ),
        );
        run.layer(
            "compress.ratio",
            ratio(codec_totals.bytes_out as f64, codec_totals.bytes_in as f64),
        );
        harness::server_layer(&mut run, &server0, &server1, block_calls);
        harness::cache_layer(&mut run, &cache0, &cache1);

        for (f, e) in striped.iter().zip(est.iter()) {
            f.close().expect("close striped region");
            e.close().expect("close compressed file");
        }
        run.spans = cfg.tracer.spans();
        run
    })
}
