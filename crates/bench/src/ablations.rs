//! Ablations of the design choices behind the paper's three optimizations
//! (beyond what the paper itself measured):
//!
//! 1. stream count 1–16 (the paper stopped at 2 and left the sweep as
//!    future work, §7.2);
//! 2. TCP window size for a single stream (the §7.2 mechanism itself);
//! 3. compression pipeline depth (0 = compress in the critical path);
//! 4. I/O-thread count on ONE connection vs one-thread-per-connection
//!    (the paper's §4.3 claim that threads need their own TCP streams);
//! 5. the RTT below which on-the-fly compression stops paying (the §1
//!    feasibility condition flips sign);
//! 6. codec choice on the transoceanic path (§7.3's "more sophisticated
//!    compression algorithms").

use std::sync::Arc;

use semplar::{
    CompressedWriter, ComputeModel, EngineCfg, File, OpenFlags, Payload, Request, StripeUnit,
    StripedFile,
};
use semplar_clusters::das2;
use semplar_compress::Lzf;
use semplar_netsim::Bw;
use semplar_runtime::Dur;
use semplar_workloads::estgen::{generate, EstGenConfig};

use crate::table::Table;
use crate::with_testbed;

/// Ablations have one size; `--quick` runs the same sweeps.
pub(crate) fn run(_quick: bool) {
    streams_sweep();
    window_sweep();
    depth_sweep();
    io_thread_sweep();
    rtt_crossover();
    codec_sweep();
}

/// 1. Stream-count sweep: throughput of one DAS-2 node's 16 MB section.
fn streams_sweep() {
    let mut t = Table::new(
        "Ablation 1: streams per node (das2, 16 MB write)",
        &["streams", "Mb/s", "speedup vs 1"],
    );
    let mut base = 0.0;
    for streams in [1usize, 2, 4, 8, 16] {
        let (mbps, _) = with_testbed(das2(), 1, move |tb| {
            let fs = tb.srbfs(0);
            let f = StripedFile::open(
                &tb.rt,
                &fs,
                "/s",
                OpenFlags::CreateRw,
                streams,
                StripeUnit::Even,
            )
            .unwrap();
            let t0 = tb.rt.now();
            f.write_at(0, Payload::sized(16 << 20)).unwrap();
            let dt = (tb.rt.now() - t0).as_secs_f64();
            f.close().unwrap();
            (16u64 << 20) as f64 * 8.0 / dt / 1e6
        });
        if streams == 1 {
            base = mbps;
        }
        t.row(vec![
            streams.to_string(),
            format!("{mbps:.2}"),
            format!("{:.2}x", mbps / base),
        ]);
    }
    t.print();
    println!(
        "(window-capped streams scale ~linearly until the 100 Mb/s node NIC / WAN share binds)"
    );
}

/// 2. TCP window sweep: the per-stream cap mechanism.
fn window_sweep() {
    let mut t = Table::new(
        "Ablation 2: TCP send window, single stream (das2 path, 8 MB write)",
        &["window (KiB)", "cap (Mb/s)", "measured (Mb/s)"],
    );
    for kib in [16u64, 32, 64, 128, 256, 512, 1024] {
        let mut spec = das2();
        spec.send_window = kib * 1024;
        let cap = spec.send_cap().as_mbps();
        let (mbps, _) = with_testbed(spec, 1, move |tb| {
            let fs = tb.srbfs(0);
            let f = File::open(&tb.rt, &fs, "/w", OpenFlags::CreateRw).unwrap();
            let t0 = tb.rt.now();
            f.write_at(0, &Payload::sized(8 << 20)).unwrap();
            let dt = (tb.rt.now() - t0).as_secs_f64();
            f.close().unwrap();
            (8u64 << 20) as f64 * 8.0 / dt / 1e6
        });
        t.row(vec![
            kib.to_string(),
            format!("{cap:.2}"),
            format!("{mbps:.2}"),
        ]);
    }
    t.print();
    println!("(throughput tracks window/RTT until the shared WAN path takes over — tuned windows were the era's alternative to SEMPLAR's parallel streams)");
}

/// 3. Pipeline depth for compressed writes.
fn depth_sweep() {
    let data = Arc::new(generate(16 << 20, 3, &EstGenConfig::default()));
    let mut t = Table::new(
        "Ablation 3: compression pipeline depth (10 ms RTT path, 16 MB EST text)",
        &["depth", "app Mb/s"],
    );
    // A lower-latency path so compression time and transmission time are
    // comparable — the regime where pipeline depth actually matters (on
    // the 182 ms DAS-2 path transmission dwarfs everything and any depth
    // ≥ 1 is enough).
    let mut spec = das2();
    spec.wan_owd = Dur::from_millis(5);
    for depth in [0usize, 1, 2, 4, 8] {
        let d2 = data.clone();
        let (mbps, _) = with_testbed(spec.clone(), 1, move |tb| {
            let fs = tb.srbfs(0);
            let f = File::open(&tb.rt, &fs, "/z", OpenFlags::CreateRw).unwrap();
            let codec = Lzf;
            let t0 = tb.rt.now();
            let mut w = CompressedWriter::new(&f, &codec)
                .depth(depth)
                .compute_model(ComputeModel {
                    cpu: tb.cpu(0).clone(),
                    rate: Bw::mbyte_per_s(100.0),
                })
                .sized_output();
            for chunk in d2.chunks(1 << 20) {
                tb.local_read(0, chunk.len() as u64);
                w.write(chunk).unwrap();
            }
            w.finish().unwrap();
            let dt = (tb.rt.now() - t0).as_secs_f64();
            f.close().unwrap();
            (16u64 << 20) as f64 * 8.0 / dt / 1e6
        });
        t.row(vec![depth.to_string(), format!("{mbps:.2}")]);
    }
    t.print();
    println!("(depth 0 = compress in the critical path; the paper's depth-2 pipeline captures nearly all of the benefit)");
}

/// 4. I/O threads on one connection vs one connection per thread.
fn io_thread_sweep() {
    let mut t = Table::new(
        "Ablation 4: I/O threads vs connections (das2, 8 × 1 MB async writes)",
        &["configuration", "elapsed (s)"],
    );
    // N threads sharing ONE connection: requests serialize on the stream.
    for threads in [1usize, 2, 4] {
        let (secs, _) = with_testbed(das2(), 1, move |tb| {
            let fs = tb.srbfs(0);
            let f = File::open_with(
                &tb.rt,
                &fs,
                "/one-conn",
                OpenFlags::CreateRw,
                EngineCfg {
                    io_threads: threads,
                    prespawn: true,
                    ..EngineCfg::default()
                },
            )
            .unwrap();
            let t0 = tb.rt.now();
            let reqs: Vec<Request> = (0..8)
                .map(|i| f.iwrite_at(i << 20, Payload::sized(1 << 20)))
                .collect();
            Request::wait_all(&reqs).unwrap();
            let dt = (tb.rt.now() - t0).as_secs_f64();
            f.close().unwrap();
            dt
        });
        t.row(vec![
            format!("{threads} threads, 1 connection"),
            format!("{secs:.1}"),
        ]);
    }
    // One thread per connection: real parallelism.
    for streams in [2usize, 4] {
        let (secs, _) = with_testbed(das2(), 1, move |tb| {
            let fs = tb.srbfs(0);
            let f = StripedFile::open(
                &tb.rt,
                &fs,
                "/n-conn",
                OpenFlags::CreateRw,
                streams,
                StripeUnit::Bytes(1 << 20),
            )
            .unwrap();
            let t0 = tb.rt.now();
            f.write_at(0, Payload::sized(8 << 20)).unwrap();
            let dt = (tb.rt.now() - t0).as_secs_f64();
            f.close().unwrap();
            dt
        });
        t.row(vec![
            format!("{streams} threads, {streams} connections"),
            format!("{secs:.1}"),
        ]);
    }
    t.print();
    println!("(paper §4.3: \"if all the I/O threads share a single TCP connection ... this reduces the parallelism\" — extra threads without extra streams buy nothing)");
}

/// 5. The RTT at which asynchronous compression stops paying.
///
/// Uses a heavier codec model (8 MB/s — the "more sophisticated
/// compression algorithms" the paper §7.3 muses about) so the feasibility
/// condition genuinely flips within the sweep.
fn rtt_crossover() {
    const HEAVY_CODEC_RATE: f64 = 8.0; // MB/s
    let data = Arc::new(generate(8 << 20, 9, &EstGenConfig::default()));
    let mut t = Table::new(
        "Ablation 5: compression feasibility vs RTT (das2-like path, 8 MB)",
        &[
            "RTT (ms)",
            "uncompressed Mb/s",
            "async-compressed Mb/s",
            "compression wins?",
        ],
    );
    for rtt_ms in [2u64, 5, 10, 30, 80, 182] {
        let mut spec = das2();
        spec.wan_owd = Dur::from_millis(rtt_ms / 2);
        let d2 = data.clone();
        let ((plain, compressed), _) = with_testbed(spec, 1, move |tb| {
            let fs = tb.srbfs(0);
            let run_plain = {
                let f = File::open(&tb.rt, &fs, "/p", OpenFlags::CreateRw).unwrap();
                let t0 = tb.rt.now();
                for i in 0..8u64 {
                    tb.local_read(0, 1 << 20);
                    f.write_at(i << 20, &Payload::sized(1 << 20)).unwrap();
                }
                let dt = (tb.rt.now() - t0).as_secs_f64();
                f.close().unwrap();
                (8u64 << 20) as f64 * 8.0 / dt / 1e6
            };
            let run_comp = {
                let f = File::open(&tb.rt, &fs, "/c", OpenFlags::CreateRw).unwrap();
                let codec = Lzf;
                let t0 = tb.rt.now();
                let mut w = CompressedWriter::new(&f, &codec)
                    .compute_model(ComputeModel {
                        cpu: tb.cpu(0).clone(),
                        rate: Bw::mbyte_per_s(HEAVY_CODEC_RATE),
                    })
                    .sized_output();
                for chunk in d2.chunks(1 << 20) {
                    tb.local_read(0, chunk.len() as u64);
                    w.write(chunk).unwrap();
                }
                w.finish().unwrap();
                let dt = (tb.rt.now() - t0).as_secs_f64();
                f.close().unwrap();
                (8u64 << 20) as f64 * 8.0 / dt / 1e6
            };
            (run_plain, run_comp)
        });
        t.row(vec![
            rtt_ms.to_string(),
            format!("{plain:.1}"),
            format!("{compressed:.1}"),
            if compressed > plain {
                "yes".into()
            } else {
                "no".into()
            },
        ]);
    }
    t.print();
    println!("(short RTTs raise the window cap until raw transmission outruns the compression stage: the paper's feasibility condition flips)");
}

/// 6. Codec choice on the transoceanic path.
///
/// The paper's closing remark in §7.3: the async interface leaves CPU
/// headroom for "more sophisticated compression algorithms". A heavier
/// LZ77+Huffman codec (modelled at 15 MB/s vs the LZO-class 100 MB/s)
/// still wins on a 182 ms path because transmission, not compression, is
/// the bottleneck.
fn codec_sweep() {
    use semplar_compress::{Codec, LzHuf};
    /// One arm: display name, codec (`None` = raw writes), modelled MB/s.
    type Arm = (&'static str, Option<Box<dyn Codec + Send>>, f64);
    let data = Arc::new(generate(16 << 20, 12, &EstGenConfig::default()));
    let mut t = Table::new(
        "Ablation 6: codec choice (das2, 16 MB EST text, async pipeline)",
        &["codec", "ratio", "model MB/s", "app Mb/s"],
    );
    let arms: Vec<Arm> = vec![
        ("none (raw)", None, 0.0),
        ("lzf (LZO-class)", Some(Box::new(Lzf)), 100.0),
        ("lzhuf (deflate-like)", Some(Box::new(LzHuf)), 15.0),
    ];
    for (name, codec, rate) in arms {
        let d2 = data.clone();
        let ((mbps, ratio), _) = with_testbed(das2(), 1, move |tb| {
            let fs = tb.srbfs(0);
            let f = File::open(&tb.rt, &fs, "/codec", OpenFlags::CreateRw).unwrap();
            let t0 = tb.rt.now();
            let ratio = match &codec {
                None => {
                    let mut off = 0u64;
                    for chunk in d2.chunks(1 << 20) {
                        tb.local_read(0, chunk.len() as u64);
                        f.write_at(off, &Payload::sized(chunk.len() as u64))
                            .unwrap();
                        off += chunk.len() as u64;
                    }
                    1.0
                }
                Some(c) => {
                    let mut w = CompressedWriter::new(&f, c.as_ref())
                        .compute_model(ComputeModel {
                            cpu: tb.cpu(0).clone(),
                            rate: Bw::mbyte_per_s(rate),
                        })
                        .sized_output();
                    for chunk in d2.chunks(1 << 20) {
                        tb.local_read(0, chunk.len() as u64);
                        w.write(chunk).unwrap();
                    }
                    let (bin, bout) = w.finish().unwrap();
                    bout as f64 / bin as f64
                }
            };
            let dt = (tb.rt.now() - t0).as_secs_f64();
            f.close().unwrap();
            ((16u64 << 20) as f64 * 8.0 / dt / 1e6, ratio)
        });
        t.row(vec![
            name.to_string(),
            format!("{ratio:.2}"),
            if rate > 0.0 {
                format!("{rate:.0}")
            } else {
                "-".into()
            },
            format!("{mbps:.2}"),
        ]);
    }
    t.print();
    println!("(on a 182 ms path, spending 6x more CPU per byte for a denser stream is free — the WAN is the bottleneck)");
}
