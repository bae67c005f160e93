//! Criterion microbenchmarks for the hot substrate paths: the LZ codec
//! (real wall-clock throughput), the max-min fair allocator, EST
//! generation, and the end-to-end virtual-time engine (simulated seconds
//! per wall second on a representative workload).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use semplar_compress::{Codec, Lzf, Rle};
use semplar_netsim::{max_min_rates, FlowSpec};
use semplar_workloads::estgen::{generate, EstGenConfig};

fn bench_codec(c: &mut Criterion) {
    let est = generate(1 << 20, 7, &EstGenConfig::default());
    let mut g = c.benchmark_group("codec");
    g.throughput(Throughput::Bytes(est.len() as u64));
    g.bench_function("lzf_compress_1mb_est", |b| {
        b.iter(|| {
            let mut out = Vec::new();
            Lzf.compress(&est, &mut out);
            out.len()
        })
    });
    let mut compressed = Vec::new();
    Lzf.compress(&est, &mut compressed);
    // Counted in output bytes, like compression's input bytes, so the two
    // throughputs compare directly.
    g.bench_function("lzf_decompress_1mb_est", |b| {
        b.iter(|| {
            let mut out = Vec::new();
            Lzf.decompress(&compressed, &mut out).unwrap();
            out.len()
        })
    });
    g.bench_function("rle_compress_1mb_est", |b| {
        b.iter(|| {
            let mut out = Vec::new();
            Rle.compress(&est, &mut out);
            out.len()
        })
    });
    g.finish();
}

fn bench_fair_allocator(c: &mut Criterion) {
    let mut g = c.benchmark_group("max_min_rates");
    for &flows in &[8usize, 64, 256] {
        let caps: Vec<f64> = (0..16).map(|i| 100.0 + i as f64).collect();
        let paths: Vec<Vec<usize>> = (0..flows)
            .map(|f| vec![f % 16, (f * 7 + 3) % 16, (f * 13 + 5) % 16])
            .collect();
        g.bench_with_input(BenchmarkId::from_parameter(flows), &flows, |b, _| {
            b.iter(|| {
                let specs: Vec<FlowSpec> = paths
                    .iter()
                    .enumerate()
                    .map(|(i, p)| FlowSpec {
                        path: p,
                        cap: if i % 3 == 0 { Some(5.0) } else { None },
                    })
                    .collect();
                max_min_rates(&caps, &specs)
            })
        });
    }
    g.finish();
}

fn bench_estgen(c: &mut Criterion) {
    let mut g = c.benchmark_group("estgen");
    g.throughput(Throughput::Bytes(1 << 20));
    g.bench_function("generate_1mb", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            generate(1 << 20, seed, &EstGenConfig::default()).len()
        })
    });
    g.finish();
}

fn bench_sim_engine(c: &mut Criterion) {
    use semplar_runtime::{simulate, spawn, Dur};
    // How fast the virtual-time engine chews through a ping-pong workload:
    // 2 actors exchanging 1000 timed events.
    c.bench_function("sim_engine_pingpong_1000", |b| {
        b.iter(|| {
            simulate(|rt| {
                let ev_a = rt.event();
                let ev_b = rt.event();
                let (ea, eb) = (ev_a.clone(), ev_b.clone());
                let rt2 = rt.clone();
                let h = spawn(&rt, "pong", move || {
                    for _ in 0..1000 {
                        ea.wait();
                        rt2.sleep(Dur::from_micros(1));
                        eb.signal();
                    }
                });
                for _ in 0..1000 {
                    ev_a.signal();
                    ev_b.wait();
                }
                h.join_unwrap();
                rt.now()
            })
        })
    });
}

criterion_group!(
    benches,
    bench_codec,
    bench_fair_allocator,
    bench_estgen,
    bench_sim_engine
);
criterion_main!(benches);
