//! Noncontiguous remote access: the Thakur et al. gap at WAN latency.
//!
//! A strided fragment pattern over one 100 Mb/s / 91 ms-OWD stream, three
//! ways: per-fragment requests (one RTT each), protocol-level list-I/O
//! (whole extent table in one exchange), and data sieving (one covering
//! extent, holes on the wire but never in the goodput meter). A second
//! table runs the collective version on das2: naive per-cell writes vs the
//! same pattern batched through list-I/O vs two-phase aggregation.
//!
//! Entirely in virtual time and seeded, so the output is bit-identical
//! across invocations.

use semplar::{File, OpenFlags, Payload, SrbFs, SrbFsConfig};
use semplar_clusters::das2;
use semplar_netsim::{Bw, Network};
use semplar_runtime::{Dur, SimRuntime};
use semplar_srb::{ConnRoute, SrbServer, SrbServerCfg};
use semplar_workloads::{run_collective, CollectiveMode, CollectiveParams};

use crate::table::Table;
use crate::with_testbed;

/// One strategy in a fresh simulation: `frags` fragments of `frag_bytes`
/// every `stride` bytes, written and read back on one 100 Mb/s /
/// 91 ms-OWD stream. `arm` 0 accesses each fragment with its own request
/// (one RTT apiece); arm 1 ships the whole extent list in one list-I/O
/// exchange; arm 2 turns on data sieving (threshold 1.0), trading hole
/// bytes on the wire for a single covering extent in each direction.
/// Returns (name, write s, read s, server requests of the timed phases,
/// payload bytes the client's stream meter credited). Goodput is
/// payload-only: sieved holes and read-modify-write overhead must not show
/// up in the meter, so every arm meters the same count.
fn strided_arm(
    arm: usize,
    frags: u64,
    frag_bytes: u64,
    stride: u64,
) -> (&'static str, f64, f64, u64, u64) {
    assert!(frag_bytes <= stride, "fragments must not overlap");
    SimRuntime::new().run_root(move |rt| {
        let net = Network::new(rt.clone());
        let up = net.add_link("up", Bw::mbps(100.0), Dur::from_millis(91));
        let down = net.add_link("down", Bw::mbps(100.0), Dur::from_millis(91));
        let server = SrbServer::new(net, SrbServerCfg::default());
        server.mcat().add_user("u", "p");
        let fs = SrbFs::new(
            server.clone(),
            SrbFsConfig {
                route: ConnRoute {
                    fwd: vec![up],
                    rev: vec![down],
                    send_cap: None,
                    recv_cap: None,
                    bus: None,
                },
                user: "u".into(),
                password: "p".into(),
            },
        );
        let (name, threshold) = match arm {
            0 => ("per-fragment", 0.0),
            1 => ("list-I/O", 0.0),
            _ => ("data sieving", 1.0),
        };
        fs.set_sieve_threshold(threshold);
        let extents: Vec<(u64, u64)> = (0..frags).map(|i| (i * stride, frag_bytes)).collect();
        let total = frags * frag_bytes;
        let span = (frags - 1) * stride + frag_bytes;
        let data: Vec<u8> = (0..total).map(|i| (i % 251) as u8).collect();
        let f = File::open(&rt, &fs, "/strided", OpenFlags::CreateRw).expect("open strided");
        // Prepopulate the span so write-back sieving has real hole bytes to
        // preserve, and every arm times the same starting file state.
        f.write_at(
            0,
            &Payload::bytes((0..span).map(|i| (i % 13) as u8).collect()),
        )
        .expect("prepopulate");
        let meter0 = f.meter().map_or(0, |m| m.payload_bytes);
        let req0 = server.stats().requests;

        let t0 = rt.now();
        if arm == 0 {
            let mut cursor = 0usize;
            for &(off, len) in &extents {
                let piece = data[cursor..cursor + len as usize].to_vec();
                cursor += len as usize;
                f.write_at(off, &Payload::bytes(piece))
                    .expect("fragment write");
            }
        } else {
            f.write_list(&extents, &Payload::bytes(data.clone()))
                .expect("list write");
        }
        let t1 = rt.now();
        let back: Vec<u8> = if arm == 0 {
            let mut out = Vec::with_capacity(total as usize);
            for &(off, len) in &extents {
                out.extend_from_slice(
                    f.read_at(off, len)
                        .expect("fragment read")
                        .data()
                        .expect("real"),
                );
            }
            out
        } else {
            f.read_list(&extents)
                .expect("list read")
                .data()
                .expect("real")
                .to_vec()
        };
        let t2 = rt.now();
        assert_eq!(back, data, "strided read-back mismatch");

        let requests = server.stats().requests - req0;
        let metered = f.meter().map_or(0, |m| m.payload_bytes) - meter0;
        f.close().expect("close strided");
        let (write, read) = ((t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64());
        (name, write, read, requests, metered)
    })
}

pub(crate) fn run(quick: bool) {
    let frags: u64 = if quick { 32 } else { 128 };
    let frag_bytes: u64 = 4 * 1024;
    let stride: u64 = 16 * 1024; // hole fraction 0.75
    let rows = if quick { 16 } else { 64 };

    let arms: Vec<_> = (0..3)
        .map(|a| strided_arm(a, frags, frag_bytes, stride))
        .collect();
    let base = arms[0].1 + arms[0].2;

    let mut t = Table::new(
        &format!(
            "Strided access over the WAN (100 Mb/s, 91 ms OWD): {frags} x {} KiB fragments, \
             {} KiB stride, write + read back",
            frag_bytes >> 10,
            stride >> 10
        ),
        &[
            "strategy",
            "write (s)",
            "read (s)",
            "requests",
            "metered payload",
            "speedup",
        ],
    );
    for &(name, write, read, requests, metered) in &arms {
        t.row(vec![
            name.into(),
            format!("{write:.3}"),
            format!("{read:.3}"),
            requests.to_string(),
            format!("{} KiB", metered >> 10),
            format!("{:.1}x", base / (write + read)),
        ]);
    }
    t.print();

    // The collective face of the same gap: the `rows x 4`
    // column-distributed matrix write on das2, each strategy in its own
    // fresh simulation.
    let reports: Vec<_> = [
        CollectiveMode::Naive,
        CollectiveMode::NaiveList,
        CollectiveMode::TwoPhaseSync,
    ]
    .into_iter()
    .map(|mode| {
        let params = CollectiveParams {
            rows,
            cell_bytes: 8 * 1024,
            aggregators: 2,
            bands: 4,
            steps: 1,
            compute_per_step: 0.0,
            mode,
        };
        with_testbed(das2(), 4, move |tb| run_collective(&tb, 4, params)).0
    })
    .collect();
    let naive_secs = reports[0].exec_secs;
    let mut t = Table::new(
        &format!("Collective strided write on das2: {rows} x 4 cells of 8 KiB, 4 ranks"),
        &["strategy", "exec (s)", "remote ops", "speedup"],
    );
    for r in &reports {
        t.row(vec![
            format!("{:?}", r.mode),
            format!("{:.3}", r.exec_secs),
            r.remote_ops.to_string(),
            format!("{:.1}x", naive_secs / r.exec_secs),
        ]);
    }
    t.print();
}
