//! Fig. 9: on-the-fly data compression — aggregate write bandwidth of
//! synchronous vs asynchronous (pipelined, compressed) writes, on DAS-2 and
//! TG-NCSA. Each node ships a 100 MB nucleotide text file in 1 MB blocks.
//!
//! Paper reference points: average aggregate write bandwidth improves by
//! 83 % (DAS-2) and 84 % (TG-NCSA).

use std::sync::Arc;

use semplar_clusters::{das2, tg_ncsa};
use semplar_workloads::{estgen, run_compress, CompressMode, CompressParams};

use crate::table::{mbps, pct, Table};
use crate::{sums, with_testbed};

/// The EST text every Fig. 9 rank compresses: `bytes` of it, seed 2006.
pub(crate) fn est_data(bytes: u64) -> Arc<Vec<u8>> {
    let cfg = estgen::EstGenConfig::default();
    Arc::new(estgen::generate(bytes as usize, 2006, &cfg))
}

pub(crate) fn run(quick: bool) {
    let file_bytes: u64 = if quick { 16 << 20 } else { 100 << 20 };
    let das2_procs: &'static [usize] = if quick {
        &[2, 6]
    } else {
        &[1, 3, 5, 7, 9, 11, 13]
    };
    let tg_procs: &'static [usize] = if quick { &[2, 6] } else { &[1, 3, 5, 7, 9, 11] };

    for (spec, procs, paper) in [
        (das2(), das2_procs, "paper: +83%"),
        (tg_ncsa(), tg_procs, "paper: +84%"),
    ] {
        let name = spec.name;
        let max_procs = procs.iter().copied().max().unwrap_or(1);
        let data = est_data(file_bytes);
        // Per row: (procs, sync Mb/s, async Mb/s, compression ratio), in
        // application bytes.
        let (rows, _) = with_testbed(spec, max_procs, move |tb| {
            procs
                .iter()
                .map(|&n| {
                    let write = |mode| {
                        let p = CompressParams {
                            file_bytes,
                            mode,
                            ..CompressParams::default()
                        };
                        run_compress(&tb, n, data.clone(), p)
                    };
                    let sync = write(CompressMode::SyncUncompressed);
                    let asy = write(CompressMode::AsyncCompressed);
                    (n, sync.agg_write_mbps, asy.agg_write_mbps, asy.ratio)
                })
                .collect::<Vec<_>>()
        });
        let mut t = Table::new(
            &format!("Fig. 9 ({name}): compression aggregate write bandwidth (Mb/s)"),
            &["procs", "sync write", "async write", "lz ratio"],
        );
        for &(n, sync, asy, ratio) in &rows {
            t.row(vec![
                n.to_string(),
                mbps(sync),
                mbps(asy),
                format!("{ratio:.2}"),
            ]);
        }
        t.print();
        let (sync, asy) = sums(rows.iter().map(|r| (r.1, r.2)));
        println!(
            "{name}: average async-compressed write gain {}   ({paper})",
            pct(asy / sync - 1.0)
        );
    }
}
