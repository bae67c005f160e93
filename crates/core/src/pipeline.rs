//! On-the-fly compression pipelined with remote I/O — the paper's §7.3.
//!
//! The experiment's loop structure "ensured that the transfer and
//! compression of two consecutive 1 MB blocks were pipelined": while block
//! *k* is in flight on the I/O thread, the compute thread compresses block
//! *k+1*. Compression pays off when
//! `T_comp + T_comp_xmit + T_decomp < T_uncomp_xmit`, and the asynchronous
//! interface keeps `T_comp` off the critical path; on a dual-CPU node the
//! compression work does not even slow the application's own computation.
//!
//! [`CompressedWriter`] writes a self-describing stream of frames
//! (`[clen:u32][olen:u32][cdata]`) so [`CompressedReader`] can round-trip
//! the data.

use std::collections::VecDeque;
use std::sync::Arc;

use semplar_compress::Codec;
use semplar_netsim::{Bw, Cpu};
use semplar_runtime::Dur;
use semplar_srb::Payload;

use crate::adio::{IoError, IoResult};
use crate::file::File;
use crate::request::Request;

/// Default pipeline block: the paper's 1 MB.
pub const DEFAULT_BLOCK: usize = 1 << 20;

/// How compression time is charged under virtual time.
///
/// The codec really runs (the compressed bytes are real), but its wall-clock
/// cost on the host says nothing about a 2006 cluster node; instead each
/// block charges `bytes / rate` of work to the node's [`Cpu`] — which
/// time-shares if the node has fewer free cores than runnable tasks,
/// reproducing the paper's dual-CPU-node requirement.
#[derive(Clone)]
pub struct ComputeModel {
    /// The node's processor pool.
    pub cpu: Arc<Cpu>,
    /// Modelled compression throughput (uncompressed bytes/s, as a rate).
    pub rate: Bw,
}

impl ComputeModel {
    fn charge(&self, bytes: u64) {
        let secs = bytes as f64 * 8.0 / self.rate.as_bps();
        self.cpu.compute(Dur::from_secs_f64(secs));
    }
}

/// A durable position in a compressed stream: everything up to here is
/// acknowledged by the server. Feed it to [`CompressedWriter::resume`] after
/// a connection loss and re-supply the input from `raw_offset` — nothing
/// before it is recompressed or retransmitted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompressCheckpoint {
    /// Uncompressed input bytes acknowledged.
    pub raw_offset: u64,
    /// Wire (compressed-stream) offset acknowledged — where the next frame
    /// will land.
    pub wire_offset: u64,
}

/// One dispatched frame awaiting acknowledgement. The payload is retained
/// until the ack so a transiently failed frame can be re-shipped as-is
/// (no recompression) — the write-side analogue of the transport's
/// `Disconnected{acked}` resume.
struct Frame {
    wire_off: u64,
    raw_len: u64,
    wire_len: u64,
    payload: Payload,
    req: Request,
}

/// Streaming compressed writer over a [`File`].
pub struct CompressedWriter<'a> {
    file: &'a File,
    codec: &'a dyn Codec,
    block: usize,
    /// Maximum in-flight write requests; `0` = fully synchronous (compress
    /// and write in the critical path — the "compression without async"
    /// baseline).
    depth: usize,
    model: Option<ComputeModel>,
    /// Ship size-only payloads (the compression still runs, so the ratio is
    /// real, but the frame bytes are dropped). Used by the large bandwidth
    /// sweeps to keep host memory flat; timing is identical.
    sized_output: bool,
    offset: u64,
    inflight: VecDeque<Frame>,
    pending: Vec<u8>,
    bytes_in: u64,
    bytes_out: u64,
    /// Input/wire bytes acknowledged so far — the checkpoint frontier.
    acked_raw: u64,
    acked_wire: u64,
    /// Frames whose async write failed transiently and were re-shipped from
    /// the retained copy instead of being recompressed.
    resumed_frames: u64,
}

impl<'a> CompressedWriter<'a> {
    /// A pipelined writer with the paper's configuration: 1 MB blocks, two
    /// consecutive blocks in flight.
    pub fn new(file: &'a File, codec: &'a dyn Codec) -> CompressedWriter<'a> {
        CompressedWriter {
            file,
            codec,
            block: DEFAULT_BLOCK,
            depth: 2,
            model: None,
            sized_output: false,
            offset: 0,
            inflight: VecDeque::new(),
            pending: Vec::new(),
            bytes_in: 0,
            bytes_out: 0,
            acked_raw: 0,
            acked_wire: 0,
            resumed_frames: 0,
        }
    }

    /// Rebuild a writer mid-stream after a failure: frames land from
    /// `ckpt.wire_offset` on, and the caller re-feeds input starting at
    /// `ckpt.raw_offset`. Combined with [`checkpoint`](Self::checkpoint)
    /// this resumes from the last acked compressed block instead of
    /// recompressing (and re-sending) the stream from offset zero.
    pub fn resume(
        file: &'a File,
        codec: &'a dyn Codec,
        ckpt: CompressCheckpoint,
    ) -> CompressedWriter<'a> {
        let mut w = CompressedWriter::new(file, codec);
        w.offset = ckpt.wire_offset;
        w.acked_raw = ckpt.raw_offset;
        w.acked_wire = ckpt.wire_offset;
        w
    }

    /// Override the block size.
    pub fn block_size(mut self, block: usize) -> Self {
        assert!(block > 0);
        self.block = block;
        self
    }

    /// Override the pipeline depth (0 = synchronous).
    pub fn depth(mut self, depth: usize) -> Self {
        self.depth = depth;
        self
    }

    /// Charge compression to a modelled CPU (virtual-time runs).
    pub fn compute_model(mut self, model: ComputeModel) -> Self {
        self.model = Some(model);
        self
    }

    /// Ship size-only frames (see the field docs). The stream is then not
    /// readable back, but every timing property is preserved.
    pub fn sized_output(mut self) -> Self {
        self.sized_output = true;
        self
    }

    /// Append data to the stream; full blocks are compressed and dispatched.
    /// Whole blocks are compressed straight from `data`; only a partial
    /// block is copied, into the pending tail.
    pub fn write(&mut self, mut data: &[u8]) -> IoResult<()> {
        if !self.pending.is_empty() {
            let take = (self.block - self.pending.len()).min(data.len());
            self.pending.extend_from_slice(&data[..take]);
            data = &data[take..];
            if self.pending.len() < self.block {
                return Ok(());
            }
            let mut block = std::mem::take(&mut self.pending);
            let sent = self.dispatch(&block);
            block.clear();
            self.pending = block;
            sent?;
        }
        while data.len() >= self.block {
            let (block, rest) = data.split_at(self.block);
            self.dispatch(block)?;
            data = rest;
        }
        self.pending.extend_from_slice(data);
        Ok(())
    }

    fn dispatch(&mut self, block: &[u8]) -> IoResult<()> {
        // Compress (really), then charge the modelled CPU time.
        let mut frame = Vec::with_capacity(block.len() / 2 + 8);
        frame.extend_from_slice(&[0u8; 8]);
        self.codec.compress(block, &mut frame);
        let clen = (frame.len() - 8) as u32;
        frame[0..4].copy_from_slice(&clen.to_le_bytes());
        frame[4..8].copy_from_slice(&(block.len() as u32).to_le_bytes());
        if let Some(m) = &self.model {
            m.charge(block.len() as u64);
        }
        self.bytes_in += block.len() as u64;
        self.bytes_out += frame.len() as u64;

        let len = frame.len() as u64;
        let payload = if self.sized_output {
            Payload::sized(len)
        } else {
            Payload::bytes(frame)
        };
        if self.depth == 0 {
            // Synchronous baseline: compression and the remote write both sit
            // in the critical path.
            self.file.write_at(self.offset, &payload)?;
            self.acked_raw += block.len() as u64;
            self.acked_wire = self.offset + len;
        } else {
            while self.inflight.len() >= self.depth {
                let oldest = self.inflight.pop_front().expect("non-empty");
                self.settle_frame(oldest)?;
            }
            let req = self.file.iwrite_at(self.offset, payload.clone());
            self.inflight.push_back(Frame {
                wire_off: self.offset,
                raw_len: block.len() as u64,
                wire_len: len,
                payload,
                req,
            });
        }
        self.offset += len;
        Ok(())
    }

    /// Wait for `frame`'s ack and advance the checkpoint frontier. A
    /// transient failure re-ships the retained payload synchronously (the
    /// backend's reconnect+resume recovery underneath) — the block is never
    /// recompressed.
    fn settle_frame(&mut self, frame: Frame) -> IoResult<()> {
        match frame.req.wait() {
            Ok(_) => {}
            Err(e) if e.is_transient() => {
                self.file.write_at(frame.wire_off, &frame.payload)?;
                self.resumed_frames += 1;
            }
            Err(e) => return Err(e),
        }
        self.acked_raw += frame.raw_len;
        self.acked_wire = frame.wire_off + frame.wire_len;
        Ok(())
    }

    /// Flush the trailing partial block and wait for the pipeline to drain.
    /// Returns (uncompressed bytes, compressed bytes on the wire). On error
    /// the writer stays usable for [`checkpoint`](Self::checkpoint), so a
    /// caller can hand the position to [`resume`](Self::resume).
    pub fn finish(&mut self) -> IoResult<(u64, u64)> {
        if !self.pending.is_empty() {
            let block = std::mem::take(&mut self.pending);
            self.dispatch(&block)?;
        }
        while let Some(f) = self.inflight.pop_front() {
            self.settle_frame(f)?;
        }
        Ok((self.bytes_in, self.bytes_out))
    }

    /// The acknowledged stream position. Bytes buffered in [`write`](
    /// Self::write) or still in flight are *not* covered — after a failure,
    /// re-feed input from `raw_offset`.
    pub fn checkpoint(&self) -> CompressCheckpoint {
        CompressCheckpoint {
            raw_offset: self.acked_raw,
            wire_offset: self.acked_wire,
        }
    }

    /// Frames re-shipped from their retained copy after a transient failure.
    pub fn resumed_frames(&self) -> u64 {
        self.resumed_frames
    }

    /// Compression ratio so far (compressed / uncompressed).
    pub fn ratio(&self) -> f64 {
        if self.bytes_in == 0 {
            1.0
        } else {
            self.bytes_out as f64 / self.bytes_in as f64
        }
    }
}

/// Read back and decompress a stream written by [`CompressedWriter`].
pub struct CompressedReader;

impl CompressedReader {
    /// Decompress the whole stream (requires real data in the backend).
    pub fn read_all(file: &File, codec: &dyn Codec) -> IoResult<Vec<u8>> {
        let mut out = Vec::new();
        let mut off = 0u64;
        loop {
            let hdr = file.read_at(off, 8)?;
            if hdr.is_empty() {
                break; // clean EOF at a frame boundary
            }
            let hdr_bytes = hdr
                .data()
                .ok_or(IoError::BadAccess("compressed stream requires real data"))?;
            if hdr_bytes.len() < 8 {
                return Err(IoError::BadAccess("truncated frame header"));
            }
            let clen = u32::from_le_bytes(hdr_bytes[0..4].try_into().expect("4 bytes")) as u64;
            let olen = u32::from_le_bytes(hdr_bytes[4..8].try_into().expect("4 bytes")) as usize;
            let body = file.read_at(off + 8, clen)?;
            let body_bytes = body
                .data()
                .ok_or(IoError::BadAccess("compressed stream requires real data"))?;
            if body_bytes.len() as u64 != clen {
                return Err(IoError::BadAccess("truncated frame body"));
            }
            let before = out.len();
            codec
                .decompress(body_bytes, &mut out)
                .map_err(|_| IoError::BadAccess("corrupt compressed frame"))?;
            if out.len() - before != olen {
                return Err(IoError::BadAccess("frame length mismatch"));
            }
            off += 8 + clen;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adio::MemFs;
    use crate::srbfs::{SrbFs, SrbFsConfig};
    use semplar_compress::Lzf;
    use semplar_netsim::Network;
    use semplar_runtime::{simulate, Dur};
    use semplar_srb::{ConnRoute, OpenFlags, RetryPolicy, SrbServer, SrbServerCfg};

    #[test]
    fn checkpoint_advances_only_on_acked_frames() {
        simulate(|rt| {
            let fs = MemFs::new(rt.clone());
            let codec = Lzf;
            let f = File::open(&rt, &fs, "/ck", OpenFlags::CreateRw).unwrap();
            let mut w = CompressedWriter::new(&f, &codec).block_size(4096).depth(2);
            assert_eq!(w.checkpoint(), CompressCheckpoint::default());
            // One partial block: buffered, not dispatched, not checkpointed.
            w.write(&[7u8; 1000]).unwrap();
            assert_eq!(w.checkpoint().raw_offset, 0);
            // Enough blocks that the depth-2 window must settle some acks.
            w.write(&vec![42u8; 64 * 1024]).unwrap();
            let ck = w.checkpoint();
            assert!(ck.raw_offset > 0, "settled frames must advance the ckpt");
            assert_eq!(ck.raw_offset % 4096, 0, "ckpt lands on block boundaries");
            assert!(ck.wire_offset > 0);
            w.finish().unwrap();
            f.close().unwrap();
        });
    }

    /// The write-side resume: a crash mid-stream surfaces an error; the
    /// caller reopens, resumes from the checkpoint, and re-feeds only the
    /// unacked tail. The stream decompresses to the original data and the
    /// acked prefix was neither recompressed nor retransmitted.
    #[test]
    fn resume_from_checkpoint_after_server_crash() {
        simulate(|rt| {
            let net = Network::new(rt.clone());
            let up = net.add_link("up", semplar_netsim::Bw::mbps(40.0), Dur::from_millis(5));
            let down = net.add_link("down", semplar_netsim::Bw::mbps(40.0), Dur::from_millis(5));
            let server = SrbServer::new(net, SrbServerCfg::default());
            server.mcat().add_user("u", "p");
            // No retries: the first failure reaches the writer, like the
            // prefetcher's fallback test.
            let fs = SrbFs::with_retry(
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
                RetryPolicy::none(),
            );
            let codec = Lzf;
            let data: Vec<u8> = b"REMOTE-IO-".repeat(80_000); // 800 KB
            let block = 64 * 1024usize;

            let f = File::open(&rt, &fs, "/z", OpenFlags::CreateRw).unwrap();
            let mut w = CompressedWriter::new(&f, &codec).block_size(block);
            let s2 = server.clone();
            let rt2 = rt.clone();
            let chaos = semplar_runtime::spawn(&rt, "chaos", move || {
                rt2.sleep(Dur::from_millis(40));
                s2.crash();
                rt2.sleep(Dur::from_millis(20));
                s2.restart();
            });
            // Feed in block-sized steps so the error surfaces mid-stream.
            let mut fed = 0usize;
            let mut failed_at = None;
            while fed < data.len() {
                let end = (fed + block).min(data.len());
                if w.write(&data[fed..end]).is_err() {
                    failed_at = Some(fed);
                    break;
                }
                fed = end;
            }
            let failed = match failed_at {
                Some(_) => true,
                // The window may hold the error until the drain.
                None => w.finish().is_err(),
            };
            chaos.join_unwrap();
            assert!(failed, "the crash must surface to the writer");
            let ck = w.checkpoint();
            assert!(ck.raw_offset > 0, "some frames were acked before the cut");
            assert!(
                ck.raw_offset < data.len() as u64,
                "not everything can be acked"
            );
            let _ = f.close();

            // Resume: reopen (fresh connection) and re-feed the unacked tail.
            let f = File::open(&rt, &fs, "/z", OpenFlags::ReadWrite).unwrap();
            let mut w = CompressedWriter::resume(&f, &codec, ck);
            w.write(&data[ck.raw_offset as usize..]).unwrap();
            w.finish().unwrap();
            let back = CompressedReader::read_all(&f, &codec).unwrap();
            assert_eq!(back, data, "resumed stream must decompress exactly");
            f.close().unwrap();
        });
    }

    /// A transient mid-window failure that the settle path can cure itself:
    /// the retained frame is re-shipped without recompression and the
    /// stream completes with no caller involvement.
    #[test]
    fn transient_frame_failure_reships_retained_copy() {
        simulate(|rt| {
            let net = Network::new(rt.clone());
            let up = net.add_link("up", semplar_netsim::Bw::mbps(40.0), Dur::from_millis(5));
            let down = net.add_link("down", semplar_netsim::Bw::mbps(40.0), Dur::from_millis(5));
            let server = SrbServer::new(net, SrbServerCfg::default());
            server.mcat().add_user("u", "p");
            // Default retry policy: the synchronous re-ship inside
            // settle_frame rides the backend's reconnect recovery.
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
            let codec = Lzf;
            let data: Vec<u8> = b"GATTACA".repeat(100_000); // 700 KB
            let f = File::open(&rt, &fs, "/t", OpenFlags::CreateRw).unwrap();
            let mut w = CompressedWriter::new(&f, &codec).block_size(64 * 1024);
            let s2 = server.clone();
            let rt2 = rt.clone();
            let chaos = semplar_runtime::spawn(&rt, "chaos", move || {
                rt2.sleep(Dur::from_millis(30));
                s2.crash();
                rt2.sleep(Dur::from_millis(10));
                s2.restart();
            });
            w.write(&data).unwrap();
            let resumed = w.resumed_frames();
            w.finish().unwrap();
            chaos.join_unwrap();
            let _ = resumed; // may settle during write or during finish
            let back = CompressedReader::read_all(&f, &codec).unwrap();
            assert_eq!(back, data);
            f.close().unwrap();
        });
    }

    use proptest::prelude::*;

    /// Write `data` through a fresh writer, in pieces ending at the sorted
    /// `cuts`, and return the raw stream on the file, the writer's byte
    /// counts and the stream read back.
    fn ship(
        rt: &std::sync::Arc<dyn semplar_runtime::Runtime>,
        fs: &dyn crate::adio::AdioFs,
        path: &str,
        data: &[u8],
        cuts: &[usize],
        block: usize,
    ) -> (Vec<u8>, (u64, u64), Vec<u8>) {
        let codec = Lzf;
        let f = File::open(rt, fs, path, OpenFlags::CreateRw).unwrap();
        let mut w = CompressedWriter::new(&f, &codec).block_size(block);
        let mut from = 0;
        for &cut in cuts.iter().chain(std::iter::once(&data.len())) {
            w.write(&data[from..cut]).unwrap();
            from = cut;
        }
        let counts = w.finish().unwrap();
        let raw = f.read_at(0, counts.1).unwrap();
        let raw = raw.data().expect("real bytes").to_vec();
        let back = CompressedReader::read_all(&f, &codec).unwrap();
        f.close().unwrap();
        (raw, counts, back)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Block framing depends only on the byte stream, never on how the
        /// caller slices it: one `write` and many random-sized ones (some
        /// empty, some spanning several blocks) ship identical frames.
        #[test]
        fn split_writes_ship_identical_frames(
            unit in proptest::collection::vec(0u8..4, 1..40),
            len in 0usize..24_000,
            cuts in proptest::collection::vec(0usize..24_000, 0..12),
            block in 256usize..5000,
        ) {
            let data: Vec<u8> = unit
                .iter()
                .cycle()
                .take(len)
                .enumerate()
                .map(|(k, &u)| if k % 97 == 0 { b'N' } else { b"ACGT"[u as usize] })
                .collect();
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(len)).collect();
            cuts.sort_unstable();
            simulate(move |rt| {
                let fs = MemFs::new(rt.clone());
                let whole = ship(&rt, &fs, "/whole", &data, &[], block);
                let split = ship(&rt, &fs, "/split", &data, &cuts, block);
                prop_assert_eq!(whole.1, (len as u64, whole.0.len() as u64));
                prop_assert!(whole.0 == split.0, "frames differ");
                prop_assert_eq!(whole.1, split.1);
                prop_assert!(whole.2 == data && split.2 == data, "read back differs");
            });
        }
    }
}
