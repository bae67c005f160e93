//! Layer timing from outside the library: in-memory spans, and wrappers
//! around the public calls into each crate.
//!
//! A span records a name, its virtual and wall start and end, the span
//! that caused it and the client operation it serves. Spans stay in
//! memory until the run ends, then [`write_tsv`] writes them out and
//! [`self_times`] charges each span the part of its interval that no child
//! covers.
//!
//! None of the wrappers sleeps or blocks on the runtime, so a traced run
//! makes the same virtual-time decisions as an untraced one; the only cost
//! is wall time, which the benchmark reports as the tracing overhead.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use semplar::{AdioFile, AdioFs, IoMeter, IoResult, OpenFlags, Payload, Request, Status};
use semplar_compress::{Codec, Corrupt};
use semplar_mpi::{Rank, Tag};
use semplar_runtime::Runtime;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, such as `core.backend.write`.
    pub name: &'static str,
    /// Unique id within the run (never 0).
    pub id: u64,
    /// The span that caused this one, 0 for a root.
    pub parent: u64,
    /// The client operation this span serves, 0 if none.
    pub op: u64,
    /// Virtual start and end, ns.
    pub v0: u64,
    /// Virtual end, ns.
    pub v1: u64,
    /// Wall start and end, ns since the tracer was made.
    pub w0: u64,
    /// Wall end, ns since the tracer was made.
    pub w1: u64,
}

/// The span store of one run. Disabled tracers record nothing and cost
/// one branch per wrapped call.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records spans when `enabled`.
    pub fn new(enabled: bool) -> Arc<Tracer> {
        Arc::new(Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh span or operation id.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Wall ns since the tracer was made.
    pub fn wall_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Store a finished span.
    pub fn record(&self, span: Span) {
        if self.enabled {
            self.spans.lock().expect("span store poisoned").push(span);
        }
    }

    /// Run `f` inside a span named `name`, handing it the span's id (0
    /// when tracing is off) so that it can parent child spans.
    pub fn span<T>(
        &self,
        rt: &Arc<dyn Runtime>,
        name: &'static str,
        parent: u64,
        op: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        if !self.enabled {
            return f(0);
        }
        let id = self.id();
        let (v0, w0) = (rt.now().as_nanos(), self.wall_ns());
        let out = f(id);
        let (v1, w1) = (rt.now().as_nanos(), self.wall_ns());
        self.record(Span {
            name,
            id,
            parent,
            op,
            v0,
            v1,
            w0,
            w1,
        });
        out
    }

    /// Every span recorded so far, in record order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }
}

/// Per-name totals over a run's spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanTotals {
    /// Spans of this name.
    pub count: u64,
    /// Summed virtual duration, ns.
    pub virt_ns: u64,
    /// Summed virtual self time (duration minus child coverage), ns.
    pub self_virt_ns: u64,
    /// Summed wall duration, ns.
    pub wall_ns: u64,
    /// Summed wall self time, ns.
    pub self_wall_ns: u64,
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
pub fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.retain(|&(a, b)| b > lo && a < hi);
    intervals.sort_unstable();
    let (mut total, mut cur) = (0u64, lo);
    for (a, b) in intervals {
        let (a, b) = (a.max(cur), b.min(hi));
        if b > a {
            total += b - a;
            cur = b;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of its interval
/// its children cover, on both clocks. Returns per-span `(virt, wall)`
/// self times keyed by span id.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, (u64, u64)> {
    let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push(s);
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
            let cv = covered(kids.iter().map(|k| (k.v0, k.v1)).collect(), s.v0, s.v1);
            let cw = covered(kids.iter().map(|k| (k.w0, k.w1)).collect(), s.w0, s.w1);
            let self_v = (s.v1 - s.v0).saturating_sub(cv);
            let self_w = s.w1.saturating_sub(s.w0).saturating_sub(cw);
            (s.id, (self_v, self_w))
        })
        .collect()
}

/// Totals per span name, with self times.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        let (sv, sw) = selfs[&s.id];
        t.count += 1;
        t.virt_ns += s.v1 - s.v0;
        t.self_virt_ns += sv;
        t.wall_ns += s.w1.saturating_sub(s.w0);
        t.self_wall_ns += sw;
    }
    out
}

/// Write `spans` as tab-separated text with a header line.
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "name\tid\tparent\top\tvirt_start_ns\tvirt_end_ns\twall_start_ns\twall_end_ns\tself_virt_ns\tself_wall_ns"
    )?;
    for s in spans {
        let (sv, sw) = selfs[&s.id];
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.name, s.id, s.parent, s.op, s.v0, s.v1, s.w0, s.w1, sv, sw
        )?;
    }
    out.flush()
}

// ---------------------------------------------------------------------------
// core: the ADIO backend seam.
// ---------------------------------------------------------------------------

/// One call into a backend file, as the operation ledger keeps it.
#[derive(Clone, Copy, Debug)]
pub struct BackendCall {
    /// Operation the call served (the owner's current op when it began).
    pub op: u64,
    /// Whether it moved data out (`write_at`/`write_list*`).
    pub write: bool,
    /// Whether it moved data in (`read_at`/`read_list`).
    pub read: bool,
    /// Virtual start, ns.
    pub v0: u64,
    /// Virtual end, ns.
    pub v1: u64,
    /// Wall start, ns since the tracer was made (0 when tracing is off).
    pub w0: u64,
    /// Wall end, ns since the tracer was made (0 when tracing is off).
    pub w1: u64,
}

/// The client operation a rank is running, and every backend call made
/// on its behalf. Each rank runs one operation at a time and waits for it
/// before the next, so a backend call belongs to the operation current
/// when it began. The ledger is kept in untraced runs too: an
/// asynchronous request completes when its backend call returns, and the
/// ledger is the only place that instant is visible from outside.
#[derive(Default)]
pub struct OpCtx {
    current: AtomicU64,
    calls: Mutex<Vec<BackendCall>>,
}

impl OpCtx {
    /// A fresh context.
    pub fn new() -> Arc<OpCtx> {
        Arc::new(OpCtx::default())
    }

    /// Mark `op` as the operation now running.
    pub fn begin(&self, op: u64) {
        self.current.store(op, Ordering::SeqCst);
    }

    /// The backend calls recorded so far.
    pub fn calls(&self) -> Vec<BackendCall> {
        self.calls.lock().expect("ledger poisoned").clone()
    }
}

/// An [`AdioFs`] decorator that times every call into the backend. Every
/// trait method is forwarded explicitly, so no default method of the
/// trait silently bypasses the inner backend's override.
pub struct TimedFs {
    inner: Box<dyn AdioFs>,
    rt: Arc<dyn Runtime>,
    tracer: Arc<Tracer>,
    ctx: Arc<OpCtx>,
}

impl TimedFs {
    /// Wrap `inner`, charging calls to the operations of `ctx`.
    pub fn new(
        inner: Box<dyn AdioFs>,
        rt: &Arc<dyn Runtime>,
        tracer: &Arc<Tracer>,
        ctx: &Arc<OpCtx>,
    ) -> TimedFs {
        TimedFs {
            inner,
            rt: rt.clone(),
            tracer: tracer.clone(),
            ctx: ctx.clone(),
        }
    }

    fn wrap(&self, file: Box<dyn AdioFile>) -> Box<dyn AdioFile> {
        Box::new(TimedFile {
            inner: file,
            rt: self.rt.clone(),
            tracer: self.tracer.clone(),
            ctx: self.ctx.clone(),
        })
    }

    fn timed<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let op = self.ctx.current.load(Ordering::SeqCst);
        self.tracer.span(&self.rt, name, op, op, |_| f())
    }
}

impl AdioFs for TimedFs {
    fn open(&self, path: &str, flags: OpenFlags) -> IoResult<Box<dyn AdioFile>> {
        let f = self.timed("core.backend.open", || self.inner.open(path, flags))?;
        Ok(self.wrap(f))
    }

    fn open_pinned(
        &self,
        path: &str,
        flags: OpenFlags,
        pin: Option<usize>,
    ) -> IoResult<Box<dyn AdioFile>> {
        let f = self.timed("core.backend.open", || {
            self.inner.open_pinned(path, flags, pin)
        })?;
        Ok(self.wrap(f))
    }

    fn delete(&self, path: &str) -> IoResult<()> {
        self.timed("core.backend.delete", || self.inner.delete(path))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

struct TimedFile {
    inner: Box<dyn AdioFile>,
    rt: Arc<dyn Runtime>,
    tracer: Arc<Tracer>,
    ctx: Arc<OpCtx>,
}

impl TimedFile {
    /// Run one backend call, keep it in the ledger when it moves data, and
    /// record its span when tracing.
    fn call<T>(
        &mut self,
        name: &'static str,
        write: bool,
        read: bool,
        f: impl FnOnce(&mut dyn AdioFile) -> T,
    ) -> T {
        let op = self.ctx.current.load(Ordering::SeqCst);
        let tracing = self.tracer.enabled();
        let w0 = if tracing { self.tracer.wall_ns() } else { 0 };
        let v0 = self.rt.now().as_nanos();
        let out = f(self.inner.as_mut());
        let v1 = self.rt.now().as_nanos();
        let w1 = if tracing { self.tracer.wall_ns() } else { 0 };
        if write || read {
            self.ctx
                .calls
                .lock()
                .expect("ledger poisoned")
                .push(BackendCall {
                    op,
                    write,
                    read,
                    v0,
                    v1,
                    w0,
                    w1,
                });
        }
        if tracing {
            let id = self.tracer.id();
            self.tracer.record(Span {
                name,
                id,
                parent: op,
                op,
                v0,
                v1,
                w0,
                w1,
            });
        }
        out
    }
}

impl AdioFile for TimedFile {
    fn read_at(&mut self, offset: u64, len: u64) -> IoResult<Payload> {
        self.call("core.backend.read", false, true, |f| f.read_at(offset, len))
    }

    fn write_at(&mut self, offset: u64, data: &Payload) -> IoResult<u64> {
        self.call("core.backend.write", true, false, |f| {
            f.write_at(offset, data)
        })
    }

    fn size(&mut self) -> IoResult<u64> {
        self.call("core.backend.size", false, false, |f| f.size())
    }

    fn close(&mut self) -> IoResult<()> {
        self.call("core.backend.close", false, false, |f| f.close())
    }

    fn read_list(&mut self, extents: &[(u64, u64)]) -> IoResult<Payload> {
        self.call("core.backend.read_list", false, true, |f| {
            f.read_list(extents)
        })
    }

    fn write_list(&mut self, extents: &[(u64, u64)], data: &Payload) -> IoResult<u64> {
        self.call("core.backend.write_list", true, false, |f| {
            f.write_list(extents, data)
        })
    }

    fn write_list_with(
        &mut self,
        extents: &[(u64, u64)],
        data: &Payload,
        sieve: bool,
    ) -> IoResult<u64> {
        self.call("core.backend.write_list", true, false, |f| {
            f.write_list_with(extents, data, sieve)
        })
    }

    fn meter(&self) -> Option<Arc<IoMeter>> {
        self.inner.meter()
    }
}

/// `Request::wait`, timed: returns the result and the virtual ns the
/// caller was blocked.
pub fn timed_wait(
    tracer: &Tracer,
    rt: &Arc<dyn Runtime>,
    req: &Request,
    parent: u64,
    op: u64,
) -> (IoResult<Status>, u64) {
    tracer.span(rt, "core.wait", parent, op, |_| {
        let t0 = rt.now();
        let r = req.wait();
        (r, (rt.now() - t0).as_nanos())
    })
}

// ---------------------------------------------------------------------------
// compress: a timing codec.
// ---------------------------------------------------------------------------

/// Counters of a [`TimedCodec`].
#[derive(Clone, Copy, Debug, Default)]
pub struct CodecTotals {
    /// `compress` calls.
    pub calls: u64,
    /// Bytes handed to `compress`.
    pub bytes_in: u64,
    /// Bytes `compress` produced.
    pub bytes_out: u64,
    /// Wall ns inside `compress`.
    pub compress_ns: u64,
}

/// A [`Codec`] that forwards to `inner` and counts calls, bytes and the
/// real CPU time spent compressing. Compression runs on real CPU; its
/// virtual-time charge comes from the pipeline's compute model, so the
/// spans it records have zero virtual length and a wall length.
pub struct TimedCodec<C> {
    inner: C,
    rt: Arc<dyn Runtime>,
    tracer: Arc<Tracer>,
    totals: Mutex<CodecTotals>,
}

impl<C: Codec> TimedCodec<C> {
    /// Wrap `inner`.
    pub fn new(inner: C, rt: &Arc<dyn Runtime>, tracer: &Arc<Tracer>) -> TimedCodec<C> {
        TimedCodec {
            inner,
            rt: rt.clone(),
            tracer: tracer.clone(),
            totals: Mutex::new(CodecTotals::default()),
        }
    }

    /// Counters so far.
    pub fn totals(&self) -> CodecTotals {
        *self.totals.lock().expect("codec totals poisoned")
    }
}

impl<C: Codec> Codec for TimedCodec<C> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn compress(&self, src: &[u8], dst: &mut Vec<u8>) {
        let before = dst.len();
        let t0 = Instant::now();
        self.tracer.span(&self.rt, "compress.compress", 0, 0, |_| {
            self.inner.compress(src, dst)
        });
        let ns = t0.elapsed().as_nanos() as u64;
        let mut t = self.totals.lock().expect("codec totals poisoned");
        t.calls += 1;
        t.bytes_in += src.len() as u64;
        t.bytes_out += (dst.len() - before) as u64;
        t.compress_ns += ns;
    }

    fn decompress(&self, src: &[u8], dst: &mut Vec<u8>) -> Result<(), Corrupt> {
        self.tracer
            .span(&self.rt, "compress.decompress", 0, 0, |_| {
                self.inner.decompress(src, dst)
            })
    }
}

// ---------------------------------------------------------------------------
// mpi: timed point-to-point and barrier.
// ---------------------------------------------------------------------------

/// `Rank::send`, timed.
pub fn send<T: std::any::Any + Send>(
    tracer: &Tracer,
    r: &Rank,
    parent: u64,
    dst: usize,
    tag: Tag,
    value: T,
    bytes: u64,
) {
    tracer.span(r.runtime(), "mpi.send", parent, 0, |_| {
        r.send(dst, tag, value, bytes)
    })
}

/// `Rank::recv`, timed.
pub fn recv<T: std::any::Any + Send>(
    tracer: &Tracer,
    r: &Rank,
    parent: u64,
    src: Option<usize>,
    tag: Tag,
) -> (usize, T) {
    tracer.span(r.runtime(), "mpi.recv", parent, 0, |_| r.recv(src, tag))
}

/// `Rank::barrier`, timed.
pub fn barrier(tracer: &Tracer, r: &Rank, parent: u64) {
    tracer.span(r.runtime(), "mpi.barrier", parent, 0, |_| r.barrier())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, v0: u64, v1: u64) -> Span {
        Span {
            name: "s",
            id,
            parent,
            op: 0,
            v0,
            v1,
            w0: v0,
            w1: v1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent [0,100); children [10,40) and [30,60) overlap, [90,120)
        // sticks out past the parent's end.
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 30, 60),
            span(4, 1, 90, 120),
        ];
        let s = self_times(&spans);
        assert_eq!(s[&1].0, 100 - 50 - 10);
        assert_eq!(s[&2].0, 30);
        assert_eq!(s[&4].0, 30);
    }

    #[test]
    fn totals_group_by_name() {
        let mut spans = vec![span(1, 0, 0, 10), span(2, 1, 2, 4)];
        spans[1].name = "child";
        let t = totals(&spans);
        assert_eq!(t["s"].count, 1);
        assert_eq!(t["s"].self_virt_ns, 8);
        assert_eq!(t["child"].virt_ns, 2);
    }
}
