//! What every workload shares: the round configuration, the result of
//! one round, the stopwatch around the timed phase, and the per-layer
//! figures the library reports on its own.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use semplar::{EngineStats, RecoveryStats};
use semplar_netsim::NetStats;
use semplar_runtime::{Runtime, SimRuntime, SimStats};
use semplar_srb::{CacheStats, ServerStats};

use crate::procstat::{self, Sample};
use crate::stats::{ms, percentile, ratio, Metrics};
use crate::trace::{covered, BackendCall, Span, Tracer};

/// How one round is made.
#[derive(Clone)]
pub struct Cfg {
    /// The run's `--seed`; inputs shared by every round derive from it.
    pub run_seed: u64,
    /// This round's seed, derived from the run's: the same `--seed` gives
    /// the same inputs.
    pub seed: u64,
    /// Nominal wall seconds of one round on the reference host; sizes the
    /// work (see the README).
    pub scale: f64,
    /// Span store; disabled for the untraced pass.
    pub tracer: Arc<Tracer>,
}

impl Cfg {
    /// `per_second` units of work for each nominal second of the round,
    /// at least `min`.
    pub fn work(&self, per_second: f64, min: u64) -> u64 {
        ((per_second * self.scale).round() as u64).max(min)
    }
}

/// The result of one round of a workload.
#[derive(Default)]
pub struct Run {
    /// Process CPU seconds from the start of set-up to the start of the
    /// timed phase (see [`SetupClock`]).
    pub setup_s: f64,
    /// Wall seconds of the timed phase.
    pub wall_s: f64,
    /// Process counters accumulated over the timed phase.
    pub proc: Sample,
    /// How much slower than nominal the host ran the reference job around
    /// this round (see `calib`); 0 where it was not gauged.
    pub slowdown: f64,
    /// Client-visible operations attempted.
    pub attempted: u64,
    /// Operations that failed or could not be verified.
    pub failed: u64,
    /// Named correctness checks and whether each held.
    pub checks: Vec<(String, bool)>,
    /// Virtual end-to-end metrics (`virtual_s`, `goodput_mbps`,
    /// `op_p50_ms`, `op_p99_ms`, and `overlap_pct` where it applies).
    pub virt: Metrics,
    /// Virtual latency, ms, of every client-visible operation; the run
    /// pools these over its rounds for `op_mean_ms`, `op_p99_ms` and the
    /// printed `op_p50_ms`.
    pub latencies: Vec<f64>,
    /// Per-layer metrics.
    pub layer: Metrics,
    /// Spans of a traced run.
    pub spans: Vec<Span>,
}

impl Run {
    /// Record a check.
    pub fn check(&mut self, name: &str, ok: bool) {
        self.checks.push((name.to_string(), ok));
    }

    /// Set a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64) {
        self.layer.insert(name.to_string(), value);
    }

    /// Set a virtual end-to-end metric.
    pub fn virt(&mut self, name: &str, value: f64) {
        self.virt.insert(name.to_string(), value);
    }
}

/// Process CPU time at the start of a round's set-up.
///
/// Set-up is timed on the CPU clock, not the wall clock: it lasts a few
/// milliseconds, and on a shared host the wall time of so short a span
/// mostly measures who else holds the cores.
pub struct SetupClock(f64);

impl SetupClock {
    /// CPU seconds the process spent since set-up began.
    pub fn seconds(&self) -> f64 {
        procstat::cpu_s_fine() - self.0
    }
}

/// Build a fresh simulation and run `f` as its root actor. `f` gets the
/// runtime handle, the simulation (for its counters) and the set-up
/// clock, started before the simulation was built.
pub fn simulate<T, F>(f: F) -> T
where
    T: Send + 'static,
    F: FnOnce(Arc<dyn Runtime>, Arc<SimRuntime>, SetupClock) -> T + Send + 'static,
{
    let setup = SetupClock(procstat::cpu_s_fine());
    let sim = Arc::new(SimRuntime::new());
    let sim2 = sim.clone();
    sim.run_root(move |rt| f(rt, sim2, setup))
}

/// Readings at the start of the timed phase.
pub struct Stopwatch {
    wall: Instant,
    proc: Sample,
    virt_ns: u64,
    sim: SimStats,
}

/// What the timed phase cost on both clocks.
pub struct Lap {
    /// Wall seconds.
    pub wall_s: f64,
    /// Process counters over the phase.
    pub proc: Sample,
    /// Virtual seconds.
    pub virtual_s: f64,
    /// Virtual end, ns.
    pub v1: u64,
    /// Simulator counters at the start.
    pub sim0: SimStats,
    /// Simulator counters at the end.
    pub sim1: SimStats,
}

impl Stopwatch {
    /// Start the timed phase.
    pub fn start(rt: &Arc<dyn Runtime>, sim: &SimRuntime) -> Stopwatch {
        Stopwatch {
            sim: sim.stats(),
            virt_ns: rt.now().as_nanos(),
            proc: Sample::now(),
            wall: Instant::now(),
        }
    }

    /// End the timed phase.
    pub fn stop(self, rt: &Arc<dyn Runtime>, sim: &SimRuntime) -> Lap {
        let wall_s = self.wall.elapsed().as_secs_f64();
        let proc = Sample::now().since(&self.proc);
        let v1 = rt.now().as_nanos();
        Lap {
            wall_s,
            proc,
            virtual_s: (v1 - self.virt_ns) as f64 / 1e9,
            v1,
            sim0: self.sim,
            sim1: sim.stats(),
        }
    }
}

/// The `runtime.*` layer: simulator counters over the timed phase and the
/// process counters behind them.
pub fn runtime_layer(run: &mut Run, lap: &Lap) {
    let advances = lap.sim1.clock_advances - lap.sim0.clock_advances;
    run.layer("runtime.wall_s", lap.wall_s);
    run.layer("runtime.clock_advances", advances as f64);
    run.layer(
        "runtime.wall_us_per_advance",
        ratio(lap.wall_s * 1e6, advances as f64),
    );
    run.layer("runtime.ctx_switches_vol", lap.proc.ctx_vol as f64);
    run.layer("runtime.ctx_switches_invol", lap.proc.ctx_invol as f64);
    run.layer("runtime.sys_cpu_s", lap.proc.sys_s);
    run.layer("runtime.user_cpu_s", lap.proc.user_s);
    run.layer("runtime.peak_live_actors", lap.sim1.peak_live_actors as f64);
    run.layer(
        "runtime.tasks_spawned",
        (lap.sim1.tasks_spawned - lap.sim0.tasks_spawned) as f64,
    );
    run.layer(
        "runtime.timers_armed",
        (lap.sim1.timers_armed - lap.sim0.timers_armed) as f64,
    );
}

/// The `netsim.*` layer: allocation-engine counters over the timed phase.
pub fn netsim_layer(run: &mut Run, before: &NetStats, after: &NetStats, wall_s: f64) {
    let recomputes = after.recomputes - before.recomputes;
    let touched = after.flows_touched - before.flows_touched;
    let solver_ms = (after.alloc_nanos - before.alloc_nanos) as f64 / 1e6;
    run.layer("netsim.recomputes", recomputes as f64);
    run.layer(
        "netsim.flows_per_recompute",
        ratio(touched as f64, recomputes as f64),
    );
    run.layer(
        "netsim.settles_skipped",
        (after.settles_skipped - before.settles_skipped) as f64,
    );
    run.layer("netsim.signals", (after.signals - before.signals) as f64);
    run.layer("netsim.solver_ms", solver_ms);
    run.layer("netsim.solver_share", ratio(solver_ms / 1e3, wall_s));
}

/// Durations in ms of the spans named `name`.
pub fn span_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.v1 - s.v0) as f64 / 1e6)
        .collect()
}

/// Deterministic bytes for checkpoint and payload contents.
pub fn pattern(seed: u64, a: u64, b: u64, len: usize) -> Vec<u8> {
    let mut x =
        seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        x = splitmix64(x);
        out.extend_from_slice(&x.to_le_bytes());
    }
    out.truncate(len);
    out
}

/// splitmix64: a seeded 64-bit mix.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A uniform draw in `[0, 1)` from `(seed, a, b)`.
pub fn unit(seed: u64, a: u64, b: u64) -> f64 {
    let x = splitmix64(seed ^ splitmix64(a ^ splitmix64(b)));
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// The backend part of the `core.*` layer, from the operation ledger:
/// virtual time inside `AdioFile` calls and their wall cost.
pub fn backend_layer(run: &mut Run, calls: &[BackendCall]) {
    let durations = |pick: fn(&BackendCall) -> bool| -> Vec<f64> {
        calls
            .iter()
            .filter(|c| pick(c))
            .map(|c| ms(c.v1 - c.v0))
            .collect()
    };
    let writes = durations(|c| c.write);
    let reads = durations(|c| c.read);
    run.layer("core.backend_write_ms_p50", percentile(&writes, 50.0));
    run.layer("core.backend_write_ms_p99", percentile(&writes, 99.0));
    run.layer("core.backend_read_ms_p50", percentile(&reads, 50.0));
    run.layer("core.backend_read_ms_p99", percentile(&reads, 99.0));
    let wall_ns: u64 = calls.iter().map(|c| c.w1 - c.w0).sum();
    run.layer(
        "core.backend_wall_us_per_call",
        ratio(wall_ns as f64 / 1e3, calls.len() as f64),
    );
}

/// Backend intervals `(virtual start, end)` of each operation.
pub fn calls_by_op(calls: &[BackendCall]) -> BTreeMap<u64, Vec<(u64, u64)>> {
    let mut by_op: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for c in calls {
        by_op.entry(c.op).or_default().push((c.v0, c.v1));
    }
    by_op
}

/// The request part of the `core.*` layer: latency of each client
/// operation `(op, virtual start, virtual end)` and the engine-queue time,
/// the part of it no backend call of the operation covers.
pub fn request_layer(run: &mut Run, ops: &[(u64, u64, u64)], calls: &[BackendCall]) {
    let by_op = calls_by_op(calls);
    let latency: Vec<f64> = ops.iter().map(|&(_, v0, v1)| ms(v1 - v0)).collect();
    let queue: Vec<f64> = ops
        .iter()
        .map(|&(op, v0, v1)| {
            let busy = by_op.get(&op).map_or(0, |iv| covered(iv.clone(), v0, v1));
            ms((v1 - v0) - busy)
        })
        .collect();
    run.layer("core.request_ms_p50", percentile(&latency, 50.0));
    run.layer("core.request_ms_p99", percentile(&latency, 99.0));
    run.layer("core.engine_queue_ms_p50", percentile(&queue, 50.0));
    run.layer("core.engine_queue_ms_p99", percentile(&queue, 99.0));
}

/// The engine part of the `core.*` layer, summed over files.
pub fn engine_layer(run: &mut Run, stats: impl Iterator<Item = EngineStats>) {
    let mut total = EngineStats::default();
    for s in stats {
        total.submitted += s.submitted;
        total.completed += s.completed;
        total.threads_spawned += s.threads_spawned;
    }
    run.layer("core.engine.submitted", total.submitted as f64);
    run.layer("core.engine.completed", total.completed as f64);
    run.layer("core.engine.threads_spawned", total.threads_spawned as f64);
}

/// `core.recovery.retries`: reconnects and resumed operations over every
/// mount.
pub fn recovery_layer(run: &mut Run, stats: impl Iterator<Item = RecoveryStats>) {
    let retries: u64 = stats
        .map(|s| s.reconnects + s.shared_reconnects + s.recovered_ops)
        .sum();
    run.layer("core.recovery.retries", retries as f64);
}

/// The `srb.server.*` layer over the timed phase; `ops` is the number of
/// client-visible operations.
pub fn server_layer(run: &mut Run, before: &ServerStats, after: &ServerStats, ops: u64) {
    let requests = after.requests - before.requests;
    run.layer("srb.server.requests", requests as f64);
    run.layer(
        "srb.server.requests_per_op",
        ratio(requests as f64, ops as f64),
    );
    run.layer(
        "srb.server.connections",
        (after.connections - before.connections) as f64,
    );
    run.layer(
        "srb.server.bytes_written",
        (after.bytes_written - before.bytes_written) as f64,
    );
    run.layer(
        "srb.server.bytes_read",
        (after.bytes_read - before.bytes_read) as f64,
    );
}

/// The `srb.cache.*` layer over the timed phase.
pub fn cache_layer(run: &mut Run, before: &CacheStats, after: &CacheStats) {
    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    run.layer(
        "srb.cache.hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    run.layer(
        "srb.cache.evictions",
        (after.evictions - before.evictions) as f64,
    );
    run.layer(
        "srb.cache.bytes_saved",
        (after.bytes_saved - before.bytes_saved) as f64,
    );
}
