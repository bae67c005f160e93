//! The virtual-time runtime.
//!
//! # Model
//!
//! Every simulated entity (an MPI rank, an SRB server connection handler, a
//! SEMPLAR I/O thread) is a **real OS thread** registered with the engine as
//! an *actor*. Actors may only block through the engine — via
//! [`Runtime::sleep`], or by waiting on an engine-created [`Event`].
//!
//! # The baton
//!
//! Exactly one actor runs at a time: the one holding the engine's *baton*.
//! Every other actor is parked on its own condition variable, either
//! blocked (waiting for a signal or a timer) or *ready* (woken, queued in a
//! FIFO for its turn). When the holder blocks or exits it hands the baton to
//! the head of the ready queue and notifies that one actor only. When the
//! ready queue is empty the virtual clock jumps to the earliest pending
//! timer, and the sleepers due at that instant enter the ready queue in
//! `(due time, arm order)`. Virtual time therefore advances in discrete
//! hops and never passes while any actor still has work to do.
//!
//! The baton makes a run a pure function of its inputs: the order of every
//! side effect at one virtual instant is fixed by wake order, not by the
//! host's thread scheduler. A freshly spawned actor joins the ready queue
//! and does not run its body until it is handed the baton, so a spawner
//! keeps running until it blocks.
//!
//! The price is one rule for library code: **never hold a plain `Mutex`
//! across an engine wait** (see [`crate::sync`]). Another actor that tries
//! to take that lock would block its OS thread while holding the baton,
//! and the whole simulation would hang.
//!
//! If every actor is blocked and no timer is pending, the simulation has
//! genuinely deadlocked; the engine panics with a table of the baton, the
//! ready queue, every actor and what it is blocked on, then poisons itself
//! so all other actors unwind too.
//!
//! # Why threads rather than an event loop?
//!
//! The point of this reproduction is to run the *actual* SEMPLAR
//! implementation — compute thread, FIFO I/O queue, condition-variable
//! wakeups (Fig. 2 of the paper) — not a model of it. Mapping each simulated
//! thread onto a real thread lets the identical library code run under
//! virtual time (for the WAN-scale experiments) and wall-clock time (unit
//! tests, examples) without modification.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering as AtOrd};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::runtime::{Event, EventApi, JoinHandle, Runtime, Wake};
use crate::time::{Dur, Time};

thread_local! {
    static CURRENT_ACTOR: std::cell::Cell<Option<u64>> = const { std::cell::Cell::new(None) };
}

/// When set, the process-wide panic hook suppresses *all* actor panic
/// output. Used by the model checker, whose exploration deliberately
/// drives simulations into panics (deadlocks, violated invariants) and
/// reports them as counterexamples instead.
static QUIET_PANICS: AtomicBool = AtomicBool::new(false);

/// Suppress (or restore) printing of actor panics process-wide. The model
/// checker sets this while exploring schedules: a panicking interleaving
/// is a *result* there, not a bug to dump backtraces for.
pub fn set_quiet_panics(quiet: bool) {
    QUIET_PANICS.store(quiet, AtOrd::SeqCst);
}

const SLOT_PENDING: u8 = 0;
const SLOT_SIGNALED: u8 = 1;
const SLOT_TIMEOUT: u8 = 2;
const SLOT_SHUTDOWN: u8 = 3;

/// Panic payload used to unwind daemon actors at simulation quiescence.
/// The spawn wrapper recognizes it and treats the exit as clean.
struct ShutdownSignal;

/// One blocked wait. All fields are only mutated while the engine lock is
/// held; the atomics exist purely to avoid `unsafe` interior mutability.
struct WaitSlot {
    state: AtomicU8,
    actor: u64,
    /// Explicit [`Runtime::schedule_point`] label, if this wait is one.
    tag: Option<Arc<str>>,
}

impl WaitSlot {
    fn new(actor: u64) -> Arc<WaitSlot> {
        Arc::new(WaitSlot {
            state: AtomicU8::new(SLOT_PENDING),
            actor,
            tag: None,
        })
    }

    fn tagged(actor: u64, tag: &str) -> Arc<WaitSlot> {
        Arc::new(WaitSlot {
            state: AtomicU8::new(SLOT_PENDING),
            actor,
            tag: Some(Arc::from(tag)),
        })
    }

    fn is_woken(&self) -> bool {
        self.state.load(AtOrd::Relaxed) != SLOT_PENDING
    }
}

struct TimerEntry {
    at: u64,
    seq: u64,
    slot: Arc<WaitSlot>,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    // Reversed so the BinaryHeap (a max-heap) pops the earliest timer first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// One eligible wake at a schedule choice point: a pending timer (or
/// [`Runtime::schedule_point`] yield) the engine could fire next.
#[derive(Clone, Debug)]
pub struct Choice {
    /// Name of the actor that would wake.
    pub actor: String,
    /// What the actor is blocked on (`"sleep"`, `"event wait (timeout)"`,
    /// `"schedule point"`).
    pub blocked_on: &'static str,
    /// The virtual time the wake would happen at (its due time, or the
    /// current instant if the event was already deferred past it).
    pub at: Time,
    /// Explicit label, when the wait is a tagged
    /// [`Runtime::schedule_point`].
    pub tag: Option<Arc<str>>,
}

impl Choice {
    /// A short human-readable label for traces and taxonomy: the explicit
    /// tag when present, otherwise `actor/blocked_on`.
    pub fn label(&self) -> String {
        match &self.tag {
            Some(t) => t.to_string(),
            None => format!("{}/{}", self.actor, self.blocked_on),
        }
    }
}

/// A pluggable scheduler for systematic exploration.
///
/// When installed via [`SimRuntime::set_schedule_hook`], the engine stops
/// releasing same-instant timers all at once in timestamp order. Instead, at
/// every instant where the clock must advance it collects *every* pending
/// event due within `window` of the earliest one and asks the hook which
/// to fire next; the chosen actor runs until it blocks again, then the
/// remaining (still-eligible) events plus any newly due ones form the next
/// choice point. Choosing index 0 always reproduces the default schedule:
/// eligible events are presented sorted by `(effective time, arm order)`.
///
/// `choose` is called with the engine lock held: it must not call back
/// into the runtime (no sleeps, spawns, or event ops) and should be a pure
/// function of its arguments plus the hook's own bookkeeping.
pub trait ScheduleHook: Send + Sync {
    /// Pick which of `eligible` (always ≥ 2 entries) fires next, by index.
    /// `fingerprint` hashes the engine state at this point (virtual time,
    /// every actor's name and block reason, the pending eligible set) for
    /// visited-state dedup.
    fn choose(&self, now: Time, fingerprint: u64, eligible: &[Choice]) -> usize;
}

struct ActorInfo {
    name: String,
    /// True while the actor is runnable: holding the baton or queued in
    /// `ready`.
    counted: bool,
    /// What the actor is blocked on, for deadlock diagnostics.
    blocked_on: Option<&'static str>,
    /// Daemon actors (e.g. server connection handlers parked on their
    /// request channel) do not keep the simulation alive: when only daemons
    /// remain blocked and no timer is pending, they are unwound cleanly.
    daemon: bool,
    /// Where this actor's thread parks until it is handed the baton.
    cv: Arc<Condvar>,
}

#[derive(Default)]
struct EngineState {
    now: u64,
    actors: HashMap<u64, ActorInfo>,
    next_actor: u64,
    /// Runnable actors waiting for the baton, in wake order.
    ready: VecDeque<u64>,
    /// The baton: the one actor allowed to run. `None` before the first
    /// spawn, after the last exit, and once the engine is poisoned.
    running: Option<u64>,
    timers: BinaryHeap<TimerEntry>,
    next_seq: u64,
    /// Every currently blocked slot, in block order, so quiescence and
    /// poisoning release them deterministically.
    blocked_slots: BTreeMap<u64, Arc<WaitSlot>>,
    next_slot: u64,
    poisoned: bool,
    /// Human-readable cause of the poisoning (first panic / deadlock).
    poison_cause: String,
    clock_advances: u64,
    max_actors: usize,
    timers_armed: u64,
    /// Thread actors ever spawned (root + spawn + spawn_daemon).
    actors_spawned: u64,
    /// Event-driven tasks ever reported via [`Runtime::task_spawned`].
    tasks_spawned: u64,
    /// Currently live event-driven tasks.
    live_tasks: usize,
    /// Largest number of simultaneously live event-driven tasks.
    peak_live_tasks: usize,
    /// Systematic-exploration scheduler, if installed. `None` releases
    /// every timer due at the earliest instant at once.
    hook: Option<Arc<dyn ScheduleHook>>,
    /// Eligibility window (ns): pending events within this much of the
    /// earliest one are presented together as one choice point. Zero
    /// without a hook.
    hook_window: u64,
    /// Events pulled into an eligible set but not yet fired (the hook
    /// deferred them past their due time).
    deferred: Vec<TimerEntry>,
    /// Choice points faced (≥ 2 eligible events with a hook installed).
    choice_points: u64,
    /// Total alternatives across all choice points.
    choice_alternatives: u64,
}

struct Engine {
    state: Mutex<EngineState>,
    /// Signalled when the last actor exits; only [`SimRuntime::wait_done`]
    /// waits on it. Actors park on their own [`ActorInfo::cv`].
    cond: Condvar,
}

/// Mark `slot` woken and queue its actor for the baton. Only the first wake
/// of a slot counts; the actor runs when the baton reaches it.
fn wake_locked(st: &mut EngineState, slot: &Arc<WaitSlot>, reason: u8) {
    if slot.is_woken() {
        return;
    }
    slot.state.store(reason, AtOrd::Relaxed);
    if let Some(info) = st.actors.get_mut(&slot.actor) {
        if !info.counted {
            info.counted = true;
            info.blocked_on = None;
            st.ready.push_back(slot.actor);
        }
    }
}

impl Engine {
    fn current_actor(&self) -> u64 {
        CURRENT_ACTOR.with(|c| c.get()).unwrap_or_else(|| {
            panic!(
                "blocking SimRuntime operation called from a thread that is not a \
                 registered actor; spawn work via SimRuntime::spawn (or run_root)"
            )
        })
    }

    /// The baton holder is blocking or exiting (or nobody holds it): hand
    /// the baton to the head of the ready queue, advancing the clock first
    /// if nobody is ready, and notify that one actor.
    fn pass_baton_locked(&self, st: &mut EngineState) {
        if st.ready.is_empty() {
            // `running` still names the releasing actor here, so a
            // deadlock report can say who blocked last.
            self.advance_locked(st);
        }
        st.running = st.ready.pop_front();
        if let Some(info) = st.running.and_then(|id| st.actors.get(&id)) {
            info.cv.notify_one();
        }
    }

    /// Nobody is ready: collect the pending events due within the
    /// eligibility window of the earliest one, sorted by
    /// `(effective time, arm order)`, and release them into the ready
    /// queue. With no hook the window is zero and the whole instant is
    /// released; with a hook only the event the [`ScheduleHook`] picks
    /// fires, and the rest stay eligible (they fire late, at the chosen
    /// event's time) — exactly the delivery-order freedom a message-level
    /// model checker explores.
    fn advance_locked(&self, st: &mut EngineState) {
        while st.ready.is_empty() && !st.actors.is_empty() {
            // Drop timers whose waiters were already woken by a signal.
            st.deferred.retain(|e| !e.slot.is_woken());
            while st.timers.peek().is_some_and(|e| e.slot.is_woken()) {
                st.timers.pop();
            }
            // Daemons do not keep the simulation alive: once every
            // non-daemon actor has exited, a daemon's pending timer (a
            // heartbeat loop, a periodic monitor) must not advance the
            // clock forever. Unwind instead.
            if (st.deferred.is_empty() && st.timers.is_empty())
                || st.actors.values().all(|a| a.daemon)
            {
                self.quiesce_or_deadlock_locked(st);
                return;
            }
            // Earliest effective wake time over every pending event; a
            // deferred event's due time may be in the past, in which case
            // it would fire "now".
            let now = st.now;
            let base = st
                .timers
                .peek()
                .map(|e| e.at)
                .into_iter()
                .chain(st.deferred.iter().map(|e| e.at.max(now)))
                .min()
                .expect("pending set checked non-empty");
            let cutoff = base.saturating_add(st.hook_window);
            while let Some(e) = st.timers.peek() {
                if e.slot.is_woken() {
                    st.timers.pop();
                    continue;
                }
                if e.at > cutoff {
                    break;
                }
                let e = st.timers.pop().expect("peeked");
                st.deferred.push(e);
            }
            // Deterministic presentation order: index 0 is always what the
            // default schedule fires first.
            st.deferred.sort_by_key(|e| (e.at.max(now), e.seq));
            let fire = match st.hook.clone() {
                None => 0..st.deferred.len(),
                Some(_) if st.deferred.len() == 1 => 0..1,
                Some(hook) => {
                    let i = self.choose_locked(st, &*hook);
                    i..i + 1
                }
            };
            let t = st.deferred[fire.start].at.max(now);
            if t > now {
                st.now = t;
                st.clock_advances += 1;
            }
            let fired: Vec<TimerEntry> = st.deferred.drain(fire).collect();
            for e in fired {
                wake_locked(st, &e.slot, SLOT_TIMEOUT);
            }
        }
    }

    /// Present the (sorted, ≥ 2) eligible set to `hook` and return the
    /// index it picks.
    fn choose_locked(&self, st: &mut EngineState, hook: &dyn ScheduleHook) -> usize {
        let now = st.now;
        let eligible: Vec<Choice> = st
            .deferred
            .iter()
            .map(|e| {
                let info = st.actors.get(&e.slot.actor);
                Choice {
                    actor: info.map(|a| a.name.clone()).unwrap_or_default(),
                    blocked_on: info.and_then(|a| a.blocked_on).unwrap_or("(exiting)"),
                    at: Time(e.at.max(now)),
                    tag: e.slot.tag.clone(),
                }
            })
            .collect();
        st.choice_points += 1;
        st.choice_alternatives += eligible.len() as u64;
        let fp = fingerprint_locked(st);
        let i = hook.choose(Time(now), fp, &eligible);
        assert!(
            i < eligible.len(),
            "ScheduleHook chose {i} of {} eligible events",
            eligible.len()
        );
        i
    }

    /// No pending event and nobody runnable: unwind cleanly if only parked
    /// daemons remain, otherwise report the deadlock and poison.
    fn quiesce_or_deadlock_locked(&self, st: &mut EngineState) {
        if st.actors.values().all(|a| a.daemon) {
            // Quiescence: only parked daemons remain. Unwind them
            // cleanly, in block order; the simulation is complete.
            let slots: Vec<_> = st.blocked_slots.values().cloned().collect();
            for s in slots {
                wake_locked(st, &s, SLOT_SHUTDOWN);
            }
            return;
        }
        let baton = match st.running.map(|id| (id, st.actors.get(&id))) {
            Some((id, Some(a))) => format!("actor #{id} {:?} (releasing it)", a.name),
            Some((id, None)) => format!("actor #{id} (exiting, releasing it)"),
            None => "free".to_string(),
        };
        let mut table = format!("\n  baton: {baton}\n  ready: {:?}", st.ready);
        let mut actors: Vec<_> = st.actors.iter().collect();
        actors.sort_by_key(|(id, _)| **id);
        for (id, a) in actors {
            table.push_str(&format!(
                "\n  actor #{id} {:?}: blocked on {}",
                a.name,
                a.blocked_on.unwrap_or("(exiting)")
            ));
        }
        let msg = format!(
            "simulation deadlock at {}: every actor is blocked and no timer is pending{table}",
            Time(st.now)
        );
        self.poison_locked(st, &msg);
        panic!("{msg}");
    }

    /// Poison the engine and release every actor — blocked, ready, or
    /// waiting for its first baton — so all of them unwind.
    fn poison_locked(&self, st: &mut EngineState, cause: &str) {
        if !st.poisoned {
            st.poisoned = true;
            st.poison_cause = cause.to_string();
        }
        let slots: Vec<_> = st.blocked_slots.values().cloned().collect();
        for s in slots {
            wake_locked(st, &s, SLOT_SIGNALED);
        }
        st.running = None;
        for a in st.actors.values() {
            a.cv.notify_one();
        }
    }

    /// Park the calling thread until actor `me` holds the baton or the
    /// engine is poisoned.
    fn await_baton_locked(st: &mut MutexGuard<'_, EngineState>, me: u64, cv: &Condvar) {
        while st.running != Some(me) && !st.poisoned {
            cv.wait(st);
        }
    }

    /// Block the current actor on `slot`, with the engine lock already held.
    /// Returns the wake reason.
    fn block_locked(
        &self,
        st: &mut MutexGuard<'_, EngineState>,
        slot: &Arc<WaitSlot>,
        why: &'static str,
    ) -> Wake {
        if st.poisoned {
            panic!("simulation poisoned: {}", st.poison_cause);
        }
        debug_assert_eq!(
            st.running,
            Some(slot.actor),
            "actor blocked without holding the baton"
        );
        let slot_id = st.next_slot;
        st.next_slot += 1;
        st.blocked_slots.insert(slot_id, slot.clone());
        let cv = {
            let info = st
                .actors
                .get_mut(&slot.actor)
                .expect("blocking actor not registered");
            debug_assert!(info.counted, "actor blocked twice");
            info.counted = false;
            info.blocked_on = Some(why);
            info.cv.clone()
        };
        self.pass_baton_locked(st);
        Self::await_baton_locked(st, slot.actor, &cv);
        st.blocked_slots.remove(&slot_id);
        if st.poisoned {
            panic!("simulation poisoned: {}", st.poison_cause);
        }
        match slot.state.load(AtOrd::Relaxed) {
            SLOT_SIGNALED => Wake::Signaled,
            SLOT_TIMEOUT => Wake::Timeout,
            SLOT_SHUTDOWN => std::panic::panic_any(ShutdownSignal),
            _ => unreachable!("woken slot left pending"),
        }
    }

    fn push_timer_locked(&self, st: &mut EngineState, at: u64, slot: Arc<WaitSlot>) {
        let seq = st.next_seq;
        st.next_seq += 1;
        st.timers_armed += 1;
        st.timers.push(TimerEntry { at, seq, slot });
    }

    fn schedule_point(&self, tag: &str) {
        let mut st = self.state.lock();
        // Without a hook this is free: no timer, no handoff, the default
        // schedule stays bit-identical.
        if st.hook.is_none() {
            return;
        }
        let slot = WaitSlot::tagged(self.current_actor(), tag);
        let at = st.now;
        self.push_timer_locked(&mut st, at, slot.clone());
        self.block_locked(&mut st, &slot, "schedule point");
    }

    fn actor_exit(&self, id: u64) {
        let mut st = self.state.lock();
        st.actors.remove(&id);
        if !st.poisoned {
            debug_assert_eq!(st.running, Some(id), "actor exited without the baton");
            self.pass_baton_locked(&mut st);
        }
        if st.actors.is_empty() {
            // Simulation finished; release anyone in wait_done().
            self.cond.notify_all();
        }
    }
}

/// Counters describing a finished (or running) simulation.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimStats {
    /// How many times the virtual clock hopped forward.
    pub clock_advances: u64,
    /// The largest number of concurrently registered actors.
    pub max_actors: usize,
    /// Thread actors ever spawned over the run — every one of these cost
    /// a real OS thread.
    pub actors_spawned: u64,
    /// The largest number of simultaneously live thread actors (alias of
    /// `max_actors`, named for symmetry with `peak_live_tasks`).
    pub peak_live_actors: usize,
    /// Event-driven tasks ever spawned on
    /// [`TaskExecutor`](crate::task::TaskExecutor)s bound to this runtime —
    /// these cost a state machine, not a thread.
    pub tasks_spawned: u64,
    /// The largest number of simultaneously live event-driven tasks.
    pub peak_live_tasks: usize,
    /// Timers armed over the run (sleeps plus timed waits); a proxy for how
    /// often actors re-armed completion timers after rate changes.
    pub timers_armed: u64,
    /// Scheduler choice points faced: instants where an installed
    /// [`ScheduleHook`] saw ≥ 2 eligible events. Always 0 on the default
    /// schedule (no hook), where simultaneity is resolved in arm order.
    pub choice_points: u64,
    /// Total eligible alternatives summed over all choice points — the
    /// exploration fan-out a model checker would face on this run.
    pub choice_alternatives: u64,
}

/// Hash the schedulable state of the engine: the instant, every actor's
/// name / runnability / block reason (as an order-independent multiset),
/// and the pending eligible set. Two runs that reach the same fingerprint
/// at a choice point are (to this abstraction) in the same state, so a
/// model checker can prune the repeat subtree.
fn fingerprint_locked(st: &EngineState) -> u64 {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let mut actors: Vec<(&str, bool, &str, bool)> = st
        .actors
        .values()
        .map(|a| {
            (
                a.name.as_str(),
                a.counted,
                a.blocked_on.unwrap_or("(exiting)"),
                a.daemon,
            )
        })
        .collect();
    actors.sort_unstable();
    let mut pending: Vec<(u64, &str)> = st
        .deferred
        .iter()
        .map(|e| {
            let label: &str = match &e.slot.tag {
                Some(t) => t,
                None => "",
            };
            (e.at.max(st.now) - st.now, label)
        })
        .collect();
    pending.sort_unstable();
    // Unkeyed DefaultHasher: deterministic across runs and processes (the
    // ShardMap / pool route-key idiom).
    let mut h = DefaultHasher::new();
    st.now.hash(&mut h);
    actors.hash(&mut h);
    pending.hash(&mut h);
    h.finish()
}

/// The virtual-time [`Runtime`]. See the module docs for the model.
pub struct SimRuntime {
    eng: Arc<Engine>,
}

impl Default for SimRuntime {
    fn default() -> Self {
        Self::new()
    }
}

impl SimRuntime {
    /// Create a fresh simulation with the clock at [`Time::ZERO`].
    pub fn new() -> SimRuntime {
        // Daemons left running at simulation end (server handlers, demux
        // loops) are unwound via `panic_any(ShutdownSignal)`; keep the
        // default hook from printing a backtrace for each of them.
        static QUIET_SHUTDOWN: std::sync::Once = std::sync::Once::new();
        QUIET_SHUTDOWN.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                if info.payload().downcast_ref::<ShutdownSignal>().is_some() {
                    return;
                }
                if QUIET_PANICS.load(AtOrd::SeqCst) {
                    return; // the model checker treats panics as results
                }
                prev(info);
            }));
        });
        SimRuntime {
            eng: Arc::new(Engine {
                state: Mutex::new(EngineState::default()),
                cond: Condvar::new(),
            }),
        }
    }

    /// A shareable `Arc<dyn Runtime>` handle.
    pub fn handle(&self) -> Arc<dyn Runtime> {
        Arc::new(SimRuntime {
            eng: self.eng.clone(),
        })
    }

    /// Block the *calling OS thread* (which must not be an actor) until every
    /// actor has exited.
    pub fn wait_done(&self) {
        let mut st = self.eng.state.lock();
        while !st.actors.is_empty() {
            self.eng.cond.wait(&mut st);
        }
    }

    /// Spawn `f` as the root actor, wait for the whole simulation to finish,
    /// and return `f`'s result. Panics from any actor propagate.
    pub fn run_root<T, F>(&self, f: F) -> T
    where
        T: Send + 'static,
        F: FnOnce(Arc<dyn Runtime>) -> T + Send + 'static,
    {
        let rt = self.handle();
        let out: Arc<Mutex<Option<T>>> = Arc::new(Mutex::new(None));
        let out2 = out.clone();
        let h = self.handle().spawn(
            "root",
            Box::new(move || {
                let v = f(rt);
                *out2.lock() = Some(v);
            }),
        );
        self.wait_done();
        h.join_unwrap();
        let v = out.lock().take();
        v.expect("root actor did not produce a value")
    }

    /// Simulation counters.
    pub fn stats(&self) -> SimStats {
        let st = self.eng.state.lock();
        SimStats {
            clock_advances: st.clock_advances,
            max_actors: st.max_actors,
            actors_spawned: st.actors_spawned,
            peak_live_actors: st.max_actors,
            tasks_spawned: st.tasks_spawned,
            peak_live_tasks: st.peak_live_tasks,
            timers_armed: st.timers_armed,
            choice_points: st.choice_points,
            choice_alternatives: st.choice_alternatives,
        }
    }

    /// Install a [`ScheduleHook`] for systematic exploration. `window` is
    /// the eligibility window: pending events due within `window` of the
    /// earliest one are presented together as one choice point, so the
    /// hook can reorder (delay) nearby events against each other. Install
    /// before spawning the workload; a window of zero still serializes
    /// exactly-simultaneous wakes through the hook.
    pub fn set_schedule_hook(&self, hook: Arc<dyn ScheduleHook>, window: Dur) {
        let mut st = self.eng.state.lock();
        st.hook = Some(hook);
        st.hook_window = window.as_nanos();
    }
}

/// One-shot helper: build a [`SimRuntime`], run `f` as the root actor, and
/// return its result once the simulation drains.
pub fn simulate<T, F>(f: F) -> T
where
    T: Send + 'static,
    F: FnOnce(Arc<dyn Runtime>) -> T + Send + 'static,
{
    SimRuntime::new().run_root(f)
}

impl Runtime for SimRuntime {
    fn now(&self) -> Time {
        Time(self.eng.state.lock().now)
    }

    fn sleep(&self, d: Dur) {
        if d.is_zero() {
            return;
        }
        let actor = self.eng.current_actor();
        let slot = WaitSlot::new(actor);
        let mut st = self.eng.state.lock();
        let at = st.now.saturating_add(d.as_nanos());
        self.eng.push_timer_locked(&mut st, at, slot.clone());
        self.eng.block_locked(&mut st, &slot, "sleep");
    }

    fn spawn(&self, name: &str, f: Box<dyn FnOnce() + Send + 'static>) -> JoinHandle {
        self.spawn_inner(name, f, false)
    }

    fn spawn_daemon(&self, name: &str, f: Box<dyn FnOnce() + Send + 'static>) -> JoinHandle {
        self.spawn_inner(name, f, true)
    }

    fn event(&self) -> Event {
        Arc::new(SimEvent {
            eng: self.eng.clone(),
            inner: Mutex::new(EventInner::default()),
        })
    }

    fn is_simulated(&self) -> bool {
        true
    }

    fn schedule_point(&self, tag: &str) {
        self.eng.schedule_point(tag);
    }

    fn task_spawned(&self) {
        let mut st = self.eng.state.lock();
        st.tasks_spawned += 1;
        st.live_tasks += 1;
        st.peak_live_tasks = st.peak_live_tasks.max(st.live_tasks);
    }

    fn task_finished(&self) {
        let mut st = self.eng.state.lock();
        st.live_tasks = st.live_tasks.saturating_sub(1);
    }
}

impl SimRuntime {
    fn spawn_inner(
        &self,
        name: &str,
        f: Box<dyn FnOnce() + Send + 'static>,
        daemon: bool,
    ) -> JoinHandle {
        let done = self.event();
        let (mut handle, exit) = JoinHandle::new(done);
        let cv = Arc::new(Condvar::new());
        let id = {
            let mut st = self.eng.state.lock();
            if st.poisoned {
                panic!("cannot spawn into a poisoned simulation");
            }
            let id = st.next_actor;
            st.next_actor += 1;
            st.actors.insert(
                id,
                ActorInfo {
                    name: name.to_string(),
                    counted: true,
                    blocked_on: None,
                    daemon,
                    cv: cv.clone(),
                },
            );
            st.ready.push_back(id);
            st.actors_spawned += 1;
            st.max_actors = st.max_actors.max(st.actors.len());
            // Spawned from outside the simulation (the root, or a harness
            // thread): nobody holds the baton to pass it on later.
            if st.running.is_none() {
                self.eng.pass_baton_locked(&mut st);
            }
            id
        };
        let eng = self.eng.clone();
        let t = std::thread::Builder::new()
            .name(format!("sim:{name}"))
            .spawn(move || {
                CURRENT_ACTOR.with(|c| c.set(Some(id)));
                let r = catch_unwind(AssertUnwindSafe(|| {
                    {
                        // The body runs only once the spawner has blocked
                        // and the baton reaches us.
                        let mut st = eng.state.lock();
                        Engine::await_baton_locked(&mut st, id, &cv);
                        if st.poisoned {
                            panic!("simulation poisoned: {}", st.poison_cause);
                        }
                    }
                    f()
                }));
                let payload = match r {
                    Ok(()) => None,
                    Err(p) if p.is::<ShutdownSignal>() => None, // clean daemon unwind
                    Err(p) => {
                        // Poison so the rest of the simulation unwinds instead
                        // of hanging on events this actor will never signal.
                        let cause = p
                            .downcast_ref::<&str>()
                            .map(|s| s.to_string())
                            .or_else(|| p.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "non-string panic payload".into());
                        let mut st = eng.state.lock();
                        eng.poison_locked(&mut st, &format!("panic in an actor: {cause}"));
                        Some(p)
                    }
                };
                // Publish completion *before* deregistering: a joiner must be
                // runnable again before our exit can trigger clock advance,
                // otherwise the engine would see a spurious deadlock.
                exit.finish(payload);
                eng.actor_exit(id);
            })
            .expect("spawn sim actor thread");
        handle.set_thread(t);
        handle
    }
}

#[derive(Default)]
struct EventInner {
    permits: usize,
    waiters: VecDeque<Arc<WaitSlot>>,
}

/// An [`Event`] bound to a virtual-time engine.
///
/// Lock order is strictly engine-state → event-inner; every method takes the
/// engine lock first, so the two locks can never deadlock against each other.
struct SimEvent {
    eng: Arc<Engine>,
    inner: Mutex<EventInner>,
}

impl EventApi for SimEvent {
    fn wait(&self) {
        let mut st = self.eng.state.lock();
        let slot = {
            let mut inner = self.inner.lock();
            if inner.permits > 0 {
                inner.permits -= 1;
                return;
            }
            // Only a registered actor may actually block; non-actor threads
            // (e.g. the harness thread joining after wait_done) succeed above
            // because the permit is already banked.
            let slot = WaitSlot::new(self.eng.current_actor());
            inner.waiters.push_back(slot.clone());
            slot
        };
        self.eng.block_locked(&mut st, &slot, "event wait");
    }

    fn wait_timeout(&self, d: Dur) -> Wake {
        let mut st = self.eng.state.lock();
        let slot = {
            let mut inner = self.inner.lock();
            if inner.permits > 0 {
                inner.permits -= 1;
                return Wake::Signaled;
            }
            if d.is_zero() {
                return Wake::Timeout;
            }
            let slot = WaitSlot::new(self.eng.current_actor());
            inner.waiters.push_back(slot.clone());
            slot
        };
        if d != Dur::MAX {
            let at = st.now.saturating_add(d.as_nanos());
            self.eng.push_timer_locked(&mut st, at, slot.clone());
        }
        self.eng
            .block_locked(&mut st, &slot, "event wait (timeout)")
    }

    fn signal(&self) {
        let mut st = self.eng.state.lock();
        let mut inner = self.inner.lock();
        loop {
            match inner.waiters.pop_front() {
                Some(w) if w.is_woken() => continue, // raced with a timeout
                Some(w) => {
                    wake_locked(&mut st, &w, SLOT_SIGNALED);
                    return;
                }
                None => {
                    inner.permits += 1;
                    return;
                }
            }
        }
    }

    fn notify_all(&self) {
        let mut st = self.eng.state.lock();
        let mut inner = self.inner.lock();
        while let Some(w) = inner.waiters.pop_front() {
            wake_locked(&mut st, &w, SLOT_SIGNALED);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::spawn;
    use std::sync::atomic::{AtomicUsize, Ordering as AO};

    #[test]
    fn sleep_advances_virtual_time_instantly() {
        let wall = std::time::Instant::now();
        let end = simulate(|rt| {
            rt.sleep(Dur::from_secs(3600));
            rt.now()
        });
        assert_eq!(end, Time::ZERO + Dur::from_secs(3600));
        assert!(wall.elapsed().as_secs() < 5, "virtual hour took wall time");
    }

    #[test]
    fn sleepers_wake_in_timestamp_order() {
        let order = Arc::new(Mutex::new(Vec::new()));
        let o2 = order.clone();
        simulate(move |rt| {
            let mut hs = Vec::new();
            for (i, ms) in [(0u32, 30u64), (1, 10), (2, 20)] {
                let rt2 = rt.clone();
                let o = o2.clone();
                hs.push(spawn(&rt, &format!("s{i}"), move || {
                    rt2.sleep(Dur::from_millis(ms));
                    o.lock().push((i, rt2.now().as_nanos()));
                }));
            }
            for h in hs {
                h.join_unwrap();
            }
        });
        let got = order.lock().clone();
        let mut sorted = got.clone();
        sorted.sort_by_key(|&(_, t)| t);
        assert_eq!(got, sorted);
        assert_eq!(
            got.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            vec![1, 2, 0]
        );
    }

    #[test]
    fn event_signal_wakes_waiter_without_time_passing() {
        let t = simulate(|rt| {
            let ev = rt.event();
            let ev2 = ev.clone();
            let rt2 = rt.clone();
            let h = spawn(&rt, "waiter", move || {
                ev2.wait();
                let _ = rt2.now();
            });
            rt.sleep(Dur::from_millis(5));
            ev.signal();
            h.join_unwrap();
            rt.now()
        });
        assert_eq!(t, Time::ZERO + Dur::from_millis(5));
    }

    #[test]
    fn event_permits_count() {
        simulate(|rt| {
            let ev = rt.event();
            ev.signal();
            ev.signal();
            assert_eq!(ev.wait_timeout(Dur::from_millis(1)), Wake::Signaled);
            assert_eq!(ev.wait_timeout(Dur::from_millis(1)), Wake::Signaled);
            assert_eq!(ev.wait_timeout(Dur::from_millis(1)), Wake::Timeout);
        });
    }

    #[test]
    fn wait_timeout_times_out_at_exact_virtual_instant() {
        let (start, end) = simulate(|rt| {
            let ev = rt.event();
            let s = rt.now();
            assert_eq!(ev.wait_timeout(Dur::from_millis(250)), Wake::Timeout);
            (s, rt.now())
        });
        assert_eq!(end - start, Dur::from_millis(250));
    }

    #[test]
    fn signal_beats_timeout() {
        simulate(|rt| {
            let ev = rt.event();
            let ev2 = ev.clone();
            let rt2 = rt.clone();
            let h = spawn(&rt, "signaller", move || {
                rt2.sleep(Dur::from_millis(10));
                ev2.signal();
            });
            assert_eq!(ev.wait_timeout(Dur::from_secs(100)), Wake::Signaled);
            assert_eq!(rt.now(), Time::ZERO + Dur::from_millis(10));
            h.join_unwrap();
        });
    }

    #[test]
    fn notify_all_releases_every_waiter() {
        let woken = Arc::new(AtomicUsize::new(0));
        let w2 = woken.clone();
        simulate(move |rt| {
            let ev = rt.event();
            let mut hs = Vec::new();
            for i in 0..8 {
                let ev2 = ev.clone();
                let w = w2.clone();
                hs.push(spawn(&rt, &format!("w{i}"), move || {
                    ev2.wait();
                    w.fetch_add(1, AO::SeqCst);
                }));
            }
            rt.sleep(Dur::from_millis(1)); // let them all block
            ev.notify_all();
            for h in hs {
                h.join_unwrap();
            }
        });
        assert_eq!(woken.load(AO::SeqCst), 8);
    }

    #[test]
    fn join_returns_after_child_exits() {
        let t = simulate(|rt| {
            let rt2 = rt.clone();
            let h = spawn(&rt, "child", move || {
                rt2.sleep(Dur::from_secs(2));
            });
            h.join_unwrap();
            rt.now()
        });
        assert_eq!(t, Time::ZERO + Dur::from_secs(2));
    }

    #[test]
    fn join_propagates_panic_payload() {
        let sim = SimRuntime::new();
        let rt = sim.handle();
        let h = rt.spawn(
            "panicker",
            Box::new(|| {
                panic!("boom-42");
            }),
        );
        sim.wait_done();
        let err = h.join().unwrap_err();
        let msg = err.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "boom-42");
    }

    #[test]
    fn daemons_do_not_block_completion() {
        // A "server" daemon parked forever on an event must not trip the
        // deadlock detector; the sim completes when the root finishes.
        let end = simulate(|rt| {
            let ev = rt.event();
            let rt2 = rt.clone();
            let _h = rt.spawn_daemon(
                "server-conn",
                Box::new(move || {
                    ev.wait(); // never signaled
                    let _ = rt2.now();
                }),
            );
            rt.sleep(Dur::from_millis(7));
            rt.now()
        });
        assert_eq!(end, Time::ZERO + Dur::from_millis(7));
    }

    #[test]
    fn daemon_loops_are_unwound_cleanly() {
        use crate::sync::Channel;
        let served = Arc::new(AtomicUsize::new(0));
        let s2 = served.clone();
        simulate(move |rt| {
            let ch: Channel<u32> = Channel::new(&rt);
            let ch2 = ch.clone();
            let s3 = s2.clone();
            rt.spawn_daemon(
                "handler",
                Box::new(move || {
                    while ch2.recv().is_ok() {
                        s3.fetch_add(1, AO::SeqCst);
                    }
                }),
            );
            for i in 0..5 {
                ch.send(i).unwrap();
            }
            rt.sleep(Dur::from_millis(1)); // let the daemon drain
        });
        assert_eq!(served.load(AO::SeqCst), 5);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_is_detected_and_reported() {
        simulate(|rt| {
            let ev = rt.event();
            ev.wait(); // nobody will ever signal
        });
    }

    #[test]
    fn deadlock_report_names_the_baton_and_the_ready_queue() {
        let err = catch_unwind(|| {
            simulate(|rt| {
                let ev = rt.event();
                let ev2 = ev.clone();
                let _stuck = spawn(&rt, "stuck", move || ev2.wait());
                ev.wait();
            })
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.contains("baton: actor #"), "{msg}");
        assert!(msg.contains("(releasing it)"), "{msg}");
        assert!(msg.contains("ready: []"), "{msg}");
        assert!(
            msg.contains(r#"actor #0 "root": blocked on event wait"#),
            "{msg}"
        );
        assert!(
            msg.contains(r#"actor #1 "stuck": blocked on event wait"#),
            "{msg}"
        );
    }

    #[test]
    fn many_actors_interleave_consistently() {
        // 20 actors each sleep 10 times; total virtual time is the max, and
        // every actor observes monotonically non-decreasing time.
        let end = simulate(|rt| {
            let mut hs = Vec::new();
            for i in 0..20u64 {
                let rt2 = rt.clone();
                hs.push(spawn(&rt, &format!("a{i}"), move || {
                    let mut last = rt2.now();
                    for _ in 0..10 {
                        rt2.sleep(Dur::from_micros(i + 1));
                        let now = rt2.now();
                        assert!(now >= last);
                        last = now;
                    }
                }));
            }
            for h in hs {
                h.join_unwrap();
            }
            rt.now()
        });
        assert_eq!(end, Time::ZERO + Dur::from_micros(200)); // 20µs * 10
    }

    #[test]
    fn stats_track_advances_and_actors() {
        let sim = SimRuntime::new();
        sim.run_root(|rt| {
            let rt2 = rt.clone();
            let h = spawn(&rt, "x", move || rt2.sleep(Dur::from_millis(1)));
            rt.sleep(Dur::from_millis(2));
            h.join_unwrap();
        });
        let s = sim.stats();
        assert!(s.clock_advances >= 2);
        assert!(s.max_actors >= 2);
        // Two sleeps arm two timers (timed waits would count here too).
        assert!(s.timers_armed >= 2, "{}", s.timers_armed);
    }

    #[test]
    fn zero_sleep_is_noop() {
        simulate(|rt| {
            rt.sleep(Dur::ZERO);
            assert_eq!(rt.now(), Time::ZERO);
        });
    }

    /// Always pick the default (earliest) eligible event.
    struct PickFirst;
    impl ScheduleHook for PickFirst {
        fn choose(&self, _now: Time, _fp: u64, _eligible: &[Choice]) -> usize {
            0
        }
    }

    /// Always defer as long as possible: pick the last eligible event.
    struct PickLast;
    impl ScheduleHook for PickLast {
        fn choose(&self, _now: Time, _fp: u64, eligible: &[Choice]) -> usize {
            eligible.len() - 1
        }
    }

    fn ordered_sleepers(
        hook: Option<(Arc<dyn ScheduleHook>, Dur)>,
        delays_us: Vec<u64>,
    ) -> (Vec<(usize, u64)>, SimStats) {
        let order = Arc::new(Mutex::new(Vec::new()));
        let o2 = order.clone();
        let sim = SimRuntime::new();
        if let Some((h, w)) = hook {
            sim.set_schedule_hook(h, w);
        }
        sim.run_root(move |rt| {
            let mut hs = Vec::new();
            for (i, us) in delays_us.into_iter().enumerate() {
                let rt2 = rt.clone();
                let o = o2.clone();
                hs.push(spawn(&rt, &format!("s{i}"), move || {
                    rt2.sleep(Dur::from_micros(us));
                    o.lock().push((i, rt2.now().as_nanos()));
                }));
            }
            for h in hs {
                h.join_unwrap();
            }
        });
        let stats = sim.stats();
        let got = order.lock().clone();
        (got, stats)
    }

    #[test]
    fn hook_default_choice_reproduces_plain_order() {
        let (plain, pstats) = ordered_sleepers(None, vec![30, 10, 10, 20]);
        let (hooked, hstats) =
            ordered_sleepers(Some((Arc::new(PickFirst), Dur::ZERO)), vec![30, 10, 10, 20]);
        assert_eq!(
            plain, hooked,
            "picking index 0 must be the default schedule"
        );
        assert_eq!(pstats.choice_points, 0, "no hook, no choice points");
        // The two 10µs sleepers collide at one instant: one choice point
        // with two alternatives.
        assert_eq!(hstats.choice_points, 1);
        assert_eq!(hstats.choice_alternatives, 2);
    }

    /// 16 actors sleep to one instant, then pass a signal along a ring.
    /// Returns the log of who woke and who received its signal, in order.
    fn same_instant_chain() -> Vec<(&'static str, usize)> {
        const N: usize = 16;
        let log = Arc::new(Mutex::new(Vec::new()));
        let l2 = log.clone();
        simulate(move |rt| {
            let evs: Vec<Event> = (0..N).map(|_| rt.event()).collect();
            let mut hs = Vec::new();
            for i in 0..N {
                let (rt2, evs, log) = (rt.clone(), evs.clone(), l2.clone());
                hs.push(spawn(&rt, &format!("c{i}"), move || {
                    rt2.sleep(Dur::from_micros(10));
                    log.lock().push(("woke", i));
                    evs[(i + 1) % N].signal();
                    evs[i].wait();
                    log.lock().push(("got", i));
                }));
            }
            for h in hs {
                h.join_unwrap();
            }
        });
        let got = log.lock().clone();
        got
    }

    #[test]
    fn same_instant_wakes_run_in_arm_order_every_time() {
        let first = same_instant_chain();
        let woke: Vec<usize> = first
            .iter()
            .filter(|(what, _)| *what == "woke")
            .map(|&(_, i)| i)
            .collect();
        assert_eq!(woke, (0..16).collect::<Vec<_>>(), "wake order is arm order");
        for run in 1..100 {
            assert_eq!(same_instant_chain(), first, "run {run} diverged");
        }
    }

    #[test]
    fn spawned_actor_waits_for_its_spawner_to_block() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let l2 = log.clone();
        simulate(move |rt| {
            let (started_tx, started_rx) = std::sync::mpsc::channel();
            let (rt2, l3) = (rt.clone(), l2.clone());
            let h = spawn(&rt, "child", move || {
                let _ = started_tx.send(());
                l3.lock().push(("child runs", rt2.now()));
            });
            // A child that ran without the baton would announce itself here.
            let early = started_rx.recv_timeout(std::time::Duration::from_millis(20));
            assert!(early.is_err(), "child ran before its spawner blocked");
            l2.lock().push(("spawner blocks", rt.now()));
            h.join_unwrap();
        });
        assert_eq!(
            *log.lock(),
            vec![("spawner blocks", Time::ZERO), ("child runs", Time::ZERO)]
        );
    }

    #[test]
    fn hook_can_defer_events_within_the_window() {
        // 10µs and 12µs sleeps, 5µs window: both eligible together, and
        // PickLast fires the 12µs one first; the deferred 10µs event then
        // fires late, at t=12µs.
        let (got, stats) = ordered_sleepers(
            Some((Arc::new(PickLast), Dur::from_micros(5))),
            vec![10, 12],
        );
        assert_eq!(
            got,
            vec![
                (1, Dur::from_micros(12).as_nanos()),
                (0, Dur::from_micros(12).as_nanos()),
            ],
            "the passed-over event must fire late, not never"
        );
        assert!(stats.choice_points >= 1);
    }

    #[test]
    fn hook_window_excludes_far_events() {
        // 10µs and 200µs sleeps, 5µs window: never simultaneous, so even
        // PickLast cannot reorder them.
        let (got, stats) = ordered_sleepers(
            Some((Arc::new(PickLast), Dur::from_micros(5))),
            vec![10, 200],
        );
        assert_eq!(
            got.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            vec![0, 1],
            "events outside the window keep their order"
        );
        assert_eq!(stats.choice_points, 0);
    }

    #[test]
    fn schedule_point_is_free_without_hook() {
        let sim = SimRuntime::new();
        let end = sim.run_root(|rt| {
            rt.schedule_point("noop");
            rt.now()
        });
        assert_eq!(end, Time::ZERO);
        assert_eq!(sim.stats().timers_armed, 0, "no hook, no timer");
    }

    #[test]
    fn schedule_point_is_explorable_under_a_hook() {
        // Two actors each pass a tagged schedule point "at the same time";
        // PickLast reverses their continuation order.
        let order = Arc::new(Mutex::new(Vec::new()));
        let o2 = order.clone();
        let sim = SimRuntime::new();
        sim.set_schedule_hook(Arc::new(PickLast), Dur::from_micros(5));
        sim.run_root(move |rt| {
            let mut hs = Vec::new();
            for i in 0..2 {
                let rt2 = rt.clone();
                let o = o2.clone();
                hs.push(spawn(&rt, &format!("p{i}"), move || {
                    rt2.sleep(Dur::from_micros(10));
                    rt2.schedule_point(&format!("point-{i}"));
                    o.lock().push(i);
                }));
            }
            for h in hs {
                h.join_unwrap();
            }
        });
        // PickLast fires sleeper 1 first; its schedule point re-enters the
        // eligible set against sleeper 0's wake, and PickLast keeps
        // deferring the earliest — actor 1 finishes first.
        assert_eq!(*order.lock(), vec![1, 0]);
    }
}
