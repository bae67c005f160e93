//! The paper's application workloads under the availability fault plan.
//!
//! MPI-BLAST (asynchronous result writes) and the 2D Laplace solver
//! (asynchronous overlapped checkpoints) each run fault-free, then again
//! with the seeded availability mix — WAN link flaps, a vault stall, a
//! connection reset, and a server crash + restart — injected at the start
//! of the run, so client-side recovery happens *inside* the compute/I-O
//! overlap window. The asynchronous engine's retained requests and the
//! client retry path must absorb every fault: the runs complete, and the
//! table reports how much of the fault cost the overlap hides. Entirely in
//! virtual time and seeded, so output is bit-identical across invocations.

use semplar_clusters::das2;
use semplar_faults::{FaultInjector, FaultPlan, FaultStats};
use semplar_runtime::Dur;
use semplar_workloads::{run_blast, run_laplace, BlastParams, LaplaceMode, LaplaceParams};

use crate::table::Table;
use crate::{print_ledger, with_testbed};

/// One workload arm: execution time fault-free and under the plan, the
/// faulted run's per-rank maximum compute and I/O-blocked times, and what
/// the injector did.
struct Arm {
    clean: f64,
    faulted: f64,
    compute: f64,
    io: f64,
    faults: FaultStats,
}

impl Arm {
    fn slowdown(&self) -> f64 {
        self.faulted / self.clean.max(1e-9)
    }
}

pub(crate) fn run(quick: bool) {
    let (procs, queries, laplace) = if quick {
        let p = LaplaceParams {
            checkpoints: 2,
            ..LaplaceParams::default()
        };
        (3usize, 60usize, p)
    } else {
        (4usize, 150usize, LaplaceParams::default())
    };
    let seed = 42u64;

    let ((blast, laplace), _) = with_testbed(das2(), procs, move |tb| {
        let (wan_up, _) = tb.wan_links();
        // The same fault mix as `fig_availability`, with its timeline
        // stretched by `scale` so every event lands mid-run.
        let availability_plan = |seed: u64, scale: f64| {
            let s = |secs: f64| Dur::from_secs_f64(secs * scale);
            FaultPlan::new(seed)
                .link_flap(wan_up, s(2.0), Dur::from_millis(300), 2)
                .vault_stall_at(s(4.0), 4 << 20)
                .conn_reset_at(s(6.0))
                .server_crash_at(s(8.0), s(0.6))
        };
        let wait = |inj: &FaultInjector| {
            while !inj.done() {
                tb.rt.sleep(Dur::from_millis(100));
            }
        };

        // MPI-BLAST, asynchronous writes.
        let bp = BlastParams::calibrated(&tb.spec, queries, 4.0).with_async(true);
        let clean = run_blast(&tb, procs, bp);
        let inj =
            availability_plan(seed, clean.exec_secs / 12.0).inject(&tb.rt, &tb.net, &tb.server);
        let faulted = run_blast(&tb, procs, bp);
        wait(&inj);
        let blast = Arm {
            clean: clean.exec_secs,
            faulted: faulted.exec_secs,
            compute: faulted.compute_secs,
            io: faulted.io_secs,
            faults: inj.stats(),
        };

        // 2D Laplace, asynchronous overlapped checkpoints.
        let lp = LaplaceParams {
            mode: LaplaceMode::AsyncOverlap,
            ..laplace
        };
        let clean = run_laplace(&tb, procs, lp);
        let inj =
            availability_plan(seed + 1, clean.exec_secs / 12.0).inject(&tb.rt, &tb.net, &tb.server);
        let faulted = run_laplace(&tb, procs, lp);
        wait(&inj);
        let laplace = Arm {
            clean: clean.exec_secs,
            faulted: faulted.exec_secs,
            compute: faulted.compute_secs,
            io: faulted.io_secs,
            faults: inj.stats(),
        };
        (blast, laplace)
    });

    let mut t = Table::new(
        &format!(
            "Workloads under the availability fault plan (das2, {procs} procs, seed {seed}): \
             WAN flaps + vault stall + conn reset + server crash, injected at run start"
        ),
        &[
            "workload",
            "clean (s)",
            "faulted (s)",
            "slowdown",
            "compute (s)",
            "io (s)",
            "faults injected",
        ],
    );
    for (name, arm) in [
        ("MPI-BLAST async", &blast),
        ("Laplace async-overlap", &laplace),
    ] {
        t.row(vec![
            name.into(),
            format!("{:.1}", arm.clean),
            format!("{:.1}", arm.faulted),
            format!("{:.2}x", arm.slowdown()),
            format!("{:.1}", arm.compute),
            format!("{:.1}", arm.io),
            arm.faults.injected().to_string(),
        ]);
    }
    t.print();

    for (name, arm) in [("blast", &blast), ("laplace", &laplace)] {
        print_ledger(
            &format!("{name} fault ledger (virtual time from injection):"),
            &arm.faults.ledger,
        );
        assert_eq!(
            arm.faults.crashes, 1,
            "{name}: the server crash never landed"
        );
        assert!(
            arm.slowdown() >= 1.0,
            "{name}: faulted run faster than clean?"
        );
    }
}
