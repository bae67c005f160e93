//! A fixed reference job that gauges how fast the host runs right now.
//!
//! On a shared virtual machine the same work costs more or less CPU time
//! as the load beside it changes: on the reference host the same round
//! took 0.66 CPU seconds in one minute and 1.13 in the next. The
//! benchmark times this job next to each round and scales the round's CPU
//! times by how much slower or faster than nominal the job ran (see the
//! README).
//!
//! The job has the cost shape of the simulator's timed phases: threads
//! that hand a token to each other through a mutex and a condition
//! variable, with a little memory work between handoffs. It uses the
//! standard library only, never the program's crates, so no change to the
//! program moves it.

use std::sync::{Arc, Condvar, Mutex};
use std::thread;

use crate::procstat;

/// Token handoffs per job.
const HANDOFFS: u64 = 8_000;
/// Bytes each side reads between two handoffs.
const WORK_BYTES: usize = 16 << 10;
/// CPU seconds of one job on the reference host when it ran unhindered;
/// sets the scale of the speed factor, nothing else.
pub const NOMINAL_S: f64 = 0.025;

/// CPU seconds the reference job took.
pub fn job_cpu_s() -> f64 {
    let t0 = procstat::cpu_s_fine();
    let turn = Arc::new((Mutex::new(0u64), Condvar::new()));
    let side = |me: u64| {
        let turn = turn.clone();
        move || {
            let buf: Vec<u64> = (0..WORK_BYTES as u64 / 8).collect();
            let mut acc = 0u64;
            let (lock, cv) = &*turn;
            loop {
                let mut t = lock.lock().expect("reference token poisoned");
                while *t < HANDOFFS && *t % 2 != me {
                    t = cv.wait(t).expect("reference token poisoned");
                }
                if *t >= HANDOFFS {
                    cv.notify_all();
                    return acc;
                }
                acc = buf.iter().fold(acc, |a, &x| a.wrapping_add(x ^ *t));
                *t += 1;
                cv.notify_all();
            }
        }
    };
    let a = thread::spawn(side(0));
    let b = thread::spawn(side(1));
    let sum = a.join().expect("reference side") ^ b.join().expect("reference side");
    std::hint::black_box(sum);
    procstat::cpu_s_fine() - t0
}
