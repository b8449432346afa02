//! The host under the measured phases: one CPU, and its speed.
//!
//! On a small VM whose cores are shared with other tenants, where the
//! scheduler puts the load connection and the server worker decides
//! whether each hand-off between them is a context switch on one CPU or a
//! wake-up of the other, and the cost of that wake-up depends on what the
//! host runs meanwhile.  The placement holds for a whole run: unpinned,
//! with one connection, hot_read's throughput spread 0.20 and its median
//! 0.25 between five seeds; with every thread on one CPU, 0.05–0.08 and
//! 0.04–0.05.  So set-ups and windows run inside a [`OneCpu`], one
//! connection at a time, and the closed loop measures one core's worth of
//! serving.
//!
//! Pinning leaves the speed of the CPU itself, which moves with what the
//! host runs beside it: ten cold_read seeds in a row ran at 14–15 req/s
//! for four runs and at 10–12 for the next six, a step the code did not
//! take.  [`probe_ms`] times a fixed computation that shares no code with
//! the program; the measured phases run it between their operations and
//! scale their times by it against [`REFERENCE_MS`].  Over ten seeds per
//! workload that cut churn's spread of median latency from 0.115 to 0.096
//! and of set-up time from 0.37 to 0.29, and left the others about where
//! they were (cold_read throughput 0.09 unscaled, 0.11 scaled): the probe
//! sees only part of what slows the program.

use std::process::{Command, Stdio};
use std::time::Instant;

/// The probe time that defines the reference speed: what [`probe_ms`]
/// took, uncontended, on the 2-vCPU VM the benchmark was written on.
pub const REFERENCE_MS: f64 = 1.0;
/// Interval between probes of a load connection.
pub const PROBE_EVERY: std::time::Duration = std::time::Duration::from_millis(100);
/// 8 KiB of table, which stays in the L1 cache: the probe does not slow
/// down when the program leaves more of its own data in the caches.  (A
/// 4 MiB table tracked cold_read a little closer, but took 1.8 ms after the
/// program's scans against 1.1 ms alone, so it would read a program that
/// touches more memory as a slower host.)
const PROBE_TABLE: usize = 1 << 10;
const PROBE_STEPS: usize = 450_000;

/// Wall time of one fixed computation on the calling thread, in ms.
pub fn probe_ms() -> f64 {
    let table: [u64; PROBE_TABLE] =
        std::array::from_fn(|i| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let t = Instant::now();
    let (mut x, mut acc) = (0x2545_F491_4F6C_DD1Du64, 0u64);
    for _ in 0..PROBE_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(table[x as usize & (PROBE_TABLE - 1)]);
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}

/// While alive, every thread of the process, and every thread they start,
/// runs on the first CPU the process may use; dropping it gives the
/// process back its whole CPU list.
pub struct OneCpu {
    restore: Option<String>,
}

impl OneCpu {
    pub fn hold() -> OneCpu {
        let all = allowed_cpus();
        let held = all
            .as_deref()
            .and_then(first_cpu)
            .is_some_and(|cpu| taskset(&cpu.to_string()));
        if !held {
            eprintln!("layerbench: could not hold the process to one CPU; measuring unpinned");
        }
        OneCpu {
            restore: all.filter(|_| held),
        }
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        if let Some(all) = self.restore.take() {
            taskset(&all);
        }
    }
}

/// The process's CPU list (`Cpus_allowed_list` of `/proc/self/status`).
fn allowed_cpus() -> Option<String> {
    std::fs::read_to_string("/proc/self/status")
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map(|l| l.trim().to_string())
}

/// The lowest CPU of a list such as `0-3,6`.
fn first_cpu(list: &str) -> Option<usize> {
    list.split(',')
        .filter_map(|part| part.split('-').next()?.trim().parse().ok())
        .min()
}

/// Sets the CPU list of every thread of this process; waits for `taskset`.
fn taskset(list: &str) -> bool {
    Command::new("taskset")
        .args(["-a", "-p", "-c", list, &std::process::id().to_string()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}
