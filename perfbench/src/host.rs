//! Process and host readings taken from outside the program: CPU time,
//! peak memory, the host probe that times are normalized by, and the
//! seeded op schedule.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

use sidefp_core::ParallelismConfig;

/// Process CPU seconds (user + system, all threads, joined ones included)
/// from `/proc/self/stat`, in its fixed 100 Hz clock ticks.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the full line.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(user), Some(system)) => (user + system) / 100.0,
        _ => 0.0,
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), since the
/// start of the process or the last [`reset_peak_rss`].
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Restarts the peak-RSS high-water mark from the current resident set
/// (Linux `clear_refs` code 5), so a later [`peak_rss_mb`] covers only
/// what runs after this call plus what is still resident. Where the kernel
/// refuses, the mark keeps counting from the start of the process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Points and centres of one probe thread's kernel sum, and their
/// dimension.
const PROBE_POINTS: usize = 2048;
const PROBE_CENTRES: usize = 192;
const PROBE_DIM: usize = 8;

/// Milliseconds one probe takes on the host the benchmark was calibrated
/// on (2 vCPU Intel Xeon), as the median over timed ops. Host-normalized
/// times are expressed at this host speed.
pub const PROBE_NOMINAL_MS: f64 = 5.5;

/// The probe's fixed inputs, built once: `(points, centres)`, row-major.
fn probe_inputs() -> &'static (Vec<f64>, Vec<f64>) {
    static INPUTS: OnceLock<(Vec<f64>, Vec<f64>)> = OnceLock::new();
    INPUTS.get_or_init(|| {
        let fill = |n: usize, salt: u64| -> Vec<f64> {
            (0..n as u64)
                .map(|i| (sidefp_parallel::fork_seed(salt, i) >> 11) as f64 / (1u64 << 53) as f64)
                .collect()
        };
        (
            fill(PROBE_POINTS * PROBE_DIM, 1),
            fill(PROBE_CENTRES * PROBE_DIM, 2),
        )
    })
}

/// One thread's share of the probe: the Gaussian-kernel sum of every
/// point against every centre, in plain `std` code.
fn probe_kernel_sum() -> f64 {
    let (points, centres) = probe_inputs();
    let mut total = 0.0;
    for x in points.chunks_exact(PROBE_DIM) {
        for c in centres.chunks_exact(PROBE_DIM) {
            let d2: f64 = x.iter().zip(c).map(|(a, b)| (a - b) * (a - b)).sum();
            total += (-0.5 * d2).exp();
        }
    }
    total
}

/// Milliseconds of one host probe: the same fixed floating-point kernel
/// sum on each of the threads the ops run on. It is benchmark code that
/// calls nothing in the program, so a change in it is a change in the
/// host (a slowed or shared vCPU), not in the program.
pub fn probe_ms() -> f64 {
    let threads = ParallelismConfig::default().effective_threads();
    // Builds the inputs once, outside the timed span.
    probe_inputs();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(|| black_box(probe_kernel_sum()));
        }
        black_box(probe_kernel_sum());
    });
    start.elapsed().as_secs_f64() * 1e3
}

/// Median of `reps` host probes.
pub fn probe_median_ms(reps: usize) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| probe_ms()).collect();
    crate::report::median(&samples)
}

/// One op's wall time and the host probe run right after it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpTime {
    pub secs: f64,
    pub probe_ms: f64,
}

/// Runs and times `op`, then one host probe.
pub fn timed<T>(op: impl FnOnce() -> T) -> (T, OpTime) {
    let start = Instant::now();
    let result = op();
    let secs = start.elapsed().as_secs_f64();
    let probe_ms = probe_ms();
    (result, OpTime { secs, probe_ms })
}

/// The fixed op schedule: each of `pool` inputs appears `ops / pool`
/// times, in an order drawn from `seed` (Fisher–Yates, draw `i` from
/// `fork_seed(seed, i)`). The multiset of ops is the same
/// for every seed, so quality metrics and counts repeat exactly; the seed
/// only reorders them.
///
/// # Panics
///
/// Panics unless `pool` divides `ops` (callers round `ops` up).
pub fn schedule(ops: usize, pool: usize, seed: u64) -> Vec<usize> {
    assert!(
        pool > 0 && ops.is_multiple_of(pool),
        "{pool} must divide {ops}"
    );
    let mut order: Vec<usize> = (0..ops).map(|i| i % pool).collect();
    for i in (1..order.len()).rev() {
        let draw = sidefp_parallel::fork_seed(seed, i as u64);
        let j = (draw % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_seeded_permutation_of_a_fixed_multiset() {
        let a = schedule(12, 4, 1);
        assert_eq!(a, schedule(12, 4, 1));
        let b = schedule(12, 4, 2);
        assert_ne!(a, b);
        let mut sa = a.clone();
        let mut sb = b.clone();
        sa.sort_unstable();
        sb.sort_unstable();
        assert_eq!(sa, sb);
        assert_eq!(sa, vec![0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]);
    }

    #[test]
    fn proc_readings_are_positive() {
        assert!(peak_rss_mb() > 0.0);
        reset_peak_rss();
        assert!(peak_rss_mb() > 0.0);
        let before = cpu_seconds();
        assert!(probe_ms() > 0.0);
        assert!(cpu_seconds() >= before);
    }
}
