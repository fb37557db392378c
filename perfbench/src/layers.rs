//! Readers for what the program already exposes (`RunContext` spans,
//! trace events and solver counters), plus the linalg micro-measurements
//! the traced runs add.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use sidefp_core::{RunContext, SolverHealth, TraceEvent, TraceRecord};
use sidefp_linalg::{gemm, vecops, Matrix};

use crate::host;
use crate::report::{median, Outcome};
use crate::schema::STAGE_SPANS;

/// Accumulated milliseconds per span name.
pub fn timings(obs: &RunContext) -> BTreeMap<String, f64> {
    obs.timing_snapshot().into_iter().collect()
}

/// Per-span milliseconds recorded between two snapshots.
pub fn timing_delta(
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
) -> BTreeMap<String, f64> {
    after
        .iter()
        .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0.0)))
        .filter(|(_, v)| *v > 0.0)
        .collect()
}

/// `(stages, clean)`: program stages (spans) opened in `events`, and how
/// many saw no solver rescue. A rescue is charged to the innermost open
/// stage; one outside every stage counts as a degraded stage of its own.
pub fn stage_health(events: &[TraceRecord]) -> (usize, usize) {
    let mut open: Vec<bool> = Vec::new();
    let (mut stages, mut clean) = (0, 0);
    for record in events {
        match &record.event {
            TraceEvent::StageStart { .. } => {
                stages += 1;
                open.push(false);
            }
            TraceEvent::StageEnd { .. } if open.pop() == Some(false) => clean += 1,
            TraceEvent::Rescue { .. } => match open.last_mut() {
                Some(degraded) => *degraded = true,
                None => stages += 1,
            },
            _ => {}
        }
    }
    // A stage still open at the end of the window is counted as it stands.
    clean += open.iter().filter(|degraded| !**degraded).count();
    (stages, clean)
}

/// Counter-wise difference of two solver-health snapshots.
pub fn solver_delta(before: SolverHealth, after: SolverHealth) -> SolverHealth {
    SolverHealth {
        cholesky_retries: after.cholesky_retries - before.cholesky_retries,
        lu_retries: after.lu_retries - before.lu_retries,
        smo_relaxed: after.smo_relaxed - before.smo_relaxed,
        smo_nonconverged: after.smo_nonconverged - before.smo_nonconverged,
        qp_relaxed: after.qp_relaxed - before.qp_relaxed,
        qp_nonconverged: after.qp_nonconverged - before.qp_nonconverged,
        kde_pilot_floors: after.kde_pilot_floors - before.kde_pilot_floors,
    }
}

/// Running sums of per-op layer readings, averaged per op at the end.
#[derive(Debug, Default)]
pub struct LayerSums {
    ops: usize,
    clean_ops: usize,
    sums: BTreeMap<String, f64>,
}

impl LayerSums {
    pub fn add(&mut self, name: impl Into<String>, value: f64) {
        *self.sums.entry(name.into()).or_insert(0.0) += value;
    }

    /// One op's program spans and solver counters.
    pub fn op(&mut self, spans: &BTreeMap<String, f64>, solvers: SolverHealth) {
        self.ops += 1;
        if solvers.is_clean() {
            self.clean_ops += 1;
        }
        for span in STAGE_SPANS {
            self.add(
                format!("stage.{span}.ms"),
                spans.get(span).copied().unwrap_or(0.0),
            );
        }
        self.add("solver.qp_nonconverged", solvers.qp_nonconverged as f64);
        self.add("solver.smo_relaxed", solvers.smo_relaxed as f64);
        self.add("solver.smo_nonconverged", solvers.smo_nonconverged as f64);
        self.add("solver.cholesky_retries", solvers.cholesky_retries as f64);
        self.add("solver.kde_pilot_floors", solvers.kde_pilot_floors as f64);
    }

    /// The accumulated sum of one reading (0 if never added).
    pub fn total(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// Writes every accumulated sum as a per-op mean.
    pub fn write_means(&self, out: &mut Outcome) {
        let ops = self.ops.max(1) as f64;
        for (name, sum) in &self.sums {
            out.set(name.clone(), sum / ops);
        }
        out.set("solver.clean_ops_frac", self.clean_ops as f64 / ops);
    }
}

/// What every traced run measures around its ops: the same inputs timed
/// untraced and traced (`trace.overhead_frac`), process CPU over the
/// untraced ops (`parallel.cpu_per_wall`), and the host probe before and
/// after (`host.probe_ms`).
pub struct TraceClock {
    probe_before: f64,
    untraced_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    cpu: f64,
    wall: f64,
}

impl TraceClock {
    pub fn start() -> Self {
        TraceClock {
            probe_before: host::probe_median_ms(5),
            untraced_ms: Vec::new(),
            traced_ms: Vec::new(),
            cpu: 0.0,
            wall: 0.0,
        }
    }

    /// Runs and times one untraced op.
    pub fn untraced<T>(&mut self, op: impl FnOnce() -> T) -> T {
        let cpu = host::cpu_seconds();
        let start = Instant::now();
        let result = op();
        let secs = start.elapsed().as_secs_f64();
        self.cpu += host::cpu_seconds() - cpu;
        self.wall += secs;
        self.untraced_ms.push(secs * 1e3);
        result
    }

    /// Runs and times one traced op (the op plus the reads it makes);
    /// returns its result and milliseconds.
    pub fn traced<T>(&mut self, op: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let result = op();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.traced_ms.push(ms);
        (result, ms)
    }

    pub fn write(&self, out: &mut Outcome) {
        out.set("parallel.cpu_per_wall", self.cpu / self.wall.max(1e-9));
        out.set(
            "trace.overhead_frac",
            median(&self.traced_ms) / median(&self.untraced_ms) - 1.0,
        );
        out.set(
            "host.probe_ms",
            (self.probe_before + host::probe_median_ms(5)) / 2.0,
        );
    }
}

/// Median seconds of `reps` calls of `f`.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Deterministic filler in `[-1, 1)`.
fn filled(rows: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        let draw = sidefp_parallel::fork_seed(seed, (r * cols + c) as u64);
        (draw >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    })
}

/// GFLOP/s of `gemm_nn` on an `m×k · k×n` product, counting 2mnk flops.
pub fn gemm_gflops(m: usize, k: usize, n: usize, reps: usize) -> f64 {
    let a = filled(m, k, 1);
    let b = filled(k, n, 2);
    let mut out = Matrix::zeros(m, n);
    gemm::gemm_nn(&a, &b, &mut out);
    let secs = median_secs(reps, || {
        gemm::gemm_nn(&a, &b, &mut out);
        black_box(out.row(0)[0]);
    });
    2.0 * (m * n * k) as f64 / secs / 1e9
}

/// Largest shape of the `gemm` criterion bench (`gemm_nn_256`).
pub fn gemm_peak_gflops() -> f64 {
    gemm_gflops(256, 256, 256, 15)
}

/// Nanoseconds per element of `vecops::exp_mut` over a 2^20-element slice.
pub fn exp_ns_per_elem() -> f64 {
    let n = 1 << 20;
    let src: Vec<f64> = (0..n).map(|i| -((i % 4096) as f64) / 512.0).collect();
    let mut buf = src.clone();
    let secs = median_secs(9, || {
        buf.copy_from_slice(&src);
        vecops::exp_mut(&mut buf);
        black_box(buf[n - 1]);
    });
    secs * 1e9 / n as f64
}

/// Writes the three linalg layer metrics; `gram` is the workload's
/// `(m, k, n)` kernel-product shape.
pub fn write_linalg(out: &mut Outcome, gram: (usize, usize, usize)) {
    let (m, k, n) = gram;
    out.set("linalg.gemm.gflops", gemm_gflops(m, k, n, 9));
    out.set("linalg.gemm.peak_gflops", gemm_peak_gflops());
    out.set("linalg.vecops.exp.ns_per_elem", exp_ns_per_elem());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord { seq, event }
    }

    fn start(name: &str) -> TraceEvent {
        TraceEvent::StageStart { stage: name.into() }
    }

    fn end(name: &str) -> TraceEvent {
        TraceEvent::StageEnd { stage: name.into() }
    }

    #[test]
    fn stage_health_charges_rescues_to_the_innermost_stage() {
        let rescue = TraceEvent::Rescue {
            solver: "qp",
            kind: "nonconverged",
            count: 1,
        };
        let events = [
            start("mc"),
            end("mc"),
            start("kmm"),
            rescue.clone(),
            rescue.clone(),
            end("kmm"),
            start("evaluate"),
            start("boundary.golden"),
            end("boundary.golden"),
            end("evaluate"),
        ];
        let records: Vec<TraceRecord> = events
            .into_iter()
            .enumerate()
            .map(|(i, e)| rec(i as u64, e))
            .collect();
        assert_eq!(stage_health(&records), (4, 3));
        // A rescue outside every stage is a degraded stage of its own.
        let orphan = [rec(0, rescue)];
        assert_eq!(stage_health(&orphan), (1, 0));
        assert_eq!(stage_health(&[]), (0, 0));
    }

    #[test]
    fn timing_delta_keeps_only_new_time() {
        let before: BTreeMap<String, f64> = [("kmm".to_string(), 2.0)].into();
        let after: BTreeMap<String, f64> =
            [("kmm".to_string(), 5.0), ("mc".to_string(), 1.0)].into();
        let d = timing_delta(&before, &after);
        assert_eq!(d.get("kmm"), Some(&3.0));
        assert_eq!(d.get("mc"), Some(&1.0));
    }
}
