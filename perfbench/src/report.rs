//! Result line, order statistics and the per-op accounting shared by the
//! workloads.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::host::{self, OpTime};
use crate::schema;

/// What one run produced: op accounting plus named metric values.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Timed ops attempted.
    pub attempted: usize,
    /// Ops that errored or failed a correctness check.
    pub failed: usize,
    /// First few check failures, for stderr.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Counts one op; `result` carries the op's check failure, if any.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why);
            }
        }
    }

    /// Fills every per-layer metric the workload did not exercise with 0,
    /// so a traced run always prints the full per-layer set.
    pub fn fill_unexercised_layers(&mut self) {
        for (name, _) in schema::expected(true) {
            self.metrics.entry(name).or_insert(0.0);
        }
    }

    /// The JSON result line, after checking the metric set against the
    /// schema for this mode.
    pub fn result_line(&self, trace: bool) -> Result<String, String> {
        let expected = schema::expected(trace);
        if self.metrics.len() != expected.len() {
            let extra: Vec<&String> = self
                .metrics
                .keys()
                .filter(|k| !expected.iter().any(|(n, _)| n == *k))
                .collect();
            return Err(format!(
                "metric set differs from the schema ({} vs {}; unexpected: {extra:?})",
                self.metrics.len(),
                expected.len()
            ));
        }
        let mut fields = Vec::with_capacity(expected.len());
        for (name, unit) in &expected {
            let value = *self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

/// The value of metric `name` in a line [`Outcome::result_line`] printed,
/// read by its fixed layout.
pub fn metric_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// Shortest round-trip decimal form (`1.5`, `100.0`, `1e-7`): every digit
/// as measured, and valid JSON for finite values.
fn json_number(v: f64) -> String {
    format!("{v:?}")
}

/// Ops on each side of an op whose host probes, with its own, give the
/// host speed its time is normalized by.
const PROBE_WINDOW: usize = 4;

/// Host-normalized seconds of each op: its wall seconds scaled by
/// `PROBE_NOMINAL_MS` over the mean probe of the op and its
/// `PROBE_WINDOW` neighbours on each side. A stretch in which a shared
/// host runs everything slower slows the probes around an op as much as
/// the op, and cancels out.
pub fn normalized_secs(times: &[OpTime]) -> Vec<f64> {
    (0..times.len())
        .map(|i| {
            let window =
                &times[i.saturating_sub(PROBE_WINDOW)..(i + PROBE_WINDOW + 1).min(times.len())];
            let probe = window.iter().map(|t| t.probe_ms).sum::<f64>() / window.len() as f64;
            times[i].secs * host::PROBE_NOMINAL_MS / probe
        })
        .collect()
}

/// The untraced run's per-op readings, reduced to the end-to-end metrics
/// every workload reports.
#[derive(Debug, Default)]
pub struct Tally {
    times: Vec<OpTime>,
    devices: usize,
    missed: usize,
    infested: usize,
    alarms: usize,
    free: usize,
    stages: usize,
    clean_stages: usize,
}

impl Tally {
    /// One completed op: its time and the devices it classified.
    pub fn op(&mut self, time: OpTime, devices: usize) {
        self.times.push(time);
        self.devices += devices;
    }

    /// B5 errors in the paper's convention: `missed` of `infested`
    /// Trojan-infested devices accepted, `alarms` of `free` Trojan-free
    /// devices rejected.
    pub fn errors(&mut self, missed: usize, infested: usize, alarms: usize, free: usize) {
        self.missed += missed;
        self.infested += infested;
        self.alarms += alarms;
        self.free += free;
    }

    /// An op's `(stages, clean stages)` from `layers::stage_health`.
    pub fn stages(&mut self, (stages, clean): (usize, usize)) {
        self.stages += stages;
        self.clean_stages += clean;
    }

    /// Writes every end-to-end metric except `setup_s`; op times are
    /// host-normalized. The wall-clock p50 and the median probe go to
    /// stderr.
    pub fn write(&self, out: &mut Outcome) {
        let secs = normalized_secs(&self.times);
        let ms: Vec<f64> = secs.iter().map(|s| s * 1e3).collect();
        let wall_ms: Vec<f64> = self.times.iter().map(|t| t.secs * 1e3).collect();
        let probes: Vec<f64> = self.times.iter().map(|t| t.probe_ms).collect();
        eprintln!(
            "[wall clock] op p50 {:.3} ms; host probe median {:.3} ms (nominal {})",
            median(&wall_ms),
            median(&probes),
            host::PROBE_NOMINAL_MS
        );
        let share = |part: usize, whole: usize| part as f64 / whole.max(1) as f64;
        out.set("op_ms_p50", percentile(&ms, 0.5));
        out.set("op_ms_p90", percentile(&ms, 0.9));
        out.set(
            "devices_per_s",
            self.devices as f64 / secs.iter().sum::<f64>().max(1e-9),
        );
        out.set("missed_trojan_rate", share(self.missed, self.infested));
        out.set("false_alarm_rate", share(self.alarms, self.free));
        // A workload whose ops open no stage runs no solver: clean.
        let clean = if self.stages == 0 {
            1.0
        } else {
            share(self.clean_stages, self.stages)
        };
        out.set("solver_clean_frac", clean);
        out.set(
            "ops_ok_frac",
            share(out.attempted - out.failed, out.attempted),
        );
        out.set("peak_rss_mb", host::peak_rss_mb());
    }
}

/// Host probes taken between two set-up builds.
const SETUP_PROBES: usize = 3;

/// Runs a workload's set-up `reps` times (at least once), dropping each
/// build before the next; returns the last build and the median
/// host-normalized seconds of one. Each build is normalized by the mean
/// of the median probes taken just before and just after it. The
/// peak-RSS mark restarts afterwards, so `peak_rss_mb` covers the timed
/// ops and what set-up leaves resident.
pub fn timed_setup<T, E>(
    reps: usize,
    mut build: impl FnMut() -> Result<T, E>,
) -> Result<(T, f64), E> {
    let mut probe = host::probe_median_ms(SETUP_PROBES);
    let mut timed = || {
        let start = Instant::now();
        build().map(|built| {
            let secs = start.elapsed().as_secs_f64();
            let before = std::mem::replace(&mut probe, host::probe_median_ms(SETUP_PROBES));
            let normalized = secs * host::PROBE_NOMINAL_MS / ((before + probe) / 2.0);
            (built, normalized)
        })
    };
    let (mut last, secs) = timed()?;
    let mut samples = vec![secs];
    for _ in 1..reps {
        drop(last);
        let (built, secs) = timed()?;
        last = built;
        samples.push(secs);
    }
    host::reset_peak_rss();
    Ok((last, median(&samples)))
}

/// Linear-interpolated percentile (`p` in `[0, 1]`) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the default "exclusive" method), so spreads printed here match the
/// ones an outside check computes from the same values.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    if n < 2 {
        let v = data.first().copied().unwrap_or(0.0);
        return (v, v, v);
    }
    let m = (n + 1) as f64;
    let cut = |i: f64| -> f64 {
        let j = ((i * m / 4.0).floor() as usize).clamp(1, n - 1);
        let delta = i * m - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1.0), cut(2.0), cut(3.0))
}

/// Inter-quartile range as a share of the median.
pub fn iqr_share(samples: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(samples);
    if q2 == 0.0 {
        if q3 == q1 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 3.0, 4.5));
    }

    #[test]
    fn percentile_interpolates() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn result_line_requires_the_full_schema() {
        let mut out = Outcome::default();
        out.record(Ok(()));
        assert!(out.result_line(false).is_err());
        for m in schema::END_TO_END {
            out.set(m.name, 1.5);
        }
        let line = out.result_line(false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"op_ms_p50\": {\"value\": 1.5, \"unit\": \"ms\"}"));
        assert_eq!(metric_value(&line, "op_ms_p50"), Some(1.5));
        assert_eq!(metric_value(&line, "peak_rss_mb"), Some(1.5));
        assert_eq!(metric_value(&line, "absent"), None);
        out.set("op_ms_p50", f64::NAN);
        assert!(out.result_line(false).is_err());
        out.set("op_ms_p50", 1.0);
        out.set("not_in_schema", 1.0);
        assert!(out.result_line(false).is_err());
    }

    #[test]
    fn timed_setup_keeps_the_last_build_and_the_median_time() {
        let mut builds = 0;
        let (last, secs) = timed_setup(3, || {
            builds += 1;
            Ok::<_, ()>(builds)
        })
        .unwrap();
        assert_eq!((last, builds), (3, 3));
        assert!(secs >= 0.0);
        let mut calls = 0;
        let failed = timed_setup(3, || {
            calls += 1;
            if calls == 2 {
                Err("second build")
            } else {
                Ok(calls)
            }
        });
        assert_eq!((failed, calls), (Err("second build"), 2));
    }

    #[test]
    fn normalization_cancels_a_slow_stretch() {
        let nominal = host::PROBE_NOMINAL_MS;
        // Ten identical ops; the host runs at half speed for the last five,
        // slowing the op and its probe alike.
        let times: Vec<OpTime> = (0..10)
            .map(|i| {
                let slow = if i < 5 { 1.0 } else { 2.0 };
                OpTime {
                    secs: 0.1 * slow,
                    probe_ms: nominal * slow,
                }
            })
            .collect();
        let secs = normalized_secs(&times);
        // Far from the change, every probe in the window agrees.
        assert!((secs[0] - 0.1).abs() < 1e-12);
        assert!((secs[9] - 0.1).abs() < 1e-12);
        // Near it the window mixes both speeds; the median op stays close.
        assert!((median(&secs) - 0.1).abs() < 0.03);
        // At a steady nominal host speed, normalized time is wall time.
        let steady = [OpTime {
            secs: 0.25,
            probe_ms: nominal,
        }; 3];
        assert_eq!(normalized_secs(&steady), vec![0.25; 3]);
    }

    #[test]
    fn a_failed_op_makes_the_run_incorrect() {
        let mut out = Outcome::default();
        for m in schema::END_TO_END {
            out.set(m.name, 1.0);
        }
        out.record(Ok(()));
        out.record(Err("flipped verdict".into()));
        let line = out.result_line(false).unwrap();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }
}
