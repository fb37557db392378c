//! The benchmark's schema: workloads, and every metric name, unit and
//! direction it can print, in one place. `BENCHMARK.json` at the
//! repository root is generated from it (`--print-benchmark-json`; a unit
//! test holds the two in lockstep), and a run refuses to print a result
//! line whose metric set differs from the table for its mode.

/// The benchmark command, run from the repository root.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];

/// Nominal measured seconds of one run; op counts scale with it.
pub const RUN_SECONDS: u64 = 30;

/// Workload names and why each was chosen.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "paper-fit",
        "the paper's own B1-B5 job at Table-1 size: all work on the fitting layers (MARS, KDE, KMM QP, cold SMO, GEMM), none on scoring",
    ),
    (
        "lot-scoring",
        "fit once, score 25k-device lots: sanitize, scaler and the OCSVM decision kernel (rbf_expansion_rows, exp); bypasses every solver",
    ),
    (
        "drift-stream",
        "drifting wafer lots: SPC charts, recalibration tiers, warm SMO, KMM re-weighting and KDE refresh instead of cold solves",
    ),
];

/// Pipeline spans the program already records in its `RunContext`, read
/// back per op (`stage.<span>.ms`) and per thread count
/// (`stage.<span>.speedup`).
pub const STAGE_SPANS: [&str; 13] = [
    "mc",
    "regression",
    "kde.s2",
    "boundary.B1",
    "boundary.B2",
    "boundary.B3",
    "boundary.B4",
    "boundary.B5",
    "boundary.golden",
    "measure",
    "kmm",
    "kde.s5",
    "evaluate",
];

/// Boundary names in decision-column order.
pub const BOUNDARIES: [&str; 5] = ["B1", "B2", "B3", "B4", "B5"];

/// Whether a larger or a smaller value is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric a user of the system sees, with its regression bound (the
/// share of the parent's median by which it may get worse).
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [EndToEnd; 9] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("op_ms_p50", "ms", Better::Lower, 0.24),
    e2e("op_ms_p90", "ms", Better::Lower, 0.24),
    e2e("devices_per_s", "1/s", Better::Higher, 0.24),
    e2e("missed_trojan_rate", "fraction", Better::Lower, 0.1),
    e2e("false_alarm_rate", "fraction", Better::Lower, 0.1),
    e2e("solver_clean_frac", "fraction", Better::Higher, 0.05),
    e2e("ops_ok_frac", "fraction", Better::Higher, 0.001),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.2),
];

/// One single-layer metric (no bound: per-layer numbers explain an
/// end-to-end change, they do not gate one).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

fn layer(name: impl Into<String>, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name: name.into(),
        unit,
        better,
    }
}

/// Per-layer metrics, printed by every traced run (0 where a workload does
/// not exercise the layer).
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let mut out = Vec::new();
    for span in STAGE_SPANS {
        out.push(layer(format!("stage.{span}.ms"), "ms", Lower));
    }
    for span in STAGE_SPANS {
        out.push(layer(format!("stage.{span}.speedup"), "x", Higher));
    }
    for stage in ["premanufacturing", "silicon_stage", "trojan_test"] {
        out.push(layer(format!("core.{stage}.ms"), "ms", Lower));
    }
    for counter in [
        "qp_nonconverged",
        "smo_relaxed",
        "smo_nonconverged",
        "cholesky_retries",
        "kde_pilot_floors",
    ] {
        out.push(layer(format!("solver.{counter}"), "count", Lower));
    }
    out.push(layer("solver.clean_ops_frac", "fraction", Higher));
    out.push(layer("stats.ocsvm.fit.ms", "ms", Lower));
    out.push(layer("stats.ocsvm.n_sv", "count", Lower));
    out.push(layer("stats.kde.sample.ms", "ms", Lower));
    out.push(layer("linalg.gemm.gflops", "GFLOP/s", Higher));
    out.push(layer("linalg.gemm.peak_gflops", "GFLOP/s", Higher));
    out.push(layer("linalg.vecops.exp.ns_per_elem", "ns", Lower));
    out.push(layer("stage.score.sanitize.ms", "ms", Lower));
    out.push(layer("stage.score.boundaries.ms", "ms", Lower));
    out.push(layer("core.sanitize.ms", "ms", Lower));
    for b in BOUNDARIES {
        out.push(layer(format!("stats.ocsvm.decision.{b}.ms"), "ms", Lower));
    }
    out.push(layer("stats.ocsvm.decision.gflops", "GFLOP/s", Higher));
    out.push(layer("core.score_into.ns_per_device", "ns", Lower));
    out.push(layer("core.score.kept_frac", "fraction", Higher));
    for action in ["accept", "incremental", "refit"] {
        out.push(layer(format!("core.recalibrate.{action}.ms"), "ms", Lower));
    }
    out.push(layer("stage.recalibrate.incremental.ms", "ms", Lower));
    out.push(layer("stage.recalibrate.full_refit.ms", "ms", Lower));
    out.push(layer("core.recalibrate.accepted", "count", Higher));
    out.push(layer("core.recalibrate.recalibrated", "count", Higher));
    out.push(layer("core.recalibrate.refitted", "count", Lower));
    out.push(layer("core.recalibrate.escalations", "count", Lower));
    out.push(layer("parallel.cpu_per_wall", "ratio", Higher));
    out.push(layer("host.probe_ms", "ms", Lower));
    out.push(layer("trace.overhead_frac", "fraction", Lower));
    out
}

/// The `(name, unit)` pairs a run in the given mode must print, in order.
pub fn expected(trace: bool) -> Vec<(String, &'static str)> {
    if trace {
        per_layer().into_iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit))
            .collect()
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let command: Vec<String> = COMMAND.iter().map(|a| json_str(a)).collect();
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(name),
                json_str(why)
            )
        })
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.as_str()),
                m.bound
            )
        })
        .collect();
    let layers: Vec<String> = per_layer()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(&m.name),
                json_str(m.unit),
                json_str(m.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        command.join(", "),
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_is_generated_from_this_schema() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with --print-benchmark-json"
        );
    }

    #[test]
    fn names_units_and_bounds_follow_the_benchmark_contract() {
        let name_ok = |s: &str| {
            s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let layers = per_layer();
        let mut names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(layers.iter().map(|m| m.name.as_str()));
        for (i, name) in names.iter().enumerate() {
            assert!(name_ok(name), "{name}");
            assert!(!names[..i].contains(name), "{name} used twice");
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(layers.iter().map(|m| m.unit));
        for unit in units {
            assert!(unit_ok(unit), "{unit}");
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        assert!(layers.len() <= 128 && END_TO_END.len() <= 16);
        assert!(COMMAND.len() <= 32 && (1..=60).contains(&RUN_SECONDS));
        let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!(
            (setup.unit, setup.better, setup.bound),
            ("s", Better::Lower, largest)
        );
    }
}
