//! `drift-stream`: set-up opens paper-size `LotStream`s and advances each
//! through its calibration lot; one op is one `advance()` of the next
//! stream in the schedule.

use std::collections::BTreeMap;
use std::error::Error;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sidefp_core::stages::{PremanufacturingStage, Testbench};
use sidefp_core::{
    ExperimentConfig, LotAction, LotOutcome, LotStream, PaperExperiment, ParallelismConfig,
    RunContext,
};
use sidefp_faults::{DriftClass, DriftPlan};

use crate::report::{median, timed_setup, Outcome, Tally};
use crate::{checks, host, layers, Opts};

/// Independent streams; stream `k` runs experiment seed `FIRST_SEED + k`
/// under its own drift plan.
const STREAMS: usize = 4;
const FIRST_SEED: u64 = 42;
/// Drift-plan seed of stream `k` is `fork_seed(DRIFT_SEED, k)`.
const DRIFT_SEED: u64 = 0xd21f7;
/// Ops per 30 s of `--seconds`, spread evenly over the streams.
const OPS_PER_30S: usize = 160;
/// Streams a traced run replays (the first ones), with the same lots each.
const TRACED_STREAMS: usize = 1;
const SETUP_REPEATS: usize = 3;
const ORDER_TAG: u64 = 3;

/// Lots after calibration in the repository's `drift` bench bin, whose
/// plan this one stretches.
const BIN_LOTS: usize = 8;

/// The `drift` bench bin's plan (a 0.5 σ/lot ramp from lot 1 and a
/// 1.5 σ mean-shift step at lot 3 of 8), stretched to `lots` lots: the
/// ramp reaches the same 4 σ at the last lot, and the step comes at the
/// same 3/8 of the stream.
fn plan(stream: usize, lots: usize) -> DriftPlan {
    let ramp = 0.5 * BIN_LOTS as f64 / lots as f64;
    DriftPlan {
        seed: sidefp_parallel::fork_seed(DRIFT_SEED, stream as u64),
        ..DriftPlan::none()
    }
    .with_drift(DriftClass::SlowRamp, ramp, 1)
    .with_drift(DriftClass::MeanShift, 1.5, (3 * lots).div_ceil(BIN_LOTS))
}

fn config(stream: usize) -> ExperimentConfig {
    ExperimentConfig {
        seed: FIRST_SEED + stream as u64,
        ..ExperimentConfig::default()
    }
}

fn auto_threads() -> usize {
    ParallelismConfig::default().effective_threads()
}

/// One stream and its own telemetry.
struct Stream {
    stream: LotStream,
    obs: RunContext,
    /// Lots advanced, the calibration lot included.
    advanced: usize,
    /// First trace sequence number not yet read.
    next_seq: u64,
}

impl Stream {
    fn open(k: usize, lots: usize) -> Result<Self, Box<dyn Error>> {
        let obs = RunContext::new();
        let experiment = PaperExperiment::new(config(k))?;
        let mut stream = experiment.stream_observed(plan(k, lots), &obs)?;
        in_pool(|| stream.advance())?;
        let mut s = Stream {
            stream,
            obs,
            advanced: 1,
            next_seq: 0,
        };
        s.new_events();
        Ok(s)
    }

    /// Advances one lot under the default worker pool.
    fn advance(&mut self) -> Result<LotOutcome, sidefp_core::CoreError> {
        let outcome = in_pool(|| self.stream.advance())?;
        self.advanced += 1;
        Ok(outcome)
    }

    /// Trace events recorded since the last call.
    fn new_events(&mut self) -> Vec<sidefp_core::TraceRecord> {
        let events: Vec<_> = self
            .obs
            .trace_events()
            .into_iter()
            .filter(|r| r.seq >= self.next_seq)
            .collect();
        if let Some(last) = events.last() {
            self.next_seq = last.seq + 1;
        }
        events
    }

    /// The per-op checks: tiers sum to the lots advanced, and every
    /// Table-1 row tallies the lot's device count.
    fn check(&self, outcome: &LotOutcome) -> Result<(), String> {
        checks::recal_tiers(&self.stream.health(), self.advanced)?;
        checks::lot_totals(&outcome.table1, outcome.dutts.len())
    }
}

fn in_pool<T>(f: impl FnOnce() -> T) -> T {
    sidefp_parallel::with_threads(auto_threads(), || {
        sidefp_parallel::with_determinism(true, f)
    })
}

/// Opens `streams` streams `SETUP_REPEATS` times; returns the last set
/// and the median wall seconds of one set-up.
fn setup(streams: usize, lots: usize) -> Result<(Vec<Stream>, f64), Box<dyn Error>> {
    timed_setup(SETUP_REPEATS, || {
        (0..streams).map(|k| Stream::open(k, lots)).collect()
    })
}

pub fn run(opts: &Opts) -> Result<Outcome, Box<dyn Error>> {
    if opts.trace {
        return run_traced(opts);
    }
    let ops = opts.ops(OPS_PER_30S, STREAMS);
    let lots = ops / STREAMS;
    let order = host::schedule(
        ops,
        STREAMS,
        sidefp_parallel::fork_seed(opts.seed, ORDER_TAG),
    );
    let mut out = Outcome::default();
    let (mut streams, setup_s) = setup(STREAMS, lots)?;
    out.set("setup_s", setup_s);

    let mut tally = Tally::default();
    for &k in &order {
        let s = &mut streams[k];
        let (result, time) = host::timed(|| s.advance());
        match result {
            Ok(outcome) => {
                out.record(s.check(&outcome));
                tally.op(time, outcome.dutts.len());
                if let Some(b5) = outcome.table1.last() {
                    let c = b5.counts;
                    tally.errors(
                        c.false_positives(),
                        c.infested_total(),
                        c.false_negatives(),
                        c.free_total(),
                    );
                }
                tally.stages(layers::stage_health(&s.new_events()));
            }
            Err(err) => out.record(Err(format!("stream {k}: {err}"))),
        }
    }
    tally.write(&mut out);
    for (k, s) in streams.iter().enumerate() {
        let h = s.stream.health();
        eprintln!(
            "[drift-stream] stream {k}: {} lots after calibration, {} accepted, {} recalibrated, {} refitted",
            h.lots - 1,
            h.accepted,
            h.recalibrated,
            h.refitted - 1
        );
    }
    Ok(out)
}

/// Traced run: two copies of the first `TRACED_STREAMS` streams advance
/// in lockstep over the same lots as in the untraced run. The first copy
/// is timed bare, the second with every read the traced run makes, and
/// their outcomes must agree.
fn run_traced(opts: &Opts) -> Result<Outcome, Box<dyn Error>> {
    let lots = opts.ops(OPS_PER_30S, STREAMS) / STREAMS;
    let ops = lots * TRACED_STREAMS;
    let order = host::schedule(
        ops,
        TRACED_STREAMS,
        sidefp_parallel::fork_seed(opts.seed, ORDER_TAG),
    );
    let mut out = Outcome::default();
    let mut clock = layers::TraceClock::start();

    // The stage a stream runs once, in set-up, through its public call.
    let cfg = config(0);
    let mut pre_ms = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let bench = Testbench::random(&mut rng, cfg.fingerprint_blocks, cfg.pcm_suite.clone())?
            .with_meter(cfg.meter.clone());
        let start = Instant::now();
        in_pool(|| {
            PremanufacturingStage::run_observed(&cfg, &bench, &mut rng, &RunContext::new())
        })?;
        pre_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    out.set("core.premanufacturing.ms", median(&pre_ms));

    let (mut bare, _) = setup(TRACED_STREAMS, lots)?;
    let (mut traced, _) = setup(TRACED_STREAMS, lots)?;

    let mut sums = layers::LayerSums::default();
    let mut by_action: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut recal_spans: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut escalations = 0;
    for &k in &order {
        let a = clock.untraced(|| bare[k].advance())?;
        let t = &mut traced[k];
        let ((b, spans), ms) = clock.traced(|| {
            let before = layers::timings(&t.obs);
            let health = t.obs.solver_health();
            let b = t.advance();
            let spans = layers::timing_delta(&before, &layers::timings(&t.obs));
            sums.op(&spans, layers::solver_delta(health, t.obs.solver_health()));
            std::hint::black_box(t.new_events().len());
            (b, spans)
        });
        let b = b?;

        let (key, span) = match b.action {
            LotAction::Accepted => ("accept", None),
            LotAction::Recalibrated => ("incremental", Some("recalibrate.incremental")),
            LotAction::Refitted => ("refit", Some("recalibrate.full_refit")),
        };
        by_action.entry(key).or_default().push(ms);
        if let Some(span) = span {
            recal_spans
                .entry(span)
                .or_default()
                .push(spans.get(span).copied().unwrap_or(0.0));
        }
        escalations += b.escalated;

        let check = t
            .check(&b)
            .and_then(|()| checks::equal("bare vs traced action", &a.action, &b.action))
            .and_then(|()| checks::equal("bare vs traced Table 1", &a.table1, &b.table1))
            .map_err(|why| format!("stream {k} lot {}: {why}", b.lot));
        out.record(check);
    }

    sums.write_means(&mut out);
    let mean = |v: Option<&Vec<f64>>| {
        v.filter(|v| !v.is_empty())
            .map(|v| v.iter().sum::<f64>() / v.len() as f64)
            .unwrap_or(0.0)
    };
    for action in ["accept", "incremental", "refit"] {
        out.set(
            format!("core.recalibrate.{action}.ms"),
            mean(by_action.get(action)),
        );
    }
    for span in ["recalibrate.incremental", "recalibrate.full_refit"] {
        out.set(format!("stage.{span}.ms"), mean(recal_spans.get(span)));
    }
    let count = |key: &str| by_action.get(key).map_or(0, Vec::len) as f64;
    out.set("core.recalibrate.accepted", count("accept"));
    out.set("core.recalibrate.recalibrated", count("incremental"));
    out.set("core.recalibrate.refitted", count("refit"));
    out.set("core.recalibrate.escalations", escalations as f64);

    let gram_rows = cfg.enhanced_boundary.train_cap.min(cfg.kde_samples);
    let dim = traced[0].stream.boundaries()[4].scaler().dim();
    sidefp_parallel::with_threads(auto_threads(), || {
        layers::write_linalg(&mut out, (gram_rows, dim, gram_rows))
    });
    clock.write(&mut out);
    out.fill_unexercised_layers();
    Ok(out)
}
