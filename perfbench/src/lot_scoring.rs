//! `lot-scoring`: set-up fits one `FittedModel`; one op is
//! `BatchScorer::score_batch` on the next wafer-lot batch.

use std::error::Error;
use std::time::Instant;

use sidefp_core::{
    sanitize_measurements_pinned, BatchScorer, ExperimentConfig, FittedModel, PaperExperiment,
    ParallelismConfig, RunContext, ScoredBatch,
};
use sidefp_linalg::Matrix;
use sidefp_stats::{ConfusionCounts, DetectionLabel};

use crate::host::{self, OpTime};
use crate::report::{timed_setup, Outcome, Tally};
use crate::schema::BOUNDARIES;
use crate::{checks, layers, Opts};

/// Trojan-free devices synthesized per batch (wafer-lot scale).
const BATCH_DEVICES: usize = 25_000;
/// Distinct batches built in set-up; the op schedule cycles them.
const POOL: usize = 20;
/// Synthesis seed of batch `b` is `FIRST_BATCH_SEED + b`.
const FIRST_BATCH_SEED: u64 = 1000;
/// Seed of the set-up warm-up batch, outside the pool.
const WARMUP_BATCH_SEED: u64 = 999;
const OPS_PER_30S: usize = 600;
/// Ops of a traced run.
const TRACED_OPS: usize = 40;
/// Rows compared between `score_into` and `score_batch` per op, and
/// rows timed through `score_into` by a traced run.
const SAMPLE_ROWS: usize = 24;
const SCORE_INTO_ROWS: usize = 4000;
const SETUP_REPEATS: usize = 5;
const ORDER_TAG: u64 = 2;

/// One scoring batch: synthesized Trojan-free devices followed by the fit
/// run's own labeled DUTT lot.
struct Batch {
    fingerprints: Matrix,
    pcms: Matrix,
}

struct Setup {
    model: FittedModel,
    scorer: BatchScorer,
    batches: Vec<Batch>,
    /// Ground truth of the labeled rows at the end of every batch.
    labels: Vec<DetectionLabel>,
    /// The fit run's own B5 Table-1 row.
    fit_b5: ConfusionCounts,
}

fn build() -> Result<Setup, Box<dyn Error>> {
    let cfg = ExperimentConfig::default();
    let arts = PaperExperiment::new(cfg.clone())?.run_in_context(&RunContext::new())?;
    let model = FittedModel::from_artifacts(&cfg, &arts)?;
    let dutts = &arts.silicon.dutts;
    let batch = |seed: u64| -> Result<Batch, Box<dyn Error>> {
        let (fps, pcms) = model.synthesize_batch(seed, BATCH_DEVICES);
        Ok(Batch {
            fingerprints: fps.vstack(dutts.fingerprints())?,
            pcms: pcms.vstack(dutts.pcms())?,
        })
    };
    let batches = (0..POOL as u64)
        .map(|b| batch(FIRST_BATCH_SEED + b))
        .collect::<Result<Vec<_>, _>>()?;
    let mut scorer = BatchScorer::new(&model);
    let warm = batch(WARMUP_BATCH_SEED)?;
    scorer.score_batch(&warm.fingerprints, &warm.pcms, &RunContext::new())?;
    let fit_b5 = arts
        .result
        .table1
        .last()
        .ok_or("fit has no Table 1")?
        .counts;
    Ok(Setup {
        scorer,
        batches,
        labels: dutts.labels().to_vec(),
        fit_b5,
        model,
    })
}

/// B5 verdicts of one scored batch: the labeled slice's Table-1 row and
/// the number of synthesized (Trojan-free) devices flagged.
fn b5_verdicts(setup: &Setup, scored: &ScoredBatch) -> (ConfusionCounts, usize) {
    let b5 = scored.decisions.ncols() - 1;
    let labeled: Vec<f64> = (BATCH_DEVICES..scored.decisions.nrows())
        .map(|i| scored.decisions[(i, b5)])
        .collect();
    let flagged = scored.verdicts[..BATCH_DEVICES.min(scored.verdicts.len())]
        .iter()
        .filter(|v| **v == DetectionLabel::TrojanInfested)
        .count();
    (checks::confusion(&labeled, &setup.labels), flagged)
}

/// Checks one scored batch: every device kept, the labeled slice
/// reproduces the fit's B5 row, and `score_into` matches the batch
/// decisions bit for bit on a fixed row sample.
fn check_batch(
    setup: &mut Setup,
    batch_index: usize,
    scored: &ScoredBatch,
    labeled: ConfusionCounts,
) -> Result<(), String> {
    let batch = &setup.batches[batch_index];
    let devices = batch.fingerprints.nrows();
    if scored.kept.len() != devices {
        return Err(format!(
            "batch {batch_index}: {} of {devices} devices kept",
            scored.kept.len()
        ));
    }
    checks::same_counts("labeled slice vs fit B5", labeled, setup.fit_b5)?;

    let mut row = vec![0.0; scored.decisions.ncols()];
    let stride = devices / SAMPLE_ROWS;
    for k in 0..SAMPLE_ROWS {
        let i = k * stride + batch_index % stride.max(1);
        setup
            .scorer
            .score_into(batch.fingerprints.row(i), &mut row)
            .map_err(|e| e.to_string())?;
        checks::bits_equal(
            &format!("score_into row {i}"),
            &row,
            scored.decisions.row(i),
        )?;
    }
    Ok(())
}

/// Adds scored batch `b` to `tally`, then checks it.
fn tally_batch(
    setup: &mut Setup,
    b: usize,
    time: OpTime,
    scored: &ScoredBatch,
    tally: &mut Tally,
) -> Result<(), String> {
    let (labeled, flagged) = b5_verdicts(setup, scored);
    tally.op(time, scored.kept.len());
    tally.errors(
        labeled.false_positives(),
        labeled.infested_total(),
        flagged + labeled.false_negatives(),
        BATCH_DEVICES + labeled.free_total(),
    );
    check_batch(setup, b, scored, labeled)
}

pub fn run(opts: &Opts) -> Result<Outcome, Box<dyn Error>> {
    if opts.trace {
        return run_traced(opts);
    }
    let ops = opts.ops(OPS_PER_30S, POOL);
    let order = host::schedule(ops, POOL, sidefp_parallel::fork_seed(opts.seed, ORDER_TAG));
    let mut out = Outcome::default();
    let (mut setup, setup_s) = timed_setup(SETUP_REPEATS, build)?;
    out.set("setup_s", setup_s);

    let auto = ParallelismConfig::default().effective_threads();
    let mut tally = Tally::default();
    for &b in &order {
        let obs = RunContext::new();
        let batch = &setup.batches[b];
        let (result, time) = host::timed(|| {
            sidefp_parallel::with_threads(auto, || {
                setup
                    .scorer
                    .score_batch(&batch.fingerprints, &batch.pcms, &obs)
            })
        });
        match result {
            Ok(scored) => {
                let check = tally_batch(&mut setup, b, time, &scored, &mut tally);
                out.record(check);
                tally.stages(layers::stage_health(&obs.trace_events()));
            }
            Err(err) => out.record(Err(format!("batch {b}: {err}"))),
        }
    }
    tally.write(&mut out);
    Ok(out)
}

/// Traced run: per op, an untraced and a traced `score_batch` of the same
/// batch, then the layers under it called directly — the pinned
/// sanitizer, each boundary's `decision_rows_into`, and `score_into` over
/// a fixed row sample.
fn run_traced(opts: &Opts) -> Result<Outcome, Box<dyn Error>> {
    let order = host::schedule(
        TRACED_OPS,
        POOL,
        sidefp_parallel::fork_seed(opts.seed, ORDER_TAG),
    );
    let mut out = Outcome::default();
    let mut clock = layers::TraceClock::start();
    let (mut setup, _) = timed_setup(SETUP_REPEATS, build)?;
    let auto = ParallelismConfig::default().effective_threads();

    let mut sums = layers::LayerSums::default();
    let (mut decision_flops, mut decision_secs) = (0.0, 0.0);
    let (mut kept, mut devices_in) = (0usize, 0usize);
    let mut row = vec![0.0; BOUNDARIES.len()];
    for &b in &order {
        let batch = &setup.batches[b];
        let untraced = clock.untraced(|| {
            sidefp_parallel::with_threads(auto, || {
                setup
                    .scorer
                    .score_batch(&batch.fingerprints, &batch.pcms, &RunContext::new())
            })
        })?;
        let obs = RunContext::new();
        let (traced, _) = clock.traced(|| {
            let scored = sidefp_parallel::with_threads(auto, || {
                setup
                    .scorer
                    .score_batch(&batch.fingerprints, &batch.pcms, &obs)
            });
            let spans = layers::timings(&obs);
            sums.op(&spans, obs.solver_health());
            for span in ["score.sanitize", "score.boundaries"] {
                sums.add(
                    format!("stage.{span}.ms"),
                    spans.get(span).copied().unwrap_or(0.0),
                );
            }
            std::hint::black_box(obs.trace_events().len());
            scored
        });
        let traced = traced?;

        // The layers under the op, called directly.
        let start = Instant::now();
        let sanitized = sanitize_measurements_pinned(
            &batch.fingerprints,
            &batch.pcms,
            &setup.model.sanitizer(),
            setup.model.sanitizer_thresholds(),
        )?;
        sums.add("core.sanitize.ms", start.elapsed().as_secs_f64() * 1e3);
        kept += sanitized.kept.len();
        devices_in += batch.fingerprints.nrows();
        let n = sanitized.fingerprints.nrows();
        let mut decisions = vec![0.0; n];
        let mut direct = Ok(());
        for (bi, boundary) in setup.scorer.boundaries().iter().enumerate() {
            let z = boundary.scaler().transform(&sanitized.fingerprints)?;
            let start = Instant::now();
            sidefp_parallel::with_threads(auto, || {
                boundary.svm().decision_rows_into(&z, &mut decisions)
            })?;
            let secs = start.elapsed().as_secs_f64();
            sums.add(
                format!("stats.ocsvm.decision.{}.ms", BOUNDARIES[bi]),
                secs * 1e3,
            );
            let nsv = boundary.svm().support_vector_count();
            decision_flops += 2.0 * (n * nsv * z.ncols()) as f64;
            decision_secs += secs;
            let column: Vec<f64> = (0..n).map(|i| traced.decisions[(i, bi)]).collect();
            direct = direct.and_then(|()| {
                checks::bits_equal(
                    &format!("direct {} decisions", BOUNDARIES[bi]),
                    &decisions,
                    &column,
                )
            });
        }

        let rows = SCORE_INTO_ROWS.min(n);
        let start = Instant::now();
        for i in 0..rows {
            setup
                .scorer
                .score_into(batch.fingerprints.row(i), &mut row)?;
            std::hint::black_box(row[0]);
        }
        sums.add(
            "core.score_into.ns_per_device",
            start.elapsed().as_secs_f64() * 1e9 / rows.max(1) as f64,
        );

        let check = checks::bits_equal(
            "untraced vs traced decisions",
            untraced.decisions.as_slice(),
            traced.decisions.as_slice(),
        )
        .and(direct)
        .and_then(|()| {
            let (labeled, _) = b5_verdicts(&setup, &traced);
            check_batch(&mut setup, b, &traced, labeled)
        });
        out.record(check);
    }

    sums.write_means(&mut out);
    out.set(
        "stats.ocsvm.decision.gflops",
        decision_flops / decision_secs.max(1e-12) / 1e9,
    );
    out.set(
        "core.score.kept_frac",
        kept as f64 / devices_in.max(1) as f64,
    );
    let nsv = setup.scorer.boundaries()[BOUNDARIES.len() - 1]
        .svm()
        .support_vector_count();
    let dim = setup.model.fingerprint_dim();
    sidefp_parallel::with_threads(auto, || {
        layers::write_linalg(&mut out, (BATCH_DEVICES, dim, nsv))
    });
    clock.write(&mut out);
    out.fill_unexercised_layers();
    Ok(out)
}
