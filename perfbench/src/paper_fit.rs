//! `paper-fit`: one op is a full B1–B5 `PaperExperiment::run_in_context`
//! at the paper's Table-1 size, each op on its own experiment seed.

use std::error::Error;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sidefp_core::experiment::RunArtifacts;
use sidefp_core::stages::{trojan_test, PremanufacturingStage, SiliconStage, Testbench};
use sidefp_core::{
    ExperimentConfig, PaperExperiment, ParallelismConfig, RunContext, TrustedBoundary,
};
use sidefp_stats::kde::AdaptiveKde;
use sidefp_stats::DetectionLabel;

use crate::report::{timed_setup, Outcome, Tally};
use crate::schema::STAGE_SPANS;
use crate::{checks, host, layers, Opts};

/// Experiment seeds of the op pool: `FIRST_SEED`, `FIRST_SEED + 1`, …
/// (42 is the library's default seed).
const FIRST_SEED: u64 = 42;
/// Warm-up experiment seed, outside the pool; runs only in set-up.
const WARMUP_SEED: u64 = 41;
/// Ops per 30 s of `--seconds`; also the pool size, so every op is a
/// distinct experiment seed.
const OPS_PER_30S: usize = 100;
/// Ops replayed by a traced run: the first pool seeds, in seeded order.
const TRACED_OPS: usize = 12;
const SETUP_REPEATS: usize = 5;
/// Mixed into the workload seed for this workload's op order.
const ORDER_TAG: u64 = 1;

fn config(seed: u64, threads: usize) -> ExperimentConfig {
    ExperimentConfig {
        seed,
        parallelism: ParallelismConfig {
            threads,
            ..ParallelismConfig::default()
        },
        ..ExperimentConfig::default()
    }
}

/// `(infested, free)` devices of one DUTT lot under `cfg`.
fn lot_labels(cfg: &ExperimentConfig) -> (usize, usize) {
    let variants = cfg.trojan_variants();
    let infested = variants
        .iter()
        .filter(|(_, label, _)| *label == DetectionLabel::TrojanInfested)
        .count();
    (
        infested * cfg.chips,
        (variants.len() - infested) * cfg.chips,
    )
}

/// Median wall seconds of the set-up: a warm-up experiment, which brings
/// the worker pool, allocator and page cache to steady state.
fn setup() -> Result<f64, Box<dyn Error>> {
    let (_, secs) = timed_setup(SETUP_REPEATS, || -> Result<(), Box<dyn Error>> {
        PaperExperiment::new(config(WARMUP_SEED, 0))?.run_in_context(&RunContext::new())?;
        Ok(())
    })?;
    Ok(secs)
}

pub fn run(opts: &Opts) -> Result<Outcome, Box<dyn Error>> {
    if opts.trace {
        return run_traced(opts);
    }
    let ops = opts.ops(OPS_PER_30S, 1);
    let order = host::schedule(ops, ops, sidefp_parallel::fork_seed(opts.seed, ORDER_TAG));
    let mut out = Outcome::default();
    out.set("setup_s", setup()?);

    let (infested, free) = lot_labels(&config(FIRST_SEED, 0));
    let mut tally = Tally::default();
    for &i in &order {
        let experiment = PaperExperiment::new(config(FIRST_SEED + i as u64, 0))?;
        let obs = RunContext::new();
        let (result, time) = host::timed(|| experiment.run_in_context(&obs));
        let arts = match result {
            Ok(arts) => arts,
            Err(err) => {
                out.record(Err(format!("seed {}: {err}", FIRST_SEED + i as u64)));
                continue;
            }
        };
        let r = &arts.result;
        let mut rows = r.table1.clone();
        rows.push(r.golden_baseline);
        out.record(match r.table1.len() {
            5 => checks::table1_totals(&rows, infested, free),
            n => Err(format!("{n} Table-1 rows")),
        });
        tally.op(time, arts.silicon.dutts.len());
        if let Some(b5) = r.table1.last() {
            let c = b5.counts;
            tally.errors(
                c.false_positives(),
                c.infested_total(),
                c.false_negatives(),
                c.free_total(),
            );
        }
        tally.stages(layers::stage_health(&obs.trace_events()));
    }
    tally.write(&mut out);
    Ok(out)
}

/// Decision values of every boundary on every DUTT, boundary-major.
fn decisions(arts: &RunArtifacts) -> Result<Vec<f64>, Box<dyn Error>> {
    let boundaries: [&TrustedBoundary; 5] = [
        &arts.premanufacturing.b1,
        &arts.premanufacturing.b2,
        &arts.silicon.b3,
        &arts.silicon.b4,
        &arts.silicon.b5,
    ];
    let mut values = Vec::with_capacity(5 * arts.silicon.dutts.len());
    for b in boundaries {
        for row in arts.silicon.dutts.fingerprints().rows_iter() {
            values.push(b.decision(row)?);
        }
    }
    Ok(values)
}

/// Traced run: per op, an untraced run and a traced run of the same seed,
/// a threads=1 replay (per-span speedup and the bit-identity check), the
/// stage pipeline called stage by stage under benchmark timers, and
/// replays of the B5 OCSVM fit and the S4 KDE fit + sample.
fn run_traced(opts: &Opts) -> Result<Outcome, Box<dyn Error>> {
    let order = host::schedule(
        TRACED_OPS,
        TRACED_OPS,
        sidefp_parallel::fork_seed(opts.seed, ORDER_TAG),
    );
    let mut out = Outcome::default();
    let mut clock = layers::TraceClock::start();
    setup()?;
    let auto = ParallelismConfig::default().effective_threads();
    let cfg = config(FIRST_SEED, 0);
    let gram_rows = cfg.enhanced_boundary.train_cap.min(cfg.kde_samples);

    let (mut sums, mut single) = (layers::LayerSums::default(), layers::LayerSums::default());
    let mut dim = 0;
    for &i in &order {
        let seed = FIRST_SEED + i as u64;
        let experiment = PaperExperiment::new(config(seed, 0))?;
        let untraced = clock.untraced(|| experiment.run_in_context(&RunContext::new()))?;

        let obs = RunContext::new();
        let (arts, _) = clock.traced(|| {
            let arts = experiment.run_in_context(&obs);
            sums.op(&layers::timings(&obs), obs.solver_health());
            std::hint::black_box(obs.trace_events().len());
            arts
        });
        let arts = arts?;

        let obs1 = RunContext::new();
        let replay = PaperExperiment::new(config(seed, 1))?.run_in_context(&obs1)?;
        single.op(&layers::timings(&obs1), obs1.solver_health());

        let staged = sidefp_parallel::with_threads(auto, || {
            sidefp_parallel::with_determinism(true, || staged_replay(&experiment, &mut sums))
        })?;
        let auto_values = decisions(&arts)?;
        let single_values = decisions(&replay)?;
        let untraced_values = decisions(&untraced)?;
        let check = checks::bits_equal("threads=1 decisions", &single_values, &auto_values)
            .and_then(|()| checks::bits_equal("untraced decisions", &untraced_values, &auto_values))
            .and_then(|()| checks::equal("stage-by-stage Table 1", &staged, &arts.result.table1))
            .map_err(|why| format!("seed {seed}: {why}"));
        out.record(check);
        dim = arts.silicon.dutts.fingerprints().ncols();
    }

    sums.write_means(&mut out);
    for span in STAGE_SPANS {
        let key = format!("stage.{span}.ms");
        let auto_ms = sums.total(&key);
        let speedup = if auto_ms > 0.0 {
            single.total(&key) / auto_ms
        } else {
            0.0
        };
        out.set(format!("stage.{span}.speedup"), speedup);
    }
    sidefp_parallel::with_threads(auto, || {
        layers::write_linalg(&mut out, (gram_rows, dim, gram_rows))
    });
    clock.write(&mut out);
    out.fill_unexercised_layers();
    Ok(out)
}

/// Runs the pipeline stage by stage through the public stage calls, the
/// way `PaperExperiment` sequences them, timing each call; then replays
/// the B5 OCSVM fit on S5 and the KDE fit + sample on S4. Returns B1–B5
/// Table 1 for the equality check.
fn staged_replay(
    experiment: &PaperExperiment,
    sums: &mut layers::LayerSums,
) -> Result<Vec<sidefp_core::Table1Row>, Box<dyn Error>> {
    let cfg = experiment.config();
    let obs = RunContext::new();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let bench = Testbench::random(&mut rng, cfg.fingerprint_blocks, cfg.pcm_suite.clone())?
        .with_meter(cfg.meter.clone());

    let start = Instant::now();
    let pre = PremanufacturingStage::run_observed(cfg, &bench, &mut rng, &obs)?;
    sums.add("core.premanufacturing.ms", ms_since(start));
    let start = Instant::now();
    let silicon = SiliconStage::run_observed(cfg, &bench, &pre, &mut rng, &obs)?;
    sums.add("core.silicon_stage.ms", ms_since(start));
    let start = Instant::now();
    let table1 = trojan_test::evaluate_boundaries(
        &[&pre.b1, &pre.b2, &silicon.b3, &silicon.b4, &silicon.b5],
        &silicon.dutts,
    )?;
    sums.add("core.trojan_test.ms", ms_since(start));

    let start = Instant::now();
    let b5 = TrustedBoundary::fit_observed(
        "B5",
        silicon.s5.fingerprints(),
        &cfg.enhanced_boundary,
        cfg.seed ^ 0xb5,
        &RunContext::new(),
    )?;
    sums.add("stats.ocsvm.fit.ms", ms_since(start));
    sums.add("stats.ocsvm.n_sv", b5.svm().support_vector_count() as f64);

    let start = Instant::now();
    let kde = AdaptiveKde::fit(silicon.s4.fingerprints(), &cfg.kde)?;
    let sample = kde.sample_matrix_streamed(cfg.seed, cfg.kde_samples);
    sums.add("stats.kde.sample.ms", ms_since(start));
    std::hint::black_box(sample.nrows());
    Ok(table1)
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}
