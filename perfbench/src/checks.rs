//! Correctness checks on the program's outputs. Each returns the reason
//! it failed, and a failed check counts the op against `ops_ok_frac`.

use sidefp_core::{RecalHealth, Table1Row};
use sidefp_stats::{ConfusionCounts, DetectionLabel};

/// Every Table-1 row tallies exactly `infested` Trojan-infested and `free`
/// Trojan-free devices.
pub fn table1_totals(rows: &[Table1Row], infested: usize, free: usize) -> Result<(), String> {
    for row in rows {
        let c = row.counts;
        if c.infested_total() != infested || c.free_total() != free {
            return Err(format!(
                "{} tallies {} infested + {} free, expected {infested} + {free}",
                row.dataset,
                c.infested_total(),
                c.free_total()
            ));
        }
    }
    Ok(())
}

/// Two decision vectors agree bit for bit.
pub fn bits_equal(what: &str, a: &[f64], b: &[f64]) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{what}: {} vs {} values", a.len(), b.len()));
    }
    match a
        .iter()
        .zip(b)
        .position(|(x, y)| x.to_bits() != y.to_bits())
    {
        Some(i) => Err(format!("{what}: value {i} differs ({} vs {})", a[i], b[i])),
        None => Ok(()),
    }
}

/// Two outputs that must agree are equal.
pub fn equal<T: PartialEq>(what: &str, got: &T, want: &T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what} differs"))
    }
}

/// The paper's tally of decisions against ground truth: a device is
/// accepted as Trojan-free iff its decision value is non-negative.
pub fn confusion(decisions: &[f64], labels: &[DetectionLabel]) -> ConfusionCounts {
    ConfusionCounts::from_pairs(decisions.iter().zip(labels).map(|(d, actual)| {
        let predicted = if *d >= 0.0 {
            DetectionLabel::TrojanFree
        } else {
            DetectionLabel::TrojanInfested
        };
        (*actual, predicted)
    }))
}

/// A re-derived Table-1 row equals the reference row.
pub fn same_counts(what: &str, got: ConfusionCounts, want: ConfusionCounts) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{what}: FP {}/{} FN {}/{}, expected FP {}/{} FN {}/{}",
            got.false_positives(),
            got.infested_total(),
            got.false_negatives(),
            got.free_total(),
            want.false_positives(),
            want.infested_total(),
            want.false_negatives(),
            want.free_total()
        ))
    }
}

/// The recalibration tiers account for every lot the stream advanced.
pub fn recal_tiers(health: &RecalHealth, advanced: usize) -> Result<(), String> {
    let tiers = health.accepted + health.recalibrated + health.refitted;
    if tiers != advanced || health.lots != advanced {
        return Err(format!(
            "recal tiers {tiers} (lots {}) for {advanced} lots advanced",
            health.lots
        ));
    }
    Ok(())
}

/// Every Table-1 row of a lot tallies the lot's device count.
pub fn lot_totals(rows: &[Table1Row], devices: usize) -> Result<(), String> {
    if rows.len() != 5 {
        return Err(format!("lot has {} Table-1 rows, expected 5", rows.len()));
    }
    for row in rows {
        let total = row.counts.infested_total() + row.counts.free_total();
        if total != devices {
            return Err(format!(
                "{} tallies {total} devices of a {devices}-device lot",
                row.dataset
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use DetectionLabel::{TrojanFree as Free, TrojanInfested as Infested};

    fn row(dataset: &'static str, pairs: &[(DetectionLabel, DetectionLabel)]) -> Table1Row {
        Table1Row {
            dataset,
            counts: ConfusionCounts::from_pairs(pairs.iter().copied()),
        }
    }

    #[test]
    fn table1_totals_fire_on_a_wrong_row_total() {
        let good = row(
            "B5",
            &[(Infested, Infested), (Infested, Free), (Free, Free)],
        );
        assert!(table1_totals(&[good], 2, 1).is_ok());
        let short = row("B5", &[(Infested, Infested), (Free, Free)]);
        assert!(table1_totals(&[good, short], 2, 1).is_err());
        assert!(lot_totals(&[good; 5], 3).is_ok());
        assert!(lot_totals(&[good, good, good, good, short], 3).is_err());
        assert!(lot_totals(&[good; 4], 3).is_err());
    }

    #[test]
    fn bits_equal_fires_on_a_flipped_verdict() {
        let a = [0.25, -0.5, 1e-300];
        assert!(bits_equal("B5", &a, &a).is_ok());
        let flipped = [0.25, 0.5, 1e-300];
        assert!(bits_equal("B5", &a, &flipped).is_err());
        // One ulp is a difference too.
        let ulp = [0.25, -0.5, f64::from_bits(1e-300f64.to_bits() + 1)];
        assert!(bits_equal("B5", &a, &ulp).is_err());
        assert!(bits_equal("B5", &a, &a[..2]).is_err());
    }

    #[test]
    fn confusion_follows_the_paper_convention() {
        // FP = infested accepted (missed Trojan), FN = free rejected.
        let c = confusion(&[1.0, -1.0, 0.0, -2.0], &[Infested, Infested, Free, Free]);
        assert_eq!((c.false_positives(), c.false_negatives()), (1, 1));
        let reference = c;
        assert!(same_counts("labeled", c, reference).is_ok());
        // Flip one verdict: the re-derived row no longer matches.
        let flipped = confusion(&[-1.0, -1.0, 0.0, -2.0], &[Infested, Infested, Free, Free]);
        assert!(same_counts("labeled", flipped, reference).is_err());
    }

    #[test]
    fn recal_tiers_fire_on_a_lost_lot() {
        let health = RecalHealth {
            lots: 4,
            accepted: 1,
            recalibrated: 1,
            refitted: 2,
            ..RecalHealth::default()
        };
        assert!(recal_tiers(&health, 4).is_ok());
        assert!(recal_tiers(&health, 5).is_err());
        let lost = RecalHealth {
            refitted: 1,
            ..health
        };
        assert!(recal_tiers(&lost, 4).is_err());
    }
}
