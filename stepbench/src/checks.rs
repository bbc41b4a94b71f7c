//! Output checks. A wrong answer fails the operation that produced it; it
//! never becomes a number.

use crate::workload::Workload;
use sisd_core::{location_si, LocationPattern, SpreadPattern};
use sisd_data::Dataset;
use sisd_search::{Miner, MinerConfig};

/// Re-scored against the model that assimilated it, a shown pattern must
/// score below this SI, and below its own SI at mining time: once
/// assimilated it is no longer surprising (paper Table I: it drops to
/// about −3).
pub const COLLAPSED_SI: f64 = 1.0;

/// The default seed. Session 0 at this seed must mine the sequence
/// recorded in [`reference`].
pub const REFERENCE_SEED: u64 = 2018;

/// Relative tolerance on a recorded SI. Intentions and extension sizes
/// must match exactly.
pub const REFERENCE_SI_REL_TOL: f64 = 1e-9;

/// What one step showed the analyst.
#[derive(Debug, Clone)]
pub struct Shown {
    pub location: LocationPattern,
    /// The spread pattern's SI, on the workload that mines spreads.
    pub spread_si: Option<f64>,
}

impl Shown {
    pub fn new(location: LocationPattern, spread: Option<&SpreadPattern>) -> Self {
        Self {
            location,
            spread_si: spread.map(|s| s.score.si),
        }
    }

    /// Bit-for-bit equality of what the analyst saw: intention, extension
    /// and SI bits.
    pub fn same_as(&self, other: &Shown) -> bool {
        self.location.intention == other.location.intention
            && self.location.extension == other.location.extension
            && self.location.score.si.to_bits() == other.location.score.si.to_bits()
            && self.spread_si.map(f64::to_bits) == other.spread_si.map(f64::to_bits)
    }

    /// `intention | n=… | SI=…`, with SIs at full precision.
    pub fn describe(&self, data: &Dataset) -> String {
        let p = &self.location;
        let mut line = format!(
            "{} | n={} | SI={:?}",
            p.intention.describe(data),
            p.extension.count(),
            p.score.si
        );
        if let Some(si) = self.spread_si {
            line.push_str(&format!(" | spread SI={si:?}"));
        }
        line
    }
}

/// The largest constraint violation (`BackgroundModel::max_violation`) a
/// step may leave, on the location-only workloads. Measured after every
/// step of 40 sessions at this commit: on `mammals-fig4` the refit
/// converges to within its tolerance of 1e-7, so the ceiling is 100 times
/// that. On `crime-deep` the refit stops once a cycle stalls and leaves up
/// to 2.5e-2, about what skipping the refit would leave (2.2e-2 to
/// 3.1e-2), so the ceiling, twice that, catches only a refit that diverges
/// or goes non-finite. On `water-spread-durable` spread constraints can
/// turn infeasible, leaving violations of up to about 2 on location
/// constraints and 2e2 on spread ones, so it has no ceiling.
fn violation_ceiling(w: Workload) -> Option<f64> {
    match w {
        Workload::CrimeDeep => Some(5e-2),
        Workload::MammalsFig4 => Some(1e-5),
        Workload::WaterSpreadDurable => None,
    }
}

/// Checks a step against the model that just assimilated it: finite SIs,
/// a pattern that re-scores as collapsed, and, on the location-only
/// workloads, constraint violations under [`violation_ceiling`].
pub fn step(w: Workload, miner: &Miner, config: &MinerConfig, shown: &Shown) -> Result<(), String> {
    let p = &shown.location;
    let spread_si = shown.spread_si.unwrap_or(0.0);
    if !p.score.si.is_finite() || !spread_si.is_finite() {
        return Err(format!(
            "non-finite SI: location {}, spread {spread_si}",
            p.score.si
        ));
    }
    let model = miner.model();
    let rescored = location_si(
        model,
        miner.data(),
        &p.intention,
        &p.extension,
        &config.dl(),
    )
    .map_err(|e| format!("re-scoring the shown pattern failed: {e}"))?;
    let collapsed = rescored.si < COLLAPSED_SI.min(p.score.si);
    if !collapsed {
        return Err(format!(
            "SI {} did not collapse after assimilation: it re-scores {}",
            p.score.si, rescored.si
        ));
    }
    if let Some(ceiling) = violation_ceiling(w) {
        let violation = model.max_violation();
        let within = violation <= ceiling;
        if !within {
            return Err(format!(
                "the refit left a constraint violation of {violation}, above {ceiling}"
            ));
        }
    }
    Ok(())
}

/// A restored session must re-snapshot to the bytes it was restored from.
pub fn resnapshot(restored: &Miner, on_disk: &[u8]) -> Result<(), String> {
    let again = restored
        .snapshot_bytes()
        .map_err(|e| format!("re-snapshot failed: {e}"))?;
    if again != on_disk {
        return Err(format!(
            "the restored session re-snapshots to other bytes ({} vs {} bytes)",
            again.len(),
            on_disk.len()
        ));
    }
    Ok(())
}

/// One step of a recorded session-0 sequence: the intention as
/// `Intention::describe` prints it, the extension size, and the SI at
/// mining time.
struct RefStep(&'static str, usize, f64);

/// Session 0 at [`REFERENCE_SEED`], as mined when the benchmark was
/// written.
fn reference(w: Workload) -> &'static [RefStep] {
    match w {
        Workload::CrimeDeep => &[
            RefStep("PctIlleg >= 0.3952", 400, 335.98530080094383),
            RefStep("PctIlleg <= 0.2192", 799, 243.97334677864413),
            RefStep(
                "PctIlleg >= 0.3003 ∧ PctIlleg <= 0.3952",
                400,
                28.950005047368972,
            ),
            RefStep(
                "demo_003 <= 0.3608 ∧ demo_012 <= 0.3651",
                160,
                10.331987073591893,
            ),
            RefStep(
                "demo_001 <= 0.5389 ∧ PctIlleg >= 0.2192",
                506,
                7.261625311407771,
            ),
            RefStep(
                "demo_004 >= 0.6431 ∧ demo_000 <= 0.3534",
                176,
                4.485382758600206,
            ),
            RefStep(
                "PctIlleg <= 0.1252 ∧ demo_006 >= 0.4624",
                366,
                4.086910224657019,
            ),
            RefStep(
                "demo_009 <= 0.3682 ∧ demo_006 <= 0.5431",
                320,
                3.152721314785278,
            ),
            RefStep(
                "demo_002 >= 0.6458 ∧ noise_052 >= 0.3990",
                228,
                2.0567425440358496,
            ),
            RefStep(
                "demo_018 <= 0.3823 ∧ demo_011 >= 0.5386",
                236,
                0.9770172938749796,
            ),
            RefStep(
                "demo_010 <= 0.4666 ∧ PctIlleg >= 0.2192",
                299,
                0.5117799991598038,
            ),
            RefStep(
                "demo_005 >= 0.6353 ∧ demo_021 <= 0.5340",
                309,
                0.3440965649480521,
            ),
        ],
        Workload::MammalsFig4 => &[
            RefStep(
                "temp_mar <= 2.0609 ∧ rain_annual_total >= 687.6244",
                739,
                142.61986787051995,
            ),
            RefStep(
                "temp_annual_range <= 15.4704 ∧ rain_annual_total >= 772.4055",
                849,
                149.8722150188731,
            ),
            RefStep("bioclim_07 <= -3.9945", 888, 131.7492631631973),
        ],
        Workload::WaterSpreadDurable => &[
            RefStep(
                "Diptera_Chironomus_thummi >= 3.0000",
                275,
                210.9248027781532,
            ),
            RefStep("Plecoptera_Leuctra >= 3.0000", 641, 92.94666094221706),
            RefStep(
                "Oligochaeta_Tubifex >= 1.0000 ∧ Plecoptera_Leuctra >= 3.0000",
                204,
                15.15908737547515,
            ),
            RefStep(
                "Diptera_Chironomus_thummi >= 3.0000 ∧ Alga_Cladophora <= 1.0000",
                30,
                9.963833881966632,
            ),
            RefStep(
                "Ephemeroptera_Baetis <= 1.0000 ∧ Amphipoda_Gammarus_fossarum >= 3.0000",
                31,
                8.39042978384897,
            ),
            RefStep(
                "Diptera_Chironomus_thummi >= 3.0000 ∧ Hirudinea_Erpobdella <= 1.0000",
                40,
                8.36900853528285,
            ),
            RefStep(
                "Plant_Ranunculus >= 3.0000 ∧ Alga_Cladophora >= 3.0000",
                63,
                6.4755662998665215,
            ),
            RefStep(
                "Alga_Spirogyra >= 3.0000 ∧ Moss_Fontinalis >= 3.0000",
                38,
                4.864170035669126,
            ),
            RefStep(
                "Isopoda_Asellus_aquaticus >= 3.0000 ∧ Alga_Cladophora <= 1.0000",
                39,
                2.467501341019151,
            ),
            RefStep(
                "Diptera_Chironomus_thummi >= 3.0000 ∧ Isopoda_Asellus_aquaticus <= 1.0000",
                41,
                1.8799419169367937,
            ),
        ],
    }
}

/// Checks step `step` of session 0 at the reference seed against the
/// recording.
pub fn against_reference(
    w: Workload,
    step: usize,
    shown: &Shown,
    data: &Dataset,
) -> Result<(), String> {
    let Some(&RefStep(intention, size, si)) = reference(w).get(step) else {
        return Err("no reference is recorded for this step".to_string());
    };
    let p = &shown.location;
    let mined = p.intention.describe(data);
    let mined_size = p.extension.count();
    let si_matches = (p.score.si - si).abs() <= REFERENCE_SI_REL_TOL * si.abs();
    if mined != intention || mined_size != size || !si_matches {
        return Err(format!(
            "differs from the reference: mined `{mined}` n={mined_size} SI={:?}, \
             recorded `{intention}` n={size} SI={si:?}",
            p.score.si
        ));
    }
    Ok(())
}
