//! The three workloads: which simulacrum a session mines, how many steps it
//! takes, and the miner settings of the paper figure it mirrors.

use sisd_data::csv::dataset_to_csv_string;
use sisd_data::datasets::{crime_synthetic, mammals_synthetic, water_quality_synthetic};
use sisd_data::Dataset;
use sisd_search::{BeamConfig, EvalConfig, MinerConfig, SphereConfig};

/// Engine worker threads on every workload. One analyst drives a serial
/// engine: the development host has about 1.2 effective cores, so thread
/// scaling cannot be measured on it.
pub const ENGINE_THREADS: usize = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Long location-only sessions on the crime simulacrum.
    CrimeDeep,
    /// Short location sessions on the mammals simulacrum (dy = 124).
    MammalsFig4,
    /// Location + spread sessions on the water simulacrum, saved every step.
    WaterSpreadDurable,
}

/// The CSV text a session starts from. Generating it is input, not set-up.
pub struct Input {
    pub name: String,
    pub csv: String,
    pub targets: Vec<String>,
}

impl Input {
    fn of(name: &str, data: &Dataset) -> Self {
        Self {
            name: name.to_string(),
            csv: dataset_to_csv_string(data),
            targets: data.target_names().to_vec(),
        }
    }
}

impl Workload {
    pub const ALL: [Workload; 3] = [Self::CrimeDeep, Self::MammalsFig4, Self::WaterSpreadDurable];

    pub fn name(self) -> &'static str {
        match self {
            Self::CrimeDeep => "crime-deep",
            Self::MammalsFig4 => "mammals-fig4",
            Self::WaterSpreadDurable => "water-spread-durable",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Steps per session.
    pub fn steps(self) -> usize {
        match self {
            Self::CrimeDeep => 12,
            Self::MammalsFig4 => 3,
            Self::WaterSpreadDurable => 10,
        }
    }

    /// Whether each step also mines and assimilates a spread pattern.
    pub fn with_spread(self) -> bool {
        self == Self::WaterSpreadDurable
    }

    /// Whether each step ends with a durable `Miner::save`.
    pub fn saves_every_step(self) -> bool {
        self == Self::WaterSpreadDurable
    }

    /// The input of session `session` of a run at `seed`: the simulacrum of
    /// seed `seed + session`.
    pub fn input(self, seed: u64, session: u64) -> Input {
        let seed = seed.wrapping_add(session);
        match self {
            Self::CrimeDeep => Input::of(self.name(), &crime_synthetic(seed)),
            Self::MammalsFig4 => Input::of(self.name(), &mammals_synthetic(seed).0),
            Self::WaterSpreadDurable => Input::of(self.name(), &water_quality_synthetic(seed)),
        }
    }

    /// Beam width 40, depth 2 and top-k 150 everywhere, as the figure
    /// binaries use, with each figure's coverage floor, spread optimizer
    /// and refit settings.
    pub fn config(self) -> MinerConfig {
        let default_starts = SphereConfig::default().random_starts;
        let (min_coverage, random_starts, refit_tol, refit_max_cycles) = match self {
            // `scalability`'s crime settings.
            Self::CrimeDeep => (10, default_starts, 1e-9, 200),
            // Figs. 4–6.
            Self::MammalsFig4 => (50, default_starts, 1e-7, 50),
            // Figs. 9–10.
            Self::WaterSpreadDurable => (30, 10, 1e-7, 100),
        };
        MinerConfig {
            beam: BeamConfig {
                width: 40,
                max_depth: 2,
                top_k: 150,
                min_coverage,
                eval: EvalConfig::with_threads(ENGINE_THREADS),
                ..BeamConfig::default()
            },
            sphere: SphereConfig {
                random_starts,
                ..SphereConfig::default()
            },
            two_sparse_spread: false,
            refit_tol,
            refit_max_cycles,
        }
    }
}
