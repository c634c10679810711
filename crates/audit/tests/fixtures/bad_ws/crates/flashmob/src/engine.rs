// Violates fingerprint-completeness: the run path reads
// `config.budget` but `config_fingerprint` never folds it.
pub struct WalkConfig {
    pub seed: u64,
    pub budget: usize,
}

pub struct Engine {
    pub config: WalkConfig,
}

impl Engine {
    pub fn run(&self) -> u64 {
        self.config.seed.wrapping_add(self.config.budget as u64)
    }

    pub fn config_fingerprint(&self) -> u64 {
        self.config.seed
    }
}
