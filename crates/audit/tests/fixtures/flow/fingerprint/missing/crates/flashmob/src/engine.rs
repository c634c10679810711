// Violates fingerprint-completeness by omission: the fingerprint is
// named `chain_tag`, not `config_fingerprint`, so the lint cannot see
// which config fields it folds.  Silently skipping the engine would
// let an unfolded field through; the lint reports the gap instead.
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

    pub fn chain_tag(&self) -> u64 {
        self.config.seed
    }
}
