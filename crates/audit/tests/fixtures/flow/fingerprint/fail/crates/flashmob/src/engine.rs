// Violates fingerprint-completeness: `run` steers on `config.budget`
// (via a step helper) but `config_fingerprint` folds only alpha and seed, so a
// resume under a different budget would pass validation and diverge.
pub struct WalkConfig {
    pub alpha: f64,
    pub seed: u64,
    pub budget: usize,
}

pub struct Engine {
    pub config: WalkConfig,
}

impl Engine {
    pub fn run(&self) -> u64 {
        let mut acc = self.config.seed;
        acc ^= (self.config.alpha * 1e9) as u64;
        acc = self.step(acc);
        acc
    }

    fn step(&self, acc: u64) -> u64 {
        acc.wrapping_add(self.config.budget as u64)
    }

    pub fn config_fingerprint(&self) -> u64 {
        let c = &self.config;
        let mut tag = c.seed;
        tag ^= (c.alpha * 1e9) as u64;
        tag
    }
}
