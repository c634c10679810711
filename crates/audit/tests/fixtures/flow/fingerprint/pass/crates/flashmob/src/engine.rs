// Complete fingerprint: every field the run path reads is folded.
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
        tag ^= c.budget as u64;
        tag
    }
}
