//! What every engine shares around a run: the [`RunOptions`] a caller
//! passes in, and the fingerprints and checks that pin a checkpoint to
//! the engine, configuration and graph that wrote it.

use std::path::PathBuf;

use fm_recover::{
    CheckpointSpec, FaultPolicy, Fingerprint, RecoverError, RetryPolicy, WalkSnapshot,
};

use crate::walker::WalkerInit;
use crate::{PlanStrategy, StopRule, WalkAlgorithm, WalkConfig, WalkError};

/// Options of one run: checkpointing, resume, fault injection and
/// retries.  The default runs fresh, writes no checkpoints and injects
/// no faults.
#[derive(Debug, Default, Clone)]
pub struct RunOptions {
    /// Write crash-consistent checkpoints per this spec.
    pub checkpoint: Option<CheckpointSpec>,
    /// Inject seeded faults into the disk-graph read stream (tests;
    /// disk graphs only).
    pub fault: Option<FaultPolicy>,
    /// Retry policy for transient disk-graph read errors.
    pub retry: RetryPolicy,
    /// Resume from the latest checkpoint in this directory instead of
    /// starting fresh.
    pub resume_from: Option<PathBuf>,
}

impl RunOptions {
    /// Enables checkpointing per `spec`.
    pub fn checkpoint(mut self, spec: CheckpointSpec) -> Self {
        self.checkpoint = Some(spec);
        self
    }

    /// Injects seeded faults into disk-graph reads.
    pub fn fault(mut self, policy: FaultPolicy) -> Self {
        self.fault = Some(policy);
        self
    }

    /// Resumes from the latest checkpoint in `dir`.
    pub fn resume_from(mut self, dir: impl Into<PathBuf>) -> Self {
        self.resume_from = Some(dir.into());
        self
    }
}

/// The engine a snapshot belongs to.
#[derive(Debug, Clone, Copy)]
pub(crate) enum EngineKind {
    /// The in-memory [`crate::FlashMob`] engine.
    InMemory,
    /// The partition-streaming disk engine; the byte budget fixes the
    /// partition layout and so the RNG stream of every partition.
    Streaming { budget: usize },
    /// The bi-block disk scheduler; the budget fixes its blocks.
    BiBlock { budget: usize },
}

/// Fingerprint of everything that determines the sampled chain.
///
/// Snapshots carry it and resume checks it: resuming under another
/// algorithm, stop rule, seed or plan would silently produce garbage.
/// A per-engine domain separator comes first, so no engine resumes
/// another engine's snapshot even when every config field matches.
/// Thread count is left out on purpose: runs are bit-identical across
/// thread counts, so a checkpoint written at 8 threads resumes at 1.
pub(crate) fn config_fingerprint(config: &WalkConfig, engine: EngineKind) -> u64 {
    let mut fp = Fingerprint::new();
    match engine {
        EngineKind::InMemory => fp.fold_u64(0x00F1_A580),
        EngineKind::Streaming { budget } => fp.fold_u64(0x00C0_FEED).fold_u64(budget as u64),
        EngineKind::BiBlock { budget } => fp.fold_u64(0x00B1_B10C).fold_u64(budget as u64),
    };
    match config.algorithm {
        WalkAlgorithm::DeepWalk => fp.fold_u64(1),
        WalkAlgorithm::Weighted => fp.fold_u64(2),
        WalkAlgorithm::Node2Vec { p, q } => {
            fp.fold_u64(3).fold_u64(p.to_bits()).fold_u64(q.to_bits())
        }
        WalkAlgorithm::Ppr { alpha } => fp.fold_u64(4).fold_u64(alpha.to_bits()),
        WalkAlgorithm::EarlyExit => fp.fold_u64(5),
        WalkAlgorithm::Metapath { pattern } => {
            fp.fold_u64(6).fold_u64(pattern.len() as u64);
            for &l in pattern.labels() {
                fp.fold_u64(l as u64);
            }
            &mut fp
        }
    };
    match config.stop {
        StopRule::FixedSteps(n) => fp.fold_u64(1).fold_u64(n as u64),
        StopRule::Geometric {
            exit_prob,
            max_steps,
        } => fp
            .fold_u64(2)
            .fold_u64(exit_prob.to_bits())
            .fold_u64(max_steps as u64),
    };
    match &config.init {
        WalkerInit::UniformVertex => fp.fold_u64(1),
        WalkerInit::UniformEdge => fp.fold_u64(2),
        WalkerInit::EveryVertex => fp.fold_u64(3),
        WalkerInit::Fixed(starts) => {
            fp.fold_u64(4).fold_u64(starts.len() as u64);
            for &s in starts {
                fp.fold_u64(s as u64);
            }
            &mut fp
        }
    };
    fp.fold_u64(config.walkers as u64)
        .fold_u64(config.seed)
        .fold_u64(config.record_paths as u64);
    // Only the in-memory engine plans: the disk engines cut partitions
    // by byte budget and ignore the planner and visit counters.
    if let EngineKind::InMemory = engine {
        fp.fold_u64(config.record_visits as u64)
            .fold_u64(match config.strategy {
                PlanStrategy::DynamicProgramming => 1,
                PlanStrategy::UniformPs => 2,
                PlanStrategy::UniformDs => 3,
                PlanStrategy::ManualHeuristic => 4,
            })
            .fold_u64(config.planner.target_groups as u64)
            .fold_u64(config.planner.max_partitions as u64)
            .fold_u64(config.planner.min_vp_vertices as u64);
    }
    fp.value()
}

/// Fingerprint of a degree-sorted graph's shape, from its CSR offsets
/// (they pin the degree sequence, which pins the relabeling).
pub(crate) fn graph_fingerprint(offsets: &[usize]) -> u64 {
    let mut fp = Fingerprint::new();
    fp.fold_u64(offsets.len().saturating_sub(1) as u64)
        .fold_u64(offsets.last().map_or(0, |&e| e as u64));
    for &o in offsets {
        fp.fold_u64(o as u64);
    }
    fp.value()
}

/// A resume refusal: the snapshot does not belong to this run.
pub(crate) fn mismatch(detail: impl Into<String>) -> WalkError {
    WalkError::Recover(RecoverError::Mismatch {
        detail: detail.into(),
    })
}

/// The checks every engine makes before resuming from `snap`: both
/// fingerprints, the seed, the walker and step counts, and (for
/// snapshots cut between iterations) the iteration cursor and path
/// rows.  Engine-specific state is checked by the engine itself.
pub(crate) fn check_snapshot(
    snap: &WalkSnapshot,
    config: &WalkConfig,
    config_fp: u64,
    graph_fp: u64,
) -> Result<(), WalkError> {
    if snap.config_fingerprint != config_fp {
        return Err(mismatch(
            "snapshot was written by another engine or under a different walk configuration",
        ));
    }
    if snap.graph_fingerprint != graph_fp {
        return Err(mismatch("snapshot was written against a different graph"));
    }
    if snap.seed != config.seed {
        return Err(mismatch(format!(
            "snapshot seed {} does not match run seed {}",
            snap.seed, config.seed
        )));
    }
    let walkers = config.walkers;
    if snap.walkers as usize != walkers || snap.w.len() != walkers {
        return Err(mismatch(format!(
            "snapshot has {} walkers, run has {walkers}",
            snap.walkers
        )));
    }
    let steps = config.max_steps();
    // The bi-block cursor counts pair slots, not iterations, and its
    // paths live in the scheduler state.
    let iteration_cut = snap.biblock.is_none();
    if snap.steps_total as usize != steps || (iteration_cut && snap.iter_next as usize > steps) {
        return Err(mismatch(format!(
            "snapshot iteration {}/{} does not fit a {steps}-step run",
            snap.iter_next, snap.steps_total
        )));
    }
    if iteration_cut
        && config.record_paths
        && (snap.rows.len() != snap.iter_next as usize + 1
            || snap.rows.iter().any(|r| r.len() != walkers))
    {
        return Err(mismatch("snapshot path rows are inconsistent"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engines_never_share_a_config_fingerprint() {
        let cfg = WalkConfig::deepwalk().walkers(64).steps(8).seed(3);
        let budget = 4096;
        let tags = [
            EngineKind::InMemory,
            EngineKind::Streaming { budget },
            EngineKind::BiBlock { budget },
        ]
        .map(|engine| config_fingerprint(&cfg, engine));
        assert_ne!(tags[0], tags[1]);
        assert_ne!(tags[0], tags[2]);
        assert_ne!(tags[1], tags[2]);
        // The disk budget fixes the partition layout, so it is folded;
        // the thread count never changes the chain, so it is not.
        let wider = EngineKind::Streaming { budget: 2 * budget };
        assert_ne!(config_fingerprint(&cfg, wider), tags[1]);
        let threaded = cfg.clone().threads(8);
        assert_eq!(config_fingerprint(&threaded, EngineKind::InMemory), tags[0]);
    }
}
