//! Out-of-core walking of disk-resident graphs (the paper's future work).
//!
//! Section 4.5 closes with: "[FlashMob's streaming results show] strong
//! promise for its future extension to walk disk-resident graphs at
//! cache speed", and Section 5.4 budgets it — streaming a larger graph
//! through DRAM every iteration would need ~5 GB/s, "below the
//! capability of today's commodity NVMe SSDs".
//!
//! This module implements that extension: the degree-sorted CSR lives
//! in a file, and only the offsets index and the walker arrays stay in
//! memory.  Two scheduling loops, chosen by the algorithm, share one
//! block reader and one checkpoint path: DeepWalk streams the partitions
//! that host walkers (`run_ooc_streaming`); node2vec and PPR, whose step
//! reads two adjacency lists, sweep pairs of half-budget blocks
//! (`run_ooc_biblock`).  Running DeepWalk on the pair loop's diagonal
//! instead was measured and declined (DESIGN.md §14).

use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use fm_graph::relabel::{sort_by_degree, Relabeling};
use fm_graph::{Csr, GraphError, VertexId};
use fm_memsim::NullProbe;
use fm_recover::{
    load_latest, transient_io, with_retries, BiBlockState, CheckpointSink, CheckpointSpec,
    FaultyFile, RetryPolicy, WalkSnapshot,
};
use fm_rng::{Rng64, Xorshift64Star};
use fm_telemetry::{Stage, Telemetry, NO_PARTITION, NO_STEP};

use crate::output::WalkOutput;
use crate::run::{check_snapshot, config_fingerprint, graph_fingerprint, mismatch, EngineKind};
use crate::sample::{node2vec_reject, AlgoCtx};
use crate::shuffle::{ShuffleAddrs, ShuffleScratch, Shuffler};
use crate::walker::{initialize_from_offsets, WalkerInit};
use crate::{
    Partition, PartitionMap, RunOptions, SamplePolicy, WalkAlgorithm, WalkConfig, WalkError, DEAD,
};

const MAGIC: &[u8; 8] = b"FMDISK1\0";

/// A degree-sorted CSR graph whose targets array resides on disk.
///
/// The offsets index (`|V| + 1` words) stays in memory; adjacency bytes
/// are read on demand per partition.
#[derive(Debug)]
pub struct DiskGraph {
    path: PathBuf,
    offsets: Vec<usize>,
    relabel: Relabeling,
}

impl DiskGraph {
    /// Sorts `graph` by descending degree and writes its targets to
    /// `path`, returning the handle.
    pub fn create<P: AsRef<Path>>(graph: &Csr, path: P) -> Result<Self, GraphError> {
        let path = path.as_ref();
        let at = |e: std::io::Error| GraphError::io_at(path, None, e);
        let (sorted, relabel) = sort_by_degree(graph);
        let file = File::create(path).map_err(at)?;
        let mut w = BufWriter::new(file);
        w.write_all(MAGIC).map_err(at)?;
        w.write_all(&(sorted.vertex_count() as u64).to_le_bytes())
            .map_err(at)?;
        w.write_all(&(sorted.edge_count() as u64).to_le_bytes())
            .map_err(at)?;
        for &o in sorted.offsets() {
            w.write_all(&(o as u64).to_le_bytes()).map_err(at)?;
        }
        for &t in sorted.targets() {
            w.write_all(&t.to_le_bytes()).map_err(at)?;
        }
        w.flush().map_err(at)?;
        Ok(Self {
            path: path.to_path_buf(),
            offsets: sorted.offsets().to_vec(),
            relabel,
        })
    }

    /// Opens an existing on-disk graph, loading only the offsets index.
    ///
    /// The header is validated against the actual file length before any
    /// allocation: a corrupt vertex count can claim an index far larger
    /// than the file (or than the address space), and must fail with a
    /// clean `Format` error instead of a panic or a wild allocation.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, GraphError> {
        let path = path.as_ref();
        let mut f = File::open(path).map_err(|e| GraphError::io_at(path, None, e))?;
        let file_len = f
            .metadata()
            .map_err(|e| GraphError::io_at(path, None, e))?
            .len();
        let mut header = [0u8; 24];
        f.read_exact(&mut header).map_err(|e| {
            // A sub-header file is corruption (a torn create, not an
            // environment fault): classify as Format so the CLI exits
            // with the corrupt-input code rather than the IO one.
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                GraphError::Format("disk graph is shorter than its 24-byte header".into())
            } else {
                GraphError::io_at(path, Some(0), e)
            }
        })?;
        if &header[..8] != MAGIC {
            return Err(GraphError::Format("bad disk-graph magic".into()));
        }
        let mut word = [0u8; 8];
        word.copy_from_slice(&header[8..16]);
        let vcount64 = u64::from_le_bytes(word);
        word.copy_from_slice(&header[16..24]);
        let ecount64 = u64::from_le_bytes(word);
        let expect_len = vcount64
            .checked_add(1)
            .and_then(|v| v.checked_mul(8))
            .and_then(|idx| ecount64.checked_mul(4).and_then(|t| idx.checked_add(t)))
            .and_then(|payload| payload.checked_add(24))
            .filter(|&n| n <= usize::MAX as u64)
            .ok_or_else(|| {
                GraphError::Format(format!(
                    "disk-graph header counts overflow: {vcount64} vertices, {ecount64} edges"
                ))
            })?;
        if file_len != expect_len {
            return Err(GraphError::Format(format!(
                "disk graph is {file_len} bytes, header implies {expect_len}"
            )));
        }
        let vcount = vcount64 as usize;
        let mut raw = vec![0u8; (vcount + 1) * 8];
        f.read_exact(&mut raw)
            .map_err(|e| GraphError::io_at(path, Some(24), e))?;
        let offsets: Vec<usize> = raw
            .chunks_exact(8)
            .map(|c| {
                let mut w = [0u8; 8];
                w.copy_from_slice(c);
                u64::from_le_bytes(w) as usize
            })
            .collect();
        if offsets.first() != Some(&0)
            || offsets.last() != Some(&(ecount64 as usize))
            || offsets.windows(2).any(|p| p[0] > p[1])
        {
            return Err(GraphError::Format(
                "disk-graph offsets index is not a monotone CSR".into(),
            ));
        }
        Ok(Self {
            path: path.to_path_buf(),
            offsets,
            relabel: Relabeling::identity(vcount),
        })
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.offsets.last().map_or(0, |&o| o)
    }

    /// Out-degree of sorted-space vertex `v`.
    pub fn degree(&self, v: VertexId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// The sorted-space → original-ID mapping (identity for graphs
    /// opened from disk, which are already in sorted space).
    pub fn relabeling(&self) -> &Relabeling {
        &self.relabel
    }

    /// Byte offset of the targets array within the file.
    fn targets_base(&self) -> u64 {
        24 + (self.offsets.len() as u64) * 8
    }
}

/// Statistics of one out-of-core run.
#[derive(Debug, Clone, Default)]
pub struct OocStats {
    /// Live walker-steps executed.
    pub steps_taken: u64,
    /// Total wall-clock time.
    pub wall: Duration,
    /// Bytes of adjacency data streamed from disk.
    pub bytes_read: u64,
    /// Time spent in disk reads.
    pub read_time: Duration,
    /// Partitions whose read was skipped because no walker was present.
    pub partitions_skipped: u64,
    /// Partition reads performed.
    pub partitions_read: u64,
    /// Transient IO errors absorbed by the retry layer (disk reads and
    /// checkpoint writes).
    pub io_retries: u64,
    /// Bi-block scheduler only: block reads performed (a block already
    /// in its buffer, such as a row's block across the row, is not read).
    pub blocks_streamed: u64,
    /// Bi-block scheduler only: pair slots whose boundary bucket held
    /// walkers and were therefore scheduled.
    pub pairs_scheduled: u64,
    /// Bi-block scheduler only: pair slots skipped because their
    /// boundary bucket was empty.
    pub pairs_skipped: u64,
    /// Bi-block scheduler only: walkers parked into boundary buckets,
    /// cumulative over the run.
    pub walkers_parked: u64,
    /// Bi-block scheduler only: peak simultaneous boundary-buffer
    /// occupancy (the scheduler's memory high-water mark in walkers).
    pub peak_parked: u64,
}

impl OocStats {
    /// Average nanoseconds per walker-step.
    pub fn per_step_ns(&self) -> f64 {
        if self.steps_taken == 0 {
            return 0.0;
        }
        self.wall.as_nanos() as f64 / self.steps_taken as f64
    }

    /// Average adjacency bytes streamed per walker-step.
    pub fn bytes_per_step(&self) -> f64 {
        if self.steps_taken == 0 {
            return 0.0;
        }
        self.bytes_read as f64 / self.steps_taken as f64
    }
}

/// [`RunOptions`] under its out-of-core name, for callers that import
/// it from this module.
pub use crate::RunOptions as OocOptions;

/// Walks a disk-resident graph with DeepWalk, node2vec or PPR (others
/// fail with [`WalkError::Planning`]).  `partition_budget_bytes` bounds
/// the adjacency bytes held in memory; the paper's analysis suggests
/// the L3 capacity.
pub fn run_ooc(
    disk: &DiskGraph,
    config: &WalkConfig,
    partition_budget_bytes: usize,
) -> Result<(WalkOutput, OocStats), WalkError> {
    run_ooc_with(
        disk,
        config,
        partition_budget_bytes,
        &RunOptions::default(),
        &mut Telemetry::off(),
    )
}

/// Places walkers per `config.init` from the in-memory offsets index.
fn init_positions(disk: &DiskGraph, config: &WalkConfig) -> Vec<VertexId> {
    let place = |init| initialize_from_offsets(&disk.offsets, init, config.walkers, config.seed);
    match &config.init {
        WalkerInit::Fixed(starts) => place(&WalkerInit::Fixed(
            starts.iter().map(|&v| disk.relabel.to_new(v)).collect(),
        )),
        init => place(init),
    }
}

/// [`run_ooc`] under `opts`, recording telemetry into `tel`:
/// crash-consistent checkpoints, resume, seeded fault injection on the
/// read stream, and bounded retries with exponential backoff for
/// transient IO errors.  Traced runs record Shuffle/Sample spans per
/// iteration, an Io span per partition or block read, Checkpoint and
/// Recovery spans, per-partition counters (steps plus the adjacency
/// bytes actually streamed) and heartbeat ticks.
pub fn run_ooc_with(
    disk: &DiskGraph,
    config: &WalkConfig,
    partition_budget_bytes: usize,
    opts: &RunOptions,
    tel: &mut Telemetry,
) -> Result<(WalkOutput, OocStats), WalkError> {
    if config.walkers == 0 {
        return Err(WalkError::NoWalkers);
    }
    let n = disk.vertex_count();
    if n == 0 {
        return Err(WalkError::EmptyGraph);
    }
    for v in 0..n {
        if disk.degree(v as VertexId) == 0 {
            return Err(WalkError::SinkVertex(v as VertexId));
        }
    }
    let budget = partition_budget_bytes;
    // The pair loop cuts half-budget blocks so that any two fit the
    // budget together.
    let (engine, bounds) = match config.algorithm {
        WalkAlgorithm::DeepWalk => (EngineKind::Streaming { budget }, cut_blocks(disk, budget)),
        WalkAlgorithm::Node2Vec { .. } | WalkAlgorithm::Ppr { .. } => {
            (EngineKind::BiBlock { budget }, cut_blocks(disk, budget / 2))
        }
        _ => {
            return Err(WalkError::Planning(
                "out-of-core walking supports DeepWalk, node2vec, and PPR only".into(),
            ))
        }
    };

    let wall_start = Instant::now();
    let start = init_positions(disk, config);
    if tel.is_on() {
        tel.ensure_partitions(bounds.len() - 1);
    }
    // The block frees the reader's buffers before the output is built.
    let (rows, mut stats) = {
        let mut run = OocRun::new(disk, config, engine, &bounds, opts)?;
        let rows = match engine {
            EngineKind::Streaming { .. } => run_ooc_streaming(&mut run, &bounds, start, tel)?,
            _ => run_ooc_biblock(&mut run, &bounds, start, tel)?,
        };
        (rows, run.stats)
    };
    tel.record_io_retries(stats.io_retries);
    stats.wall = wall_start.elapsed();
    let output = WalkOutput::new(rows, config.walkers, disk.relabel.clone());
    Ok((output, stats))
}

/// Cuts the sorted vertex array into blocks of at most `budget`
/// adjacency bytes and returns their boundaries `[0, .., |V|]`.  A
/// vertex whose adjacency alone exceeds the budget gets a singleton
/// block: a small budget shortens the blocks, it never fails the run.
fn cut_blocks(disk: &DiskGraph, budget: usize) -> Vec<usize> {
    let n = disk.vertex_count();
    let mut bounds = vec![0];
    let mut start = 0usize;
    while start < n {
        let budget_edges = (budget / 4).max(disk.degree(start as VertexId));
        let lo = disk.offsets[start];
        let mut end = start + 1;
        while end < n && disk.offsets[end + 1] - lo <= budget_edges {
            end += 1;
        }
        bounds.push(end);
        start = end;
    }
    bounds
}

/// Reads vertex ranges of the on-disk adjacency array into two slots
/// through the fault-injection and retry layer: slot 0 holds the
/// streamed partition or a pair's row block, slot 1 the column block.
/// The byte scratch and the slots are sized for the largest block, so
/// reads allocate nothing after a slot's first, and a load into a slot
/// that already holds the range reads nothing.
struct BlockReader<'a> {
    disk: &'a DiskGraph,
    file: FaultyFile<File>,
    retry: RetryPolicy,
    /// Edges of the largest block.
    max_edges: usize,
    raw: Vec<u8>,
    /// The vertex range each slot holds (`None` until a read completes).
    held: [Option<(usize, usize)>; 2],
    bufs: [Vec<VertexId>; 2],
}

impl<'a> BlockReader<'a> {
    fn open(disk: &'a DiskGraph, bounds: &[usize], opts: &RunOptions) -> Result<Self, WalkError> {
        let file = File::open(&disk.path).map_err(|e| GraphError::io_at(&disk.path, None, e))?;
        let file = match opts.fault {
            Some(policy) => FaultyFile::with_policy(file, policy),
            None => FaultyFile::passthrough(file),
        };
        let edges = |b: &[usize]| disk.offsets[b[1]] - disk.offsets[b[0]];
        let max_edges = bounds.windows(2).map(edges).max().unwrap_or(0);
        Ok(Self {
            disk,
            file,
            retry: opts.retry,
            max_edges,
            raw: vec![0; max_edges * 4],
            held: [None; 2],
            bufs: [Vec::new(), Vec::new()],
        })
    }

    /// Makes `slot` hold the adjacency of the vertex `range`.  A read is
    /// attributed to telemetry partition `part` at `step`: an Io span
    /// and its bytes.  Transient read errors (injected or real) are
    /// retried with exponential backoff; permanent ones escalate typed.
    fn load(
        &mut self,
        slot: usize,
        range: (usize, usize),
        (step, part): (usize, usize),
        stats: &mut OocStats,
        tel: &mut Telemetry,
    ) -> Result<(), WalkError> {
        if self.held[slot] == Some(range) {
            return Ok(());
        }
        self.held[slot] = None;
        let io_span = tel.is_on().then(|| tel.now_ns());
        let t0 = Instant::now();
        let disk = self.disk;
        let lo = disk.offsets[range.0];
        let bytes = (disk.offsets[range.1] - lo) * 4;
        let off = disk.targets_base() + (lo as u64) * 4;
        let (file, raw) = (&mut self.file, &mut self.raw[..bytes]);
        with_retries(
            &self.retry,
            &mut stats.io_retries,
            |e: &GraphError| e.io_source().is_some_and(transient_io),
            || {
                file.seek(SeekFrom::Start(off))
                    .and_then(|_| file.read_exact(raw))
                    .map_err(|e| GraphError::io_at(&disk.path, Some(off), e))
            },
        )?;
        let buf = &mut self.bufs[slot];
        buf.clear();
        buf.reserve(self.max_edges);
        let decode = |c: &[u8]| VertexId::from_le_bytes([c[0], c[1], c[2], c[3]]);
        buf.extend(raw.chunks_exact(4).map(decode));
        self.held[slot] = Some(range);
        stats.read_time += t0.elapsed();
        stats.bytes_read += bytes as u64;
        stats.partitions_read += 1;
        if let Some(s) = io_span {
            tel.span_since(Stage::Io, s, step as u32, part as u32);
            tel.record_partition_bytes(part, bytes as u64);
        }
        Ok(())
    }

    /// `slot`'s adjacency array and the edge index of its first entry.
    fn block(&self, slot: usize) -> (&[VertexId], usize) {
        let base = self.held[slot].map_or(0, |(start, _)| self.disk.offsets[start]);
        (&self.bufs[slot], base)
    }
}

/// What both scheduling loops run on: the block reader, the counters
/// and the checkpoint path (sink, resume directory, and the fingerprints
/// that pin snapshots to this engine, configuration and graph).
struct OocRun<'a> {
    disk: &'a DiskGraph,
    config: &'a WalkConfig,
    reader: BlockReader<'a>,
    stats: OocStats,
    sink: Option<(&'a CheckpointSpec, CheckpointSink)>,
    resume_from: Option<&'a Path>,
    fingerprints: (u64, u64),
}

impl<'a> OocRun<'a> {
    fn new(
        disk: &'a DiskGraph,
        config: &'a WalkConfig,
        engine: EngineKind,
        bounds: &[usize],
        opts: &'a RunOptions,
    ) -> Result<Self, WalkError> {
        let sink = opts
            .checkpoint
            .as_ref()
            .filter(|ck| ck.every > 0)
            .map(|ck| (ck, CheckpointSink::from_spec(ck)));
        let resume_from = opts.resume_from.as_deref();
        let fingerprints = match sink.is_some() || resume_from.is_some() {
            true => (
                config_fingerprint(config, engine),
                graph_fingerprint(&disk.offsets),
            ),
            false => (0, 0),
        };
        Ok(Self {
            disk,
            config,
            reader: BlockReader::open(disk, bounds, opts)?,
            stats: OocStats::default(),
            sink,
            resume_from,
            fingerprints,
        })
    }

    /// The resume prologue, in one Recovery span: loads the newest
    /// snapshot, checks it against this run, restores the step count and
    /// hands the snapshot to the loop's `restore`.  `None` on a fresh run.
    fn resume<T>(
        &mut self,
        tel: &mut Telemetry,
        restore: impl FnOnce(WalkSnapshot) -> Result<T, WalkError>,
    ) -> Result<Option<T>, WalkError> {
        let Some(dir) = self.resume_from else {
            return Ok(None);
        };
        let span = tel.is_on().then(|| tel.now_ns());
        let (_generation, snap) = load_latest(dir)?;
        check_snapshot(&snap, self.config, self.fingerprints.0, self.fingerprints.1)?;
        self.stats.steps_taken = snap.steps_taken;
        let restored = restore(snap)?;
        if let Some(s) = span {
            tel.span_since(Stage::Recovery, s, NO_STEP, NO_PARTITION);
        }
        Ok(Some(restored))
    }

    /// Checkpoints after `done` iterations or pair slots: on the cadence,
    /// or at `completion` unless the cadence just wrote.  `fill` adds the
    /// loop's state to the shared snapshot fields.
    fn save(
        &mut self,
        done: u64,
        completion: bool,
        step: usize,
        tel: &mut Telemetry,
        fill: impl FnOnce(WalkSnapshot) -> WalkSnapshot,
    ) -> Result<(), WalkError> {
        let Some((spec, sink)) = self.sink.as_mut() else {
            return Ok(());
        };
        let every = spec.every as u64;
        if done.is_multiple_of(every) == completion {
            return Ok(());
        }
        let generation = done.div_ceil(every);
        let span = tel.is_on().then(|| tel.now_ns());
        let snap = fill(WalkSnapshot {
            seed: self.config.seed,
            iter_next: done,
            steps_total: self.config.max_steps() as u64,
            walkers: self.config.walkers as u64,
            steps_taken: self.stats.steps_taken,
            config_fingerprint: self.fingerprints.0,
            graph_fingerprint: self.fingerprints.1,
            ..WalkSnapshot::default()
        });
        let retries_before = sink.retries;
        sink.save(generation, &snap)?;
        self.stats.io_retries += sink.retries - retries_before;
        if let Some(s) = span {
            tel.span_since(Stage::Checkpoint, s, step as u32, NO_PARTITION);
        }
        if spec.halt_after == Some(generation) {
            return Err(WalkError::Halted { generation });
        }
        Ok(())
    }
}

/// The partition-streaming loop for first-order (DeepWalk) walks;
/// returns the iteration-major rows.
///
/// Each iteration shuffles walkers by partition in memory exactly as the
/// in-memory engine does, then streams the adjacency of each partition
/// *that currently hosts walkers* and direct-samples from it.  Because
/// walkers concentrate on the high-degree head (Table 2), cold
/// partitions are skipped and the realized read volume per iteration is
/// typically far below the file size — the sparse-access advantage the
/// shuffle buys.  Checkpoints land on iteration boundaries.
fn run_ooc_streaming(
    run: &mut OocRun<'_>,
    bounds: &[usize],
    start: Vec<VertexId>,
    tel: &mut Telemetry,
) -> Result<Vec<Vec<VertexId>>, WalkError> {
    let (disk, config) = (run.disk, run.config);
    let partitions: Vec<Partition> = bounds
        .windows(2)
        .map(|b| Partition {
            start: b[0] as VertexId,
            end: b[1] as VertexId,
            policy: SamplePolicy::Direct,
            group: 0,
            edges: disk.offsets[b[1]] - disk.offsets[b[0]],
            uniform_degree: None,
        })
        .collect();
    let parts = partitions.len();
    let map = PartitionMap::new(&partitions, disk.vertex_count());
    let shuffler = Shuffler::single_level(&map);

    let steps = config.max_steps();
    let walkers = config.walkers;
    let mut w = start;
    let mut w_next = vec![0 as VertexId; walkers];
    let mut sw = vec![0 as VertexId; walkers];
    let mut snext = vec![0 as VertexId; walkers];
    let mut scratch = ShuffleScratch::default();
    let mut rows = Vec::new();
    if config.record_paths {
        rows.push(w.clone());
    }
    let mut probe = NullProbe;

    let mut start_iter = 0usize;
    let resumed = run.resume(tel, |snap| match snap.ps.len() == parts {
        true => Ok(snap),
        false => Err(mismatch("snapshot partition layout does not fit this run")),
    })?;
    if let Some(snap) = resumed {
        w = snap.w;
        if config.record_paths {
            rows = snap.rows;
        }
        start_iter = snap.iter_next as usize;
    }

    for iter in start_iter..steps {
        let traced = tel.is_on();
        let span0 = traced.then(|| tel.now_ns());
        shuffler.count(&w, &mut scratch, ShuffleAddrs::default(), &mut probe);
        shuffler.scatter(
            &w,
            None,
            &mut sw,
            None,
            &mut scratch,
            ShuffleAddrs::default(),
            &mut probe,
        );
        if let Some(s) = span0 {
            tel.span_since(Stage::Shuffle, s, iter as u32, NO_PARTITION);
        }
        let dead_start = scratch.offsets[parts] as usize;
        snext[dead_start..].fill(DEAD);

        for pi in 0..parts {
            let (a, b) = (
                scratch.offsets[pi] as usize,
                scratch.offsets[pi + 1] as usize,
            );
            if a == b {
                run.stats.partitions_skipped += 1;
                continue;
            }
            let range = (bounds[pi], bounds[pi + 1]);
            run.reader.load(0, range, (iter, pi), &mut run.stats, tel)?;
            let (buf, base) = run.reader.block(0);

            let sample_span = traced.then(|| tel.now_ns());
            let mut rng =
                Xorshift64Star::new(crate::engine::partition_stream_id(config.seed, iter, pi));
            for j in a..b {
                let v = sw[j];
                let lo = disk.offsets[v as usize] - base;
                snext[j] = buf[lo + rng.gen_index(disk.degree(v))];
            }
            run.stats.steps_taken += (b - a) as u64;
            if let Some(s) = sample_span {
                tel.span_since(Stage::Sample, s, iter as u32, pi as u32);
                tel.record_partition_step(pi, (b - a) as u64, false);
            }
        }
        tel.tick(iter + 1, steps, run.stats.steps_taken);

        shuffler.gather(
            &w,
            &snext,
            &mut w_next,
            None,
            None,
            &mut scratch,
            ShuffleAddrs::default(),
            &mut probe,
        );
        std::mem::swap(&mut w, &mut w_next);
        if config.record_paths {
            rows.push(w.clone());
        }

        // Checkpoint at the epoch boundary: the walker array here is
        // exactly the input of iteration `iter + 1`.
        run.save((iter + 1) as u64, false, iter, tel, |base| WalkSnapshot {
            per_partition_steps: vec![0; parts],
            w: w.clone(),
            ps: vec![None; parts],
            rows: rows.clone(),
            ..base
        })?;
    }
    Ok(if config.record_paths { rows } else { vec![w] })
}

/// Flat triangular index of the block pair `(i, j)` with `i <= j`
/// among `blocks` blocks: row-major over the upper triangle.
fn pair_index(i: usize, j: usize, blocks: usize) -> usize {
    debug_assert!(i <= j && j < blocks);
    i * (2 * blocks - i + 1) / 2 + (j - i)
}

/// Checks a snapshot's bi-block scheduler state against this run.
fn check_biblock(
    snap: &WalkSnapshot,
    bb: &BiBlockState,
    config: &WalkConfig,
    nblocks: usize,
    n_pairs: usize,
) -> Result<(), WalkError> {
    let (walkers, steps) = (config.walkers, config.max_steps());
    if snap.prev.len() != walkers
        || bb.done.len() != walkers
        || bb.blocks as usize != nblocks
        || bb.buckets.len() != n_pairs
        || bb.cursor as usize >= n_pairs
        || bb.done.iter().any(|&d| d as usize > steps)
    {
        return Err(mismatch("snapshot shape does not fit this run"));
    }
    let paths_fit = if config.record_paths {
        bb.paths.len() == walkers
            && (bb.paths.iter().zip(&bb.done)).all(|(p, &d)| p.len() == d as usize + 1)
    } else {
        bb.paths.is_empty()
    };
    if !paths_fit {
        return Err(mismatch("snapshot path rows are inconsistent"));
    }
    // Every unfinished walker must be parked in exactly one bucket.
    let mut seen = vec![false; walkers];
    for &k in bb.buckets.iter().flatten() {
        let k = k as usize;
        if k >= walkers || seen[k] || bb.done[k] as usize >= steps {
            return Err(mismatch("snapshot boundary buckets are inconsistent"));
        }
        seen[k] = true;
    }
    if (seen.iter().zip(&bb.done)).any(|(&parked, &d)| !parked && (d as usize) < steps) {
        return Err(mismatch("snapshot boundary buckets are inconsistent"));
    }
    Ok(())
}

/// The bi-block snapshot: `base` plus the walker and scheduler state,
/// resuming at pair slot `cursor` of sweep `epoch`.
fn biblock_snapshot(
    base: WalkSnapshot,
    cur: &[VertexId],
    prev: &[VertexId],
    bb: &BiBlockState,
    (epoch, cursor): (usize, usize),
) -> WalkSnapshot {
    let (epoch, cursor) = (epoch as u64, cursor as u64);
    WalkSnapshot {
        w: cur.to_vec(),
        prev: prev.to_vec(),
        biblock: Some(BiBlockState {
            epoch,
            cursor,
            ..bb.clone()
        }),
        ..base
    }
}

/// GraSorw-style triangular bi-block scheduling for second-order
/// (node2vec) and origin-stateful (PPR) walks; returns the
/// iteration-major rows.
///
/// The blocks hold at most *half* the byte budget each, so a block
/// **pair** always fits in the configured buffer.  Each epoch sweeps
/// the upper triangle of block pairs `(i, j)`, `i <= j`; a walker is
/// *resident* while both its `prev` and `cur` adjacency lookups land in
/// the loaded pair, steps repeatedly while resident, and parks into the
/// boundary bucket of its next pair when a step crosses out.  PPR
/// walkers read only the current vertex's adjacency (the origin rides
/// in the `prev` lane and needs no lookup), so they live on the
/// diagonal and off-diagonal slots stay empty.  Row `i`'s block stays
/// in the reader across the row, so it is read once per row.
///
/// Determinism and crash safety: the RNG stream of a pair slot is
/// `partition_stream_id(seed, epoch, slot)`, restarted at each slot,
/// so resume at any slot boundary has no RNG carry-over; buckets are
/// drained and refilled in deterministic walker order; checkpoints
/// fire on a pair-slot cadence (`pairs_done % every`), which counts
/// empty slots too and is therefore data-independent within an epoch.
fn run_ooc_biblock(
    run: &mut OocRun<'_>,
    bounds: &[usize],
    start: Vec<VertexId>,
    tel: &mut Telemetry,
) -> Result<Vec<Vec<VertexId>>, WalkError> {
    let (disk, config) = (run.disk, run.config);
    let steps = config.max_steps();
    let walkers = config.walkers;
    let algo = config.algorithm;
    let is_ppr = matches!(algo, WalkAlgorithm::Ppr { .. });
    let ctx = AlgoCtx::new(algo, config.stop, None);

    let nblocks = bounds.len() - 1;
    let pairs: Vec<(usize, usize)> = (0..nblocks)
        .flat_map(|i| (i..nblocks).map(move |j| (i, j)))
        .collect();
    let n_pairs = pairs.len();
    let block_of = |v: VertexId| -> usize { bounds.partition_point(|&s| s <= v as usize) - 1 };
    // The pair slot a walker waits in for its next step.
    let pair_of = |cur: VertexId, prev: VertexId| -> usize {
        let bc = block_of(cur);
        if is_ppr || prev == DEAD {
            return pair_index(bc, bc, nblocks);
        }
        let bp = block_of(prev);
        pair_index(bp.min(bc), bp.max(bc), nblocks)
    };

    // `prev` carries the node2vec predecessor (DEAD before the first,
    // first-order step) or the PPR origin; `bb` the per-walker step
    // counts, the parked buckets and the walker-major paths.
    let resumed = run.resume(tel, |mut snap| {
        let bb = (snap.biblock.take())
            .ok_or_else(|| mismatch("snapshot carries no bi-block scheduler state"))?;
        check_biblock(&snap, &bb, config, nblocks, n_pairs)?;
        Ok((snap.w, snap.prev, bb, snap.iter_next))
    })?;
    let (mut cur, mut prev, mut bb, mut pairs_done) = match resumed {
        Some(state) => state,
        None => {
            // Fresh start: park every walker in its home bucket.
            let prev = if is_ppr {
                start.clone()
            } else {
                vec![DEAD; walkers]
            };
            let parked = if steps == 0 { 0 } else { walkers };
            let mut buckets = vec![Vec::new(); n_pairs];
            for k in 0..parked {
                buckets[pair_of(start[k], prev[k])].push(k as u32);
            }
            (run.stats.walkers_parked, run.stats.peak_parked) = (parked as u64, parked as u64);
            let paths = match config.record_paths {
                true => start.iter().map(|&v| vec![v]).collect(),
                false => Vec::new(),
            };
            let bb = BiBlockState {
                blocks: nblocks as u64,
                done: vec![0; walkers],
                buckets,
                paths,
                ..BiBlockState::default()
            };
            (start, prev, bb, 0)
        }
    };
    let mut remaining = bb.done.iter().filter(|&&d| (d as usize) < steps).count();
    let mut parked = bb.buckets.iter().map(Vec::len).sum::<usize>() as u64;
    let (mut epoch, mut first_slot) = (bb.epoch as usize, bb.cursor as usize);

    'sweep: while remaining > 0 {
        // Every unfinished walker's own pair is visited once per sweep
        // and steps it at least once, so epochs are bounded by steps.
        assert!(
            epoch <= steps,
            "bi-block sweep failed to converge: epoch {epoch} of a {steps}-step walk"
        );
        for (s, &(i, j)) in pairs.iter().enumerate().skip(first_slot) {
            let bucket = std::mem::take(&mut bb.buckets[s]);
            if bucket.is_empty() {
                run.stats.pairs_skipped += 1;
                run.stats.partitions_skipped += 1;
            } else {
                parked -= bucket.len() as u64;
                run.stats.pairs_scheduled += 1;
                let reader = &mut run.reader;
                let (row, col) = ((bounds[i], bounds[i + 1]), (bounds[j], bounds[j + 1]));
                reader.load(0, row, (epoch, i), &mut run.stats, tel)?;
                if j != i {
                    reader.load(1, col, (epoch, j), &mut run.stats, tel)?;
                }
                let ((buf_i, base_i), (buf_j, base_j)) = (reader.block(0), reader.block(1));
                // A resident vertex's adjacency within the loaded pair.
                let adj = |v: VertexId| -> &[VertexId] {
                    let (buf, base) = match block_of(v) == i {
                        true => (buf_i, base_i),
                        false => (buf_j, base_j),
                    };
                    let lo = disk.offsets[v as usize] - base;
                    &buf[lo..lo + disk.degree(v)]
                };
                let sample_span = tel.is_on().then(|| tel.now_ns());
                let stream = crate::engine::partition_stream_id(config.seed, epoch, s);
                let mut rng = Xorshift64Star::new(stream);
                let mut slot_steps = 0u64;
                for &kw in &bucket {
                    let k = kw as usize;
                    // Step while the walker's lookups stay resident.
                    loop {
                        let (v, t) = (cur[k], prev[k]);
                        let vadj = adj(v);
                        let d = vadj.len();
                        let next = match algo {
                            // Restart coin first, flipped in the guard: a
                            // teleport reads no edge, as in the PPR oracle.
                            WalkAlgorithm::Ppr { alpha } if rng.next_f64() < alpha => t,
                            // The in-memory samplers' rejection loop.
                            WalkAlgorithm::Node2Vec { p, q } if t != DEAD => {
                                let tadj = adj(t);
                                let propose = |rng: &mut Xorshift64Star, _: &mut NullProbe| {
                                    vadj[rng.gen_index(d)]
                                };
                                let weight = |cand, _: &mut NullProbe| match cand {
                                    c if c == t => 1.0 / p,
                                    c if tadj.contains(&c) => 1.0,
                                    _ => 1.0 / q,
                                };
                                node2vec_reject(&ctx, &mut rng, &mut NullProbe, propose, weight)
                            }
                            // A PPR edge, or a node2vec walker's first step:
                            // uniform, as the oracle's edge-chain start.
                            _ => vadj[rng.gen_index(d)],
                        };
                        if !is_ppr {
                            prev[k] = v;
                        }
                        cur[k] = next;
                        bb.done[k] += 1;
                        slot_steps += 1;
                        if config.record_paths {
                            bb.paths[k].push(next);
                        }
                        if bb.done[k] as usize >= steps {
                            remaining -= 1;
                            break;
                        }
                        let bc = block_of(next);
                        let resident = (bc == i || bc == j)
                            && (is_ppr || {
                                let bp = block_of(prev[k]);
                                bp == i || bp == j
                            });
                        if !resident {
                            bb.buckets[pair_of(next, prev[k])].push(kw);
                            parked += 1;
                            run.stats.walkers_parked += 1;
                            run.stats.peak_parked = run.stats.peak_parked.max(parked);
                            break;
                        }
                    }
                }
                run.stats.steps_taken += slot_steps;
                if let Some(sp) = sample_span {
                    tel.span_since(Stage::Sample, sp, epoch as u32, i as u32);
                    tel.record_partition_step(i, slot_steps, false);
                }
            }

            // Pair-slot cadence checkpointing: `pairs_done` counts empty
            // slots too, so kill generations are deterministic and
            // data-independent within an epoch.
            pairs_done += 1;
            let resume_at = match s + 1 == n_pairs {
                true => (epoch + 1, 0),
                false => (epoch, s + 1),
            };
            run.save(pairs_done, false, epoch, tel, |base| {
                biblock_snapshot(base, &cur, &prev, &bb, resume_at)
            })?;
            if remaining == 0 {
                break 'sweep;
            }
        }
        first_slot = 0;
        epoch += 1;
        tel.tick(epoch, steps, run.stats.steps_taken);
    }

    // Unconditional completion checkpoint: a kill *after* the last work
    // slot must still resume cleanly (the resume-after-complete case),
    // so the final generation is written whenever the cadence did not
    // land exactly on the last processed slot.
    run.save(pairs_done, true, epoch, tel, |base| {
        biblock_snapshot(base, &cur, &prev, &bb, (epoch, 0))
    })?;
    run.stats.blocks_streamed = run.stats.partitions_read;
    if !config.record_paths {
        return Ok(vec![cur]);
    }
    // Transpose walker-major paths into the iteration-major rows
    // WalkOutput expects; node2vec and PPR walkers never die early, so
    // every path has exactly `steps + 1` entries.
    let mut rows = vec![vec![0 as VertexId; walkers]; steps + 1];
    for (k, path) in bb.paths.iter().enumerate() {
        debug_assert_eq!(path.len(), steps + 1);
        for (t, &v) in path.iter().enumerate() {
            rows[t][k] = v;
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fm_graph::synth;
    use fm_recover::{CheckpointSpec, RecoverError};

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("fm_oocore_tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    #[test]
    fn create_open_round_trip() {
        let g = synth::power_law(500, 2.0, 1, 50, 3);
        let path = temp_path("roundtrip.fmdisk");
        let created = DiskGraph::create(&g, &path).unwrap();
        let opened = DiskGraph::open(&path).unwrap();
        assert_eq!(created.vertex_count(), opened.vertex_count());
        assert_eq!(created.edge_count(), opened.edge_count());
        assert_eq!(created.offsets, opened.offsets);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn ooc_walk_stays_on_edges() {
        let g = synth::power_law(400, 2.0, 1, 40, 5);
        let path = temp_path("edges.fmdisk");
        let disk = DiskGraph::create(&g, &path).unwrap();
        let cfg = WalkConfig::deepwalk().walkers(200).steps(6).seed(9);
        let (out, stats) = run_ooc(&disk, &cfg, 8 << 10).unwrap();
        assert_eq!(stats.steps_taken, 200 * 6);
        for path in out.paths() {
            for hop in path.windows(2) {
                assert!(g.neighbors(hop[0]).contains(&hop[1]));
            }
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn ooc_matches_in_memory_distribution() {
        let g = synth::power_law(600, 1.9, 1, 80, 7);
        let path = temp_path("dist.fmdisk");
        let disk = DiskGraph::create(&g, &path).unwrap();
        let cfg = WalkConfig::deepwalk().walkers(20_000).steps(10).seed(3);
        let (out, _) = run_ooc(&disk, &cfg, 16 << 10).unwrap();
        let ooc_visits = out.visit_counts(g.vertex_count());

        let engine = crate::FlashMob::new(&g, cfg.clone().record_visits(true)).unwrap();
        let (_, mem_stats) = engine.run_with_stats().unwrap();
        let mem_visits = mem_stats.visits_original(engine.relabeling()).unwrap();

        let (ta, tb) = (
            ooc_visits.iter().sum::<u64>() as f64,
            mem_visits.iter().sum::<u64>() as f64,
        );
        let l1: f64 = ooc_visits
            .iter()
            .zip(&mem_visits)
            .map(|(&a, &b)| (a as f64 / ta - b as f64 / tb).abs())
            .sum();
        assert!(l1 < 0.08, "visit distributions diverge: L1 = {l1:.4}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn cold_partitions_are_skipped() {
        // All walkers pinned on the hub: tail partitions never read.
        let g = synth::star(10_000);
        let path = temp_path("skip.fmdisk");
        let disk = DiskGraph::create(&g, &path).unwrap();
        let cfg = WalkConfig::deepwalk()
            .walkers(64)
            .steps(2)
            .seed(1)
            .init(WalkerInit::Fixed(vec![0]));
        let (_, stats) = run_ooc(&disk, &cfg, 512).unwrap();
        assert!(
            stats.partitions_skipped > stats.partitions_read,
            "read {} skipped {}",
            stats.partitions_read,
            stats.partitions_skipped
        );
        // Read volume far below 2 full passes over the file.
        assert!(stats.bytes_read < 2 * disk.edge_count() as u64 * 4);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn ooc_is_deterministic() {
        let g = synth::power_law(300, 2.0, 1, 30, 11);
        let path = temp_path("det.fmdisk");
        let disk = DiskGraph::create(&g, &path).unwrap();
        let cfg = WalkConfig::deepwalk().walkers(100).steps(5).seed(21);
        let (a, _) = run_ooc(&disk, &cfg, 8 << 10).unwrap();
        let (b, _) = run_ooc(&disk, &cfg, 8 << 10).unwrap();
        assert_eq!(a.paths(), b.paths());
        std::fs::remove_file(path).ok();
    }

    #[cfg(not(feature = "telemetry-off"))]
    #[test]
    fn traced_ooc_records_io_spans_and_exact_counters() {
        let g = synth::power_law(400, 2.0, 1, 40, 5);
        let path = temp_path("traced.fmdisk");
        let disk = DiskGraph::create(&g, &path).unwrap();
        let cfg = WalkConfig::deepwalk().walkers(200).steps(6).seed(9);
        let mut tel = Telemetry::new();
        let (out, stats) =
            run_ooc_with(&disk, &cfg, 8 << 10, &RunOptions::default(), &mut tel).unwrap();
        assert_eq!(tel.partition_steps_total(), stats.steps_taken);
        // One Io span per performed partition read, none for skips.
        assert_eq!(tel.stage(Stage::Io).spans, stats.partitions_read);
        // Counters include the streamed adjacency bytes.
        let counted: u64 = tel.partition_counters().iter().map(|c| c.edge_bytes).sum();
        assert!(counted >= stats.bytes_read);
        // Tracing must not perturb the chain.
        let (plain, _) = run_ooc(&disk, &cfg, 8 << 10).unwrap();
        assert_eq!(plain.paths(), out.paths());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn unsupported_algorithms_rejected() {
        let g = synth::cycle(16);
        let path = temp_path("reject.fmdisk");
        let disk = DiskGraph::create(&g, &path).unwrap();
        let mut cfg = WalkConfig::deepwalk().walkers(10).steps(2);
        cfg.algorithm = crate::WalkAlgorithm::Weighted;
        assert!(matches!(
            run_ooc(&disk, &cfg, 4 << 10),
            Err(WalkError::Planning(_))
        ));
        cfg.algorithm = crate::WalkAlgorithm::EarlyExit;
        assert!(matches!(
            run_ooc(&disk, &cfg, 4 << 10),
            Err(WalkError::Planning(_))
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn biblock_node2vec_stays_on_edges() {
        let g = synth::power_law(400, 2.0, 1, 40, 5);
        let path = temp_path("bb_edges.fmdisk");
        let disk = DiskGraph::create(&g, &path).unwrap();
        let cfg = WalkConfig::node2vec(0.25, 4.0).walkers(150).steps(6).seed(9);
        let (out, stats) = run_ooc(&disk, &cfg, 4 << 10).unwrap();
        assert_eq!(stats.steps_taken, 150 * 6);
        assert!(stats.blocks_streamed > 0);
        assert!(stats.pairs_scheduled > 0);
        assert!(stats.peak_parked >= 150);
        let rows = out.paths();
        assert_eq!(rows.len(), 150);
        for p in rows {
            assert_eq!(p.len(), 7);
            for hop in p.windows(2) {
                assert!(g.neighbors(hop[0]).contains(&hop[1]));
            }
        }
        std::fs::remove_file(path).ok();
    }

    #[cfg(not(feature = "telemetry-off"))]
    #[test]
    fn biblock_reads_a_row_block_once_per_row_visit() {
        let g = synth::power_law(400, 2.0, 1, 40, 5);
        let path = temp_path("bb_rows.fmdisk");
        let disk = DiskGraph::create(&g, &path).unwrap();
        let cfg = WalkConfig::node2vec(0.5, 2.0).walkers(300).steps(6).seed(7);
        let mut tel = Telemetry::new();
        let (_, stats) =
            run_ooc_with(&disk, &cfg, 4 << 10, &RunOptions::default(), &mut tel).unwrap();
        std::fs::remove_file(path).ok();
        assert!(
            tel.partition_counters().len() >= 3,
            "the budget must cut >= 3 blocks"
        );
        assert_eq!(tel.stage(Stage::Io).spans, stats.blocks_streamed);
        // The trace of a scheduled pair (i, j) is its Io spans followed by
        // one Sample span tagged (epoch, i); a row visit is a run of
        // Sample spans with the same tag.
        let (mut row, mut row_reads, mut row_pairs, mut widest) = (None, 0, 0, 0);
        let mut reads = Vec::new();
        for e in tel.events() {
            match e.stage {
                Stage::Io => reads.push(e.partition),
                Stage::Sample => {
                    if row != Some((e.step, e.partition)) {
                        row = Some((e.step, e.partition));
                        (row_reads, row_pairs) = (0, 0);
                    }
                    row_pairs += 1;
                    widest = widest.max(row_pairs);
                    row_reads += reads.iter().filter(|&&b| b == e.partition).count();
                    reads.clear();
                    assert!(
                        row_reads <= 1,
                        "row block {} read {row_reads} times in one visit of epoch {}",
                        e.partition,
                        e.step
                    );
                }
                _ => {}
            }
        }
        assert!(widest >= 2, "no row visit scheduled two pairs");
    }

    #[test]
    fn biblock_is_deterministic_across_budgets_only_within_budget() {
        // Same budget → bit-identical; the chain is a deterministic
        // function of (config, budget), which the config tag captures.
        let g = synth::power_law(300, 2.0, 1, 30, 11);
        let path = temp_path("bb_det.fmdisk");
        let disk = DiskGraph::create(&g, &path).unwrap();
        let cfg = WalkConfig::node2vec(0.5, 2.0).walkers(80).steps(5).seed(21);
        let (a, _) = run_ooc(&disk, &cfg, 4 << 10).unwrap();
        let (b, _) = run_ooc(&disk, &cfg, 4 << 10).unwrap();
        assert_eq!(a.paths(), b.paths());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn biblock_ppr_hops_are_edges_or_origin() {
        let g = synth::power_law(300, 2.0, 2, 30, 17);
        let path = temp_path("bb_ppr.fmdisk");
        let disk = DiskGraph::create(&g, &path).unwrap();
        let mut cfg = WalkConfig::deepwalk().walkers(120).steps(8).seed(4);
        cfg.algorithm = crate::WalkAlgorithm::Ppr { alpha: 0.2 };
        let (out, stats) = run_ooc(&disk, &cfg, 4 << 10).unwrap();
        assert_eq!(stats.steps_taken, 120 * 8);
        let mut teleports = 0u64;
        for p in out.paths() {
            let origin = p[0];
            for hop in p.windows(2) {
                let edge = g.neighbors(hop[0]).contains(&hop[1]);
                assert!(edge || hop[1] == origin, "hop neither edge nor restart");
                if !edge {
                    teleports += 1;
                }
            }
        }
        assert!(teleports > 0, "alpha=0.2 over 960 steps must teleport");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn biblock_tiny_budget_falls_back_to_singleton_blocks() {
        // A budget below any vertex's adjacency degrades to one-vertex
        // blocks instead of overrunning or erroring.
        let g = synth::power_law(120, 2.0, 1, 30, 3);
        let path = temp_path("bb_tiny.fmdisk");
        let disk = DiskGraph::create(&g, &path).unwrap();
        let cfg = WalkConfig::node2vec(0.25, 4.0).walkers(40).steps(4).seed(2);
        let (tiny, stats) = run_ooc(&disk, &cfg, 2).unwrap();
        assert_eq!(stats.steps_taken, 40 * 4);
        for p in tiny.paths() {
            for hop in p.windows(2) {
                assert!(g.neighbors(hop[0]).contains(&hop[1]));
            }
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn open_rejects_corruption_with_typed_errors() {
        let g = synth::power_law(200, 2.0, 1, 20, 9);
        let path = temp_path("corrupt.fmdisk");
        DiskGraph::create(&g, &path).unwrap();
        let pristine = std::fs::read(&path).unwrap();

        // Bad magic.
        let mut bytes = pristine.clone();
        bytes[..8].copy_from_slice(b"NOTADISK");
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            DiskGraph::open(&path),
            Err(GraphError::Format(_))
        ));

        // Short targets array (torn write / truncation).
        std::fs::write(&path, &pristine[..pristine.len() - 5]).unwrap();
        assert!(matches!(
            DiskGraph::open(&path),
            Err(GraphError::Format(_))
        ));

        // Sub-header file.
        std::fs::write(&path, &pristine[..10]).unwrap();
        assert!(matches!(
            DiskGraph::open(&path),
            Err(GraphError::Format(_))
        ));

        // Vertex count claiming more than the address space: must fail
        // cleanly, not attempt a wild allocation.
        let mut bytes = pristine.clone();
        bytes[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            DiskGraph::open(&path),
            Err(GraphError::Format(_))
        ));

        // Non-monotone offsets index.
        let mut bytes = pristine.clone();
        bytes[32..40].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            DiskGraph::open(&path),
            Err(GraphError::Format(_))
        ));

        // The pristine bytes still open.
        std::fs::write(&path, &pristine).unwrap();
        assert!(DiskGraph::open(&path).is_ok());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn biblock_checkpoint_resume_is_bit_exact() {
        let g = synth::power_law(250, 2.0, 1, 25, 7);
        let gpath = temp_path("bb_ck.fmdisk");
        let disk = DiskGraph::create(&g, &gpath).unwrap();
        let cfg = WalkConfig::node2vec(0.25, 4.0).walkers(60).steps(5).seed(13);
        let budget = 2 << 10;

        let (reference, _) = run_ooc(&disk, &cfg, budget).unwrap();

        let ckdir = temp_path("bb_ck_dir");
        std::fs::remove_dir_all(&ckdir).ok();
        let halt = RunOptions {
            checkpoint: Some(CheckpointSpec {
                halt_after: Some(2),
                ..CheckpointSpec::new(&ckdir, 3)
            }),
            ..RunOptions::default()
        };
        let mut tel = Telemetry::off();
        let err = run_ooc_with(&disk, &cfg, budget, &halt, &mut tel).unwrap_err();
        assert!(matches!(err, WalkError::Halted { generation: 2 }));

        let resume = RunOptions {
            resume_from: Some(ckdir.clone()),
            ..RunOptions::default()
        };
        let (resumed, _) = run_ooc_with(&disk, &cfg, budget, &resume, &mut tel).unwrap();
        assert_eq!(reference.paths(), resumed.paths());

        // Wrong budget → different config tag → typed mismatch.
        let err = run_ooc_with(&disk, &cfg, budget * 2, &resume, &mut tel).unwrap_err();
        assert!(matches!(
            err,
            WalkError::Recover(RecoverError::Mismatch { .. })
        ));
        std::fs::remove_dir_all(&ckdir).ok();
        std::fs::remove_file(gpath).ok();
    }
}
