//! `fmprobe`: the compiled half of the end-to-end walk benchmark.
//!
//! The benchmark (`perfbench/run.py`) runs every timed job as a
//! fresh `fmwalk walk` process.  This binary does the things that
//! need the library rather than the CLI:
//!
//! * `setup` times the public calls into each layer
//!   (`load_graph`, `sort_by_degree`, `Planner::plan`, `FlashMob::new`,
//!   `walker::initialize`, `DiskGraph::open`) from outside the program;
//! * `run` walks once in-process and reports the counters `RunStats`,
//!   `OocStats` and `Plan` already return, plus the time of
//!   `WalkOutput::paths`;
//! * `check-paths` and `check-visits` validate a job's output files.
//!
//! Every subcommand prints exactly one JSON object on stdout.

use std::hint::black_box;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use flashmob::oocore::{run_ooc_with, DiskGraph, OocOptions};
use flashmob::walker::initialize;
use flashmob::{FlashMob, Planner, SamplePolicy, WalkAlgorithm, WalkConfig};
use fm_graph::relabel::sort_by_degree;
use fm_graph::{Csr, VertexId};
use fm_telemetry::{Stage, Telemetry};

const USAGE: &str = "\
usage:
  fmprobe setup <graph> --walkers N --steps N --seed N --threads N [--node2vec P Q] [--paths]
                [--layers]
  fmprobe run <graph> --walkers N --steps N --seed N --threads N [--node2vec P Q] [--paths]
              [--oocore-budget BYTES]
  fmprobe check-paths <graph> <paths.txt> --walkers N --steps N --sample K --seed N
  fmprobe check-visits <graph> <visits.txt> --total N";

/// The walk a job runs, mirroring the `fmwalk walk` flags it was given.
struct Job {
    walkers: usize,
    steps: usize,
    seed: u64,
    threads: usize,
    node2vec: Option<(f64, f64)>,
    paths: bool,
}

impl Job {
    /// The configuration `fmwalk walk` builds for the same flags.
    fn config(&self) -> WalkConfig {
        let mut cfg = WalkConfig::deepwalk()
            .walkers(self.walkers)
            .steps(self.steps)
            .seed(self.seed)
            .threads(self.threads)
            .record_paths(self.paths)
            .record_visits(!self.paths);
        if let Some((p, q)) = self.node2vec {
            cfg.algorithm = WalkAlgorithm::Node2Vec { p, q };
        }
        cfg
    }
}

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Vec<String>)>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            let a = &raw[i];
            let arity = match a.as_str() {
                "--paths" | "--layers" => 0,
                "--node2vec" => 2,
                s if s.starts_with("--") => 1,
                _ => {
                    positional.push(a.clone());
                    i += 1;
                    continue;
                }
            };
            let values = raw
                .get(i + 1..i + 1 + arity)
                .ok_or_else(|| format!("{a} needs {arity} value(s)"))?;
            flags.push((a.clone(), values.to_vec()));
            i += 1 + arity;
        }
        Ok(Self { positional, flags })
    }

    fn get(&self, name: &str) -> Option<&[String]> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_slice())
    }

    fn num<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let v = self.get(name).ok_or_else(|| format!("missing {name}"))?;
        v[0].parse()
            .map_err(|_| format!("bad value for {name}: {}", v[0]))
    }

    fn path(&self, i: usize) -> Result<&Path, String> {
        self.positional
            .get(i)
            .map(Path::new)
            .ok_or_else(|| "missing file argument".to_string())
    }

    fn job(&self) -> Result<Job, String> {
        let node2vec = match self.get("--node2vec") {
            Some(v) => Some((
                v[0].parse().map_err(|_| "bad --node2vec p")?,
                v[1].parse().map_err(|_| "bad --node2vec q")?,
            )),
            None => None,
        };
        Ok(Job {
            walkers: self.num("--walkers")?,
            steps: self.num("--steps")?,
            seed: self.num("--seed")?,
            threads: self.num("--threads")?,
            node2vec,
            paths: self.get("--paths").is_some(),
        })
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn is_disk_graph(path: &Path) -> bool {
    let mut head = [0u8; 8];
    std::fs::File::open(path)
        .and_then(|mut f| std::io::Read::read_exact(&mut f, &mut head))
        .map(|()| &head == b"FMDISK1\0")
        .unwrap_or(false)
}

fn load(path: &Path) -> Result<Csr, String> {
    fm_cli::commands::load_graph(path).map_err(|e| e.to_string())
}

/// One set-up as a job pays it: `load_graph` then `FlashMob::new`.
/// With `--layers`, relabel and plan (which `FlashMob::new` runs
/// inside) and walker init are also timed on their own.
fn setup(a: &Args) -> Result<String, String> {
    let path = a.path(0)?;
    let job = a.job()?;
    let file_bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
    if is_disk_graph(path) {
        let t = Instant::now();
        let disk = DiskGraph::open(path).map_err(|e| e.to_string())?;
        let open_s = secs(t);
        return Ok(format!(
            "{{\"kind\": \"disk\", \"open_s\": {open_s}, \"file_bytes\": {file_bytes}, \
             \"vertices\": {}, \"edges\": {}}}",
            disk.vertex_count(),
            disk.edge_count()
        ));
    }
    let cfg = job.config();

    let t = Instant::now();
    let g = load(path)?;
    let load_s = secs(t);

    let t = Instant::now();
    let engine = FlashMob::new(&g, cfg.clone()).map_err(|e| e.to_string())?;
    let new_s = secs(t);
    let head = format!(
        "{{\"kind\": \"mem\", \"load_s\": {load_s}, \"new_s\": {new_s}, \
         \"file_bytes\": {file_bytes}, \"csr_bytes\": {}, \"vertices\": {}, \"edges\": {}",
        g.footprint_bytes(),
        g.vertex_count(),
        g.edge_count(),
    );
    if a.get("--layers").is_none() {
        return Ok(head + "}");
    }

    let t = Instant::now();
    let (sorted, _) = sort_by_degree(&g);
    let relabel_s = secs(t);

    let model = Planner::analytic_model(&cfg.planner);
    let t = Instant::now();
    let plan = Planner::plan(&sorted, cfg.walkers, &cfg.planner, cfg.strategy, &model)
        .map_err(|e| e.to_string())?;
    let plan_s = secs(t);
    drop(sorted);

    let t = Instant::now();
    black_box(initialize(
        engine.sorted_graph(),
        &cfg.init,
        cfg.walkers,
        cfg.seed,
    ));
    let init_s = secs(t);

    let ps_edges: usize = plan
        .partitions
        .iter()
        .filter(|p| p.policy == SamplePolicy::PreSample)
        .map(|p| p.edges)
        .sum();
    let ps_edge_share = ps_edges as f64 / g.edge_count().max(1) as f64;
    Ok(format!(
        "{head}, \"relabel_s\": {relabel_s}, \"plan_s\": {plan_s}, \"init_s\": {init_s}, \
         \"partitions\": {}, \"ps_edge_share\": {ps_edge_share}, \"predicted_sample_ns\": {}}}",
        plan.partitions.len(),
        plan.predicted_sample_ns
    ))
}

/// One in-process walk of the job's configuration: the counters
/// `RunStats` / `OocStats` return, plus the time of
/// `WalkOutput::paths`, the transpose the CLI's path writer runs before
/// formatting.
fn run(a: &Args) -> Result<String, String> {
    let path = a.path(0)?;
    let job = a.job()?;
    let mut cfg = job.config();
    if is_disk_graph(path) {
        let budget: usize = a.num("--oocore-budget")?;
        let disk = DiskGraph::open(path).map_err(|e| e.to_string())?;
        // The CLI records paths for every disk-graph run it reports on.
        cfg = cfg.record_paths(true).record_visits(false);
        // OocStats has no stage split, so the sample and shuffle spans
        // (single-threaded, hence wall-clock) come from the telemetry.
        let mut tel = Telemetry::new();
        let (_, s) = run_ooc_with(&disk, &cfg, budget, &OocOptions::default(), &mut tel)
            .map_err(|e| e.to_string())?;
        let stage_s = |st: Stage| tel.stage(st).total_ns as f64 * 1e-9;
        return Ok(format!(
            "{{\"kind\": \"disk\", \"wall_s\": {}, \"sample_s\": {}, \
             \"shuffle_s\": {}, \"bytes_read\": {}, \
             \"read_s\": {}, \"partitions_read\": {}, \"partitions_skipped\": {}, \
             \"io_retries\": {}, \"blocks_streamed\": {}, \"pairs_scheduled\": {}, \
             \"pairs_skipped\": {}, \"walkers_parked\": {}, \"peak_parked\": {}}}",
            s.wall.as_secs_f64(),
            stage_s(Stage::Sample),
            stage_s(Stage::Shuffle),
            s.bytes_read,
            s.read_time.as_secs_f64(),
            s.partitions_read,
            s.partitions_skipped,
            s.io_retries,
            s.blocks_streamed,
            s.pairs_scheduled,
            s.pairs_skipped,
            s.walkers_parked,
            s.peak_parked
        ));
    }
    let g = load(path)?;
    let engine = FlashMob::new(&g, cfg).map_err(|e| e.to_string())?;
    let (out, s) = engine.run_with_stats().map_err(|e| e.to_string())?;
    let t = Instant::now();
    black_box(out.paths());
    let paths_s = secs(t);
    let ps_steps: u64 = engine
        .plan()
        .partitions
        .iter()
        .zip(&s.per_partition_steps)
        .filter(|(p, _)| p.policy == SamplePolicy::PreSample)
        .map(|(_, &n)| n)
        .sum();
    Ok(format!(
        "{{\"kind\": \"mem\", \"wall_s\": {}, \"sample_s\": {}, \"shuffle_s\": {}, \
         \"ps_steps\": {ps_steps}, \"prefetches\": {}, \"pool_epochs\": {}, \
         \"pool_idle_ratio\": {}, \"paths_s\": {paths_s}}}",
        s.wall.as_secs_f64(),
        s.stages.sample.as_secs_f64(),
        s.stages.shuffle.as_secs_f64(),
        s.per_partition_prefetches.iter().sum::<u64>(),
        s.pool.epochs,
        s.pool_idle_ratio()
    ))
}

fn check_result(ok: Result<String, String>) -> String {
    match ok {
        Ok(detail) => format!("{{\"ok\": true, {detail}}}"),
        Err(e) => format!("{{\"ok\": false, \"error\": \"{}\"}}", e.replace('"', "'")),
    }
}

/// Every line is one walker's path of `steps + 1` in-range vertex IDs,
/// and every consecutive pair on the sampled lines -- every `--sample`th
/// line, starting at a `--seed`-chosen offset -- is an edge of the input
/// graph.
fn check_paths(a: &Args) -> Result<String, String> {
    let mut g = load(a.path(0)?)?;
    g.sort_adjacency_lists();
    let text = std::fs::read_to_string(a.path(1)?).map_err(|e| e.to_string())?;
    let walkers: usize = a.num("--walkers")?;
    let steps: usize = a.num("--steps")?;
    let sample: usize = a.num::<usize>("--sample")?.max(1);
    let offset = a.num::<usize>("--seed")? % sample;
    let n = g.vertex_count();
    let result = (|| {
        let mut lines = 0usize;
        let mut hops = 0u64;
        let mut path: Vec<VertexId> = Vec::with_capacity(steps + 1);
        for (i, line) in text.lines().enumerate() {
            path.clear();
            for tok in line.split_ascii_whitespace() {
                let v: VertexId = tok
                    .parse()
                    .map_err(|_| format!("line {}: bad vertex id {tok:?}", i + 1))?;
                if v as usize >= n {
                    return Err(format!("line {}: vertex {v} out of range", i + 1));
                }
                path.push(v);
            }
            if path.len() != steps + 1 {
                return Err(format!(
                    "line {}: {} vertices, expected {}",
                    i + 1,
                    path.len(),
                    steps + 1
                ));
            }
            if i % sample == offset {
                for w in path.windows(2) {
                    if g.neighbors(w[0]).binary_search(&w[1]).is_err() {
                        return Err(format!(
                            "line {}: {} -> {} is not an edge",
                            i + 1,
                            w[0],
                            w[1]
                        ));
                    }
                }
                hops += steps as u64;
            }
            lines += 1;
        }
        if lines != walkers {
            return Err(format!("{lines} paths, expected {walkers}"));
        }
        Ok(format!("\"lines\": {lines}, \"hops_checked\": {hops}"))
    })();
    Ok(check_result(result))
}

/// One `vertex count` line per vertex, in vertex order, with counts
/// summing to the walker-steps the job reported.
fn check_visits(a: &Args) -> Result<String, String> {
    let graph = a.path(0)?;
    let n = if is_disk_graph(graph) {
        DiskGraph::open(graph)
            .map_err(|e| e.to_string())?
            .vertex_count()
    } else {
        load(graph)?.vertex_count()
    };
    let text = std::fs::read_to_string(a.path(1)?).map_err(|e| e.to_string())?;
    let total: u64 = a.num("--total")?;
    let result = (|| {
        let mut lines = 0usize;
        let mut sum = 0u64;
        for (i, line) in text.lines().enumerate() {
            let mut it = line.split_ascii_whitespace();
            let (Some(v), Some(c), None) = (it.next(), it.next(), it.next()) else {
                return Err(format!("line {}: expected `vertex count`", i + 1));
            };
            if v.parse::<usize>() != Ok(i) {
                return Err(format!("line {}: vertex {v:?}, expected {i}", i + 1));
            }
            sum += c
                .parse::<u64>()
                .map_err(|_| format!("line {}: bad count {c:?}", i + 1))?;
            lines += 1;
        }
        if lines != n {
            return Err(format!("{lines} lines, expected {n}"));
        }
        if sum != total {
            return Err(format!("counts sum to {sum}, expected {total}"));
        }
        Ok(format!("\"lines\": {lines}, \"sum\": {sum}"))
    })();
    Ok(check_result(result))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(64);
    };
    let result = Args::parse(rest).and_then(|a| match cmd.as_str() {
        "setup" => setup(&a),
        "run" => run(&a),
        "check-paths" => check_paths(&a),
        "check-visits" => check_visits(&a),
        _ => Err(format!("unknown subcommand {cmd}\n{USAGE}")),
    });
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fmprobe: {e}");
            ExitCode::FAILURE
        }
    }
}
