//! `trainbench`: the training benchmark of this repository.
//!
//! One command trains the real runtime through its public API on one of
//! three workloads and prints, as the last line of standard output, one
//! JSON object with the correctness verdict, the attempted and failed
//! iteration counts, and the metrics:
//!
//! * timed mode (`--trace 0`): the end-to-end metrics ([`E2E`]), each the
//!   median over repeated runs, every run in a fresh child process;
//! * layer mode (`--trace 1`): the per-layer metrics ([`LAYERS`]) — module
//!   probes at the workload's shapes, a traced run split by span class, a
//!   metrics-on run and the single-worker baseline.
//!
//! See `README.md` beside this crate for the workloads and the metric map.

pub mod probes;
pub mod spans;
pub mod workload;

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use weipipe::{run_single, MetricsConfig, RunOutput, TraceConfig, TrainSetup};
use workload::{Workload, RANKS};
use wp_comm::TransportKind;

/// A reported metric: name and unit, as `BENCHMARK.json` lists them.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// End-to-end metrics (timed mode).
pub const E2E: &[Metric] = &[
    m("tokens_per_s", "1/s"),
    m("setup_s", "s"),
    m("peak_rss_mib", "MiB"),
    m("wire_bytes_per_token", "B/token"),
    m("final_loss", "nats"),
];

/// Per-layer metrics (layer mode), named by module.
pub const LAYERS: &[Metric] = &[
    m("host.fma_gflops", "GFLOP/s"),
    m("host.memcpy_gbs", "GB/s"),
    m("host.loopback_gbs", "GB/s"),
    m("wp-tensor.gemm_gflops", "GFLOP/s"),
    m("wp-tensor.gemm_frac_fma", "ratio"),
    m("wp-nn.attn_fwd_ms", "ms"),
    m("wp-nn.attn_bwd_ms", "ms"),
    m("wp-nn.block_fwd_ms", "ms"),
    m("wp-nn.block_bwd_ms", "ms"),
    m("wp-nn.ckpt_save_ms", "ms"),
    m("wp-nn.ckpt_load_ms", "ms"),
    m("wp-nn.snapshot_mib", "MiB"),
    m("wp-optim.adamw_ns_per_param", "ns"),
    m("wp-comm.checksum_gbs", "GB/s"),
    m("wp-comm.p2p_inproc_gbs", "GB/s"),
    m("wp-comm.p2p_tcp_gbs", "GB/s"),
    m("wp-comm.p2p_tcp_small_us", "us"),
    m("wp-comm.p2p_frac_memcpy", "ratio"),
    m("wp-comm.p2p_frac_loopback", "ratio"),
    m("wp-comm.all_gather_ms", "ms"),
    m("wp-comm.reduce_scatter_ms", "ms"),
    m("wp-sched.build_validate_ms", "ms"),
    m("weipipe.compute_frac", "ratio"),
    m("weipipe.send_frac", "ratio"),
    m("weipipe.recv_wait_frac", "ratio"),
    m("weipipe.collective_frac", "ratio"),
    m("weipipe.outside_iter_frac", "ratio"),
    m("weipipe.idle_frac", "ratio"),
    m("weipipe.bubble_ratio", "ratio"),
    m("weipipe.step_ms_p50", "ms"),
    m("weipipe.step_ms_tail", "ms"),
    m("weipipe.single_tokens_per_s", "1/s"),
    m("weipipe.scaling_eff", "ratio"),
    m("wp-trace.overhead_frac", "ratio"),
    m("wp-metrics.overhead_frac", "ratio"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Weight-init seed handed to `TrainSetup::seed`.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: u64,
    /// Layer mode (`--trace 1`) instead of timed mode.
    pub trace: bool,
    /// Tiny shapes, for the self-tests.
    pub tiny: bool,
    /// Run one timed repetition and print its raw record (internal: the
    /// timed mode runs every repetition in a fresh child process).
    pub child: bool,
}

impl Args {
    /// Parse `--workload W --seed N --seconds N --trace 0|1 [--tiny] [--child]`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let (mut tiny, mut child) = (false, false);
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    workload =
                        Some(Workload::from_name(&v).ok_or(format!("unknown workload {v}"))?);
                }
                "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?)
                }
                "--trace" => {
                    trace = Some(match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, not {v}")),
                    })
                }
                "--tiny" => tiny = true,
                "--child" => child = true,
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(10),
            trace: trace.unwrap_or(false),
            tiny,
            child,
        })
    }
}

/// What one benchmark invocation prints.
#[derive(Debug)]
pub struct Report {
    /// Every check passed and no iteration failed.
    pub correct: bool,
    /// Training iterations attempted.
    pub attempted: u64,
    /// Iterations of runs that failed (typed error, panic or mismatch).
    pub failed: u64,
    /// Metric values, in the order of the metric table.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Report {
    /// The one-line JSON object. Every table metric must be present;
    /// a non-finite value marks the report incorrect and prints as 0.
    pub fn to_json(&self, table: &[Metric]) -> String {
        let mut correct = self.correct;
        let mut body = Vec::new();
        for metric in table {
            let v = self
                .metrics
                .iter()
                .find(|(n, _)| *n == metric.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", metric.name))
                .1;
            correct &= v.is_finite();
            let v = if v.is_finite() { v } else { 0.0 };
            body.push(format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                metric.name, metric.unit
            ));
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

/// Median (sorts in place); NaN for no samples, which the report prints
/// as incorrect.
pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// The tail the benchmark reports for `n` samples: the highest percentile
/// with at least ten samples above it (nearest rank), or the maximum when
/// fewer than twenty samples exist; NaN for no samples.
pub fn tail(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    match n {
        0 => f64::NAN,
        1..20 => xs[n - 1],
        _ => xs[n - 11],
    }
}

/// The single-worker reference trajectory every run is checked against.
struct Reference {
    out: RunOutput,
    /// Final-weight fingerprint of the first accepted distributed run.
    first: Option<u64>,
}

impl Reference {
    fn new(setup: &TrainSetup) -> Reference {
        Reference {
            out: run_single(setup),
            first: None,
        }
    }

    /// Check one run: losses match `run_single` to the workload's
    /// tolerance, and the final weights are bit-identical to the first
    /// accepted run of this seed (runs are deterministic, with tracing or
    /// metrics on or off, over either transport).
    fn check(&mut self, w: Workload, losses: &[f32], weights: u64) -> Result<(), String> {
        workload::check_losses(w, losses, &self.out.losses)?;
        let want = *self.first.get_or_insert(weights);
        if weights != want {
            return Err(format!(
                "final weights {weights:016x} differ from the first run's {want:016x}"
            ));
        }
        Ok(())
    }
}

/// One timed repetition, as a child reports it.
#[derive(Debug)]
struct Rep {
    call_s: f64,
    wall_s: f64,
    bytes: u64,
    hwm_kib: u64,
    weights: u64,
    losses: Vec<f32>,
}

/// Peak resident set of this process (`VmHWM`), KiB.
fn vm_hwm_kib() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM line".into())
}

/// Child side of timed mode: one run, then one record line on stdout.
pub fn child(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let setup = w.setup(args.seed, args.tiny);
    let run = workload::run(w, &setup)?;
    let hwm = vm_hwm_kib()?;
    if let Some((bytes, fp)) = &run.snapshot {
        workload::check_snapshot(bytes, *fp, &setup)?;
    }
    let losses: Vec<String> = run
        .out
        .losses
        .iter()
        .map(|l| format!("{:08x}", l.to_bits()))
        .collect();
    Ok(format!(
        "rep call_s={} wall_s={} bytes={} hwm_kib={hwm} weights={:016x} losses={}",
        run.call_s,
        run.out.wall_seconds,
        run.out.bytes_sent,
        workload::weights_fingerprint(&run.out),
        losses.join(",")
    ))
}

fn parse_rep(line: &str) -> Result<Rep, String> {
    let field = |key: &str| -> Result<&str, String> {
        line.split_whitespace()
            .find_map(|kv| kv.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
            .ok_or(format!("child record lacks {key}: {line}"))
    };
    let num = |key: &str| -> Result<f64, String> {
        field(key)?.parse().map_err(|e| format!("{key}: {e}"))
    };
    let int = |key: &str| -> Result<u64, String> {
        field(key)?.parse().map_err(|e| format!("{key}: {e}"))
    };
    let losses = field("losses")?
        .split(',')
        .map(|h| {
            u32::from_str_radix(h, 16)
                .map(f32::from_bits)
                .map_err(|e| format!("loss: {e}"))
        })
        .collect::<Result<_, _>>()?;
    Ok(Rep {
        call_s: num("call_s")?,
        wall_s: num("wall_s")?,
        bytes: int("bytes")?,
        hwm_kib: int("hwm_kib")?,
        weights: u64::from_str_radix(field("weights")?, 16).map_err(|e| format!("weights: {e}"))?,
        losses,
    })
}

/// A child that has not reported within this long is killed and its run
/// counted as failed.
const CHILD_DEADLINE: Duration = Duration::from_secs(60);

/// Spawn one timed repetition in a fresh process and wait for its record.
fn spawn_rep(args: &Args) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--child",
        "--workload",
        args.workload.name(),
        "--seed",
        &args.seed.to_string(),
    ]);
    if args.tiny {
        cmd.arg("--tiny");
    }
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn child: {e}"))?;
    let stdout = child.stdout.take().expect("piped stdout");
    let reader =
        std::thread::spawn(move || BufReader::new(stdout).lines().map_while(Result::ok).last());
    let t_end = Instant::now() + CHILD_DEADLINE;
    let status = loop {
        if let Some(status) = child.try_wait().map_err(|e| format!("wait child: {e}"))? {
            break Some(status);
        }
        if Instant::now() >= t_end {
            // Killing an already-exited child is harmless; wait reaps it.
            let _ = child.kill();
            child.wait().map_err(|e| format!("reap child: {e}"))?;
            break None;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let line = reader.join().map_err(|_| "child reader thread panicked")?;
    match (status, line) {
        (None, _) => Err(format!("child exceeded {CHILD_DEADLINE:?}")),
        (Some(s), Some(line)) if s.success() => parse_rep(&line),
        (Some(s), _) => Err(format!("child failed: {s}")),
    }
}

/// Timed mode: repeat fresh-process runs for `seconds` (at least
/// [`MIN_REPS`]) and report the median of each end-to-end metric.
pub fn timed(args: &Args) -> Report {
    let w = args.workload;
    let setup = w.setup(args.seed, args.tiny);
    let mut reference = Reference::new(&setup);
    let tokens = (setup.tokens_per_iter() * setup.iters) as f64;
    let t_end = Instant::now() + Duration::from_secs(args.seconds);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut tps, mut setup_s, mut rss, mut bpt, mut loss) =
        (vec![], vec![], vec![], vec![], vec![]);
    while attempted < (MIN_REPS * setup.iters) as u64 || Instant::now() < t_end {
        attempted += setup.iters as u64;
        let rep = spawn_rep(args).and_then(|r| {
            reference.check(w, &r.losses, r.weights)?;
            Ok(r)
        });
        match rep {
            Ok(r) => {
                tps.push(tokens / r.wall_s);
                setup_s.push(r.call_s - r.wall_s);
                rss.push(r.hwm_kib as f64 / 1024.0);
                bpt.push(r.bytes as f64 / tokens);
                loss.push(f64::from(*r.losses.last().expect("at least one iteration")));
            }
            Err(e) => {
                eprintln!("trainbench {}: run failed: {e}", w.name());
                failed += setup.iters as u64;
            }
        }
    }
    eprintln!(
        "trainbench {}: {} timed runs, tokens/s {:?}",
        w.name(),
        tps.len(),
        tps
    );
    Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics: vec![
            ("tokens_per_s", median(&mut tps)),
            ("setup_s", median(&mut setup_s)),
            ("peak_rss_mib", median(&mut rss)),
            ("wire_bytes_per_token", median(&mut bpt)),
            ("final_loss", median(&mut loss)),
        ],
    }
}

/// Fewest repetitions a timed run makes, whatever the budget.
pub const MIN_REPS: usize = 3;

/// Layer mode: module probes, then rounds of an untraced, a traced and a
/// metrics-on run until the budget is spent.
pub fn layers(args: &Args) -> Report {
    let w = args.workload;
    let setup = w.setup(args.seed, args.tiny);
    let t_end = Instant::now() + Duration::from_secs(args.seconds);
    let mut correct = true;
    let mut metrics: Vec<(&'static str, f64)> = Vec::new();

    let mut reference = Reference::new(&setup);
    let tokens = (setup.tokens_per_iter() * setup.iters) as f64;
    let single_tps = tokens / reference.out.wall_seconds;

    // Probes get a fixed share of the budget each.
    let b = Duration::from_secs_f64(args.seconds as f64 * 0.015);
    let fma = probes::host_fma_gflops(b);
    let wire_bytes = probes::ring_chunk_elems(&setup) * setup.wire.size_bytes();
    let memcpy = probes::host_memcpy_gbs(wire_bytes, b);
    let loopback = probes::host_loopback_gbs(wire_bytes, b);
    let gemm = probes::gemm_gflops(&setup, b);
    let (attn_f, attn_b) = probes::attention_ms(&setup, b);
    let (block_f, block_b) = probes::block_ms(&setup, b);
    let (save, load, snap) = probes::checkpoint(&setup, b).unwrap_or_else(|e| {
        eprintln!("trainbench {}: {e}", w.name());
        correct = false;
        (f64::NAN, f64::NAN, f64::NAN)
    });
    let p2p_in = probes::p2p_gbs(&setup, TransportKind::InProcess, b);
    let p2p_tcp = probes::p2p_gbs(&setup, TransportKind::TcpLocalhost, b);
    let (gather, scatter) = probes::collectives_ms(&setup, b);
    metrics.extend([
        ("host.fma_gflops", fma),
        ("host.memcpy_gbs", memcpy),
        ("host.loopback_gbs", loopback),
        ("wp-tensor.gemm_gflops", gemm),
        ("wp-tensor.gemm_frac_fma", gemm / fma),
        ("wp-nn.attn_fwd_ms", attn_f),
        ("wp-nn.attn_bwd_ms", attn_b),
        ("wp-nn.block_fwd_ms", block_f),
        ("wp-nn.block_bwd_ms", block_b),
        ("wp-nn.ckpt_save_ms", save),
        ("wp-nn.ckpt_load_ms", load),
        ("wp-nn.snapshot_mib", snap),
        (
            "wp-optim.adamw_ns_per_param",
            probes::adamw_ns_per_param(&setup, b),
        ),
        ("wp-comm.checksum_gbs", probes::checksum_gbs(&setup, b)),
        ("wp-comm.p2p_inproc_gbs", p2p_in),
        ("wp-comm.p2p_tcp_gbs", p2p_tcp),
        ("wp-comm.p2p_tcp_small_us", probes::p2p_tcp_small_us(b)),
        ("wp-comm.p2p_frac_memcpy", p2p_in / memcpy),
        ("wp-comm.p2p_frac_loopback", p2p_tcp / loopback),
        ("wp-comm.all_gather_ms", gather),
        ("wp-comm.reduce_scatter_ms", scatter),
        (
            "wp-sched.build_validate_ms",
            probes::build_validate_ms(w, &setup, b),
        ),
    ]);

    // Rounds of (off, traced, metrics-on) runs, alternated so slow drift
    // on the host hits all three alike.
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut tps: [Vec<f64>; 3] = Default::default();
    let mut shares: Vec<spans::Shares> = Vec::new();
    let (mut bubble, mut steps) = (vec![], vec![]);
    let mut rounds = 0;
    let variants = [
        setup.clone(),
        setup.clone().with_trace(TraceConfig::on()),
        setup.clone().with_metrics(MetricsConfig::on()),
    ];
    while rounds == 0 || Instant::now() < t_end {
        rounds += 1;
        for (slot, s) in variants.iter().enumerate() {
            attempted += s.iters as u64;
            let run = workload::run(w, s).and_then(|r| {
                reference.check(w, &r.out.losses, workload::weights_fingerprint(&r.out))?;
                workload::check_weights(w, &r.out, &reference.out)?;
                if let Some((bytes, fp)) = &r.snapshot {
                    workload::check_snapshot(bytes, *fp, s)?;
                }
                Ok(r)
            });
            match run {
                Ok(r) => {
                    tps[slot].push(tokens / r.out.wall_seconds);
                    if let Some(trace) = &r.out.trace {
                        shares.push(spans::shares(trace));
                        bubble.push(trace.bubble_ratio());
                        steps.extend(spans::step_ms(trace));
                    }
                }
                Err(e) => {
                    eprintln!("trainbench {}: run failed: {e}", w.name());
                    failed += s.iters as u64;
                }
            }
        }
    }
    let share =
        |f: fn(&spans::Shares) -> f64| median(&mut shares.iter().map(f).collect::<Vec<_>>());
    let off = median(&mut tps[0]);
    eprintln!(
        "trainbench {}: {rounds} rounds, {} traced steps",
        w.name(),
        steps.len()
    );
    metrics.extend([
        ("weipipe.compute_frac", share(|s| s.compute)),
        ("weipipe.send_frac", share(|s| s.send)),
        ("weipipe.recv_wait_frac", share(|s| s.recv_wait)),
        ("weipipe.collective_frac", share(|s| s.collective)),
        ("weipipe.outside_iter_frac", share(|s| s.outside_iter)),
        ("weipipe.idle_frac", share(|s| s.idle)),
        ("weipipe.bubble_ratio", median(&mut bubble)),
        ("weipipe.step_ms_p50", median(&mut steps)),
        ("weipipe.step_ms_tail", tail(&mut steps)),
        ("weipipe.single_tokens_per_s", single_tps),
        ("weipipe.scaling_eff", off / (RANKS as f64 * single_tps)),
        ("wp-trace.overhead_frac", 1.0 - median(&mut tps[1]) / off),
        ("wp-metrics.overhead_frac", 1.0 - median(&mut tps[2]) / off),
    ]);
    Report {
        correct: correct && failed == 0,
        attempted,
        failed,
        metrics,
    }
}
