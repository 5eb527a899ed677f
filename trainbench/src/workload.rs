//! The three training workloads and one run of each through the public
//! runtime API.

use std::time::Instant;
use weipipe::{
    build_schedule, run_distributed, run_rank_elastic, OptimKind, RunOutput, Strategy, TrainSetup,
    TrainState, TransportKind,
};
use wp_comm::World;
use wp_metrics::MetricsRegistry;
use wp_nn::checkpoint::{load_train_state_from, save_train_state_to};
use wp_nn::ModelConfig;
use wp_tensor::DType;
use wp_trace::TraceCollector;

/// Ranks in every workload (one process, one thread per rank).
pub const RANKS: usize = 2;

/// `fsdp_ckpt` snapshots the full training state after every this many
/// iterations.
pub const CKPT_EVERY: usize = 2;

/// Largest per-iteration loss gap, in units in the last place, allowed
/// between an f32-wire run and `run_single`. The distributed runtime sums
/// gradients and losses in another order than the single-worker loop, so
/// the two agree to rounding, not bit for bit (0 or 1 ulp was observed).
pub const LOSS_ULPS: u32 = 4;

/// Largest absolute final-weight gap allowed between an f32-wire run and
/// `run_single` (about 1e-5 was observed).
pub const WEIGHT_TOL: f32 = 1e-4;

/// Largest per-iteration absolute loss gap allowed between the bf16-wire
/// run and the f32 `run_single` reference (about 2e-3 was observed).
pub const BF16_LOSS_TOL: f32 = 0.01;

/// Largest absolute final-weight gap allowed between the bf16-wire run and
/// `run_single` (about 5e-3 was observed).
pub const BF16_WEIGHT_TOL: f32 = 0.02;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Long context, compute-bound: WeiPipe-Interleave in-process.
    LongCtx,
    /// Wide model, short context, weight-ring-bound: WeiPipe-Interleave over
    /// localhost TCP with a bf16 wire.
    WideRingTcp,
    /// FSDP (ZeRO-3) with a full-state snapshot every [`CKPT_EVERY`]
    /// iterations.
    FsdpCkpt,
}

/// Every workload, in `BENCHMARK.json` order.
pub const ALL: [Workload; 3] = [Workload::LongCtx, Workload::WideRingTcp, Workload::FsdpCkpt];

/// The shape of a workload's model and batch.
#[derive(Debug, Clone, Copy)]
struct Shape {
    hidden: usize,
    seq: usize,
    microbatches: usize,
    vocab: usize,
    iters: usize,
}

impl Workload {
    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LongCtx => "long_ctx",
            Workload::WideRingTcp => "wide_ring_tcp",
            Workload::FsdpCkpt => "fsdp_ckpt",
        }
    }

    /// Parse a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The training strategy.
    pub fn strategy(self) -> Strategy {
        match self {
            Workload::FsdpCkpt => Strategy::Fsdp,
            _ => Strategy::WeiPipeInterleave,
        }
    }

    /// Whether the run trains with an f32 wire, and so must match
    /// `run_single` to rounding.
    pub fn exact(self) -> bool {
        self != Workload::WideRingTcp
    }

    fn shape(self, tiny: bool) -> Shape {
        // Iteration counts set the length of one measured run; the shapes
        // are fixed by the workload definition.
        let s = match self {
            Workload::LongCtx => Shape {
                hidden: 64,
                seq: 1024,
                microbatches: 2,
                vocab: 256,
                iters: 3,
            },
            Workload::WideRingTcp => Shape {
                hidden: 256,
                seq: 32,
                microbatches: 4,
                vocab: 256,
                iters: 4,
            },
            Workload::FsdpCkpt => Shape {
                hidden: 128,
                seq: 256,
                microbatches: 2,
                vocab: 256,
                iters: 6,
            },
        };
        if tiny {
            Shape {
                hidden: 32,
                seq: 16,
                vocab: 32,
                iters: s.iters.min(3),
                ..s
            }
        } else {
            s
        }
    }

    /// The training setup for `seed` (`tiny` shrinks the shapes for the
    /// self-tests; the structure is unchanged).
    pub fn setup(self, seed: u64, tiny: bool) -> TrainSetup {
        let s = self.shape(tiny);
        let mut setup = TrainSetup::tiny(4, s.microbatches);
        setup.model = ModelConfig::llama_like(s.hidden, 4, 4, s.vocab, s.seq);
        setup.seed = seed;
        setup.microbatch = 1;
        setup.seq = s.seq;
        setup.iters = s.iters;
        setup.optim = OptimKind::AdamW { lr: 1e-3 };
        if self == Workload::WideRingTcp {
            setup.wire = DType::BF16;
            setup.transport = TransportKind::TcpLocalhost;
        }
        setup
    }
}

/// One finished run.
#[derive(Debug)]
pub struct Run {
    /// Wall seconds of the whole call (spawn, init, loop, assembly).
    pub call_s: f64,
    /// The runtime's output (losses, final weights, bytes, loop wall time,
    /// trace and metrics when enabled).
    pub out: RunOutput,
    /// `fsdp_ckpt` only: the last snapshot, serialized by rank 0, and the
    /// fingerprint of the state it was serialized from.
    pub snapshot: Option<(Vec<u8>, u64)>,
}

/// Train `setup` once as workload `w`. Any rank's typed error, or a panic
/// anywhere in the run, is returned as an error string.
pub fn run(w: Workload, setup: &TrainSetup) -> Result<Run, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match w {
        Workload::FsdpCkpt => run_ckpt(setup),
        _ => {
            let t0 = Instant::now();
            let out = run_distributed(w.strategy(), RANKS, setup).map_err(|e| e.to_string())?;
            Ok(Run {
                call_s: t0.elapsed().as_secs_f64(),
                out,
                snapshot: None,
            })
        }
    }))
    .unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".into());
        Err(format!("panicked: {msg}"))
    })
}

/// FSDP through `run_rank_elastic` on a world built here, so every rank can
/// serialize each snapshot into its own reused buffer.
fn run_ckpt(setup: &TrainSetup) -> Result<Run, String> {
    let t0 = Instant::now();
    let schedule = build_schedule(Strategy::Fsdp, RANKS, setup);
    let collector = setup
        .trace
        .enabled
        .then(|| TraceCollector::new(RANKS, setup.trace.capacity_per_rank));
    let registry = setup.metrics.enabled.then(|| MetricsRegistry::new(RANKS));
    let last_snapshot = (setup.iters - 1) / CKPT_EVERY;
    let (outs, meter) = World::builder(RANKS)
        .link(setup.link)
        .config(setup.comm)
        .transport(setup.transport)
        .maybe_trace(collector.clone())
        .maybe_metrics(registry.clone())
        .try_run(|comm| {
            let rank0 = comm.rank() == 0;
            let mut buf = Vec::new();
            let (mut taken, mut fp) = (0, 0);
            let out = run_rank_elastic(setup, &schedule, comm, None, CKPT_EVERY, |state| {
                buf.clear();
                save_train_state_to(&mut buf, state).expect("a captured state serializes");
                taken += 1;
                if rank0 && taken == last_snapshot {
                    fp = state_fingerprint(state);
                }
            })?;
            Ok((out, buf, fp))
        });
    let call_s = t0.elapsed().as_secs_f64();
    let mut first = None;
    for r in outs {
        let r = r.map_err(|e| e.to_string())?;
        first.get_or_insert(r);
    }
    let (mut out, buf, fp) = first.ok_or("empty world")?;
    out.bytes_sent = meter.total_bytes();
    out.trace = collector.map(|c| c.snapshot());
    out.metrics = registry.map(|r| r.snapshot());
    Ok(Run {
        call_s,
        out,
        snapshot: (last_snapshot > 0).then_some((buf, fp)),
    })
}

/// Check that a serialized snapshot loads, validates, and equals the state
/// it was written from (by fingerprint).
pub fn check_snapshot(bytes: &[u8], fp: u64, setup: &TrainSetup) -> Result<(), String> {
    let state = load_train_state_from(bytes).map_err(|e| format!("snapshot load: {e}"))?;
    state
        .validate()
        .map_err(|e| format!("snapshot validate: {e}"))?;
    if state.config != setup.model || state.seed != setup.seed {
        return Err("snapshot config or seed differs from the run's".into());
    }
    if state_fingerprint(&state) != fp {
        return Err("snapshot round trip changed the captured state".into());
    }
    Ok(())
}

fn mix(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
}

fn fingerprint_f32s(h: u64, xs: &[f32]) -> u64 {
    xs.iter().fold(mix(h, xs.len() as u64), |h, x| {
        mix(h, u64::from(x.to_bits()))
    })
}

/// A hash over every bit of a training state.
pub fn state_fingerprint(s: &TrainState) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    h = mix(h, s.seed);
    h = mix(h, s.next_iter);
    h = mix(h, u64::from(s.loss_scale.to_bits()));
    for c in std::iter::once(&s.embed)
        .chain(&s.blocks)
        .chain(std::iter::once(&s.head))
    {
        h = fingerprint_f32s(h, &c.weights);
        h = fingerprint_f32s(h, &c.master);
        h = mix(h, c.opt_t);
        for b in &c.opt_bufs {
            h = fingerprint_f32s(h, b);
        }
    }
    h
}

/// A hash over every bit of a run's final weights.
pub fn weights_fingerprint(out: &RunOutput) -> u64 {
    let mut h = fingerprint_f32s(0xcbf2_9ce4_8422_2325, &out.embed);
    for b in &out.blocks {
        h = fingerprint_f32s(h, b);
    }
    fingerprint_f32s(h, &out.head)
}

/// Compare a run's losses against the reference's: within [`LOSS_ULPS`]
/// for f32-wire workloads, within [`BF16_LOSS_TOL`] for the bf16 wire.
pub fn check_losses(w: Workload, got: &[f32], want: &[f32]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{} losses, reference has {}",
            got.len(),
            want.len()
        ));
    }
    for (i, (&a, &b)) in got.iter().zip(want).enumerate() {
        let ok = if w.exact() {
            a.is_finite()
                && (a.to_bits() as i64 - b.to_bits() as i64).unsigned_abs() <= LOSS_ULPS.into()
        } else {
            (a - b).abs() <= BF16_LOSS_TOL
        };
        if !ok {
            return Err(format!("iteration {i}: loss {a} vs reference {b}"));
        }
    }
    Ok(())
}

/// Compare a run's final weights against the reference's: within
/// [`WEIGHT_TOL`] for f32-wire workloads, within [`BF16_WEIGHT_TOL`] for
/// the bf16 wire.
pub fn check_weights(w: Workload, got: &RunOutput, want: &RunOutput) -> Result<(), String> {
    let tol = if w.exact() {
        WEIGHT_TOL
    } else {
        BF16_WEIGHT_TOL
    };
    let diff = got.max_param_diff(want);
    if diff.is_nan() || diff > tol {
        return Err(format!("final weights differ from the reference by {diff}"));
    }
    Ok(())
}
