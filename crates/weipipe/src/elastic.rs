//! Elastic ring recovery: survive a rank failure and continue training on
//! the shrunk world.
//!
//! WeiPipe makes elasticity unusually natural: weights are not statically
//! sharded to stages — every rank can host any chunk, because the chunks
//! circulate. Losing a rank therefore re-shards the *same* per-layer
//! parameter state onto a smaller ring, rather than invalidating a stage
//! assignment. [`run_elastic`] drives that loop:
//!
//! 1. Train the current world, capturing a full [`TrainState`] snapshot
//!    every `checkpoint_every` iterations (a collective, so every rank
//!    holds the bit-identical state).
//! 2. On failure, identify the victims from the survivors' typed
//!    [`CommError::PeerDead`] diagnoses and [`Membership::shrink`] the
//!    world: survivors keep their relative order, ranks renumber
//!    contiguously, and the configuration epoch advances.
//! 3. Re-form the smaller world at the new epoch — straggler frames from
//!    the dead configuration are dropped on arrival — and prove agreement
//!    with the [`agree_membership`](wp_comm::agree_membership) handshake
//!    before touching any training state.
//! 4. Resume from the last snapshot every survivor holds. Batches and the
//!    LR schedule are keyed on absolute iterations and optimizer moments
//!    travel in the snapshot, so the recovered trajectory is bit-identical
//!    to a fresh run started from that snapshot on the smaller world (the
//!    recovery conformance suite asserts exactly this).
//!
//! The driver is deliberately checkpoint-anchored (the Oobleck/Varuna
//! lineage) rather than lockstep-replicated: iterations since the last
//! snapshot are recomputed, never reconstructed from survivor state.

use crate::runner::{build_schedule, run_rank_elastic};
use crate::setup::{RunOutput, TrainSetup};
use std::sync::Mutex;
use std::time::Instant;
use wp_comm::{CommError, FaultPlan, Membership, Probe, World};
use wp_metrics::{Counter, Hist, MetricsRegistry};
use wp_nn::TrainState;
use wp_sched::Strategy;

/// Policy knobs for [`run_elastic`].
#[derive(Debug, Clone)]
pub struct ElasticOptions {
    /// Capture a recovery snapshot every `k` completed iterations
    /// (`0` disables checkpointing — a failure then restarts the shrunk
    /// world from iteration 0).
    pub checkpoint_every: usize,
    /// Give up after this many recoveries (a bound, not a target).
    pub max_recoveries: usize,
    /// Per-epoch fault plans, indexed by configuration epoch: entry 0
    /// injects into the initial world, entry 1 into the first recovered
    /// world (a second fault *during* recovery), and so on.
    pub fault_plans: Vec<Option<FaultPlan>>,
}

impl Default for ElasticOptions {
    fn default() -> Self {
        ElasticOptions {
            checkpoint_every: 1,
            max_recoveries: 2,
            fault_plans: Vec::new(),
        }
    }
}

/// What happened in one configuration epoch.
#[derive(Debug, Clone)]
pub struct EpochOutcome {
    /// The world this epoch trained on.
    pub membership: Membership,
    /// Absolute iteration the epoch resumed from (`None` = fresh start).
    pub resumed_from: Option<u64>,
    /// Per-rank error, `None` for ranks that completed.
    pub errors: Vec<Option<CommError>>,
    /// Per-iteration mean losses, when the epoch completed.
    pub losses: Vec<f32>,
}

/// The full elastic run: every epoch's outcome and the final result.
#[derive(Debug, Clone)]
pub struct ElasticReport {
    /// One entry per configuration epoch, in order.
    pub epochs: Vec<EpochOutcome>,
    /// Output of the completing epoch (`None` when the run was abandoned —
    /// unrecoverable failure or the recovery budget ran out).
    pub output: Option<RunOutput>,
    /// Number of successful shrink-and-resume recoveries performed.
    pub recoveries: u64,
    /// The snapshot the final epoch resumed from, when it did.
    pub checkpoint: Option<TrainState>,
}

impl ElasticReport {
    /// Whether training reached the configured iteration count.
    pub fn completed(&self) -> bool {
        self.output.is_some()
    }
}

/// Ranks named dead by the survivors' typed errors (current-world ids).
fn victims_of(errors: &[Option<CommError>]) -> Vec<usize> {
    let mut dead: Vec<usize> = errors
        .iter()
        .flatten()
        .filter_map(|e| match e {
            CommError::PeerDead { rank } => Some(*rank),
            _ => None,
        })
        .collect();
    dead.sort_unstable();
    dead.dedup();
    dead
}

/// The newest snapshot present on *every* survivor: recovery must anchor on
/// a state the whole shrunk world agrees on, so snapshots a fault left
/// half-captured are skipped.
fn common_checkpoint(stores: &[Mutex<Vec<TrainState>>], survivors: &[usize]) -> Option<TrainState> {
    let first = stores[*survivors.first()?].lock().unwrap();
    'outer: for cand in first.iter().rev() {
        for &s in &survivors[1..] {
            let theirs = stores[s].lock().unwrap();
            match theirs.iter().find(|c| c.next_iter == cand.next_iter) {
                Some(c) => assert_eq!(
                    c, cand,
                    "snapshots for one iteration must be bit-identical across ranks"
                ),
                None => continue 'outer,
            }
        }
        return Some(cand.clone());
    }
    None
}

/// Train `setup` under `strategy`, surviving rank deaths by shrinking the
/// world and resuming from the last common snapshot. See the module docs
/// for the protocol. The returned report's `output`, when present, covers
/// the iterations of the *final* epoch (earlier iterations' losses live in
/// the per-epoch outcomes).
///
/// # Panics
/// Panics on configuration errors (the same constraints as
/// [`run_distributed`](crate::run_distributed), for every world size the
/// shrink sequence visits).
pub fn run_elastic(
    strategy: Strategy,
    ranks: usize,
    setup: &TrainSetup,
    opts: &ElasticOptions,
) -> ElasticReport {
    assert!(
        setup.resume.is_none() && setup.start_iter == 0,
        "run_elastic owns resume state; start from a fresh setup"
    );
    let total_iters = setup.iters;
    let mut membership = Membership::initial(ranks);
    let mut resume: Option<TrainState> = None;
    let mut report = ElasticReport {
        epochs: Vec::new(),
        output: None,
        recoveries: 0,
        checkpoint: None,
    };
    let mut reshard_started: Option<Instant> = None;
    loop {
        let p = membership.world_size();
        let mut epoch_setup = setup.clone();
        epoch_setup.faults = opts
            .fault_plans
            .get(membership.epoch as usize)
            .cloned()
            .flatten();
        if let Some(st) = resume.clone() {
            epoch_setup = epoch_setup.with_resume(st);
            epoch_setup.iters = total_iters - epoch_setup.start_iter;
        }
        let schedule = build_schedule(strategy, p, &epoch_setup);
        let registry = epoch_setup.metrics.enabled.then(|| MetricsRegistry::new(p));
        if let Some(t0) = reshard_started.take() {
            let probe = Probe::new(None, registry.as_ref().map(|reg| reg.handle(0)));
            probe.incr(Counter::RecoveryEpochs);
            probe.observe(Hist::ReshardNs, t0.elapsed().as_nanos() as u64);
        }
        let stores: Vec<Mutex<Vec<TrainState>>> = (0..p).map(|_| Mutex::new(Vec::new())).collect();
        let m = membership.clone();
        let es = &epoch_setup;
        let sched = &schedule;
        let st_ref = &stores;
        let (outs, meter) = World::builder(p)
            .link(epoch_setup.link)
            .config(epoch_setup.comm)
            .transport(epoch_setup.transport)
            .epoch(m.epoch)
            .maybe_faults(epoch_setup.faults.clone())
            .maybe_metrics(registry.clone())
            .try_run(|comm| {
                let rank = comm.rank();
                run_rank_elastic(es, sched, comm, Some(&m), opts.checkpoint_every, |st| {
                    st_ref[rank].lock().unwrap().push(st.clone());
                })
            });
        let errors: Vec<Option<CommError>> =
            outs.iter().map(|r| r.as_ref().err().cloned()).collect();
        if errors.iter().all(|e| e.is_none()) {
            let mut out = outs
                .into_iter()
                .next()
                .expect("world has ranks")
                .expect("checked above");
            out.bytes_sent = meter.total_bytes();
            out.metrics = registry.map(|r| r.snapshot());
            report.epochs.push(EpochOutcome {
                membership,
                resumed_from: resume.as_ref().map(|s| s.next_iter),
                errors,
                losses: out.losses.clone(),
            });
            report.checkpoint = resume;
            report.output = Some(out);
            return report;
        }
        // Failure: diagnose the victims and decide whether to shrink on.
        let dead = victims_of(&errors);
        report.epochs.push(EpochOutcome {
            membership: membership.clone(),
            resumed_from: resume.as_ref().map(|s| s.next_iter),
            errors,
            losses: Vec::new(),
        });
        let survivors: Vec<usize> = (0..p).filter(|r| !dead.contains(r)).collect();
        if dead.is_empty() || survivors.len() < 2 || report.recoveries >= opts.max_recoveries as u64
        {
            // No diagnosable victim, not enough survivors for a ring, or
            // the recovery budget is spent: abandon with the record intact.
            report.checkpoint = resume;
            return report;
        }
        reshard_started = Some(Instant::now());
        resume = common_checkpoint(&stores, &survivors).or(resume);
        membership = membership.shrink(
            &dead
                .iter()
                .map(|&r| membership.members[r])
                .collect::<Vec<_>>(),
        );
        report.recoveries += 1;
    }
}
