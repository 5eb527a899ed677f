//! Communication-volume properties, verified on the *real* runtime with the
//! byte-exact traffic meter — the paper's §3 argument as executable fact —
//! plus the agreement between the simulator's byte accounting and the bytes
//! the thread runtime actually moves.

use weipipe::{run_distributed, Strategy, TrainSetup};
use wp_nn::ModelConfig;
use wp_sched::analysis::{traffic, ByteModel};
use wp_sched::{build, PipelineSpec};
use wp_tensor::DType;

fn setup_with(seq: usize, microbatch: usize, layers: usize, n: usize) -> TrainSetup {
    let mut model = ModelConfig::tiny(layers);
    model.max_seq = seq.max(model.max_seq);
    let mut s = TrainSetup::tiny(layers, n);
    s.model = model;
    s.seq = seq;
    s.microbatch = microbatch;
    s.iters = 1;
    s
}

#[test]
fn weipipe_bytes_independent_of_context_and_microbatch() {
    let run = |setup: &TrainSetup| {
        run_distributed(Strategy::WeiPipeInterleave, 4, setup).expect("healthy world")
    };
    let base = run(&setup_with(8, 1, 4, 8));
    let long = run(&setup_with(32, 1, 4, 8));
    let fat = run(&setup_with(8, 4, 4, 8));
    assert_eq!(
        base.bytes_sent, long.bytes_sent,
        "4× context must not change WeiPipe traffic"
    );
    assert_eq!(
        base.bytes_sent, fat.bytes_sent,
        "4× microbatch must not change WeiPipe traffic"
    );
}

#[test]
fn act_passing_bytes_scale_with_context() {
    let base =
        run_distributed(Strategy::OneFOneB, 4, &setup_with(8, 2, 4, 8)).expect("healthy world");
    let long =
        run_distributed(Strategy::OneFOneB, 4, &setup_with(32, 2, 4, 8)).expect("healthy world");
    // Boundary activations quadruple; embed/head all-reduce is unchanged, so
    // expect strictly more but not exactly 4×.
    assert!(
        long.bytes_sent as f64 > base.bytes_sent as f64 * 1.5,
        "1F1B traffic must grow with context: {} vs {}",
        base.bytes_sent,
        long.bytes_sent
    );
}

/// The simulator and the runtime must charge the same bytes for the same
/// schedule: predicted P2P traffic (schedule analysis × wire sizes) equals
/// the runtime meter's P2P counters exactly.
#[test]
fn simulated_traffic_equals_measured_traffic() {
    for strategy in [
        Strategy::WeiPipeInterleave,
        Strategy::WeiPipeNaive,
        Strategy::OneFOneB,
        Strategy::GPipe,
        Strategy::Zb1,
    ] {
        let setup = setup_with(8, 2, 4, 8);
        let p = 4;
        let sched = build(
            strategy,
            PipelineSpec::new(p, setup.microbatches).without_recompute(),
        );
        let cfg = &setup.model;
        let lpc = cfg.layers / p;
        let block_len = wp_nn::params::BlockLayout::new(cfg).len();
        let elem = DType::F32.size_bytes() as u64; // the test runs an f32 wire
        let bytes = ByteModel {
            weight_chunk: (lpc * block_len) as u64 * elem,
            grad_chunk: (lpc * block_len) as u64 * elem,
            act_boundary: (setup.microbatch * setup.seq * cfg.hidden) as u64 * elem,
            act_grad_boundary: (setup.microbatch * setup.seq * cfg.hidden) as u64 * elem,
        };
        let predicted: u64 = traffic(&sched, &bytes).iter().map(|r| r.p2p).sum();

        let out = run_distributed(strategy, p, &setup).expect("healthy world");
        // The meter also counts collective traffic (embed/head all-reduce,
        // final assembly); compare P2P only via the prediction being a lower
        // bound that must be contained. We re-run to get the split.
        // run_distributed returns total; recompute the split directly:
        let (outs, meter) = wp_comm::World::builder(p).link(setup.link).run(|comm| {
            let mut rt = weipipe::interp::RankRuntime::new(&setup, &sched, comm);
            rt.run_iteration(&sched, 0).expect("healthy world");
            rt.assemble(&sched).expect("healthy world");
        });
        drop(outs);
        let measured_p2p: u64 = (0..p).map(|r| meter.rank(r).p2p_bytes).sum();
        assert_eq!(
            measured_p2p, predicted,
            "{strategy:?}: simulator predicts {predicted} P2P bytes, runtime moved {measured_p2p}"
        );
        assert!(out.bytes_sent >= predicted);
    }
}

#[test]
fn interleave_traffic_is_three_chunks_per_turn_steady_state() {
    // §4.2.2: per turn, each worker forwards 2 weight chunks + 1 gradient
    // chunk. Check the per-iteration total against the closed form within
    // the warmup/drain tolerance.
    let p = 4;
    let n = 32; // 8 rounds: steady state dominates
    let setup = setup_with(8, 1, 4, n);
    let out = run_distributed(Strategy::WeiPipeInterleave, p, &setup).expect("healthy world");
    let block_len = wp_nn::params::BlockLayout::new(&setup.model).len() as u64;
    let chunk_bytes = block_len * 4; // lpc = 1, f32 wire
    let turns = ((n / p) + 2) * p;
    let steady_estimate = 3 * chunk_bytes * (p as u64) * turns as u64;
    let total = out.bytes_sent;
    assert!(
        total > steady_estimate / 2 && total < steady_estimate * 2,
        "total {total} vs steady-state estimate {steady_estimate}"
    );
}
