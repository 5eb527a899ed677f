//! Per-layer probes: each module's public functions timed from outside at
//! the workload's exact shapes, and the host's own FMA, memcpy and
//! loopback-socket rates that the kernel and transport numbers are
//! expressed against.

use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};
use weipipe::{build_schedule, TrainSetup, TrainState};
use wp_comm::{Communicator, TransportKind, World};
use wp_nn::attention::{streaming_backward, streaming_forward, AttnDims};
use wp_nn::block::{block_backward_full, block_forward};
use wp_nn::checkpoint::{load_train_state_from, save_train_state_to};
use wp_nn::params::{init_block, init_embed, init_head};
use wp_nn::ComponentState;
use wp_nn::Scratch;
use wp_optim::{AdamConfig, AdamW, Optimizer};
use wp_tensor::ops::{matmul_nn, matmul_nt, matmul_tn};
use wp_tensor::{DType, Tensor};

use crate::workload::{Workload, RANKS};

/// Call `f` once untimed, then repeatedly until `budget` has elapsed and at
/// least `min_reps` calls were timed; return the median seconds per call.
pub fn median_secs(budget: Duration, min_reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let t_end = Instant::now() + budget;
    let mut samples = Vec::new();
    while samples.len() < min_reps || Instant::now() < t_end {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64());
    }
    crate::median(&mut samples)
}

fn randn(n: usize, seed: u64) -> Vec<f32> {
    Tensor::randn([n], 1.0, seed).into_vec()
}

/// The message size the weight ring moves: one chunk of `L / P` layers.
pub fn ring_chunk_elems(setup: &TrainSetup) -> usize {
    setup.model.layers / RANKS * setup.model.block_params()
}

/// Host `a·x + b` throughput in GFLOP/s on every available core, with 32
/// independent lanes per thread (the vector width this build targets).
pub fn host_fma_gflops(budget: Duration) -> f64 {
    const ITERS: usize = 1 << 20;
    fn kernel(iters: usize) -> f32 {
        let mut acc = [[1.0f32; 8]; 4];
        let (m, a) = (black_box(0.999_999f32), black_box(1e-7f32));
        for _ in 0..iters {
            for row in acc.iter_mut() {
                for x in row.iter_mut() {
                    *x = *x * m + a;
                }
            }
        }
        acc.iter().flatten().sum()
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let secs = median_secs(budget, 3, || {
        std::thread::scope(|s| {
            let hs: Vec<_> = (0..threads)
                .map(|_| s.spawn(|| kernel(black_box(ITERS))))
                .collect();
            for h in hs {
                black_box(h.join().expect("fma probe thread"));
            }
        });
    });
    (threads * ITERS * 32 * 2) as f64 / secs / 1e9
}

/// Single-thread memcpy GB/s at `bytes` per copy.
pub fn host_memcpy_gbs(bytes: usize, budget: Duration) -> f64 {
    let src = vec![1u8; bytes];
    let mut dst = vec![0u8; bytes];
    let secs = median_secs(budget, 5, || {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    });
    bytes as f64 / secs / 1e9
}

/// Raw localhost TCP GB/s: one `bytes`-sized write answered by a 1-byte
/// acknowledgement, on sockets with Nagle off (as the TCP transport sets).
pub fn host_loopback_gbs(bytes: usize, budget: Duration) -> f64 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback probe");
    let addr = listener.local_addr().expect("loopback address");
    std::thread::scope(|s| {
        let server = s.spawn(move || {
            let (mut sock, _) = listener.accept().expect("accept loopback probe");
            sock.set_nodelay(true).expect("nodelay");
            let mut buf = vec![0u8; bytes];
            loop {
                let mut hdr = [0u8; 1];
                if sock.read_exact(&mut hdr).is_err() || hdr[0] == 0 {
                    return;
                }
                sock.read_exact(&mut buf).expect("loopback payload");
                sock.write_all(&[1]).expect("loopback ack");
            }
        });
        let mut sock = TcpStream::connect(addr).expect("connect loopback probe");
        sock.set_nodelay(true).expect("nodelay");
        let payload = vec![7u8; bytes];
        let secs = median_secs(budget, 5, || {
            let mut ack = [0u8; 1];
            sock.write_all(&[1]).expect("loopback header");
            sock.write_all(&payload).expect("loopback send");
            sock.read_exact(&mut ack).expect("loopback ack");
        });
        sock.write_all(&[0]).expect("loopback stop");
        server.join().expect("loopback server thread");
        bytes as f64 / secs / 1e9
    })
}

/// GEMM GFLOP/s over one block's forward, data-backward and
/// weight-backward matmuls (`matmul_nt`, `matmul_nn`, `matmul_tn`) at the
/// shapes `block.rs` calls them with.
pub fn gemm_gflops(setup: &TrainSetup, budget: Duration) -> f64 {
    let cfg = &setup.model;
    let (t, h, kv, f) = (
        setup.microbatch * setup.seq,
        cfg.hidden,
        cfg.kv_dim(),
        cfg.ffn,
    );
    // (m, k, n) per call; C[m,n] from A[m,k] and B.
    let nt = [
        (t, h, h),
        (t, h, kv),
        (t, h, kv),
        (t, h, h),
        (t, h, f),
        (t, h, f),
        (t, f, h),
    ];
    let nn = [
        (t, h, f),
        (t, f, h),
        (t, f, h),
        (t, h, h),
        (t, h, h),
        (t, kv, h),
        (t, kv, h),
    ];
    let tn = [
        (h, t, f),
        (f, t, h),
        (f, t, h),
        (h, t, h),
        (h, t, h),
        (kv, t, h),
        (kv, t, h),
    ];
    let bufs = |dims: &[(usize, usize, usize)]| -> Vec<(Vec<f32>, Vec<f32>, Vec<f32>)> {
        dims.iter()
            .enumerate()
            .map(|(i, &(m, k, n))| {
                (
                    vec![0.0; m * n],
                    randn(m * k, i as u64),
                    randn(k * n, 99 + i as u64),
                )
            })
            .collect()
    };
    let (mut bnt, mut bnn, mut btn) = (bufs(&nt), bufs(&nn), bufs(&tn));
    let flops: usize = nt
        .iter()
        .chain(&nn)
        .chain(&tn)
        .map(|&(m, k, n)| 2 * m * k * n)
        .sum();
    let secs = median_secs(budget, 3, || {
        for (&(m, k, n), (c, a, b)) in nt.iter().zip(bnt.iter_mut()) {
            matmul_nt(c, a, b, m, k, n);
        }
        for (&(m, k, n), (c, a, b)) in nn.iter().zip(bnn.iter_mut()) {
            matmul_nn(c, a, b, m, k, n);
        }
        for (&(m, k, n), (c, a, b)) in tn.iter().zip(btn.iter_mut()) {
            matmul_tn(c, a, b, m, k, n);
        }
    });
    flops as f64 / secs / 1e9
}

/// Streaming attention forward and backward milliseconds for one layer and
/// one microbatch.
pub fn attention_ms(setup: &TrainSetup, budget: Duration) -> (f64, f64) {
    let cfg = &setup.model;
    let dims = AttnDims::mha(setup.microbatch, setup.seq, cfg.heads, cfg.head_dim());
    let n = setup.microbatch * setup.seq * cfg.hidden;
    let (q, k, v, dout) = (randn(n, 1), randn(n, 2), randn(n, 3), randn(n, 4));
    let scratch = Scratch::new();
    let mut o = vec![0.0; n];
    let fwd = median_secs(budget, 3, || {
        black_box(streaming_forward(&mut o, &q, &k, &v, dims, &scratch));
    });
    let ctx = streaming_forward(&mut o, &q, &k, &v, dims, &scratch);
    let (mut dq, mut dk, mut dv) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    let bwd = median_secs(budget, 3, || {
        streaming_backward(
            &mut dq, &mut dk, &mut dv, &dout, &q, &k, &v, &o, &ctx, dims, &scratch,
        );
    });
    (fwd * 1e3, bwd * 1e3)
}

/// One transformer block's forward and fused backward, milliseconds per
/// microbatch.
pub fn block_ms(setup: &TrainSetup, budget: Duration) -> (f64, f64) {
    let cfg = &setup.model;
    let rope = cfg.rope_table();
    let (g, s) = (setup.microbatch, setup.seq);
    let w = init_block(cfg, setup.seed, 0);
    let x = randn(g * s * cfg.hidden, 5);
    let dy = randn(g * s * cfg.hidden, 6);
    let scratch = Scratch::new();
    let fwd = median_secs(budget, 3, || {
        black_box(block_forward(cfg, &rope, &w, &x, g, s, &scratch));
    });
    let (_, ctx) = block_forward(cfg, &rope, &w, &x, g, s, &scratch);
    let mut dw = vec![0.0; w.len()];
    let bwd = median_secs(budget, 3, || {
        black_box(block_backward_full(
            cfg, &rope, &w, &ctx, &dy, &mut dw, g, s, &scratch,
        ));
    });
    (fwd * 1e3, bwd * 1e3)
}

fn component(weights: Vec<f32>) -> ComponentState {
    ComponentState {
        master: weights.clone(),
        opt_t: 1,
        opt_bufs: vec![
            weights.iter().map(|x| x * 0.1).collect(),
            weights.iter().map(|x| x * x).collect(),
        ],
        weights,
    }
}

/// A full AdamW training state of the workload's model.
pub fn train_state(setup: &TrainSetup) -> TrainState {
    let cfg = &setup.model;
    TrainState {
        config: cfg.clone(),
        seed: setup.seed,
        next_iter: 2,
        loss_scale: 1.0,
        embed: component(init_embed(cfg, setup.seed)),
        blocks: (0..cfg.layers)
            .map(|l| component(init_block(cfg, setup.seed, l)))
            .collect(),
        head: component(init_head(cfg, setup.seed)),
    }
}

/// Snapshot save and load milliseconds into and out of a reused buffer,
/// and the snapshot size in MiB. Errors when the round trip changes the
/// state.
pub fn checkpoint(setup: &TrainSetup, budget: Duration) -> Result<(f64, f64, f64), String> {
    let state = train_state(setup);
    let mut buf = Vec::new();
    let save = median_secs(budget, 3, || {
        buf.clear();
        save_train_state_to(&mut buf, &state).expect("valid state serializes");
    });
    let load = median_secs(budget, 3, || {
        black_box(load_train_state_from(&buf[..]).expect("fresh snapshot loads"));
    });
    if load_train_state_from(&buf[..]).map_err(|e| e.to_string())? != state {
        return Err("checkpoint probe: round trip changed the state".into());
    }
    Ok((save * 1e3, load * 1e3, buf.len() as f64 / (1 << 20) as f64))
}

/// AdamW nanoseconds per parameter over one rank's share of the blocks.
pub fn adamw_ns_per_param(setup: &TrainSetup, budget: Duration) -> f64 {
    let n = ring_chunk_elems(setup);
    let mut p = randn(n, 7);
    let g = randn(n, 8);
    let mut opt = AdamW::new(
        n,
        AdamConfig {
            lr: 1e-3,
            ..Default::default()
        },
    );
    let secs = median_secs(budget, 3, || opt.step_with_lr(&mut p, &g, 1e-3));
    secs * 1e9 / n as f64
}

/// `wp_comm` frame checksum GB/s over one ring chunk of f32s.
pub fn checksum_gbs(setup: &TrainSetup, budget: Duration) -> f64 {
    let data = randn(ring_chunk_elems(setup), 9);
    let secs = median_secs(budget, 5, || {
        black_box(wp_comm::transport::checksum_of(black_box(&data)));
    });
    (data.len() * 4) as f64 / secs / 1e9
}

/// Run `lead` on rank 0 and `follow` on rank 1 of a fresh two-rank world.
fn pair<T: Send>(
    kind: TransportKind,
    lead: impl FnOnce(&mut Communicator) -> T + Send,
    follow: impl FnOnce(&mut Communicator) + Send,
) -> T {
    let mut comms = World::builder(RANKS).transport(kind).build();
    let mut c1 = comms.pop().expect("rank 1");
    let mut c0 = comms.pop().expect("rank 0");
    std::thread::scope(|s| {
        let h = s.spawn(move || follow(&mut c1));
        let out = lead(&mut c0);
        h.join().expect("probe peer thread");
        out
    })
}

const GO: f32 = 1.0;
const STOP: f32 = 0.0;

/// Median seconds of one `len`-element point-to-point message at `dtype`
/// from rank 0 to rank 1, answered by a one-element acknowledgement. The
/// message's first element tells the peer to go on (exact in every dtype).
fn p2p_secs(kind: TransportKind, len: usize, dtype: DType, budget: Duration) -> f64 {
    let mut msg = randn(len, 10);
    msg[0] = GO;
    pair(
        kind,
        |c| {
            let secs = median_secs(budget, 5, || {
                c.send(1, 1, &msg, dtype).expect("probe send");
                c.recv(1, 2).expect("probe ack");
            });
            c.send(1, 1, &[STOP], DType::F32).expect("probe stop");
            secs
        },
        |c| {
            while c.recv(0, 1).expect("probe recv")[0] == GO {
                c.send(0, 2, &[GO], DType::F32).expect("probe ack");
            }
        },
    )
}

/// Ring-chunk point-to-point GB/s of wire bytes over `kind`.
pub fn p2p_gbs(setup: &TrainSetup, kind: TransportKind, budget: Duration) -> f64 {
    let len = ring_chunk_elems(setup);
    let secs = p2p_secs(kind, len, setup.wire, budget);
    (len * setup.wire.size_bytes()) as f64 / secs / 1e9
}

/// Small-message one-way latency over TCP in microseconds (half the round
/// trip of a one-element message and its acknowledgement).
pub fn p2p_tcp_small_us(budget: Duration) -> f64 {
    p2p_secs(TransportKind::TcpLocalhost, 1, DType::F32, budget) / 2.0 * 1e6
}

/// All-gather and reduce-scatter milliseconds at the FSDP shard size of
/// this model (one chunk of `L / P` layers sharded over the ranks), at the
/// workload's wire dtype and transport.
pub fn collectives_ms(setup: &TrainSetup, budget: Duration) -> (f64, f64) {
    let full = ring_chunk_elems(setup).div_ceil(RANKS) * RANKS;
    let wire = setup.wire;
    let body = |c: &mut Communicator, lead: bool| {
        let shard = randn(full / RANKS, 11 + c.rank() as u64);
        let grads = randn(full, 13 + c.rank() as u64);
        let mut timed = |f: &mut dyn FnMut(&mut Communicator)| -> f64 {
            if lead {
                let secs = median_secs(budget, 3, || {
                    c.send(1, 0, &[GO], DType::F32).expect("probe control");
                    f(c);
                });
                c.send(1, 0, &[STOP], DType::F32).expect("probe stop");
                secs
            } else {
                while c.recv(0, 0).expect("probe control")[0] == GO {
                    f(c);
                }
                0.0
            }
        };
        let gather = timed(&mut |c| {
            black_box(c.all_gather(&shard, wire).expect("all-gather"));
        });
        let scatter = timed(&mut |c| {
            black_box(c.reduce_scatter_sum(&grads, wire).expect("reduce-scatter"));
        });
        (gather * 1e3, scatter * 1e3)
    };
    pair(
        setup.transport,
        |c| body(c, true),
        |c| {
            body(c, false);
        },
    )
}

/// Schedule build plus validation, milliseconds.
pub fn build_validate_ms(w: Workload, setup: &TrainSetup, budget: Duration) -> f64 {
    median_secs(budget, 5, || {
        black_box(build_schedule(w.strategy(), RANKS, setup));
    }) * 1e3
}
