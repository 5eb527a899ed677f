//! Kernel microbenchmark: GEMM, long-context attention + transformer block.
//!
//! Times the hot-path kernels (streaming attention forward/backward and a
//! full block forward + fused backward) at long context, printing a small
//! table suitable for `results/kernels.txt`. Each kernel is timed twice:
//! once forced onto the sequential path and once through the parallel
//! dispatch, so the table shows the speedup directly. The GEMM line is
//! absolute: GFLOP/s over one block's 21 matmuls at S=256, through the
//! micro-kernel this host dispatches to (named in the report's notes).
//!
//! Run with `--smoke` for a fast CI-sized configuration; smoke mode also
//! checks (a) the parallel path is bit-identical to the sequential one and
//! (b) steady-state kernel iterations perform zero heap allocations once
//! the scratch arena is warm. Failed checks exit nonzero with a one-line
//! reason (no backtrace), and every run writes the measured speedups and
//! alloc counts to `results/bench_kernels.json` for the regression gate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use wp_bench::ci::{self, Report};
use wp_nn::attention::{streaming_backward, streaming_forward, AttnDims};
use wp_nn::block::{block_backward_full, block_forward};
use wp_nn::config::{AttnKind, ModelConfig};
use wp_nn::params::init_block;
use wp_nn::scratch::Scratch;
use wp_tensor::ops::{gemm_kernel_name, matmul_nn, matmul_nt, matmul_tn};
use wp_tensor::Tensor;

/// Global allocator that counts every allocation, so smoke mode can prove
/// the warm kernel path never touches the heap.
struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn time_best<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

struct AttnData {
    dims: AttnDims,
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    dout: Vec<f32>,
}

impl AttnData {
    fn new(seq: usize) -> Self {
        let dims = AttnDims::mha(1, seq, 4, 64);
        let n = dims.batch * dims.seq * dims.heads * dims.head_dim;
        AttnData {
            dims,
            q: Tensor::rand_uniform([n], -1.0, 1.0, 1).into_vec(),
            k: Tensor::rand_uniform([n], -1.0, 1.0, 2).into_vec(),
            v: Tensor::rand_uniform([n], -1.0, 1.0, 3).into_vec(),
            dout: Tensor::rand_uniform([n], -1.0, 1.0, 4).into_vec(),
        }
    }
}

fn bench_attention(seq: usize, reps: usize, report: &mut Report) {
    let d = AttnData::new(seq);
    let n = d.q.len();
    let sc = Scratch::new();
    let mut o = vec![0.0f32; n];

    let run_fwd = |o: &mut [f32], sc: &Scratch| streaming_forward(o, &d.q, &d.k, &d.v, d.dims, sc);
    let fwd_seq = time_best(reps, || {
        rayon::force_sequential(|| {
            let _ = run_fwd(&mut o, &sc);
        });
    });
    let fwd_par = time_best(reps, || {
        let _ = run_fwd(&mut o, &sc);
    });

    let ctx = run_fwd(&mut o, &sc);
    let (mut dq, mut dk, mut dv) = (vec![0.0f32; n], vec![0.0f32; n], vec![0.0f32; n]);
    let run_bwd = |dq: &mut [f32], dk: &mut [f32], dv: &mut [f32]| {
        dq.fill(0.0);
        dk.fill(0.0);
        dv.fill(0.0);
        streaming_backward(dq, dk, dv, &d.dout, &d.q, &d.k, &d.v, &o, &ctx, d.dims, &sc);
    };
    let bwd_seq = time_best(reps, || {
        rayon::force_sequential(|| run_bwd(&mut dq, &mut dk, &mut dv));
    });
    let bwd_par = time_best(reps, || run_bwd(&mut dq, &mut dk, &mut dv));

    println!(
        "attention  S={seq:<5} fwd {:>9.1} ms (seq {:>9.1}, x{:.2})   bwd {:>9.1} ms (seq {:>9.1}, x{:.2})",
        fwd_par * 1e3,
        fwd_seq * 1e3,
        fwd_seq / fwd_par,
        bwd_par * 1e3,
        bwd_seq * 1e3,
        bwd_seq / bwd_par,
    );
    report
        .metric("attn_fwd_speedup", fwd_seq / fwd_par)
        .metric("attn_bwd_speedup", bwd_seq / bwd_par);
}

/// GFLOP/s over the 21 `matmul_nt`/`nn`/`tn` calls of one block's forward,
/// data-backward and weight-backward at S=256, with `bench_block`'s model
/// shape and the `(m, k, n)` arguments `block.rs` passes.
fn bench_gemm(reps: usize, report: &mut Report) {
    let seq = 256;
    let cfg = ModelConfig::llama_like(256, 4, 1, 64, seq);
    let (t, h, kv, f) = (seq, cfg.hidden, cfg.kv_dim(), cfg.ffn);
    type Matmul = fn(&mut [f32], &[f32], &[f32], usize, usize, usize);
    let (nt, nn, tn): (Matmul, Matmul, Matmul) = (matmul_nt, matmul_nn, matmul_tn);
    let calls = [
        (nt, t, h, h),
        (nt, t, h, kv),
        (nt, t, h, kv),
        (nt, t, h, h),
        (nt, t, h, f),
        (nt, t, h, f),
        (nt, t, f, h),
        (nn, t, h, f),
        (nn, t, f, h),
        (nn, t, f, h),
        (nn, t, h, h),
        (nn, t, h, h),
        (nn, t, kv, h),
        (nn, t, kv, h),
        (tn, h, t, f),
        (tn, f, t, h),
        (tn, f, t, h),
        (tn, h, t, h),
        (tn, h, t, h),
        (tn, kv, t, h),
        (tn, kv, t, h),
    ];
    let mut bufs: Vec<_> = (0u64..)
        .zip(&calls)
        .map(|(i, &(_, m, k, n))| {
            (
                vec![0.0f32; m * n],
                Tensor::rand_uniform([m * k], -1.0, 1.0, 20 + i).into_vec(),
                Tensor::rand_uniform([k * n], -1.0, 1.0, 50 + i).into_vec(),
            )
        })
        .collect();
    let flops: usize = calls.iter().map(|&(_, m, k, n)| 2 * m * k * n).sum();
    let secs = time_best(reps.max(5), || {
        for (&(mm, m, k, n), (c, a, b)) in calls.iter().zip(bufs.iter_mut()) {
            mm(c, a, b, m, k, n);
        }
    });
    let gflops = flops as f64 / secs / 1e9;
    let kernel = gemm_kernel_name();
    println!("gemm       S={seq:<5} {gflops:>9.1} GFLOP/s over one block's 21 matmuls ({kernel})");
    report
        .metric("gemm_gflops", gflops)
        .note("gemm_kernel", kernel);
}

fn bench_block(seq: usize, reps: usize, report: &mut Report) {
    let mut cfg = ModelConfig::llama_like(256, 4, 1, 64, seq);
    cfg.attn = AttnKind::Streaming;
    let rope = cfg.rope_table();
    let w = init_block(&cfg, 7, 0);
    let n = seq * cfg.hidden;
    let x = Tensor::rand_uniform([n], -0.5, 0.5, 8).into_vec();
    let dy = Tensor::rand_uniform([n], -1.0, 1.0, 9).into_vec();
    let sc = Scratch::new();

    let fwd_seq = time_best(reps, || {
        rayon::force_sequential(|| {
            let _ = block_forward(&cfg, &rope, &w, &x, 1, seq, &sc);
        });
    });
    let fwd_par = time_best(reps, || {
        let _ = block_forward(&cfg, &rope, &w, &x, 1, seq, &sc);
    });
    let (_, ctx) = block_forward(&cfg, &rope, &w, &x, 1, seq, &sc);
    let mut dw = vec![0.0f32; w.len()];
    let bwd_seq = time_best(reps, || {
        dw.fill(0.0);
        rayon::force_sequential(|| {
            let _ = block_backward_full(&cfg, &rope, &w, &ctx, &dy, &mut dw, 1, seq, &sc);
        });
    });
    let bwd_par = time_best(reps, || {
        dw.fill(0.0);
        let _ = block_backward_full(&cfg, &rope, &w, &ctx, &dy, &mut dw, 1, seq, &sc);
    });
    println!(
        "block      S={seq:<5} fwd {:>9.1} ms (seq {:>9.1}, x{:.2})   bwd {:>9.1} ms (seq {:>9.1}, x{:.2})",
        fwd_par * 1e3,
        fwd_seq * 1e3,
        fwd_seq / fwd_par,
        bwd_par * 1e3,
        bwd_seq * 1e3,
        bwd_seq / bwd_par,
    );
    report
        .metric("block_fwd_speedup", fwd_seq / fwd_par)
        .metric("block_bwd_speedup", bwd_seq / bwd_par);
}

/// Smoke check 1: the parallel dispatch must be bit-identical to the forced
/// sequential path for the same inputs.
fn check_bit_identity(seq: usize) -> Result<(), String> {
    let d = AttnData::new(seq);
    let n = d.q.len();
    let sc = Scratch::new();

    let run = |sc: &Scratch| {
        let mut o = vec![0.0f32; n];
        let ctx = streaming_forward(&mut o, &d.q, &d.k, &d.v, d.dims, sc);
        let (mut dq, mut dk, mut dv) = (vec![0.0f32; n], vec![0.0f32; n], vec![0.0f32; n]);
        streaming_backward(
            &mut dq, &mut dk, &mut dv, &d.dout, &d.q, &d.k, &d.v, &o, &ctx, d.dims, sc,
        );
        (o, dq, dk, dv)
    };
    let par = run(&sc);
    let seq_out = rayon::force_sequential(|| run(&sc));
    for (got, want, what) in [
        (&par.0, &seq_out.0, "forward"),
        (&par.1, &seq_out.1, "dq"),
        (&par.2, &seq_out.2, "dk"),
        (&par.3, &seq_out.3, "dv"),
    ] {
        if got != want {
            return Err(format!("attention {what} not bit-identical (S={seq})"));
        }
    }
    Ok(())
}

/// Smoke check 2: once the scratch arena is warm, a full block
/// forward + backward iteration performs zero heap allocations. Returns
/// the allocation count of the measured iteration.
fn check_zero_alloc(seq: usize) -> (usize, Result<(), String>) {
    let mut cfg = ModelConfig::llama_like(128, 4, 1, 32, seq);
    cfg.attn = AttnKind::Streaming;
    let rope = cfg.rope_table();
    let w = init_block(&cfg, 11, 0);
    let n = seq * cfg.hidden;
    let x = Tensor::rand_uniform([n], -0.5, 0.5, 12).into_vec();
    let dy = Tensor::rand_uniform([n], -1.0, 1.0, 13).into_vec();
    let sc = Scratch::new();
    let mut dw = vec![0.0f32; w.len()];

    let iterate = |dw: &mut [f32]| {
        let (_, ctx) = block_forward(&cfg, &rope, &w, &x, 1, seq, &sc);
        dw.fill(0.0);
        let _ = block_backward_full(&cfg, &rope, &w, &ctx, &dy, dw, 1, seq, &sc);
    };
    // Warm the arena (and the thread pool) with two iterations.
    iterate(&mut dw);
    iterate(&mut dw);
    let before = ALLOCS.load(Ordering::SeqCst);
    iterate(&mut dw);
    let delta = ALLOCS.load(Ordering::SeqCst) - before;
    let verdict = if delta == 0 {
        Ok(())
    } else {
        Err(format!(
            "warm block fwd+bwd iteration performed {delta} heap allocations"
        ))
    };
    (delta, verdict)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (seq, reps) = if smoke { (256, 3) } else { (4096, 2) };
    println!(
        "# wp-bench kernels  (S={seq}, best of {reps}, {} threads)",
        rayon::current_num_threads()
    );
    let mut report = Report::new("kernels");
    bench_gemm(reps, &mut report);
    bench_attention(seq, reps, &mut report);
    bench_block(seq, reps, &mut report);
    if smoke {
        ci::check(
            "kernels",
            "bit-identity: parallel == sequential (attention fwd+bwd, S=192)",
            check_bit_identity(192),
        );
        let (allocs, verdict) = check_zero_alloc(seq);
        report.metric("warm_allocs", allocs as f64);
        ci::check(
            "kernels",
            "zero-alloc: warm block fwd+bwd iteration",
            verdict,
        );
    }
    match report.write(std::path::Path::new("results")) {
        Ok(path) => println!("report: {}", path.display()),
        Err(e) => ci::fail("kernels", &e),
    }
}
