//! E13 (`engine_inflation`): the payoff of certified k-inflation — the
//! same Theorem 5-certifiable single-template workload behind a k = 1
//! gate, behind a certified k = 4 gate, and on wait-die at the same
//! multiprogramming level. In-process and gate-bound: no wire workload
//! of `harness/` reaches it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ddlf_engine::{AdmissionOptions, Engine, EngineConfig, Inflation};
use ddlf_model::TransactionSystem;
use ddlf_workloads::bank_uniform_transfer;
use std::time::Duration;

/// Runs the single-template pipelined-transfer workload once under the
/// given inflation request / fallback switch and returns commits.
fn run_inflated(sys: &TransactionSystem, inflate: Inflation, n: usize, fallback: bool) -> usize {
    let engine = Engine::with_admission(
        sys.clone(),
        AdmissionOptions {
            inflate,
            ..Default::default()
        },
        EngineConfig {
            threads: 4,
            instances: n,
            force_fallback: fallback,
            // Per-lock work makes the pipeline visible: with k = 1 the
            // chain is idle while one instance works, with k = 4 four
            // instances occupy four chain positions.
            work: Duration::from_micros(20),
            ..Default::default()
        },
    );
    engine.run().committed
}

fn bench_inflation(c: &mut Criterion) {
    let (_, sys) = bank_uniform_transfer();
    let mut g = c.benchmark_group("engine_inflation");
    g.sample_size(10);
    let n = 64usize;
    g.bench_with_input(BenchmarkId::new("certified_k1", n), &n, |b, &n| {
        b.iter(|| run_inflated(&sys, Inflation::None, n, false))
    });
    g.bench_with_input(BenchmarkId::new("certified_k4", n), &n, |b, &n| {
        b.iter(|| run_inflated(&sys, Inflation::Uniform(4), n, false))
    });
    g.bench_with_input(BenchmarkId::new("wait_die_k4", n), &n, |b, &n| {
        b.iter(|| run_inflated(&sys, Inflation::Uniform(4), n, true))
    });
    g.finish();
}

criterion_group!(benches, bench_inflation);
criterion_main!(benches);
