//! E11 — event-driven vs poll-driven sessions at 1k–100k sessions, both on
//! the actor executor (poll-driven sessions go through `SessionScheduler`).
//! The wall time measured here is the *functional* cost of really running
//! both sides (mailboxes, work stealing, ready requeues); the scaling claims of E11
//! live on the deterministic simulated clock and are reported by the harness
//! (`e11.sessions_*` keys) and pinned by `tests/actor_equivalence.rs`.

use criterion::{criterion_group, criterion_main, Criterion};
use sdds_bench::workloads::{actor_scale, ActorScaleConfig};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e11_actor_scale");
    group.sample_size(10);
    for sessions in [1_000usize, 10_000] {
        group.bench_function(format!("both_engines_sessions_{sessions}"), |b| {
            b.iter(|| {
                let outcome = actor_scale(ActorScaleConfig::new(sessions));
                outcome.speedup()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
