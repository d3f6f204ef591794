//! Microbenches for the simulator's four host-time hot paths.
//!
//! `dsprof` attributes ~60% of host wall time to the event queue,
//! cache lookups, protocol transitions, and the direct-store push
//! path (see EXPERIMENTS.md, "Host-time profiling"). These benches
//! isolate each path at the unit level so a regression shows up here
//! before it moves ds-gauge's end-to-end `wall_s` and
//! `sim_mcyc_per_s`.
//!
//! Everything is deterministic: address streams come from a fixed
//! multiplicative mixer, never from a random source, so two runs of
//! `cargo bench` do identical work.

use criterion::{criterion_group, criterion_main, Criterion};

use ds_cache::{CacheArray, CacheGeometry, ReplacementPolicy};
use ds_coherence::{transition, HammerState, ProtocolEvent};
use ds_mem::{LineAddr, PhysAddr, LINE_BYTES};
use ds_sim::{Cycle, EventQueue};

/// Deterministic address stream: the i-th line of a strided, folded
/// walk over `span` lines. The multiplier is odd, so the walk visits
/// every line before repeating — a worst case for LRU stacks.
fn line(i: u64, span: u64) -> LineAddr {
    let idx = i.wrapping_mul(0x9e37_79b9) % span;
    LineAddr::containing(PhysAddr::new(idx * LINE_BYTES))
}

/// Event-queue hot path: the simulator pushes and pops one event per
/// message hop, so queue churn dominates `event_pop`/`event_push` in
/// the profile. Measures interleaved push/pop with out-of-order
/// timestamps and FIFO ties, the shape the NoC produces.
fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("hotpaths/event_queue_push_pop", |b| {
        b.iter(|| {
            let mut q: EventQueue<u64> = EventQueue::new();
            // Keep ~64 events in flight, like a busy NoC tick.
            for i in 0..64u64 {
                q.push(Cycle::new((i.wrapping_mul(0x9e37) % 97) + 1), i);
            }
            let mut drained = 0u64;
            for i in 64..4096u64 {
                let (at, ev) = q.pop().expect("queue stays non-empty");
                drained = drained.wrapping_add(at.as_u64() ^ ev);
                q.push(
                    Cycle::new(at.as_u64() + (i.wrapping_mul(0x9e37) % 97) + 1),
                    i,
                );
            }
            while let Some((at, ev)) = q.pop() {
                drained = drained.wrapping_add(at.as_u64() ^ ev);
            }
            std::hint::black_box(drained)
        })
    });
}

/// Cache-lookup hot path: every memory reference probes a tag array,
/// so `cache_lookup` self-time tracks this loop. Mixes hits (folded
/// walk inside the array) and misses-with-fill (walk over 4x the
/// capacity) at the GPU-L2-slice geometry from Table I.
fn bench_cache_lookup(c: &mut Criterion) {
    let geom = CacheGeometry::new(512 * 1024, 16).expect("paper L2 slice geometry");
    let lines = geom.lines();
    let mut g = c.benchmark_group("hotpaths/cache_lookup");
    g.sample_size(20);
    g.bench_function("hit", |b| {
        let mut array: CacheArray<HammerState> = CacheArray::new(geom, ReplacementPolicy::Lru);
        for i in 0..lines {
            array.fill(line(i, lines), HammerState::S);
        }
        b.iter(|| {
            let mut hits = 0u64;
            for i in 0..4096u64 {
                hits += u64::from(array.access(line(i, lines)).is_some());
            }
            std::hint::black_box(hits)
        })
    });
    g.bench_function("miss_fill", |b| {
        let mut array: CacheArray<HammerState> = CacheArray::new(geom, ReplacementPolicy::Lru);
        let mut i = 0u64;
        b.iter(|| {
            let mut evictions = 0u64;
            for _ in 0..4096u64 {
                evictions += u64::from(array.fill(line(i, 4 * lines), HammerState::MM).is_some());
                i += 1;
            }
            std::hint::black_box(evictions)
        })
    });
    g.finish();
}

/// Protocol hot path: the pure transition function runs once per
/// coherence event; `protocol` self-time is dominated by the
/// surrounding bookkeeping, so the floor this measures is the part
/// that cannot be shed. Sweeps every (state, event) pair, errors
/// included (illegal pairs return `Err`, which the runtime treats as
/// a protocol bug — the cost of *deciding* legality is on the path).
fn bench_protocol(c: &mut Criterion) {
    c.bench_function("hotpaths/protocol_transition", |b| {
        b.iter(|| {
            let mut legal = 0u64;
            for _ in 0..128u64 {
                for state in HammerState::ALL {
                    for event in ProtocolEvent::ALL {
                        legal += u64::from(transition(state, event).is_ok());
                    }
                }
            }
            std::hint::black_box(legal)
        })
    });
}

/// Push-path hot path: the paper's remote store leaves the CPU line
/// in `I` and lands the pushed data in the GPU L2 (`I + PutXArrive ->
/// MM`). Models the per-push work — two transitions plus the L2
/// ingest fill with its eviction — without the surrounding timing.
fn bench_push_path(c: &mut Criterion) {
    let geom = CacheGeometry::new(512 * 1024, 16).expect("paper L2 slice geometry");
    let lines = geom.lines();
    c.bench_function("hotpaths/push_ingest", |b| {
        let mut gpu_l2: CacheArray<HammerState> = CacheArray::new(geom, ReplacementPolicy::Lru);
        let mut i = 0u64;
        b.iter(|| {
            let mut pushed = 0u64;
            for _ in 0..4096u64 {
                // CPU side: the store to GPU-homed memory never
                // allocates — MM (already-owned) and I (cold) both
                // resolve to I with a push action.
                let cpu = if i.is_multiple_of(2) {
                    HammerState::MM
                } else {
                    HammerState::I
                };
                let t = transition(cpu, ProtocolEvent::RemoteStore).expect("bold edge is legal");
                std::hint::black_box(t);
                // GPU L2 side: a present line absorbs the push in
                // place (PutXArrive is only legal from I); an absent
                // one takes the blue dashed I -> MM install, with a
                // full set evicting the LRU victim.
                let addr = line(i, 2 * lines);
                match gpu_l2.state_mut(addr) {
                    Some(state) => *state = HammerState::MM,
                    None => {
                        let install = transition(HammerState::I, ProtocolEvent::PutXArrive)
                            .expect("blue dashed edge is legal");
                        std::hint::black_box(&install);
                        pushed += u64::from(gpu_l2.fill(addr, HammerState::MM).is_some());
                    }
                }
                i += 1;
            }
            std::hint::black_box(pushed)
        })
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_cache_lookup,
    bench_protocol,
    bench_push_path
);
criterion_main!(benches);
