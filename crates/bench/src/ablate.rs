//! The design-choice ablations: `ds ablate <study>`.
//!
//! Each study plans its whole run grid up front and batches it through
//! the `ds-runner` subsystem, so the configurations simulate in
//! parallel (`DS_RUNNER_JOBS` sets the worker count) while the output
//! order stays fixed.

use std::collections::HashMap;

use ds_bench::exit_on_error;
use ds_cache::{CacheGeometry, ReplacementPolicy};
use ds_core::{InputSize, Mode, RunReport, Scenario, SystemConfig};
use ds_mem::{Dram, DramConfig, DramRequest, FrFcfsScheduler, LineAddr};
use ds_runner::{dedup_tasks, Runner, Task, TaskKey};
use ds_sim::Cycle;
use ds_workloads::catalog;

use crate::cli::{no_args, sizes, unknown, Args, Parsed};

pub const DIRECTORY_USAGE: &str = "usage: ds ablate directory [--bench A,B,...]

Hammer broadcast vs a directory-filtered hub (default: VA,NN,BP,GA).
The paper keeps Hammer's broadcast; its related work (heterogeneous
system coherence, Power et al. MICRO'13) replaces the broadcast with a
region directory to tame probe traffic. The study shows how much
coherence traffic the directory removes from the CCSM baseline, and
that direct store's advantage persists on top of either hub.";

pub const DRAM_USAGE: &str = "usage: ds ablate dram

FCFS vs FR-FCFS memory scheduling on coherence-shaped traffic: how much
a first-ready scheduler would recover on the row-alternating traffic of
the CCSM pull path, bounding the error of the model's FCFS DRAM.";

pub const L2SIZE_USAGE: &str = "usage: ds ablate l2size [--bench CODE] [--input small|big]

GPU L2 slice capacity sweep, Sec. IV.C's capacity argument (default:
MM, small input): the speedup collapses once the produced footprint no
longer fits.";

pub const NETWORK_USAGE: &str = "usage: ds ablate network [--bench A,B,...]

Per-hop latency sweep of the dedicated direct network, Sec. III.G
(default: NN,VA). Pushes are pipelined behind the producing
computation, so even a slow direct network keeps most of the gain.";

pub const POLICY_USAGE: &str = "usage: ds ablate policy [--bench A,B,...]

Replacement policy of the coherent caches, small and big inputs
(default: MM,VA,SR). At small inputs nothing evicts and every policy
ties; the big-input rows are where policies differentiate.";

pub const PREFETCH_USAGE: &str = "usage: ds ablate prefetch [--bench A,B,...]

CCSM vs CCSM with a next-line GPU L2 prefetcher vs direct store, small
inputs (default: NN,VA,MM,BP).";

pub const REPLACEMENT_USAGE: &str = "usage: ds ablate replacement [--input small|big|both]

Direct store as a complement vs a stand-alone replacement for coherence,
Sec. III.H, over the whole catalog (default: both inputs).";

pub const STOREBUF_USAGE: &str = "usage: ds ablate storebuf [--bench CODE]

Store-buffer depth sweep, Sec. III.B's latency trade (default: VA,
small input): the buffer absorbs the extra CPU store latency of direct
store, and shrinking it shows where the trade bites the producer.";

/// Reads `--bench A,B,...` (default `codes`), the one flag of the
/// multi-benchmark studies.
fn bench_list(mut args: Args, codes: &[&str]) -> Parsed<Vec<String>> {
    let mut list = codes.iter().map(|c| c.to_string()).collect();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--bench" => list = args.codes()?,
            other => return unknown(other),
        }
    }
    Ok(list)
}

/// `ds ablate directory`.
pub fn directory(args: Args) -> Parsed<()> {
    let codes = bench_list(args, &["VA", "NN", "BP", "GA"])?;
    println!("ABLATION — broadcast vs directory-filtered coherence (small inputs)");
    println!("====================================================================");
    println!(
        "{:<5} {:>13} {:>13} {:>12} {:>11} {:>11}",
        "name", "bcast msgs", "dir msgs", "msgs saved", "ds% bcast", "ds% dir"
    );

    let bcast = SystemConfig::paper_default();
    let mut dir = SystemConfig::paper_default();
    dir.directory_filter = true;
    let mut tasks = Vec::new();
    for code in &codes {
        for cfg in [&bcast, &dir] {
            tasks.push(Task::new(cfg, code, InputSize::Small, Mode::Ccsm));
            tasks.push(Task::new(cfg, code, InputSize::Small, Mode::DirectStore));
        }
    }
    let reports = exit_on_error(Runner::new().run_tasks(&tasks));

    for (code, quad) in codes.iter().zip(reports.chunks(4)) {
        let (b_ccsm, b_ds, d_ccsm, d_ds) = (&quad[0], &quad[1], &quad[2], &quad[3]);
        let speedup = |c: &RunReport, d: &RunReport| {
            (c.total_cycles.as_u64() as f64 / d.total_cycles.as_u64() as f64 - 1.0) * 100.0
        };
        println!(
            "{:<5} {:>13} {:>13} {:>11.1}% {:>10.2}% {:>10.2}%",
            code,
            b_ccsm.coh_net.total_msgs(),
            d_ccsm.coh_net.total_msgs(),
            (1.0 - d_ccsm.coh_net.total_msgs() as f64 / b_ccsm.coh_net.total_msgs() as f64) * 100.0,
            speedup(b_ccsm, b_ds),
            speedup(d_ccsm, d_ds),
        );
    }
    Ok(())
}

/// Row-interleaved read/write mix modelled on a kernel-phase trace:
/// streaming reads of one region interleaved with writebacks to
/// another.
fn dram_trace(cfg: &DramConfig, requests: u64) -> Vec<DramRequest> {
    let lines_per_row = cfg.row_bytes / 128;
    let banks = u64::from(cfg.total_banks());
    let region_b = banks * lines_per_row * 64;
    (0..requests)
        .map(|i| {
            let (line, is_write) = if i % 3 == 2 {
                (region_b + (i / 3), true) // writeback stream
            } else {
                (i - i / 3, false) // demand read stream
            };
            DramRequest {
                line: LineAddr::from_index(line),
                is_write,
                arrival: Cycle::new(i),
            }
        })
        .collect()
}

/// `ds ablate dram`.
pub fn dram(args: Args) -> Parsed<()> {
    no_args(args)?;
    let cfg = DramConfig::paper_default();
    println!("ABLATION — DRAM scheduling (FCFS device vs FR-FCFS window)");
    println!("===========================================================");
    println!(
        "{:>10} {:>12} {:>12} {:>9} {:>10} {:>9}",
        "requests", "fcfs done", "frfcfs done", "gain", "reorders", "forced"
    );
    for n in [64u64, 256, 1024, 4096] {
        let reqs = dram_trace(&cfg, n);

        let mut fcfs = Dram::new(cfg.clone());
        let mut done_fcfs = Cycle::ZERO;
        for r in &reqs {
            done_fcfs = fcfs.access(r.arrival, r.line, r.is_write);
        }

        let mut fr = FrFcfsScheduler::new(cfg.clone(), 16);
        for r in &reqs {
            fr.enqueue(*r);
        }
        let done_fr = fr
            .drain(Cycle::ZERO)
            .iter()
            .map(|c| c.done)
            .max()
            .expect("non-empty trace");

        println!(
            "{:>10} {:>12} {:>12} {:>8.2}% {:>10} {:>9}",
            n,
            done_fcfs.as_u64(),
            done_fr.as_u64(),
            (done_fcfs.as_u64() as f64 / done_fr.as_u64() as f64 - 1.0) * 100.0,
            fr.reorders(),
            fr.forced()
        );
    }
    println!();
    println!("The gain bounds the speedup a smarter controller could add to the");
    println!("CCSM baseline; it applies to both modes' DRAM traffic, so the");
    println!("CCSM-vs-direct-store comparison is insensitive to it.");

    // Full-system cross-check through the runner: both modes of a
    // representative benchmark, showing the DRAM traffic the row-hit
    // argument above is about.
    println!();
    println!("full-system DRAM traffic (VA, small input):");
    let sys_cfg = SystemConfig::paper_default();
    let tasks = [
        Task::new(&sys_cfg, "VA", InputSize::Small, Mode::Ccsm),
        Task::new(&sys_cfg, "VA", InputSize::Small, Mode::DirectStore),
    ];
    let reports = exit_on_error(Runner::new().progress(false).run_tasks(&tasks));
    for (task, r) in tasks.iter().zip(&reports) {
        println!(
            "  {:>7}: reads {:>7}  writes {:>7}  row hits {:>7}",
            task.mode.to_string(),
            r.dram_reads,
            r.dram_writes,
            r.dram_row_hits
        );
    }
    Ok(())
}

const SLICE_KB: [u64; 6] = [64, 128, 256, 512, 1024, 2048];

/// `ds ablate l2size`.
pub fn l2size(mut args: Args) -> Parsed<()> {
    let mut code = "MM".to_string();
    let mut input = InputSize::Small;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--bench" => code = args.value("--bench")?,
            "--input" => input = args.input()?,
            other => return unknown(other),
        }
    }
    println!("ABLATION — GPU L2 slice capacity ({code}, {input} input)");
    println!("========================================================");

    let mut tasks = Vec::new();
    for slice_kb in SLICE_KB {
        let mut cfg = SystemConfig::paper_default();
        cfg.gpu_l2_slice = CacheGeometry::new(slice_kb * 1024, 16).expect("power-of-two slice");
        tasks.push(Task::new(&cfg, &code, input, Mode::Ccsm));
        tasks.push(Task::new(&cfg, &code, input, Mode::DirectStore));
    }
    let reports = exit_on_error(Runner::new().run_tasks(&tasks));

    for (slice_kb, pair) in SLICE_KB.iter().zip(reports.chunks(2)) {
        let ccsm = pair[0].total_cycles.as_u64();
        let ds = pair[1].total_cycles.as_u64();
        let speedup = (ccsm as f64 / ds as f64 - 1.0) * 100.0;
        println!(
            "  L2 total {:>5} KB: speedup {:>6.2}%",
            slice_kb * 4,
            speedup
        );
    }
    Ok(())
}

const LATENCIES: [u64; 6] = [5, 10, 20, 40, 80, 160];

/// `ds ablate network`.
pub fn network(args: Args) -> Parsed<()> {
    let codes = bench_list(args, &["NN", "VA"])?;
    println!("ABLATION — direct-network per-hop latency (cycles)");
    println!("===================================================");

    let base = SystemConfig::paper_default();
    let mut tasks = Vec::new();
    for code in &codes {
        tasks.push(Task::new(&base, code, InputSize::Small, Mode::Ccsm));
        for lat in LATENCIES {
            let mut cfg = SystemConfig::paper_default();
            cfg.direct_hop_latency = lat;
            tasks.push(Task::new(&cfg, code, InputSize::Small, Mode::DirectStore));
        }
    }
    // The shared CCSM baselines are deduplicated.
    let tasks = dedup_tasks(&tasks);
    let reports = exit_on_error(Runner::new().run_tasks(&tasks));
    let by_key: HashMap<TaskKey, u64> = tasks
        .iter()
        .zip(&reports)
        .map(|(t, r)| (t.key(), r.total_cycles.as_u64()))
        .collect();

    for code in &codes {
        let ccsm = by_key[&Task::new(&base, code, InputSize::Small, Mode::Ccsm).key()];
        println!("{code} (CCSM baseline: {ccsm} cycles)");
        for lat in LATENCIES {
            let mut cfg = SystemConfig::paper_default();
            cfg.direct_hop_latency = lat;
            let ds = by_key[&Task::new(&cfg, code, InputSize::Small, Mode::DirectStore).key()];
            let speedup = (ccsm as f64 / ds as f64 - 1.0) * 100.0;
            println!("  latency {lat:>4}: {ds:>10} cycles  speedup {speedup:>6.2}%");
        }
    }
    Ok(())
}

const POLICIES: [(&str, ReplacementPolicy); 4] = [
    ("lru", ReplacementPolicy::Lru),
    ("tree-plru", ReplacementPolicy::TreePlru),
    ("fifo", ReplacementPolicy::Fifo),
    ("random", ReplacementPolicy::Random { seed: 7 }),
];

/// `ds ablate policy`.
pub fn policy(args: Args) -> Parsed<()> {
    let codes = bench_list(args, &["MM", "VA", "SR"])?;
    println!("ABLATION — coherent-cache replacement policy");
    println!("=============================================");

    let mut tasks = Vec::new();
    for input in [InputSize::Small, InputSize::Big] {
        for code in &codes {
            for (_, policy) in POLICIES {
                let mut cfg = SystemConfig::paper_default();
                cfg.replacement = policy;
                tasks.push(Task::new(&cfg, code, input, Mode::Ccsm));
                tasks.push(Task::new(&cfg, code, input, Mode::DirectStore));
            }
        }
    }
    let reports = exit_on_error(Runner::new().run_tasks(&tasks));
    let mut pairs = reports.chunks(2);

    for input in [InputSize::Small, InputSize::Big] {
        println!(
            "{:<10} {:>10} {:>12} {:>12} {:>12}",
            format!("{input}"),
            "lru",
            "tree-plru",
            "fifo",
            "random"
        );
        for code in &codes {
            let mut row = format!("{code:<10}");
            for _ in POLICIES {
                let pair = pairs.next().expect("one report pair per grid cell");
                let ccsm = pair[0].total_cycles.as_u64();
                let ds = pair[1].total_cycles.as_u64();
                row.push_str(&format!(
                    " {:>11.2}%",
                    (ccsm as f64 / ds as f64 - 1.0) * 100.0
                ));
            }
            println!("{row}");
        }
    }
    Ok(())
}

/// `ds ablate prefetch`.
pub fn prefetch(args: Args) -> Parsed<()> {
    let codes = bench_list(args, &["NN", "VA", "MM", "BP"])?;
    println!("ABLATION — CCSM vs CCSM+prefetch vs direct store (small inputs)");
    println!("================================================================");
    println!(
        "{:<5} {:>10} {:>12} {:>10} {:>12} {:>12}",
        "name", "ccsm", "ccsm+pf", "ds", "ds vs ccsm", "ds vs pf"
    );

    let base = SystemConfig::paper_default();
    let mut pf_cfg = SystemConfig::paper_default();
    pf_cfg.gpu_l2_prefetch = true;
    let mut tasks = Vec::new();
    for code in &codes {
        tasks.push(Task::new(&base, code, InputSize::Small, Mode::Ccsm));
        tasks.push(Task::new(&pf_cfg, code, InputSize::Small, Mode::Ccsm));
        tasks.push(Task::new(&base, code, InputSize::Small, Mode::DirectStore));
    }
    let reports = exit_on_error(Runner::new().run_tasks(&tasks));

    for (code, triple) in codes.iter().zip(reports.chunks(3)) {
        let ccsm = triple[0].total_cycles.as_u64();
        let pf = triple[1].total_cycles.as_u64();
        let ds = triple[2].total_cycles.as_u64();
        println!(
            "{:<5} {:>10} {:>12} {:>10} {:>11.2}% {:>11.2}%",
            code,
            ccsm,
            pf,
            ds,
            (ccsm as f64 / ds as f64 - 1.0) * 100.0,
            (pf as f64 / ds as f64 - 1.0) * 100.0
        );
    }
    Ok(())
}

/// `ds ablate replacement`.
pub fn replacement(args: Args) -> Parsed<()> {
    let sizes = sizes(args)?;
    let cfg = SystemConfig::paper_default();
    let mut runner = Runner::new();
    for input in sizes {
        let codes: Vec<String> = catalog::all()
            .iter()
            .map(|b| b.code().to_string())
            .collect();
        let mut tasks = Vec::new();
        for code in &codes {
            for mode in [Mode::Ccsm, Mode::DirectStore, Mode::DirectStoreOnly] {
                tasks.push(Task::new(&cfg, code, input, mode));
            }
        }
        let reports = exit_on_error(runner.run_tasks(&tasks));

        println!();
        println!("ABLATION — DS-complement vs DS-replacement ({input} inputs)");
        println!("============================================================");
        println!(
            "{:<5} {:>10} {:>10} {:>10} {:>14}",
            "name", "ccsm", "ds", "ds-only", "coh msgs saved"
        );
        for (code, triple) in codes.iter().zip(reports.chunks(3)) {
            let (ccsm, ds, dso) = (&triple[0], &triple[1], &triple[2]);
            println!(
                "{:<5} {:>10} {:>10} {:>10} {:>14}",
                code,
                ccsm.total_cycles.as_u64(),
                ds.total_cycles.as_u64(),
                dso.total_cycles.as_u64(),
                ds.coh_net.total_msgs() - dso.coh_net.total_msgs()
            );
        }
    }
    Ok(())
}

const DEPTHS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// `ds ablate storebuf`.
pub fn storebuf(mut args: Args) -> Parsed<()> {
    let mut code = "VA".to_string();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--bench" => code = args.value("--bench")?,
            other => return unknown(other),
        }
    }
    println!("ABLATION — store-buffer entries ({code}, small input)");
    println!("======================================================");
    println!(
        "{:<8} {:>12} {:>12} {:>10} {:>12}",
        "entries", "ccsm", "ds", "speedup", "sb stalls(ds)"
    );

    let mut tasks = Vec::new();
    for entries in DEPTHS {
        let mut cfg = SystemConfig::paper_default();
        cfg.store_buffer_entries = entries;
        cfg.store_drain_parallelism = cfg.store_drain_parallelism.min(entries);
        tasks.push(Task::new(&cfg, &code, InputSize::Small, Mode::Ccsm));
        tasks.push(Task::new(&cfg, &code, InputSize::Small, Mode::DirectStore));
    }
    let reports = exit_on_error(Runner::new().run_tasks(&tasks));

    for (entries, pair) in DEPTHS.iter().zip(reports.chunks(2)) {
        let (ccsm, ds) = (&pair[0], &pair[1]);
        println!(
            "{:<8} {:>12} {:>12} {:>9.2}% {:>12}",
            entries,
            ccsm.total_cycles.as_u64(),
            ds.total_cycles.as_u64(),
            (ccsm.total_cycles.as_u64() as f64 / ds.total_cycles.as_u64() as f64 - 1.0) * 100.0,
            ds.store_buffer_stalls
        );
    }
    Ok(())
}
