//! `ds lens` — per-cacheline coherence forensics and push efficacy.
//!
//! Runs one benchmark under both CCSM and direct store with the line
//! lens attached and reports what became of every pushed line: the
//! useful / dead / clobbered efficacy partition (reconciled exactly
//! against the caches' `pushed_fills` counter), per-line sharing
//! pathologies (write-after-push, ping-pong), and spatial traffic
//! heatmaps over L2 slices, DRAM banks and NoC links.
//!
//! ```text
//! ds lens --bench VA [--input small|big] [--top K]
//!         [--format text|csv] [--check] [--out FILE]
//! ds lens --check            # sweep every Table II benchmark
//! ```

use ds_bench::pct;
use ds_core::{FaultPlan, InputSize, Mode, Pipeline, RunReport, Scenario, SystemConfig};
use ds_probe::{LensReport, LineHistory, LineLens, NetId, NullTracer, SliceTraffic};

use crate::cli::{fail, unknown, usage, Args, Cli, Parsed};

pub const USAGE: &str = "usage: ds lens [--bench CODE] [options]

Runs one benchmark under both CCSM and direct store and prints
per-cacheline push efficacy, sharing forensics and spatial traffic
heatmaps. With --check and no --bench, sweeps every Table II
benchmark verifying the reconciliation identities.

options:
  --bench CODE       Table II benchmark code, e.g. VA (required
                     unless --check sweeps the whole catalog)
  --input small|big  input size (default: small)
  --top K            forensic lines to print per mode (default: 5)
  --format text|csv  report format (default: text); csv emits the
                     three heatmap matrices as CSV tables
  --check            verify the reconciliation identities and exit
                     non-zero on any violation
  --out FILE         write the report to FILE instead of stdout
  --help             show this help";

/// Intensity ramp for ASCII heatmaps, dimmest to hottest.
const RAMP: &[u8] = b" .:-=+*#%@";

/// Everything `ds lens` derives from one lensed run.
struct ModeView {
    report: RunReport,
    lens: LineLens,
}

fn run_mode(code: &str, input: InputSize, mode: Mode) -> ModeView {
    let bench = ds_workloads::catalog::by_code(code)
        .unwrap_or_else(|| fail(&format!("unknown benchmark code {code:?} (see Table II)")));
    let pipeline = Pipeline::with_config(SystemConfig::paper_default());
    let (result, probes) =
        pipeline.run(&bench, input, mode, NullTracer, &FaultPlan::default(), None);
    let report = result.unwrap_or_else(|e| fail(&e.to_string()));
    let lens = probes
        .lens
        .expect("ds lens runs at the default full probe level");
    ModeView { report, lens }
}

/// One intensity character for `value` on a 0..=max scale.
fn heat(value: u64, max: u64) -> char {
    if max == 0 {
        return RAMP[0] as char;
    }
    let idx = (value as u128 * (RAMP.len() - 1) as u128).div_ceil(max as u128);
    RAMP[idx as usize] as char
}

fn p(h: &ds_sim::Histogram, q: f64) -> u64 {
    h.percentile(q).unwrap_or(0)
}

fn render_efficacy(out: &mut String, label: &str, view: &ModeView) {
    let r = &view.report;
    let l = &r.lens;
    let installed = r.gpu_l2.pushed_fills.value();
    out.push_str(&format!(
        "push efficacy ({label})\n\
         {:22} {:>10}   (= pushed_fills)\n",
        "installed pushes", installed
    ));
    for (name, n, note) in [
        ("useful", l.push_useful, "GPU touched before loss"),
        ("dead", l.push_dead, "lost untouched"),
        ("clobbered", l.push_clobbered, "re-pushed before use"),
    ] {
        out.push_str(&format!(
            "  {name:20} {n:>10}   {:>5.1}%  ({note})\n",
            pct(n, installed)
        ));
    }
    out.push_str(&format!(
        "{:22} {:>10}   (set full, to DRAM)\n\
         {:22} {:>10}   (retries exhausted, to DRAM home)\n\
         {:22} {:>10}   (= direct_pushes = installed + bypassed)\n\
         {:22} {:>10}   (useful first touches + re-hits)\n\
         {:22} {:>10} / {} cycles\n\n",
        "bypassed pushes",
        l.push_bypasses,
        "degraded pushes",
        l.push_degraded,
        "drained pushes",
        r.direct_pushes,
        "push hits",
        r.gpu_l2.push_hits.value(),
        "first touch p50/p99",
        p(&l.first_touch, 50.0),
        p(&l.first_touch, 99.0),
    ));
}

fn render_forensics(out: &mut String, label: &str, view: &ModeView, top: usize) {
    let l = &view.report.lens;
    out.push_str(&format!(
        "sharing forensics ({label})\n\
         {:22} {:>10} / {}\n\
         {:22} {:>10}   (first GPU touch was a store)\n\
         {:22} {:>10}   (CPU re-claimed a used push)\n\
         {:22} {:>10} / {} cycles (GPU L2-level)\n",
        "lines touched/pushed",
        l.lines_touched,
        l.lines_pushed,
        "write-after-push",
        l.write_after_push,
        "ping-pongs",
        l.ping_pongs,
        "reuse dist p50/p99",
        p(&l.reuse, 50.0),
        p(&l.reuse, 99.0),
    ));
    // The hottest histories: most-pushed lines first (most-accessed as
    // the no-push tiebreak), line index breaking ties for determinism.
    let mut lines: Vec<(u64, &LineHistory)> = view.lens.lines().collect();
    lines.sort_by(|a, b| {
        (b.1.pushes, b.1.gpu_accesses, a.0).cmp(&(a.1.pushes, a.1.gpu_accesses, b.0))
    });
    let k = top.min(lines.len());
    if k > 0 {
        out.push_str("  hottest lines:\n");
    }
    for &(line, h) in lines.iter().take(k) {
        out.push_str(&format!(
            "    line {line:#08x}: {} pushes ({} useful, {} dead, {} clobbered), \
             {} gpu accesses, {} ping-pongs\n",
            h.pushes, h.useful, h.dead, h.clobbered, h.gpu_accesses, h.ping_pongs
        ));
        let trail: Vec<String> = h
            .events
            .iter()
            .take(8)
            .map(|e| format!("{}@{}", e.kind.name(), e.cycle))
            .collect();
        let more = if h.events.len() > 8 { " ..." } else { "" };
        out.push_str(&format!("      {}{more}\n", trail.join(" ")));
    }
    out.push('\n');
}

fn render_heatmaps(out: &mut String, label: &str, lens: &LensReport) {
    // L2 slices: numeric table plus a heat bar over total traffic.
    out.push_str(&format!("L2 slice traffic ({label})\n  {:5}", "slice"));
    for col in SliceTraffic::COLUMNS {
        out.push_str(&format!(" {col:>13}"));
    }
    out.push_str("  heat\n");
    let max_slice = lens
        .slices
        .iter()
        .map(|s| s.hits + s.misses)
        .max()
        .unwrap_or(0);
    for (i, s) in lens.slices.iter().enumerate() {
        out.push_str(&format!("  {i:<5}"));
        for v in s.row() {
            out.push_str(&format!(" {v:>13}"));
        }
        out.push_str(&format!("  {}\n", heat(s.hits + s.misses, max_slice)));
    }
    // DRAM banks: one intensity character per bank.
    let max_bank = lens.banks.iter().map(|b| b.total()).max().unwrap_or(0);
    let strip: String = lens
        .banks
        .iter()
        .map(|b| heat(b.total(), max_bank))
        .collect();
    let (reads, writes, row_hits) = lens.banks.iter().fold((0u64, 0u64, 0u64), |(r, w, h), b| {
        (r + b.reads, w + b.writes, h + b.row_hits)
    });
    out.push_str(&format!(
        "DRAM bank heat ({label}, {} banks, hottest {})\n  [{strip}]  \
         reads={reads} writes={writes} row_hits={row_hits}\n",
        lens.banks.len(),
        max_bank
    ));
    // NoC links: one src x dst intensity matrix per network.
    out.push_str(&format!("NoC link heat ({label})\n"));
    for net in [NetId::Coherence, NetId::Direct, NetId::GpuInternal] {
        let links: Vec<_> = lens.links.iter().filter(|l| l.net == net).collect();
        let (control, data) = lens.net_sums(net);
        if links.is_empty() {
            out.push_str(&format!("  {}: no traffic\n", net.name()));
            continue;
        }
        let ports = 1 + links.iter().map(|l| l.src.max(l.dst)).max().unwrap_or(0) as usize;
        let max_link = links.iter().map(|l| l.total()).max().unwrap_or(0);
        out.push_str(&format!(
            "  {} (rows src, cols dst; {control} control + {data} data msgs)\n",
            net.name()
        ));
        for src in 0..ports {
            let row: String = (0..ports)
                .map(|dst| {
                    let total = links
                        .iter()
                        .filter(|l| l.src as usize == src && l.dst as usize == dst)
                        .map(|l| l.total())
                        .sum::<u64>();
                    heat(total, max_link)
                })
                .collect();
            out.push_str(&format!("    {src:>2} [{row}]\n"));
        }
    }
    out.push('\n');
}

fn render_text(code: &str, input: InputSize, ccsm: &ModeView, ds: &ModeView, top: usize) -> String {
    let (cc, dc) = (
        ccsm.report.total_cycles.as_u64(),
        ds.report.total_cycles.as_u64(),
    );
    let speedup = if dc == 0 { 0.0 } else { cc as f64 / dc as f64 };
    let mut out = format!(
        "dslens: {code} {input} — ccsm {cc} cycles, ds {dc} cycles, speedup {speedup:.3}\n\n"
    );
    render_efficacy(&mut out, "ds", ds);
    render_forensics(&mut out, "ds", ds, top);
    render_heatmaps(&mut out, "ds", &ds.report.lens);
    out.push_str(&format!(
        "ccsm baseline: {} pushes (must be 0), {} lines touched\n",
        ccsm.report.lens.push_total() + ccsm.report.lens.push_bypasses,
        ccsm.report.lens.lines_touched
    ));
    render_heatmaps(&mut out, "ccsm", &ccsm.report.lens);
    out
}

/// The three heatmap matrices as CSV tables, both modes stacked.
fn render_csv(views: &[(&str, &ModeView)]) -> String {
    let mut out = String::from("mode,slice,");
    out.push_str(&SliceTraffic::COLUMNS.join(","));
    out.push('\n');
    for (label, v) in views {
        for (i, s) in v.report.lens.slices.iter().enumerate() {
            let row: Vec<String> = s.row().iter().map(u64::to_string).collect();
            out.push_str(&format!("{label},{i},{}\n", row.join(",")));
        }
    }
    out.push_str("\nmode,bank,reads,writes,row_hits\n");
    for (label, v) in views {
        for (i, b) in v.report.lens.banks.iter().enumerate() {
            out.push_str(&format!(
                "{label},{i},{},{},{}\n",
                b.reads, b.writes, b.row_hits
            ));
        }
    }
    out.push_str("\nmode,net,src,dst,control,data\n");
    for (label, v) in views {
        for l in &v.report.lens.links {
            out.push_str(&format!(
                "{label},{},{},{},{},{}\n",
                l.net.name(),
                l.src,
                l.dst,
                l.control,
                l.data
            ));
        }
    }
    out
}

/// Verifies the lens reconciliation identities for one mode's run;
/// returns human-readable violations (empty means all hold).
fn check_view(label: &str, view: &ModeView) -> Vec<String> {
    let mut errs = Vec::new();
    let r = &view.report;
    let l = &r.lens;
    let mut check = |ok: bool, msg: String| {
        if !ok {
            errs.push(format!("{label}: {msg}"));
        }
    };
    let installed = r.gpu_l2.pushed_fills.value();
    check(
        l.push_total() == installed,
        format!(
            "useful {} + dead {} + clobbered {} != pushed_fills {installed}",
            l.push_useful, l.push_dead, l.push_clobbered
        ),
    );
    check(
        l.push_bypasses == r.push_bypasses,
        format!(
            "lens bypasses {} != runtime bypasses {}",
            l.push_bypasses, r.push_bypasses
        ),
    );
    check(
        l.push_degraded == r.pushes_degraded,
        format!(
            "lens degraded {} != runtime degraded {}",
            l.push_degraded, r.pushes_degraded
        ),
    );
    check(
        installed + l.push_bypasses == r.direct_pushes,
        format!(
            "installed {installed} + bypassed {} != drained pushes {}",
            l.push_bypasses, r.direct_pushes
        ),
    );
    check(
        l.first_touch.samples() == l.push_useful,
        format!(
            "{} first-touch samples for {} useful pushes",
            l.first_touch.samples(),
            l.push_useful
        ),
    );
    check(
        l.push_useful <= r.gpu_l2.push_hits.value(),
        format!(
            "useful {} exceeds push hits {}",
            l.push_useful,
            r.gpu_l2.push_hits.value()
        ),
    );
    // Heatmap row sums reconcile against the aggregate counters.
    let sums = l.slices.iter().fold([0u64; 9], |mut acc, s| {
        for (a, v) in acc.iter_mut().zip(s.row()) {
            *a += v;
        }
        acc
    });
    for (col, lens_sum, counter) in [
        ("hits", sums[0], r.gpu_l2.hits.value()),
        ("misses", sums[1], r.gpu_l2.misses.value()),
        ("push_fills", sums[3], r.gpu_l2.pushed_fills.value()),
        ("push_hits", sums[4], r.gpu_l2.push_hits.value()),
        ("evictions", sums[6], r.gpu_l2.evictions.value()),
        ("writebacks", sums[7], r.gpu_l2.writebacks.value()),
    ] {
        check(
            lens_sum == counter,
            format!("slice {col} sum {lens_sum} != gpu_l2 counter {counter}"),
        );
    }
    let (reads, writes, row_hits) = l.banks.iter().fold((0u64, 0u64, 0u64), |(rd, w, h), b| {
        (rd + b.reads, w + b.writes, h + b.row_hits)
    });
    check(
        reads == r.dram_reads,
        format!("bank read sum {reads} != dram_reads {}", r.dram_reads),
    );
    check(
        writes == r.dram_writes,
        format!("bank write sum {writes} != dram_writes {}", r.dram_writes),
    );
    check(
        row_hits == r.dram_row_hits,
        format!(
            "bank row-hit sum {row_hits} != dram_row_hits {}",
            r.dram_row_hits
        ),
    );
    for (net, xbar) in [
        (NetId::Coherence, &r.coh_net),
        (NetId::Direct, &r.direct_net),
        (NetId::GpuInternal, &r.gpu_net),
    ] {
        let (control, data) = l.net_sums(net);
        check(
            control == xbar.control_msgs && data == xbar.data_msgs,
            format!(
                "{} link sums ({control}, {data}) != xbar ({}, {})",
                net.name(),
                xbar.control_msgs,
                xbar.data_msgs
            ),
        );
    }
    check(l.lines_touched > 0, "run touched no lines".into());
    errs
}

/// CCSM has no direct-store path: the lens must contain zero push
/// records of any kind.
fn check_ccsm_quiescence(view: &ModeView) -> Vec<String> {
    let mut errs = Vec::new();
    let l = &view.report.lens;
    if l.push_total() != 0 || l.push_bypasses != 0 || l.push_degraded != 0 {
        errs.push(format!(
            "ccsm: nonzero push records (partition {}, bypasses {}, degraded {})",
            l.push_total(),
            l.push_bypasses,
            l.push_degraded
        ));
    }
    if l.lines_pushed != 0 {
        errs.push(format!("ccsm: {} lines marked pushed", l.lines_pushed));
    }
    if l.net_sums(NetId::Direct) != (0, 0) {
        errs.push("ccsm: direct-network links carried traffic".into());
    }
    if view.lens.lines().any(|(_, h)| h.pushes > 0) {
        errs.push("ccsm: a line history records a push".into());
    }
    errs
}

fn check_bench(code: &str, input: InputSize) -> Vec<String> {
    let ccsm = run_mode(code, input, Mode::Ccsm);
    let ds = run_mode(code, input, Mode::DirectStore);
    let mut errs: Vec<String> = check_view(&format!("{code} ccsm"), &ccsm);
    errs.extend(check_view(&format!("{code} ds"), &ds));
    errs.extend(
        check_ccsm_quiescence(&ccsm)
            .into_iter()
            .map(|e| format!("{code} {e}")),
    );
    errs
}

pub fn main(mut args: Args) -> Parsed<()> {
    let mut code: Option<String> = None;
    let mut input = InputSize::Small;
    let mut top = 5;
    let mut csv = false;
    let mut check = false;
    let mut out: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--bench" => code = Some(args.value("--bench")?),
            "--input" => input = args.input()?,
            "--top" => top = args.parsed("--top", "a non-negative integer")?,
            "--format" => {
                csv = args.choice("--format", "format", &[("text", false), ("csv", true)])?
            }
            "--check" => check = true,
            "--out" => out = Some(args.value("--out")?),
            "--help" | "-h" => return Err(Cli::Help),
            other => return unknown(other),
        }
    }

    let Some(code) = code else {
        if !check {
            return usage("--bench is required (or pass --check to sweep the catalog)");
        }
        // Catalog sweep: reconciliation must hold on every workload.
        let mut failed = false;
        for bench in ds_workloads::catalog::all() {
            let errs = check_bench(bench.code(), input);
            if errs.is_empty() {
                eprintln!("ds lens: {:4} reconciles", bench.code());
            } else {
                failed = true;
                for e in &errs {
                    eprintln!("ds lens: check failed: {e}");
                }
            }
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!("ds lens: all lens identities hold on every workload");
        return Ok(());
    };

    let ccsm = run_mode(&code, input, Mode::Ccsm);
    let ds = run_mode(&code, input, Mode::DirectStore);

    if check {
        let mut errs = check_view("ccsm", &ccsm);
        errs.extend(check_view("ds", &ds));
        errs.extend(check_ccsm_quiescence(&ccsm));
        if !errs.is_empty() {
            for e in &errs {
                eprintln!("ds lens: check failed: {e}");
            }
            std::process::exit(1);
        }
        eprintln!("ds lens: all lens identities hold");
    }

    let text = if csv {
        render_csv(&[("CCSM", &ccsm), ("DS", &ds)])
    } else {
        render_text(&code, input, &ccsm, &ds, top)
    };

    match &out {
        Some(path) => {
            std::fs::write(path, &text)
                .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
            eprintln!("ds lens: {code} {input} -> {path}");
        }
        None => print!("{text}"),
    }
    Ok(())
}
