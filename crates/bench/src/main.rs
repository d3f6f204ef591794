//! `ds` — the direct-store simulator's one command.
//!
//! Every tool is a subcommand: the sweeps, tracing and audits, the job
//! service and its client, and the paper's tables, figures and
//! ablations. [`COMMANDS`] both dispatches and prints `ds --help`, and
//! every subcommand reads its flags through [`cli::Args`].
//!
//! ```text
//! ds <subcommand> [options]
//! ds --help
//! ```

mod ablate;
mod chaos;
mod cli;
mod lens;
mod paper;
mod prof;
mod pulse;
mod run;
mod scope;
mod serve;
mod trace;
mod xray;

use cli::{Args, Cli, Parsed};

/// One subcommand: its name (the words after `ds`), a one-line
/// summary for `ds --help`, its usage text, and its entry point.
struct Command(
    &'static str,
    &'static str,
    &'static str,
    fn(Args) -> Parsed<()>,
);

/// Every subcommand, in `ds --help` order. A name matches when its
/// words start the command line.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command("run", "CCSM-vs-direct-store comparison sweep", run::USAGE, run::main),
    Command("trace", "trace one run: summary, JSONL, Chrome, epochs", trace::USAGE, trace::main),
    Command("xray", "per-stage stall stacks of one benchmark", xray::USAGE, xray::main),
    Command("lens", "per-cacheline push efficacy and heatmaps", lens::USAGE, lens::main),
    Command("prof", "host-time self-profile of the simulator", prof::USAGE, prof::main),
    Command("pulse", "cycle-domain time series of one run", pulse::USAGE, pulse::main),
    Command("chaos", "fault-injection sweep and audit", chaos::USAGE, chaos::main),
    Command("scope --check", "span-tree audit over the small catalog", scope::USAGE, scope::check),
    Command("scope summary", "span-tree summary of a served job", scope::USAGE, scope::summary),
    Command("scope merge", "one Perfetto trace from job spans", scope::USAGE, scope::merge),
    Command("serve --check", "self-audit of the job service", serve::SERVE_USAGE, serve::check),
    Command("serve", "run the simulation service", serve::SERVE_USAGE, serve::serve),
    Command("submit", "submit a sweep, print `ds run` JSON", serve::SUBMIT_USAGE, serve::submit),
    Command("status", "print a job's status document", serve::JOB_USAGE, serve::status),
    Command("results", "print a job's results document", serve::JOB_USAGE, serve::results),
    Command("watch", "tail a job's live telemetry", serve::JOB_USAGE, serve::watch),
    Command("metrics", "print a server's /metrics document", serve::URL_USAGE, serve::metrics),
    Command("stress", "seeded load test of a server", serve::STRESS_USAGE, serve::stress),
    Command("drill", "seeded crash-and-recover drill", serve::DRILL_USAGE, serve::drill),
    Command("shutdown", "ask a server to shut down", serve::URL_USAGE, serve::shutdown),
    Command("table1", "Table I: system configuration", paper::TABLE1_USAGE, paper::table1),
    Command("table2", "Table II: benchmark inventory", paper::TABLE2_USAGE, paper::table2),
    Command("fig1", "Fig. 1: CCSM vs DS data movement", paper::FIG1_USAGE, paper::fig1),
    Command("fig2", "Fig. 2: control flow and topology", paper::FIG2_USAGE, paper::fig2),
    Command("fig3", "Fig. 3: modified Hammer transitions", paper::FIG3_USAGE, paper::fig3),
    Command("fig4", "Fig. 4: direct-store speedup", paper::FIG4_USAGE, paper::fig4),
    Command("fig5", "Fig. 5: GPU L2 miss rates", paper::FIG5_USAGE, paper::fig5),
    Command("export-csv", "the full evaluation as CSV", paper::EXPORT_CSV_USAGE, paper::export_csv),
    Command("diag", "full run reports of one benchmark", paper::DIAG_USAGE, paper::diag),
    Command("ablate directory", "broadcast vs directory hub", ablate::DIRECTORY_USAGE, ablate::directory),
    Command("ablate dram", "FCFS vs FR-FCFS DRAM scheduling", ablate::DRAM_USAGE, ablate::dram),
    Command("ablate l2size", "GPU L2 capacity sweep", ablate::L2SIZE_USAGE, ablate::l2size),
    Command("ablate network", "direct-network latency sweep", ablate::NETWORK_USAGE, ablate::network),
    Command("ablate policy", "cache replacement policies", ablate::POLICY_USAGE, ablate::policy),
    Command("ablate prefetch", "direct store vs prefetching", ablate::PREFETCH_USAGE, ablate::prefetch),
    Command("ablate replacement", "DS complement vs replacement", ablate::REPLACEMENT_USAGE, ablate::replacement),
    Command("ablate storebuf", "store-buffer depth sweep", ablate::STOREBUF_USAGE, ablate::storebuf),
];

fn overview() -> String {
    let mut s = String::from(
        "usage: ds <subcommand> [options]\n\n\
         The direct-store simulator: sweeps, tracing and audits, the job\n\
         service and its client, and the paper's tables, figures and\n\
         ablations. A usage error prints the subcommand's usage.\n\n\
         subcommands:\n",
    );
    for Command(name, about, ..) in COMMANDS {
        s.push_str(&format!("  {name:<20} {about}\n"));
    }
    s.push_str(
        "\nexit codes: 0 ok; 1 failure; 2 usage; 3 empty trace (trace and\n\
         xray --check); 7 submission refused with 429 (submit)",
    );
    s
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let words: Vec<&str> = argv.iter().map(String::as_str).collect();
    let found = COMMANDS
        .iter()
        .find(|Command(name, ..)| words.starts_with(&name.split(' ').collect::<Vec<_>>()));
    let Some(Command(name, _, usage, run)) = found else {
        match words.first() {
            Some(&("--help" | "-h" | "help")) => return println!("{}", overview()),
            Some(other) => eprintln!("ds: unknown subcommand {other:?}\n\n{}", overview()),
            None => eprintln!("ds: missing subcommand\n\n{}", overview()),
        }
        std::process::exit(2);
    };
    cli::set_command(name);
    match run(Args::new(argv[name.split(' ').count()..].to_vec())) {
        Ok(()) => {}
        Err(Cli::Help) => println!("{usage}"),
        Err(Cli::Usage(message)) => {
            eprintln!("ds {name}: {message}\n\n{usage}");
            std::process::exit(2);
        }
    }
}
