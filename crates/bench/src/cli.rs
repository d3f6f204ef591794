//! The one argument parser behind every `ds` subcommand.
//!
//! A subcommand walks its arguments with [`Args`], a cursor that reads
//! flag values in the shared vocabulary: the task selector (`--bench`,
//! `--input`, `--mode`) and the value shapes several subcommands take.
//! A bad argument ends the walk with [`Cli::Usage`], which `main`
//! prints with the subcommand's usage before exiting 2.

use std::str::FromStr;
use std::sync::OnceLock;

use ds_core::{FaultKind, FaultNet, InputSize, Mode};

/// Why a subcommand stopped before doing its work.
#[derive(Debug)]
pub enum Cli {
    /// `--help`: print the subcommand's usage on stdout and exit 0.
    Help,
    /// A usage error: print it with the usage on stderr and exit 2.
    Usage(String),
}

/// A subcommand's result: its work done, or a [`Cli`] stop.
pub type Parsed<T> = Result<T, Cli>;

/// A usage error carrying `message`.
pub fn usage<T>(message: impl Into<String>) -> Parsed<T> {
    Err(Cli::Usage(message.into()))
}

static COMMAND: OnceLock<&'static str> = OnceLock::new();

/// Names the running subcommand in [`fail`] messages; `main` sets it
/// once, before the subcommand runs.
pub fn set_command(name: &'static str) {
    let _ = COMMAND.set(name);
}

/// Prints `ds <subcommand>: message` on stderr and exits 1.
pub fn fail(message: &str) -> ! {
    eprintln!("ds {}: {message}", COMMAND.get().copied().unwrap_or(""));
    std::process::exit(1);
}

/// `--input small|big`.
const INPUT: &[(&str, InputSize)] = &[("small", InputSize::Small), ("big", InputSize::Big)];

/// `--input small|big|both`.
const INPUTS: &[(&str, &[InputSize])] = &[
    ("small", &[InputSize::Small]),
    ("big", &[InputSize::Big]),
    ("both", &[InputSize::Small, InputSize::Big]),
];

/// `--mode ds|ds-only`: the direct-store side of a CCSM-vs-DS sweep.
const SWEEP_MODE: &[(&str, Mode)] = &[
    ("ds", Mode::DirectStore),
    ("ds-only", Mode::DirectStoreOnly),
];

/// `--mode ccsm|ds|ds-only` for one run; `direct` is an alias for ds.
const RUN_MODE: &[(&str, Mode)] = &[
    ("ccsm", Mode::Ccsm),
    ("ds", Mode::DirectStore),
    ("direct", Mode::DirectStore),
    ("ds-only", Mode::DirectStoreOnly),
];

/// A cursor over one subcommand's arguments.
pub struct Args(std::iter::Peekable<std::vec::IntoIter<String>>);

impl Iterator for Args {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.0.next()
    }
}

impl Args {
    pub fn new(args: Vec<String>) -> Self {
        Args(args.into_iter().peekable())
    }

    /// The next argument if it is an operand rather than a flag.
    pub fn operand(&mut self) -> Option<String> {
        self.0.next_if(|a| !a.starts_with("--"))
    }

    /// The value after `flag`.
    pub fn value(&mut self, flag: &str) -> Parsed<String> {
        self.next()
            .ok_or_else(|| Cli::Usage(format!("{flag} needs a value")))
    }

    /// The value after `flag`, parsed as `what`.
    pub fn parsed<T: FromStr>(&mut self, flag: &str, what: &str) -> Parsed<T> {
        let v = self.value(flag)?;
        v.parse()
            .map_err(|_| Cli::Usage(format!("{flag} needs {what}, got {v:?}")))
    }

    /// The value after `flag`, a positive integer.
    pub fn positive<T: FromStr + Default + PartialOrd>(&mut self, flag: &str) -> Parsed<T> {
        let v = self.value(flag)?;
        match v.parse::<T>() {
            Ok(n) if n > T::default() => Ok(n),
            _ => usage(format!("{flag} needs a positive integer, got {v:?}")),
        }
    }

    /// The value after `flag`, read by `parse`; a value it refuses is a
    /// usage error naming `what`.
    pub fn with<T>(
        &mut self,
        flag: &str,
        what: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Parsed<T> {
        let v = self.value(flag)?;
        parse(&v).ok_or_else(|| Cli::Usage(format!("unknown {what} {v:?}")))
    }

    /// The value after `flag`, one of the names in `choices`.
    pub fn choice<T: Copy>(&mut self, flag: &str, what: &str, choices: &[(&str, T)]) -> Parsed<T> {
        self.with(flag, what, |v| {
            choices.iter().find(|(name, _)| *name == v).map(|&(_, t)| t)
        })
    }

    /// `--bench A,B,...`: Table II codes, in the order given. Whether
    /// each code exists is the subcommand's check (exit 1).
    pub fn codes(&mut self) -> Parsed<Vec<String>> {
        let v = self.value("--bench")?;
        let codes: Vec<String> = v.split(',').map(str::to_string).collect();
        if codes.iter().any(String::is_empty) {
            return usage(format!("--bench needs comma-separated codes, got {v:?}"));
        }
        Ok(codes)
    }

    /// `--input small|big`.
    pub fn input(&mut self) -> Parsed<InputSize> {
        self.choice("--input", "input size", INPUT)
    }

    /// `--input small|big|both`.
    pub fn inputs(&mut self) -> Parsed<Vec<InputSize>> {
        self.choice("--input", "input size", INPUTS)
            .map(<[_]>::to_vec)
    }

    /// `--mode ds|ds-only`: the direct-store side of a sweep.
    pub fn sweep_mode(&mut self) -> Parsed<Mode> {
        self.choice("--mode", "mode", SWEEP_MODE)
    }

    /// `--mode ccsm|ds|ds-only` (`direct` = ds): the mode of one run.
    pub fn run_mode(&mut self) -> Parsed<Mode> {
        self.choice("--mode", "mode", RUN_MODE)
    }

    /// `--probe-level full|stages|minimal`.
    pub fn probe_level(&mut self) -> Parsed<ds_probe::ProbeLevel> {
        self.with("--probe-level", "probe level", ds_probe::ProbeLevel::parse)
    }

    /// `--net direct|coh|gpu|dram`: where faults are injected.
    pub fn fault_net(&mut self) -> Parsed<FaultNet> {
        self.with("--net", "net", FaultNet::parse)
    }

    /// `--kind drop|dup|delay`: what a network fault does.
    pub fn fault_kind(&mut self) -> Parsed<FaultKind> {
        self.with("--kind", "fault kind", FaultKind::parse)
    }
}

/// An argument the subcommand does not take.
pub fn unknown<T>(arg: &str) -> Parsed<T> {
    usage(format!("unknown argument {arg:?}"))
}

/// Reads the arguments of a subcommand that takes none.
pub fn no_args(mut args: Args) -> Parsed<()> {
    match args.next() {
        Some(arg) => unknown(&arg),
        None => Ok(()),
    }
}

/// Reads `--input small|big|both` (default both), the one flag of the
/// catalog sweeps.
pub fn sizes(mut args: Args) -> Parsed<Vec<InputSize>> {
    let mut inputs = vec![InputSize::Small, InputSize::Big];
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--input" => inputs = args.inputs()?,
            other => return unknown(other),
        }
    }
    Ok(inputs)
}
