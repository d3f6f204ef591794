//! The `ds` command line: dispatch, `--help`, and the usage errors of
//! every subcommand. No case here reaches a simulation; a case that
//! did would be killed and reported instead of hanging the suite.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Runs `ds args...` and returns its exit code, stdout and stderr.
fn ds(args: &[&str]) -> (i32, String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ds"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ds");
    let deadline = Instant::now() + Duration::from_secs(30);
    while child.try_wait().expect("poll ds").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("ds {args:?} ran past a usage check");
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let out = child.wait_with_output().expect("collect ds output");
    (
        out.status.code().expect("ds exited by itself"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// The subcommand names `ds --help` lists.
fn subcommands() -> Vec<String> {
    let (code, stdout, _) = ds(&["--help"]);
    assert_eq!(code, 0);
    let table = stdout
        .split("subcommands:\n")
        .nth(1)
        .expect("a subcommand table");
    table
        .lines()
        .take_while(|l| !l.is_empty())
        .map(|l| l.trim().split("  ").next().unwrap().to_string())
        .collect()
}

#[test]
fn no_or_unknown_subcommand_is_a_usage_error() {
    for args in [&[][..], &["bogus"], &["ablate"], &["ablate", "bogus"]] {
        let (code, stdout, stderr) = ds(args);
        assert_eq!(code, 2, "ds {args:?}");
        assert!(stdout.is_empty(), "ds {args:?}: {stdout}");
        assert!(stderr.contains("usage: ds <subcommand>"), "{stderr}");
    }
}

#[test]
fn help_lists_every_subcommand_and_each_one_dispatches() {
    let names = subcommands();
    assert_eq!(names.len(), 37, "{names:?}");
    for name in [
        "run",
        "serve",
        "submit",
        "fig5",
        "ablate storebuf",
        "scope merge",
    ] {
        assert!(names.iter().any(|n| n == name), "{name} missing: {names:?}");
    }
    // Every listed name reaches its own parser, which names it.
    for name in &names {
        let mut args: Vec<&str> = name.split(' ').collect();
        args.push("--no-such-flag");
        let (code, _, stderr) = ds(&args);
        assert_eq!(code, 2, "ds {name}: {stderr}");
        assert!(
            stderr.starts_with(&format!("ds {name}: unknown argument \"--no-such-flag\"")),
            "ds {name}: {stderr}"
        );
        assert!(stderr.contains("usage: ds "), "ds {name}: {stderr}");
    }
}

/// Bad arguments the old per-tool binaries ran with anyway.
#[test]
fn former_silent_fallbacks_are_usage_errors() {
    for (args, usage) in [
        (
            &["ablate", "l2size", "--input", "bgi"][..],
            "usage: ds ablate l2size",
        ),
        (&["diag", "--input", "bgi"], "usage: ds diag"),
        (
            &["ablate", "storebuf", "--bench", "VA", "extra"],
            "usage: ds ablate storebuf",
        ),
    ] {
        let (code, stdout, stderr) = ds(args);
        assert_eq!(code, 2, "ds {args:?}");
        assert!(stdout.is_empty());
        assert!(stderr.contains(usage), "ds {args:?}: {stderr}");
    }
}

/// For each subcommand: a value flag without its value, an unknown
/// flag, a bad enum value, and `--input both` where the subcommand
/// takes one input size.
#[test]
fn every_parser_rejects_bad_arguments() {
    #[rustfmt::skip]
    let cases: &[&[&str]] = &[
        &["run", "--jobs"], &["run", "--bench", "VA,"], &["run", "--format", "xml"],
        &["run", "--mode", "ccsm"], &["run", "--timeout", "5"],
        &["trace", "--bench"], &["trace", "--mode", "sideways"],
        &["trace", "--bench", "VA", "--input", "both"], &["trace", "--input", "VA"],
        &["xray", "--top"], &["xray", "--bench", "VA", "--input", "both"],
        &["lens", "--out"], &["lens", "--format", "xml"], &["lens", "--input", "both"],
        &["lens"],
        &["prof", "--window"], &["prof", "--mode", "ds-only"], &["prof", "--window", "0"],
        &["prof", "--input", "both"], &["prof", "--probe-level", "max"],
        &["pulse", "--rate"], &["pulse", "--bench", "VA", "--drop", "5"],
        &["pulse", "--kind", "melt"], &["pulse", "--net", "ether"],
        &["pulse", "--bench", "VA", "--input", "both"], &["pulse", "--rate", "70000"],
        &["chaos", "--rates"], &["chaos", "--rates", "1,x"], &["chaos", "--net", "ether"],
        &["chaos", "--input", "both"], &["chaos", "--mode", "ccsm"],
        &["scope", "--check", "--jobs"], &["scope", "--check", "--jobs", "0"],
        &["scope", "summary", "--job"], &["scope", "summary"], &["scope", "merge", "--trace"],
        &["scope", "summary", "--trace", "t.json"],
        &["serve", "--port"], &["serve", "--log-format", "xml"],
        &["serve", "--probe-level", "max"], &["serve", "--check", "--port", "0"],
        &["submit", "--url"], &["submit", "--mode", "ccsm"], &["submit", "--input", "both"],
        &["submit", "--pulse", "0"],
        &["status", "--url"], &["status"], &["results", "--url"], &["results", "x"],
        &["watch", "--url"], &["watch"], &["metrics", "--url"], &["shutdown", "--url"],
        &["shutdown", "7"],
        &["stress", "--users"], &["stress", "--users", "x"],
        &["drill", "--dir"], &["drill", "--mode", "ccsm"], &["drill", "--input", "both"],
        &["table1", "--input", "small"], &["fig3", "x"],
        &["fig4", "--input"], &["fig4", "--input", "smal"], &["fig5", "--input"],
        &["fig5", "--input", "huge"], &["fig5", "both"], &["export-csv", "--input"],
        &["export-csv", "--input", "medium"], &["export-csv", "small"],
        &["diag", "--bench"], &["diag", "VA"], &["diag", "--input", "both"],
        &["ablate", "directory", "--bench"], &["ablate", "network", "--bench"],
        &["ablate", "network", "NN"], &["ablate", "policy", "--bench"],
        &["ablate", "policy", "--input", "big"], &["ablate", "prefetch", "--bench"],
        &["ablate", "prefetch", "--bench", ",VA"],
        &["ablate", "dram", "--bench", "VA"],
        &["ablate", "l2size", "--bench"], &["ablate", "l2size", "MM", "small"],
        &["ablate", "l2size", "--input", "both"],
        &["ablate", "replacement", "--input"], &["ablate", "replacement", "--input", "tiny"],
        &["ablate", "replacement", "small"],
        &["ablate", "storebuf", "--bench"], &["ablate", "storebuf", "VA"],
    ];
    for args in cases {
        let (code, stdout, stderr) = ds(args);
        assert_eq!(code, 2, "ds {args:?} exited {code}: {stderr}");
        assert!(stdout.is_empty(), "ds {args:?}: {stdout}");
        assert!(stderr.contains("\n\nusage: ds "), "ds {args:?}: {stderr}");
    }
}
