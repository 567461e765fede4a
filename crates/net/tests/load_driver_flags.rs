//! `load_driver`'s command line: every mode rejects a flag it does not
//! read, a value flag given no value and an unknown mode with exit 2
//! before it connects or spawns anything, so a misspelt gate flag fails
//! a CI run instead of silently dropping its gate.

use std::process::Command;

/// Runs the driver with `args` and returns its exit code.
fn exit_code(args: &[&str]) -> Option<i32> {
    let out = Command::new(env!("CARGO_BIN_EXE_load_driver"))
        .args(args)
        .output()
        .expect("run load_driver");
    out.status.code()
}

#[test]
fn unknown_flags_and_missing_values_exit_2_before_connecting() {
    // nothing listens on port 1, and `--server` names no binary: a run
    // that got past the command line would fail differently (exit 1 or
    // a panic), never with 2
    let rejected: &[&[&str]] = &[
        &["--addr", "127.0.0.1:1", "--expect-metric"],
        &["--addr", "127.0.0.1:1", "--requests"],
        &["--addr", "127.0.0.1:1", "--requests", "--expect-hits"],
        &["--addr", "127.0.0.1:1", "--seed", "x"],
        &["--addr", "127.0.0.1:1", "--seed", "1", "--seed", "2"],
        &["--addr", "127.0.0.1:1", "stray"],
        &["--requests", "5"],
        &["--mode", "sessions", "--addr", "127.0.0.1:1", "--expect-hits"],
        &["--mode", "crash", "--server", "/nonexistent/c1pd", "--cycles"],
        &["--mode", "crash", "--server", "/nonexistent/c1pd", "--n-lo", "8"],
        &["--mode", "chaos", "--server", "/nonexistent/c1pd", "--expect-hit"],
        &["--mode", "sesions", "--addr", "127.0.0.1:1"],
    ];
    for args in rejected {
        assert_eq!(exit_code(args), Some(2), "load_driver {}", args.join(" "));
    }
    // a well-formed command line gets as far as the (refused) connection
    assert_eq!(exit_code(&["--addr", "127.0.0.1:1", "--dump-metrics"]), Some(1));
    assert_eq!(exit_code(&["--mode", "solve", "--addr", "127.0.0.1:1", "--dump-traces"]), Some(1));
}
