//! The strict command lines of `load_driver` and `c1pd`. Every
//! `load_driver` mode rejects a flag it does not read, a value flag given
//! no value and an unknown mode with exit 2 before it connects or spawns
//! anything, so a misspelt gate flag fails a CI run instead of silently
//! dropping its gate. `c1pd` rejects the same faults with exit 2 before
//! it binds, so a misspelt `--wal-dir` cannot start a server without
//! durability.

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

#[cfg(unix)]
#[test]
fn c1pd_rejects_unknown_flags_and_bad_values_before_binding() {
    // 192.0.2.1 (TEST-NET-1) is on no local interface, so the bind fails
    // at once: a line that got past the command line panics with 101,
    // and a lenient parser fails fast instead of serving forever
    let c1pd = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_c1pd"))
            .args(["--addr", "192.0.2.1:1"])
            .args(args)
            .output()
            .expect("run c1pd");
        out.status.code()
    };
    let rejected: &[&[&str]] = &[
        &["--wal-dri", "/tmp/c1p-typo"],
        &["--event-loop"],
        &["--threads", "x"],
        &["--threads"],
        &["--port-file", "--threads", "2"],
        &["--shards", "2", "--shards", "3"],
        &["stray"],
    ];
    for args in rejected {
        assert_eq!(c1pd(args), Some(2), "c1pd {}", args.join(" "));
    }
    // a well-formed line gets as far as its bind error
    assert_eq!(c1pd(&["--threads", "1", "--shards", "2", "--trace-sample", "4"]), Some(101));
}
