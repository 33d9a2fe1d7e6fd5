//! `reproduce` rejects malformed command lines with the usage line and
//! exit status 2, never with a panic.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("spawn reproduce");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn flag_without_value_prints_usage() {
    for args in [
        &["fig2", "--ops"][..],
        &["fig2", "--ops", "many"],
        &["chaos", "--workers"],
    ] {
        let (code, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: reproduce"), "{args:?}: {stderr}");
    }
}

#[test]
fn removed_subcommands_print_usage() {
    for sub in ["bench", "throughput"] {
        let (code, stderr) = run(&[sub]);
        assert_eq!(code, Some(2), "{sub}: {stderr}");
        assert!(stderr.contains("usage: reproduce"), "{sub}: {stderr}");
    }
}
