//! `accals-cli synth` rejects invalid-but-parseable input with an
//! error (exit 1, `error: …` on stderr) instead of panicking (exit 101).

use std::path::PathBuf;
use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_accals-cli"))
        .args(args)
        .output()
        .expect("run accals-cli")
}

/// Writes suite circuit `name` to a fresh file and returns its path.
fn generate(name: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("cli_errors_{name}.aag"));
    let out = cli(&["gen", "--circuit", name, "--output", path.to_str().unwrap()]);
    assert!(out.status.success(), "gen {name}: {out:?}");
    path
}

fn assert_rejected(args: &[&str]) {
    let out = cli(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn synth_rejects_non_positive_bounds() {
    let input = generate("mtp8");
    let input = input.to_str().unwrap();
    for flow in ["accals", "seals"] {
        for bound in ["0", "-1", "nan", "inf"] {
            assert_rejected(&[
                "synth", "--input", input, "--metric", "er", "--bound", bound, "--flow", flow,
            ]);
        }
    }
}

#[test]
fn synth_rejects_arithmetic_metrics_on_wide_outputs() {
    // adder128 has 129 outputs: one more than the arithmetic metrics
    // decode.
    let input = generate("adder128");
    let input = input.to_str().unwrap();
    for metric in ["nmed", "mred", "med", "mse", "wce"] {
        assert_rejected(&[
            "synth", "--input", input, "--metric", metric, "--bound", "0.01",
        ]);
    }
}
