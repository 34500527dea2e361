//! The `mddsim --verify` / `--analyze` exit-code contract, in-tree.
//!
//! ci.sh exercises the same contract with greps against the release
//! binary; this test pins it against the debug binary so a regression
//! fails `cargo test` directly:
//!
//! * exit 0 for statically safe configurations (`ProvenFree` and
//!   `RecoverableCycles` both simulate),
//! * exit 3 plus `verdict: Unsafe` for configurations the analyzer
//!   rejects,
//! * an infeasible VC budget falls back to verifying the degraded
//!   channel map it would force (stderr notice), instead of dying on the
//!   builder error,
//! * `--analyze` additionally reports the minimal safe VC budget.

use std::process::{Command, Output};

fn mddsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mddsim"))
        .args(args)
        .output()
        .expect("spawn mddsim")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn safe_configurations_verify_with_exit_zero() {
    for (scheme, vcs, expected) in [
        ("sa", "8", "verdict: ProvenFree"),
        ("pr", "4", "verdict: RecoverableCycles"),
    ] {
        let out = mddsim(&[
            "--verify",
            "--scheme",
            scheme,
            "--pattern",
            "pat271",
            "--vcs",
            vcs,
            "--radix",
            "4x4",
        ]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{scheme} vcs {vcs}: {}",
            stdout(&out)
        );
        assert!(
            stdout(&out).contains(expected),
            "{scheme} vcs {vcs}: {}",
            stdout(&out)
        );
    }
}

#[test]
fn crippled_sa_exits_three_via_the_degraded_vc_fallback() {
    // One VC short of SA's partition budget: the strict map is
    // infeasible, so --verify explains the degraded map it would force
    // (stderr notice) and reports it Unsafe (exit 3).
    let out = mddsim(&[
        "--verify",
        "--scheme",
        "sa",
        "--pattern",
        "pat271",
        "--vcs",
        "7",
        "--radix",
        "4x4",
    ]);
    assert_eq!(out.status.code(), Some(3), "{}", stdout(&out));
    assert!(stdout(&out).contains("verdict: Unsafe"), "{}", stdout(&out));
    assert!(stdout(&out).contains("witness cycle:"), "{}", stdout(&out));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("degraded channel map"), "stderr: {err}");
}

#[test]
fn analyze_reports_the_minimal_safe_budget_with_the_same_exit_contract() {
    let out = mddsim(&[
        "--analyze",
        "--scheme",
        "sa",
        "--pattern",
        "pat271",
        "--vcs",
        "7",
        "--radix",
        "4x4",
    ]);
    assert_eq!(out.status.code(), Some(3), "{}", stdout(&out));
    // 4 partition types x 2 dateline classes: 8 VCs is SA's floor here.
    assert!(stdout(&out).contains("min safe VCs: 8"), "{}", stdout(&out));
    assert!(stdout(&out).contains("probes: "), "{}", stdout(&out));

    let out = mddsim(&[
        "--analyze",
        "--scheme",
        "pr",
        "--pattern",
        "pat271",
        "--vcs",
        "4",
        "--radix",
        "4x4",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    assert!(stdout(&out).contains("min safe VCs: 1"), "{}", stdout(&out));
}
