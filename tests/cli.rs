//! End-to-end tests of the `viz-appaware` CLI binary: the full
//! prep → run → analyze → render pipeline through a real process boundary
//! and a real on-disk block store.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_viz-appaware"))
}

fn tmp(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("viz_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

#[test]
fn info_lists_all_datasets() {
    let out = bin().arg("info").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in ["3d_ball", "lifted_mix_frac", "lifted_rr", "climate"] {
        assert!(text.contains(name), "missing {name} in:\n{text}");
    }
}

#[test]
fn no_args_prints_usage_and_fails() {
    let out = bin().output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn unknown_command_fails_cleanly() {
    let out = bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn full_pipeline_prep_run_analyze_render() {
    let prep_dir = tmp("pipeline");
    // prep: tiny dataset so the test stays fast.
    let out = bin()
        .args([
            "prep",
            "--out",
            prep_dir.to_str().unwrap(),
            "--dataset",
            "3d_ball",
            "--scale",
            "16",
            "--blocks",
            "128",
            "--samples",
            "256",
            "--seed",
            "5",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "prep failed: {}", String::from_utf8_lossy(&out.stderr));
    let manifest = std::fs::read_to_string(prep_dir.join("manifest.txt")).unwrap();
    for line in ["dataset=3d_ball", "scale=16", "seed=5", "volume=64 64 64"] {
        assert!(manifest.lines().any(|l| l == line), "no {line:?} in:\n{manifest}");
    }
    assert_eq!(manifest.lines().count(), 8, "one line per field:\n{manifest}");
    assert!(prep_dir.join("t_visible.bin").exists());
    assert!(prep_dir.join("t_important.bin").exists());
    assert!(prep_dir.join("blocks").read_dir().unwrap().count() > 0);

    // run: both a baseline and the app-aware strategy.
    for policy in ["lru", "opt"] {
        let out = bin()
            .args([
                "run",
                "--prep",
                prep_dir.to_str().unwrap(),
                "--policy",
                policy,
                "--steps",
                "50",
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "run --policy {policy} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("miss rate"), "no miss rate in:\n{text}");
        assert!(text.contains("total time"));
    }

    // The manifest is input from outside the program: a missing, garbled,
    // unknown or repeated key is refused with a message naming the key.
    let run = |text: &str| {
        std::fs::write(prep_dir.join("manifest.txt"), text).unwrap();
        let out = bin().args(["run", "--prep", prep_dir.to_str().unwrap()]).output().unwrap();
        (out.status.success(), String::from_utf8_lossy(&out.stderr).into_owned())
    };
    let without_sigma: String =
        manifest.lines().filter(|l| !l.starts_with("sigma=")).map(|l| format!("{l}\n")).collect();
    for (text, complaint) in [
        (without_sigma.clone(), "\"sigma\" is missing"),
        (format!("{without_sigma}sigma=high\n"), "\"sigma\": cannot read"),
        (manifest.replace("volume=64 64 64", "volume=64 64"), "\"volume\": cannot read"),
        (manifest.replace("volume=64 64 64", "volume=64 0 64"), "\"volume\": dimensions"),
        (format!("{manifest}colour=blue\n"), "unknown manifest key \"colour\""),
        (format!("{manifest}seed=6\n"), "\"seed\" is repeated"),
        (format!("{manifest}just some words\n"), "is not key=value"),
    ] {
        let (ok, stderr) = run(&text);
        assert!(
            !ok && stderr.contains(complaint),
            "wanted {complaint:?} for:\n{text}\ngot: {stderr}"
        );
    }
    let (ok, stderr) = run(&manifest);
    assert!(ok, "restored manifest must load again: {stderr}");

    // analyze: reuse-distance profile.
    let out = bin()
        .args(["analyze", "--prep", prep_dir.to_str().unwrap(), "--steps", "60"])
        .output()
        .unwrap();
    assert!(out.status.success(), "analyze failed: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("LRU miss curve"));
    assert!(text.contains("distinct blocks"));

    // render: two small frames.
    let frames_dir = tmp("frames");
    let out = bin()
        .args([
            "render",
            "--prep",
            prep_dir.to_str().unwrap(),
            "--frames",
            "2",
            "--size",
            "32",
            "--out",
            frames_dir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "render failed: {}", String::from_utf8_lossy(&out.stderr));
    let f0 = frames_dir.join("frame_000.ppm");
    assert!(f0.exists());
    let bytes = std::fs::read(&f0).unwrap();
    assert!(bytes.starts_with(b"P6\n32 32\n255\n"));

    let _ = std::fs::remove_dir_all(&prep_dir);
    let _ = std::fs::remove_dir_all(&frames_dir);
}

#[test]
fn run_with_missing_prep_fails() {
    let out = bin().args(["run", "--prep", "/nonexistent/prep_dir"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
}

#[test]
fn bad_flag_values_fail_cleanly() {
    let out =
        bin().args(["prep", "--out", "/tmp/x", "--dataset", "not_a_dataset"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown dataset"));
}
