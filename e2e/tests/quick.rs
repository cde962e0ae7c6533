//! Runs the built `e2e` binary in `--quick` mode and holds it to what
//! `BENCHMARK.json` declares. `cargo test --release --manifest-path
//! e2e/Cargo.toml` from anywhere; the binary itself runs from the repo
//! root, where `BENCHMARK.json` is.

use famg_check::benchjson::JsonValue;
use std::path::Path;
use std::process::Command;

const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/..");

/// Runs `e2e` with `args` from the repo root; exit code and stdout.
fn e2e(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_e2e"))
        .args(args)
        .current_dir(ROOT)
        .output()
        .expect("spawn e2e");
    (
        out.status.code().expect("e2e was not killed"),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

/// One `--quick` run; the parsed result line.
fn quick(workload: &str, trace: &str, extra: &[&str]) -> JsonValue {
    let mut args = vec![
        "--workload",
        workload,
        "--seed",
        "11",
        "--seconds",
        "0.2",
        "--trace",
        trace,
        "--quick",
    ];
    args.extend_from_slice(extra);
    let (code, stdout) = e2e(&args);
    assert_eq!(code, 0, "{workload} --trace {trace} exited with {code}");
    JsonValue::parse(stdout.lines().last().expect("a result line")).expect("result line is JSON")
}

fn members(v: &JsonValue) -> &[(String, JsonValue)] {
    match v {
        JsonValue::Obj(m) => m,
        other => panic!("not an object: {other:?}"),
    }
}

fn number(run: &JsonValue, key: &str) -> f64 {
    run.get(key).and_then(JsonValue::num).expect(key)
}

fn metric(run: &JsonValue, name: &str) -> f64 {
    let m = run.get("metrics").and_then(|m| m.get(name)).expect(name);
    m.get("value").and_then(JsonValue::num).expect("value")
}

fn spec() -> JsonValue {
    let src = std::fs::read_to_string(Path::new(ROOT).join("BENCHMARK.json")).unwrap();
    JsonValue::parse(&src).unwrap()
}

/// The `key` string of every entry under `section` of `BENCHMARK.json`.
fn declared(spec: &JsonValue, section: &str, key: &str) -> Vec<String> {
    let Some(JsonValue::Arr(items)) = spec.get(section) else {
        panic!("BENCHMARK.json lacks {section}");
    };
    let text = |i: &JsonValue| i.get(key).and_then(JsonValue::str_).expect(key).to_owned();
    items.iter().map(text).collect()
}

#[test]
fn prints_exactly_what_benchmark_json_declares() {
    let spec = spec();
    for workload in declared(&spec, "workloads", "name") {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let run = quick(&workload, trace, &[]);
            let keys: Vec<&str> = members(&run).iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(run.get("correct").and_then(JsonValue::bool_), Some(true));
            assert!(number(&run, "attempted") >= 1.0);
            assert_eq!(number(&run, "failed"), 0.0);
            let (names, units): (Vec<String>, Vec<String>) = members(run.get("metrics").unwrap())
                .iter()
                .map(|(name, m)| {
                    assert!(
                        name.bytes()
                            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)),
                        "metric name {name}"
                    );
                    let value = m.get("value").and_then(JsonValue::num).expect("value");
                    assert!(value.is_finite(), "{workload}: {name} = {value}");
                    let unit = m.get("unit").and_then(JsonValue::str_).expect("unit");
                    (name.clone(), unit.to_owned())
                })
                .unzip();
            assert_eq!(
                names,
                declared(&spec, section, "name"),
                "{workload} --trace {trace}"
            );
            assert_eq!(
                units,
                declared(&spec, section, "unit"),
                "{workload} --trace {trace}"
            );
        }
    }
}

#[test]
fn same_seed_gives_the_same_counts() {
    let (a, b) = (
        quick("dist_weak_2r", "1", &[]),
        quick("dist_weak_2r", "1", &[]),
    );
    for name in [
        "iterations",
        "comm_messages",
        "comm_bytes",
        "dist.comm.setup_messages",
        "dist.comm.solve_bytes",
        "core.solver.iterations",
        "krylov.cg_batch.iterations",
        "core.level.l1.nnz",
    ] {
        assert_eq!(metric(&a, name), metric(&b, name), "{name}");
    }
    assert!(metric(&a, "comm_messages") > 0.0);
}

#[test]
fn self_test_counts_every_failed_solve_and_still_reports() {
    for workload in ["lap3d27_setup", "reservoir_steps", "dist_weak_2r"] {
        let run = quick(workload, "0", &["--self-test"]);
        assert_eq!(run.get("correct").and_then(JsonValue::bool_), Some(false));
        assert!(number(&run, "failed") >= 1.0);
        assert_eq!(number(&run, "failed"), number(&run, "attempted"));
        assert!(metric(&run, "tts_s") > 0.0);
    }
}

#[test]
fn compare_accepts_a_set_against_itself_and_flags_a_slower_one() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("compare");
    let (a, b) = (dir.join("a"), dir.join("b"));
    let spec = spec();
    std::fs::create_dir_all(&a).unwrap();
    std::fs::create_dir_all(&b).unwrap();
    // Synthetic run sets: B is A with every metric 30 % larger.
    let (names, units) = (
        declared(&spec, "end_to_end", "name"),
        declared(&spec, "end_to_end", "unit"),
    );
    for workload in declared(&spec, "workloads", "name") {
        for (set, scale) in [(&a, 1.0), (&b, 1.3)] {
            let lines: Vec<String> = [1.0, 1.01, 0.99]
                .iter()
                .map(|jitter| {
                    let metrics: Vec<String> = names
                        .iter()
                        .zip(&units)
                        .map(|(n, u)| {
                            format!(r#""{n}":{{"value":{},"unit":"{u}"}}"#, 2.0 * scale * jitter)
                        })
                        .collect();
                    format!(
                        r#"{{"correct":true,"attempted":1,"failed":0,"metrics":{{{}}}}}"#,
                        metrics.join(",")
                    )
                })
                .collect();
            std::fs::write(set.join(format!("{workload}.jsonl")), lines.join("\n")).unwrap();
        }
    }
    let (a, b) = (a.to_str().unwrap(), b.to_str().unwrap());
    let (code, table) = e2e(&["--compare", a, a]);
    assert_eq!(code, 0, "{table}");
    assert!(table.contains(" ok") && !table.contains("regressed"));
    let (code, table) = e2e(&["--compare", a, b]);
    assert_eq!(code, 1, "{table}");
    assert!(table.contains("regressed"));
    std::fs::remove_dir_all(&dir).unwrap();
}
