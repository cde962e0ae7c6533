//! `e2e`: the repo's benchmark — time-to-solution over four named
//! workloads, with a per-layer traced pass. `README.md` next to the
//! manifest is the manual; `BENCHMARK.json` at the repo root declares
//! the workloads and every metric this program prints.
//!
//! ```sh
//! cargo run --release --manifest-path e2e/Cargo.toml -- \
//!     --workload lap2d_solves --seed 1 --seconds 24 --trace 0
//! ```

mod compare;
mod host;
mod oracle;
mod probe;
mod spec;
mod stats;
mod trace;
mod workload;

use famg_check::benchjson::JsonValue;
use famg_prof::json::Json;
use famg_sparse::traffic;
use probe::{Metrics, SerialLeg};
use spec::{BenchSpec, MetricSpec};
use stats::{lower_quartile, median, tail};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::Tracer;
use workload::{Inputs, Rep, Workload};

const USAGE: &str = "usage: e2e --workload <name> --seed <u64> --seconds <s> --trace <0|1> \
                     [--quick] [--self-test] [--out <dir>]\n       e2e --compare <dirA> <dirB>";

/// The command line of one run.
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Inputs about thirty times smaller.
    quick: bool,
    /// Cap every solve at one iteration, so that every solve fails.
    self_test: bool,
    /// Where to append the result line and write the Chrome trace.
    out: Option<PathBuf>,
    /// Internal: this process is the other-pool-size child of a traced run.
    leg: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let value = |key: &str| {
        args.iter()
            .position(|a| a == key)
            .and_then(|i| args.get(i + 1))
    };
    let need = |key: &str| value(key).ok_or_else(|| format!("missing {key}\n{USAGE}"));
    let flag = |key: &str| args.iter().any(|a| a == key);
    let name = need("--workload")?;
    let leg = flag("--leg");
    Ok(Args {
        workload: Workload::by_name(name).ok_or_else(|| format!("unknown workload {name}"))?,
        seed: need("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: if leg {
            0.0
        } else {
            need("--seconds")?
                .parse()
                .map_err(|e| format!("--seconds: {e}"))?
        },
        trace: !leg && need("--trace")? != "0",
        quick: flag("--quick"),
        self_test: flag("--self-test"),
        out: value("--out").map(PathBuf::from),
        leg,
    })
}

/// Repetitions of the workload for about `seconds`, at least `min`.
/// `traced(i)` says whether repetition `i` records spans.
fn repeat(
    a: &Args,
    inp: &Inputs,
    tr: &mut Tracer,
    seconds: f64,
    min: usize,
    traced: impl Fn(usize) -> bool,
) -> Vec<Rep> {
    let max_iterations = a.self_test.then_some(1);
    let t0 = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < min || t0.elapsed().as_secs_f64() < seconds {
        tr.set_on(traced(reps.len()));
        tr.set_rep(reps.len() as u32);
        let (rep, _) = tr.scope("workload.rep", |tr| {
            a.workload.run_rep(inp, max_iterations, tr)
        });
        reps.push(rep);
    }
    reps
}

/// One timing metric from its per-repetition samples: the value reported
/// is the lower quartile (see README, "Why the lower quartile"); the
/// printed line adds the median, the highest percentile with ten samples
/// beyond it (where there is one) and the sample count.
fn timing(m: &mut Metrics, name: &str, per_rep: &[f64], all: &[f64]) {
    let value = lower_quartile(per_rep);
    let high = tail(all).map_or(String::new(), |(p, v)| format!("  p{p:.0} {v:.6}"));
    println!(
        "{name:<8} lower quartile {value:.6} s  median {:.6}{high}  n={}",
        median(all),
        all.len()
    );
    m.put(name, value);
}

/// The untraced pass: every end-to-end metric.
fn end_to_end(a: &Args, inp: &Inputs, m: &mut Metrics) -> Result<(), String> {
    let mut tr = Tracer::new(false);
    let reps = repeat(a, inp, &mut tr, a.seconds, 3, |_| false);
    let setup: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let solve: Vec<f64> = reps.iter().map(Rep::mean_solve_s).collect();
    let solves: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.solve_s.iter().copied())
        .collect();
    let tts: Vec<f64> = reps.iter().map(Rep::tts_s).collect();
    timing(m, "setup_s", &setup, &setup);
    timing(m, "solve_s", &solve, &solves);
    timing(m, "tts_s", &tts, &tts);
    m.put(
        "peak_rss_mb",
        host::peak_rss_mib().ok_or("peak_rss_mb needs /proc/self/status")?,
    );
    m.attempted += reps.iter().map(|r| r.attempted).sum::<u64>();
    m.failed += reps.iter().map(|r| r.failed).sum::<u64>();
    Ok(())
}

/// Measures both STREAM references; returns the working-set-matched one.
fn bandwidth(inp: &Inputs, quick: bool, m: &mut Metrics) -> f64 {
    let llc = host::llc_bytes();
    let mut array = (4 * llc).min(host::mem_available() / 8);
    if quick {
        array = array.min(64 << 20);
    }
    let operator = traffic::spmv_bytes(&inp.a);
    println!(
        "triad: LLC {} MiB, arrays 3 x {} MiB; working-set triad 3 x {} KiB (level-0 operator \
         {} KiB, cache_resident: {})",
        llc >> 20,
        array >> 20,
        (operator / 3) >> 10,
        operator >> 10,
        operator < llc
    );
    m.put("sparse.stream_triad_gbs", host::triad_gbs(array / 8, 3));
    // Memory on this kind of host is not all equally fast (see README);
    // the reference is the best of three fresh sets of arrays.
    let ws = (0..3)
        .map(|_| host::triad_gbs(operator / 3 / 8, 9))
        .fold(0.0, f64::max);
    m.put("sparse.stream_triad_ws_gbs", ws);
    ws
}

/// Runs this program again with the other pool size and returns what it
/// printed: its serial leg, and the dist probes if its pool has one thread.
fn other_pool_leg(a: &Args, threads: usize) -> Result<Metrics, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--leg", "--workload", a.workload.name, "--seed"])
        .arg(a.seed.to_string())
        .env("RAYON_NUM_THREADS", threads.to_string());
    if a.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end.
    let out = cmd.output().map_err(|e| format!("spawn leg: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "the {threads}-thread leg failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let doc = JsonValue::parse(text.lines().last().unwrap_or(""))
        .map_err(|e| format!("leg output: {e}"))?;
    let JsonValue::Obj(members) = doc else {
        return Err("leg output is not an object".into());
    };
    let mut m = Metrics::default();
    for (k, v) in members {
        m.put(&k, v.num().ok_or("leg output holds a non-number")?);
    }
    Ok(m)
}

/// The child side of [`other_pool_leg`].
fn run_leg(a: &Args, inp: &Inputs) {
    let mut m = Metrics::default();
    let leg = probe::serial_leg(inp, &mut m);
    m.put("leg.setup_s", leg.setup_s);
    m.put("leg.solve_s", leg.solve_s);
    m.put("leg.iterations", leg.iterations as f64);
    if rayon::current_num_threads() == 1 {
        let half = a.workload.generate(a.workload.dims(a.quick, true), a.seed);
        probe::dist(inp, &half, &mut m, &mut Tracer::new(false));
    }
    m.put("leg.attempted", m.attempted as f64);
    m.put("leg.failed", m.failed as f64);
    let members = m
        .values
        .iter()
        .map(|(k, v)| (k.clone(), Json::Num(*v)))
        .collect();
    println!("{}", Json::Obj(members).dump());
}

/// The traced pass: every per-layer metric.
fn per_layer(a: &Args, inp: &Inputs, threads: usize, m: &mut Metrics) -> Result<(), String> {
    let w = a.workload;
    let mut tr = Tracer::new(false);
    m.put("matgen.generate.s", inp.gen_s);
    m.put("pool.threads", threads as f64);

    // The workload itself, alternately untraced and traced: whole pairs
    // for a fifth of the run, and one pair at least.
    let t0 = Instant::now();
    let mut reps = repeat(a, inp, &mut tr, 0.2 * a.seconds, 2, |i| i % 2 == 1);
    reps.truncate(reps.len() & !1);
    let tts =
        |odd: usize| -> Vec<f64> { reps.iter().skip(odd).step_by(2).map(Rep::tts_s).collect() };
    m.put(
        "trace.overhead_frac",
        lower_quartile(&tts(1)) / lower_quartile(&tts(0)) - 1.0,
    );
    m.attempted += reps.iter().map(|r| r.attempted).sum::<u64>();
    m.failed += reps.iter().map(|r| r.failed).sum::<u64>();
    let last = reps.last().expect("at least one pair of repetitions");
    m.put("iterations", last.iterations as f64);
    m.put("comm_messages", last.comm.0 as f64);
    m.put("comm_bytes", last.comm.1 as f64);
    drop(reps);
    let t_reps = t0.elapsed().as_secs_f64();

    tr.set_on(true);
    tr.set_rep(u32::MAX);
    let ws_gbs = bandwidth(inp, a.quick, m);
    let t_triad = t0.elapsed().as_secs_f64();
    let here = probe::serial(inp, ws_gbs, m, &mut tr);
    if threads == 1 {
        let half = w.generate(w.dims(a.quick, true), a.seed);
        probe::dist(inp, &half, m, &mut tr);
    }

    let t_probes = t0.elapsed().as_secs_f64();

    // The other pool size, in a child, while this process only waits.
    let serial_threads = host::nproc().min(2);
    let other = if threads == 1 { serial_threads } else { 1 };
    let child = other_pool_leg(a, other)?;
    let there = SerialLeg {
        setup_s: child.get("leg.setup_s"),
        solve_s: child.get("leg.solve_s"),
        iterations: child.get("leg.iterations") as usize,
    };
    // The child's solves, plus one check: the pool size must not change
    // the iteration count.
    m.attempted += child.get("leg.attempted") as u64 + 1;
    m.failed += child.get("leg.failed") as u64 + u64::from(here.iterations != there.iterations);
    let (one, two) = if threads == 1 {
        (here, there)
    } else {
        (there, here)
    };
    m.put("pool.speedup.setup", one.setup_s / two.setup_s);
    m.put("pool.speedup.solve", one.solve_s / two.solve_s);
    for (k, v) in child.values {
        if k.starts_with("dist.") && !m.values.contains_key(&k) {
            m.put(&k, v);
        }
    }

    println!(
        "wall: repetitions {t_reps:.1} s, triads {:.1} s, probes {:.1} s, {other}-thread child {:.1} s",
        t_triad - t_reps,
        t_probes - t_triad,
        t0.elapsed().as_secs_f64() - t_probes
    );
    if let Some(dir) = &a.out {
        let path = dir.join(format!("trace_{}.json", w.name));
        std::fs::write(&path, tr.chrome_trace()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

/// Prints the result line the contract asks for — `correct`, `attempted`,
/// `failed`, `metrics` — after checking that exactly the declared metrics
/// were measured; `--out` appends the same line to the run set.
fn emit(a: &Args, declared: &[MetricSpec], m: &Metrics) -> Result<(), String> {
    let mut finite = true;
    let mut members = Vec::new();
    for d in declared {
        let v = *m
            .values
            .get(&d.name)
            .ok_or_else(|| format!("declared metric `{}` was not measured", d.name))?;
        finite &= v.is_finite();
        println!("{:<40} {v:>18.6} {}", d.name, d.unit);
        members.push((
            d.name.clone(),
            Json::Obj(vec![
                (
                    "value".into(),
                    Json::Num(if v.is_finite() { v } else { 0.0 }),
                ),
                ("unit".into(), Json::Str(d.unit.clone())),
            ]),
        ));
    }
    let line = Json::Obj(vec![
        ("correct".into(), Json::Bool(finite && m.failed == 0)),
        ("attempted".into(), Json::int(m.attempted)),
        ("failed".into(), Json::int(m.failed + u64::from(!finite))),
        ("metrics".into(), Json::Obj(members)),
    ])
    .dump();
    if let Some(dir) = &a.out {
        let kind = if a.trace { ".trace" } else { "" };
        let path = dir.join(format!("{}{kind}.jsonl", a.workload.name));
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| writeln!(f, "{line}"))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("failed {} of {} solves", m.failed, m.attempted);
    println!("{line}");
    Ok(())
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    if let Some(i) = args.iter().position(|a| a == "--compare") {
        let (Some(a), Some(b)) = (args.get(i + 1), args.get(i + 2)) else {
            return Err(USAGE.into());
        };
        let regressed = compare::compare(&BenchSpec::load()?, Path::new(a), Path::new(b))?;
        return Ok(ExitCode::from(u8::from(regressed)));
    }
    let a = parse(args)?;
    let w = a.workload;
    // The pool's size is pinned at its first use: say what it is before
    // anything touches it. A leg child is told by its parent.
    if !a.leg {
        std::env::set_var("RAYON_NUM_THREADS", w.threads(host::nproc()).to_string());
    }
    let threads = rayon::current_num_threads();
    if a.leg {
        run_leg(&a, &w.generate(w.dims(a.quick, false), a.seed));
        return Ok(ExitCode::SUCCESS);
    }
    let spec = BenchSpec::load()?;
    let inp = w.generate(w.dims(a.quick, false), a.seed);
    if let Some(dir) = &a.out {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    println!(
        "{}: n = {}, nnz = {}, {threads} pool thread(s) on {} core(s), seed {}",
        w.name,
        inp.a.nrows(),
        inp.a.nnz(),
        host::nproc(),
        a.seed
    );
    // One discarded repetition: warms the pool, the allocator and the
    // page cache of every buffer size the timed ones will ask for.
    w.run_rep(&inp, a.self_test.then_some(1), &mut Tracer::new(false));

    let mut m = Metrics::default();
    if a.trace {
        per_layer(&a, &inp, threads, &mut m)?;
        emit(&a, &spec.per_layer, &m)?;
    } else {
        end_to_end(&a, &inp, &mut m)?;
        emit(&a, &spec.end_to_end, &m)?;
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    run(&args).unwrap_or_else(|e| {
        eprintln!("e2e: {e}");
        ExitCode::from(2)
    })
}
