//! `anykbench` — the repo's benchmark. See `README.md` beside `Cargo.toml`
//! for the glossary, the layer → end-to-end predictions and how to read the
//! output.
//!
//! ```text
//! anykbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! anykbench all     [--seed 11] [--seconds 20] [--quick] [--out <file>]
//! anykbench compare <a.json> <b.json> [<a2.json> <b2.json> ...]
//! anykbench verify  [--seed 11] [--quick]
//! anykbench list
//! ```

mod compare;
mod depths;
mod inputs;
mod json;
mod layers;
mod stats;
mod system;
mod tables;
mod trace;
mod untraced;
mod verify;

use json::Json;
use std::process::{Command, ExitCode, Stdio};
use system::Params;
use tables::{END_TO_END, PER_LAYER, WORKLOADS};
use untraced::Outcome;

/// Share of the untraced window a traced run measures for under `all`
/// (6 s beside 20 s).
const TRACED_SHARE: f64 = 0.3;
const DEFAULT_SEED: u64 = 11;
const DEFAULT_SECONDS: f64 = 20.0;
/// Window of a `--quick` run unless `--seconds` says otherwise.
const QUICK_SECONDS: f64 = 0.4;

struct Args {
    command: Option<String>,
    files: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out: Option<String>,
}

impl Args {
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.quick {
            QUICK_SECONDS
        } else {
            DEFAULT_SECONDS
        })
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: None,
        files: Vec::new(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        quick: false,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--quick" => args.quick = true,
            "--out" => args.out = Some(value("--out")?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            _ if args.command.is_none() && args.workload.is_none() => args.command = Some(arg),
            _ => args.files.push(arg),
        }
    }
    Ok(args)
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// Print every metric as `workload metric value unit n=<samples> pct=<p>`,
/// then the contract's result object as the last line.
fn report(workload: &str, outcome: &Outcome) {
    for e in &outcome.errors {
        println!("error: {e}");
    }
    for w in &outcome.warnings {
        println!("warning: {w}");
    }
    for n in &outcome.notes {
        println!("note: {n}");
    }
    for m in &outcome.info {
        println!(
            "info: {} {} {} n={} pct={}",
            m.name,
            m.reading.value,
            unit_of(m.name),
            m.reading.n,
            m.reading.pct
        );
    }
    let mut metrics = Vec::new();
    for m in &outcome.metrics {
        let unit = unit_of(m.name);
        println!(
            "{workload} {} {} {unit} n={} pct={}",
            m.name, m.reading.value, m.reading.n, m.reading.pct
        );
        metrics.push((
            m.name,
            Json::obj([
                ("value", Json::num(m.reading.value)),
                ("unit", Json::str(unit)),
            ]),
        ));
    }
    let line = Json::obj([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", line.compact());
}

fn run_one(args: &Args, name: &str) -> ExitCode {
    let Some(workload) = tables::workload(name) else {
        eprintln!(
            "unknown workload `{name}`; one of: {}",
            WORKLOADS.map(|w| w.name).join(", ")
        );
        return ExitCode::from(2);
    };
    let p = Params {
        workload,
        seed: args.seed,
        seconds: args.seconds(),
        quick: args.quick,
    };
    let outcome = if args.trace {
        layers::run(&p)
    } else {
        untraced::run(&p)
    };
    report(name, &outcome);
    ExitCode::SUCCESS
}

/// One child run of this binary; its human-readable lines are echoed, its
/// last line parsed.
fn child(args: &Args, workload: &str, trace: bool, seconds: f64) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().ok_or("child printed nothing")?;
    let mut samples = std::collections::BTreeMap::new();
    for line in &lines {
        println!("{line}");
        // `workload metric value unit n=<samples> pct=<p>`
        let f: Vec<&str> = line.split_whitespace().collect();
        if let [w, metric, _, _, n, pct] = f[..] {
            if w == workload {
                let num = |s: &str| s.split_once('=').and_then(|(_, v)| v.parse::<f64>().ok());
                samples.insert(metric.to_string(), (num(n), num(pct)));
            }
        }
    }
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    let mut result = Json::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    // Carry the sample counts into the results file.
    if let Json::Obj(pairs) = &mut result {
        for (key, value) in pairs.iter_mut() {
            if let ("metrics", Json::Obj(metrics)) = (key.as_str(), value) {
                for (name, m) in metrics.iter_mut() {
                    if let (Json::Obj(fields), Some((n, pct))) = (m, samples.get(name)) {
                        fields.push(("n".into(), n.map_or(Json::Null, Json::Num)));
                        fields.push(("pct".into(), pct.map_or(Json::Null, Json::Num)));
                    }
                }
            }
        }
        pairs.insert(0, ("trace".into(), Json::Num(f64::from(u8::from(trace)))));
        pairs.insert(0, ("workload".into(), Json::str(workload)));
    }
    Ok(result)
}

/// Every workload in a process of its own — so peak RSS and allocator state
/// do not leak between workloads — first untraced, then traced.
fn run_all(args: &Args) -> ExitCode {
    let traced_seconds = args.seconds() * TRACED_SHARE;
    let mut runs = Vec::new();
    let mut ok = true;
    for trace in [false, true] {
        for w in &WORKLOADS {
            let seconds = if trace {
                traced_seconds
            } else {
                args.seconds()
            };
            println!(
                "== {} ({}, {seconds} s) ==",
                w.name,
                if trace { "traced" } else { "untraced" }
            );
            match child(args, w.name, trace, seconds) {
                Ok(result) => {
                    ok &= result.get("correct").and_then(Json::as_bool) == Some(true);
                    runs.push(result);
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ok = false;
                }
            }
        }
    }
    let results = Json::obj([
        ("schema", Json::str("anykbench-results/1")),
        ("comparable", Json::Bool(!args.quick)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds())),
        ("traced_seconds", Json::Num(traced_seconds)),
        ("nproc", Json::Num(system::nproc() as f64)),
        ("ingest_rate_per_s", Json::Num(untraced::INGEST_RATE)),
        ("runs", Json::Arr(runs)),
    ]);
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| format!("target/anykbench/results-seed{}.json", args.seed));
    if let Some(dir) = std::path::Path::new(&path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&path, results.pretty()) {
        Ok(()) => println!("results written to {path}"),
        Err(e) => {
            eprintln!("error: cannot write {path}: {e}");
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("anykbench: a run failed or an output did not verify");
        ExitCode::FAILURE
    }
}

/// The correctness gate alone, on every workload's query.
fn run_verify(args: &Args) -> ExitCode {
    let mut checks = verify::Checks::default();
    for w in &WORKLOADS {
        let p = Params {
            workload: w,
            seed: args.seed,
            seconds: 1.0,
            quick: args.quick,
        };
        verify::reduced_instance(w.query, args.seed, args.quick, &mut checks);
        match system::set_up(&p) {
            Ok((mut sys, _)) => {
                verify::system(&mut sys, &p, &mut checks);
                if w.kind == tables::Kind::MixedTcp {
                    let mut gen = inputs::DeltaGen::new(&sys.inputs, 0);
                    verify::pinned_generation(&mut sys, &p, &mut gen, &mut checks);
                    verify::system(&mut sys, &p, &mut checks);
                }
            }
            Err(e) => checks.check(w.name, Err(e)),
        }
        println!(
            "{}: {} checks, {} failed so far",
            w.name, checks.attempted, checks.failed
        );
    }
    for e in &checks.errors {
        println!("error: {e}");
    }
    if checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn list() {
    println!("workloads:");
    for w in &WORKLOADS {
        println!("  {:<14} {}", w.name, w.why);
    }
    println!("end-to-end metrics (bound = relative worsening that counts as a regression):");
    for m in &END_TO_END {
        println!(
            "  {:<20} {:<6} better {:<6} bound {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
    }
    println!("per-layer metrics:");
    for m in &PER_LAYER {
        println!(
            "  {:<34} {:<6} better {}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
}

/// Pin glibc malloc's two dynamic thresholds where they end up in a
/// long-lived server (mmap threshold at its 32 MiB ceiling, trim threshold
/// at twice that). Left dynamic, a fresh process lands in one of two states
/// depending on the order of its first large frees — plan-sized allocations
/// either come from `mmap` and page-fault on every compile, or from the
/// heap and do not — and `cold_path4` read 15.7 or 19.8 ms for the same
/// code from run to run. Pinned, it reads the former every time.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_allocator() {
    use std::ffi::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    const M_TRIM_THRESHOLD: c_int = -1;
    const M_MMAP_THRESHOLD: c_int = -3;
    // SAFETY: `mallopt` is glibc's documented tuning call; it takes two
    // plain integers, touches only the allocator's own settings under its
    // own lock, and is called here before any other thread exists.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, 64 << 20);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_allocator() {}

fn main() -> ExitCode {
    pin_allocator();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("anykbench: {e}");
            return ExitCode::from(2);
        }
    };
    match (args.command.as_deref(), args.workload.as_deref()) {
        (None, Some(name)) => run_one(&args, name),
        (Some("all"), None) => run_all(&args),
        (Some("verify"), None) => run_verify(&args),
        (Some("compare"), None) => compare::run(&args.files),
        (Some("list"), None) => {
            list();
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!(
                "usage: anykbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]\n\
                 \x20      anykbench all [--seed n] [--seconds s] [--quick] [--out file]\n\
                 \x20      anykbench compare <a.json> <b.json> [<a2.json> <b2.json> ...]\n\
                 \x20      anykbench verify [--seed n] [--quick]\n\
                 \x20      anykbench list"
            );
            ExitCode::from(2)
        }
    }
}
