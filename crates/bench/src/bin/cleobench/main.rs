//! `cleobench`: one benchmark for Cleo's serve path and feedback path, end to
//! end and layer by layer.  See `README.md` beside this file.
//!
//! ```text
//! cleobench --workload <name|all> --seed <u64> --seconds <s> --trace <0|1>
//!           [--trace-out <file>] [--smoke] [--calibrate <N>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.

mod feedback;
mod fixtures;
mod json;
mod layers;
mod open_loop;
mod probe;
mod rng;
mod serve;
mod sheet;
mod stats;
mod trace;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use fixtures::{Fixtures, Scale};
use probe::Speed;
use sheet::{Sheet, Sheets};
use trace::Tracer;

/// The seed used when `--seed` is not given; what it draws is pinned below.
const DEFAULT_SEED: u64 = 20_200_614;

/// The workloads, with the reason each one exists (`BENCHMARK.json` repeats
/// these lines).
const WORKLOADS: &[(&str, &str)] = &[
    (
        "serve_hot",
        "recurring jobs, closed loop, warm prediction cache: enumeration, signature hashing and cache lookups do the work",
    ),
    (
        "serve_cold",
        "same stream with the prediction cache cleared before every pass: featurization and the model kernels do the work",
    ),
    (
        "open_low",
        "open loop at 1000 jobs/s through FrontDoor and a 1-worker pool: the coalescing hold is the latency",
    ),
    (
        "open_high",
        "open loop at 8000 jobs/s: queueing at the pool's single worker adds to hold and service time",
    ),
    (
        "open_sat",
        "2048-job bursts offered back to back: the capacity of the admission, coalescing and pool path",
    ),
    (
        "feedback",
        "telemetry ingest, delta rounds and full retrain epochs beside a reader thread: the write side, and what it costs readers",
    ),
];

/// Fingerprints of the inputs: the generated job population of the two
/// fixture shapes (the same for every seed), and what the default seed draws:
/// the served stream and the first 1024 arrival offsets of the two fixed-rate
/// workloads.  A mismatch means a generator changed under the benchmark, and
/// the run refuses to report numbers for other inputs.
const PINNED_INPUTS: &[(&str, u64)] = &[
    ("jobs.days3", 0xd868_8595_f8a7_e6a5),
    ("jobs.days6", 0x0cd1_05e3_6c19_9de2),
    ("stream.days3", 0xe7c9_d723_9ebd_88f5),
    ("stream.days6", 0x5f91_5f9b_c542_4378),
    ("arrivals.open_low", 0x3167_683d_03ce_bd8f),
    ("arrivals.open_high", 0x8545_7b89_fa74_7464),
];

#[derive(Debug, Clone)]
struct Options {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
    smoke: bool,
    calibrate: usize,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: "all".into(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        trace_out: None,
        smoke: false,
        calibrate: 0,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => options.workload = value()?,
            "--seed" => options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                options.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--trace-out" => options.trace_out = Some(value()?),
            "--smoke" => options.smoke = true,
            "--calibrate" => {
                options.calibrate = value()?.parse().map_err(|e| format!("--calibrate: {e}"))?
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(options.seconds > 0.0 && options.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    if options.workload != "all" && !WORKLOADS.iter().any(|w| w.0 == options.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        return Err(format!(
            "unknown workload {}; one of {} or all",
            options.workload,
            names.join(", ")
        ));
    }
    if options.calibrate != 0 && options.calibrate < 5 {
        return Err("--calibrate needs at least 5 sets".into());
    }
    Ok(options)
}

/// One run's result; `--trace` picks the sheet that is reported.
struct RunResult {
    attempted: u64,
    failed: u64,
    traced: bool,
    sheets: Sheets,
}

impl RunResult {
    fn correct(&self) -> bool {
        self.failed == 0
    }

    fn sheet(&self) -> &Sheet {
        if self.traced {
            &self.sheets.per_layer
        } else {
            &self.sheets.end_to_end
        }
    }

    fn line(&self) -> String {
        json::result_line(
            self.correct(),
            self.attempted,
            self.failed,
            &self.sheet().metrics(),
        )
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reset the peak-RSS high-water mark, so one process can measure several runs.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Set-ups per run: `setup_s` is their median.
const SETUPS: usize = 3;

/// Build the fixture `SETUPS` times (once in a smoke run); returns the last
/// one and the median scaled set-up time.
fn set_up(seed: u64, days: u32, scale: Scale, speed: &mut Speed) -> (Fixtures, f64) {
    let mut times = Vec::new();
    let mut fixture = None;
    let setups = if scale == Scale::Smoke { 1 } else { SETUPS };
    for _ in 0..setups {
        // Drop the previous fixture first: peak memory is one fixture's.
        drop(fixture.take());
        // Each stage (a cluster, the reference plans) is scaled by the probe
        // readings on either side of it: the machine's speed drifts within
        // one set-up.
        speed.refresh();
        let mut scaled_s = 0.0;
        let mut stage_start = Instant::now();
        let built = Fixtures::build(seed, days, scale, &mut || {
            let raw = stage_start.elapsed().as_secs_f64();
            scaled_s += raw * speed.after_window();
            stage_start = Instant::now();
        });
        times.push(scaled_s);
        fixture = Some(built);
    }
    (fixture.expect("SETUPS > 0"), stats::median(&times))
}

/// Run one workload once.
fn run_workload(name: &str, options: &Options) -> Result<RunResult, String> {
    reset_peak_rss();
    let scale = if options.smoke {
        Scale::Smoke
    } else {
        Scale::Full
    };
    let seconds = if options.smoke {
        options.seconds.min(0.2)
    } else {
        options.seconds
    };
    let mut speed = Speed::new();
    let days = if name == "feedback" && !options.smoke {
        6
    } else {
        3
    };
    let (fx, setup_s) = set_up(options.seed, days, scale, &mut speed);
    println!(
        "[{name}] seed {} days {days} jobs {} stream {} input_fingerprint {:016x} stream \
         {:016x} nproc {} simd {}",
        options.seed,
        fx.clusters.iter().map(|c| c.jobs.len()).sum::<usize>(),
        fx.stream.len(),
        fx.fingerprint,
        fx.stream_fingerprint,
        nproc(),
        cleo_mlkit::simd::isa_name(),
    );
    if !options.smoke {
        // The population is the same for every seed; what the seed draws from
        // it is pinned at the default seed.
        check_pinned(&format!("jobs.days{days}"), fx.fingerprint)?;
        if options.seed == DEFAULT_SEED {
            check_pinned(&format!("stream.days{days}"), fx.stream_fingerprint)?;
        }
    }
    if let Some(schedule) = open_loop::schedule_pin(name, options.seed) {
        println!("[{name}] arrival schedule fingerprint {schedule:016x}");
        if options.seed == DEFAULT_SEED {
            check_pinned(&format!("arrivals.{name}"), schedule)?;
        }
    }

    let tracer = options.trace.then(|| Tracer::new(1 << 20));
    let mut sheets = Sheets::new();
    sheets.end_to_end.set("setup_s", setup_s);
    let (attempted, failed) = match name {
        "serve_hot" | "serve_cold" => run_serve(
            name == "serve_cold",
            &fx,
            seconds,
            &mut speed,
            tracer.as_ref(),
            &mut sheets,
        ),
        "open_low" | "open_high" | "open_sat" => {
            // A smoke run checks outputs, not timing: it may share the machine.
            let strict = !options.smoke;
            open_loop::run(
                name,
                strict,
                &fx,
                seconds,
                &mut speed,
                tracer.as_ref(),
                &mut sheets,
            )?
        }
        "feedback" => feedback::run(&fx, seconds, &mut speed, tracer.as_ref(), &mut sheets),
        _ => unreachable!("workload names are validated"),
    };
    if name != "feedback" {
        layers::quality(&fx, &fx.learned_models()).record(&mut sheets.end_to_end);
    }
    sheets.end_to_end.set("peak_rss_mb", peak_rss_mb());
    if let Some(tracer) = &tracer {
        let layer = &mut sheets.per_layer;
        layers::replay_probes(&fx, options.smoke, layer);
        layer.set("bench.speed_factor", speed.median_factor());
        let spans = tracer.take_spans();
        layer.set("budget.spans_recorded", spans.len() as f64);
        if let Some(path) = &options.trace_out {
            std::fs::write(path, trace::spans_ndjson(&spans))
                .map_err(|e| format!("writing {path}: {e}"))?;
            println!("[{name}] wrote {} spans to {path}", spans.len());
        }
    }
    let result = RunResult {
        attempted,
        failed,
        traced: options.trace,
        sheets,
    };
    for m in result.sheet().metrics() {
        println!("[{name}] {:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "[{name}] speed factor (median) {:.3}",
        speed.median_factor()
    );
    Ok(result)
}

/// The inputs must be the pinned ones.
fn check_pinned(what: &str, fingerprint: u64) -> Result<(), String> {
    match PINNED_INPUTS.iter().find(|p| p.0 == what) {
        Some(&(_, pinned)) if pinned == fingerprint => Ok(()),
        Some(&(_, pinned)) => Err(format!(
            "inputs changed: {what} has fingerprint {fingerprint:016x}, pinned {pinned:016x}"
        )),
        None => Err(format!("inputs changed: no pinned fingerprint for {what}")),
    }
}

/// The workloads `--workload` names.
fn selected(options: &Options) -> impl Iterator<Item = &'static str> + '_ {
    WORKLOADS
        .iter()
        .map(|w| w.0)
        .filter(|name| options.workload == "all" || options.workload == *name)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn run_serve(
    cold: bool,
    fx: &Fixtures,
    seconds: f64,
    speed: &mut Speed,
    tracer: Option<&Arc<Tracer>>,
    sheets: &mut Sheets,
) -> (u64, u64) {
    let e2e = &mut sheets.end_to_end;
    // A traced run measures a quarter of its time untraced: the base its
    // overhead is taken against.
    let share = if tracer.is_some() { 0.25 } else { 1.0 };
    let base = serve::run(fx, cold, seconds * share, speed, None);
    e2e.set("job_p50_us", base.latency.p50());
    e2e.set("job_p95_us", base.latency.p95());
    e2e.set("jobs_per_s", base.jobs_per_s);
    println!(
        "[serve] {} jobs in {} windows; raw {:.2} us/job call, {:.2} us/job wall",
        base.attempted, base.windows, base.raw_call_us, base.raw_wall_us
    );
    let Some(tracer) = tracer else {
        return (base.attempted, base.failed);
    };
    let traced = serve::run(fx, cold, seconds * 0.5, speed, Some(tracer));
    layers::serve_budget(fx, cold, &base, &traced, tracer, &mut sheets.per_layer);
    (
        base.attempted + traced.attempted,
        base.failed + traced.failed,
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("cleobench: {message}");
            return ExitCode::from(2);
        }
    };
    if nproc() < 2 {
        eprintln!("cleobench: needs at least 2 cores (nproc = {})", nproc());
        return ExitCode::from(2);
    }
    if options.calibrate > 0 {
        return calibrate(&options);
    }
    let mut ok = true;
    for name in selected(&options) {
        match run_workload(name, &options) {
            Ok(result) => {
                ok &= result.correct();
                println!("{}", result.line());
            }
            Err(message) => {
                eprintln!("cleobench: {name}: {message}");
                return ExitCode::FAILURE;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--calibrate N`: N sets of every workload on this build, each set with its
/// own seed, then per metric the median, quartiles, range and a proposed bound
/// (`BENCHMARK.json` takes, per metric, the largest over the workloads).
fn calibrate(options: &Options) -> ExitCode {
    let mut table: Vec<(String, Vec<f64>)> = Vec::new();
    for set in 0..options.calibrate {
        for name in selected(options) {
            let run_options = Options {
                seed: options.seed.wrapping_add(set as u64),
                ..options.clone()
            };
            let result = match run_workload(name, &run_options) {
                Ok(result) if result.correct() => result,
                Ok(_) => {
                    eprintln!("cleobench: {name}: output check failed");
                    return ExitCode::FAILURE;
                }
                Err(message) => {
                    eprintln!("cleobench: {name}: {message}");
                    return ExitCode::FAILURE;
                }
            };
            for m in result.sheet().metrics() {
                let key = format!("{name}/{}", m.name);
                match table.iter_mut().find(|row| row.0 == key) {
                    Some(row) => row.1.push(m.value),
                    None => table.push((key, vec![m.value])),
                }
            }
        }
    }
    println!(
        "{:<44} {:>14} {:>14} {:>14} {:>8} {:>8} {:>8}",
        "workload/metric", "median", "q1", "q3", "spread", "range", "bound"
    );
    for (key, values) in &table {
        let median = stats::median(values);
        let (q1, q3) = stats::quartiles(values);
        let spread = stats::spread(values);
        let range = if median == 0.0 {
            0.0
        } else {
            (values.iter().cloned().fold(f64::MIN, f64::max)
                - values.iter().cloned().fold(f64::MAX, f64::min))
                / median.abs()
        };
        // A metric that repeats exactly is a count or a quality metric: 0.01.
        // A timing gets three times its spread (the benchmark contract wants
        // the spread under a third of the bound), at most the contract's 0.25.
        let bound = if range == 0.0 {
            0.01
        } else {
            (3.0 * spread).clamp(0.03, 0.25)
        };
        println!(
            "{key:<44} {median:>14.4} {q1:>14.4} {q3:>14.4} {spread:>8.4} {range:>8.4} {bound:>8.3}"
        );
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let o = parse_args(&args(&[
            "--workload",
            "serve_hot",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (o.workload.as_str(), o.seed, o.seconds, o.trace),
            ("serve_hot", 7, 10.0, true)
        );
        assert!(parse_args(&args(&["--workload", "nope"])).is_err());
        assert!(parse_args(&args(&["--trace", "2"])).is_err());
        assert!(parse_args(&args(&["--seconds", "0"])).is_err());
        assert!(parse_args(&args(&["--calibrate", "3"])).is_err());
        assert!(parse_args(&args(&["--seed"])).is_err());
        assert_eq!(parse_args(&[]).unwrap().seed, DEFAULT_SEED);
    }

    /// `BENCHMARK.json` builds the benchmark from the manifest beside this
    /// file, tier-1 from the workspace root's.  Both must compile the program
    /// with the same release profile: a change to the root's that is not
    /// copied here fails this test instead of going unmeasured.
    #[test]
    fn own_manifest_has_the_workspace_release_profile() {
        fn release_profile(manifest: &str) -> Vec<&str> {
            manifest
                .lines()
                .map(str::trim)
                .skip_while(|l| *l != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.starts_with('['))
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .collect()
        }
        let own = release_profile(include_str!("Cargo.toml"));
        assert!(!own.is_empty());
        assert_eq!(
            own,
            release_profile(include_str!("../../../../../Cargo.toml"))
        );
    }

    /// A traced smoke run of one workload: its output check passes, both
    /// sheets are complete, and no end-to-end metric is 0.
    fn smoke(workload: &str) {
        let options = Options {
            workload: workload.into(),
            seed: 3,
            seconds: 0.2,
            trace: true,
            trace_out: None,
            smoke: true,
            calibrate: 0,
        };
        let result = run_workload(workload, &options).expect("smoke run");
        assert!(result.attempted > 0);
        assert_eq!(result.failed, 0, "output check");
        assert!(result.correct());
        assert_eq!(
            result.sheets.per_layer.metrics().len(),
            sheet::PER_LAYER.len()
        );
        assert_eq!(
            result.sheets.end_to_end.metrics().len(),
            sheet::END_TO_END.len()
        );
        for m in result.sheets.end_to_end.metrics() {
            assert!(m.value > 0.0, "{workload}: {} must never be 0", m.name);
        }
        assert!(result.line().contains("\"budget.spans_recorded\""));
    }

    #[test]
    fn smoke_serve_hot() {
        smoke("serve_hot");
    }

    #[test]
    fn smoke_serve_cold() {
        smoke("serve_cold");
    }

    #[test]
    fn smoke_open_low() {
        smoke("open_low");
    }

    #[test]
    fn smoke_open_high() {
        smoke("open_high");
    }

    #[test]
    fn smoke_open_sat() {
        smoke("open_sat");
    }

    #[test]
    fn smoke_feedback() {
        smoke("feedback");
    }

    #[test]
    fn the_smoke_tests_cover_every_workload() {
        let covered = [
            "serve_hot",
            "serve_cold",
            "open_low",
            "open_high",
            "open_sat",
            "feedback",
        ];
        assert_eq!(WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>(), covered);
    }
}
