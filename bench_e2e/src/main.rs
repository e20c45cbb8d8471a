//! Real-volume save/load benchmark of the `Checkpointer` API.
//!
//! ```text
//! cargo run --release --offline --manifest-path bench_e2e/Cargo.toml -- \
//!     --workload reshard-many --seed 1 --seconds 45 --trace 0
//! ```
//!
//! Two rank threads each hold a `Checkpointer` and run a closed loop
//! (save → wait → load → verify, rank 0 then applies `retain_last(2)`).
//! `--trace 0` reports the end-to-end metrics with the product defaults;
//! `--trace 1` reports the per-layer metrics. The last stdout line is the
//! result object; the line before it is the full report. README.md in this
//! directory documents the workloads and metrics.

mod layers;
mod run;
mod stats;
mod timed;
mod trace;
mod workload;

use run::{Lifetime, Series};
use serde_json::{json, Value};
use stats::{median, summary};
use std::collections::BTreeMap;
use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use workload::Workload;

/// Fewest separate processes an end-to-end run is split into; more run
/// while the run's `--seconds` allow another. Part of the run-to-run spread
/// on a shared machine is per process, so the samples of several lifetimes
/// are pooled. Each lifetime sets up once, which also gives `setup_s`
/// several set-ups per run.
const MIN_LIFETIMES: usize = 3;

/// glibc malloc settings of every lifetime process: fixed thresholds
/// instead of glibc's adaptive ones. With the adaptive thresholds a process
/// either kept reusing warm heap for the capture buffers of a save or
/// mapped and page-faulted them afresh on every save, by luck of its
/// allocation history: the object-latency stall was about 30 ms in some
/// processes and 80-110 ms in others. These settings give every process the
/// warm case, as in a long-running trainer: buffers up to 32 MiB come from
/// the heap, and freed heap is not returned to the kernel.
const MALLOC_ENV: [(&str, &str); 2] =
    [("MALLOC_MMAP_THRESHOLD_", "33554432"), ("MALLOC_TRIM_THRESHOLD_", "17179869184")];

/// A run must print its result within this, killing a stuck lifetime.
const DEADLINE: Duration = Duration::from_secs(170);

/// End-to-end metrics (`--trace 0`) and their units.
const END_TO_END: [(&str, &str); 6] = [
    ("save_stall_ms", "ms"),
    ("save_gbps", "GB/s"),
    ("load_gbps", "GB/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("op_success_ratio", "ratio"),
];

/// Per-layer metrics (`--trace 1`) and their units.
const PER_LAYER: [(&str, &str); 37] = [
    ("tensor.crc32_gbps", "GB/s"),
    ("tensor.crc32_roofline_frac", "ratio"),
    ("chunks.hash_gbps", "GB/s"),
    ("chunks.hash_roofline_frac", "ratio"),
    ("engine.capture_gbps", "GB/s"),
    ("engine.capture_roofline_frac", "ratio"),
    ("roofline.memcpy_gbps", "GB/s"),
    ("save.d2h_ms", "ms"),
    ("save.serialize_ms", "ms"),
    ("save.chunk_index_ms", "ms"),
    ("save.upload_ms", "ms"),
    ("sync.save_barrier_ms", "ms"),
    ("save.metadata_ms", "ms"),
    ("save.commit_ms", "ms"),
    ("load.metadata_ms", "ms"),
    ("load.plan_ms", "ms"),
    ("load.read_ms", "ms"),
    ("load.finish_ms", "ms"),
    ("sync.load_barrier_ms", "ms"),
    ("planner.save_plan_ms", "ms"),
    ("planner.load_plan_ms", "ms"),
    ("metadata.bytes", "bytes"),
    ("metadata.decode_ms", "ms"),
    ("manager.retain_ms", "ms"),
    ("storage.write.calls", "count"),
    ("storage.write.bytes", "bytes"),
    ("storage.write.busy_ms", "ms"),
    ("storage.read.calls", "count"),
    ("storage.read.bytes", "bytes"),
    ("storage.read.busy_ms", "ms"),
    ("storage.concat.calls", "count"),
    ("storage.concat.busy_ms", "ms"),
    ("storage.meta.calls", "count"),
    ("storage.stored_bytes_ratio", "ratio"),
    ("objstore.requests_per_call", "ratio"),
    ("telemetry.cost_pct", "%"),
    ("trace.overhead_pct", "%"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: run one lifetime of this many timed steps and print its
    /// raw samples.
    lifetime: Option<usize>,
    /// Internal: scrub the lifetime's newest committed step at the end.
    scrub: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let lifetime = match argv.iter().any(|a| a == "--lifetime") {
        true => Some(get("--steps")?.parse().map_err(|e| format!("--steps: {e}"))?),
        false => None,
    };
    let scrub = argv.iter().any(|a| a == "--scrub");
    Ok(Args { workload, seed, seconds, trace, lifetime, scrub })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "bench_e2e: {e}\nusage: bench_e2e --workload bulk-ddp|reshard-many|object-latency \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    if let Some(steps) = args.lifetime {
        let l = run::measure(args.workload, args.seed, steps, args.trace, args.scrub);
        let out = json!({
            "attempted": l.attempted,
            "failures": l.failures,
            "gen_s": l.gen_s,
            "steps": l.steps,
            "series": l.series,
        });
        println!("{}", serde_json::to_string(&out).expect("lifetime serializes"));
        return;
    }
    // The provenance header asks git for the revision; keep git's search
    // for a repository inside the directory the benchmark runs from.
    if let Some(parent) =
        std::env::current_dir().ok().and_then(|d| d.parent().map(|p| p.to_owned()))
    {
        std::env::set_var("GIT_CEILING_DIRECTORIES", parent);
    }
    let (report, result) = orchestrate(&args);
    println!("{}", serde_json::to_string(&report).expect("report serializes"));
    println!("{}", serde_json::to_string(&result).expect("result serializes"));
}

/// Run the lifetimes one after another, each in its own process, and pool
/// their samples: at least `MIN_LIFETIMES` (one when traced: the per-layer
/// numbers carry no bound), then more while another fits in `--seconds`.
fn orchestrate(args: &Args) -> (Value, Value) {
    let started = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let min_lifetimes = if args.trace { 1 } else { MIN_LIFETIMES };
    let steps = if args.trace { run::TRACED_STEPS } else { args.workload.lifetime_steps() };
    let mut pooled = Series::new();
    let mut attempted = 0u64;
    let mut failures: Vec<String> = Vec::new();
    let mut per_lifetime = Vec::new();
    let mut previous = Duration::ZERO;
    let mut i = 0;
    while i < min_lifetimes || started.elapsed() + previous <= budget {
        let lifetime_start = Instant::now();
        // One scrub per run: it re-reads every byte of a step, which on
        // the object store costs seconds of simulated transfer.
        match spawn_lifetime(args, steps, i == 0, started) {
            Ok(l) => {
                attempted += l.attempted;
                failures.extend(l.failures.iter().map(|f| format!("lifetime {i}: {f}")));
                per_lifetime.push(json!({ "gen_s": l.gen_s, "steps": l.steps }));
                for (name, v) in l.series {
                    pooled.entry(name).or_default().extend(v);
                }
            }
            Err(e) => {
                attempted += 1;
                failures.push(format!("lifetime {i}: {e}"));
                break;
            }
        }
        previous = lifetime_start.elapsed();
        i += 1;
    }

    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = BTreeMap::new();
    // Failed operations end a lifetime early, so a run with any failure
    // reports only this ratio.
    let success = 1.0 - failures.len() as f64 / attempted.max(1) as f64;
    if !args.trace {
        metrics
            .insert("op_success_ratio".to_string(), json!({ "value": success, "unit": "ratio" }));
    }
    if failures.is_empty() {
        let pooled_median =
            |name: &str| pooled.get(name).filter(|v| !v.is_empty()).map(|v| median(v));
        let wall = |kind: &str| pooled_median(&format!("wall.{kind}"));
        for &(name, unit) in table {
            let value = match name {
                "op_success_ratio" => continue,
                "telemetry.cost_pct" => {
                    wall("Plain").zip(wall("NoTelemetry")).map(|(p, q)| 100.0 * (p / q - 1.0))
                }
                "trace.overhead_pct" => {
                    wall("Traced").zip(wall("Plain")).map(|(t, p)| 100.0 * (t / p - 1.0))
                }
                _ => pooled_median(name),
            };
            match value {
                Some(v) if v.is_finite() => {
                    metrics.insert(name.to_string(), json!({ "value": v, "unit": unit }));
                }
                _ => failures.push(format!("metric {name} was not measured")),
            }
        }
    }

    let wl = args.workload;
    let scenario = json!({
        "workload": wl.describe(),
        "seconds": args.seconds,
        "trace": args.trace,
        "lifetime_steps": steps,
        "malloc_env": MALLOC_ENV,
    });
    let timings: BTreeMap<&String, Value> = pooled.iter().map(|(k, v)| (k, summary(v))).collect();
    let mut report = BTreeMap::new();
    report.insert("header", bcp_bench::header::report_header("bench_e2e", &scenario));
    report.insert("workload", json!(wl.name()));
    report.insert("seed", json!(args.seed));
    report.insert("lifetimes", json!(per_lifetime));
    report.insert("samples", serde_json::to_value(&timings));
    report.insert("failures", json!(failures));
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0);
    report.insert("available_parallelism", json!(threads));
    if args.trace && wl != Workload::ObjectLatency {
        report.insert("not_on_path", json!(["objstore.requests_per_call"]));
    }
    let failed = failures.len() as u64;
    let result = json!({
        "correct": failed == 0,
        "attempted": attempted.max(1),
        "failed": failed,
        "metrics": serde_json::to_value(&metrics),
    });
    (serde_json::to_value(&report), result)
}

/// Run one lifetime as a child process of this executable and parse what it
/// prints. The child is killed if the run's deadline passes.
fn spawn_lifetime(
    args: &Args,
    steps: usize,
    scrub: bool,
    started: Instant,
) -> Result<Lifetime, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--workload", args.workload.name(), "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .args(["--lifetime", "--steps", &steps.to_string()])
        .args(scrub.then_some("--scrub"))
        .envs(MALLOC_ENV)
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        stdout.read_to_string(&mut s).map(|_| s)
    });
    let status = loop {
        match child.try_wait().map_err(|e| format!("wait: {e}"))? {
            Some(status) => break status,
            None if started.elapsed() > DEADLINE => {
                // The child may exit on its own meanwhile; kill then reaps it.
                let _ = child.kill();
                let _ = child.wait();
                let _ = reader.join();
                return Err(format!("killed at the {}s deadline", DEADLINE.as_secs()));
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    let out = reader.join().map_err(|_| "stdout reader panicked".to_string())?;
    let out = out.map_err(|e| format!("read stdout: {e}"))?;
    if !status.success() {
        return Err(format!("exited with {status}"));
    }
    let v: Value = out
        .lines()
        .last()
        .and_then(|l| serde_json::from_str(l).ok())
        .ok_or_else(|| "printed no samples".to_string())?;
    let series = v["series"]
        .as_object()
        .ok_or("no series")?
        .iter()
        .map(|(k, s)| {
            let vals = s.as_array().map(|a| a.iter().filter_map(Value::as_f64).collect());
            (k.clone(), vals.unwrap_or_default())
        })
        .collect();
    Ok(Lifetime {
        attempted: v["attempted"].as_u64().unwrap_or(0),
        failures: v["failures"]
            .as_array()
            .map(|a| a.iter().filter_map(|f| f.as_str().map(String::from)).collect())
            .unwrap_or_default(),
        gen_s: v["gen_s"].as_f64().unwrap_or(0.0),
        steps: v["steps"].as_u64().unwrap_or(0) as usize,
        series,
    })
}
