//! One process lifetime of the benchmark: generate inputs, set up a
//! `Checkpointer` per rank thread, run the timed closed loop, scrub, and
//! return every raw sample. `main` pools the samples of several lifetimes.

use crate::layers;
use crate::timed::{Call, Class, TimedBackend};
use crate::trace::{phase_self_ms, span, union_len, BenchSpan, Clock, PHASES};
use crate::workload::{self, RankInputs, Workload, RANKS};
use bcp_collectives::{Backend, CommWorld};
use bcp_core::api::{Checkpointer, LoadRequest, SaveRequest};
use bcp_core::manager::CheckpointManager;
use bcp_core::metadata::METADATA_FILE;
use bcp_core::scrub_step;
use bcp_monitor::SpanRecord;
use bcp_storage::{DynBackend, ObjectStoreBackend};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

/// Committed steps kept by the retention pass between steps.
const KEEP_LAST: usize = 2;

/// Timed steps of a traced lifetime: two of each kind of step.
pub const TRACED_STEPS: usize = 6;

/// Named sample series; `main` takes the median of each pooled series.
pub type Series = BTreeMap<String, Vec<f64>>;

/// Everything one lifetime reports.
pub struct Lifetime {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub gen_s: f64,
    pub steps: usize,
    pub series: Series,
}

/// Which `Checkpointer` a step uses and whether the benchmark traces it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Product defaults, untraced.
    Plain,
    /// Product defaults, traced by the benchmark.
    Traced,
    /// `.telemetry(false)`, untraced (the telemetry-cost baseline).
    NoTelemetry,
}

/// One rank's view of one timed step, in ns on the run's clock.
struct RankStep {
    step: u64,
    kind: Kind,
    save_start: u64,
    save_return: u64,
    wait_return: u64,
    load_start: u64,
    load_end: u64,
    saved_bytes: u64,
    loaded_bytes: u64,
}

/// What the rank threads share.
struct Shared {
    wl: Workload,
    steps: usize,
    trace: bool,
    clock: Clock,
    probe: Arc<TimedBackend>,
    objstore: Option<Arc<ObjectStoreBackend>>,
    registry: Arc<bcp_core::BackendRegistry>,
    manager: CheckpointManager,
    barrier: Barrier,
    stop: AtomicBool,
    failures: Mutex<Vec<String>>,
    attempted: Mutex<u64>,
}

impl Shared {
    fn location(&self, step: u64) -> String {
        format!("{}://bench/{}/step_{step}", self.wl.scheme(), self.wl.name())
    }

    fn fail(&self, what: String) {
        self.failures.lock().expect("failure list poisoned").push(what);
        self.stop.store(true, Ordering::SeqCst);
    }

    fn attempt(&self, n: u64) {
        *self.attempted.lock().expect("attempt counter poisoned") += n;
    }
}

/// What a rank thread hands back.
#[derive(Default)]
struct RankOut {
    setup_s: Option<f64>,
    steps: Vec<RankStep>,
    spans: Vec<BenchSpan>,
    program_spans: BTreeMap<u64, Vec<SpanRecord>>,
    /// Rank 0 only: (object-store requests, probe calls) over traced steps.
    traced_requests: (u64, u64),
}

fn build(shared: &Shared, world: &Arc<CommWorld>, rank: usize, telemetry: bool) -> Checkpointer {
    let (fw, par) = shared.wl.save_layout();
    Checkpointer::builder(world.communicator(rank).expect("rank is a member"))
        .framework(fw)
        .parallelism(par)
        .registry(shared.registry.clone())
        .telemetry(telemetry)
        .build()
        .expect("builder has every required field")
}

/// Save `step`, wait for it, load it into a zero target and verify it
/// bitwise. Returns the step's timestamps, or `None` once anything failed.
fn save_load(
    shared: &Shared,
    ckpt: &Checkpointer,
    inputs: &RankInputs,
    rank: usize,
    step: u64,
    kind: Kind,
    spans: &mut Vec<BenchSpan>,
) -> Option<RankStep> {
    let clock = &shared.clock;
    let loc = shared.location(step);
    shared.attempt(2);
    let save_start = clock.now_ns();
    let ticket = span(clock, "save", spans, || {
        ckpt.save(&SaveRequest::new(loc.as_str(), &inputs.source, step))
    });
    let save_return = clock.now_ns();
    let saved = ticket.and_then(|t| span(clock, "wait", spans, || t.wait()));
    let wait_return = clock.now_ns();
    let saved_bytes = match saved {
        Ok(stats) => stats.bytes,
        Err(e) => {
            shared.fail(format!("rank {rank} save step {step}: {e}"));
            0
        }
    };
    let mut target = workload::zeros(&inputs.target_layout);
    let loaded_bytes = workload::state_bytes(&target);
    shared.barrier.wait();
    let load_start = clock.now_ns();
    let loaded =
        span(clock, "load", spans, || ckpt.load(&mut LoadRequest::new(loc.as_str(), &mut target)));
    let load_end = clock.now_ns();
    match loaded {
        Err(e) => shared.fail(format!("rank {rank} load step {step}: {e}")),
        Ok(_) => {
            if let Some(m) = workload::first_mismatch(&target, &inputs.expected) {
                shared.fail(format!("rank {rank} step {step} loaded wrong bytes: {m}"));
            }
        }
    }
    drop(target);
    shared.barrier.wait();
    let ok = saved_bytes > 0 && !shared.stop.load(Ordering::SeqCst);
    ok.then_some(RankStep {
        step,
        kind,
        save_start,
        save_return,
        wait_return,
        load_start,
        load_end,
        saved_bytes,
        loaded_bytes,
    })
}

/// Rank 0's retention pass, run while the other ranks wait.
fn retain(shared: &Shared, step: u64, spans: &mut Vec<BenchSpan>) {
    shared.attempt(1);
    let r = span(&shared.clock, "retain_last", spans, || shared.manager.retain_last(KEEP_LAST));
    if let Err(e) = r {
        shared.fail(format!("retain_last after step {step}: {e}"));
    }
}

/// (object-store requests so far, probe calls so far).
fn request_counts(shared: &Shared) -> (u64, u64) {
    let requests = shared.objstore.as_ref().map_or(0, |s| s.stats().requests);
    (requests, shared.probe.total_calls())
}

fn rank_main(
    shared: &Shared,
    worlds: &[Arc<CommWorld>; 2],
    inputs: &RankInputs,
    rank: usize,
) -> RankOut {
    let mut out = RankOut::default();
    // ---- Set-up: construction plus an untimed warm-up save and load. ----
    shared.barrier.wait();
    let t0 = Instant::now();
    let ckpt = build(shared, &worlds[0], rank, true);
    save_load(shared, &ckpt, inputs, rank, 0, Kind::Plain, &mut Vec::new());
    out.setup_s = Some(t0.elapsed().as_secs_f64());
    if rank == 0 {
        retain(shared, 0, &mut Vec::new());
    }
    let mut step = 1u64;
    // An untimed step: still verified, and retention still runs.
    let mut untimed = |ckpt: &Checkpointer| {
        save_load(shared, ckpt, inputs, rank, step, Kind::Plain, &mut Vec::new());
        if rank == 0 {
            retain(shared, step, &mut Vec::new());
        }
        step += 1;
    };
    let quiet = shared.trace.then(|| {
        let c = build(shared, &worlds[1], rank, false);
        shared.barrier.wait();
        untimed(&c);
        c
    });
    for _ in 0..shared.wl.settle_steps() {
        shared.barrier.wait();
        untimed(&ckpt);
    }
    // ---- Timed closed loop: a fixed number of steps, at least one of each
    // kind. The retention window fills within the first of them, so the
    // store, and with it peak memory, reaches its steady size. ----
    let kinds: &[Kind] =
        if shared.trace { &[Kind::Plain, Kind::Traced, Kind::NoTelemetry] } else { &[Kind::Plain] };
    let mut done = 0usize;
    let mut requests_before = (0, 0);
    loop {
        let kind = kinds[done % kinds.len()];
        if rank == 0 {
            if done >= shared.steps.max(kinds.len()) {
                shared.stop.store(true, Ordering::SeqCst);
            }
            shared.probe.set_step(step);
            shared.probe.set_recording(kind == Kind::Traced);
            requests_before = request_counts(shared);
        }
        shared.barrier.wait();
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let c = if kind == Kind::NoTelemetry { quiet.as_ref().expect("trace mode") } else { &ckpt };
        let traced = kind == Kind::Traced;
        let mut scratch = Vec::new();
        let spans = if traced { &mut out.spans } else { &mut scratch };
        let Some(rs) = save_load(shared, c, inputs, rank, step, kind, spans) else { break };
        out.steps.push(rs);
        if rank == 0 {
            retain(shared, step, spans);
            shared.probe.set_recording(false);
            if traced {
                let after = request_counts(shared);
                out.traced_requests.0 += after.0 - requests_before.0;
                out.traced_requests.1 += after.1 - requests_before.1;
            }
        }
        if traced {
            let hub = c.telemetry_hub().expect("default telemetry is on");
            out.program_spans
                .insert(step, hub.spans().into_iter().filter(|s| s.step == step).collect());
        }
        step += 1;
        done += 1;
    }
    out
}

/// Job-level numbers of one step: both ranks' views merged.
struct StepView {
    kind: Kind,
    stall_ms: f64,
    save_wall_s: f64,
    load_wall_s: f64,
    saved_bytes: u64,
    loaded_bytes: u64,
}

fn merge_steps(outs: &[RankOut]) -> Vec<StepView> {
    let mut by_step: BTreeMap<u64, Vec<&RankStep>> = BTreeMap::new();
    for s in outs.iter().flat_map(|o| &o.steps) {
        by_step.entry(s.step).or_default().push(s);
    }
    let secs = |ns: u64| ns as f64 / 1e9;
    by_step
        .into_values()
        .filter(|v| v.len() == RANKS)
        .map(|v| StepView {
            kind: v[0].kind,
            stall_ms: 1e3
                * v.iter().map(|s| secs(s.save_return - s.save_start)).fold(0.0, f64::max),
            save_wall_s: secs(
                v.iter().map(|s| s.wait_return).max().unwrap_or(0)
                    - v.iter().map(|s| s.save_start).min().unwrap_or(0),
            ),
            load_wall_s: v.iter().map(|s| secs(s.load_end - s.load_start)).fold(0.0, f64::max),
            saved_bytes: v.iter().map(|s| s.saved_bytes).sum(),
            loaded_bytes: v.iter().map(|s| s.loaded_bytes).sum(),
        })
        .collect()
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mb() -> f64 {
    #[repr(C)]
    struct RUsage {
        times: [i64; 4],
        maxrss_kib: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    let mut usage = RUsage { times: [0; 4], maxrss_kib: 0, rest: [0; 13] };
    // SAFETY: `RUsage` has the layout of Linux's 64-bit `struct rusage`
    // (two timevals, then fourteen longs), and the pointer is to a live,
    // exclusively borrowed value of it; RUSAGE_SELF (0) is always valid.
    let rc = unsafe { getrusage(0, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with a valid pointer");
    usage.maxrss_kib as f64 / 1024.0
}

/// Run one lifetime of `wl` with `steps` timed steps; `scrub` checks the
/// newest committed step at the end.
pub fn measure(wl: Workload, seed: u64, steps: usize, trace: bool, scrub: bool) -> Lifetime {
    let clock = Clock::new();
    let gen_start = Instant::now();
    let inputs = workload::generate(wl, seed);
    let gen_s = gen_start.elapsed().as_secs_f64();

    let (inner, objstore) = wl.storage(seed);
    let probe = Arc::new(TimedBackend::new(inner, clock));
    let backend: DynBackend = probe.clone();
    let shared = Shared {
        wl,
        steps,
        trace,
        clock,
        probe: probe.clone(),
        objstore,
        registry: workload::registry(wl, backend.clone()),
        manager: CheckpointManager::new(backend.clone(), wl.name()),
        barrier: Barrier::new(RANKS),
        stop: AtomicBool::new(false),
        failures: Mutex::new(Vec::new()),
        attempted: Mutex::new(0),
    };
    let new_world = || CommWorld::new(RANKS, Backend::Tree { gpus_per_host: 8, branching: 2 });
    let worlds = [new_world(), new_world()];
    let outs: Vec<RankOut> = std::thread::scope(|s| {
        let handles: Vec<_> = inputs
            .iter()
            .enumerate()
            .map(|(rank, inp)| {
                let (shared, worlds) = (&shared, &worlds);
                std::thread::Builder::new()
                    .name(format!("bench-rank-{rank}"))
                    .spawn_scoped(s, move || rank_main(shared, worlds, inp, rank))
                    .expect("spawn rank thread")
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("rank thread panicked")).collect()
    });
    let steps = merge_steps(&outs);

    // What is at rest must verify: the newest committed step scrubs clean.
    let (mut latest, mut meta_bytes) = (None, Vec::new());
    match shared.manager.latest() {
        Ok(Some(c)) => {
            latest = Some(c.step);
            if scrub {
                shared.attempt(1);
                match scrub_step(&backend, &c.prefix, c.step) {
                    Ok(r) if r.is_clean() => {}
                    Ok(r) => shared.fail(format!("scrub: {}", r.summary())),
                    Err(e) => shared.fail(format!("scrub step {}: {e}", c.step)),
                }
            }
            if trace {
                match backend.read(&format!("{}/{METADATA_FILE}", c.prefix)) {
                    Ok(b) => meta_bytes = b.to_vec(),
                    Err(e) => shared.fail(format!("read metadata of step {}: {e}", c.step)),
                }
            }
        }
        Ok(None) => shared.fail("no committed step".into()),
        Err(e) => shared.fail(format!("list committed steps: {e}")),
    }

    let mut series = Series::new();
    let failures = shared.failures.lock().expect("failure list poisoned").clone();
    if failures.is_empty() {
        if trace {
            per_layer(&shared, &inputs, &outs, &steps, &meta_bytes, latest, &mut series);
        } else {
            end_to_end(&outs, &steps, &mut series);
        }
    }
    let attempted = *shared.attempted.lock().expect("attempt counter poisoned");
    Lifetime { attempted, failures, gen_s, steps: steps.len(), series }
}

fn end_to_end(outs: &[RankOut], steps: &[StepView], series: &mut Series) {
    let mut put = |name: &str, v: Vec<f64>| series.insert(name.to_string(), v);
    put("save_stall_ms", steps.iter().map(|s| s.stall_ms).collect());
    put("save_gbps", steps.iter().map(|s| s.saved_bytes as f64 / s.save_wall_s / 1e9).collect());
    put("load_gbps", steps.iter().map(|s| s.loaded_bytes as f64 / s.load_wall_s / 1e9).collect());
    put("save_wall_s", steps.iter().map(|s| s.save_wall_s).collect());
    put("load_wall_s", steps.iter().map(|s| s.load_wall_s).collect());
    // Set-up is over when the slowest rank finishes its warm-up.
    put("setup_s", vec![outs.iter().filter_map(|o| o.setup_s).fold(0.0, f64::max)]);
    put("peak_rss_mb", vec![peak_rss_mb()]);
}

fn per_layer(
    shared: &Shared,
    inputs: &[RankInputs],
    outs: &[RankOut],
    steps: &[StepView],
    meta_bytes: &[u8],
    latest: Option<u64>,
    series: &mut Series,
) {
    let mut put = |name: &str, v: Vec<f64>| {
        series.insert(name.to_string(), v);
    };
    // Program phase spans, folded to self time per traced step.
    let traced_steps: Vec<u64> = outs[0].program_spans.keys().copied().collect();
    let mut phases: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for &step in &traced_steps {
        let spans: Vec<SpanRecord> = outs
            .iter()
            .flat_map(|o| o.program_spans.get(&step).cloned().unwrap_or_default())
            .collect();
        let folded = phase_self_ms(&spans);
        for (_, name) in PHASES {
            phases.entry(name).or_default().push(folded.get(name).copied().unwrap_or(0.0));
        }
    }
    for (name, v) in phases {
        put(name, v);
    }

    // The benchmark's own spans.
    for (name, metric) in [
        ("retain_last", "manager.retain_ms"),
        ("save", "bench.save_ms"),
        ("wait", "bench.wait_ms"),
        ("load", "bench.load_ms"),
    ] {
        put(
            metric,
            outs.iter()
                .flat_map(|o| &o.spans)
                .filter(|s| s.name == name)
                .map(BenchSpan::ms)
                .collect(),
        );
    }

    // The storage probe.
    storage_series(&shared.probe.take_calls(), &traced_steps, &mut put);
    let (requests, probe_calls) = outs[0].traced_requests;
    put("objstore.requests_per_call", vec![requests as f64 / probe_calls.max(1) as f64]);

    // Single-layer probes and the roofline.
    let (probes, payload) = layers::probe(shared.wl, inputs, meta_bytes);
    for (name, v) in probes {
        put(name, vec![v]);
    }
    let stored = latest.and_then(|s| shared.manager.stored_bytes(s).ok()).unwrap_or(0);
    put("storage.stored_bytes_ratio", vec![stored as f64 / payload.max(1) as f64]);

    // Step wall (save + load) per kind: what tracing and telemetry cost.
    for kind in [Kind::Plain, Kind::Traced, Kind::NoTelemetry] {
        let v = steps
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.save_wall_s + s.load_wall_s)
            .collect();
        put(&format!("wall.{kind:?}"), v);
    }
}

/// Per-class storage series over the traced steps: calls, bytes and busy
/// time (wall time with at least one call of the class in flight) per step,
/// and every call's latency.
fn storage_series(calls: &[Call], traced_steps: &[u64], put: &mut impl FnMut(&str, Vec<f64>)) {
    for (class, name) in [
        (Class::Write, "write"),
        (Class::Read, "read"),
        (Class::Concat, "concat"),
        (Class::Meta, "meta"),
    ] {
        let (mut n, mut bytes, mut busy) = (Vec::new(), Vec::new(), Vec::new());
        let mut latency = Vec::new();
        for &step in traced_steps {
            let of: Vec<&Call> =
                calls.iter().filter(|c| c.step == step && c.method.class() == class).collect();
            n.push(of.len() as f64);
            bytes.push(of.iter().map(|c| c.bytes).sum::<u64>() as f64);
            let mut iv: Vec<(u64, u64)> = of.iter().map(|c| (c.start_ns, c.end_ns)).collect();
            busy.push(union_len(&mut iv) as f64 / 1e6);
            latency.extend(of.iter().map(|c| (c.end_ns - c.start_ns) as f64 / 1e6));
        }
        put(&format!("storage.{name}.calls"), n);
        put(&format!("storage.{name}.bytes"), bytes);
        put(&format!("storage.{name}.busy_ms"), busy);
        put(&format!("storage.{name}.call_ms"), latency);
    }
}
