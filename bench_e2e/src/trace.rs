//! Tracing from outside the program: the benchmark's own spans around each
//! call it makes into the `Checkpointer` and the storage probe, and the fold
//! of the phase spans the program already emits (read back through
//! `Checkpointer::telemetry_hub()`) into per-phase self time.

use bcp_monitor::SpanRecord;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// The benchmark's time base: nanoseconds since the run started.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn new() -> Clock {
        Clock(Instant::now())
    }

    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// One of the benchmark's spans around a call into the program.
#[derive(Debug, Clone, Copy)]
pub struct BenchSpan {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl BenchSpan {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Time `f` as a span named `name`.
pub fn span<T>(
    clock: &Clock,
    name: &'static str,
    out: &mut Vec<BenchSpan>,
    f: impl FnOnce() -> T,
) -> T {
    let start_ns = clock.now_ns();
    let result = f();
    out.push(BenchSpan { name, start_ns, end_ns: clock.now_ns() });
    result
}

/// Program phase span name → per-layer metric it is reported as.
pub const PHASES: [(&str, &str); 12] = [
    ("save/d2h", "save.d2h_ms"),
    ("save/serialize", "save.serialize_ms"),
    ("save/chunk_index", "save.chunk_index_ms"),
    ("save/upload", "save.upload_ms"),
    ("sync/save_barrier", "sync.save_barrier_ms"),
    ("save/metadata", "save.metadata_ms"),
    ("save/commit", "save.commit_ms"),
    ("load/metadata", "load.metadata_ms"),
    ("load/plan", "load.plan_ms"),
    ("load/read", "load.read_ms"),
    ("load/finish", "load.finish_ms"),
    ("sync/load_barrier", "sync.load_barrier_ms"),
];

/// Self time of each phase in `spans` (one step's spans, all ranks), in ms:
/// a phase span's duration minus the part of it covered by the storage
/// layer's spans beneath it (`storage/...`, emitted by the program's
/// `InstrumentedBackend`), summed per rank, then the slowest rank taken.
/// Detail spans of the phase's own layer (`save/upload-file`,
/// `load/fetch`) are part of the phase, so only storage time is removed.
pub fn phase_self_ms(spans: &[SpanRecord]) -> BTreeMap<&'static str, f64> {
    let mut children: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    let mut per_rank: BTreeMap<(&'static str, usize), f64> = BTreeMap::new();
    for s in spans {
        let Some(&(_, metric)) = PHASES.iter().find(|(name, _)| *name == s.name) else {
            continue;
        };
        let (lo, hi) = (s.start_us, s.start_us + s.duration.as_micros() as u64);
        let mut storage: Vec<(u64, u64)> = Vec::new();
        let mut stack: Vec<&SpanRecord> = children.get(&s.id).cloned().unwrap_or_default();
        while let Some(c) = stack.pop() {
            if c.name.starts_with("storage/") {
                let (a, b) = (c.start_us, c.start_us + c.duration.as_micros() as u64);
                if a.max(lo) < b.min(hi) {
                    storage.push((a.max(lo), b.min(hi)));
                }
            }
            stack.extend(children.get(&c.id).into_iter().flatten());
        }
        let self_us = (hi - lo).saturating_sub(union_len(&mut storage));
        *per_rank.entry((metric, s.rank)).or_default() += self_us as f64 / 1e3;
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for ((metric, _), ms) in per_rank {
        let slot = out.entry(metric).or_insert(0.0);
        *slot = slot.max(ms);
    }
    out
}

/// Total length covered by the union of `intervals` (sorted in place).
pub fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        match current {
            Some((ca, cb)) if a <= cb => current = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                current = Some((a, b));
            }
            None => current = Some((a, b)),
        }
    }
    total + current.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn rec(
        id: u64,
        parent: Option<u64>,
        name: &str,
        rank: usize,
        start: u64,
        dur: u64,
    ) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.into(),
            rank,
            step: 1,
            start_us: start,
            duration: Duration::from_micros(dur),
            io_bytes: 0,
            path: None,
            attrs: Default::default(),
            events: Vec::new(),
            counted: true,
        }
    }

    #[test]
    fn union_merges_overlaps_and_gaps() {
        assert_eq!(union_len(&mut [(0, 10), (5, 15), (20, 30)]), 25);
        assert_eq!(union_len(&mut []), 0);
    }

    #[test]
    fn self_time_removes_nested_parallel_storage_time_once() {
        let spans = vec![
            rec(1, None, "save", 0, 0, 1000),
            rec(2, Some(1), "save/upload", 0, 0, 1000),
            // Two parallel per-file detail spans, each with a storage write.
            rec(3, Some(2), "save/upload-file", 0, 0, 600),
            rec(4, Some(2), "save/upload-file", 0, 100, 600),
            rec(5, Some(3), "storage/memory/write_segments", 0, 50, 500),
            rec(6, Some(4), "storage/memory/write_segments", 0, 200, 500),
            rec(7, Some(1), "save/d2h", 0, 0, 300),
            rec(8, None, "save/d2h", 1, 0, 450),
        ];
        let got = phase_self_ms(&spans);
        // Storage covers [50, 700): 650 us of the 1000 us upload.
        assert!((got["save.upload_ms"] - 0.35).abs() < 1e-9);
        // Slowest rank wins.
        assert!((got["save.d2h_ms"] - 0.45).abs() < 1e-9);
    }
}
