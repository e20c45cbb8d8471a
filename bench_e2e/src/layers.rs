//! Single-layer measurements, each timed from outside by calling the
//! layer's public functions on the workload's own bytes and plans, plus the
//! memcpy roofline the byte-moving layers are set against.

use crate::stats::median;
use crate::workload::{RankInputs, Workload};
use bcp_core::chunks::{FileChunks, DEFAULT_CHUNK_BYTES};
use bcp_core::engine::pool::PinnedPool;
use bcp_core::metadata::GlobalMetadata;
use bcp_core::plan::{build_tensor_map, local_load_plan, SavePlan};
use bcp_core::planner::balance::{dedup_save_plans, DedupStrategy};
use bcp_core::planner::planner_for;
use bcp_tensor::checksum::crc32;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Bytes of rank 0's state the byte-rate probes run over: past every cache,
/// and bounded so a probe pass stays well under a second.
const SAMPLE_CAP: usize = 64 << 20;

/// Each probe repeats until it has run this long and at least `MIN_REPS`
/// times, and reports the median repetition.
const PROBE_TIME: Duration = Duration::from_millis(300);
const MIN_REPS: usize = 3;

/// Median seconds of `f` over the probe's repetitions.
fn time_median(mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut secs = Vec::new();
    while secs.len() < MIN_REPS || started.elapsed() < PROBE_TIME {
        let t = Instant::now();
        f();
        secs.push(t.elapsed().as_secs_f64());
    }
    median(&secs)
}

/// The per-layer probes. `meta_bytes` is a committed step's
/// `global_metadata.json`. Also returns the job's deduplicated save-plan
/// payload in bytes.
pub fn probe(
    wl: Workload,
    inputs: &[RankInputs],
    meta_bytes: &[u8],
) -> (BTreeMap<&'static str, f64>, u64) {
    let mut out = BTreeMap::new();
    let entries: Vec<&[u8]> = {
        let mut taken = 0;
        let mut v = Vec::new();
        let src = &inputs[0].source;
        for e in src.model.entries.values().chain(src.optimizer.entries.values()) {
            let b = e.tensor.bytes().expect("sources are materialized");
            if taken >= SAMPLE_CAP {
                break;
            }
            taken += b.len();
            v.push(&b[..]);
        }
        v
    };
    let total: usize = entries.iter().map(|b| b.len()).sum();
    let gbps = |secs: f64| total as f64 / secs / 1e9;

    let mut dest = vec![0u8; total];
    let memcpy = gbps(time_median(|| {
        let mut off = 0;
        for b in &entries {
            dest[off..off + b.len()].copy_from_slice(b);
            off += b.len();
        }
        black_box(&dest);
    }));
    out.insert("roofline.memcpy_gbps", memcpy);

    let crc = gbps(time_median(|| {
        for b in &entries {
            black_box(crc32(b));
        }
    }));
    out.insert("tensor.crc32_gbps", crc);
    out.insert("tensor.crc32_roofline_frac", crc / memcpy);

    // The engine hashes whole files; `dest` holds the sample contiguously.
    let hash = gbps(time_median(|| {
        black_box(FileChunks::from_bytes("sample", &dest, DEFAULT_CHUNK_BYTES));
    }));
    out.insert("chunks.hash_gbps", hash);
    out.insert("chunks.hash_roofline_frac", hash / memcpy);
    drop(dest);

    let pool = PinnedPool::new(2);
    let capture = gbps(time_median(|| {
        let captured: Vec<_> = entries
            .iter()
            .map(|b| {
                let mut host = pool.acquire(b.len());
                host.extend_from_slice(b);
                host.freeze()
            })
            .collect();
        black_box(&captured);
    }));
    out.insert("engine.capture_gbps", capture);
    out.insert("engine.capture_roofline_frac", capture / memcpy);

    let (save_fw, _) = wl.save_layout();
    let planner = planner_for(save_fw);
    let plan_save = || {
        let mut plans: Vec<SavePlan> = inputs
            .iter()
            .enumerate()
            .map(|(rank, i)| planner.local_save_plan(rank, &i.source).expect("valid save state"))
            .collect();
        dedup_save_plans(&mut plans, DedupStrategy::WorstFit);
        let map = build_tensor_map(&plans);
        (plans, map)
    };
    let payload: u64 = plan_save().0.iter().map(SavePlan::total_bytes).sum();
    out.insert("planner.save_plan_ms", 1e3 * time_median(|| drop(black_box(plan_save()))));

    out.insert("metadata.bytes", meta_bytes.len() as f64);
    out.insert(
        "metadata.decode_ms",
        1e3 * time_median(|| drop(black_box(GlobalMetadata::from_bytes(meta_bytes)))),
    );
    let meta = GlobalMetadata::from_bytes(meta_bytes).expect("committed metadata decodes");
    out.insert(
        "planner.load_plan_ms",
        1e3 * time_median(|| {
            for (rank, i) in inputs.iter().enumerate() {
                black_box(local_load_plan(rank, &i.target_layout, &meta).expect("target covered"));
            }
        }),
    );
    (out, payload)
}
