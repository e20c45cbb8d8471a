//! The benchmark's storage probe: a [`StorageBackend`] wrapper registered at
//! the `BackendRegistry` boundary, under the program's own
//! `InstrumentedBackend` and above the backend under test.
//!
//! It forwards every trait method, capability methods included, so wrapping
//! changes nothing the program can observe (the test below pins that). It
//! counts calls and bytes per method, and while recording is on it also keeps
//! one interval per call, tagged with the benchmark step that issued it, from
//! which the storage layer's busy time is folded.

use crate::trace::Clock;
use bcp_storage::{Result, StorageBackend};
use bytes::Bytes;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Every `StorageBackend` method that reaches a backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    Write,
    WriteSegments,
    Append,
    Read,
    ReadRange,
    Size,
    Exists,
    List,
    Delete,
    Rename,
    Concat,
}

const METHODS: usize = 11;

/// The classes the per-layer metrics report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Write,
    Read,
    Concat,
    Meta,
}

impl Method {
    pub fn class(self) -> Class {
        match self {
            Method::Write | Method::WriteSegments | Method::Append => Class::Write,
            Method::Read | Method::ReadRange => Class::Read,
            Method::Concat => Class::Concat,
            Method::Size | Method::Exists | Method::List | Method::Delete | Method::Rename => {
                Class::Meta
            }
        }
    }
}

/// One recorded storage call.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub method: Method,
    pub step: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub bytes: u64,
}

/// Counting, optionally recording, pass-through backend.
pub struct TimedBackend {
    inner: Arc<dyn StorageBackend>,
    clock: Clock,
    calls: [AtomicU64; METHODS],
    recording: AtomicBool,
    step: AtomicU64,
    log: Mutex<Vec<Call>>,
}

impl TimedBackend {
    pub fn new(inner: Arc<dyn StorageBackend>, clock: Clock) -> TimedBackend {
        TimedBackend {
            inner,
            clock,
            calls: Default::default(),
            recording: AtomicBool::new(false),
            step: AtomicU64::new(0),
            log: Mutex::new(Vec::new()),
        }
    }

    /// Calls per method so far, indexed by `Method as usize`.
    pub fn counts(&self) -> [u64; METHODS] {
        std::array::from_fn(|i| self.calls[i].load(Ordering::Relaxed))
    }

    /// Total calls so far, all methods.
    pub fn total_calls(&self) -> u64 {
        self.counts().iter().sum()
    }

    /// Turn per-call recording on or off.
    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::SeqCst);
    }

    /// Tag subsequent calls with `step`.
    pub fn set_step(&self, step: u64) {
        self.step.store(step, Ordering::SeqCst);
    }

    /// Move the recorded calls out.
    pub fn take_calls(&self) -> Vec<Call> {
        std::mem::take(&mut *self.log.lock().expect("call log poisoned by a panicking caller"))
    }

    fn timed<T>(
        &self,
        method: Method,
        bytes: impl Fn(&T) -> u64,
        f: impl FnOnce() -> Result<T>,
    ) -> Result<T> {
        self.calls[method as usize].fetch_add(1, Ordering::Relaxed);
        if !self.recording.load(Ordering::Relaxed) {
            return f();
        }
        let step = self.step.load(Ordering::Relaxed);
        let start_ns = self.clock.now_ns();
        let result = f();
        let end_ns = self.clock.now_ns();
        let bytes = result.as_ref().map(&bytes).unwrap_or(0);
        self.log.lock().expect("call log poisoned by a panicking caller").push(Call {
            method,
            step,
            start_ns,
            end_ns,
            bytes,
        });
        result
    }
}

fn none<T>(_: &T) -> u64 {
    0
}

impl StorageBackend for TimedBackend {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn op_attrs(&self) -> Vec<(&'static str, String)> {
        self.inner.op_attrs()
    }

    fn shed_optional_work(&self) -> bool {
        self.inner.shed_optional_work()
    }

    fn zero_copy_reads(&self) -> bool {
        self.inner.zero_copy_reads()
    }

    fn write(&self, path: &str, data: Bytes) -> Result<()> {
        let n = data.len() as u64;
        self.timed(Method::Write, |_| n, || self.inner.write(path, data))
    }

    fn write_segments(&self, path: &str, segments: &[Bytes]) -> Result<()> {
        let n = segments.iter().map(|s| s.len() as u64).sum::<u64>();
        self.timed(Method::WriteSegments, |_| n, || self.inner.write_segments(path, segments))
    }

    fn append(&self, path: &str, data: &[u8]) -> Result<()> {
        let n = data.len() as u64;
        self.timed(Method::Append, |_| n, || self.inner.append(path, data))
    }

    fn read(&self, path: &str) -> Result<Bytes> {
        self.timed(Method::Read, |b: &Bytes| b.len() as u64, || self.inner.read(path))
    }

    fn read_range(&self, path: &str, offset: u64, len: u64) -> Result<Bytes> {
        self.timed(
            Method::ReadRange,
            |b: &Bytes| b.len() as u64,
            || self.inner.read_range(path, offset, len),
        )
    }

    fn size(&self, path: &str) -> Result<u64> {
        self.timed(Method::Size, none, || self.inner.size(path))
    }

    fn exists(&self, path: &str) -> Result<bool> {
        self.timed(Method::Exists, none, || self.inner.exists(path))
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        self.timed(Method::List, none, || self.inner.list(prefix))
    }

    fn delete(&self, path: &str) -> Result<()> {
        self.timed(Method::Delete, none, || self.inner.delete(path))
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.timed(Method::Rename, none, || self.inner.rename(from, to))
    }

    fn concat(&self, target: &str, parts: &[String]) -> Result<()> {
        self.timed(Method::Concat, none, || self.inner.concat(target, parts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcp_collectives::{Backend, CommWorld};
    use bcp_core::api::{Checkpointer, LoadRequest, SaveRequest};
    use bcp_core::BackendRegistry;
    use bcp_model::states::build_train_state;
    use bcp_model::{zoo, Framework};
    use bcp_monitor::telemetry::{TELEMETRY_LOAD_FILE, TELEMETRY_SAVE_FILE};
    use bcp_storage::uri::Scheme;
    use bcp_storage::MemoryBackend;
    use bcp_topology::Parallelism;
    use std::collections::BTreeMap;

    /// One 2-rank DDP save + load through `registry`.
    fn save_and_load(registry: Arc<BackendRegistry>) {
        let par = Parallelism::data_parallel(2).unwrap();
        let world = CommWorld::new(2, Backend::Flat);
        std::thread::scope(|s| {
            for rank in 0..2 {
                let (world, registry) = (world.clone(), registry.clone());
                s.spawn(move || {
                    let ckpt = Checkpointer::builder(world.communicator(rank).unwrap())
                        .framework(Framework::Ddp)
                        .parallelism(par)
                        .registry(registry)
                        .build()
                        .unwrap();
                    let state =
                        build_train_state(&zoo::tiny_gpt(), Framework::Ddp, par, rank, true);
                    ckpt.save(&SaveRequest::new("mem://t/step_1", &state, 1))
                        .unwrap()
                        .wait()
                        .unwrap();
                    let mut target = state.clone();
                    ckpt.load(&mut LoadRequest::new("mem://t/step_1", &mut target)).unwrap();
                });
            }
        });
    }

    /// Objects under the store, minus the per-step telemetry artifacts (they
    /// carry wall-clock timings and differ between any two runs).
    fn objects(store: &MemoryBackend) -> BTreeMap<String, Bytes> {
        store
            .list("")
            .unwrap()
            .into_iter()
            .filter(|p| !p.ends_with(TELEMETRY_SAVE_FILE) && !p.ends_with(TELEMETRY_LOAD_FILE))
            .map(|p| {
                let data = store.read(&p).unwrap();
                (p, data)
            })
            .collect()
    }

    /// A stack whose bottom layer counts what reaches the store; `probe`
    /// inserts the wrapper under test above it.
    fn run(probe: bool) -> (BTreeMap<String, Bytes>, [u64; METHODS]) {
        let store = Arc::new(MemoryBackend::new());
        let clock = Clock::new();
        let counter = Arc::new(TimedBackend::new(store.clone(), clock));
        let top: Arc<dyn StorageBackend> = if probe {
            let wrapper = Arc::new(TimedBackend::new(counter.clone(), clock));
            wrapper.set_recording(true);
            assert_eq!(wrapper.name(), store.name());
            assert_eq!(wrapper.zero_copy_reads(), store.zero_copy_reads());
            assert_eq!(wrapper.shed_optional_work(), store.shed_optional_work());
            assert_eq!(wrapper.op_attrs(), store.op_attrs());
            wrapper
        } else {
            counter.clone()
        };
        let mut registry = BackendRegistry::new();
        registry.register(Scheme::Memory, top);
        save_and_load(Arc::new(registry));
        (objects(&store), counter.counts())
    }

    #[test]
    fn wrapping_changes_neither_stored_bytes_nor_op_counts() {
        let (plain_objects, plain_counts) = run(false);
        let (probed_objects, probed_counts) = run(true);
        assert!(plain_objects.len() > 3, "the save must store shards, metadata and marker");
        assert_eq!(plain_objects, probed_objects);
        assert_eq!(plain_counts, probed_counts);
    }

    #[test]
    fn recording_tags_calls_with_the_current_step() {
        let clock = Clock::new();
        let probe = TimedBackend::new(Arc::new(MemoryBackend::new()), clock);
        probe.write("a", Bytes::from_static(b"xy")).unwrap();
        probe.set_recording(true);
        probe.set_step(7);
        probe.write_segments("b", &[Bytes::from_static(b"abc"), Bytes::from_static(b"d")]).unwrap();
        assert_eq!(probe.read("b").unwrap().len(), 4);
        let calls = probe.take_calls();
        assert_eq!(calls.len(), 2, "the call before recording started is counted, not logged");
        assert_eq!(probe.total_calls(), 3);
        assert!(calls.iter().all(|c| c.step == 7 && c.bytes == 4 && c.end_ns >= c.start_ns));
        assert_eq!(calls[0].method.class(), Class::Write);
        assert_eq!(calls[1].method.class(), Class::Read);
    }
}
