//! The three workloads: what each saves, how it loads it back, and on which
//! storage stack. README.md in this directory says why each one exists.

use bcp_core::BackendRegistry;
use bcp_model::states::build_train_state;
use bcp_model::{ArchKind, Framework, StateDict, TrainState, TransformerConfig};
use bcp_storage::uri::Scheme;
use bcp_storage::{
    MemoryBackend, ObjectStoreBackend, ObjectStoreConfig, ResilientBackend, StorageBackend,
};
use bcp_tensor::{DType, Tensor};
use bcp_topology::{Parallelism, ShardSpec};
use bytes::Bytes;
use std::sync::Arc;
use std::time::Duration;

/// Ranks per job on every workload (one thread each).
pub const RANKS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BulkDdp,
    ReshardMany,
    ObjectLatency,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "bulk-ddp" => Some(Workload::BulkDdp),
            "reshard-many" => Some(Workload::ReshardMany),
            "object-latency" => Some(Workload::ObjectLatency),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkDdp => "bulk-ddp",
            Workload::ReshardMany => "reshard-many",
            Workload::ObjectLatency => "object-latency",
        }
    }

    /// Timed steps in one lifetime (a traced lifetime runs `TRACED_STEPS`).
    /// Fixed rather than timed: with the default per-step telemetry every
    /// step of a `Checkpointer` is slower than the last, so a lifetime that
    /// ran for a fixed time would sample a different part of that curve on a
    /// faster or slower machine.
    pub fn lifetime_steps(self) -> usize {
        match self {
            Workload::BulkDdp => 3,
            Workload::ReshardMany => 5,
            Workload::ObjectLatency => 4,
        }
    }

    /// Untimed steps between set-up and the timed loop. On `reshard-many`
    /// the stall of a new `Checkpointer`'s first steps climbs steeply
    /// (about 45, then 60, then 68-73 ms, also for a second `Checkpointer`
    /// in a warm process), and with those steps timed a run's median fell
    /// on the slope and moved with every sample. On `object-latency` the
    /// first step after set-up already stalls like the later ones.
    pub fn settle_steps(self) -> usize {
        match self {
            Workload::BulkDdp => 1,
            Workload::ReshardMany => 2,
            Workload::ObjectLatency => 0,
        }
    }

    pub fn arch(self) -> TransformerConfig {
        let gpt = |name: &str, hidden, layers, vocab| TransformerConfig {
            name: name.into(),
            kind: ArchKind::Gpt,
            hidden,
            heads: 8,
            layers,
            vocab,
            ffn_mult: 4,
            dtype: DType::F32,
            num_experts: 0,
        };
        match self {
            Workload::BulkDdp => gpt("bench-gpt-h1024", 1024, 4, 2048),
            Workload::ReshardMany => gpt("bench-gpt-h64-l192", 64, 192, 1024),
            Workload::ObjectLatency => gpt("bench-gpt-h512", 512, 4, 1024),
        }
    }

    /// The layout the job saves with.
    pub fn save_layout(self) -> (Framework, Parallelism) {
        match self {
            Workload::BulkDdp => (Framework::Ddp, Parallelism::data_parallel(RANKS).unwrap()),
            Workload::ReshardMany => (
                Framework::Megatron { distributed_optimizer: true },
                Parallelism::new(RANKS, 1, 1).unwrap(),
            ),
            Workload::ObjectLatency => fsdp_zero3(),
        }
    }

    /// The layout the load target is sharded in (the load reshards when it
    /// differs from the saved one).
    pub fn load_layout(self) -> (Framework, Parallelism) {
        match self {
            Workload::ReshardMany => fsdp_zero3(),
            _ => self.save_layout(),
        }
    }

    /// URI scheme the checkpoints live under.
    pub fn scheme(self) -> &'static str {
        match self {
            Workload::ObjectLatency => "object",
            _ => "mem",
        }
    }

    /// The storage under test, without the benchmark's probe. Also returns
    /// the simulated object store, when there is one, for its request count.
    pub fn storage(self, seed: u64) -> (Arc<dyn StorageBackend>, Option<Arc<ObjectStoreBackend>>) {
        match self {
            Workload::ObjectLatency => {
                let store = Arc::new(ObjectStoreBackend::new(object_store(seed)));
                (Arc::new(ResilientBackend::new(store.clone())), Some(store))
            }
            _ => (Arc::new(MemoryBackend::new()), None),
        }
    }

    /// Workload parameters that define its numbers (hashed into the report
    /// header).
    pub fn describe(self) -> serde_json::Value {
        let arch = self.arch();
        let (sfw, spar) = self.save_layout();
        let (lfw, lpar) = self.load_layout();
        serde_json::json!({
            "workload": self.name(),
            "ranks": RANKS,
            "arch": { "hidden": arch.hidden, "layers": arch.layers, "vocab": arch.vocab, "dtype": "f32" },
            "save": format!("{} {}", sfw.name(), spar.describe()),
            "load": format!("{} {}", lfw.name(), lpar.describe()),
            "storage": match self {
                Workload::ObjectLatency => {
                    let cfg = object_store(0);
                    format!(
                        "resilient(object: {} ms/request, {} ms/MiB, no throttling, no faults)",
                        cfg.request_latency.as_millis(),
                        cfg.per_mib_latency.as_millis()
                    )
                }
                _ => "memory".to_string(),
            },
        })
    }
}

/// The simulated object store: per-request and per-MiB latency only.
fn object_store(seed: u64) -> ObjectStoreConfig {
    ObjectStoreConfig {
        request_latency: Duration::from_millis(20),
        per_mib_latency: Duration::from_millis(10),
        seed,
        ..ObjectStoreConfig::default()
    }
}

fn fsdp_zero3() -> (Framework, Parallelism) {
    (Framework::Fsdp { zero3: true }, Parallelism::data_parallel(RANKS).unwrap())
}

/// Registry resolving the workload's scheme to `backend`.
pub fn registry(wl: Workload, backend: Arc<dyn StorageBackend>) -> Arc<BackendRegistry> {
    let scheme = match wl {
        Workload::ObjectLatency => Scheme::Object,
        _ => Scheme::Memory,
    };
    let mut registry = BackendRegistry::new();
    registry.register(scheme, backend);
    Arc::new(registry)
}

/// One rank's inputs: the state it saves, the state a correct load of the
/// checkpoint into its target layout must produce, and that target's
/// layout (meta tensors).
pub struct RankInputs {
    pub source: TrainState,
    pub expected: TrainState,
    pub target_layout: TrainState,
}

/// Generate every rank's inputs from `seed`. Each element's value is a hash
/// of (seed, tensor name, global element index), so any two layouts of one
/// tensor agree on shared elements: DDP replicas are byte-identical and a
/// resharded load has a bitwise ground truth.
pub fn generate(wl: Workload, seed: u64) -> Vec<RankInputs> {
    let arch = wl.arch();
    let (sfw, spar) = wl.save_layout();
    let (lfw, lpar) = wl.load_layout();
    let reshards = (sfw, spar) != (lfw, lpar);
    let rank_inputs = |rank: usize, shared_source: Option<&TrainState>| {
        let target_layout = build_train_state(&arch, lfw, lpar, rank, false);
        let source = match shared_source {
            Some(s) => s.clone(),
            None => fill_state(&build_train_state(&arch, sfw, spar, rank, false), seed),
        };
        let expected = if reshards { fill_state(&target_layout, seed) } else { source.clone() };
        RankInputs { source, expected, target_layout }
    };
    if sfw == Framework::Ddp {
        // DDP replicas hold the same bytes; share one copy between ranks.
        let first = rank_inputs(0, None);
        let rest: Vec<RankInputs> =
            (1..RANKS).map(|r| rank_inputs(r, Some(&first.source))).collect();
        return std::iter::once(first).chain(rest).collect();
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..RANKS).map(|r| s.spawn(move || rank_inputs(r, None))).collect();
        handles.into_iter().map(|h| h.join().expect("input generation panicked")).collect()
    })
}

/// A zero-filled target for `layout`: freshly allocated and written, so it
/// is resident like the model state a load replaces. (A `calloc`ed buffer
/// may be fresh, untouched pages; the opaque fill value keeps the compiler
/// from turning the write into one.)
pub fn zeros(layout: &TrainState) -> TrainState {
    let dict = |d: &StateDict| {
        let mut out = d.clone();
        for e in out.entries.values_mut() {
            let mut buf = Vec::with_capacity(e.tensor.nbytes());
            buf.resize(e.tensor.nbytes(), std::hint::black_box(0u8));
            e.tensor = Tensor::from_bytes(e.dtype, e.tensor.shape().to_vec(), Bytes::from(buf))
                .expect("buffer sized from the tensor");
        }
        out
    };
    TrainState { model: dict(&layout.model), optimizer: dict(&layout.optimizer) }
}

/// Materialize every meta tensor of `layout` with the seeded fill.
fn fill_state(layout: &TrainState, seed: u64) -> TrainState {
    let dict = |d: &StateDict| {
        let mut out = d.clone();
        for e in out.entries.values_mut() {
            assert_eq!(e.dtype, DType::F32, "the benchmark models are f32");
            let key = seed ^ fnv1a(e.fqn.as_bytes());
            let n = e.spec.local_numel(&e.global_shape).expect("spec valid for shape");
            let mut buf = vec![0u8; n * 4];
            let mut put = |l: usize, g: usize| {
                buf[l * 4..l * 4 + 4].copy_from_slice(&value(key, g as u64).to_le_bytes());
            };
            match &e.spec {
                ShardSpec::Replicated => (0..n).for_each(|l| put(l, l)),
                ShardSpec::Flat { offset, .. } => (0..n).for_each(|l| put(l, offset + l)),
                spec => spec.for_each_global_index(&e.global_shape, put).expect("valid spec"),
            }
            e.tensor = Tensor::from_bytes(e.dtype, e.tensor.shape().to_vec(), Bytes::from(buf))
                .expect("buffer sized from the spec");
        }
        out
    };
    TrainState { model: dict(&layout.model), optimizer: dict(&layout.optimizer) }
}

fn fnv1a(data: &[u8]) -> u64 {
    data.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// A finite f32 in [-1, 1) from splitmix64 of (key, global index).
fn value(key: u64, g: u64) -> f32 {
    let mut z = key.wrapping_add(g.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 41) as f32 * (1.0 / (1u64 << 22) as f32) - 1.0
}

/// First entry (in `expected`'s order) where `got` differs bitwise, if any.
pub fn first_mismatch(got: &TrainState, expected: &TrainState) -> Option<String> {
    for (name, g, w) in
        [("model", &got.model, &expected.model), ("optim", &got.optimizer, &expected.optimizer)]
    {
        if g.entries.len() != w.entries.len() {
            return Some(format!(
                "{name}: {} entries, expected {}",
                g.entries.len(),
                w.entries.len()
            ));
        }
        for (fqn, want) in &w.entries {
            match g.get(fqn) {
                Some(e) if e.tensor.bitwise_eq(&want.tensor) => {}
                Some(_) => return Some(format!("{name} {fqn} differs")),
                None => return Some(format!("{name} {fqn} missing")),
            }
        }
    }
    None
}

/// Total local bytes of a state.
pub fn state_bytes(s: &TrainState) -> u64 {
    s.model.local_bytes() + s.optimizer.local_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resharded_expectation_agrees_with_the_source_on_shared_elements() {
        // A tiny stand-in for reshard-many: Megatron TP=2 saved, FSDP read.
        let arch = bcp_model::zoo::tiny_gpt();
        let src = fill_state(
            &build_train_state(
                &arch,
                Framework::Megatron { distributed_optimizer: true },
                Parallelism::new(2, 1, 1).unwrap(),
                0,
                false,
            ),
            9,
        );
        let dst = fill_state(
            &build_train_state(
                &arch,
                Framework::Fsdp { zero3: true },
                Parallelism::data_parallel(1).unwrap(),
                0,
                false,
            ),
            9,
        );
        // Rank 0 of TP=2 holds the first row block of a column-split weight.
        let fqn = "layers.0.mlp.up.weight";
        let (s, d) = (src.model.get(fqn).unwrap(), dst.model.get(fqn).unwrap());
        let rows = s.tensor.shape()[0] * s.tensor.shape()[1];
        assert_eq!(s.tensor.bytes().unwrap()[..rows * 4], d.tensor.bytes().unwrap()[..rows * 4]);
        // A different seed gives different inputs.
        let other = fill_state(
            &build_train_state(
                &arch,
                Framework::Ddp,
                Parallelism::data_parallel(1).unwrap(),
                0,
                false,
            ),
            10,
        );
        assert!(!other.model.get(fqn).unwrap().tensor.bitwise_eq(&d.tensor));
    }
}
