//! QuEST reproduction — umbrella crate.
//!
//! Re-exports the full stack built for the reproduction of *Taming the
//! Instruction Bandwidth of Quantum Computers via Hardware-Managed Error
//! Correction* (Tannu et al., MICRO-50 2017):
//!
//! * [`stabilizer`] — CHP tableau + state-vector simulators;
//! * [`surface`] — surface-code lattice, syndrome circuits, decoders;
//! * [`isa`] — physical µop and logical instruction sets;
//! * [`arch`] — the QuEST control processor (MCEs, master controller,
//!   microcode models, end-to-end system simulation);
//! * [`estimate`] — the QuRE-style resource/bandwidth estimator;
//! * [`runtime`] — the concurrent, sharded multi-tile simulation
//!   runtime (one worker thread per MCE shard, a shared global-decode
//!   pool, packet-shaped channel messages);
//! * [`serve`] — the multi-tenant job server over the runtime
//!   (admission control, bounded queue, worker pool, streaming job
//!   events, server ledger).
//!
//! # Quickstart
//!
//! ```
//! use quest::arch::{DeliveryMode, MultiTileSystem};
//! use quest::isa::LogicalProgram;
//! use quest::stabilizer::{SeedableRng, StdRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! // One d=3 tile at p = 1e-3, QECC replayed by its MCE.
//! let mut system = MultiTileSystem::with_delivery(3, 1, 1e-3, DeliveryMode::QuestMce)?;
//! let run = system.run_memory_workload(50, &LogicalProgram::new(), 0, &mut rng);
//! assert!(run.logical_ok());
//! # Ok::<(), quest::arch::BuildError>(())
//! ```

#![forbid(unsafe_code)]

pub use quest_core as arch;
pub use quest_estimate as estimate;
pub use quest_isa as isa;
pub use quest_runtime as runtime;
pub use quest_serve as serve;
pub use quest_stabilizer as stabilizer;
pub use quest_surface as surface;
