//! # ds-core — the direct-store system model
//!
//! The paper's contribution, assembled: a timed model of the full
//! integrated CPU-GPU chip (Table I) that runs the same workload under
//! the baseline cache-coherent shared memory (**CCSM**, the Hammer
//! protocol) and under **direct store**, the push-based scheme in which
//! CPU stores to the reserved GPU-homed address window are forwarded
//! over a dedicated network straight into the GPU L2
//! (`I → MM` on arrival, paper Fig. 3).
//!
//! * [`SystemConfig`] — every structural and timing parameter, with
//!   [`SystemConfig::paper_default`] reproducing Table I,
//! * [`Mode`] — CCSM baseline, direct store as a *complement* (§III.A–G)
//!   or as a stand-alone *replacement* for coherence (§III.H),
//! * [`System`] — the event-driven machine: CPU core + TLB + store
//!   buffer + L1D/L2, sixteen SMs + L1s + four L2 slices, broadcast
//!   hub, DRAM, coherence network and the dedicated direct network,
//! * [`RunReport`] / [`Comparison`] — per-run statistics and the
//!   CCSM-vs-DS comparison the figures are built from,
//! * [`Pipeline`] and [`Scenario`] — the end-to-end experiment flow:
//!   translate the benchmark's source with `ds-xlat`, lay out memory,
//!   build programs, simulate both modes,
//! * [`trace`] — single-line data-movement traces (Fig. 1),
//! * [`topology`] — the simulated chip's wiring description (Fig. 2).
//!
//! # Examples
//!
//! Running a tiny hand-built scenario under both coherence modes:
//!
//! ```
//! use ds_core::{Mode, System, SystemConfig};
//! use ds_cpu::{CpuOp, Program};
//! use ds_gpu::{KernelTrace, WarpOp};
//! use ds_mem::VirtAddr;
//!
//! let cfg = SystemConfig::paper_default();
//! let mut produce = Program::new();
//! // CPU produces 64 lines that the GPU will read.
//! let base = VirtAddr::new(0x7f00_0000_0000); // in the direct window
//! produce.store_array(base, 64 * 128, 0);
//! produce.push(CpuOp::Launch(0));
//! produce.push(CpuOp::WaitGpu);
//!
//! let mut kernel = KernelTrace::new("consume");
//! for w in 0..8 {
//!     kernel.push_warp(vec![WarpOp::global_load(base.offset(w * 8 * 128), 8)]);
//! }
//!
//! let mut ccsm = System::new(cfg.clone(), Mode::Ccsm);
//! let r1 = ccsm.run(produce.clone(), vec![kernel.clone()]);
//! let mut ds = System::new(cfg, Mode::DirectStore);
//! let r2 = ds.run(produce, vec![kernel]);
//! assert!(r2.gpu_l2.misses.value() < r1.gpu_l2.misses.value());
//! ```

pub mod config;
pub mod fault;
pub mod pipeline;
pub mod report;
pub mod runtime;
pub mod topology;
pub mod trace;

pub use config::{Mode, SystemConfig};
pub use fault::{FaultDomain, FaultKind, FaultNet, FaultPlan, FaultRoll, NetFaultRates, SimAbort};
pub use pipeline::{Comparison, InputSize, Pipeline, PipelineError, Scenario, ScenarioBuild};
pub use report::RunReport;
pub use runtime::System;
