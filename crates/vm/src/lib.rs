//! # fol-vm — a cost-modelled pipelined vector-processor simulator
//!
//! This crate is the hardware substrate for the reproduction of Kanada's
//! *filtering-overwritten-label* (FOL) method ("A Method of Vector Processing
//! for Shared Symbolic Data", Supercomputing '91). The paper evaluates FOL on
//! a Hitachi S-810, a memory-to-memory pipelined vector processor with
//! *list-vector* (indirect gather/scatter) instructions and masked operation
//! support. No such machine is available, so this crate models one:
//!
//! * a word-addressed [`Memory`] shared by scalar and vector code,
//! * vector values ([`VReg`]) and boolean mask values ([`Mask`]),
//! * the instruction repertoire FOL needs: contiguous and indirect
//!   loads/stores, elementwise ALU operations, compares producing masks,
//!   masked select/store, `compress` (Fortran-90 `pack` / the paper's
//!   `A where M`), `count_true`, `iota`, and reductions,
//! * a configurable [`CostModel`] that charges every instruction — vector
//!   instructions pay a start-up latency per strip plus a per-element chime;
//!   scalar operations pay a fixed per-operation cost — accumulated in
//!   [`Stats`] so that *modelled acceleration ratios* (scalar cycles /
//!   vector cycles) can be compared with the paper's measured ratios,
//! * pluggable [`ConflictPolicy`] semantics for scatters with duplicate
//!   indices. All policies satisfy the paper's **ELS condition** (*exclusive
//!   label storing*: exactly one of the competing values is stored, never an
//!   amalgam); which one wins is the policy's choice — including an
//!   ELS-conforming adversary ([`ConflictPolicy::Adversarial`]) built to
//!   provoke FOL\*'s livelock. [`Machine::scatter_ordered`]
//!   models the S-3800 `VSTX` instruction (element order defines the winner).
//! * deterministic **fault injection** ([`fault`]): a seed-driven
//!   [`FaultPlan`] drops scatter lanes and tears conflicting writes into
//!   amalgams, with every injected fault recorded in a [`FaultLog`] — the
//!   broken-hardware models that the hardened `fol-core` execution paths are
//!   tested against,
//! * typed **machine traps** ([`MachineTrap`]): trapping instructions
//!   (division by zero) exist in panicking and fallible (`try_*`) forms,
//! * **transactions** ([`journal`]): [`Machine::begin_txn`] opens a
//!   first-write undo log over every instruction-level store;
//!   [`Machine::abort_txn`] restores memory byte-exact, which is what lets
//!   the recovery supervisor in `fol-core` retry a faulted FOL round
//!   instead of surfacing a torn result,
//! * an **integrity layer** ([`integrity`]): per-[`Region`] and per-block
//!   incremental checksums ([`Machine::track_region`] / [`Machine::scrub`],
//!   and [`Machine::scrub_footprint`] over what an open transaction
//!   touched) that catch resident bit-rot, a committed image that repairs
//!   it, and an [`ElsAuditor`] that validates each FOL round's
//!   gathered labels against the labels actually scattered — so a read-side
//!   lie (gather bit-flip, stale read, torn gather) or decayed work area
//!   surfaces as a typed [`IntegrityError`] at the round boundary instead of
//!   a silently wrong decomposition.
//!
//! The simulator is deliberately *functional* in style: instructions take and
//! return owned vector values, and the machine only owns memory, the cost
//! meter and the conflict-resolution state. This keeps algorithm code close
//! to the paper's Fortran-90-style pseudocode while remaining safe Rust.
//!
//! ```
//! use fol_vm::{Machine, CostModel};
//!
//! let mut m = Machine::new(CostModel::s810());
//! let table = m.alloc(8, "table");
//! // Scatter 3 values through an index vector with a duplicate index (ELS:
//! // one of the two writes to slot 5 survives).
//! let idx = m.vimm(&[5, 2, 5]);
//! let val = m.vimm(&[10, 20, 30]);
//! m.scatter(table, &idx, &val);
//! let back = m.gather(table, &idx);
//! assert_eq!(back.get(1), 20);
//! assert!(back.get(0) == 10 || back.get(0) == 30);
//! assert!(m.stats().vector_cycles > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod conflict;
pub mod cost;
pub mod expr;
pub mod fault;
pub mod health;
pub mod integrity;
pub mod journal;
pub mod machine;
pub mod memory;
pub mod program;
pub mod trace;
pub mod vreg;

pub use backend::{BackendKind, LaneEngine, ScalarEngine};
pub use conflict::{AdversaryState, ConflictPolicy};
pub use cost::{CostModel, OpKind, Stats};
pub use fault::{AmalgamMode, FaultEvent, FaultLog, FaultPlan};
pub use health::{LaneHealthRegistry, LaneSet, LANE_COUNT};
pub use integrity::{
    digest_words, BlockScrub, CutBaseline, ElsAuditor, IntegrityError, TrackedRegion, BLOCK_WORDS,
};
pub use journal::{Snapshot, TxnError, WriteJournal};
pub use machine::{AluOp, CmpOp, Machine, MachineTrap};
pub use memory::{Addr, Memory, Region, SliceError};
pub use program::{execute, Inst, Program, Registers, Stop};
pub use trace::{TraceEntry, Tracer};
pub use vreg::{Mask, VReg, Word};
