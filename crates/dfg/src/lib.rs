//! # bist-dfg — scheduled data-flow graphs for high-level BIST synthesis
//!
//! This crate provides the front half of the high-level synthesis flow that
//! the DAC'99 ADVBIST paper assumes as its input: a data-flow graph (DFG)
//! whose operations have already been **scheduled** into control steps and
//! **bound** to functional modules. On top of the graph representation it
//! offers:
//!
//! * a fluent [`builder::DfgBuilder`] for constructing DFGs,
//! * ASAP / ALAP / resource-constrained list [`schedule`] algorithms,
//! * minimum-resource module [`binding`],
//! * variable [`lifetime`] analysis, the *horizontal crossing* register
//!   lower bound of the paper (Section 2) and the variable compatibility
//!   graph,
//! * a left-edge register [`allocate`] used by the heuristic baselines,
//! * the [`benchmarks`] used in the paper's evaluation (the Figure 1
//!   example, *tseng*, *paulin*, and the four HYPER-derived filters
//!   *fir6*, *iir3*, *dct4*, *wavelet6* — reconstructed from their textbook
//!   definitions, see [`benchmarks`] for the substitution note), plus a random
//!   DFG generator for stress tests,
//! * Graphviz [`dot`] export.
//!
//! # Example
//!
//! ```
//! use bist_dfg::benchmarks;
//! use bist_dfg::lifetime::LifetimeTable;
//!
//! # fn main() -> Result<(), bist_dfg::DfgError> {
//! let input = benchmarks::figure1();
//! let lifetimes = LifetimeTable::new(&input)?;
//! // Figure 1 of the paper needs three registers and two modules.
//! assert_eq!(lifetimes.min_registers(), 3);
//! assert_eq!(input.binding().num_modules(), 2);
//! # Ok(())
//! # }
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocate;
pub mod benchmarks;
pub mod binding;
pub mod builder;
pub mod dot;
pub mod error;
pub mod graph;
pub mod lifetime;
pub mod schedule;

pub use binding::{Binding, ModuleClass, ModuleId};
pub use builder::DfgBuilder;
pub use error::DfgError;
pub use graph::{
    Dfg, OpId, OpKind, Operation, PortIndex, SynthesisInput, VarId, VarSource, Variable,
};
pub use lifetime::{InputTiming, Lifetime, LifetimeTable};
pub use schedule::Schedule;
