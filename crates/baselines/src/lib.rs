//! # bist-baselines — the heuristic BIST synthesis methods of the DAC'99 comparison
//!
//! The paper compares ADVBIST against three earlier high-level BIST synthesis
//! systems (Table 3):
//!
//! * **ADVAN** — the authors' earlier test-session-oriented heuristic
//!   (Kim/Takahashi/Ha, ITC 1998): registers are allocated with the classic
//!   left-edge algorithm (ignoring multiplexer cost), then test registers are
//!   chosen greedily so that reconfiguration cost is minimised and no extra
//!   registers are added.
//! * **RALLOC** — Avra's allocation method (ITC 1991): register allocation is
//!   driven by a register conflict graph that avoids *self-adjacent*
//!   registers (a register that both feeds and is fed by the same module
//!   would need a costly BILBO/CBILBO); an extra register is added when
//!   avoidance is otherwise impossible.
//! * **BITS** — Parulkar/Gupta/Breuer's method (DAC 1995): test-register
//!   *sharing* is maximised, i.e. the same few registers are reused as TPG or
//!   signature register for as many modules as possible, even when that
//!   upgrades them to BILBOs.
//!
//! The original implementations are not available; these are re-implementations
//! of the published algorithmic ideas at the level of detail the Table 3
//! comparison requires. All three produce the same
//! [`bist_datapath::Datapath`] + [`bist_datapath::TestPlan`] structures as
//! ADVBIST and are checked by the same validator, so the area comparison is
//! apples-to-apples.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advan;
pub mod bits;
pub mod common;
pub mod error;
pub mod ralloc;

pub use advan::synthesize_advan;
pub use bits::synthesize_bits;
pub use common::{HeuristicDesign, SharingStrategy};
pub use error::BaselineError;
pub use ralloc::synthesize_ralloc;
