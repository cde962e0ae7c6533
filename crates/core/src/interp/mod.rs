//! Interpolation operator construction (§3.1.2).
//!
//! Three operators, matching Tables 3/4:
//!
//! * [`extended_i`] — extended+i distance-2 interpolation (Eq. 1 of the
//!   paper), the single-node default (`ei(4)`),
//! * [`multipass`] — Stüben's multipass interpolation for aggressive
//!   coarsening (`mp`),
//! * [`two_stage_extended_i`] — extended+i composed across the two PMIS
//!   stages of aggressive coarsening with truncation at every stage
//!   (`2s-ei(444)`).
//!
//! Every builder returns a full `n × nc` operator whose coarse rows are
//! identity rows; the optimized solver path permutes points coarse-first
//! so the operator takes the `[I; P_F]` form exploited by the CF-block
//! RAP and the interpolation/restriction SpMVs.

mod common;
mod direct;
mod extended_i;
mod multipass;
mod tape;
mod two_stage;

pub use common::{truncate_matrix, truncate_row, CfMap, TruncParams};
pub use direct::direct_rows;
pub use extended_i::{extended_i, extended_i_rows, remote_entry_is_read};
pub use multipass::{multipass, Multipass};
pub use tape::{ExtITape, TapeMismatch};
pub use two_stage::two_stage_extended_i;
