//! # wgtt-mac — the 802.11 MAC substrate
//!
//! The link-layer machinery WGTT's mechanisms plug into:
//!
//! * [`timing`] — slot/SIFS/DIFS constants and airtime computation,
//!   including the aggregation-efficiency math that motivates A-MPDU;
//! * [`dcf`] — binary-exponential backoff (contention between APs and
//!   clients on one channel);
//! * [`blockack`] — transmitter scoreboard and receiver reorderer for the
//!   802.11n Block ACK protocol, with 12-bit wrap-aware sequence math;
//! * [`assoc`] — the authentication/association state machine used by the
//!   Enhanced 802.11r baseline and by WGTT's backhaul state sharing.
//!
//! Everything is a poll-style state machine — frames in, actions out — so
//! each protocol piece is unit-testable without a simulated radio.

pub mod assoc;
pub mod blockack;
pub mod dcf;
pub mod timing;

pub use assoc::{mgmt_frame_bytes, ApAssoc, AssocState, MgmtFrame};
pub use blockack::{seq_add, seq_fwd_dist, BlockAckFrame, RxReorder, TxScoreboard, BA_WINDOW};
pub use dcf::Backoff;
