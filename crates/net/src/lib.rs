//! `eucon-net` — the feedback-lane transport runtime.
//!
//! The EUCON paper (§4) wires each processor's utilization monitor and
//! rate modulator to the central controller over dedicated TCP
//! connections, but evaluates the loop with those lanes idealized away.
//! This crate makes the lanes real and pluggable:
//!
//! * [`Frame`] — the versioned, compact binary wire format
//!   (utilization reports up, rate commands down; `f64` payloads
//!   round-trip bit-for-bit).
//! * [`Transport`] — the lane-endpoint interface, with the in-process
//!   backend [`channel_pair`] (bounded queues with drop-oldest
//!   backpressure — the *ideal lane*).
//! * [`DelayLossGate`] — network effects (delay, loss) in front of any
//!   sending endpoint, draw-for-draw compatible with the closed loop's
//!   `LaneModel`.
//! * [`PollEngine`] / [`LaneFabric`] — real TCP lanes: one sweep-based
//!   readiness loop per node multiplexing thousands of nonblocking
//!   loopback connections with zero-copy [`FrameView`] decode and
//!   allocation-free [`encode_frame`] sends — no thread per lane.
//!
//! The distributed loop runtime in `eucon-core` drives these endpoints;
//! this crate knows nothing about control theory — it moves frames.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod channel;
mod error;
mod frame;
mod lanes;
mod middleware;
mod poll;
mod transport;

pub use channel::{channel_pair, ChannelTransport};
pub use error::{FrameError, TransportError};
pub use frame::{
    encode_frame, Frame, FrameKind, FrameReader, FrameView, BOUNDARY_TRAILER_LEN, FRAME_VERSION,
    HEADER_LEN, MAX_PAYLOAD,
};
pub use lanes::{tcp_lane_fabric, LaneFabric};
pub use middleware::DelayLossGate;
pub use poll::{LaneToken, PollEngine, TcpConfig};
pub use transport::{Transport, TransportStats};
