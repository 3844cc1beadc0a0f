//! The backend-agnostic lane interface.

use crate::error::TransportError;
use crate::frame::Frame;

/// Cumulative counters of one [`Transport`] endpoint.
///
/// A delay/loss gate in front of an endpoint folds its own activity in
/// (its offers become [`TransportStats::sent`], its losses add to
/// [`TransportStats::dropped`]), so the counters describe the whole lane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Frames accepted for sending at this endpoint.
    pub sent: u64,
    /// Frames delivered to the caller by [`Transport::try_recv`].
    pub received: u64,
    /// Frames dropped before reaching the peer: backpressure evictions,
    /// gate losses, send timeouts.
    pub dropped: u64,
    /// Times a broken connection was re-established (no shipped backend
    /// reconnects — a dead TCP lane stays dead — so this reads 0; the
    /// field keeps the telemetry schema stable).
    pub reconnects: u64,
    /// Malformed frames encountered while decoding the inbound stream.
    pub decode_errors: u64,
    /// Raw bytes written to the wire (0 for in-process backends).
    pub bytes_sent: u64,
    /// Raw bytes read from the wire (0 for in-process backends).
    pub bytes_received: u64,
}

impl TransportStats {
    /// Element-wise sum (for aggregating a set of lanes).
    pub fn merge(&self, other: &TransportStats) -> TransportStats {
        TransportStats {
            sent: self.sent + other.sent,
            received: self.received + other.received,
            dropped: self.dropped + other.dropped,
            reconnects: self.reconnects + other.reconnects,
            decode_errors: self.decode_errors + other.decode_errors,
            bytes_sent: self.bytes_sent + other.bytes_sent,
            bytes_received: self.bytes_received + other.bytes_received,
        }
    }
}

/// One endpoint of a bidirectional feedback lane.
///
/// A lane connects the controller node to one processor node; each side
/// holds one `Transport` endpoint and exchanges [`Frame`]s through it.
/// Endpoints are non-blocking: [`Transport::try_recv`] returns
/// immediately, and [`Transport::send`] blocks at most for the backend's
/// configured send timeout.
///
/// The in-process backend, [`channel_pair`], ships with `eucon-net`:
/// bounded SPSC queues with drop-oldest backpressure, the *ideal lane*
/// whose closed-loop traces are bit-identical to the single-process
/// loop.  TCP lanes run on the [`PollEngine`] instead, which multiplexes
/// every lane of a node on one readiness loop.
///
/// [`channel_pair`]: crate::channel_pair
/// [`PollEngine`]: crate::PollEngine
pub trait Transport: Send {
    /// Queues a frame for delivery to the peer endpoint.
    ///
    /// Backends may drop frames under backpressure (counted in
    /// [`TransportStats::dropped`]) rather than block the control loop.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError`] when the peer is unreachable and the
    /// frame could not even be queued.
    fn send(&mut self, frame: Frame) -> Result<(), TransportError>;

    /// Delivers the next received frame, without blocking.
    ///
    /// `Ok(None)` means no complete frame is currently available.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError`] for connection failures and malformed
    /// inbound streams.
    fn try_recv(&mut self) -> Result<Option<Frame>, TransportError>;

    /// Cumulative counters for this endpoint.
    fn stats(&self) -> TransportStats;

    /// Short backend label for diagnostics (`"channel"`, `"tcp"`, ...).
    fn name(&self) -> &'static str;
}
