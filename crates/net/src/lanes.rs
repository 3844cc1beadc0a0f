//! Lane fabrics: bulk construction of connected poll-engine lane sets.
//!
//! A control deployment needs one lane per processor, and a service
//! hosting many tenants needs thousands.  [`tcp_lane_fabric`] builds
//! them all off a single ephemeral listener: lane `i` is one loopback
//! TCP connection whose controller-side endpoint is token `i` in
//! [`LaneFabric::ctrl`] and whose processor-side endpoint is token `i`
//! in [`LaneFabric::proc`] — the two engines index identically, so the
//! distributed runtime addresses a lane by processor index on both
//! sides.

use std::net::{TcpListener, TcpStream};

use crate::poll::{PollEngine, TcpConfig};

/// Both sides of a set of connected lanes, each side one [`PollEngine`].
///
/// In-process deployments (the simulation harness, the control service)
/// hold both engines; a real split deployment would hold one side and
/// hand the peer sockets to the remote node.
#[derive(Debug)]
pub struct LaneFabric {
    /// Controller-side endpoints: commands out, reports in.
    pub ctrl: PollEngine,
    /// Processor-side endpoints: reports out, commands in.
    pub proc: PollEngine,
}

impl LaneFabric {
    /// Number of lanes in the fabric.
    pub fn lanes(&self) -> usize {
        self.ctrl.lanes()
    }
}

/// Builds `lanes` connected loopback-TCP lanes multiplexed over two
/// poll engines.
///
/// One ephemeral listener serves every accept, and connections are
/// established sequentially, so token `i` on the controller engine is
/// wired to token `i` on the processor engine.
///
/// # Errors
///
/// Propagates any `std::io::Error` from binding, connecting, accepting
/// or configuring the sockets.
pub fn tcp_lane_fabric(cfg: &TcpConfig, lanes: usize) -> std::io::Result<LaneFabric> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let addr = listener.local_addr()?;
    let mut ctrl = PollEngine::new(cfg);
    let mut proc = PollEngine::new(cfg);
    for lane in 0..lanes {
        let proc_stream = TcpStream::connect(addr)?;
        let (ctrl_stream, _) = listener.accept()?;
        let ctrl_token = ctrl.register(ctrl_stream)?;
        let proc_token = proc.register(proc_stream)?;
        debug_assert_eq!(ctrl_token, lane);
        debug_assert_eq!(proc_token, lane);
    }
    Ok(LaneFabric { ctrl, proc })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameKind;
    use std::time::{Duration, Instant};

    #[test]
    fn fabric_tokens_pair_up_by_lane() {
        let mut fabric = tcp_lane_fabric(&TcpConfig::default(), 8).unwrap();
        assert_eq!(fabric.lanes(), 8);
        // Each proc lane sends its own index; the paired ctrl lane must
        // be the only one that receives it.
        for lane in 0..8 {
            fabric
                .proc
                .send(
                    lane,
                    FrameKind::UtilizationReport,
                    1,
                    1,
                    0,
                    [lane as f64].into_iter(),
                )
                .unwrap();
        }
        for lane in 0..8 {
            let deadline = Instant::now() + Duration::from_secs(5);
            let mut got = None;
            while got.is_none() && Instant::now() < deadline {
                fabric
                    .ctrl
                    .drain(lane, |view| got = Some(view.value(0)))
                    .unwrap();
            }
            assert_eq!(got, Some(lane as f64), "lane {lane} crosswired");
        }
    }
}
