//! Deterministic network fault injection: a seeded TCP chaos proxy.
//!
//! [`ChaosProxy`] sits between a client (or follower) and a server and
//! forwards bytes both ways, injecting faults per a [`ChaosPlan`]:
//! refused connections, per-chunk delays, mid-stream connection cuts,
//! and half-open stalls (bytes stop flowing but the socket stays open —
//! the failure mode only timeouts can unstick). A runtime partition
//! switch ([`ChaosProxy::set_partitioned`]) refuses new connections and
//! cuts live ones, modelling a network partition between two nodes.
//!
//! Determinism follows `pagestore::fault`'s design: every per-connection
//! decision is drawn from a [`SeededRng`] keyed on the proxy seed and
//! the connection's accept sequence number, and byte-count triggers fire
//! on exact per-direction forwarded totals. With a fixed request
//! schedule on the client side, a failing seed replays bit-for-bit.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use tseries::rng::SeededRng;

/// Poll interval of the pump loops: how fast they notice the stop flag,
/// a partition switch, or the end of a stall.
const PUMP_TICK: Duration = Duration::from_millis(25);

/// Fault probabilities and shapes, drawn once per accepted connection.
/// The default plan injects nothing (a transparent proxy).
#[derive(Clone, Copy, Debug, Default)]
pub struct ChaosPlan {
    /// Probability an incoming connection is refused outright (accepted
    /// then immediately closed — the client sees a reset/EOF).
    pub refuse_p: f64,
    /// Probability a connection gets a per-chunk forwarding delay.
    pub delay_p: f64,
    /// Delay range in milliseconds, inclusive.
    pub delay_ms: (u64, u64),
    /// Probability a connection is cut mid-stream.
    pub cut_p: f64,
    /// Per-direction forwarded-byte count range after which the cut
    /// fires, inclusive.
    pub cut_after: (u64, u64),
    /// Probability a connection half-open stalls: bytes stop flowing
    /// but the socket stays open until the proxy stops or partitions.
    pub stall_p: f64,
    /// Per-direction forwarded-byte count range after which the stall
    /// begins, inclusive.
    pub stall_after: (u64, u64),
}

/// What one connection is fated to suffer (both directions share it;
/// byte triggers count per direction).
#[derive(Clone, Copy, Debug)]
struct Fate {
    refuse: bool,
    delay: Option<Duration>,
    cut_after: Option<u64>,
    stall_after: Option<u64>,
}

fn draw_range(rng: &mut SeededRng, (lo, hi): (u64, u64)) -> u64 {
    rng.random_range(lo..=hi.max(lo))
}

fn decide(plan: &ChaosPlan, rng: &mut SeededRng) -> Fate {
    let refuse = plan.refuse_p > 0.0 && rng.random_bool(plan.refuse_p);
    let delay = (plan.delay_p > 0.0 && rng.random_bool(plan.delay_p))
        .then(|| Duration::from_millis(draw_range(rng, plan.delay_ms)));
    let cut_after =
        (plan.cut_p > 0.0 && rng.random_bool(plan.cut_p)).then(|| draw_range(rng, plan.cut_after));
    let stall_after = (plan.stall_p > 0.0 && rng.random_bool(plan.stall_p))
        .then(|| draw_range(rng, plan.stall_after));
    Fate {
        refuse,
        delay,
        cut_after,
        stall_after,
    }
}

/// Faults actually injected (not merely scheduled), plus traffic totals.
#[derive(Debug, Default)]
pub struct ChaosCounters {
    /// Connections accepted (before any fate applied).
    pub connections: AtomicU64,
    /// Connections refused by fate.
    pub refused: AtomicU64,
    /// Connections refused because the proxy was partitioned.
    pub partition_refused: AtomicU64,
    /// Pump directions cut mid-stream (fate or partition).
    pub cut: AtomicU64,
    /// Pump directions that entered a half-open stall.
    pub stalled: AtomicU64,
    /// Chunks delayed before forwarding.
    pub delayed_chunks: AtomicU64,
    /// Bytes forwarded (both directions).
    pub bytes: AtomicU64,
}

/// A fault-injecting TCP proxy. Listens on an ephemeral local port
/// (see [`Self::addr`]) and forwards to one upstream address.
pub struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    partitioned: Arc<AtomicBool>,
    counters: Arc<ChaosCounters>,
    acceptor: JoinHandle<()>,
}

impl ChaosProxy {
    /// Starts proxying `127.0.0.1:<ephemeral>` → `upstream` under `plan`.
    pub fn start(upstream: impl Into<String>, seed: u64, plan: ChaosPlan) -> io::Result<Self> {
        let upstream = upstream.into();
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let partitioned = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(ChaosCounters::default());
        let acceptor =
            {
                let (stop, partitioned, counters) = (
                    Arc::clone(&stop),
                    Arc::clone(&partitioned),
                    Arc::clone(&counters),
                );
                std::thread::Builder::new()
                    .name("chaos-acceptor".into())
                    .spawn(move || {
                        let mut conn_seq: u64 = 0;
                        for stream in listener.incoming() {
                            if stop.load(Ordering::SeqCst) {
                                break;
                            }
                            let Ok(client) = stream else { continue };
                            conn_seq += 1;
                            counters.connections.fetch_add(1, Ordering::Relaxed);
                            if partitioned.load(Ordering::SeqCst) {
                                counters.partition_refused.fetch_add(1, Ordering::Relaxed);
                                continue; // drop = refuse
                            }
                            // Key the fate on (seed, accept sequence): the
                            // n-th connection suffers the same fate on every
                            // run of the same seed.
                            let mut rng = SeededRng::seed_from_u64(
                                seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                                    .wrapping_add(conn_seq),
                            );
                            let fate = decide(&plan, &mut rng);
                            if fate.refuse {
                                counters.refused.fetch_add(1, Ordering::Relaxed);
                                continue;
                            }
                            let Ok(server) = TcpStream::connect(&upstream) else {
                                continue; // upstream down: client sees EOF
                            };
                            client.set_nodelay(true).ok();
                            server.set_nodelay(true).ok();
                            let (Ok(c2), Ok(s2)) = (client.try_clone(), server.try_clone()) else {
                                continue;
                            };
                            for (name, src, dst) in
                                [("chaos-up", client, server), ("chaos-down", s2, c2)]
                            {
                                let (stop, partitioned, counters) = (
                                    Arc::clone(&stop),
                                    Arc::clone(&partitioned),
                                    Arc::clone(&counters),
                                );
                                let _ = std::thread::Builder::new().name(name.into()).spawn(
                                    move || pump(src, dst, fate, &stop, &partitioned, &counters),
                                );
                            }
                        }
                    })?
            };
        Ok(Self {
            addr,
            stop,
            partitioned,
            counters,
            acceptor,
        })
    }

    /// The proxy's listen address — point clients/followers here.
    pub fn addr(&self) -> String {
        self.addr.to_string()
    }

    /// Flips the partition: while set, new connections are refused and
    /// live ones are cut within one pump tick.
    pub fn set_partitioned(&self, on: bool) {
        self.partitioned.store(on, Ordering::SeqCst);
    }

    /// Injection and traffic counters.
    pub fn counters(&self) -> &ChaosCounters {
        &self.counters
    }

    /// Stops accepting and joins the acceptor; live pumps notice the
    /// stop flag within one tick and close their sockets.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr); // unblock accept()
        let _ = self.acceptor.join();
    }
}

/// Forwards one direction until EOF, error, a fate trigger, a partition,
/// or proxy stop. Reads use a short timeout so the loop stays responsive
/// to the flags while idle.
fn pump(
    mut src: TcpStream,
    mut dst: TcpStream,
    fate: Fate,
    stop: &AtomicBool,
    partitioned: &AtomicBool,
    counters: &ChaosCounters,
) {
    let _ = src.set_read_timeout(Some(PUMP_TICK));
    let mut buf = [0u8; 4096];
    let mut forwarded: u64 = 0;
    loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        if partitioned.load(Ordering::SeqCst) {
            counters.cut.fetch_add(1, Ordering::Relaxed);
            break;
        }
        match src.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                // Re-check after the read: bytes that arrived once the
                // partition was up must not cross it.
                if partitioned.load(Ordering::SeqCst) {
                    counters.cut.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                if fate.stall_after.is_some_and(|at| forwarded >= at) {
                    // Half-open: swallow the bytes, keep the socket
                    // open. Only the peer's own read timeout (or a
                    // partition/stop) gets it out.
                    counters.stalled.fetch_add(1, Ordering::Relaxed);
                    while !stop.load(Ordering::SeqCst) && !partitioned.load(Ordering::SeqCst) {
                        std::thread::sleep(PUMP_TICK);
                    }
                    break;
                }
                if fate.cut_after.is_some_and(|at| forwarded + n as u64 > at) {
                    counters.cut.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                if let Some(d) = fate.delay {
                    counters.delayed_chunks.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(d);
                }
                if dst.write_all(&buf[..n]).is_err() {
                    break;
                }
                forwarded += n as u64;
                counters.bytes.fetch_add(n as u64, Ordering::Relaxed);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                continue
            }
            Err(_) => break,
        }
    }
    let _ = src.shutdown(Shutdown::Both);
    let _ = dst.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-connection echo upstream.
    fn echo_upstream() -> (String, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            while let Ok((mut s, _)) = listener.accept() {
                let mut buf = [0u8; 256];
                while let Ok(n) = s.read(&mut buf) {
                    if n == 0 || s.write_all(&buf[..n]).is_err() {
                        break;
                    }
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn transparent_without_faults() {
        let (upstream, _h) = echo_upstream();
        let proxy = ChaosProxy::start(upstream, 1, ChaosPlan::default()).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.write_all(b"ping\n").unwrap();
        let mut buf = [0u8; 5];
        c.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping\n");
        // The pumps count bytes after forwarding; give them a beat.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while proxy.counters().bytes.load(Ordering::Relaxed) < 10
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(proxy.counters().bytes.load(Ordering::Relaxed), 10);
        proxy.shutdown();
    }

    #[test]
    fn partition_refuses_new_connections_and_cuts_live_ones() {
        let (upstream, _h) = echo_upstream();
        let proxy = ChaosProxy::start(upstream, 2, ChaosPlan::default()).unwrap();
        let mut live = TcpStream::connect(proxy.addr()).unwrap();
        live.write_all(b"a\n").unwrap();
        let mut buf = [0u8; 2];
        live.read_exact(&mut buf).unwrap();
        proxy.set_partitioned(true);
        // The live connection is cut within a tick: reads hit EOF/reset.
        live.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        live.write_all(b"b\n").ok();
        let mut byte = [0u8; 1];
        assert!(
            matches!(live.read(&mut byte), Ok(0) | Err(_)),
            "partitioned proxy must not deliver data"
        );
        // New connections die immediately: the first read sees EOF.
        let mut refused = TcpStream::connect(proxy.addr()).unwrap();
        refused
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        refused.write_all(b"c\n").ok();
        assert!(matches!(refused.read(&mut byte), Ok(0) | Err(_)));
        proxy.set_partitioned(false);
        // Healed: traffic flows again on a fresh connection.
        let mut again = TcpStream::connect(proxy.addr()).unwrap();
        again.write_all(b"d\n").unwrap();
        again.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"d\n");
        proxy.shutdown();
    }

    #[test]
    fn fates_are_deterministic_per_seed() {
        let plan = ChaosPlan {
            refuse_p: 0.3,
            delay_p: 0.5,
            delay_ms: (1, 20),
            cut_p: 0.4,
            cut_after: (10, 1000),
            stall_p: 0.2,
            stall_after: (5, 500),
        };
        for conn in 1..=50u64 {
            let key = 42u64.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(conn);
            let a = decide(&plan, &mut SeededRng::seed_from_u64(key));
            let b = decide(&plan, &mut SeededRng::seed_from_u64(key));
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }
}
