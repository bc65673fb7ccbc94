//! Load generation over the serving wire protocol.
//!
//! Two disciplines, both from this one process:
//!
//! * **Open loop** — one pipelined connection. A writer sends each
//!   request at its seeded due time whether or not earlier replies
//!   arrived, and a reader thread timestamps replies, so a stall in the
//!   fleet shows up as latency of every request queued behind it.
//!   Latency is measured from the due time, not the send time.
//! * **Closed loop** — `connections` threads, each sending its next
//!   request only after the previous reply: the completed rate is the
//!   fleet's capacity at that concurrency.
//!
//! Neither discipline parses replies on the timed path; the raw lines
//! are kept and checked after the phase (see [`crate::check`]).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ncl_tensor::Rng;

/// How long a reader waits for outstanding replies after the last
/// request was sent before counting them as failed.
const REPLY_GRACE: Duration = Duration::from_secs(10);

/// Socket read timeout: the granularity at which readers re-check
/// their stop conditions.
const POLL: Duration = Duration::from_millis(50);

/// One request of an open-loop schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scheduled {
    /// Request id (unique within a run).
    pub id: u64,
    /// Index into the workload's input pool.
    pub pool: usize,
    /// Due time, as an offset from the phase start.
    pub due: Duration,
}

/// A seeded Poisson arrival schedule at `rate` requests/s over
/// `duration`: exponential inter-arrival gaps and uniformly drawn pool
/// inputs. Same arguments, same schedule.
#[must_use]
pub fn open_loop_schedule(
    seed: u64,
    rate: f64,
    duration: Duration,
    pool_len: usize,
    first_id: u64,
) -> Vec<Scheduled> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut out = Vec::new();
    if rate <= 0.0 || pool_len == 0 {
        return out;
    }
    let mut t = 0.0f64;
    loop {
        // 1 - u is in (0, 1], so the logarithm is finite.
        t += -(1.0 - rng.uniform_f64()).ln() / rate;
        if t >= duration.as_secs_f64() {
            return out;
        }
        out.push(Scheduled {
            id: first_id + out.len() as u64,
            pool: rng.below(pool_len as u64) as usize,
            due: Duration::from_secs_f64(t),
        });
    }
}

/// A request as it left the generator.
#[derive(Debug, Clone, Copy)]
pub struct Sent {
    /// Request id.
    pub id: u64,
    /// Pool input it carried.
    pub pool: usize,
    /// When it was due (closed loop: when it was sent).
    pub due: Instant,
    /// When the generator actually wrote it.
    pub sent: Instant,
}

/// A reply line as it arrived.
#[derive(Debug, Clone)]
pub struct Received {
    /// Arrival time.
    pub at: Instant,
    /// The raw reply line.
    pub line: String,
}

/// Everything one load phase observed.
#[derive(Debug, Default)]
pub struct Phase {
    /// Requests the generator was asked to send.
    pub attempted: u64,
    /// Requests actually written.
    pub sent: Vec<Sent>,
    /// Replies per connection, in arrival order.
    pub received: Vec<Vec<Received>>,
    /// Scheduled (open loop) or measured (closed loop) phase length.
    pub duration: Duration,
    /// Requests sent but not yet answered when the generator stopped
    /// sending.
    pub backlog_at_end: u64,
    /// Socket errors seen by the generator.
    pub io_errors: u64,
}

impl Phase {
    /// Generator lateness (send minus due) in µs, for every request.
    #[must_use]
    pub fn lateness_us(&self) -> Vec<f64> {
        self.sent
            .iter()
            .map(|s| s.sent.saturating_duration_since(s.due).as_secs_f64() * 1e6)
            .collect()
    }
}

/// The predict line for `id`, built from a pool template rendered with
/// id 0. The wire format renders keys in sorted order, so the id is the
/// first field; [`template_tail`] checks that once per template.
#[must_use]
pub fn with_id(tail: &str, id: u64) -> String {
    format!("{{\"id\":{id},{tail}\n")
}

/// Splits a request line rendered with id 0 into the part after the id
/// field, or `None` if the line does not start with that field.
#[must_use]
pub fn template_tail(line_with_id0: &str) -> Option<String> {
    line_with_id0.strip_prefix("{\"id\":0,").map(str::to_owned)
}

/// Newline framing over a socket with a read timeout: `Ok(None)` means
/// no complete line arrived within one poll interval.
struct LineReader {
    stream: TcpStream,
    pending: Vec<u8>,
    scanned: usize,
}

impl LineReader {
    fn new(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_read_timeout(Some(POLL))?;
        Ok(LineReader {
            stream,
            pending: Vec::new(),
            scanned: 0,
        })
    }

    fn next_line(&mut self) -> std::io::Result<Option<String>> {
        loop {
            if let Some(pos) = self.pending[self.scanned..]
                .iter()
                .position(|&b| b == b'\n')
            {
                let end = self.scanned + pos;
                let line = String::from_utf8_lossy(&self.pending[..end]).into_owned();
                self.pending.drain(..=end);
                self.scanned = 0;
                return Ok(Some(line));
            }
            self.scanned = self.pending.len();
            let mut chunk = [0u8; 16 * 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "connection closed",
                    ))
                }
                Ok(n) => self.pending.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(None)
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Runs an open-loop phase: `line_for(item)` (newline-terminated) is
/// sent at each item's due time on one pipelined connection. Stops
/// early, without counting the unsent rest as attempted, when `stop` is
/// raised.
///
/// # Errors
///
/// Returns the connect error; later socket errors are counted.
pub fn open_loop(
    addr: SocketAddr,
    schedule: &[Scheduled],
    stop: &AtomicBool,
    line_for: impl Fn(&Scheduled) -> String,
) -> std::io::Result<Phase> {
    let stream = connect(addr)?;
    let mut reader = LineReader::new(stream.try_clone()?)?;
    let mut writer = stream;
    let received_count = AtomicU64::new(0);
    let writer_done = AtomicBool::new(false);
    let received = Mutex::new(Vec::with_capacity(schedule.len()));
    let start = Instant::now() + Duration::from_millis(2);
    let mut phase = Phase {
        attempted: 0,
        ..Phase::default()
    };

    std::thread::scope(|scope| {
        let reader_thread = scope.spawn(|| {
            let mut local = Vec::with_capacity(schedule.len());
            loop {
                match reader.next_line() {
                    Ok(Some(line)) => {
                        local.push(Received {
                            at: Instant::now(),
                            line,
                        });
                        received_count.fetch_add(1, Ordering::Release);
                    }
                    Ok(None) if !writer_done.load(Ordering::Acquire) => {}
                    _ => break,
                }
            }
            *received
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner) = local;
        });

        for item in schedule {
            if stop.load(Ordering::Acquire) {
                break;
            }
            phase.attempted += 1;
            let line = line_for(item);
            let due = start + item.due;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            if writer.write_all(line.as_bytes()).is_err() {
                phase.io_errors += 1;
                break;
            }
            phase.sent.push(Sent {
                id: item.id,
                pool: item.pool,
                due,
                sent,
            });
        }
        phase.duration = match (stop.load(Ordering::Acquire), phase.sent.last()) {
            (true, Some(last)) => last.due.saturating_duration_since(start),
            _ => schedule.last().map_or(Duration::ZERO, |s| s.due),
        };
        phase.backlog_at_end =
            (phase.sent.len() as u64).saturating_sub(received_count.load(Ordering::Acquire));
        // Wait for the reader to collect every outstanding reply (or
        // give up after the grace period).
        let expected = phase.sent.len() as u64;
        let give_up = Instant::now() + REPLY_GRACE;
        while received_count.load(Ordering::Acquire) < expected && Instant::now() < give_up {
            std::thread::sleep(Duration::from_millis(1));
        }
        writer_done.store(true, Ordering::Release);
        let _ = writer.shutdown(std::net::Shutdown::Write);
        let _ = reader_thread.join();
    });
    phase.received = vec![received
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)];
    Ok(phase)
}

/// Runs a closed-loop phase for `duration` over `connections`
/// connections, each drawing pool inputs from its own seeded stream.
/// `templates` are [`template_tail`]s of the pool lines.
///
/// # Errors
///
/// Returns the first connect error.
pub fn closed_loop(
    addr: SocketAddr,
    templates: &[String],
    connections: usize,
    duration: Duration,
    seed: u64,
    first_id: u64,
) -> std::io::Result<Phase> {
    let mut streams = Vec::with_capacity(connections);
    for _ in 0..connections {
        streams.push(connect(addr)?);
    }
    let start = Instant::now();
    let deadline = start + duration;
    let results: Vec<(Vec<Sent>, Vec<Received>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(conn, stream)| {
                scope.spawn(move || {
                    let mut sent = Vec::new();
                    let mut received = Vec::new();
                    let mut errors = 0u64;
                    let mut rng =
                        Rng::seed_from_u64(seed ^ (conn as u64 + 1).wrapping_mul(0x9E37_79B9));
                    let Ok(read_half) = stream.try_clone() else {
                        return (sent, received, 1);
                    };
                    let Ok(mut reader) = LineReader::new(read_half) else {
                        return (sent, received, 1);
                    };
                    let mut writer = stream;
                    let mut k = 0u64;
                    while Instant::now() < deadline {
                        let pool = rng.below(templates.len() as u64) as usize;
                        let id = first_id + ((conn as u64) << 32) + k;
                        k += 1;
                        let line = with_id(&templates[pool], id);
                        let at = Instant::now();
                        if writer.write_all(line.as_bytes()).is_err() {
                            errors += 1;
                            break;
                        }
                        sent.push(Sent {
                            id,
                            pool,
                            due: at,
                            sent: at,
                        });
                        let give_up = Instant::now() + REPLY_GRACE;
                        let reply = loop {
                            match reader.next_line() {
                                Ok(Some(line)) => break Some(line),
                                Ok(None) if Instant::now() < give_up => {}
                                _ => break None,
                            }
                        };
                        match reply {
                            Some(line) => received.push(Received {
                                at: Instant::now(),
                                line,
                            }),
                            None => {
                                errors += 1;
                                break;
                            }
                        }
                    }
                    (sent, received, errors)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let mut phase = Phase {
        duration: start.elapsed(),
        ..Phase::default()
    };
    for (sent, received, errors) in results {
        phase.attempted += sent.len() as u64;
        phase.sent.extend(sent);
        phase.received.push(received);
        phase.io_errors += errors;
    }
    Ok(phase)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_and_bounded() {
        let a = open_loop_schedule(7, 400.0, Duration::from_secs(5), 64, 100);
        let b = open_loop_schedule(7, 400.0, Duration::from_secs(5), 64, 100);
        let c = open_loop_schedule(8, 400.0, Duration::from_secs(5), 64, 100);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(a
            .iter()
            .all(|s| s.due < Duration::from_secs(5) && s.pool < 64));
        assert!(a.iter().enumerate().all(|(k, s)| s.id == 100 + k as u64));
    }

    #[test]
    fn schedule_rate_matches_request() {
        // 400/s for 50 s: 20 000 expected arrivals, Poisson sd ~141.
        let n = open_loop_schedule(3, 400.0, Duration::from_secs(50), 8, 0).len();
        assert!((19_400..=20_600).contains(&n), "{n} arrivals");
        assert!(open_loop_schedule(3, 0.0, Duration::from_secs(5), 8, 0).is_empty());
    }

    #[test]
    fn id_template_matches_the_wire_renderer() {
        let raster = ncl_spike::SpikeRaster::from_fn(6, 3, |n, t| (n + t) % 2 == 0);
        let tail = template_tail(&ncl_serve::protocol::predict_request_line(0, &raster)).unwrap();
        for id in [0, 1, 42, u64::from(u32::MAX) + 5] {
            let expected = ncl_serve::protocol::predict_request_line(id, &raster) + "\n";
            assert_eq!(with_id(&tail, id), expected);
        }
    }
}
