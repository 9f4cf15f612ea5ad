//! The load generator: one keep-alive, pipelined HTTP connection driven
//! by a sender (the calling thread) and a reader thread.
//!
//! Two pacing modes. **Open loop** sends request `i` at
//! `start + i / rate` whether or not earlier answers have arrived, and
//! times each request from its *due* time, so a stall's queueing delay
//! lands on the requests that waited behind it; how late the sender
//! itself ran is reported beside the latencies. **Closed loop** keeps a
//! fixed window of requests outstanding for a fixed duration and yields
//! throughput.
//!
//! The reader blocks in plain `read` (no socket timeout: those round to
//! a scheduler tick and made a probe generator 7 ms late) and learns
//! that the phase is over from the server closing the connection after
//! a final `Connection: close` sentinel request.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Incremental framing of pipelined `Content-Length` responses.
#[derive(Default)]
pub struct Framer {
    buf: Vec<u8>,
    head: usize,
}

/// A response the framer could not make sense of.
#[derive(Debug, PartialEq, Eq)]
pub struct FrameError(pub &'static str);

impl Framer {
    /// Appends freshly read bytes (dropping frames already handed out).
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.head > 0 {
            self.buf.drain(..self.head);
            self.head = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete response, as `(status, body range)`; `None`
    /// when only a prefix has arrived. The range indexes
    /// [`Framer::bytes`] and stays valid until the next `feed`.
    pub fn next_frame(&mut self) -> Result<Option<(u16, Range<usize>)>, FrameError> {
        let pending = &self.buf[self.head..];
        let Some(head_len) = find(pending, b"\r\n\r\n").map(|i| i + 4) else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&pending[..head_len])
            .map_err(|_| FrameError("response head is not UTF-8"))?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or(FrameError("bad status line"))?;
        let body_len = lines
            .filter_map(|l| l.split_once(':'))
            .find(|(name, _)| name.eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.trim().parse::<usize>().ok())
            .ok_or(FrameError("response carries no Content-Length"))?;
        if pending.len() < head_len + body_len {
            return Ok(None);
        }
        let body = self.head + head_len..self.head + head_len + body_len;
        self.head = body.end;
        Ok(Some((status, body)))
    }

    /// The buffer `next_frame` ranges index.
    pub fn bytes(&self, range: Range<usize>) -> &[u8] {
        &self.buf[range]
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// One distinct request of a workload with the answer it must get.
pub struct Entry {
    /// The exact bytes sent.
    pub request: Vec<u8>,
    /// The response body an exact search returns, up to (not including)
    /// its wall-clock `elapsed_us` member: probability, path,
    /// distribution and search counters, all deterministic.
    pub expect: Vec<u8>,
    /// The request carries a deadline, so an incomplete (anytime)
    /// answer is legitimate and cannot be compared.
    pub anytime: bool,
}

/// How a response compared with its [`Entry`].
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// `200`, search completed, body bitwise equal to the in-process answer.
    Exact,
    /// `200` with `"completed":false` on a deadline request.
    Anytime,
    /// `200` with a body that differs from the in-process answer.
    Wrong,
    /// Any other status (shed, rejected, failed).
    NotOk,
    /// No response arrived.
    Unanswered,
}

impl Verdict {
    /// Counts as a correct answer.
    pub fn ok(self) -> bool {
        matches!(self, Verdict::Exact | Verdict::Anytime)
    }
}

const ELAPSED_MEMBER: &[u8] = b",\"elapsed_us\":";

/// The deterministic part of a `/route` body: everything before the
/// `elapsed_us` member, which is the last one.
pub fn deterministic_prefix(body: &[u8]) -> Option<&[u8]> {
    let tail_from = body.len().saturating_sub(48);
    find(&body[tail_from..], ELAPSED_MEMBER).map(|i| &body[..tail_from + i])
}

/// Judges one response against the entry that caused it.
pub fn judge(entry: &Entry, status: u16, body: &[u8]) -> Verdict {
    if status != 200 {
        return Verdict::NotOk;
    }
    let Some(prefix) = deterministic_prefix(body) else {
        return Verdict::Wrong;
    };
    if prefix == entry.expect.as_slice() {
        Verdict::Exact
    } else if entry.anytime
        && prefix.ends_with(b"\"completed\":false")
        && prefix.starts_with(b"{\"probability\":")
    {
        Verdict::Anytime
    } else {
        Verdict::Wrong
    }
}

/// How the sender spaces requests.
#[derive(Copy, Clone, Debug)]
pub enum Pace {
    /// `count` requests on the fixed schedule `i / rate_hz`.
    Open { rate_hz: f64, count: usize },
    /// `window` requests outstanding until `duration` has passed.
    Closed { window: usize, duration: Duration },
}

/// Offset of request `i` from the start of an open-loop phase.
pub fn due_ns(i: usize, rate_hz: f64) -> u64 {
    (i as f64 * 1e9 / rate_hz).round() as u64
}

/// What happened to one request. Times are nanoseconds from the
/// phase's start.
#[derive(Copy, Clone, Debug)]
pub struct Record {
    /// Scheduled send time (open loop) or actual send time (closed loop).
    pub due_ns: u64,
    /// When the sender began writing it.
    pub sent_ns: u64,
    /// When the write returned (stamped only in a traced phase).
    pub written_ns: u64,
    /// When its response had been read.
    pub recv_ns: u64,
    pub verdict: Verdict,
}

impl Record {
    /// Latency from the due time, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.recv_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }

    /// How late the sender was, in milliseconds.
    pub fn late_ms(&self) -> f64 {
        self.sent_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }
}

/// One finished phase.
pub struct Phase {
    /// Clock origin of every [`Record`] time.
    pub started: Instant,
    /// One record per request sent, in send order.
    pub records: Vec<Record>,
    /// First send to last response, seconds.
    pub elapsed_s: f64,
}

impl Phase {
    pub fn ok_count(&self) -> usize {
        self.records.iter().filter(|r| r.verdict.ok()).count()
    }

    pub fn failed_count(&self) -> usize {
        self.records.len() - self.ok_count()
    }

    /// Correct answers per second as the median over `windows` equal
    /// slices of the phase (by arrival time), so a stall, the ramp at
    /// the start and the drain at the end each spoil one slice, not the
    /// figure.
    pub fn ok_rate_median(&self, windows: usize) -> f64 {
        let first = self.records.first().map_or(0, |r| r.sent_ns);
        let last = self.records.iter().map(|r| r.recv_ns).max().unwrap_or(0);
        let width = (last.saturating_sub(first) / windows as u64).max(1);
        let mut counts = vec![0.0; windows];
        for r in self.records.iter().filter(|r| r.verdict.ok()) {
            let w = (r.recv_ns.saturating_sub(first) / width) as usize;
            counts[w.min(windows - 1)] += 1.0;
        }
        crate::stats::median(&counts) * 1e9 / width as f64
    }

    /// `"3 not 200, 1 wrong answer"`; empty when nothing failed.
    pub fn failure_breakdown(&self) -> String {
        [
            (Verdict::NotOk, "not 200"),
            (Verdict::Wrong, "wrong answer"),
            (Verdict::Unanswered, "unanswered"),
        ]
        .iter()
        .filter_map(|&(v, what)| {
            let n = self.records.iter().filter(|r| r.verdict == v).count();
            (n > 0).then(|| format!("{n} {what}"))
        })
        .collect::<Vec<_>>()
        .join(", ")
    }

    /// Latencies of the correctly answered requests, in send order.
    pub fn ok_latencies_ms(&self) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| r.verdict.ok())
            .map(Record::latency_ms)
            .collect()
    }
}

const SENTINEL: &[u8] = b"GET /healthz HTTP/1.1\r\nHost: srt-bench\r\nConnection: close\r\n\r\n";

/// Runs one phase against `addr` on a fresh connection. Request `i` is
/// `catalog[plan[i % plan.len()]]`. `traced` adds the write-completion
/// stamp the client-side spans need.
pub fn run_phase(
    addr: SocketAddr,
    catalog: &[Entry],
    plan: &[u32],
    pace: Pace,
    traced: bool,
) -> io::Result<Phase> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut read_half = stream.try_clone()?;
    let entry_at = |i: usize| &catalog[plan[i % plan.len()] as usize];
    let (token_tx, token_rx) = mpsc::channel::<()>();
    let started = Instant::now();
    let now_ns = || started.elapsed().as_nanos() as u64;

    let mut sent: Vec<(u64, u64, u64)> = Vec::new();
    let received = std::thread::scope(|scope| -> io::Result<Vec<(u64, Verdict)>> {
        let reader = scope.spawn(move || -> io::Result<Vec<(u64, Verdict)>> {
            let mut framer = Framer::default();
            let mut chunk = vec![0u8; 64 * 1024];
            let mut out = Vec::new();
            loop {
                let n = match read_half.read(&mut chunk) {
                    Ok(0) => return Ok(out),
                    Ok(n) => n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    // The server closing hard after the sentinel is an
                    // end of stream, not a failure of the answers read.
                    Err(e) if e.kind() == io::ErrorKind::ConnectionReset => return Ok(out),
                    Err(e) => return Err(e),
                };
                let at = started.elapsed().as_nanos() as u64;
                framer.feed(&chunk[..n]);
                while let Some((status, body)) = framer
                    .next_frame()
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.0))?
                {
                    let verdict = judge(entry_at(out.len()), status, framer.bytes(body));
                    out.push((at, verdict));
                    // The sender may already be gone; that is fine.
                    let _ = token_tx.send(());
                }
            }
        });

        let mut send_one = |due: u64, i: usize| -> io::Result<()> {
            let sent_ns = now_ns();
            (&stream).write_all(&entry_at(i).request)?;
            let written_ns = if traced { now_ns() } else { 0 };
            sent.push((due, sent_ns, written_ns));
            Ok(())
        };
        let sending = (|| -> io::Result<()> {
            match pace {
                Pace::Open { rate_hz, count } => {
                    for i in 0..count {
                        let due = due_ns(i, rate_hz);
                        let now = now_ns();
                        if now < due {
                            std::thread::sleep(Duration::from_nanos(due - now));
                        }
                        send_one(due, i)?;
                    }
                }
                Pace::Closed { window, duration } => {
                    let mut outstanding = 0usize;
                    let mut i = 0usize;
                    while started.elapsed() < duration {
                        while outstanding >= window {
                            // A closed channel means the reader died:
                            // stop sending, its error is reported below.
                            if token_rx.recv().is_err() {
                                return Ok(());
                            }
                            outstanding -= 1;
                        }
                        while token_rx.try_recv().is_ok() {
                            outstanding -= 1;
                        }
                        send_one(now_ns(), i)?;
                        i += 1;
                        outstanding += 1;
                    }
                }
            }
            (&stream).write_all(SENTINEL)
        })();
        let received = reader.join().expect("reader thread does not panic");
        sending?;
        received
    })?;

    // The sentinel's own answer is the last frame; it is not a request.
    let answered = received.len().min(sent.len());
    let elapsed_ns = received[..answered]
        .last()
        .map_or(0, |r| r.0)
        .saturating_sub(sent.first().map_or(0, |s| s.1));
    let records = sent
        .iter()
        .enumerate()
        .map(|(i, &(due_ns, sent_ns, written_ns))| {
            let (recv_ns, verdict) = received.get(i).copied().unwrap_or((0, Verdict::Unanswered));
            Record {
                due_ns,
                sent_ns,
                written_ns,
                recv_ns,
                verdict,
            }
        })
        .collect();
    Ok(Phase {
        started,
        records,
        elapsed_s: elapsed_ns as f64 / 1e9,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(status: u16, body: &str) -> Vec<u8> {
        format!(
            "HTTP/1.1 {status} X\r\nContent-Type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    #[test]
    fn framer_handles_every_split_point() {
        let mut wire = response(200, "{\"a\":1}");
        wire.extend(response(503, ""));
        wire.extend(response(200, "{\"bb\":22}"));
        for split in 0..=wire.len() {
            let mut f = Framer::default();
            let mut got: Vec<(u16, Vec<u8>)> = Vec::new();
            for part in [&wire[..split], &wire[split..]] {
                f.feed(part);
                while let Some((status, body)) = f.next_frame().unwrap() {
                    got.push((status, f.bytes(body).to_vec()));
                }
            }
            assert_eq!(
                got,
                vec![
                    (200, b"{\"a\":1}".to_vec()),
                    (503, Vec::new()),
                    (200, b"{\"bb\":22}".to_vec()),
                ],
                "split at {split}"
            );
        }
    }

    #[test]
    fn framer_byte_at_a_time_and_garbage() {
        let wire = response(200, "xyz");
        let mut f = Framer::default();
        let mut frames = 0;
        for b in &wire {
            f.feed(std::slice::from_ref(b));
            while let Some((status, body)) = f.next_frame().unwrap() {
                assert_eq!((status, f.bytes(body)), (200, &b"xyz"[..]));
                frames += 1;
            }
        }
        assert_eq!(frames, 1);

        let mut f = Framer::default();
        f.feed(b"HTTP/1.1 200 OK\r\nX: y\r\n\r\n");
        assert_eq!(
            f.next_frame(),
            Err(FrameError("response carries no Content-Length"))
        );
        let mut f = Framer::default();
        f.feed(b"nonsense\r\n\r\n");
        assert_eq!(f.next_frame(), Err(FrameError("bad status line")));
    }

    #[test]
    fn open_loop_schedule_is_fixed_and_lateness_is_from_due() {
        assert_eq!(due_ns(0, 250.0), 0);
        assert_eq!(due_ns(1, 250.0), 4_000_000);
        assert_eq!(due_ns(2999, 250.0), 11_996_000_000);
        // The schedule never drifts: request i is due at i/rate however
        // late earlier sends were.
        let r = Record {
            due_ns: due_ns(10, 100.0),
            sent_ns: due_ns(10, 100.0) + 250_000,
            written_ns: 0,
            recv_ns: due_ns(10, 100.0) + 1_750_000,
            verdict: Verdict::Exact,
        };
        assert_eq!(r.late_ms(), 0.25);
        // Latency counts from the due time, so it includes the lateness.
        assert_eq!(r.latency_ms(), 1.75);
    }

    #[test]
    fn judging_answers() {
        let exact = b"{\"probability\":0.5,\"path\":null,\"stats\":{\"labels_created\":3,\"completed\":true";
        let entry = |anytime| Entry {
            request: Vec::new(),
            expect: exact.to_vec(),
            anytime,
        };
        let body = |prefix: &[u8]| [prefix, b",\"elapsed_us\":1234}}"].concat();
        assert_eq!(judge(&entry(false), 200, &body(exact)), Verdict::Exact);
        assert_eq!(judge(&entry(true), 200, &body(exact)), Verdict::Exact);
        assert_eq!(judge(&entry(false), 503, b""), Verdict::NotOk);
        let drifted = b"{\"probability\":0.6,\"path\":null,\"stats\":{\"labels_created\":3,\"completed\":true";
        assert_eq!(judge(&entry(false), 200, &body(drifted)), Verdict::Wrong);
        assert_eq!(judge(&entry(true), 200, &body(drifted)), Verdict::Wrong);
        let cut_short = b"{\"probability\":0.4,\"path\":null,\"stats\":{\"labels_created\":2,\"completed\":false";
        assert_eq!(judge(&entry(true), 200, &body(cut_short)), Verdict::Anytime);
        // Without a deadline an incomplete answer is a wrong answer.
        assert_eq!(judge(&entry(false), 200, &body(cut_short)), Verdict::Wrong);
        assert_eq!(judge(&entry(false), 200, b"{}"), Verdict::Wrong);
    }
}
