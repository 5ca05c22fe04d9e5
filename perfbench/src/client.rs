//! The load generator's client side: one thread, one connection at a time.

use crate::gen::Line;
use crate::spans::Recorder;
use crate::tally::{classify, Outcome, Tally};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long the client waits for a reply before it counts as missing.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// A non-blocking connection whose waits yield the CPU instead of sleeping,
/// with a reusable receive buffer so the client's reads never allocate per
/// reply.  When the server shares the client's CPU, yielding hands the CPU
/// straight to it; when it does not, the client never sleeps, so its own
/// wake-up stays out of the measured times.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

/// One turn of a wait that started at `started`; an error once it has waited
/// [`READ_TIMEOUT`].
fn spin(started: Instant) -> std::io::Result<()> {
    if started.elapsed() > READ_TIMEOUT {
        return Err(ErrorKind::TimedOut.into());
    }
    std::thread::yield_now();
    Ok(())
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            buf: vec![0; 1 << 14],
            start: 0,
            end: 0,
        })
    }

    pub fn send(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let (started, mut at) = (Instant::now(), 0);
        while at < bytes.len() {
            match self.stream.write(&bytes[at..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => at += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => spin(started)?,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    pub fn finish_sending(&self) -> std::io::Result<()> {
        self.stream.shutdown(Shutdown::Write)
    }

    /// Reads what has arrived into the buffer without waiting; `Ok(0)` is end of
    /// stream and `WouldBlock` means nothing has arrived.
    fn try_fill(&mut self) -> std::io::Result<usize> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.end == self.buf.len() {
            self.buf.resize(self.buf.len() * 2, 0);
        }
        let n = self.stream.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Spins until bytes arrive; `Ok(0)` is end of stream.
    fn fill(&mut self) -> std::io::Result<usize> {
        let started = Instant::now();
        loop {
            match self.try_fill() {
                Err(e) if e.kind() == ErrorKind::WouldBlock => spin(started)?,
                other => return other,
            }
        }
    }

    /// The next complete line already buffered, without its newline.
    fn buffered_line(&mut self) -> Option<(usize, usize)> {
        let offset = self.buf[self.start..self.end]
            .iter()
            .position(|&b| b == b'\n')?;
        let line = (self.start, self.start + offset);
        self.start += offset + 1;
        Some(line)
    }

    /// Waits for the next line; `None` at end of stream, on a read error or
    /// after [`READ_TIMEOUT`].
    pub fn read_line(&mut self) -> Option<&[u8]> {
        loop {
            if let Some((s, e)) = self.buffered_line() {
                return Some(&self.buf[s..e]);
            }
            match self.fill() {
                Ok(0) | Err(_) => return None,
                Ok(_) => {}
            }
        }
    }

    /// Reads until the peer closes, returning how many extra bytes arrived.
    pub fn drain(&mut self) -> usize {
        let mut extra = self.end - self.start;
        self.start = self.end;
        while let Ok(n @ 1..) = self.fill() {
            extra += n;
            self.start = self.end;
        }
        extra
    }
}

/// A corpus replayed in order and cyclically over one connection at a time,
/// checking every reply.  The replies to the first pass over the corpus feed
/// `digest`.
pub struct Corpus<'a> {
    lines: &'a [Line],
    /// Each line, newline-terminated, for cheap resending.
    frames: Vec<Vec<u8>>,
    /// Position of the next request (wraps around the corpus).
    pub next: u64,
    pub digest: crate::Fnv,
}

impl<'a> Corpus<'a> {
    pub fn new(lines: &'a [Line]) -> Corpus<'a> {
        let frames = lines
            .iter()
            .map(|line| format!("{}\n", line.text).into_bytes())
            .collect();
        Corpus {
            lines,
            frames,
            next: 0,
            digest: crate::Fnv::default(),
        }
    }

    /// Whether every line has been answered at least once.
    pub fn first_pass_done(&self) -> bool {
        self.next >= self.lines.len() as u64
    }

    fn index(&self, position: u64) -> usize {
        (position % self.lines.len() as u64) as usize
    }

    /// Closed loop: one request outstanding at a time for `span`, each round trip
    /// in a `serve.rtt` span.  Pushes each round trip's nanoseconds to `rtts`.
    pub fn closed_loop(
        &mut self,
        conn: &mut Conn,
        span: Duration,
        rec: &mut Recorder,
        rtts: &mut Vec<f64>,
        tally: &mut Tally,
    ) {
        let deadline = Instant::now() + span;
        while Instant::now() < deadline {
            let i = self.index(self.next);
            let line = &self.lines[i];
            let first_pass = !self.first_pass_done();
            let ok = rec.span("serve.rtt", self.next, |_| {
                let started = Instant::now();
                if conn.send(&self.frames[i]).is_err() {
                    tally.record(Outcome::Missing);
                    return false;
                }
                let got = conn.read_line();
                let elapsed = started.elapsed();
                let outcome = classify(line.expect, line.expected.as_bytes(), got);
                if let Some(reply) = got.filter(|_| first_pass) {
                    self.digest.line(reply);
                }
                tally.record(outcome);
                rtts.push(elapsed.as_nanos() as f64);
                !outcome.is_failure()
            });
            if !ok {
                return;
            }
            self.next += 1;
        }
    }

    /// Pipelined: keeps up to `window` requests outstanding for `span`, then
    /// collects every reply still due.  Writes never wait, and the client waits
    /// for a read only when it can neither write nor read, so neither side can
    /// wedge on a full socket buffer whatever the window.  Returns replies per
    /// second.
    pub fn pipelined(
        &mut self,
        conn: &mut Conn,
        window: u64,
        span: Duration,
        tally: &mut Tally,
    ) -> f64 {
        let started = Instant::now();
        let first = self.next;
        let mut sent = first;
        let mut pending: Vec<u8> = Vec::with_capacity(1 << 18);
        let mut pending_at = 0usize;
        let mut sending = true;
        let mut failed = false;
        while !failed && (sending || self.next < sent || pending_at < pending.len()) {
            let mut progress = false;
            if sending && started.elapsed() >= span {
                sending = false;
            }
            if pending_at == pending.len() && sending {
                pending.clear();
                pending_at = 0;
                while sent - self.next < window && pending.len() < (1 << 17) {
                    pending.extend_from_slice(&self.frames[self.index(sent)]);
                    sent += 1;
                }
            }
            if pending_at < pending.len() {
                match conn.stream.write(&pending[pending_at..]) {
                    Ok(n) => {
                        pending_at += n;
                        progress = n > 0;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                    Err(_) => failed = true,
                }
            }
            match conn.try_fill() {
                Ok(0) => failed = true,
                Ok(_) => progress = true,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(_) => failed = true,
            }
            while let Some((s, e)) = conn.buffered_line() {
                let line = &self.lines[self.index(self.next)];
                let got = Some(&conn.buf[s..e]);
                let outcome = classify(line.expect, line.expected.as_bytes(), got);
                tally.record(outcome);
                failed |= outcome.is_failure();
                self.next += 1;
            }
            if !progress && !failed && self.next < sent && !matches!(conn.fill(), Ok(1..)) {
                // Nothing moved and the server owes replies that never came.
                failed = true;
            }
        }
        if failed {
            tally.record_n(Outcome::Missing, sent - self.next);
        }
        (self.next - first) as f64 / started.elapsed().as_secs_f64()
    }
}

/// Timings of one short session.
pub struct SessionTiming {
    pub connect_ns: f64,
    pub total_ns: f64,
}

/// A corpus cut into sessions of `per_session` lines, run in order and
/// cyclically, one connection each.  The replies of the first pass over the
/// sessions feed `digest`.
pub struct Sessions<'a> {
    groups: Vec<&'a [Line]>,
    payloads: Vec<Vec<u8>>,
    pub next: u64,
    pub digest: crate::Fnv,
}

impl<'a> Sessions<'a> {
    pub fn new(lines: &'a [Line], per_session: usize) -> Sessions<'a> {
        Sessions {
            groups: lines.chunks(per_session).collect(),
            payloads: lines
                .chunks(per_session)
                .map(|group| {
                    group
                        .iter()
                        .map(|l| format!("{}\n", l.text))
                        .collect::<String>()
                        .into_bytes()
                })
                .collect(),
            next: 0,
            digest: crate::Fnv::default(),
        }
    }

    /// Whether every session has run at least once.
    pub fn first_pass_done(&self) -> bool {
        self.next >= self.payloads.len() as u64
    }

    /// Runs sessions for `span`, pushing the timing of each completed one to
    /// `out`.  Returns completed sessions per second.
    pub fn run(
        &mut self,
        addr: SocketAddr,
        span: Duration,
        rec: &mut Recorder,
        out: &mut Vec<SessionTiming>,
        tally: &mut Tally,
    ) -> f64 {
        let started = Instant::now();
        let mut done = 0u32;
        while started.elapsed() < span {
            let s = (self.next % self.payloads.len() as u64) as usize;
            let digest = (!self.first_pass_done()).then_some(&mut self.digest);
            let group = self.groups[s];
            if let Some(t) = session(
                addr,
                group,
                &self.payloads[s],
                rec,
                self.next,
                digest,
                tally,
            ) {
                out.push(t);
                done += 1;
            }
            self.next += 1;
        }
        f64::from(done) / started.elapsed().as_secs_f64()
    }
}

/// One short session in a `session` span (children `serve.connect` and
/// `serve.exchange`): connect, send every line, half-close, read one reply per
/// line, and wait for the server to close.  The session time runs from the start
/// of `connect` to the last reply.  Replies go to `digest` when one is given.
fn session(
    addr: SocketAddr,
    lines: &[Line],
    payload: &[u8],
    rec: &mut Recorder,
    id: u64,
    mut digest: Option<&mut crate::Fnv>,
    tally: &mut Tally,
) -> Option<SessionTiming> {
    rec.span("session", id, |rec| {
        let started = Instant::now();
        let Ok(mut conn) = rec.span("serve.connect", id, |_| Conn::connect(addr)) else {
            tally.record_n(Outcome::Refused, lines.len() as u64);
            return None;
        };
        let connect_ns = started.elapsed().as_nanos() as f64;
        let mut ok = rec.span("serve.exchange", id, |_| {
            if conn
                .send(payload)
                .and_then(|()| conn.finish_sending())
                .is_err()
            {
                tally.record_n(Outcome::Missing, lines.len() as u64);
                return false;
            }
            let mut ok = true;
            for line in lines {
                let got = conn.read_line();
                let outcome = classify(line.expect, line.expected.as_bytes(), got);
                if let (Some(d), Some(bytes)) = (digest.as_deref_mut(), got) {
                    d.line(bytes);
                }
                tally.record(outcome);
                ok &= !outcome.is_failure();
            }
            ok
        });
        let total_ns = started.elapsed().as_nanos() as f64;
        if conn.drain() > 0 {
            // Bytes beyond the expected replies: one mismatch for the session.
            tally.record(Outcome::Mismatch);
            ok = false;
        }
        ok.then_some(SessionTiming {
            connect_ns,
            total_ns,
        })
    })
}
