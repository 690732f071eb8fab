//! The open-loop load generator.
//!
//! Arrivals follow a seeded schedule fixed before the window starts. One
//! thread drives every connection: it sends each request as soon as it is
//! due, whether or not earlier ones were answered (pipelining), and waits
//! for the next due time or the next response in `ppoll` (or busy-polls,
//! see [`Limits::spin`]), so a stalled server cannot slow the schedule
//! down. Latency is measured from
//! each request's due time, and the generator's own lateness against the
//! schedule is recorded beside it.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use strudel_server::protocol::{encode_hello, try_decode_frame, Framing};

/// Largest response frame the generator accepts.
const MAX_RESPONSE: usize = 1 << 24;

/// Readiness waits with sub-millisecond timeouts: `ppoll` from the C
/// library std already links, plus a 1 µs timer slack for the calling
/// thread so a wait ends when it is due, not up to 50 µs later.
mod sys {
    use std::time::Duration;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, mask: *const u8) -> i32;
        fn prctl(option: i32, ...) -> i32;
    }

    const POLLIN: i16 = 0x1;
    const POLLOUT: i16 = 0x4;
    const PR_SET_TIMERSLACK: i32 = 29;

    /// Waits until one of the descriptors is readable (or writable, where
    /// asked) or `timeout` passes.
    pub fn wait(fds: &[(i32, bool)], timeout: Duration) {
        let mut pfds: Vec<PollFd> = fds
            .iter()
            .map(|&(fd, writable)| PollFd {
                fd,
                events: POLLIN | if writable { POLLOUT } else { 0 },
                revents: 0,
            })
            .collect();
        let ts = Timespec {
            tv_sec: timeout.as_secs() as i64,
            tv_nsec: i64::from(timeout.subsec_nanos()),
        };
        // SAFETY: `pfds` holds `pfds.len()` valid pollfds, `ts` is a valid
        // timespec, and no signal mask is passed.
        unsafe {
            ppoll(pfds.as_mut_ptr(), pfds.len() as u64, &ts, std::ptr::null());
        }
    }

    /// Sets the calling thread's timer slack to 1 µs.
    pub fn tight_timer_slack() {
        // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1000u64, 0u64, 0u64, 0u64);
        }
    }
}

/// One request of a schedule: when it is due (ns after the window's
/// start), which connection sends it, and which key it asks.
#[derive(Clone, Copy)]
pub struct Item {
    pub due_ns: u64,
    pub conn: u8,
    pub key: u32,
}

/// Distinct response bodies, so a run keeps one copy of each.
#[derive(Default)]
pub struct Bodies {
    pub texts: Vec<Vec<u8>>,
    index: HashMap<u64, Vec<u32>>,
}

impl Bodies {
    pub fn intern(&mut self, bytes: &[u8]) -> u32 {
        let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        let slots = self.index.entry(hash).or_default();
        if let Some(&id) = slots.iter().find(|&&id| self.texts[id as usize] == bytes) {
            return id;
        }
        let id = self.texts.len() as u32;
        self.texts.push(bytes.to_vec());
        slots.push(id);
        id
    }
}

/// Marks a request that was never answered.
pub const NO_BODY: u32 = u32::MAX;

/// One client connection in either framing.
pub struct Conn {
    stream: TcpStream,
    pub framing: Framing,
    inbuf: Vec<u8>,
    read_at: usize,
}

impl Conn {
    /// Connects; a `bin1` connection negotiates its framing with `hello`
    /// before any timed traffic.
    pub fn open(addr: &str, framing: Framing) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|err| format!("connect {addr}: {err}"))?;
        stream.set_nodelay(true).map_err(|err| err.to_string())?;
        let mut conn = Conn {
            stream,
            framing: Framing::Json,
            inbuf: Vec::new(),
            read_at: 0,
        };
        if framing == Framing::Bin1 {
            let hello = format!("{}\n", encode_hello(Framing::Bin1));
            conn.stream
                .write_all(hello.as_bytes())
                .map_err(|err| err.to_string())?;
            conn.framing = Framing::Bin1;
            let ack = conn.read_one()?;
            if !ack.contains("\"framing\":\"bin1\"") {
                return Err(format!("bin1 was not negotiated: {ack}"));
            }
        }
        conn.stream
            .set_nonblocking(true)
            .map_err(|err| err.to_string())?;
        Ok(conn)
    }

    /// Blocking read of one response (used before the connection turns
    /// non-blocking).
    fn read_one(&mut self) -> Result<String, String> {
        let mut buf = [0u8; 4096];
        loop {
            if let Some((start, end)) = self.next_response()? {
                return Ok(String::from_utf8_lossy(&self.inbuf[start..end]).into_owned());
            }
            let n = self.stream.read(&mut buf).map_err(|err| err.to_string())?;
            if n == 0 {
                return Err("connection closed".to_owned());
            }
            self.inbuf.extend_from_slice(&buf[..n]);
        }
    }

    /// The byte range of the next complete response body in the input
    /// buffer (a line-JSON line, or a `bin1` frame's payload, which is the
    /// same canonical line).
    fn next_response(&mut self) -> Result<Option<(usize, usize)>, String> {
        let rest = &self.inbuf[self.read_at..];
        match self.framing {
            Framing::Json => match rest.iter().position(|&b| b == b'\n') {
                None => Ok(None),
                Some(pos) => {
                    let range = (self.read_at, self.read_at + pos);
                    self.read_at += pos + 1;
                    Ok(Some(range))
                }
            },
            Framing::Bin1 => match try_decode_frame(rest, MAX_RESPONSE)? {
                None => Ok(None),
                Some(frame) => {
                    let offset = frame.payload.as_ptr() as usize - rest.as_ptr() as usize;
                    let range = (
                        self.read_at + offset,
                        self.read_at + offset + frame.payload.len(),
                    );
                    self.read_at += frame.consumed;
                    Ok(Some(range))
                }
            },
        }
    }

    fn compact(&mut self) {
        if self.read_at == self.inbuf.len() {
            self.inbuf.clear();
            self.read_at = 0;
        } else if self.read_at > 1 << 16 {
            self.inbuf.drain(..self.read_at);
            self.read_at = 0;
        }
    }
}

/// Limits of one drive.
#[derive(Clone, Copy)]
pub struct Limits {
    /// Stop sending once this many requests are outstanding: the step has
    /// failed, and sending on would only build a longer backlog.
    pub abort_outstanding: usize,
    /// How long unanswered requests may take after the last send.
    pub drain: Duration,
    /// Poll without sleeping, so the generator's CPU never idles and no
    /// send or receive waits for it to be woken.
    pub spin: bool,
}

/// What one drive saw, in ns after the window's start. Per-request
/// vectors are indexed like the schedule; requests never sent have
/// `sent_ns == None`.
pub struct Outcome {
    pub sent_ns: Vec<Option<u64>>,
    pub recv_ns: Vec<u64>,
    pub body: Vec<u32>,
    /// Requests outstanding when the last one was sent.
    pub outstanding_at_end: usize,
    pub aborted: bool,
}

/// Send and receive state of one connection during a drive.
#[derive(Default)]
struct Flow {
    outbuf: Vec<u8>,
    written: usize,
    pending: VecDeque<usize>,
}

/// Drives the connections through one schedule from the calling thread.
/// `epoch` is the window's start; due times count from it.
pub fn drive<'k>(
    conns: &mut [Conn],
    items: &[Item],
    payload: &dyn Fn(usize, u32) -> &'k [u8],
    bodies: &mut [Bodies],
    epoch: Instant,
    limits: Limits,
) -> Result<Outcome, String> {
    sys::tight_timer_slack();
    let now_ns = || epoch.elapsed().as_nanos() as u64;
    let n = items.len();
    let mut out = Outcome {
        sent_ns: vec![None; n],
        recv_ns: vec![0; n],
        body: vec![NO_BODY; n],
        outstanding_at_end: 0,
        aborted: false,
    };
    let mut flows: Vec<Flow> = conns.iter().map(|_| Flow::default()).collect();
    let mut outstanding = 0usize;
    let mut next = 0usize;
    let mut buf = vec![0u8; 1 << 16];
    let mut send_end: Option<u64> = None;
    let fds: Vec<i32> = conns.iter().map(|conn| conn.stream.as_raw_fd()).collect();
    while epoch > Instant::now() {
        sys::wait(&[], epoch - Instant::now());
    }
    loop {
        let now = now_ns();
        while next < n && !out.aborted && items[next].due_ns <= now {
            let item = items[next];
            let flow = &mut flows[item.conn as usize];
            flow.outbuf
                .extend_from_slice(payload(item.conn as usize, item.key));
            flow.pending.push_back(next);
            out.sent_ns[next] = Some(now);
            next += 1;
            outstanding += 1;
            if outstanding > limits.abort_outstanding {
                out.aborted = true;
            }
        }
        for ((conn, flow), bodies) in conns.iter_mut().zip(&mut flows).zip(bodies.iter_mut()) {
            if flow.written < flow.outbuf.len() {
                match conn.stream.write(&flow.outbuf[flow.written..]) {
                    Ok(count) => flow.written += count,
                    Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => {}
                    Err(err) => return Err(format!("write: {err}")),
                }
                if flow.written == flow.outbuf.len() {
                    flow.outbuf.clear();
                    flow.written = 0;
                }
            }
            let mut got = false;
            loop {
                match conn.stream.read(&mut buf) {
                    Ok(0) => return Err("the server closed the connection".to_owned()),
                    Ok(count) => {
                        conn.inbuf.extend_from_slice(&buf[..count]);
                        got = true;
                    }
                    Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(err) => return Err(format!("read: {err}")),
                }
            }
            if got {
                let at = now_ns();
                while let Some((start, end)) = conn.next_response()? {
                    let i = flow
                        .pending
                        .pop_front()
                        .ok_or("a response arrived that no request asked for")?;
                    out.recv_ns[i] = at;
                    out.body[i] = bodies.intern(&conn.inbuf[start..end]);
                    outstanding -= 1;
                }
                conn.compact();
            }
        }
        let interest: Vec<(i32, bool)> = fds
            .iter()
            .zip(&flows)
            .map(|(&fd, flow)| (fd, !flow.outbuf.is_empty()))
            .collect();
        if next < n && !out.aborted {
            let wait = items[next].due_ns.saturating_sub(now_ns());
            if wait > 0 && !limits.spin {
                sys::wait(&interest, Duration::from_nanos(wait));
            }
            continue;
        }
        let end = *send_end.get_or_insert_with(|| {
            out.outstanding_at_end = outstanding;
            now
        });
        if outstanding == 0 && flows.iter().all(|flow| flow.outbuf.is_empty()) {
            break;
        }
        let deadline = end + limits.drain.as_nanos() as u64;
        let now = now_ns();
        if now >= deadline {
            break;
        }
        if !limits.spin {
            sys::wait(&interest, Duration::from_nanos(deadline - now));
        }
    }
    Ok(out)
}
