//! Pluggable kernel-readiness backends for the event loop.
//!
//! The event loop ([`crate::server`]) owns every connection as a
//! non-blocking socket and needs exactly one primitive from the platform:
//! *which file descriptors are ready for the I/O I care about, and wake me
//! early when a compute-pool completion lands*. This module puts that
//! primitive behind the [`Poller`] trait and ships two implementations:
//!
//! * [`EpollPoller`] (Linux) — a real kernel readiness queue built on
//!   direct `extern "C"` bindings to `epoll_create1`/`epoll_ctl`/
//!   `epoll_wait` plus an `eventfd` [`Waker`]. No external crates: the
//!   workspace is pure std, and these four syscalls are the entire
//!   surface. An idle server blocks in `epoll_wait` indefinitely — zero
//!   sweeps, zero CPU — and a loaded one is woken per readiness change
//!   instead of scanning every connection per round.
//! * [`ScanPoller`] (everywhere) — the original park/unpark full-scan loop
//!   refactored behind the same trait: `wait` parks with an escalating
//!   timeout (50 µs → 2 ms) and then reports *every* registered fd as
//!   ready per its interest set. Readiness is speculative — the caller
//!   discovers the truth via `WouldBlock` — which is exactly the contract
//!   the event loop's pump paths were built on. It is the only backend off
//!   Linux and the reference model of the contract suite.
//!
//! The platform picks the backend: [`open`] returns epoll on Linux and
//! scan elsewhere. `tests/poller.rs` builds both directly and runs the
//! shared contract tests against each, plus epoll's sharper guarantees.
//!
//! ## The contract
//!
//! * `register`/`modify`/`deregister` maintain an interest set per fd,
//!   identified by a caller-chosen `token` (the loop uses connection ids).
//!   Tokens are never invented by the poller: every event's token was
//!   registered and not yet deregistered.
//! * `wait` blocks until at least one event is available, the timeout
//!   elapses, or a [`Waker`] fires — whichever comes first. Spurious
//!   readiness is allowed (the scan backend is built on it); *lost*
//!   readiness is not: an fd that is actually ready and stays ready is
//!   reported within one `wait` round.
//! * [`Waker::wake`] is safe from any thread, coalesces (N wakes between
//!   two waits produce at least one early return, never a deadlock), and
//!   is never lost — a wake racing `wait` makes that `wait` return
//!   promptly.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, Thread};
use std::time::Duration;

/// Direct syscall bindings (epoll, eventfd): the one sanctioned `unsafe`
/// module in the crate — see `lib.rs`.
#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod sys;

/// A file descriptor as the poller sees it (`c_int` on every Unix). The
/// scan backend never dereferences it, so non-Unix builds can pass 0.
pub type Fd = i32;

/// Token value reserved for the backend's internal waker; never use it
/// when registering.
pub const WAKER_TOKEN: u64 = u64::MAX;

/// Idle park bounds of the scan backend: `wait` parks when asked to block,
/// escalating from `MIN_PARK` to `MAX_PARK`; a zero timeout (the caller
/// made progress and wants an immediate re-sweep) snaps it back. Active
/// connections therefore see ~50 µs loop latency, while an idle scan
/// server polls at only ~500 Hz — the floor the epoll backend eliminates.
pub const MIN_PARK: Duration = Duration::from_micros(50);
/// Upper bound of the scan backend's escalating idle park.
pub const MAX_PARK: Duration = Duration::from_millis(2);

/// The I/O directions a registration cares about.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct Interest {
    /// Report when the fd is readable (or the peer half-closed).
    pub read: bool,
    /// Report when the fd is writable. Level-triggered backends report a
    /// writable socket *every* round, so the loop only enables this while
    /// a connection actually has un-flushed bytes.
    pub write: bool,
}

impl Interest {
    /// Read-only interest (the resting state of a healthy connection).
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
    /// Write-only interest (a draining connection that must not be read).
    pub const WRITE: Interest = Interest {
        read: false,
        write: true,
    };
    /// Both directions (un-flushed bytes on a live connection).
    pub const READ_WRITE: Interest = Interest {
        read: true,
        write: true,
    };
    /// No direction: the fd stays registered (bookkeeping, fatal-error
    /// reporting) but produces no readiness events.
    pub const NONE: Interest = Interest {
        read: false,
        write: false,
    };
}

/// One readiness report from [`Poller::wait`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// The fd may be readable (speculative on the scan backend).
    pub readable: bool,
    /// The fd may be writable (speculative on the scan backend).
    pub writable: bool,
    /// The peer is gone in both directions (epoll `HUP`/`ERR`): the
    /// connection is unsalvageable and should be dropped without further
    /// I/O. The scan backend never reports this — it discovers dead
    /// sockets through I/O errors instead.
    pub hangup: bool,
}

/// Cross-thread wake handle of a poller: compute-pool completions call
/// [`Waker::wake`] to pull the loop out of `wait` immediately, replacing
/// the old `thread::park_timeout`/`unpark` channel.
pub trait Waker: Send + Sync {
    /// Makes the current (or next) [`Poller::wait`] return promptly.
    /// Callable from any thread; coalesces; never lost.
    fn wake(&self);
}

/// A kernel-readiness (or emulated-readiness) backend the event loop can
/// drive. See the module docs for the contract.
pub trait Poller: Send {
    /// The backend's name as reported in `status` (`"epoll"`, `"scan"`).
    fn backend(&self) -> &'static str;
    /// Adds `fd` to the interest list under `token`.
    fn register(&mut self, fd: Fd, token: u64, interest: Interest) -> io::Result<()>;
    /// Replaces the interest set of a registered fd.
    fn modify(&mut self, fd: Fd, token: u64, interest: Interest) -> io::Result<()>;
    /// Removes a registered fd; its token is never reported again.
    fn deregister(&mut self, fd: Fd, token: u64) -> io::Result<()>;
    /// Clears `events` and fills it with ready fds, blocking at most
    /// `timeout` (`None` means until an event or a wake; the scan backend
    /// caps that at [`MAX_PARK`] since its readiness is clock-driven).
    fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()>;
    /// A cross-thread wake handle tied to this poller.
    fn waker(&self) -> Arc<dyn Waker>;
}

/// Shared poller counters: the loop thread increments them, `status`
/// snapshots them from any thread.
#[derive(Debug, Default)]
pub struct PollerCounters {
    /// `wait` calls (each is one loop round; the idle rate of this counter
    /// is what the epoll backend collapses to ~0).
    pub waits: AtomicU64,
    /// [`Waker::wake`] calls observed.
    pub wakeups: AtomicU64,
    /// Pure timer expiries: `wait` calls that returned without a wake or
    /// any genuine readiness — every idle park expiry of the scan backend
    /// (whose reported events are speculative), every empty-handed
    /// deadline tick of the epoll backend.
    pub spurious: AtomicU64,
    /// Currently registered fds (listener + live connections).
    pub registered: AtomicU64,
    /// Kernel entries the backend performed for readiness work: every
    /// `epoll_ctl` + `epoll_wait` on the epoll backend, zero on the scan
    /// backend. Waker eventfd writes from other threads are excluded — the
    /// counter prices the loop thread's syscall burn, which is what
    /// syscalls-per-request benchmarks divide by.
    pub syscalls: AtomicU64,
}

/// A point-in-time view of the poller counters (the `status` payload's
/// `poller` block).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PollerStats {
    /// Backend name (`"epoll"`, `"scan"`).
    pub backend: &'static str,
    /// `wait` calls so far.
    pub waits: u64,
    /// Waker fires so far.
    pub wakeups: u64,
    /// Empty-handed `wait` returns so far.
    pub spurious: u64,
    /// Currently registered fds.
    pub registered: u64,
    /// Readiness syscalls performed by the loop thread so far.
    pub syscalls: u64,
}

impl PollerCounters {
    /// Snapshots the counters under a backend name.
    pub fn stats(&self, backend: &'static str) -> PollerStats {
        PollerStats {
            backend,
            waits: self.waits.load(Ordering::Relaxed),
            wakeups: self.wakeups.load(Ordering::Relaxed),
            spurious: self.spurious.load(Ordering::Relaxed),
            registered: self.registered.load(Ordering::Relaxed),
            syscalls: self.syscalls.load(Ordering::Relaxed),
        }
    }
}

/// Opens the platform's readiness backend over the given (shared)
/// counters: [`EpollPoller`] on Linux, [`ScanPoller`] elsewhere.
pub fn open(counters: Arc<PollerCounters>) -> io::Result<Box<dyn Poller>> {
    #[cfg(target_os = "linux")]
    let poller = EpollPoller::new(counters)?;
    #[cfg(not(target_os = "linux"))]
    let poller = ScanPoller::new(counters);
    Ok(Box::new(poller))
}

// ─── Scan backend ───────────────────────────────────────────────────────

/// The portable fallback: no kernel queue, so `wait` sleeps on a parked
/// thread (woken early by `ScanWaker`) and then reports every registered
/// fd as ready per its interest. Callers built on non-blocking I/O treat
/// the report as *maybe ready* and fall through `WouldBlock` — exactly
/// what the pre-trait event loop did each sweep.
pub struct ScanPoller {
    registry: HashMap<u64, Interest>,
    counters: Arc<PollerCounters>,
    waker: Arc<ScanWaker>,
    park: Duration,
}

/// Park/unpark wake channel of the scan backend. The loop thread is
/// learned on the first `wait`; wakes landing before that (or between
/// waits) latch the `notified` flag so they are never lost.
struct ScanWaker {
    thread: Mutex<Option<Thread>>,
    notified: AtomicBool,
    counters: Arc<PollerCounters>,
}

impl Waker for ScanWaker {
    fn wake(&self) {
        self.counters.wakeups.fetch_add(1, Ordering::Relaxed);
        self.notified.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.lock().expect("waker thread lock").as_ref() {
            thread.unpark();
        }
    }
}

impl ScanWaker {
    /// Consumes a pending wake, if any.
    fn take_notified(&self) -> bool {
        self.notified.swap(false, Ordering::SeqCst)
    }
}

impl ScanPoller {
    /// Creates an empty scan poller over the given counters.
    pub fn new(counters: Arc<PollerCounters>) -> Self {
        let waker = Arc::new(ScanWaker {
            thread: Mutex::new(None),
            notified: AtomicBool::new(false),
            counters: Arc::clone(&counters),
        });
        ScanPoller {
            registry: HashMap::new(),
            counters,
            waker,
            park: MIN_PARK,
        }
    }
}

impl Poller for ScanPoller {
    fn backend(&self) -> &'static str {
        "scan"
    }

    fn register(&mut self, _fd: Fd, token: u64, interest: Interest) -> io::Result<()> {
        // Check-then-insert: a failed re-registration must leave the
        // existing entry untouched (the epoll backend's EEXIST does), not
        // clobber its interest on the way to the error.
        if self.registry.contains_key(&token) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("token {token} is already registered"),
            ));
        }
        self.registry.insert(token, interest);
        self.counters.registered.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn modify(&mut self, _fd: Fd, token: u64, interest: Interest) -> io::Result<()> {
        match self.registry.get_mut(&token) {
            Some(slot) => {
                *slot = interest;
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("token {token} is not registered"),
            )),
        }
    }

    fn deregister(&mut self, _fd: Fd, token: u64) -> io::Result<()> {
        if self.registry.remove(&token).is_none() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("token {token} is not registered"),
            ));
        }
        self.counters.registered.fetch_sub(1, Ordering::Relaxed);
        Ok(())
    }

    fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        self.counters.waits.fetch_add(1, Ordering::Relaxed);
        let woken;
        let mut slept = false;
        if timeout == Some(Duration::ZERO) {
            // The caller just made progress and wants an immediate
            // re-sweep: stay hot.
            self.park = MIN_PARK;
            woken = self.waker.take_notified();
        } else if self.waker.take_notified() {
            // A wake landed while the caller was processing the previous
            // sweep: serve it now without sleeping.
            self.park = MIN_PARK;
            woken = true;
        } else {
            // Bind the loop thread on first use so wakes can unpark it; a
            // wake racing this window latched `notified` and left an
            // unpark token, so `park_timeout` returns immediately.
            {
                let mut slot = self.waker.thread.lock().expect("waker thread lock");
                if slot.is_none() {
                    *slot = Some(thread::current());
                }
            }
            let cap = self.park.min(timeout.unwrap_or(MAX_PARK));
            thread::park_timeout(cap);
            slept = true;
            woken = self.waker.take_notified();
            self.park = if woken {
                MIN_PARK
            } else {
                (self.park * 2).min(MAX_PARK)
            };
        }
        for (&token, &interest) in &self.registry {
            if interest.read || interest.write {
                events.push(Event {
                    token,
                    readable: interest.read,
                    writable: interest.write,
                    hangup: false,
                });
            }
        }
        // The readiness this backend reports is speculative, so an event
        // list alone proves nothing happened: a sweep is spurious when it
        // was a pure timer expiry — the park ran out with no wake (and,
        // per the caller's zero-timeout protocol, no prior progress).
        if slept && !woken {
            self.counters.spurious.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    fn waker(&self) -> Arc<dyn Waker> {
        Arc::clone(&self.waker) as Arc<dyn Waker>
    }
}

// ─── Epoll backend (Linux) ──────────────────────────────────────────────
// (The syscall bindings live in `poller/sys.rs`.)

/// Kernel readiness on Linux: one epoll instance owns the interest list,
/// and an `eventfd` registered under [`WAKER_TOKEN`] carries cross-thread
/// wakes. Level-triggered — the event loop's pump paths already read and
/// write until `WouldBlock`, and write interest is only enabled while a
/// connection holds un-flushed bytes, so level semantics cannot spin.
#[cfg(target_os = "linux")]
pub struct EpollPoller {
    epfd: Fd,
    waker: Arc<EpollWaker>,
    counters: Arc<PollerCounters>,
    buf: Vec<sys::EpollEvent>,
}

#[cfg(target_os = "linux")]
struct EpollWaker {
    eventfd: Fd,
    counters: Arc<PollerCounters>,
}

#[cfg(target_os = "linux")]
impl Waker for EpollWaker {
    fn wake(&self) {
        self.counters.wakeups.fetch_add(1, Ordering::Relaxed);
        sys::eventfd_signal(self.eventfd);
    }
}

#[cfg(target_os = "linux")]
impl Drop for EpollWaker {
    fn drop(&mut self) {
        sys::close_fd(self.eventfd);
    }
}

#[cfg(target_os = "linux")]
impl Drop for EpollPoller {
    fn drop(&mut self) {
        sys::close_fd(self.epfd);
    }
}

#[cfg(target_os = "linux")]
impl EpollPoller {
    /// Room for one syscall's worth of events; more stay queued in the
    /// kernel and surface on the next `wait` (level-triggered).
    const EVENT_BATCH: usize = 1024;

    /// Creates the epoll instance and its eventfd waker.
    pub fn new(counters: Arc<PollerCounters>) -> io::Result<Self> {
        let epfd = sys::create()?;
        let eventfd = match sys::new_eventfd() {
            Ok(fd) => fd,
            Err(err) => {
                sys::close_fd(epfd);
                return Err(err);
            }
        };
        if let Err(err) = sys::ctl(epfd, sys::EPOLL_CTL_ADD, eventfd, sys::EPOLLIN, WAKER_TOKEN) {
            sys::close_fd(eventfd);
            sys::close_fd(epfd);
            return Err(err);
        }
        Ok(EpollPoller {
            epfd,
            waker: Arc::new(EpollWaker {
                eventfd,
                counters: Arc::clone(&counters),
            }),
            counters,
            buf: vec![sys::EpollEvent { events: 0, data: 0 }; Self::EVENT_BATCH],
        })
    }

    fn mask(interest: Interest) -> u32 {
        let mut mask = 0;
        if interest.read {
            mask |= sys::EPOLLIN | sys::EPOLLRDHUP;
        }
        if interest.write {
            mask |= sys::EPOLLOUT;
        }
        mask
    }
}

#[cfg(target_os = "linux")]
impl Poller for EpollPoller {
    fn backend(&self) -> &'static str {
        "epoll"
    }

    fn register(&mut self, fd: Fd, token: u64, interest: Interest) -> io::Result<()> {
        if token == WAKER_TOKEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "token u64::MAX is reserved for the waker",
            ));
        }
        self.counters.syscalls.fetch_add(1, Ordering::Relaxed);
        sys::ctl(
            self.epfd,
            sys::EPOLL_CTL_ADD,
            fd,
            Self::mask(interest),
            token,
        )?;
        self.counters.registered.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn modify(&mut self, fd: Fd, token: u64, interest: Interest) -> io::Result<()> {
        self.counters.syscalls.fetch_add(1, Ordering::Relaxed);
        sys::ctl(
            self.epfd,
            sys::EPOLL_CTL_MOD,
            fd,
            Self::mask(interest),
            token,
        )
    }

    fn deregister(&mut self, fd: Fd, token: u64) -> io::Result<()> {
        self.counters.syscalls.fetch_add(1, Ordering::Relaxed);
        sys::ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, 0, token)?;
        self.counters.registered.fetch_sub(1, Ordering::Relaxed);
        Ok(())
    }

    fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        self.counters.waits.fetch_add(1, Ordering::Relaxed);
        self.counters.syscalls.fetch_add(1, Ordering::Relaxed);
        let timeout_ms = match timeout {
            None => -1,
            Some(d) if d.is_zero() => 0,
            // Round up: rounding down would return before the caller's
            // deadline and busy-loop until it actually elapses.
            Some(d) => {
                let ms = d.as_millis().saturating_add(1);
                i32::try_from(ms).unwrap_or(i32::MAX)
            }
        };
        let n = sys::wait(self.epfd, &mut self.buf, timeout_ms)?;
        let mut woken = false;
        for raw in &self.buf[..n] {
            // Copy out of the (possibly packed) struct before use.
            let token = raw.data;
            let bits = raw.events;
            if token == WAKER_TOKEN {
                sys::eventfd_drain(self.waker.eventfd);
                woken = true;
                continue;
            }
            let hangup = bits & (sys::EPOLLHUP | sys::EPOLLERR) != 0;
            events.push(Event {
                token,
                readable: bits & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0,
                writable: bits & sys::EPOLLOUT != 0,
                hangup,
            });
        }
        if events.is_empty() && !woken {
            self.counters.spurious.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    fn waker(&self) -> Arc<dyn Waker> {
        Arc::clone(&self.waker) as Arc<dyn Waker>
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_reports_every_registered_interest() {
        let counters = Arc::new(PollerCounters::default());
        let mut poller = ScanPoller::new(Arc::clone(&counters));
        poller.register(3, 1, Interest::READ).unwrap();
        poller.register(4, 2, Interest::READ_WRITE).unwrap();
        poller.register(5, 3, Interest::NONE).unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::ZERO)).unwrap();
        events.sort_by_key(|event| event.token);
        assert_eq!(events.len(), 2, "NONE interest is silent: {events:?}");
        assert_eq!(events[0].token, 1);
        assert!(events[0].readable && !events[0].writable);
        assert_eq!(events[1].token, 2);
        assert!(events[1].readable && events[1].writable);
        assert_eq!(counters.stats("scan").registered, 3);

        poller.deregister(4, 2).unwrap();
        poller.wait(&mut events, Some(Duration::ZERO)).unwrap();
        assert!(events.iter().all(|event| event.token != 2));
        assert!(poller.deregister(4, 2).is_err(), "double deregister");
        assert!(poller.register(3, 1, Interest::READ).is_err(), "duplicate");
    }

    #[test]
    fn scan_waker_is_never_lost_and_snaps_the_park_back() {
        let counters = Arc::new(PollerCounters::default());
        let mut poller = ScanPoller::new(counters);
        let waker = poller.waker();
        // A wake before the first wait (thread not yet bound) must make
        // that wait return immediately instead of parking.
        waker.wake();
        let began = std::time::Instant::now();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(
            began.elapsed() < Duration::from_millis(500),
            "a pre-wait wake must not be lost (took {:?})",
            began.elapsed()
        );
    }
}
