//! Contract tests of the [`Poller`] trait itself. The shared tests run
//! against both backends in one run: [`ScanPoller`] everywhere and
//! [`EpollPoller`] on Linux, each built directly. They cover registration
//! bookkeeping under churn (property-tested with the workspace's seeded
//! RNG — no wall-clock randomness), waker delivery and coalescing, and
//! deregistration (a deregistered fd's token is never reported again,
//! even permanently-readable EOF'd sockets). The Linux-only `kernel_*`
//! tests check the epoll backend's sharper guarantees — real timeouts
//! that round *up* rather than busy-loop, no spurious readiness, and
//! edge-adjusted WRITE interest (the mechanism behind the
//! flush-starvation fix).
//!
//! The contract deliberately allows *spurious* readiness (the scan
//! backend reports every registered fd each sweep) but never *lost*
//! readiness and never *invented* tokens; assertions here are split
//! accordingly into both-backend and epoll-only sections.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use strudel_rdf::rng::StdRng;
#[cfg(target_os = "linux")]
use strudel_server::poller::EpollPoller;
use strudel_server::poller::{Event, Fd, Interest, Poller, PollerCounters, ScanPoller};

/// A connected TCP pair (server side first), both non-blocking.
fn tcp_pair() -> (TcpStream, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let client = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
    let (server, _) = listener.accept().expect("accept");
    server.set_nonblocking(true).expect("nonblocking");
    client.set_nonblocking(true).expect("nonblocking");
    (server, client)
}

#[cfg(unix)]
fn fd_of(stream: &TcpStream) -> Fd {
    use std::os::unix::io::AsRawFd;
    stream.as_raw_fd()
}
#[cfg(not(unix))]
fn fd_of(_stream: &TcpStream) -> Fd {
    0
}

/// Runs `body` against each backend this platform builds, each over
/// fresh counters: scan everywhere, then epoll on Linux. Each leg is
/// announced so a failure names the backend it happened under.
fn for_each_poller(test: &str, body: impl Fn(Box<dyn Poller>, Arc<PollerCounters>)) {
    let leg = |(poller, counters): (Box<dyn Poller>, Arc<PollerCounters>)| {
        eprintln!("[{test}] poller backend: {}", poller.backend());
        body(poller, counters);
    };
    let counters = Arc::new(PollerCounters::default());
    leg((Box::new(ScanPoller::new(Arc::clone(&counters))), counters));
    #[cfg(target_os = "linux")]
    leg(open_epoll());
}

/// An epoll poller over fresh counters.
#[cfg(target_os = "linux")]
fn open_epoll() -> (Box<dyn Poller>, Arc<PollerCounters>) {
    let counters = Arc::new(PollerCounters::default());
    let poller = EpollPoller::new(Arc::clone(&counters)).expect("open epoll");
    (Box::new(poller), counters)
}

/// Waits until `predicate` matches some reported event (retrying across
/// sweeps, since the scan backend needs its park to elapse), or panics
/// after `deadline`.
fn wait_for_event(
    poller: &mut Box<dyn Poller>,
    deadline: Duration,
    predicate: impl Fn(&Event) -> bool,
) -> Event {
    let began = Instant::now();
    let mut events = Vec::new();
    while began.elapsed() < deadline {
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .expect("wait");
        if let Some(event) = events.iter().find(|event| predicate(event)) {
            return *event;
        }
    }
    panic!("no matching event within {deadline:?}");
}

#[test]
fn a_ready_fd_is_reported_within_a_wait() {
    for_each_poller("ready-fd", |mut poller, _| {
        let (server, mut client) = tcp_pair();
        poller
            .register(fd_of(&server), 7, Interest::READ)
            .expect("register");
        client.write_all(b"ping\n").expect("client write");
        let event = wait_for_event(&mut poller, Duration::from_secs(2), |event| {
            event.token == 7
        });
        assert!(event.readable, "data is pending: {event:?}");
    });
}

#[test]
fn a_deregistered_fd_is_never_reported_again_even_after_eof() {
    for_each_poller("deregister-on-eof", |mut poller, counters| {
        let (server, client) = tcp_pair();
        poller
            .register(fd_of(&server), 3, Interest::READ)
            .expect("register");
        // EOF the socket: a closed peer keeps the fd readable *forever*
        // (reads return 0), the readiness analogue of the old event
        // loop's dead-slot re-scan.
        drop(client);
        let event = wait_for_event(&mut poller, Duration::from_secs(2), |event| {
            event.token == 3
        });
        assert!(event.readable || event.hangup, "EOF is reported: {event:?}");

        poller.deregister(fd_of(&server), 3).expect("deregister");
        assert_eq!(counters.stats(poller.backend()).registered, 0);
        let mut events = Vec::new();
        for _ in 0..10 {
            poller
                .wait(&mut events, Some(Duration::from_millis(5)))
                .expect("wait");
            assert!(
                events.iter().all(|event| event.token != 3),
                "token 3 was deregistered: {events:?}"
            );
        }
    });
}

#[test]
fn a_failed_re_registration_leaves_the_existing_interest_untouched() {
    for_each_poller("register-no-clobber", |mut poller, counters| {
        let (server, mut client) = tcp_pair();
        poller
            .register(fd_of(&server), 4, Interest::READ_WRITE)
            .expect("register");
        let err = poller
            .register(fd_of(&server), 4, Interest::READ)
            .expect_err("duplicate registration is an error");
        assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
        assert_eq!(counters.stats(poller.backend()).registered, 1);
        // The original READ_WRITE interest must survive the failed call:
        // with the fd readable (data pending) and writable (empty send
        // buffer), the reported event still carries the write direction.
        client.write_all(b"ping\n").expect("client write");
        let event = wait_for_event(&mut poller, Duration::from_secs(2), |event| {
            event.token == 4
        });
        assert!(
            event.writable,
            "a clobbered interest would have dropped writability: {event:?}"
        );
    });
}

#[test]
fn waker_wakes_a_blocking_wait_from_another_thread() {
    for_each_poller("cross-thread-wake", |mut poller, counters| {
        let (server, _client) = tcp_pair(); // keep one silent registration
        poller
            .register(fd_of(&server), 1, Interest::NONE)
            .expect("register");
        let waker = poller.waker();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            waker.wake();
        });
        let began = Instant::now();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .expect("wait");
        handle.join().expect("waker thread");
        assert!(
            began.elapsed() < Duration::from_secs(5),
            "the wake must cut the 10 s timeout short (took {:?})",
            began.elapsed()
        );
        assert_eq!(counters.stats(poller.backend()).wakeups, 1);
    });
}

#[test]
fn wakes_coalesce_but_are_never_lost() {
    for_each_poller("wake-coalescing", |mut poller, counters| {
        const THREADS: usize = 4;
        const WAKES_PER_THREAD: usize = 25;
        let joins: Vec<_> = (0..THREADS)
            .map(|_| {
                let waker = poller.waker();
                std::thread::spawn(move || {
                    for _ in 0..WAKES_PER_THREAD {
                        waker.wake();
                    }
                })
            })
            .collect();
        for join in joins {
            join.join().expect("waker thread");
        }
        // Every wake was counted; the pending ones coalesce into (at
        // least) one prompt return instead of 100 queued wake-ups.
        assert_eq!(
            counters.stats(poller.backend()).wakeups,
            (THREADS * WAKES_PER_THREAD) as u64
        );
        let began = Instant::now();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .expect("wait");
        assert!(
            began.elapsed() < Duration::from_secs(5),
            "pending wakes make the next wait return promptly (took {:?})",
            began.elapsed()
        );
    });
}

#[test]
fn registration_bookkeeping_survives_churn() {
    for_each_poller("registration-churn", |mut poller, counters| {
        const FDS: usize = 8;
        const ROUNDS: usize = 400;
        let pairs: Vec<(TcpStream, TcpStream)> = (0..FDS).map(|_| tcp_pair()).collect();
        let mut rng = StdRng::seed_from_u64(0x9e3779b97f4a7c15);
        // Model: token i ↔ server side of pair i; the poller must agree
        // with this map after any interleaving of register / modify /
        // deregister.
        let mut model: HashMap<u64, Interest> = HashMap::new();
        let interests = [Interest::READ, Interest::WRITE, Interest::READ_WRITE];
        for _ in 0..ROUNDS {
            let token = rng.gen_range(0..FDS) as u64;
            let fd = fd_of(&pairs[token as usize].0);
            let interest = interests[rng.gen_range(0..interests.len())];
            match (model.contains_key(&token), rng.gen_bool(0.5)) {
                (false, _) => {
                    poller.register(fd, token, interest).expect("register");
                    model.insert(token, interest);
                }
                (true, true) => {
                    poller.modify(fd, token, interest).expect("modify");
                    model.insert(token, interest);
                }
                (true, false) => {
                    poller.deregister(fd, token).expect("deregister");
                    model.remove(&token);
                }
            }
            assert_eq!(
                counters.stats(poller.backend()).registered,
                model.len() as u64,
                "registered-fd gauge tracks the model"
            );
        }
        // Make every fd genuinely ready in both directions (data pending,
        // send buffer empty): the union of sweeps must report exactly the
        // registered tokens — nothing invented, nothing lost.
        for (_, client) in &pairs {
            (&*client).write_all(b"x").expect("client write");
        }
        let mut reported: HashMap<u64, Event> = HashMap::new();
        let began = Instant::now();
        let mut events = Vec::new();
        while reported.len() < model.len() && began.elapsed() < Duration::from_secs(2) {
            poller
                .wait(&mut events, Some(Duration::from_millis(20)))
                .expect("wait");
            for event in &events {
                assert!(
                    model.contains_key(&event.token),
                    "token {} was never registered (or was deregistered): {model:?}",
                    event.token
                );
                reported.insert(event.token, *event);
            }
        }
        assert_eq!(
            reported.len(),
            model.len(),
            "every registered fd is ready and must be reported: {model:?}"
        );
        for (token, interest) in &model {
            let event = reported[token];
            // Direction flags never exceed the interest set.
            assert!(event.readable <= interest.read, "{token}: {event:?}");
            assert!(event.writable <= interest.write, "{token}: {event:?}");
            assert!(event.readable || event.writable, "{token}: {event:?}");
        }
    });
}

// ─── kernel backend: the sharper guarantees of real readiness ───────────
// (the scan backend's readiness is speculative and clock-driven, so none
// of these hold for it)

#[cfg(target_os = "linux")]
#[test]
fn kernel_timeouts_expire_without_inventing_events() {
    let (server, _client) = tcp_pair(); // open but silent
    let (mut poller, counters) = open_epoll();
    poller
        .register(fd_of(&server), 5, Interest::READ)
        .expect("register");
    // A zero timeout polls and returns immediately.
    let mut events = Vec::new();
    let began = Instant::now();
    poller
        .wait(&mut events, Some(Duration::ZERO))
        .expect("wait");
    assert!(events.is_empty(), "no data is pending: {events:?}");
    assert!(began.elapsed() < Duration::from_millis(100));
    // A real timeout blocks for (at least) its duration, then returns
    // empty-handed; that return is the backend's only spurious wake.
    let began = Instant::now();
    poller
        .wait(&mut events, Some(Duration::from_millis(120)))
        .expect("wait");
    assert!(events.is_empty(), "still no data: {events:?}");
    assert!(
        began.elapsed() >= Duration::from_millis(100),
        "the wait must actually sleep (took {:?})",
        began.elapsed()
    );
    assert!(counters.stats(poller.backend()).spurious >= 1);
}

#[cfg(target_os = "linux")]
#[test]
fn kernel_write_interest_is_edge_adjusted_as_the_peer_drains() {
    let (server, mut client) = tcp_pair();
    let (mut poller, _) = open_epoll();

    // Saturate the server→client direction so the socket stops being
    // writable — the "full write buffer, no new reads" connection of
    // the flush-starvation fix.
    let chunk = vec![0u8; 64 * 1024];
    let mut queued = 0usize;
    loop {
        match (&server).write(&chunk) {
            Ok(n) => queued += n,
            Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(err) => panic!("saturating write failed: {err}"),
        }
    }
    assert!(queued > 0, "something must be in flight");

    poller
        .register(fd_of(&server), 9, Interest::WRITE)
        .expect("register");
    let mut events = Vec::new();
    poller
        .wait(&mut events, Some(Duration::from_millis(50)))
        .expect("wait");
    assert!(
        events.iter().all(|event| !event.writable),
        "a saturated socket must not be writable: {events:?}"
    );

    // Drain the peer: writability must be reported promptly — this is
    // the wake-up the old scan loop could only approximate with its
    // park cycle.
    let mut sink = vec![0u8; 256 * 1024];
    let drained = std::thread::spawn(move || {
        let mut total = 0usize;
        while total < queued {
            match client.read(&mut sink) {
                Ok(0) => break,
                Ok(n) => total += n,
                Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(err) => panic!("draining read failed: {err}"),
            }
        }
        total
    });
    let event = wait_for_event(&mut poller, Duration::from_secs(5), |event| {
        event.token == 9 && event.writable
    });
    assert!(event.writable);
    assert!(drained.join().expect("drain thread") >= queued);
}

#[cfg(target_os = "linux")]
#[test]
fn kernel_an_idle_poller_blocks_instead_of_sweeping() {
    let (server, _client) = tcp_pair();
    let (mut poller, counters) = open_epoll();
    poller
        .register(fd_of(&server), 2, Interest::READ)
        .expect("register");
    // One wait, bounded by its timeout: exactly one wait is recorded,
    // where the scan backend would have swept hundreds of times in
    // the same window.
    let mut events = Vec::new();
    poller
        .wait(&mut events, Some(Duration::from_millis(300)))
        .expect("wait");
    let stats = counters.stats(poller.backend());
    assert_eq!(
        stats.waits, 1,
        "idleness costs one blocked wait, not sweeps"
    );
}

#[cfg(target_os = "linux")]
#[test]
fn kernel_sub_millisecond_deadlines_do_not_busy_loop() {
    let (server, _client) = tcp_pair(); // open but silent
    let (mut poller, counters) = open_epoll();
    poller
        .register(fd_of(&server), 6, Interest::READ)
        .expect("register");
    // Drive the event loop's deadline protocol against a ~500 µs
    // deadline: each round waits for the *remaining* time, exactly as
    // `run` recomputes `next_timeout`. A backend that truncated the
    // sub-millisecond remainder to 0 ms would return instantly every
    // round and spin through hundreds of waits before the deadline
    // passes; rounding up bounds it to a handful.
    let deadline = Instant::now() + Duration::from_micros(500);
    let mut events = Vec::new();
    loop {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        poller
            .wait(&mut events, Some(deadline - now))
            .expect("wait");
        assert!(events.is_empty(), "the socket is silent: {events:?}");
    }
    let waits = counters.stats(poller.backend()).waits;
    assert!(
        waits <= 10,
        "a ~500 µs deadline produced {waits} wakeups — \
         the timeout is being rounded down into a busy-loop"
    );
}
