//! Direct syscall bindings of the epoll readiness backend — the one
//! sanctioned `unsafe` module of the crate (see `lib.rs`). The workspace
//! bans external crates, so the epoll surface (four syscalls, the
//! eventfd's `read`/`write`/`close`, and one `#[repr(C)]` struct) mirrors
//! the kernel ABI by hand; every call site checks the return value and
//! surfaces `io::Error::last_os_error()`.

use std::io;
use std::os::raw::{c_int, c_uint, c_void};

pub const EPOLL_CLOEXEC: c_int = 0o2000000;
pub const EPOLL_CTL_ADD: c_int = 1;
pub const EPOLL_CTL_DEL: c_int = 2;
pub const EPOLL_CTL_MOD: c_int = 3;
pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
pub const EPOLLRDHUP: u32 = 0x2000;
pub const EFD_CLOEXEC: c_int = 0o2000000;
pub const EFD_NONBLOCK: c_int = 0o4000;

/// The kernel's `struct epoll_event`. Packed on x86-64 (a 32-bit-era
/// ABI decision the kernel is stuck with), naturally aligned
/// elsewhere; `data` carries the registration token verbatim.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    pub events: u32,
    pub data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
}

pub fn create() -> io::Result<i32> {
    // SAFETY: no pointers; the kernel returns a new fd or -1.
    let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(fd)
}

pub fn ctl(epfd: i32, op: c_int, fd: i32, events: u32, token: u64) -> io::Result<()> {
    let mut event = EpollEvent {
        events,
        data: token,
    };
    // SAFETY: `event` outlives the call; the kernel copies it.
    let rc = unsafe { epoll_ctl(epfd, op, fd, &mut event) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Waits for events; `timeout_ms` of -1 blocks indefinitely. `EINTR`
/// is reported as zero events (the loop just goes around again).
pub fn wait(epfd: i32, buf: &mut [EpollEvent], timeout_ms: c_int) -> io::Result<usize> {
    // SAFETY: `buf` is a live, exclusively borrowed slice; the kernel
    // writes at most `buf.len()` entries.
    let n = unsafe { epoll_wait(epfd, buf.as_mut_ptr(), buf.len() as c_int, timeout_ms) };
    if n < 0 {
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            return Ok(0);
        }
        return Err(err);
    }
    Ok(n as usize)
}

pub fn new_eventfd() -> io::Result<i32> {
    // SAFETY: no pointers; returns a new fd or -1.
    let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(fd)
}

/// Adds 1 to an eventfd counter (the wake signal). `EAGAIN` means the
/// counter is saturated — the fd is already readable, so the wake is
/// delivered regardless and the error is ignored.
pub fn eventfd_signal(fd: i32) {
    let value: u64 = 1;
    // SAFETY: writes 8 bytes from a live stack value.
    let _ = unsafe { write(fd, (&value as *const u64).cast::<c_void>(), 8) };
}

/// Drains an eventfd counter so the next wake re-arms it.
pub fn eventfd_drain(fd: i32) {
    let mut value: u64 = 0;
    // SAFETY: reads 8 bytes into a live stack value.
    let _ = unsafe { read(fd, (&mut value as *mut u64).cast::<c_void>(), 8) };
}

pub fn close_fd(fd: i32) {
    // SAFETY: closing an owned fd; errors at close are unactionable.
    let _ = unsafe { close(fd) };
}
