//! Minimal epoll wrapper over raw syscalls — the readiness source for
//! the reactor server (and for the load generator's multiplexed client
//! driver, which is why it is public).
//!
//! `std` exposes no readiness API, and this workspace links no async
//! runtime and no `libc` crate, so the three epoll entry points are
//! declared `extern "C"` against the C runtime `std` already links. Level-triggered only: a registration
//! stays ready until its condition clears, so a reactor that leaves
//! bytes unread is re-notified on the next wait — simpler to reason
//! about than edge-triggering and plenty for loopback scale.
//!
//! One [`Poller`] owns one epoll instance. Registrations carry a caller
//! token (an index into the reactor's connection slab) that comes back
//! verbatim in every [`Event`].

use std::io;
use std::os::unix::io::RawFd;

/// The kernel's `struct epoll_event`. x86_64 packs it (wire ABI of the
/// syscall); other architectures use natural alignment.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0x80000;

// From the C runtime std links; declaring them here avoids a libc
// dependency (the server's signal handler uses the same trick).
extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn close(fd: i32) -> i32;
}

/// Which readiness conditions a registration asks to be told about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Notify when the fd has bytes to read (or the peer shut down its
    /// write half).
    pub readable: bool,
    /// Notify when the fd can accept more bytes.
    pub writable: bool,
}

impl Interest {
    /// Read readiness only — the resting state of an idle connection.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };

    /// Read and write readiness — a connection with queued reply bytes.
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };

    /// Write readiness only — a connection paused for backpressure.
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };

    fn mask(self) -> u32 {
        let mut mask = EPOLLRDHUP;
        if self.readable {
            mask |= EPOLLIN;
        }
        if self.writable {
            mask |= EPOLLOUT;
        }
        mask
    }
}

/// One readiness notification, with the registration's token.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token passed at [`Poller::add`] / [`Poller::modify`].
    pub token: u64,
    /// Bytes are readable, or the peer closed its write half.
    pub readable: bool,
    /// The socket can accept more bytes.
    pub writable: bool,
    /// Error or hangup: the connection is dead or dying. Delivered even
    /// when not asked for (epoll always reports these).
    pub hangup: bool,
}

/// One epoll instance. Closed on drop.
pub struct Poller {
    epfd: RawFd,
    /// Kernel-event scratch, reused across waits (no per-tick
    /// allocation).
    raw: Vec<EpollEvent>,
}

impl Poller {
    /// Creates an epoll instance (close-on-exec).
    pub fn new() -> io::Result<Poller> {
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller {
            epfd,
            raw: vec![EpollEvent { events: 0, data: 0 }; 1024],
        })
    }

    fn ctl(&self, op: i32, fd: RawFd, event: *mut EpollEvent) -> io::Result<()> {
        if unsafe { epoll_ctl(self.epfd, op, fd, event) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` with the given interest; `token` comes back in
    /// every [`Event`] for this fd.
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest.mask(),
            data: token,
        };
        self.ctl(EPOLL_CTL_ADD, fd, &mut ev)
    }

    /// Replaces an existing registration's interest (and token).
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest.mask(),
            data: token,
        };
        self.ctl(EPOLL_CTL_MOD, fd, &mut ev)
    }

    /// Removes a registration. Harmless to call for an fd the kernel
    /// already dropped (closing an fd deregisters it implicitly).
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        // The event argument is ignored for DEL on every kernel this
        // crate targets (pre-2.6.9 required a non-null dummy; so pass
        // one anyway).
        let mut ev = EpollEvent { events: 0, data: 0 };
        self.ctl(EPOLL_CTL_DEL, fd, &mut ev)
    }

    /// Blocks until at least one registration is ready or `timeout_ms`
    /// elapses (`-1` = forever, `0` = poll), filling `events` with what
    /// fired. Returns the number of events; an interrupting signal
    /// (EINTR) returns `Ok(0)` like a timeout, so callers poll their
    /// shutdown flags on a bounded cadence either way.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
        events.clear();
        let cap = self.raw.len();
        let n = unsafe { epoll_wait(self.epfd, self.raw.as_mut_ptr(), cap as i32, timeout_ms) };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        for ev in &self.raw[..n as usize] {
            let mask = ev.events;
            events.push(Event {
                token: ev.data,
                readable: mask & (EPOLLIN | EPOLLRDHUP) != 0,
                writable: mask & EPOLLOUT != 0,
                hangup: mask & (EPOLLERR | EPOLLHUP) != 0,
            });
        }
        Ok(n as usize)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        unsafe {
            close(self.epfd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn readiness_round_trip_over_loopback() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut poller = Poller::new().expect("epoll");
        poller
            .add(listener.as_raw_fd(), 1, Interest::READ)
            .expect("register listener");

        // Nothing pending: a zero timeout returns no events.
        let mut events = Vec::with_capacity(64);
        poller.wait(&mut events, 0).expect("empty wait");
        assert!(events.is_empty());

        // A connect makes the listener readable.
        let mut client = TcpStream::connect(addr).expect("connect");
        poller.wait(&mut events, 2_000).expect("wait accept");
        assert!(events.iter().any(|e| e.token == 1 && e.readable));

        let (mut server_side, _) = listener.accept().expect("accept");
        server_side.set_nonblocking(true).expect("nonblocking");
        poller
            .add(server_side.as_raw_fd(), 2, Interest::READ)
            .expect("register conn");

        // Level-triggered: the registration stays readable until the
        // bytes are consumed.
        client.write_all(b"ping").expect("write");
        for _ in 0..2 {
            poller.wait(&mut events, 2_000).expect("wait bytes");
            assert!(events.iter().any(|e| e.token == 2 && e.readable));
        }
        let mut buf = [0u8; 8];
        assert_eq!(server_side.read(&mut buf).expect("read"), 4);

        // Peer close reports readable (EOF) on the registration.
        drop(client);
        poller.wait(&mut events, 2_000).expect("wait close");
        let ev = events
            .iter()
            .find(|e| e.token == 2)
            .expect("close notifies");
        assert!(ev.readable || ev.hangup);

        poller.delete(server_side.as_raw_fd()).expect("deregister");
    }

    #[test]
    fn write_interest_fires_and_modify_clears_it() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        client.set_nonblocking(true).expect("nonblocking");
        let _server_side = listener.accept().expect("accept");

        let mut poller = Poller::new().expect("epoll");
        poller
            .add(client.as_raw_fd(), 7, Interest::READ_WRITE)
            .expect("register");
        let mut events = Vec::with_capacity(64);
        poller.wait(&mut events, 2_000).expect("wait writable");
        assert!(events.iter().any(|e| e.token == 7 && e.writable));

        // Dropping write interest stops the notifications.
        poller
            .modify(client.as_raw_fd(), 7, Interest::READ)
            .expect("modify");
        poller.wait(&mut events, 0).expect("empty wait");
        assert!(!events.iter().any(|e| e.token == 7 && e.writable));
    }
}
