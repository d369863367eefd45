//! Syscall-batched datagram I/O: `recvmmsg`/`sendmmsg` with a portable
//! fallback.
//!
//! The multiplexed runtime ([`crate::mux`]) moves one datagram per
//! syscall when it uses `recv_from`/`send_to` — at 10⁴–10⁵ virtual nodes
//! the kernel boundary, not the protocol, becomes the ceiling. On Linux
//! both directions batch: a loop drains up to [`BATCH`] datagrams per
//! `recvmmsg` call, accumulates its turn's outbound datagrams and flushes
//! them with one `sendmmsg` per [`BATCH`].
//!
//! The build environment has no crates.io access, so the syscall
//! wrappers — `recvmmsg`, `sendmmsg`, and the `poll` behind
//! `wait_readable` — are declared here directly (glibc exports them on
//! every supported Linux target) behind `#[cfg(target_os = "linux")]`. A
//! portable one-datagram-per-syscall path compiles everywhere and is
//! selectable at runtime ([`IoBackend::Portable`]) for A/B measurement
//! and for keeping the non-Linux code path tested on Linux CI.
//!
//! Selection: [`IoBackend::auto`] picks `Batched` on Linux and
//! `Portable` elsewhere; the `EPIDEMIC_NET_IO` environment variable
//! (`batched` / `portable`) overrides it, which is how CI forces the
//! fallback path on a Linux runner.

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::Duration;

/// Datagrams moved per batched syscall (both directions).
pub const BATCH: usize = 32;

/// Largest datagram a receive slot can hold — matches the 64 KiB UDP
/// maximum the runtimes have always assumed.
const MAX_DATAGRAM: usize = 64 * 1024;

/// How a runtime moves datagrams across the kernel boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoBackend {
    /// `recvmmsg`/`sendmmsg`: up to [`BATCH`] datagrams per syscall.
    /// Only effective on Linux; elsewhere it degrades to `Portable`.
    Batched,
    /// One `recv_from`/`send_to` per datagram — compiles and runs
    /// everywhere, and preserves the pre-batching syscall pattern
    /// exactly (the A/B baseline).
    Portable,
}

impl IoBackend {
    /// The platform default: `Batched` on Linux, `Portable` elsewhere —
    /// unless the `EPIDEMIC_NET_IO` environment variable names a backend
    /// explicitly.
    pub fn auto() -> Self {
        if let Ok(value) = std::env::var("EPIDEMIC_NET_IO") {
            if let Some(forced) = IoBackend::from_override(&value) {
                return forced;
            }
        }
        if cfg!(target_os = "linux") {
            IoBackend::Batched
        } else {
            IoBackend::Portable
        }
    }

    /// Parses an override string (the `EPIDEMIC_NET_IO` value or an
    /// `--io` CLI flag): `batched` / `portable`, case-insensitive.
    pub fn from_override(value: &str) -> Option<Self> {
        match value.to_ascii_lowercase().as_str() {
            "batched" => Some(IoBackend::Batched),
            "portable" => Some(IoBackend::Portable),
            _ => None,
        }
    }

    /// Whether this backend actually batches on the current platform.
    pub fn is_batched(self) -> bool {
        self == IoBackend::Batched && cfg!(target_os = "linux")
    }

    /// The backend's name, in the same lowercase form
    /// [`IoBackend::from_override`] parses — used as a metric label value.
    pub fn as_str(self) -> &'static str {
        match self {
            IoBackend::Batched => "batched",
            IoBackend::Portable => "portable",
        }
    }
}

/// Reusable receive buffers for one socket: up to [`BATCH`] datagrams per
/// [`RecvBatch::recv`] call on the batched backend, exactly one on the
/// portable backend.
#[derive(Debug)]
pub struct RecvBatch {
    /// `BATCH` slots of `MAX_DATAGRAM` bytes, flat.
    bufs: Box<[u8]>,
    /// Received length per slot (valid for `0..count` of the last call).
    lens: [usize; BATCH],
    /// Source address per slot (valid for `0..count` of the last call);
    /// `None` when the kernel reported an address family we don't parse.
    srcs: [Option<SocketAddr>; BATCH],
}

impl Default for RecvBatch {
    fn default() -> Self {
        RecvBatch::new()
    }
}

impl RecvBatch {
    /// Allocates the slot buffers (`BATCH * 64 KiB`, reused for the life
    /// of the loop).
    pub fn new() -> Self {
        RecvBatch {
            bufs: vec![0u8; BATCH * MAX_DATAGRAM].into_boxed_slice(),
            lens: [0; BATCH],
            srcs: [None; BATCH],
        }
    }

    /// Receives at least one datagram (blocking per the socket's read
    /// timeout), draining whatever else is immediately available on the
    /// batched backend. Returns how many slots were filled — exactly one
    /// syscall was performed either way.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; a read timeout surfaces as
    /// `WouldBlock`/`TimedOut` exactly like `recv_from`.
    pub fn recv(&mut self, socket: &UdpSocket, backend: IoBackend) -> io::Result<usize> {
        #[cfg(target_os = "linux")]
        if backend == IoBackend::Batched {
            return self.recv_batched(socket);
        }
        let _ = backend;
        let (len, src) = socket.recv_from(&mut self.bufs[..MAX_DATAGRAM])?;
        self.lens[0] = len;
        self.srcs[0] = Some(src);
        Ok(1)
    }

    /// The bytes of datagram `i` of the last [`RecvBatch::recv`] call.
    ///
    /// # Panics
    ///
    /// Panics if `i >= BATCH` (callers index `0..count`).
    pub fn datagram(&self, i: usize) -> &[u8] {
        &self.bufs[i * MAX_DATAGRAM..i * MAX_DATAGRAM + self.lens[i]]
    }

    /// The source address of datagram `i` of the last
    /// [`RecvBatch::recv`] call — the sender's socket, as reported by the
    /// kernel. `None` only for an unparseable address family.
    ///
    /// # Panics
    ///
    /// Panics if `i >= BATCH` (callers index `0..count`).
    pub fn src(&self, i: usize) -> Option<SocketAddr> {
        self.srcs[i]
    }

    #[cfg(target_os = "linux")]
    fn recv_batched(&mut self, socket: &UdpSocket) -> io::Result<usize> {
        use std::os::fd::AsRawFd;
        let mut iovecs = [sys::IoVec {
            iov_base: std::ptr::null_mut(),
            iov_len: 0,
        }; BATCH];
        let mut hdrs = [sys::MmsgHdr::zeroed(); BATCH];
        let mut names = [sys::SockaddrStorage::zeroed(); BATCH];
        for (slot, (iov, hdr)) in iovecs.iter_mut().zip(hdrs.iter_mut()).enumerate() {
            iov.iov_base = self.bufs[slot * MAX_DATAGRAM..].as_mut_ptr().cast();
            iov.iov_len = MAX_DATAGRAM;
            hdr.msg_hdr.msg_iov = iov;
            hdr.msg_hdr.msg_iovlen = 1;
            hdr.msg_hdr.msg_name = names[slot].bytes.as_mut_ptr().cast();
            hdr.msg_hdr.msg_namelen = sys::SockaddrStorage::LEN;
        }
        // SAFETY: every header points at a distinct live slot of `bufs`,
        // at its own iovec, and at its own sockaddr storage; all three
        // arrays outlive the call. The socket fd is valid for the
        // borrow's duration.
        let got = unsafe {
            sys::recvmmsg(
                socket.as_raw_fd(),
                hdrs.as_mut_ptr(),
                BATCH as u32,
                sys::MSG_WAITFORONE,
                std::ptr::null_mut(),
            )
        };
        if got < 0 {
            return Err(io::Error::last_os_error());
        }
        for (i, hdr) in hdrs.iter().enumerate().take(got as usize) {
            self.lens[i] = hdr.msg_len as usize;
            self.srcs[i] = names[i].decode();
        }
        Ok(got as usize)
    }
}

/// Waits until `socket` has a datagram to read or `timeout` passes, and
/// says which. A socket read timeout cannot bound a wait this finely: the
/// kernel keeps it in scheduler ticks (a 1 ms `SO_RCVTIMEO` waits ≈ 8 ms
/// on a 250 Hz kernel), while Linux `poll(2)` sleeps on a high-resolution
/// timer. Elsewhere this returns `true` at once, and the receive that
/// follows waits out the socket's read timeout instead.
///
/// # Errors
///
/// Propagates a failed `poll`.
pub(crate) fn wait_readable(socket: &UdpSocket, timeout: Duration) -> io::Result<bool> {
    #[cfg(target_os = "linux")]
    {
        use std::os::fd::AsRawFd;
        let mut fd = sys::PollFd {
            fd: socket.as_raw_fd(),
            events: sys::POLLIN,
            revents: 0,
        };
        let ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
        // SAFETY: one live pollfd for the call's duration; the fd is valid
        // for the borrow.
        match unsafe { sys::poll(&mut fd, 1, ms) } {
            -1 => Err(io::Error::last_os_error()),
            ready => Ok(ready > 0),
        }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = (socket, timeout);
        Ok(true)
    }
}

/// Outbound frames accumulated for ONE socket, flushed with `sendmmsg`
/// (or a `send_to` loop on the portable backend). `M` is caller metadata
/// carried per frame — the mux runtime stores the datagram's index in its
/// flush, so each frame it bundled is charged with that datagram's fate.
#[derive(Debug, Default)]
pub struct SendBatch<M> {
    frames: Vec<(Vec<u8>, SocketAddr)>,
    meta: Vec<M>,
}

impl<M> SendBatch<M> {
    /// An empty batch.
    pub fn new() -> Self {
        SendBatch {
            frames: Vec::new(),
            meta: Vec::new(),
        }
    }

    /// Returns `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Queues one frame for `target`.
    pub fn push(&mut self, bytes: Vec<u8>, target: SocketAddr, meta: M) {
        self.frames.push((bytes, target));
        self.meta.push(meta);
    }

    /// Transmits every queued frame through `socket`, invoking
    /// `on_result(&meta, wire_len, ok)` once per frame (in push order),
    /// then clears the batch. Returns the number of send syscalls used.
    ///
    /// A frame the kernel rejects (e.g. `sendmmsg` stopping early, or a
    /// `send_to` error) reports `ok = false` and transmission continues
    /// with the next frame — one bad destination cannot stall the rest
    /// of the burst.
    pub fn flush(
        &mut self,
        socket: &UdpSocket,
        backend: IoBackend,
        mut on_result: impl FnMut(&M, usize, bool),
    ) -> u64 {
        let syscalls = self.transmit(socket, backend, &mut on_result);
        self.frames.clear();
        self.meta.clear();
        syscalls
    }

    fn transmit(
        &mut self,
        socket: &UdpSocket,
        backend: IoBackend,
        on_result: &mut impl FnMut(&M, usize, bool),
    ) -> u64 {
        #[cfg(target_os = "linux")]
        if backend == IoBackend::Batched {
            return self.transmit_batched(socket, on_result);
        }
        let _ = backend;
        let mut syscalls = 0u64;
        for ((bytes, target), meta) in self.frames.iter().zip(&self.meta) {
            syscalls += 1;
            let ok = socket.send_to(bytes, *target).is_ok();
            on_result(meta, bytes.len(), ok);
        }
        syscalls
    }

    #[cfg(target_os = "linux")]
    fn transmit_batched(
        &mut self,
        socket: &UdpSocket,
        on_result: &mut impl FnMut(&M, usize, bool),
    ) -> u64 {
        use std::os::fd::AsRawFd;
        let mut syscalls = 0u64;
        let mut start = 0usize;
        while start < self.frames.len() {
            let chunk = (self.frames.len() - start).min(BATCH);
            let mut addrs = [sys::SockaddrStorage::zeroed(); BATCH];
            let mut iovecs = [sys::IoVec {
                iov_base: std::ptr::null_mut(),
                iov_len: 0,
            }; BATCH];
            let mut hdrs = [sys::MmsgHdr::zeroed(); BATCH];
            for i in 0..chunk {
                let (bytes, target) = &mut self.frames[start + i];
                let namelen = addrs[i].encode(target);
                iovecs[i].iov_base = bytes.as_mut_ptr().cast();
                iovecs[i].iov_len = bytes.len();
                hdrs[i].msg_hdr.msg_name = addrs[i].bytes.as_mut_ptr().cast();
                hdrs[i].msg_hdr.msg_namelen = namelen;
                hdrs[i].msg_hdr.msg_iov = &mut iovecs[i];
                hdrs[i].msg_hdr.msg_iovlen = 1;
            }
            // SAFETY: headers 0..chunk each point at a distinct live
            // frame buffer, its own iovec, and its own sockaddr storage,
            // all outliving the call; the fd is valid for the borrow.
            let sent =
                unsafe { sys::sendmmsg(socket.as_raw_fd(), hdrs.as_mut_ptr(), chunk as u32, 0) };
            syscalls += 1;
            if sent > 0 {
                for i in start..start + sent as usize {
                    on_result(&self.meta[i], self.frames[i].0.len(), true);
                }
                start += sent as usize;
            } else {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                // The first frame of the chunk failed; report it and move
                // on so one dead destination cannot wedge the burst.
                on_result(&self.meta[start], self.frames[start].0.len(), false);
                start += 1;
            }
        }
        syscalls
    }
}

/// Raw Linux syscall surface: hand-declared externs and ABI structs (the
/// environment has no crates.io access, so no `libc` crate). Layouts
/// follow the x86-64/AArch64 glibc definitions; `#[repr(C)]` reproduces
/// the kernel's padding from the field types alone.
#[cfg(target_os = "linux")]
mod sys {
    use std::ffi::c_void;
    use std::net::SocketAddr;

    /// `recvmmsg(2)` flag: return once at least one datagram arrived,
    /// taking whatever else is immediately available.
    pub const MSG_WAITFORONE: i32 = 0x10000;

    /// `poll(2)` event: data to read.
    pub const POLLIN: i16 = 1;

    const AF_INET: u16 = 2;
    const AF_INET6: u16 = 10;

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct IoVec {
        pub iov_base: *mut c_void,
        pub iov_len: usize,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct MsgHdr {
        pub msg_name: *mut c_void,
        pub msg_namelen: u32,
        pub msg_iov: *mut IoVec,
        pub msg_iovlen: usize,
        pub msg_control: *mut c_void,
        pub msg_controllen: usize,
        pub msg_flags: i32,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct MmsgHdr {
        pub msg_hdr: MsgHdr,
        pub msg_len: u32,
    }

    impl MmsgHdr {
        pub fn zeroed() -> Self {
            // SAFETY: all fields are integers or raw pointers; the
            // all-zero bit pattern is a valid value for each.
            unsafe { std::mem::zeroed() }
        }
    }

    /// Room for a `sockaddr_in6` (the larger of the two families).
    #[repr(C, align(8))]
    #[derive(Clone, Copy)]
    pub struct SockaddrStorage {
        pub bytes: [u8; 28],
    }

    impl SockaddrStorage {
        /// Byte size of the storage (room for a `sockaddr_in6`).
        pub const LEN: u32 = 28;

        pub fn zeroed() -> Self {
            SockaddrStorage { bytes: [0; 28] }
        }

        /// Parses the kernel-written `sockaddr_in`/`sockaddr_in6` back
        /// into a [`SocketAddr`] (`None` for any other family).
        pub fn decode(&self) -> Option<SocketAddr> {
            let family = u16::from_ne_bytes([self.bytes[0], self.bytes[1]]);
            let port = u16::from_be_bytes([self.bytes[2], self.bytes[3]]);
            match family {
                AF_INET => {
                    let mut ip = [0u8; 4];
                    ip.copy_from_slice(&self.bytes[4..8]);
                    Some(SocketAddr::from((ip, port)))
                }
                AF_INET6 => {
                    let mut ip = [0u8; 16];
                    ip.copy_from_slice(&self.bytes[8..24]);
                    Some(SocketAddr::from((ip, port)))
                }
                _ => None,
            }
        }

        /// Writes `addr` as a kernel `sockaddr_in`/`sockaddr_in6`,
        /// returning the `msg_namelen` to pass alongside.
        pub fn encode(&mut self, addr: &SocketAddr) -> u32 {
            match addr {
                SocketAddr::V4(v4) => {
                    self.bytes[0..2].copy_from_slice(&AF_INET.to_ne_bytes());
                    self.bytes[2..4].copy_from_slice(&v4.port().to_be_bytes());
                    self.bytes[4..8].copy_from_slice(&v4.ip().octets());
                    self.bytes[8..16].fill(0); // sin_zero
                    16
                }
                SocketAddr::V6(v6) => {
                    self.bytes[0..2].copy_from_slice(&AF_INET6.to_ne_bytes());
                    self.bytes[2..4].copy_from_slice(&v6.port().to_be_bytes());
                    self.bytes[4..8].copy_from_slice(&v6.flowinfo().to_be_bytes());
                    self.bytes[8..24].copy_from_slice(&v6.ip().octets());
                    self.bytes[24..28].copy_from_slice(&v6.scope_id().to_ne_bytes());
                    28
                }
            }
        }
    }

    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: i32) -> i32;

        pub fn recvmmsg(
            sockfd: i32,
            msgvec: *mut MmsgHdr,
            vlen: u32,
            flags: i32,
            timeout: *mut c_void,
        ) -> i32;

        pub fn sendmmsg(sockfd: i32, msgvec: *mut MmsgHdr, vlen: u32, flags: i32) -> i32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (UdpSocket, UdpSocket, SocketAddr) {
        let a = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let b = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        b.set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        let to = b.local_addr().unwrap();
        (a, b, to)
    }

    fn backends() -> Vec<IoBackend> {
        if cfg!(target_os = "linux") {
            vec![IoBackend::Batched, IoBackend::Portable]
        } else {
            vec![IoBackend::Portable]
        }
    }

    #[test]
    fn override_parsing() {
        assert_eq!(
            IoBackend::from_override("batched"),
            Some(IoBackend::Batched)
        );
        assert_eq!(
            IoBackend::from_override("Portable"),
            Some(IoBackend::Portable)
        );
        assert_eq!(IoBackend::from_override("turbo"), None);
        assert_eq!(IoBackend::from_override(""), None);
    }

    #[test]
    fn batched_is_linux_only() {
        assert_eq!(IoBackend::Batched.is_batched(), cfg!(target_os = "linux"),);
        assert!(!IoBackend::Portable.is_batched());
    }

    #[test]
    fn round_trips_a_burst_on_every_backend() {
        for backend in backends() {
            let (tx, rx, to) = pair();
            let mut batch: SendBatch<usize> = SendBatch::new();
            let total = BATCH + 7; // forces a second sendmmsg chunk
            for i in 0..total {
                batch.push(format!("datagram-{i}").into_bytes(), to, i);
            }
            let mut sent = Vec::new();
            let syscalls = batch.flush(&tx, backend, |&i, len, ok| {
                assert!(ok, "send {i} failed");
                assert_eq!(len, format!("datagram-{i}").len());
                sent.push(i);
            });
            assert_eq!(sent, (0..total).collect::<Vec<_>>());
            assert!(batch.is_empty(), "flush must clear the batch");
            if backend.is_batched() {
                assert_eq!(syscalls, 2, "expected ceil({total}/{BATCH}) syscalls");
            } else {
                assert_eq!(syscalls, total as u64);
            }

            let from = tx.local_addr().unwrap();
            let mut recv = RecvBatch::new();
            let mut got = Vec::new();
            let mut recv_syscalls = 0u64;
            while got.len() < total {
                let count = recv.recv(&rx, backend).expect("burst lost");
                recv_syscalls += 1;
                for d in 0..count {
                    got.push(String::from_utf8(recv.datagram(d).to_vec()).unwrap());
                    assert_eq!(recv.src(d), Some(from), "{backend:?}: wrong source");
                }
            }
            got.sort();
            let mut want: Vec<String> = (0..total).map(|i| format!("datagram-{i}")).collect();
            want.sort();
            assert_eq!(got, want);
            if backend.is_batched() {
                assert!(
                    recv_syscalls < total as u64,
                    "batched recv used {recv_syscalls} syscalls for {total} datagrams"
                );
            }
        }
    }

    #[test]
    fn recv_times_out_like_recv_from() {
        for backend in backends() {
            let rx = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
            rx.set_read_timeout(Some(Duration::from_millis(30)))
                .unwrap();
            let mut recv = RecvBatch::new();
            let err = recv.recv(&rx, backend).unwrap_err();
            assert!(
                matches!(
                    err.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ),
                "{backend:?}: unexpected timeout kind {:?}",
                err.kind()
            );
        }
    }

    #[test]
    fn failed_sends_are_reported_without_stalling_the_burst() {
        for backend in backends() {
            let (tx, _rx, to) = pair();
            // An IPv6 destination on an IPv4 socket: the kernel rejects
            // it, the surrounding IPv4 frames must still go through.
            let bad: SocketAddr = "[::1]:9".parse().unwrap();
            let mut batch: SendBatch<u8> = SendBatch::new();
            batch.push(b"ok-0".to_vec(), to, 0);
            batch.push(b"bad".to_vec(), bad, 1);
            batch.push(b"ok-2".to_vec(), to, 2);
            let mut results = Vec::new();
            batch.flush(&tx, backend, |&tag, _len, ok| results.push((tag, ok)));
            assert_eq!(
                results,
                vec![(0, true), (1, false), (2, true)],
                "{backend:?}"
            );
        }
    }
}
