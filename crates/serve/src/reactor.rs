//! Std-only epoll reactor: one thread owns accept, every connection, and —
//! on a router — every upstream link to the nodes.
//!
//! A single thread runs a readiness loop over nonblocking sockets:
//!
//! * **accept** — the listener is registered for read readiness; each burst
//!   accepts until `WouldBlock`.
//! * **reads** — each connection feeds a [`FrameCodec`]; every decoded frame
//!   is dispatched — on a node through [`crate::server::dispatch`], whose
//!   replies are appended to the connection's write buffer directly; on a
//!   router through [`crate::router::Router`], which *parks* the connection
//!   until the forwarded request's reply lands, so replies keep request
//!   order. A parked connection decodes nothing more, and once more bytes
//!   arrive it stops being read until the reply lands.
//! * **writes** — buffered chunks drain when the socket is writable;
//!   `EPOLLOUT` interest exists only while the buffer is non-empty, and read
//!   interest is shed while a connection's write buffer is saturated
//!   (read-backpressure instead of unbounded buffering).
//! * **fan-out** — shard workers publish through [`EventSink`]s: a bounded
//!   per-subscriber budget plus a mailbox the reactor drains between
//!   readiness batches. A full budget drops the subscription, never blocks
//!   the worker. A router's relayed subscription frames draw on the same
//!   budget.
//! * **upstreams** (router) — nonblocking sockets registered edge-triggered
//!   for read and write under tokens of their own; the router drives them
//!   (see `router.rs`), and its forward deadlines are swept on every pass of
//!   the loop, at least once per 100 ms wait tick.
//!
//! There is no libc in this workspace, so `epoll_create1`/`epoll_ctl`/
//! `epoll_wait`, and the `socket`/`connect` pair behind a nonblocking
//! connect, are raw syscall shims (`std::arch::asm!`) for x86_64 and
//! aarch64 Linux — the bench targets. Everywhere else the module is a stub
//! and [`crate::Server::bind`] fails cleanly.

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub use imp::{spawn, EventSink, Mail, Runtime};

#[cfg(all(
    test,
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub(crate) use imp::test_sink;

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
pub use stub::{spawn, EventSink, Mail, Runtime};

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod imp {
    use crate::config::OUT_QUEUE_CAP;
    use crate::fanout::{json_line, OutBytes};
    use crate::protocol::error_reply;
    use crate::router::{Loop, Router};
    use crate::server::{dispatch, request_of, RoleCore, Shared};
    use bfly_common::{Error, FrameCodec, Inbound, IngestChunk, IngestRefusal};
    use std::collections::{HashMap, VecDeque};
    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};
    use std::thread::JoinHandle;
    use std::time::{Duration, Instant};

    /// How long one `epoll_wait` sleeps with nothing ready: the reactor's
    /// shutdown-flag and forward-deadline poll cadence.
    const WAIT_TICK_MS: i32 = 100;
    /// Finalize grace: how long the reactor keeps relaying a router's
    /// draining subscriptions and flushing write buffers after the drain is
    /// complete before giving up on dead peers.
    const FINALIZE_GRACE: Duration = Duration::from_secs(5);
    /// Readiness batch size per `epoll_wait`.
    const MAX_EVENTS: usize = 64;

    /// Raw syscall shims. Numbers differ per architecture; the shim exposes
    /// one portable surface.
    mod sys {
        use std::arch::asm;
        use std::io;
        use std::net::{SocketAddr, TcpStream};
        use std::os::unix::io::FromRawFd;

        #[cfg(target_arch = "x86_64")]
        mod nr {
            pub const CLOSE: i64 = 3;
            pub const SOCKET: i64 = 41;
            pub const CONNECT: i64 = 42;
            pub const EPOLL_WAIT: i64 = 232;
            pub const EPOLL_CTL: i64 = 233;
            pub const EPOLL_CREATE1: i64 = 291;
        }
        #[cfg(target_arch = "aarch64")]
        mod nr {
            pub const EPOLL_CREATE1: i64 = 20;
            pub const EPOLL_CTL: i64 = 21;
            pub const EPOLL_PWAIT: i64 = 22;
            pub const CLOSE: i64 = 57;
            pub const SOCKET: i64 = 198;
            pub const CONNECT: i64 = 203;
        }

        pub const EPOLLIN: u32 = 0x001;
        pub const EPOLLOUT: u32 = 0x004;
        pub const EPOLLERR: u32 = 0x008;
        pub const EPOLLHUP: u32 = 0x010;
        pub const EPOLLET: u32 = 1 << 31;
        pub const CTL_ADD: i64 = 1;
        pub const CTL_DEL: i64 = 2;
        pub const CTL_MOD: i64 = 3;
        const EPOLL_CLOEXEC: i64 = 0x80000;
        const EINTR: i32 = 4;
        const EINPROGRESS: i32 = 115;
        const AF_INET: u16 = 2;
        const AF_INET6: u16 = 10;
        const SOCK_STREAM_NONBLOCK_CLOEXEC: i64 = 1 | 0o4000 | 0o2000000;

        /// The kernel's `struct epoll_event`. Packed on x86_64 only — the
        /// kernel ABI quirk that keeps the 12-byte layout there.
        #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
        #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
        #[derive(Clone, Copy, Default)]
        pub struct EpollEvent {
            pub events: u32,
            pub data: u64,
        }

        #[cfg(target_arch = "x86_64")]
        unsafe fn syscall6(n: i64, a: i64, b: i64, c: i64, d: i64, e: i64, f: i64) -> i64 {
            let ret: i64;
            asm!(
                "syscall",
                inlateout("rax") n => ret,
                in("rdi") a,
                in("rsi") b,
                in("rdx") c,
                in("r10") d,
                in("r8") e,
                in("r9") f,
                out("rcx") _,
                out("r11") _,
                options(nostack),
            );
            ret
        }

        #[cfg(target_arch = "aarch64")]
        unsafe fn syscall6(n: i64, a: i64, b: i64, c: i64, d: i64, e: i64, f: i64) -> i64 {
            let ret: i64;
            asm!(
                "svc #0",
                in("x8") n,
                inlateout("x0") a => ret,
                in("x1") b,
                in("x2") c,
                in("x3") d,
                in("x4") e,
                in("x5") f,
                options(nostack),
            );
            ret
        }

        fn check(ret: i64) -> io::Result<i64> {
            if ret < 0 {
                Err(io::Error::from_raw_os_error(-ret as i32))
            } else {
                Ok(ret)
            }
        }

        /// `epoll_create1(EPOLL_CLOEXEC)`.
        pub fn epoll_create1() -> io::Result<i32> {
            let ret = unsafe { syscall6(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) };
            check(ret).map(|fd| fd as i32)
        }

        /// `epoll_ctl(ep, op, fd, event)`.
        pub fn epoll_ctl(ep: i32, op: i64, fd: i32, mut ev: EpollEvent) -> io::Result<()> {
            // DEL must pass a null event on old kernels; everywhere else the
            // pointer is read before the call returns, so a stack local is
            // fine.
            let ptr = if op == CTL_DEL {
                0i64
            } else {
                &mut ev as *mut EpollEvent as i64
            };
            let ret = unsafe { syscall6(nr::EPOLL_CTL, ep as i64, op, fd as i64, ptr, 0, 0) };
            check(ret).map(|_| ())
        }

        /// `epoll_wait` (x86_64) / `epoll_pwait` with a null sigmask
        /// (aarch64, which has no plain `epoll_wait`). `EINTR` is reported
        /// as zero events — the caller's loop re-enters anyway.
        pub fn epoll_wait(
            ep: i32,
            events: &mut [EpollEvent],
            timeout_ms: i32,
        ) -> io::Result<usize> {
            let ret = unsafe {
                #[cfg(target_arch = "x86_64")]
                {
                    syscall6(
                        nr::EPOLL_WAIT,
                        ep as i64,
                        events.as_mut_ptr() as i64,
                        events.len() as i64,
                        timeout_ms as i64,
                        0,
                        0,
                    )
                }
                #[cfg(target_arch = "aarch64")]
                {
                    syscall6(
                        nr::EPOLL_PWAIT,
                        ep as i64,
                        events.as_mut_ptr() as i64,
                        events.len() as i64,
                        timeout_ms as i64,
                        0, // null sigmask: plain epoll_wait semantics
                        8, // sigsetsize (ignored with a null mask)
                    )
                }
            };
            match check(ret) {
                Ok(n) => Ok(n as usize),
                Err(e) if e.raw_os_error() == Some(EINTR) => Ok(0),
                Err(e) => Err(e),
            }
        }

        /// `close(fd)` — for the epoll fd itself, which is not a std type.
        pub fn close(fd: i32) {
            let _ = unsafe { syscall6(nr::CLOSE, fd as i64, 0, 0, 0, 0, 0) };
        }

        /// A nonblocking `socket` + `connect` to `addr`: the returned stream
        /// is usually still connecting (`EINPROGRESS`); its first write
        /// readiness settles it, and `take_error` then says how.
        pub fn connect_nonblocking(addr: SocketAddr) -> io::Result<TcpStream> {
            // `struct sockaddr_in` / `sockaddr_in6`: family in host order,
            // port and address in network order.
            let mut raw = [0u8; 28];
            let (family, len) = match addr {
                SocketAddr::V4(a) => {
                    raw[4..8].copy_from_slice(&a.ip().octets());
                    (AF_INET, 16)
                }
                SocketAddr::V6(a) => {
                    // Flow info as given, the way std's own connect passes it.
                    raw[4..8].copy_from_slice(&a.flowinfo().to_ne_bytes());
                    raw[8..24].copy_from_slice(&a.ip().octets());
                    raw[24..28].copy_from_slice(&a.scope_id().to_ne_bytes());
                    (AF_INET6, 28)
                }
            };
            raw[0..2].copy_from_slice(&family.to_ne_bytes());
            raw[2..4].copy_from_slice(&addr.port().to_be_bytes());
            // SAFETY: `socket` takes no pointers; the result is checked
            // before use.
            let fd = check(unsafe {
                syscall6(
                    nr::SOCKET,
                    family as i64,
                    SOCK_STREAM_NONBLOCK_CLOEXEC,
                    0,
                    0,
                    0,
                    0,
                )
            })? as i32;
            // SAFETY: `fd` is a fresh socket nothing else owns; the stream
            // closes it on every path from here.
            let stream = unsafe { TcpStream::from_raw_fd(fd) };
            // SAFETY: `raw` outlives the call and holds `len` initialized
            // bytes of a `sockaddr` of `family`; the kernel only reads it.
            let ret =
                unsafe { syscall6(nr::CONNECT, fd as i64, raw.as_ptr() as i64, len, 0, 0, 0) };
            match check(ret) {
                Err(e) if e.raw_os_error() != Some(EINPROGRESS) => Err(e),
                _ => Ok(stream),
            }
        }
    }

    /// Owned epoll instance: closes its fd on drop.
    struct Epoll(i32);

    impl Epoll {
        fn new() -> std::io::Result<Epoll> {
            sys::epoll_create1().map(Epoll)
        }

        fn add(&self, fd: i32, interest: u32, token: u64) -> std::io::Result<()> {
            sys::epoll_ctl(
                self.0,
                sys::CTL_ADD,
                fd,
                sys::EpollEvent {
                    events: interest,
                    data: token,
                },
            )
        }

        fn modify(&self, fd: i32, interest: u32, token: u64) -> std::io::Result<()> {
            sys::epoll_ctl(
                self.0,
                sys::CTL_MOD,
                fd,
                sys::EpollEvent {
                    events: interest,
                    data: token,
                },
            )
        }

        fn del(&self, fd: i32) {
            let _ = sys::epoll_ctl(self.0, sys::CTL_DEL, fd, sys::EpollEvent::default());
        }

        fn wait(&self, events: &mut [sys::EpollEvent], timeout_ms: i32) -> std::io::Result<usize> {
            sys::epoll_wait(self.0, events, timeout_ms)
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            sys::close(self.0);
        }
    }

    /// Cross-thread input to the reactor.
    pub enum Mail {
        /// Fan one publication frame out to connection `conn`.
        Publish {
            /// Target connection id.
            conn: u64,
            /// The serialized frame.
            bytes: OutBytes,
        },
        /// Drain complete (workers joined, registry cleared): flush every
        /// write buffer and exit.
        Finalize,
    }

    /// The reactor's cross-thread face: a mailbox plus a wake pipe. Shard
    /// workers push publications here; [`crate::server::Server::join`]
    /// pushes the final [`Mail::Finalize`].
    pub struct ReactorShared {
        mailbox: Mutex<VecDeque<Mail>>,
        /// Write side of the wake pipe (nonblocking; a full pipe already
        /// means a wake is pending).
        wake_tx: UnixStream,
    }

    impl ReactorShared {
        /// Enqueue one mail and wake the loop.
        pub fn push(&self, mail: Mail) {
            self.mailbox
                .lock()
                .expect("reactor mailbox poisoned")
                .push_back(mail);
            let _ = (&self.wake_tx).write(&[1]);
        }

        fn drain(&self) -> Vec<Mail> {
            let mut box_ = self.mailbox.lock().expect("reactor mailbox poisoned");
            box_.drain(..).collect()
        }

        /// The oldest publication mailed and not yet taken — tests stand in
        /// for the loop.
        #[cfg(test)]
        pub(crate) fn try_recv(&self) -> Result<OutBytes, ()> {
            match self.mailbox.lock().expect("mailbox").pop_front() {
                Some(Mail::Publish { bytes, .. }) => Ok(bytes),
                _ => Err(()),
            }
        }
    }

    /// A subscriber's sink: a bounded count of in-flight publication frames
    /// for one connection. `try_send` reserves budget and mails the frame;
    /// the budget is released only when the frame has fully reached the
    /// socket — so a stalled peer exhausts its budget and is dropped by the
    /// registry.
    pub struct EventSink {
        conn: u64,
        shared: Arc<ReactorShared>,
        pending: AtomicUsize,
        cap: usize,
        closed: AtomicBool,
    }

    impl EventSink {
        /// Try to enqueue one publication frame; `Err` when the connection
        /// is gone or its event budget is exhausted.
        pub(crate) fn try_send(&self, bytes: OutBytes) -> Result<(), ()> {
            if !self.reserve() {
                return Err(());
            }
            self.shared.push(Mail::Publish {
                conn: self.conn,
                bytes,
            });
            Ok(())
        }

        /// Take one frame of budget; `false` when the connection is gone or
        /// the budget is exhausted.
        fn reserve(&self) -> bool {
            if self.closed.load(Ordering::Acquire) {
                return false;
            }
            let mut p = self.pending.load(Ordering::Relaxed);
            loop {
                if p >= self.cap {
                    return false;
                }
                match self.pending.compare_exchange_weak(
                    p,
                    p + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => return true,
                    Err(seen) => p = seen,
                }
            }
        }

        /// One budgeted frame fully reached the socket: release its budget.
        fn complete(&self) {
            self.pending.fetch_sub(1, Ordering::Relaxed);
        }

        fn close(&self) {
            self.closed.store(true, Ordering::Release);
        }
    }

    /// A sink over a mailbox no loop drains: what fan-out tests publish
    /// into and read back with [`ReactorShared::try_recv`].
    #[cfg(test)]
    pub(crate) fn test_sink(cap: usize) -> (Arc<EventSink>, Arc<ReactorShared>) {
        let (_rx, wake_tx) = UnixStream::pair().unwrap();
        wake_tx.set_nonblocking(true).unwrap();
        let shared = Arc::new(ReactorShared {
            mailbox: Mutex::new(VecDeque::new()),
            wake_tx,
        });
        let sink = EventSink {
            conn: 9,
            shared: shared.clone(),
            pending: AtomicUsize::new(0),
            cap,
            closed: AtomicBool::new(false),
        };
        (Arc::new(sink), shared)
    }

    /// A live reactor: join the thread after pushing [`Mail::Finalize`].
    pub struct Runtime {
        /// The reactor thread.
        pub thread: JoinHandle<()>,
        /// Mailbox/wake handle.
        pub shared: Arc<ReactorShared>,
    }

    /// Spawn the reactor thread over an already-bound listener.
    pub fn spawn(listener: TcpListener, srv: Arc<Shared>) -> std::io::Result<Runtime> {
        listener.set_nonblocking(true)?;
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        let shared = Arc::new(ReactorShared {
            mailbox: Mutex::new(VecDeque::new()),
            wake_tx,
        });
        let ep = Epoll::new()?;
        ep.add(listener.as_raw_fd(), sys::EPOLLIN, TOKEN_LISTENER)?;
        ep.add(wake_rx.as_raw_fd(), sys::EPOLLIN, TOKEN_WAKE)?;
        srv.reactor.fds.store(2, Ordering::Relaxed);
        let router = matches!(srv.role, RoleCore::Router).then(|| Router::new(srv.clone()));
        let thread_shared = shared.clone();
        let thread = std::thread::Builder::new()
            .name("bfly-reactor".into())
            .spawn(move || {
                Reactor {
                    ep,
                    listener: Some(listener),
                    wake_rx,
                    conns: HashMap::new(),
                    next_conn: 0,
                    router,
                    touched: Vec::new(),
                    srv,
                    shared: thread_shared,
                    finalize_at: None,
                }
                .run()
            })
            .expect("spawn reactor thread");
        Ok(Runtime { thread, shared })
    }

    const TOKEN_LISTENER: u64 = u64::MAX;
    const TOKEN_WAKE: u64 = u64::MAX - 1;
    /// Set in the token of a router's upstream link (the rest is its id);
    /// connection tokens are plain connection ids.
    const UPSTREAM: u64 = 1 << 62;

    /// One buffered outbound chunk; `event` marks frames that hold
    /// [`EventSink`] budget.
    struct WChunk {
        bytes: OutBytes,
        off: usize,
        event: bool,
    }

    impl WChunk {
        fn reply(bytes: OutBytes) -> WChunk {
            WChunk {
                bytes,
                off: 0,
                event: false,
            }
        }
    }

    /// Per-connection state machine.
    struct Conn {
        stream: TcpStream,
        codec: FrameCodec,
        wbuf: VecDeque<WChunk>,
        sink: Arc<EventSink>,
        /// Epoll interest currently registered for this fd.
        interest: u32,
        /// A forwarded request awaits its reply: decode nothing more until
        /// it lands.
        parked: bool,
        /// More bytes arrived while parked: read interest is dropped until
        /// the reply lands, so a parked peer's pipeline stays in its socket.
        stalled: bool,
        /// The peer finished sending: close once every buffered request is
        /// answered.
        eof: bool,
        /// No more reads; flush `wbuf`, then close.
        closing: bool,
    }

    impl Conn {
        /// Write buffered chunks until the socket pushes back, releasing
        /// the budget of every event chunk fully written; `false` when the
        /// peer is gone.
        fn write_out(&mut self, partial_writes: &AtomicU64) -> bool {
            while let Some(chunk) = self.wbuf.front_mut() {
                match self.stream.write(&chunk.bytes[chunk.off..]) {
                    Ok(0) => return false,
                    Ok(n) => {
                        chunk.off += n;
                        if chunk.off == chunk.bytes.len() {
                            let done = self.wbuf.pop_front().expect("front just written");
                            if done.event {
                                self.sink.complete();
                            }
                        } else {
                            partial_writes.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        partial_writes.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => return false,
                }
            }
            true
        }

        /// Answer an ingest whose fields break a rule, as any refused
        /// request is answered.
        fn refuse(&mut self, refusal: IngestRefusal) {
            let reply = error_reply(&Error::from(refusal).to_string());
            self.wbuf.push_back(WChunk::reply(json_line(&reply)));
        }
    }

    struct Reactor {
        ep: Epoll,
        listener: Option<TcpListener>,
        wake_rx: UnixStream,
        conns: HashMap<u64, Conn>,
        next_conn: u64,
        /// Forwarding state, on a router.
        router: Option<Router>,
        /// Connections the router answered or relayed to since the last
        /// pass: decode their next requests and write.
        touched: Vec<u64>,
        srv: Arc<Shared>,
        shared: Arc<ReactorShared>,
        /// Set when [`Mail::Finalize`] arrives: flush deadline.
        finalize_at: Option<Instant>,
    }

    /// The reactor as the router sees it: its epoll instance and client
    /// connections, borrowed for one call.
    struct Io<'a> {
        ep: &'a Epoll,
        conns: &'a mut HashMap<u64, Conn>,
        touched: &'a mut Vec<u64>,
        partial_writes: &'a AtomicU64,
    }

    impl Io<'_> {
        fn touch(&mut self, conn: u64) {
            if self.touched.last() != Some(&conn) {
                self.touched.push(conn);
            }
        }
    }

    impl Loop for Io<'_> {
        fn connect(&mut self, addr: SocketAddr, id: u64) -> std::io::Result<TcpStream> {
            let stream = sys::connect_nonblocking(addr)?;
            // Small pipelined requests must not wait out Nagle.
            stream.set_nodelay(true)?;
            self.ep.add(
                stream.as_raw_fd(),
                sys::EPOLLIN | sys::EPOLLOUT | sys::EPOLLET,
                UPSTREAM | id,
            )?;
            Ok(stream)
        }

        fn answer(&mut self, conn: u64, bytes: OutBytes) {
            if let Some(c) = self.conns.get_mut(&conn) {
                c.wbuf.push_back(WChunk::reply(bytes));
                c.parked = false;
                c.stalled = false;
                self.touch(conn);
            }
        }

        fn relay(&mut self, conn: u64, bytes: &[u8]) -> bool {
            let Some(c) = self.conns.get_mut(&conn) else {
                return false;
            };
            if c.closing {
                return false;
            }
            // A burst (a catch-up replay) can outrun the budget before the
            // loop gets to write: write what the socket takes, then retry.
            let room = c.sink.reserve() || (c.write_out(self.partial_writes) && c.sink.reserve());
            if !room {
                return false;
            }
            c.wbuf.push_back(WChunk {
                bytes: Arc::from(bytes),
                off: 0,
                event: true,
            });
            self.touch(conn);
            true
        }
    }

    impl Reactor {
        fn run(mut self) {
            let mut events = [sys::EpollEvent::default(); MAX_EVENTS];
            loop {
                self.process_mailbox();
                if self.srv.shutdown.load(Ordering::SeqCst) {
                    self.drop_listener();
                }
                // After Finalize every connection closes — once a router's
                // draining subscriptions have ridden every node's final
                // releases and `closed` events through.
                if self.finalize_at.is_some() && self.router.as_ref().is_none_or(Router::drained) {
                    let ids: Vec<u64> = self.conns.keys().copied().collect();
                    for id in ids {
                        self.start_closing(id);
                    }
                }
                self.reap_closed();
                if let Some(deadline) = self.finalize_at {
                    if self.conns.is_empty() || Instant::now() >= deadline {
                        break;
                    }
                }
                let n = match self.ep.wait(&mut events, WAIT_TICK_MS) {
                    Ok(n) => n,
                    Err(_) => break,
                };
                if n > 0 {
                    self.srv.reactor.wakeups.fetch_add(1, Ordering::Relaxed);
                }
                for ev in &events[..n] {
                    // Copy out of the (possibly packed) kernel struct.
                    let token = ev.data;
                    let ready = ev.events;
                    match token {
                        TOKEN_LISTENER => self.accept_burst(),
                        TOKEN_WAKE => self.drain_wake(),
                        up if up & UPSTREAM != 0 => {
                            self.with_router(|r, io| r.on_ready(up ^ UPSTREAM, io))
                        }
                        conn_id => {
                            if ready & (sys::EPOLLOUT | sys::EPOLLERR | sys::EPOLLHUP) != 0 {
                                self.conn_write(conn_id);
                            }
                            let gone = ready & (sys::EPOLLERR | sys::EPOLLHUP) != 0;
                            if gone || ready & sys::EPOLLIN != 0 {
                                self.conn_read(conn_id, gone);
                            }
                        }
                    }
                }
                self.with_router(Router::expire);
                self.pump_touched();
            }
            self.srv.reactor.fds.store(0, Ordering::Relaxed);
        }

        /// Run one router step against the connections.
        fn with_router(&mut self, step: impl FnOnce(&mut Router, &mut dyn Loop)) {
            if let Some(router) = self.router.as_mut() {
                step(
                    router,
                    &mut Io {
                        ep: &self.ep,
                        conns: &mut self.conns,
                        touched: &mut self.touched,
                        partial_writes: &self.srv.reactor.partial_writes,
                    },
                );
            }
        }

        /// Decode and write for every connection the router answered or
        /// relayed to.
        fn pump_touched(&mut self) {
            while let Some(id) = self.touched.pop() {
                self.pump(id);
                self.conn_write(id);
            }
        }

        fn drop_listener(&mut self) {
            if let Some(listener) = self.listener.take() {
                self.ep.del(listener.as_raw_fd());
                self.srv.reactor.fds.fetch_sub(1, Ordering::Relaxed);
            }
        }

        fn accept_burst(&mut self) {
            loop {
                let Some(listener) = self.listener.as_ref() else {
                    return;
                };
                match listener.accept() {
                    Ok((stream, _)) => {
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        // Replies are small and written as they come: with
                        // Nagle on, a pipelining client's second reply
                        // waits out the peer's delayed ACK of the first.
                        let _ = stream.set_nodelay(true);
                        let conn_id = self.next_conn;
                        self.next_conn += 1;
                        let sink = Arc::new(EventSink {
                            conn: conn_id,
                            shared: self.shared.clone(),
                            pending: AtomicUsize::new(0),
                            cap: OUT_QUEUE_CAP,
                            closed: AtomicBool::new(false),
                        });
                        let conn = Conn {
                            stream,
                            codec: FrameCodec::with_max(self.srv.cfg.max_frame_bytes),
                            wbuf: VecDeque::new(),
                            sink,
                            interest: sys::EPOLLIN,
                            parked: false,
                            stalled: false,
                            eof: false,
                            closing: false,
                        };
                        if self
                            .ep
                            .add(conn.stream.as_raw_fd(), sys::EPOLLIN, conn_id)
                            .is_err()
                        {
                            continue;
                        }
                        self.srv
                            .reactor
                            .accepted_conns
                            .fetch_add(1, Ordering::Relaxed);
                        self.srv.reactor.fds.fetch_add(1, Ordering::Relaxed);
                        self.conns.insert(conn_id, conn);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => return,
                }
            }
        }

        fn drain_wake(&mut self) {
            let mut sink = [0u8; 64];
            while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
        }

        /// Deliver mailed publications into connection write buffers.
        fn process_mailbox(&mut self) {
            let mails = self.shared.drain();
            let mut touched = Vec::new();
            for mail in mails {
                match mail {
                    Mail::Publish { conn, bytes } => {
                        if let Some(c) = self.conns.get_mut(&conn) {
                            c.wbuf.push_back(WChunk {
                                bytes,
                                off: 0,
                                event: true,
                            });
                            if !touched.contains(&conn) {
                                touched.push(conn);
                            }
                        }
                        // Connection already gone: the frame is dropped, and
                        // its sink is closed so the registry sheds the
                        // subscription on the next publish.
                    }
                    Mail::Finalize => {
                        self.finalize_at = Some(Instant::now() + FINALIZE_GRACE);
                    }
                }
            }
            for id in touched {
                self.conn_write(id);
            }
        }

        /// Stop reading `id`: unsubscribe, refuse new events, flush what is
        /// buffered, then close.
        fn start_closing(&mut self, id: u64) {
            if let Some(conn) = self.conns.get_mut(&id) {
                if !conn.closing {
                    conn.closing = true;
                    conn.sink.close();
                    self.srv.registry.unsubscribe_conn(id);
                    if let Some(router) = self.router.as_mut() {
                        router.forget(id);
                    }
                }
                self.update_interest(id);
            }
        }

        /// Re-register the fd's epoll interest from its state: read interest
        /// unless closing, finished, stalled, or write-saturated
        /// (read-backpressure), write interest while anything is buffered.
        fn update_interest(&mut self, id: u64) {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            let mut want = 0;
            if !(conn.closing || conn.eof || conn.stalled) && conn.wbuf.len() <= OUT_QUEUE_CAP {
                want |= sys::EPOLLIN;
            }
            if !conn.wbuf.is_empty() {
                want |= sys::EPOLLOUT;
            }
            if want != conn.interest {
                let _ = self.ep.modify(conn.stream.as_raw_fd(), want, id);
                conn.interest = want;
            }
        }

        /// Read burst: consume socket bytes and dispatch the frames they
        /// complete, until the socket is dry or the connection parks.
        /// `gone`: the socket reported an error or hang-up.
        fn conn_read(&mut self, id: u64, gone: bool) {
            if let Some(conn) = self.conns.get_mut(&id) {
                if conn.parked && gone {
                    // Error or hang-up, which no interest mask silences: no
                    // one is left to answer.
                    return self.teardown(id);
                }
                // Readable while parked: stop asking until the reply lands
                // (dropping the interest only now saves two `epoll_ctl`s per
                // forward for a client that waits for its replies).
                conn.stalled = conn.parked;
            }
            let mut buf = [0u8; 4096];
            loop {
                let Some(conn) = self.conns.get_mut(&id) else {
                    return;
                };
                if conn.closing || conn.eof || conn.parked {
                    break;
                }
                match conn.stream.read(&mut buf) {
                    Ok(0) => conn.eof = true,
                    Ok(n) => conn.codec.extend(&buf[..n]),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.teardown(id);
                        return;
                    }
                }
                self.pump(id);
            }
            self.conn_write(id);
        }

        /// Dispatch every complete buffered frame until the codec runs dry
        /// or a forwarded request parks the connection; a finished peer
        /// with nothing left to answer starts closing.
        fn pump(&mut self, id: u64) {
            loop {
                let Some(conn) = self.conns.get_mut(&id) else {
                    return;
                };
                if conn.parked || conn.closing {
                    return;
                }
                match conn.codec.next_inbound() {
                    Ok(Some(inbound)) => self.handle_frame(id, inbound),
                    Ok(None) => {
                        if conn.eof {
                            self.start_closing(id);
                        }
                        return;
                    }
                    Err(Error::Parse(msg)) => {
                        // Malformed frames are recoverable (the codec stays
                        // aligned); oversized ones end the connection after
                        // the reply.
                        conn.wbuf
                            .push_back(WChunk::reply(json_line(&error_reply(&msg))));
                        if msg.contains("oversized") {
                            self.start_closing(id);
                            return;
                        }
                    }
                    Err(_) => {
                        self.teardown(id);
                        return;
                    }
                }
            }
        }

        /// Handle one request: a node answers in place; a router parks the
        /// connection until it answers (at once, or when a node replies).
        fn handle_frame(&mut self, id: u64, inbound: Inbound) {
            let conn = self.conns.get_mut(&id).expect("dispatching a live conn");
            let frame = match inbound {
                Inbound::Ingest { stream, chunk } => return self.handle_ingest(id, stream, chunk),
                Inbound::Refused(refusal) => return conn.refuse(refusal),
                Inbound::Frame(frame) => frame,
            };
            let request = match request_of(frame) {
                Ok(request) => request,
                Err(reply) => {
                    conn.wbuf.push_back(WChunk::reply(json_line(&reply)));
                    return;
                }
            };
            match &self.srv.role {
                RoleCore::Node(node) => {
                    let Conn { wbuf, sink, .. } = conn;
                    dispatch(id, request, &self.srv, node, sink, &mut |bytes| {
                        wbuf.push_back(WChunk::reply(bytes))
                    });
                }
                RoleCore::Router => {
                    conn.parked = true;
                    self.with_router(|r, io| r.handle(id, request, io));
                }
            }
        }

        /// Where both ingest encodings meet: the chunk goes to the stream's
        /// owner as decoded, never through [`crate::protocol::Request`].
        /// The empty key, which a binary frame can spell and no other op
        /// can name, is refused as an NDJSON ingest's is.
        fn handle_ingest(&mut self, id: u64, stream: String, chunk: IngestChunk) {
            let conn = self.conns.get_mut(&id).expect("dispatching a live conn");
            if let Err(refusal) = IngestChunk::stream_key(Some(&stream)) {
                return conn.refuse(refusal);
            }
            match &self.srv.role {
                RoleCore::Node(node) => {
                    let reply = node.ingest(&self.srv.cfg, &stream, chunk);
                    conn.wbuf.push_back(WChunk::reply(json_line(&reply)));
                }
                RoleCore::Router => {
                    conn.parked = true;
                    let req = chunk.encode(&stream);
                    self.with_router(|r, io| r.ingest(id, stream, &req, io));
                }
            }
        }

        /// Write burst: drain the connection's buffered chunks until the
        /// socket pushes back.
        fn conn_write(&mut self, id: u64) {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            let alive = conn.write_out(&self.srv.reactor.partial_writes);
            if !alive || (conn.closing && conn.wbuf.is_empty()) {
                self.teardown(id);
            } else {
                self.update_interest(id);
            }
        }

        /// Remove a connection entirely: deregister, unsubscribe, close.
        fn teardown(&mut self, id: u64) {
            if let Some(conn) = self.conns.remove(&id) {
                self.ep.del(conn.stream.as_raw_fd());
                conn.sink.close();
                self.srv.registry.unsubscribe_conn(id);
                if let Some(router) = self.router.as_mut() {
                    router.forget(id);
                }
                self.srv.reactor.fds.fetch_sub(1, Ordering::Relaxed);
            }
        }

        /// Sweep connections that finished closing outside an event (e.g.
        /// marked by Finalize with an already-empty buffer).
        fn reap_closed(&mut self) {
            let done: Vec<u64> = self
                .conns
                .iter()
                .filter(|(_, c)| c.closing && c.wbuf.is_empty())
                .map(|(id, _)| *id)
                .collect();
            for id in done {
                self.teardown(id);
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn epoll_observes_pipe_readiness() {
            let ep = Epoll::new().unwrap();
            let (a, b) = UnixStream::pair().unwrap();
            a.set_nonblocking(true).unwrap();
            b.set_nonblocking(true).unwrap();
            ep.add(a.as_raw_fd(), sys::EPOLLIN, 7).unwrap();

            let mut events = [sys::EpollEvent::default(); 4];
            // Nothing written yet: a zero-timeout wait sees nothing.
            assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);

            (&b).write_all(&[1]).unwrap();
            let n = ep.wait(&mut events, 1000).unwrap();
            assert_eq!(n, 1);
            let data = events[0].data;
            let ready = events[0].events;
            assert_eq!(data, 7);
            assert_ne!(ready & sys::EPOLLIN, 0);

            // Level-triggered: still ready until drained.
            assert_eq!(ep.wait(&mut events, 0).unwrap(), 1);
            let mut buf = [0u8; 8];
            let _ = (&a).read(&mut buf).unwrap();
            assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
        }

        #[test]
        fn epoll_mod_and_del_change_interest() {
            let ep = Epoll::new().unwrap();
            let (a, b) = UnixStream::pair().unwrap();
            a.set_nonblocking(true).unwrap();
            ep.add(a.as_raw_fd(), sys::EPOLLIN, 1).unwrap();
            (&b).write_all(&[1]).unwrap();
            let mut events = [sys::EpollEvent::default(); 4];
            assert_eq!(ep.wait(&mut events, 100).unwrap(), 1);

            // Drop read interest: the pending byte no longer wakes us.
            ep.modify(a.as_raw_fd(), 0, 1).unwrap();
            assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);

            ep.modify(a.as_raw_fd(), sys::EPOLLIN, 1).unwrap();
            assert_eq!(ep.wait(&mut events, 0).unwrap(), 1);

            ep.del(a.as_raw_fd());
            assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
        }

        #[test]
        fn nonblocking_connect_settles_on_write_readiness() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let ep = Epoll::new().unwrap();
            let up = sys::connect_nonblocking(listener.local_addr().unwrap()).unwrap();
            ep.add(up.as_raw_fd(), sys::EPOLLOUT | sys::EPOLLET, 3)
                .unwrap();
            let mut events = [sys::EpollEvent::default(); 4];
            assert_eq!(ep.wait(&mut events, 1000).unwrap(), 1);
            assert!(up.take_error().unwrap().is_none());
            let (mut peer, _) = listener.accept().unwrap();
            (&up).write_all(b"hi").unwrap();
            let mut buf = [0u8; 2];
            peer.read_exact(&mut buf).unwrap();
            assert_eq!(&buf, b"hi");

            // Nothing listens here any more: the refusal arrives as an
            // error readiness (or at once), never as a hang.
            let gone = listener.local_addr().unwrap();
            drop((listener, peer, up));
            if let Ok(up) = sys::connect_nonblocking(gone) {
                ep.add(up.as_raw_fd(), sys::EPOLLOUT | sys::EPOLLET, 4)
                    .unwrap();
                assert_eq!(ep.wait(&mut events, 1000).unwrap(), 1);
                assert!(up.take_error().unwrap().is_some());
            }
        }

        #[test]
        fn event_sink_budget_bounds_inflight_frames() {
            let (sink, shared) = test_sink(2);
            let bytes: OutBytes = Arc::from(b"x".to_vec().into_boxed_slice());
            assert!(sink.try_send(bytes.clone()).is_ok());
            assert!(sink.try_send(bytes.clone()).is_ok());
            assert!(sink.try_send(bytes.clone()).is_err(), "budget must cap");
            assert_eq!(shared.drain().len(), 2, "only reserved sends are mailed");
        }

        #[test]
        fn event_sink_budget_releases_on_complete_and_close_is_final() {
            let (sink, shared) = test_sink(1);
            let bytes: OutBytes = Arc::from(b"x".to_vec().into_boxed_slice());
            assert!(sink.try_send(bytes.clone()).is_ok());
            assert!(sink.try_send(bytes.clone()).is_err());
            sink.complete();
            assert!(sink.try_send(bytes.clone()).is_ok());
            sink.close();
            sink.complete();
            assert!(sink.try_send(bytes).is_err(), "closed sink must refuse");
            assert_eq!(
                shared
                    .drain()
                    .iter()
                    .filter(|m| matches!(m, Mail::Publish { conn: 9, .. }))
                    .count(),
                2
            );
        }
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod stub {
    use crate::fanout::OutBytes;
    use crate::server::Shared;
    use std::net::TcpListener;
    use std::sync::Arc;
    use std::thread::JoinHandle;

    /// Unsupported-platform stand-in; see the module docs.
    pub enum Mail {
        /// Matches the real variant for call sites.
        Publish {
            /// Target connection id.
            conn: u64,
            /// The serialized frame.
            bytes: OutBytes,
        },
        /// Matches the real variant for call sites.
        Finalize,
    }

    /// Unsupported-platform stand-in: never constructed at runtime
    /// ([`spawn`] fails first).
    pub struct ReactorShared;

    impl ReactorShared {
        /// No-op on the stub.
        pub fn push(&self, _mail: Mail) {}
    }

    /// Unsupported-platform stand-in; never constructed.
    pub struct EventSink;

    impl EventSink {
        pub(crate) fn try_send(&self, _bytes: OutBytes) -> Result<(), ()> {
            Err(())
        }
    }

    /// Unsupported-platform stand-in; never constructed.
    pub struct Runtime {
        /// Never spawned.
        pub thread: JoinHandle<()>,
        /// Never constructed.
        pub shared: Arc<ReactorShared>,
    }

    /// Always fails: the reactor needs the Linux epoll shims.
    pub fn spawn(_listener: TcpListener, _srv: Arc<Shared>) -> std::io::Result<Runtime> {
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "the serve reactor is not supported on this platform",
        ))
    }
}
