//! The daemon's event core: a single-threaded readiness poll loop.
//!
//! PR 9's daemon spent one OS thread per connection; this module replaces
//! that with one reactor thread multiplexing every socket through
//! `poll(2)`:
//!
//! - the listener and every connection sit in one ready set — an idle
//!   daemon makes **zero** spurious wakeups (the poll timeout is
//!   infinite; `serve.reactor.wakeups` counts every return so tests can
//!   pin that);
//! - reads are nonblocking and feed an incremental [`FrameAssembler`]
//!   per connection, so slow-loris byte-at-a-time senders cost a buffer,
//!   not a thread;
//! - execution never runs on the event thread: whole-frame jobs and
//!   stream steps are dispatched to the shared [`sw_pool::ThreadPool`]
//!   via [`ThreadPool::spawn`], whose `jobs` workers execute up to `jobs`
//!   of them at once, and completions return through a self-pipe the
//!   pool workers write to;
//! - writes go through bounded per-connection queues; a connection whose
//!   write queue or stream backlog grows past the caps stops being
//!   polled for reads (backpressure) and is killed outright if it keeps
//!   growing past the hard limit;
//! - consecutive small whole-frame jobs from *different* idle
//!   connections are batched into one pool hand-off
//!   (`serve.reactor.batched_jobs`), so sub-window frames amortize
//!   dispatch.
//!
//! The v2 streaming protocol is driven entirely from here: `StreamOpen`
//! admits the job on a dedicated admission lane (admission may stall for
//! seconds — never on the event thread, and never on a pool worker: a
//! stream holds its budget until it *completes*, and completing needs
//! pool workers, so stalled opens parked on the pool would starve the
//! very work that frees the capacity they wait for), `RowChunk`s queue
//! on the connection and feed the
//! job's [`StreamRun`] in dispatched steps, each step completion emits
//! a `RowAck` (acks mean *processed*, which is the client's flow-control
//! credit), and the final step emits `JobDone` with the same
//! [`JobResponse`] a whole-frame job would have produced.
//!
//! [`ThreadPool::spawn`]: sw_pool::ThreadPool::spawn

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use crate::api::{JobError, JobResponse, RowAck, RowChunk, StreamOpen};
use crate::daemon::{metrics_text, run_job, Shared};
use crate::exec::StreamRun;
use crate::tenant::AdmissionGuard;
use crate::wire::{write_frame_versioned, FrameAssembler, MsgKind, MAX_FRAME_BYTES, VERSION};
use sw_telemetry::metrics::exponential_bounds;

/// Write-queue depth (bytes) past which a connection stops being polled
/// for reads: the peer is not draining its responses, so it does not get
/// to submit more work.
const WRITE_PAUSE_BYTES: usize = 1 << 20;

/// Stream backlog (bytes of queued, unprocessed rows) past which reads
/// pause. Combined with the client-side ack window this bounds daemon
/// memory per streaming connection.
const STREAM_PAUSE_BYTES: usize = 8 << 20;

/// Queued whole-frame jobs per connection past which reads pause.
const JOB_PAUSE_DEPTH: usize = 64;

/// Hard kill threshold for one connection's write queue. Unreachable
/// while backpressure works (one maximal response plus slack); a queue
/// this deep means the accounting itself is broken.
const WRITE_KILL_BYTES: usize = MAX_FRAME_BYTES as usize + (16 << 20);

/// Whole-frame job payloads at or under this size are eligible for
/// cross-connection batch dispatch (one pool hand-off runs several).
const SMALL_JOB_BYTES: usize = 16 << 10;

/// How long a draining reactor waits for in-flight pool work and
/// unflushed responses before force-closing everything.
const DRAIN_DEADLINE: Duration = Duration::from_secs(15);

/// Poll granularity while draining (the only mode with a finite timeout).
const DRAIN_TICK_MS: i32 = 100;

/// Minimal `poll(2)` FFI. `std` offers no readiness primitive, and the
/// workspace is offline (no `libc`/`mio`), so the one syscall is bound
/// directly; `std` already links the C runtime on every supported target.
#[allow(unsafe_code)]
mod sys {
    use std::os::raw::{c_int, c_ulong};

    /// One entry of the `poll(2)` ready set (matches `struct pollfd`).
    #[repr(C)]
    #[derive(Clone, Copy, Debug)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    /// Block until an fd is ready or `timeout_ms` passes (`-1` = forever),
    /// retrying on `EINTR`. Returns the number of ready entries.
    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> std::io::Result<usize> {
        loop {
            // Safety: `fds` is a valid, exclusively borrowed slice of
            // `#[repr(C)]` pollfd records for the duration of the call.
            let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = std::io::Error::last_os_error();
            if err.kind() == std::io::ErrorKind::Interrupted {
                continue;
            }
            return Err(err);
        }
    }
}

/// One live client socket, transport-erased and nonblocking.
pub(crate) enum Conn {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Conn {
    fn raw_fd(&self) -> i32 {
        match self {
            Conn::Tcp(s) => s.as_raw_fd(),
            Conn::Unix(s) => s.as_raw_fd(),
        }
    }

    fn shutdown(&self) {
        let _ = match self {
            Conn::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            Conn::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// The nonblocking listener, transport-erased.
pub(crate) enum AcceptSource {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl AcceptSource {
    fn raw_fd(&self) -> i32 {
        match self {
            AcceptSource::Tcp(l) => l.as_raw_fd(),
            AcceptSource::Unix(l) => l.as_raw_fd(),
        }
    }

    /// One nonblocking accept attempt.
    fn poll_accept(&self) -> io::Result<Option<Conn>> {
        match self {
            AcceptSource::Tcp(l) => match l.accept() {
                Ok((s, _)) => {
                    // The protocol is write-write-read per job; leaving
                    // Nagle on costs a delayed-ACK stall (~40 ms) per
                    // round trip.
                    s.set_nodelay(true).ok();
                    s.set_nonblocking(true)?;
                    Ok(Some(Conn::Tcp(s)))
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
            AcceptSource::Unix(l) => match l.accept() {
                Ok((s, _)) => {
                    s.set_nonblocking(true)?;
                    Ok(Some(Conn::Unix(s)))
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
        }
    }
}

/// Wakes the reactor's `poll` from any thread by writing one byte to a
/// self-pipe. Cloneable and lock-free; a full pipe means a wake is
/// already pending, so the dropped write is harmless.
#[derive(Clone)]
pub(crate) struct Waker {
    tx: Arc<UnixStream>,
}

impl Waker {
    pub(crate) fn wake(&self) {
        let _ = (&*self.tx).write(&[1]);
    }
}

/// Build the self-pipe: the writer side for [`Waker`]s, the reader side
/// for the reactor's ready set.
pub(crate) fn wake_pair() -> io::Result<(Waker, UnixStream)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((Waker { tx: Arc::new(tx) }, rx))
}

/// What a dispatched pool task reports back to the event thread.
enum Completion {
    /// A whole-frame job finished (one per job, batched or not).
    Job {
        token: u64,
        result: Result<JobResponse, JobError>,
    },
    /// `StreamOpen` admission + setup finished.
    StreamOpened {
        token: u64,
        result: Result<(Box<StreamRun>, AdmissionGuard, u64, bool), JobError>,
    },
    /// A stream step processed chunks (not yet the last row).
    StreamStep {
        token: u64,
        run: Box<StreamRun>,
        last_seq: u32,
        rows_done: u64,
    },
    /// The stream consumed its last row and produced the job response.
    StreamDone {
        token: u64,
        last_seq: u32,
        rows_done: u64,
        result: Result<JobResponse, JobError>,
    },
    /// A stream step failed; the stream (and connection) are dead.
    StreamFailed { token: u64, err: JobError },
}

/// The completion channel: pool tasks push, the event thread drains.
struct CompletionQueue {
    queue: Mutex<Vec<Completion>>,
    waker: Waker,
}

impl CompletionQueue {
    fn push(&self, c: Completion) {
        self.queue.lock().expect("completion queue").push(c);
        self.waker.wake();
    }

    fn drain(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.queue.lock().expect("completion queue"))
    }
}

/// Server-side state of one streaming job.
struct StreamConn {
    /// The in-flight run; `None` while a dispatched pool task owns it or
    /// before `StreamOpened` lands.
    run: Option<Box<StreamRun>>,
    /// Admission guard held for the stream's whole life; dropping it —
    /// on completion, error, or connection death — releases the budget.
    hold: Option<AdmissionGuard>,
    /// Admission wait, echoed into the final response.
    queue_ns: u64,
    /// Whether admission escalated the threshold (degrade policy).
    degraded: bool,
    /// A pool task (open, step, or finish) is outstanding.
    busy: bool,
    /// Declared geometry from the `StreamOpen` header.
    width: u32,
    height: u32,
    /// Next expected chunk sequence number.
    recv_seq: u32,
    /// Rows received over the wire so far.
    rows_received: u64,
    /// Chunks waiting for the run to come back from the pool.
    pending: VecDeque<(u32, Vec<u8>)>,
    pending_bytes: usize,
}

impl StreamConn {
    fn new(width: u32, height: u32) -> Self {
        Self {
            run: None,
            hold: None,
            queue_ns: 0,
            degraded: false,
            busy: true, // the open task is in flight
            width,
            height,
            recv_seq: 0,
            rows_received: 0,
            pending: VecDeque::new(),
            pending_bytes: 0,
        }
    }
}

/// Per-connection reactor state.
struct Connection {
    conn: Conn,
    asm: FrameAssembler,
    /// Protocol version of the last frame the peer sent; responses echo
    /// it, which is the entire version negotiation — a v1 client never
    /// sees a v2 byte.
    peer_version: u16,
    /// Encoded response frames awaiting the socket.
    wq: VecDeque<Vec<u8>>,
    /// Progress into the front `wq` buffer.
    wq_off: usize,
    wq_bytes: usize,
    /// Whole-frame job payloads awaiting dispatch (served in order).
    pending_jobs: VecDeque<Vec<u8>>,
    /// A whole-frame job from this connection is on the pool.
    job_busy: bool,
    stream: Option<StreamConn>,
    /// Peer can send nothing more (EOF or protocol error); flush and
    /// close once in-flight work completes.
    eof: bool,
    /// Flush the write queue, then close.
    closing: bool,
    dead: bool,
}

impl Connection {
    fn new(conn: Conn) -> Self {
        Self {
            conn,
            asm: FrameAssembler::new(),
            peer_version: VERSION,
            wq: VecDeque::new(),
            wq_off: 0,
            wq_bytes: 0,
            pending_jobs: VecDeque::new(),
            job_busy: false,
            stream: None,
            eof: false,
            closing: false,
            dead: false,
        }
    }

    fn busy(&self) -> bool {
        self.job_busy || self.stream.as_ref().is_some_and(|s| s.busy)
    }

    /// Queue one frame for the peer, stamped with its own dialect.
    fn send(&mut self, kind: MsgKind, payload: &[u8]) {
        // Streaming kinds only ever answer v2 frames, so the version
        // floor can't be hit; a failure here is a programming error and
        // the connection is simply closed.
        let mut buf = Vec::with_capacity(payload.len() + 16);
        match write_frame_versioned(&mut buf, kind, payload, self.peer_version) {
            Ok(()) => {
                self.wq_bytes += buf.len();
                self.wq.push_back(buf);
            }
            Err(_) => self.dead = true,
        }
    }

    fn send_err(&mut self, err: &JobError) {
        self.send(MsgKind::JobErr, &err.encode());
    }

    /// Push socket-ready bytes out until the kernel pushes back.
    fn flush(&mut self) {
        while let Some(front) = self.wq.front() {
            match self.conn.write(&front[self.wq_off..]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => {
                    self.wq_off += n;
                    self.wq_bytes -= n;
                    if self.wq_off == front.len() {
                        self.wq.pop_front();
                        self.wq_off = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
    }

    /// Whether this connection should be polled for reads.
    fn wants_read(&self) -> bool {
        !self.dead
            && !self.closing
            && !self.eof
            && self.wq_bytes <= WRITE_PAUSE_BYTES
            && self.pending_jobs.len() <= JOB_PAUSE_DEPTH
            && self
                .stream
                .as_ref()
                .is_none_or(|s| s.pending_bytes <= STREAM_PAUSE_BYTES)
    }
}

/// Run the reactor until a stop is requested and the drain completes.
/// This is the daemon's only connection-handling thread.
pub(crate) fn run(shared: Arc<Shared>, source: AcceptSource, wake_rx: UnixStream) {
    let tele = shared.tele.clone();
    let m_wakeups = tele.counter("serve.reactor.wakeups");
    let m_ready = tele.gauge("serve.reactor.ready");
    let m_depth = tele.gauge("serve.reactor.dispatch_depth");
    let m_wq_high = tele.gauge("serve.reactor.write_queue_high_water");
    let m_batched = tele.counter("serve.reactor.batched_jobs");
    let m_connections = tele.counter("serve.connections");

    let cq = Arc::new(CompletionQueue {
        queue: Mutex::new(Vec::new()),
        waker: shared.waker.clone(),
    });
    let mut conns: HashMap<u64, Connection> = HashMap::new();
    let mut next_token: u64 = 1;
    // Outstanding dispatched work (pool tasks and queued stream
    // admissions); incremented at dispatch, decremented by each task as
    // its last act. The drain gate keys off this.
    let depth = Arc::new(AtomicU64::new(0));

    // The admission lane: stream opens admit here, in arrival order, off
    // both the event thread (admission may stall for seconds) and the
    // pool (a stalled open parked on a worker would starve the stream
    // steps that release the capacity it waits for — with more stalled
    // opens than workers that is a livelock broken only by the stall
    // timeout). One serialized lane is enough: a stalled head-of-line is
    // waiting for shared tenant capacity anyway, so everything behind it
    // would stall too, and FIFO admission keeps it fair.
    let (admit_tx, admit_rx) = mpsc::channel::<(u64, StreamOpen)>();
    let admit_lane = {
        let shared = Arc::clone(&shared);
        let cq = Arc::clone(&cq);
        let depth = Arc::clone(&depth);
        std::thread::Builder::new()
            .name("swcd-admit".into())
            .spawn(move || {
                while let Ok((token, open)) = admit_rx.recv() {
                    open_stream(&shared, &cq, token, open);
                    depth.fetch_sub(1, Ordering::SeqCst);
                }
            })
            .expect("spawn the admission lane")
    };
    let mut scratch = vec![0u8; 64 * 1024];
    let mut drain_deadline: Option<Instant> = None;

    loop {
        let stopping = shared.stop.load(Ordering::SeqCst);
        if stopping && drain_deadline.is_none() {
            drain_deadline = Some(Instant::now() + DRAIN_DEADLINE);
        }

        // --- build the ready set -------------------------------------
        let mut fds = Vec::with_capacity(conns.len() + 2);
        let mut who: Vec<u64> = Vec::with_capacity(conns.len());
        fds.push(sys::PollFd {
            fd: source.raw_fd(),
            events: if stopping { 0 } else { sys::POLLIN },
            revents: 0,
        });
        fds.push(sys::PollFd {
            fd: wake_rx.as_raw_fd(),
            events: sys::POLLIN,
            revents: 0,
        });
        for (&token, c) in &conns {
            let mut events = 0i16;
            if !stopping && c.wants_read() {
                events |= sys::POLLIN;
            }
            if !c.wq.is_empty() {
                events |= sys::POLLOUT;
            }
            fds.push(sys::PollFd {
                fd: c.conn.raw_fd(),
                events,
                revents: 0,
            });
            who.push(token);
        }

        // Blocking poll: an idle daemon makes zero wakeups. Only a
        // draining reactor ticks, so its deadline can fire.
        let timeout = if stopping { DRAIN_TICK_MS } else { -1 };
        let ready = sys::poll_fds(&mut fds, timeout).unwrap_or_default();
        m_wakeups.inc();
        m_ready.set(ready as u64);

        // --- drain the wake pipe -------------------------------------
        if fds[1].revents != 0 {
            let mut rx = &wake_rx;
            while matches!(rx.read(&mut scratch), Ok(n) if n > 0) {}
        }

        // --- completions from the pool -------------------------------
        for completion in cq.drain() {
            handle_completion(&mut conns, completion, &tele);
        }

        // --- accept --------------------------------------------------
        if fds[0].revents & (sys::POLLIN | sys::POLLERR) != 0 && !stopping {
            // Cap the accepts per wakeup so a connect storm cannot starve
            // live connections.
            for _ in 0..64 {
                match source.poll_accept() {
                    Ok(Some(conn)) => {
                        m_connections.inc();
                        conns.insert(next_token, Connection::new(conn));
                        next_token += 1;
                    }
                    Ok(None) => break,
                    Err(_) => break,
                }
            }
        }

        // --- per-connection IO ---------------------------------------
        for (i, &token) in who.iter().enumerate() {
            let revents = fds[i + 2].revents;
            if revents == 0 {
                continue;
            }
            let Some(c) = conns.get_mut(&token) else {
                continue;
            };
            if revents & sys::POLLNVAL != 0 {
                c.dead = true;
                continue;
            }
            if revents & sys::POLLOUT != 0 {
                c.flush();
            }
            if revents & (sys::POLLIN | sys::POLLERR | sys::POLLHUP) != 0 && c.wants_read() {
                read_and_parse(&shared, &admit_tx, &depth, token, c, &mut scratch);
            } else if revents & (sys::POLLERR | sys::POLLHUP) != 0 && c.wq.is_empty() {
                // Peer gone and nothing left to say.
                c.dead = true;
            }
        }

        // --- dispatch ------------------------------------------------
        if !stopping {
            dispatch_jobs(&shared, &cq, &depth, &mut conns, &m_batched);
            dispatch_streams(&shared, &cq, &depth, &mut conns);
        }
        m_depth.set(depth.load(Ordering::SeqCst));

        // --- flush, account, reap ------------------------------------
        let mut reap: Vec<u64> = Vec::new();
        for (&token, c) in conns.iter_mut() {
            if !c.wq.is_empty() {
                c.flush();
            }
            m_wq_high.observe_max(c.wq_bytes as u64);
            if c.wq_bytes > WRITE_KILL_BYTES {
                c.dead = true;
            }
            if c.closing && c.wq.is_empty() && !c.busy() {
                c.dead = true;
            }
            if c.eof && !c.busy() && (c.wq.is_empty() || c.closing) && c.pending_jobs.is_empty() {
                // Peer hung up; in-flight work has drained and whatever
                // could be said has been said (or can never be read).
                c.dead = true;
            }
            if c.dead {
                c.conn.shutdown();
                reap.push(token);
            }
        }
        for token in reap {
            // Dropping the Connection drops any StreamConn and its
            // AdmissionGuard: budget release on connection death.
            conns.remove(&token);
        }

        // --- stop / drain --------------------------------------------
        if stopping {
            let idle = conns.values().all(|c| !c.busy() && c.wq.is_empty());
            let expired = drain_deadline.is_some_and(|d| Instant::now() >= d);
            if (idle && depth.load(Ordering::SeqCst) == 0) || expired {
                break;
            }
        }
    }

    // Force-close every socket; admission guards drop with the map.
    for c in conns.values() {
        c.conn.shutdown();
    }
    drop(conns);
    // Retire the admission lane: closing the channel ends its loop, and
    // a head-of-line open stalled in `admit` converts to a rejection
    // within `MAX_STALL_WAIT`, so the join is bounded. Then drain the
    // completion queue one last time — dropping a late `StreamOpened`
    // releases its admission hold, keeping the no-budget-left-held
    // shutdown invariant.
    drop(admit_tx);
    let _ = admit_lane.join();
    drop(cq.drain());
}

/// Nonblocking read into the connection's assembler, then handle every
/// complete frame.
fn read_and_parse(
    shared: &Arc<Shared>,
    admit_tx: &mpsc::Sender<(u64, StreamOpen)>,
    depth: &Arc<AtomicU64>,
    token: u64,
    c: &mut Connection,
    scratch: &mut [u8],
) {
    loop {
        match c.conn.read(scratch) {
            Ok(0) => {
                c.eof = true;
                break;
            }
            Ok(n) => {
                c.asm.push(&scratch[..n]);
                // Keep one read's parsing bounded; the next poll round
                // picks up whatever else the socket holds.
                if n < scratch.len() {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                c.eof = true;
                c.dead = true;
                return;
            }
        }
    }
    loop {
        match c.asm.next_frame() {
            Ok(Some((kind, version, payload))) => {
                c.peer_version = version;
                handle_frame(shared, admit_tx, depth, token, c, kind, payload);
                if c.closing || c.dead {
                    return;
                }
            }
            Ok(None) => return,
            Err(e) => {
                // Tell the peer what was wrong with its bytes if the
                // socket still works, then close: after a framing error
                // the stream position is untrustworthy.
                c.send_err(&JobError::Malformed(e.to_string()));
                c.eof = true;
                c.closing = true;
                return;
            }
        }
    }
}

/// Handle one complete inbound frame on the event thread. Cheap frames
/// (ping, metrics, shutdown) answer inline; work frames queue for
/// dispatch.
fn handle_frame(
    shared: &Arc<Shared>,
    admit_tx: &mpsc::Sender<(u64, StreamOpen)>,
    depth: &Arc<AtomicU64>,
    token: u64,
    c: &mut Connection,
    kind: MsgKind,
    payload: Vec<u8>,
) {
    match kind {
        MsgKind::Ping => c.send(MsgKind::Pong, &payload),
        MsgKind::Metrics => {
            let text = metrics_text(shared);
            c.send(MsgKind::MetricsText, text.as_bytes());
        }
        MsgKind::Shutdown => {
            c.send(MsgKind::ShutdownAck, &[]);
            shared.stop.store(true, Ordering::SeqCst);
            c.closing = true;
        }
        MsgKind::Job => c.pending_jobs.push_back(payload),
        MsgKind::StreamOpen => match StreamOpen::decode(&payload) {
            Ok(open) => {
                if c.stream.is_some() {
                    c.send_err(&JobError::Malformed(
                        "StreamOpen while another stream is active on this connection".into(),
                    ));
                    c.closing = true;
                    return;
                }
                c.stream = Some(StreamConn::new(open.width, open.height));
                // `busy` is set: the open is queued on the admission lane
                // immediately (admission may stall, so it runs neither
                // here nor on a pool worker).
                depth.fetch_add(1, Ordering::SeqCst);
                let _ = admit_tx.send((token, open));
            }
            Err(e) => {
                c.send_err(&JobError::Malformed(e.to_string()));
                c.closing = true;
            }
        },
        MsgKind::RowChunk => match RowChunk::decode(&payload) {
            Ok(chunk) => handle_row_chunk(c, chunk),
            Err(e) => {
                c.send_err(&JobError::Malformed(e.to_string()));
                c.closing = true;
            }
        },
        other => {
            c.send_err(&JobError::Malformed(format!(
                "unexpected {other:?} frame on the server side"
            )));
            c.closing = true;
        }
    }
}

/// Validate one `RowChunk` against the stream's state machine and queue
/// its rows. Gaps, replays, ragged lengths and overruns are typed
/// protocol errors that kill the stream (and connection) — they can
/// never silently desync the window.
fn handle_row_chunk(c: &mut Connection, chunk: RowChunk) {
    let Some(stream) = c.stream.as_mut() else {
        c.send_err(&JobError::Malformed(
            "RowChunk without an open stream".into(),
        ));
        c.closing = true;
        return;
    };
    let width = u64::from(stream.width);
    let rows = u64::from(chunk.rows);
    let err = if chunk.seq != stream.recv_seq {
        Some(format!(
            "RowChunk seq {} out of order (expected {})",
            chunk.seq, stream.recv_seq
        ))
    } else if u64::from(chunk.first_row) != stream.rows_received {
        Some(format!(
            "RowChunk first_row {} does not resume at row {}",
            chunk.first_row, stream.rows_received
        ))
    } else if chunk.pixels.len() as u64 != rows * width {
        Some(format!(
            "RowChunk carries {} bytes for {} rows of width {}",
            chunk.pixels.len(),
            chunk.rows,
            stream.width
        ))
    } else if stream.rows_received + rows > u64::from(stream.height) {
        Some(format!(
            "RowChunk overruns the declared height {}",
            stream.height
        ))
    } else {
        None
    };
    if let Some(detail) = err {
        c.send_err(&JobError::Malformed(detail));
        c.stream = None; // drops the admission hold
        c.closing = true;
        return;
    }
    stream.recv_seq += 1;
    stream.rows_received += rows;
    stream.pending_bytes += chunk.pixels.len();
    stream.pending.push_back((chunk.seq, chunk.pixels));
}

/// Admit one `StreamOpen` and set up its [`StreamRun`]. Runs on the
/// admission lane thread — it may block in `admit` under the stall
/// policy, which is exactly why it must own neither the event thread nor
/// a pool worker: the stream holds its budget until its *steps* complete
/// on the pool, so a stalled open parked there would starve the work
/// that frees the capacity it is waiting for.
fn open_stream(shared: &Arc<Shared>, cq: &Arc<CompletionQueue>, token: u64, open: StreamOpen) {
    let tele = &shared.tele;
    tele.counter("serve.jobs_total").inc();
    tele.counter("serve.jobs_streamed").inc();
    let cost_bits = u64::from(open.width) * u64::from(open.height) * 8;
    let queue_depth = tele.gauge("serve.queue_depth");
    queue_depth.add(1);
    let admitted = shared
        .governor
        .admit(&open.tenant, cost_bits, open.spec.threshold);
    queue_depth.sub(1);
    let result = match admitted {
        Err(e) => {
            tele.counter("serve.jobs_rejected").inc();
            tele.counter(&format!("serve.rejects.{}", open.tenant))
                .inc();
            Err(e)
        }
        Ok((hold, admission)) => {
            let mut effective = open;
            let degraded = match admission.escalate_to {
                Some(t) if t > effective.spec.threshold => {
                    effective.spec.threshold = t;
                    true
                }
                _ => false,
            };
            if degraded {
                tele.counter("serve.jobs_degraded").inc();
            }
            StreamRun::begin(&effective, tele)
                .map(|run| (Box::new(run), hold, admission.queue_ns, degraded))
        }
    };
    cq.push(Completion::StreamOpened { token, result });
}

/// Dispatch queued whole-frame jobs. Small payloads from distinct idle
/// connections coalesce into one pool task; larger ones go alone.
fn dispatch_jobs(
    shared: &Arc<Shared>,
    cq: &Arc<CompletionQueue>,
    depth: &Arc<AtomicU64>,
    conns: &mut HashMap<u64, Connection>,
    m_batched: &sw_telemetry::metrics::Counter,
) {
    let mut batch: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut singles: Vec<(u64, Vec<u8>)> = Vec::new();
    for (&token, c) in conns.iter_mut() {
        if c.dead || c.job_busy || c.pending_jobs.is_empty() {
            continue;
        }
        let payload = c.pending_jobs.pop_front().expect("nonempty queue");
        c.job_busy = true;
        if payload.len() <= SMALL_JOB_BYTES {
            batch.push((token, payload));
        } else {
            singles.push((token, payload));
        }
    }
    if batch.len() >= 2 {
        m_batched.add(batch.len() as u64);
    }
    if !batch.is_empty() {
        // One hand-off runs the whole batch serially: sub-window frames
        // amortize the queue/park/wake cost of dispatch.
        let shared2 = Arc::clone(shared);
        let cq2 = Arc::clone(cq);
        let depth2 = Arc::clone(depth);
        depth.fetch_add(1, Ordering::SeqCst);
        shared.pool.spawn(move || {
            for (token, payload) in batch {
                let result = run_job(&shared2, &payload);
                cq2.push(Completion::Job { token, result });
            }
            depth2.fetch_sub(1, Ordering::SeqCst);
        });
    }
    for (token, payload) in singles {
        let shared2 = Arc::clone(shared);
        let cq2 = Arc::clone(cq);
        let depth2 = Arc::clone(depth);
        depth.fetch_add(1, Ordering::SeqCst);
        shared.pool.spawn(move || {
            let result = run_job(&shared2, &payload);
            cq2.push(Completion::Job { token, result });
            depth2.fetch_sub(1, Ordering::SeqCst);
        });
    }
}

/// Dispatch pending stream chunks to the pool for every stream whose run
/// is at home.
fn dispatch_streams(
    shared: &Arc<Shared>,
    cq: &Arc<CompletionQueue>,
    depth: &Arc<AtomicU64>,
    conns: &mut HashMap<u64, Connection>,
) {
    for (&token, c) in conns.iter_mut() {
        let Some(stream) = c.stream.as_mut() else {
            continue;
        };
        if stream.busy || stream.run.is_none() {
            continue;
        }
        let all_rows_queued = stream.rows_received == u64::from(stream.height);
        if stream.pending.is_empty() && !all_rows_queued {
            continue;
        }
        let run = stream.run.take().expect("checked above");
        let chunks: Vec<(u32, Vec<u8>)> = stream.pending.drain(..).collect();
        stream.pending_bytes = 0;
        stream.busy = true;
        let height = stream.height;
        let shared2 = Arc::clone(shared);
        let cq2 = Arc::clone(cq);
        let depth2 = Arc::clone(depth);
        depth.fetch_add(1, Ordering::SeqCst);
        shared.pool.spawn(move || {
            run_stream_step(&shared2, &cq2, token, run, chunks, height);
            depth2.fetch_sub(1, Ordering::SeqCst);
        });
    }
}

/// One dispatched stream step: feed the queued chunks through the run;
/// finish the job if the last declared row went in.
fn run_stream_step(
    shared: &Arc<Shared>,
    cq: &Arc<CompletionQueue>,
    token: u64,
    mut run: Box<StreamRun>,
    chunks: Vec<(u32, Vec<u8>)>,
    height: u32,
) {
    let mut last_seq = 0;
    for (seq, pixels) in chunks {
        match run.push_rows(&pixels) {
            Ok(_) => last_seq = seq,
            Err(err) => {
                cq.push(Completion::StreamFailed { token, err });
                return;
            }
        }
    }
    let rows_done = run.rows_in() as u64;
    if rows_done == u64::from(height) {
        let result = run.finish(&shared.pool, &shared.tele);
        cq.push(Completion::StreamDone {
            token,
            last_seq,
            rows_done,
            result,
        });
    } else {
        cq.push(Completion::StreamStep {
            token,
            run,
            last_seq,
            rows_done,
        });
    }
}

/// Apply one pool completion to its connection (silently dropped when
/// the connection died first — dropping a stream result releases its
/// admission guard).
fn handle_completion(
    conns: &mut HashMap<u64, Connection>,
    completion: Completion,
    tele: &sw_telemetry::TelemetryHandle,
) {
    match completion {
        Completion::Job { token, result } => {
            let Some(c) = conns.get_mut(&token) else {
                return;
            };
            c.job_busy = false;
            match result {
                Ok(resp) => c.send(MsgKind::JobOk, &resp.encode()),
                Err(err) => c.send_err(&err),
            }
        }
        Completion::StreamOpened { token, result } => {
            let Some(c) = conns.get_mut(&token) else {
                return;
            };
            let Some(stream) = c.stream.as_mut() else {
                return;
            };
            match result {
                Ok((run, hold, queue_ns, degraded)) => {
                    stream.run = Some(run);
                    stream.hold = Some(hold);
                    stream.queue_ns = queue_ns;
                    stream.degraded = degraded;
                    stream.busy = false;
                }
                Err(err) => {
                    c.stream = None;
                    c.send_err(&err);
                    c.closing = true;
                }
            }
        }
        Completion::StreamStep {
            token,
            run,
            last_seq,
            rows_done,
        } => {
            let Some(c) = conns.get_mut(&token) else {
                return;
            };
            let Some(stream) = c.stream.as_mut() else {
                return;
            };
            stream.run = Some(run);
            stream.busy = false;
            // The ack is the client's flow-control credit: rows
            // *processed*, not merely buffered.
            c.send(
                MsgKind::RowAck,
                &RowAck {
                    seq: last_seq,
                    rows_done,
                }
                .encode(),
            );
        }
        Completion::StreamDone {
            token,
            last_seq,
            rows_done,
            result,
        } => {
            let Some(c) = conns.get_mut(&token) else {
                return;
            };
            let Some(stream) = c.stream.take() else {
                return;
            };
            match result {
                Ok(mut resp) => {
                    resp.queue_ns = stream.queue_ns;
                    resp.degraded = stream.degraded;
                    tele.histogram("serve.exec_ns", &exponential_bounds(1 << 10, 4, 16))
                        .observe(resp.exec_ns);
                    c.send(
                        MsgKind::RowAck,
                        &RowAck {
                            seq: last_seq,
                            rows_done,
                        }
                        .encode(),
                    );
                    c.send(MsgKind::JobDone, &resp.encode());
                }
                Err(err) => {
                    c.send_err(&err);
                    c.closing = true;
                }
            }
            // `stream` (and its admission hold) drops here.
        }
        Completion::StreamFailed { token, err } => {
            let Some(c) = conns.get_mut(&token) else {
                return;
            };
            c.stream = None;
            c.send_err(&err);
            c.closing = true;
        }
    }
}
