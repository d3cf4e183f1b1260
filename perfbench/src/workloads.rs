//! The four end-to-end workloads, driven through `nk_cluster::Cluster`.
//!
//! Load comes from this process's main thread through the guest socket API
//! ([`SocketApi`] on each VM's `GuestLib`); traffic crosses the simulated
//! in-process fabric (vNIC switch, uplinks, ToR), never a NIC or loopback.
//! A run is cut into *episodes*: each builds a fresh cluster, brings its
//! connections up (the timed set-up) and then runs a fixed number of
//! cluster steps, so every simulated count and the event digest repeat
//! exactly for one seed. Generator decisions read only simulated state.

use crate::trace::{Kind, Tracer};
use nk_cluster::Cluster;
use nk_types::addr::nsm_ip_on;
use nk_types::{
    ClusterConfig, HostConfig, HostId, NkError, NkResult, NsmConfig, NsmId, SockAddr, SocketApi,
    SocketId, VmConfig, VmId, VmToNsmPolicy,
};
use std::collections::VecDeque;
use std::time::Instant;

/// Virtual time per cluster step (the repository's convention).
pub const DT_NS: u64 = 100_000;
/// Size of an rpc request and of its reply, and of a churn exchange.
pub const MSG: usize = 64;
/// Outstanding rpc requests per connection (closed loop).
pub const RPC_WINDOW: u64 = 256;
/// Largest bulk send.
pub const MAX_CHUNK: usize = 64 * 1024;
const PORT: u16 = 5001;
/// Bound on set-up steps (a handshake needs a few).
const SETUP_STEP_LIMIT: usize = 1000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Bulk,
    Rpc,
    RpcPar,
    Churn,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Bulk,
        Workload::Rpc,
        Workload::RpcPar,
        Workload::Churn,
    ];

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Bulk => "bulk",
            Workload::Rpc => "rpc",
            Workload::RpcPar => "rpc-par",
            Workload::Churn => "churn",
        }
    }

    /// Datapath threads (`ClusterConfig::with_threads`).
    pub fn threads(self) -> usize {
        match self {
            Workload::RpcPar => 2,
            _ => 1,
        }
    }

    /// The other thread count: the same traffic there must give identical
    /// results (the thread-count determinism contract). For `rpc` and
    /// `rpc-par` this is each other.
    pub fn twin_threads(self) -> usize {
        if self.threads() == 1 {
            2
        } else {
            1
        }
    }

    /// Cluster steps per episode.
    pub fn steps(self) -> usize {
        match self {
            Workload::Bulk => 400,
            Workload::Rpc | Workload::RpcPar => 3000,
            Workload::Churn => 3000,
        }
    }

    /// Wire frame payload of one message of this workload, for the rigs.
    pub fn message_bytes(self) -> usize {
        match self {
            Workload::Bulk => MAX_CHUNK,
            _ => MSG,
        }
    }
}

// ---- Seeded payload ---------------------------------------------------------

/// Length of the seeded byte pattern; prime, so stream offsets never align
/// with message sizes.
const PERIOD: usize = 1_048_573;

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seeded bytes every stream is cut from. Stream byte `p` of a stream
/// with base `b` is `bytes[(b + p) % PERIOD]`; the tail repeats the head so
/// any slice of up to [`MAX_CHUNK`] bytes is contiguous.
pub struct Pattern {
    bytes: Vec<u8>,
    seed: u64,
}

impl Pattern {
    pub fn new(seed: u64) -> Self {
        let mut state = seed;
        let mut bytes = Vec::with_capacity(PERIOD + MAX_CHUNK);
        while bytes.len() < PERIOD {
            bytes.extend_from_slice(&splitmix(&mut state).to_le_bytes());
        }
        bytes.truncate(PERIOD);
        bytes.extend_from_within(..MAX_CHUNK);
        Pattern { bytes, seed }
    }

    /// A byte stream identified by `id` (one per flow and direction).
    fn stream(&self, id: u64) -> Stream {
        let mut s = self.seed ^ id.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        Stream {
            base: splitmix(&mut s) % PERIOD as u64,
            pos: 0,
        }
    }

    fn at(&self, stream: &Stream, len: usize) -> &[u8] {
        let start = ((stream.base + stream.pos) % PERIOD as u64) as usize;
        &self.bytes[start..start + len]
    }
}

/// A position in a seeded byte stream: the next byte to send, or the next
/// byte the receiver expects.
#[derive(Clone, Copy, Debug)]
struct Stream {
    base: u64,
    pos: u64,
}

impl Stream {
    /// Check `data` against the stream and advance past it.
    fn verify(&mut self, pat: &Pattern, data: &[u8]) -> bool {
        let mut ok = true;
        for chunk in data.chunks(MAX_CHUNK) {
            ok &= pat.at(self, chunk.len()) == chunk;
            self.pos += chunk.len() as u64;
        }
        ok
    }
}

// ---- Accounting -------------------------------------------------------------

/// What the generator observed in one episode's measured loop.
#[derive(Default)]
pub struct Meter {
    /// Operations completed and verified (messages, rpcs or connections).
    pub ops: u64,
    /// Operations started.
    pub attempted: u64,
    /// Non-`WouldBlock` socket errors and verify mismatches.
    pub failed: u64,
    /// Verified payload bytes received by applications.
    pub payload: u64,
    /// Wall time per completed operation, ns.
    pub lat_ns: Vec<u32>,
}

impl Meter {
    fn fail(&mut self, what: &str, err: Option<NkError>) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("operation failed: {what} ({err:?})");
        }
    }

    fn done(&mut self, started_ns: u64, now_ns: u64) {
        self.ops += 1;
        self.lat_ns
            .push(now_ns.saturating_sub(started_ns).min(u64::from(u32::MAX)) as u32);
    }
}

/// What one generator pass needs besides the cluster.
pub struct Ctx<'a> {
    pub pat: &'a Pattern,
    pub tr: &'a mut Tracer,
    pub m: &'a mut Meter,
    pub clock: Instant,
}

impl Ctx<'_> {
    fn now(&self) -> u64 {
        self.clock.elapsed().as_nanos() as u64
    }
}

/// One guest socket call, traced: a span carrying the socket and request
/// id, and the `WouldBlock` count.
fn call<T>(
    tr: &mut Tracer,
    kind: Kind,
    sock: SocketId,
    req: u64,
    f: impl FnOnce() -> NkResult<T>,
) -> NkResult<T> {
    let t0 = tr.start();
    let r = f();
    tr.count_call(matches!(r, Err(NkError::WouldBlock)));
    tr.leaf(kind, "", t0, sock.0, req);
    r
}

/// A VM endpoint: where a socket lives.
#[derive(Clone, Copy, Debug)]
pub struct Ep {
    pub host: HostId,
    pub vm: VmId,
}

fn guest(c: &mut Cluster, ep: Ep) -> &mut nk_guest::GuestLib {
    c.guest_on(ep.host, ep.vm).expect("workload VM exists")
}

// ---- Topologies -------------------------------------------------------------

fn host(id: u8, vms_nsms: &[(u8, u8)]) -> HostConfig {
    let mut h = HostConfig::new().with_host_id(HostId(id));
    let mut map = Vec::new();
    for &(vm, nsm) in vms_nsms {
        h = h
            .with_vm(VmConfig::new(VmId(vm)))
            .with_nsm(NsmConfig::kernel(NsmId(nsm)));
        map.push((VmId(vm), NsmId(nsm)));
    }
    h.with_mapping(VmToNsmPolicy::Static(map))
}

/// The cluster a workload runs on, and its VMs with their serving NSMs.
fn topology(w: Workload, threads: usize) -> (ClusterConfig, [(Ep, NsmId); 2]) {
    let ep = |h: u8, vm: u8| Ep {
        host: HostId(h),
        vm: VmId(vm),
    };
    match w {
        // Two hosts, one VM and one kernel NSM each, joined by the ToR.
        Workload::Bulk | Workload::Rpc | Workload::RpcPar => (
            ClusterConfig::new()
                .with_host(host(1, &[(1, 1)]))
                .with_host(host(2, &[(2, 1)]))
                .with_uplink_latency_us(0)
                .with_threads(threads),
            [(ep(1, 1), NsmId(1)), (ep(2, 2), NsmId(1))],
        ),
        // One host, two VMs on two kernel NSMs: intra-host through the vNIC
        // switch, bypassing the uplink and ToR.
        Workload::Churn => (
            ClusterConfig::new()
                .with_host(host(1, &[(1, 1), (2, 2)]))
                .with_threads(threads),
            [(ep(1, 1), NsmId(1)), (ep(1, 2), NsmId(2))],
        ),
    }
}

// ---- Layer counters ---------------------------------------------------------

/// Counters read through the public stats accessors, summed over the
/// workload's VMs, NSMs and hosts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub guest_nqes: u64,
    pub guest_errors: u64,
    pub region_allocs: u64,
    pub region_failed: u64,
    pub engine_nqes: u64,
    pub engine_polls: u64,
    pub engine_wakeups: u64,
    pub vm_dropped: u64,
    pub svc_requests: u64,
    pub svc_bytes_tx: u64,
    pub svc_bytes_rx: u64,
    pub svc_accepted: u64,
    pub uplink_tx: u64,
    pub uplink_rx: u64,
    pub steps: u64,
    pub rounds: u64,
    pub work: u64,
    pub round_limit_hits: u64,
}

impl Counts {
    pub fn read(c: &mut Cluster, eps: &[(Ep, NsmId); 2]) -> Counts {
        let mut k = Counts::default();
        let mut hosts: Vec<HostId> = eps.iter().map(|(e, _)| e.host).collect();
        hosts.dedup();
        for &(ep, nsm) in eps {
            let g = guest(c, ep);
            let gs = g.stats();
            let rs = g.region().stats();
            k.guest_nqes += gs.nqes_sent + gs.nqes_received;
            k.guest_errors += gs.errors;
            k.region_allocs += rs.total_allocs;
            k.region_failed += rs.failed_allocs;
            let h = c.host(ep.host).expect("workload host exists");
            if let Some(v) = h.vm_switch_stats(ep.vm) {
                k.vm_dropped += v.dropped;
            }
            if let Some(s) = h.nsm_service_stats(nsm) {
                k.svc_requests += s.requests;
                k.svc_bytes_tx += s.bytes_tx;
                k.svc_bytes_rx += s.bytes_rx;
                k.svc_accepted += s.accepted;
            }
        }
        for id in hosts {
            let h = c.host(id).expect("workload host exists");
            let e = h.engine_stats();
            k.engine_nqes += e.nqes_switched;
            k.engine_polls += e.poll_rounds;
            k.engine_wakeups += e.wakeups;
            let u = h.uplink_stats();
            k.uplink_tx += u.tx_frames;
            k.uplink_rx += u.rx_frames;
        }
        let s = c.stats();
        k.steps = s.steps;
        k.rounds = s.rounds;
        k.work = s.begin_work + s.poll_work + s.control_work;
        k.round_limit_hits = s.round_limit_hits;
        k
    }

    pub fn minus(self, b: Counts) -> Counts {
        Counts {
            guest_nqes: self.guest_nqes - b.guest_nqes,
            guest_errors: self.guest_errors - b.guest_errors,
            region_allocs: self.region_allocs - b.region_allocs,
            region_failed: self.region_failed - b.region_failed,
            engine_nqes: self.engine_nqes - b.engine_nqes,
            engine_polls: self.engine_polls - b.engine_polls,
            engine_wakeups: self.engine_wakeups - b.engine_wakeups,
            vm_dropped: self.vm_dropped - b.vm_dropped,
            svc_requests: self.svc_requests - b.svc_requests,
            svc_bytes_tx: self.svc_bytes_tx - b.svc_bytes_tx,
            svc_bytes_rx: self.svc_bytes_rx - b.svc_bytes_rx,
            svc_accepted: self.svc_accepted - b.svc_accepted,
            uplink_tx: self.uplink_tx - b.uplink_tx,
            uplink_rx: self.uplink_rx - b.uplink_rx,
            steps: self.steps - b.steps,
            rounds: self.rounds - b.rounds,
            work: self.work - b.work,
            round_limit_hits: self.round_limit_hits - b.round_limit_hits,
        }
    }
}

// ---- Generators -------------------------------------------------------------

/// One TCP connection between two VMs, as the generator sees it.
struct Conn {
    client: Ep,
    server: Ep,
    csock: SocketId,
    ssock: SocketId,
    /// Client → server bytes: next to send, next expected.
    up_tx: Stream,
    up_rx: Stream,
    /// Server → client bytes.
    down_tx: Stream,
    down_rx: Stream,
}

/// `bulk`: one-way streams of seeded message sizes up to 64 KiB.
struct BulkFlow {
    rng: u64,
    /// Bytes of the current message not yet accepted by `send`, and the
    /// wall time its first byte was offered.
    left: usize,
    started_ns: u64,
    /// Messages fully accepted by `send`: (stream end offset, start time).
    inflight: VecDeque<(u64, u64)>,
}

/// `rpc`: a closed loop of 64 B requests and 64 B replies.
#[derive(Default)]
struct RpcFlow {
    /// Requests fully sent, and bytes of the next one already sent.
    sent: u64,
    partial: usize,
    /// Replies verified by the client.
    done: u64,
    /// Requests verified by the server, replies fully sent, and bytes of
    /// the next reply already sent.
    served: u64,
    replied: u64,
    reply_partial: usize,
    /// Wall time each outstanding request's first byte was offered.
    sent_at: Vec<u64>,
}

/// `churn`: one client's connect → request → reply → close loop.
struct ChurnClient {
    me: Ep,
    dst: SockAddr,
    sock: Option<SocketId>,
    started_ns: u64,
    sent: usize,
    got: usize,
    up_tx: Stream,
    down_rx: Stream,
}

/// The server side of a churn client's connections.
struct ChurnServer {
    me: Ep,
    listener: SocketId,
    /// Accepted connections: socket, request bytes verified, reply bytes sent.
    conns: Vec<(SocketId, usize, usize)>,
    up_rx: Stream,
    down_tx: Stream,
}

enum Gen {
    Bulk(Vec<Conn>, Vec<BulkFlow>),
    Rpc(Vec<Conn>, Vec<RpcFlow>),
    Churn(Vec<ChurnClient>, Vec<ChurnServer>),
}

/// A workload's live state: its cluster and its generator.
pub struct Live {
    pub cluster: Cluster,
    pub eps: [(Ep, NsmId); 2],
    gen: Gen,
}

fn listen(c: &mut Cluster, ep: Ep, tr: &mut Tracer) -> NkResult<SocketId> {
    let g = guest(c, ep);
    let t0 = tr.start();
    let ls = g.socket()?;
    tr.leaf(Kind::Socket, "server", t0, ls.0, 0);
    g.bind(ls, SockAddr::new(0, PORT))?;
    g.listen(ls, 16)?;
    Ok(ls)
}

fn connect(c: &mut Cluster, ep: Ep, dst: SockAddr, tr: &mut Tracer) -> NkResult<SocketId> {
    let g = guest(c, ep);
    let t0 = tr.start();
    let s = g.socket()?;
    tr.leaf(Kind::Socket, "client", t0, s.0, 0);
    call(tr, Kind::Connect, s, 0, || g.connect(s, dst))?;
    Ok(s)
}

fn addr_of(ep: Ep, nsm: NsmId) -> SockAddr {
    SockAddr::new(nsm_ip_on(ep.host, nsm), PORT)
}

impl Live {
    /// Build the cluster and bring every long-lived connection up: the
    /// set-up the benchmark times (`Cluster::new` through the last accept).
    pub fn setup(w: Workload, threads: usize, pat: &Pattern, tr: &mut Tracer) -> NkResult<Live> {
        let (cfg, eps) = topology(w, threads);
        let mut cluster = Cluster::new(cfg)?;
        let gen = match w {
            Workload::Bulk | Workload::Rpc | Workload::RpcPar => {
                let conns = Self::pair(&mut cluster, &eps, pat, tr)?;
                if w == Workload::Bulk {
                    let flows = (0..2u64)
                        .map(|i| BulkFlow {
                            rng: pat.seed ^ (0xB01C + i),
                            left: 0,
                            started_ns: 0,
                            inflight: VecDeque::new(),
                        })
                        .collect();
                    Gen::Bulk(conns, flows)
                } else {
                    let flows = (0..2)
                        .map(|_| RpcFlow {
                            sent_at: vec![0; RPC_WINDOW as usize],
                            ..RpcFlow::default()
                        })
                        .collect();
                    Gen::Rpc(conns, flows)
                }
            }
            Workload::Churn => {
                let mut clients = Vec::new();
                let mut servers = Vec::new();
                for i in 0..2 {
                    let (me, _) = eps[i];
                    let (peer, peer_nsm) = eps[1 - i];
                    servers.push(ChurnServer {
                        me: peer,
                        listener: listen(&mut cluster, peer, tr)?,
                        conns: Vec::new(),
                        up_rx: pat.stream(10 + i as u64),
                        down_tx: pat.stream(20 + i as u64),
                    });
                    clients.push(ChurnClient {
                        me,
                        dst: addr_of(peer, peer_nsm),
                        sock: None,
                        started_ns: 0,
                        sent: 0,
                        got: 0,
                        up_tx: pat.stream(10 + i as u64),
                        down_rx: pat.stream(20 + i as u64),
                    });
                }
                cluster.step(DT_NS);
                Gen::Churn(clients, servers)
            }
        };
        Ok(Live { cluster, eps, gen })
    }

    /// Two connections, one each way between the two VMs; steps until both
    /// are accepted.
    fn pair(
        c: &mut Cluster,
        eps: &[(Ep, NsmId); 2],
        pat: &Pattern,
        tr: &mut Tracer,
    ) -> NkResult<Vec<Conn>> {
        let listeners = [listen(c, eps[0].0, tr)?, listen(c, eps[1].0, tr)?];
        let mut conns = Vec::new();
        for i in 0..2 {
            let (client, _) = eps[i];
            let (server, nsm) = eps[1 - i];
            let csock = connect(c, client, addr_of(server, nsm), tr)?;
            let id = 100 + 10 * i as u64;
            conns.push(Conn {
                client,
                server,
                csock,
                ssock: SocketId(u32::MAX),
                up_tx: pat.stream(id),
                up_rx: pat.stream(id),
                down_tx: pat.stream(id + 1),
                down_rx: pat.stream(id + 1),
            });
        }
        let mut pending = 2;
        for _ in 0..SETUP_STEP_LIMIT {
            c.step(DT_NS);
            for (i, conn) in conns.iter_mut().enumerate() {
                if conn.ssock.0 != u32::MAX {
                    continue;
                }
                let ls = listeners[1 - i];
                let g = guest(c, conn.server);
                match call(tr, Kind::Accept, ls, 0, || g.accept(ls)) {
                    Ok((s, _)) => {
                        conn.ssock = s;
                        pending -= 1;
                    }
                    Err(NkError::WouldBlock) => {}
                    Err(e) => return Err(e),
                }
            }
            if pending == 0 {
                return Ok(conns);
            }
        }
        Err(NkError::TimedOut)
    }

    /// One generator pass: every application socket is serviced once.
    pub fn pass(&mut self, ctx: &mut Ctx) {
        let c = &mut self.cluster;
        match &mut self.gen {
            Gen::Bulk(conns, flows) => {
                for (conn, flow) in conns.iter_mut().zip(flows.iter_mut()) {
                    bulk_send(c, conn, flow, ctx);
                    bulk_recv(c, conn, flow, ctx);
                }
            }
            Gen::Rpc(conns, flows) => {
                for (conn, flow) in conns.iter_mut().zip(flows.iter_mut()) {
                    rpc_server(c, conn, flow, ctx);
                    rpc_client(c, conn, flow, ctx);
                }
            }
            Gen::Churn(clients, servers) => {
                for s in servers.iter_mut() {
                    churn_server(c, s, ctx);
                }
                for cl in clients.iter_mut() {
                    churn_client(c, cl, ctx);
                }
            }
        }
    }

    /// Close the long-lived connections (after the measured loop; no step
    /// follows, so the simulated results are unaffected).
    pub fn close_all(&mut self, tr: &mut Tracer) {
        let conns = match &self.gen {
            Gen::Bulk(conns, _) | Gen::Rpc(conns, _) => conns,
            Gen::Churn(..) => return,
        };
        for conn in conns {
            for (ep, s) in [(conn.client, conn.csock), (conn.server, conn.ssock)] {
                let g = guest(&mut self.cluster, ep);
                // A failed close here changes no result; the span is what
                // matters.
                let _ = call(tr, Kind::Close, s, 0, || g.close(s));
            }
        }
    }

    /// Application sockets currently open (for the connection peak).
    pub fn conns_open(&self) -> u64 {
        let eps = &self.eps;
        let h = |i: usize| self.cluster.host(eps[i].0.host).expect("host exists");
        (h(0).vm_pinned(eps[0].0.vm) + h(1).vm_pinned(eps[1].0.vm)) as u64
    }

    /// Request NQEs parked in the engines' stall queues.
    pub fn stalled(&self) -> u64 {
        let mut hosts: Vec<HostId> = self.eps.iter().map(|(e, _)| e.host).collect();
        hosts.dedup();
        hosts
            .into_iter()
            .map(|id| self.cluster.host(id).expect("host exists").stalled_nqes() as u64)
            .sum()
    }
}

fn bulk_send(c: &mut Cluster, conn: &mut Conn, f: &mut BulkFlow, ctx: &mut Ctx) {
    let g = guest(c, conn.client);
    loop {
        let now = ctx.now();
        if f.left == 0 {
            f.left = 1024 + (splitmix(&mut f.rng) % (MAX_CHUNK as u64 - 1023)) as usize;
            f.started_ns = now;
            ctx.m.attempted += 1;
        }
        let data = ctx.pat.at(&conn.up_tx, f.left);
        let s = conn.csock;
        match call(ctx.tr, Kind::Send, s, 0, || g.send(s, data)) {
            Ok(n) => {
                conn.up_tx.pos += n as u64;
                f.left -= n;
                if f.left == 0 {
                    f.inflight.push_back((conn.up_tx.pos, f.started_ns));
                }
            }
            Err(NkError::WouldBlock) => return,
            Err(e) => return ctx.m.fail("bulk send", Some(e)),
        }
    }
}

fn bulk_recv(c: &mut Cluster, conn: &mut Conn, f: &mut BulkFlow, ctx: &mut Ctx) {
    let g = guest(c, conn.server);
    let mut buf = [0u8; MAX_CHUNK];
    loop {
        let s = conn.ssock;
        match call(ctx.tr, Kind::Recv, s, 0, || g.recv(s, &mut buf)) {
            Ok(0) => return ctx.m.fail("bulk peer closed", None),
            Ok(n) => {
                if !conn.up_rx.verify(ctx.pat, &buf[..n]) {
                    ctx.m.fail("bulk payload mismatch", None);
                }
                let now = ctx.now();
                while let Some(&(end, started)) = f.inflight.front() {
                    if end > conn.up_rx.pos {
                        break;
                    }
                    f.inflight.pop_front();
                    ctx.m.done(started, now);
                }
                ctx.m.payload += n as u64;
            }
            Err(NkError::WouldBlock) => return,
            Err(e) => return ctx.m.fail("bulk recv", Some(e)),
        }
    }
}

fn rpc_server(c: &mut Cluster, conn: &mut Conn, f: &mut RpcFlow, ctx: &mut Ctx) {
    let g = guest(c, conn.server);
    let mut buf = [0u8; RPC_WINDOW as usize * MSG];
    let s = conn.ssock;
    loop {
        match call(ctx.tr, Kind::Recv, s, f.served, || g.recv(s, &mut buf)) {
            Ok(0) => return ctx.m.fail("rpc peer closed", None),
            Ok(n) => {
                if !conn.up_rx.verify(ctx.pat, &buf[..n]) {
                    ctx.m.fail("rpc request mismatch", None);
                }
                ctx.m.payload += n as u64;
                f.served = conn.up_rx.pos / MSG as u64;
            }
            Err(NkError::WouldBlock) => break,
            Err(e) => return ctx.m.fail("rpc server recv", Some(e)),
        }
    }
    while f.replied < f.served {
        let data = ctx.pat.at(&conn.down_tx, MSG - f.reply_partial);
        match call(ctx.tr, Kind::Send, s, f.replied, || g.send(s, data)) {
            Ok(n) => {
                conn.down_tx.pos += n as u64;
                f.reply_partial += n;
                if f.reply_partial == MSG {
                    f.reply_partial = 0;
                    f.replied += 1;
                }
            }
            Err(NkError::WouldBlock) => return,
            Err(e) => return ctx.m.fail("rpc reply", Some(e)),
        }
    }
}

fn rpc_client(c: &mut Cluster, conn: &mut Conn, f: &mut RpcFlow, ctx: &mut Ctx) {
    let g = guest(c, conn.client);
    let mut buf = [0u8; RPC_WINDOW as usize * MSG];
    let s = conn.csock;
    loop {
        match call(ctx.tr, Kind::Recv, s, f.done, || g.recv(s, &mut buf)) {
            Ok(0) => return ctx.m.fail("rpc peer closed", None),
            Ok(n) => {
                if !conn.down_rx.verify(ctx.pat, &buf[..n]) {
                    ctx.m.fail("rpc reply mismatch", None);
                }
                ctx.m.payload += n as u64;
                let now = ctx.now();
                let complete = conn.down_rx.pos / MSG as u64;
                while f.done < complete {
                    ctx.m.done(f.sent_at[(f.done % RPC_WINDOW) as usize], now);
                    f.done += 1;
                }
            }
            Err(NkError::WouldBlock) => break,
            Err(e) => return ctx.m.fail("rpc client recv", Some(e)),
        }
    }
    while f.sent < f.done + RPC_WINDOW {
        if f.partial == 0 {
            f.sent_at[(f.sent % RPC_WINDOW) as usize] = ctx.now();
            ctx.m.attempted += 1;
        }
        let data = ctx.pat.at(&conn.up_tx, MSG - f.partial);
        match call(ctx.tr, Kind::Send, s, f.sent, || g.send(s, data)) {
            Ok(n) => {
                conn.up_tx.pos += n as u64;
                f.partial += n;
                if f.partial == MSG {
                    f.partial = 0;
                    f.sent += 1;
                }
            }
            Err(NkError::WouldBlock) => return,
            Err(e) => return ctx.m.fail("rpc request", Some(e)),
        }
    }
}

fn churn_server(c: &mut Cluster, sv: &mut ChurnServer, ctx: &mut Ctx) {
    let g = guest(c, sv.me);
    let ls = sv.listener;
    loop {
        match call(ctx.tr, Kind::Accept, ls, 0, || g.accept(ls)) {
            Ok((s, _)) => sv.conns.push((s, 0, 0)),
            Err(NkError::WouldBlock) => break,
            Err(e) => return ctx.m.fail("churn accept", Some(e)),
        }
    }
    let mut buf = [0u8; MSG];
    let mut i = 0;
    while i < sv.conns.len() {
        let (s, ref mut got, ref mut sent) = sv.conns[i];
        let mut dead = false;
        // Close one pass after the reply went out, not in the same pass: a
        // Close NQE travels on the job queue and overtakes a Send still on
        // the send queue, so the NSM would drop the reply (a known defect;
        // see README.md).
        let replied_before = *sent == MSG;
        while *got < MSG {
            match call(ctx.tr, Kind::Recv, s, 0, || {
                g.recv(s, &mut buf[..MSG - *got])
            }) {
                Ok(0) => {
                    ctx.m.fail("churn request cut short", None);
                    dead = true;
                    break;
                }
                Ok(n) => {
                    if !sv.up_rx.verify(ctx.pat, &buf[..n]) {
                        ctx.m.fail("churn request mismatch", None);
                    }
                    ctx.m.payload += n as u64;
                    *got += n;
                }
                Err(NkError::WouldBlock) => break,
                Err(e) => {
                    ctx.m.fail("churn server recv", Some(e));
                    dead = true;
                    break;
                }
            }
        }
        while !dead && *got == MSG && *sent < MSG {
            let data = ctx.pat.at(&sv.down_tx, MSG - *sent);
            match call(ctx.tr, Kind::Send, s, 0, || g.send(s, data)) {
                Ok(n) => {
                    sv.down_tx.pos += n as u64;
                    *sent += n;
                }
                Err(NkError::WouldBlock) => break,
                Err(e) => {
                    ctx.m.fail("churn reply", Some(e));
                    dead = true;
                }
            }
        }
        if dead || replied_before {
            if let Err(e) = call(ctx.tr, Kind::Close, s, 0, || g.close(s)) {
                ctx.m.fail("churn server close", Some(e));
            }
            sv.conns.swap_remove(i);
        } else {
            i += 1;
        }
    }
}

fn churn_client(c: &mut Cluster, cl: &mut ChurnClient, ctx: &mut Ctx) {
    let g = guest(c, cl.me);
    let mut buf = [0u8; MSG];
    // At most two rounds: finish the open connection, then (closed loop)
    // start the next one in the same pass.
    for _ in 0..2 {
        let s = match cl.sock {
            Some(s) => s,
            None => {
                cl.started_ns = ctx.now();
                ctx.m.attempted += 1;
                let t0 = ctx.tr.start();
                let s = match g.socket() {
                    Ok(s) => s,
                    Err(e) => return ctx.m.fail("churn socket", Some(e)),
                };
                ctx.tr.leaf(Kind::Socket, "client", t0, s.0, 0);
                if let Err(e) = call(ctx.tr, Kind::Connect, s, 0, || g.connect(s, cl.dst)) {
                    return ctx.m.fail("churn connect", Some(e));
                }
                cl.sock = Some(s);
                cl.sent = 0;
                cl.got = 0;
                s
            }
        };
        while cl.sent < MSG {
            let data = ctx.pat.at(&cl.up_tx, MSG - cl.sent);
            match call(ctx.tr, Kind::Send, s, 0, || g.send(s, data)) {
                Ok(n) => {
                    cl.up_tx.pos += n as u64;
                    cl.sent += n;
                }
                Err(NkError::WouldBlock) => break,
                Err(e) => return ctx.m.fail("churn request", Some(e)),
            }
        }
        while cl.got < MSG {
            match call(ctx.tr, Kind::Recv, s, 0, || {
                g.recv(s, &mut buf[..MSG - cl.got])
            }) {
                Ok(0) => return ctx.m.fail("churn reply cut short", None),
                Ok(n) => {
                    if !cl.down_rx.verify(ctx.pat, &buf[..n]) {
                        ctx.m.fail("churn reply mismatch", None);
                    }
                    ctx.m.payload += n as u64;
                    cl.got += n;
                }
                Err(NkError::WouldBlock) => return,
                Err(e) => return ctx.m.fail("churn client recv", Some(e)),
            }
        }
        let now = ctx.now();
        ctx.m.done(cl.started_ns, now);
        cl.sock = None;
        if let Err(e) = call(ctx.tr, Kind::Close, s, 0, || g.close(s)) {
            return ctx.m.fail("churn client close", Some(e));
        }
    }
}
