//! Standalone per-layer rigs: each drives one layer's public API in
//! isolation and reports wall ns per operation (the median over timed
//! batches). They measure what `Cluster::step` hides: the layers inside a
//! step cannot be timed from outside it.

use crate::trace::{median, Kind, Tracer};
use crate::workloads::DT_NS;
use nk_engine::CoreEngine;
use nk_fabric::{Frame, LinkConfig, TorSwitch, VirtualSwitch};
use nk_netstack::{Segment, StackConfig, TcpStack};
use nk_queue::{queue_set_pair, WakeState};
use nk_shmem::HugepageRegion;
use nk_types::{IsolationPolicy, Nqe, NsmId, OpType, QueueSetId, SockAddr, SocketId, VmId};
use std::hint::black_box;
use std::time::Instant;

/// Ethernet + IP + TCP header bytes of a frame.
const HEADERS: usize = 54;
const A_IP: u32 = 0x0A63_0001;
const B_IP: u32 = 0x0A63_0002;
const PORT: u16 = 7000;

/// Every rig's ns per operation.
pub struct Rigs {
    pub engine_b1: f64,
    pub engine_b256: f64,
    pub spsc: f64,
    pub copy_64: f64,
    pub copy_64k: f64,
    pub seg_64: f64,
    pub seg_mss: f64,
    pub handshake: f64,
    pub tor: f64,
    pub vswitch: f64,
}

/// Time `reps` batches of `f` (after a warm-up), one span per batch; `f`
/// returns the operations it did and the wall ns they took. Returns the
/// median ns per operation.
fn measure(
    tr: &mut Tracer,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut() -> (u64, u64),
) -> f64 {
    for _ in 0..reps / 10 + 1 {
        black_box(f());
    }
    let t_rig = tr.start();
    let rig = tr.open(Kind::Rig, name);
    let mut per_op = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = tr.start();
        let (ops, ns) = black_box(f());
        tr.leaf(Kind::RigCall, name, t0, 0, ops);
        per_op.push(ns as f64 / ops.max(1) as f64);
    }
    tr.close(rig, Kind::Rig, t_rig);
    median(&mut per_op)
}

/// Wall ns of one call of `f`, with the operation count it returns.
fn timed(f: impl FnOnce() -> u64) -> (u64, u64) {
    let t0 = Instant::now();
    let ops = f();
    (ops, t0.elapsed().as_nanos() as u64)
}

/// CoreEngine switching (Fig. 11's measured counterpart): 1024 NQEs per
/// batch through `CoreEngine::poll` between two `queue_set_pair`s.
fn engine(tr: &mut Tracer, batch: usize) -> f64 {
    let (mut guest, vm_end) = queue_set_pair(4096);
    let (nsm_switch, mut nsm) = queue_set_pair(4096);
    let mut ce = CoreEngine::new(IsolationPolicy::RoundRobin, batch);
    ce.register_vm(VmId(1), vec![vm_end], WakeState::new(), 0, None, None, 0)
        .expect("rig VM registers");
    ce.register_nsm(NsmId(1), vec![nsm_switch])
        .expect("rig NSM registers");
    ce.map_vm(VmId(1), NsmId(1)).expect("rig VM maps");
    let nqe = Nqe::new(OpType::Connect, VmId(1), QueueSetId(0), SocketId(1));
    let mut sink = Vec::with_capacity(1024);
    let name = if batch == 1 {
        "engine.b1"
    } else {
        "engine.b256"
    };
    measure(tr, name, 300, || {
        timed(|| {
            for _ in 0..1024 {
                guest.submit(nqe).expect("rig queue has room");
            }
            while ce.poll(0) > 0 {}
            sink.clear();
            nsm.pop_requests(&mut sink, 1024);
            assert_eq!(sink.len(), 1024, "every NQE is switched");
            1024
        })
    })
}

/// SPSC ring: one push and one pop per item.
fn spsc(tr: &mut Tracer) -> f64 {
    let (mut tx, mut rx) = nk_queue::channel::<u64>(2048);
    measure(tr, "queue.spsc", 300, || {
        timed(|| {
            for i in 0..1024u64 {
                tx.push(i).expect("ring has room");
            }
            for _ in 0..1024 {
                black_box(rx.pop().expect("ring has the item"));
            }
            1024
        })
    })
}

/// Hugepage copy (Fig. 12's measured counterpart): GuestLib's
/// `alloc_and_write`, then ServiceLib's `read` and `free`.
fn copy(tr: &mut Tracer, size: usize) -> f64 {
    let region = HugepageRegion::new(4);
    let payload = vec![0xA5u8; size];
    let mut out = vec![0u8; size];
    let iters = (256 * 64 / size).max(4) as u64;
    let name = if size == 64 {
        "shmem.copy_64B"
    } else {
        "shmem.copy_64KiB"
    };
    measure(tr, name, 200, || {
        timed(|| {
            for _ in 0..iters {
                let h = region.alloc_and_write(&payload).expect("region has room");
                region.read(h, &mut out).expect("chunk is readable");
                region.free(h).expect("chunk frees");
                black_box(&out);
            }
            iters
        })
    })
}

/// Two `TcpStack`s joined by a `VirtualSwitch`, driven by `tick`.
struct TcpPair {
    sw: VirtualSwitch<Segment>,
    a: TcpStack,
    b: TcpStack,
    listener: SocketId,
    now: u64,
}

impl TcpPair {
    fn new() -> Self {
        let mut sw = VirtualSwitch::new();
        let pa = sw.attach(A_IP);
        let pb = sw.attach(B_IP);
        let a = TcpStack::new(StackConfig::new(A_IP), pa);
        let mut b = TcpStack::new(StackConfig::new(B_IP), pb);
        let listener = b.socket();
        b.bind(listener, SockAddr::new(0, PORT)).expect("rig binds");
        b.listen(listener, 64).expect("rig listens");
        TcpPair {
            sw,
            a,
            b,
            listener,
            now: 0,
        }
    }

    fn tick(&mut self) {
        self.now += DT_NS;
        self.a.tick(self.now);
        self.b.tick(self.now);
        self.sw.step(self.now);
    }

    fn segments(&self) -> u64 {
        self.a.stats().segments_out + self.b.stats().segments_out
    }

    /// Open a connection a → b; returns (client, server) once accepted.
    fn connect(&mut self) -> (SocketId, SocketId) {
        let c = self.a.socket();
        self.a
            .connect(c, SockAddr::new(B_IP, PORT), self.now)
            .expect("rig connects");
        for _ in 0..1000 {
            self.tick();
            if let Ok((s, _)) = self.b.accept(self.listener) {
                return (c, s);
            }
        }
        panic!("rig handshake did not complete");
    }

    /// Send `data` a → b and tick until b has read all of it.
    fn transfer(&mut self, (c, s): (SocketId, SocketId), data: &[u8], buf: &mut [u8]) {
        let (mut sent, mut got) = (0, 0);
        for _ in 0..100_000 {
            if sent < data.len() {
                sent += self.a.send(c, &data[sent..]).unwrap_or(0);
            }
            self.tick();
            while let Ok(n) = self.b.recv(s, buf) {
                if n == 0 {
                    break;
                }
                got += n;
            }
            if got == data.len() {
                return;
            }
        }
        panic!("rig transfer stalled");
    }
}

/// ns per TCP segment (data and ACKs, both stacks) moving `size`-byte
/// application writes, one write per transfer.
fn segments(tr: &mut Tracer, size: usize) -> f64 {
    let mut pair = TcpPair::new();
    let conn = pair.connect();
    let data = vec![0x5Au8; size];
    let mut buf = vec![0u8; 64 * 1024];
    let writes = if size <= 64 { 64 } else { 1 };
    let name = if size <= 64 {
        "netstack.seg_64B"
    } else {
        "netstack.seg_mss"
    };
    measure(tr, name, 100, || {
        let before = pair.segments();
        let (_, ns) = timed(|| {
            for _ in 0..writes {
                pair.transfer(conn, &data, &mut buf);
            }
            0
        });
        (pair.segments() - before, ns)
    })
}

/// ns per handshake: `connect` through the server's `accept`. Teardown of
/// each connection happens outside the timed part.
fn handshake(tr: &mut Tracer) -> f64 {
    let mut pair = TcpPair::new();
    measure(tr, "netstack.handshake", 100, || {
        let t0 = Instant::now();
        let (c, s) = pair.connect();
        let ns = t0.elapsed().as_nanos() as u64;
        let _ = pair.a.close(c);
        let _ = pair.b.close(s);
        for _ in 0..8 {
            pair.tick();
        }
        (1, ns)
    })
}

/// Frames of `wire` bytes forwarded endpoint → endpoint by one `step`.
fn forward(
    tr: &mut Tracer,
    name: &'static str,
    wire: usize,
    (src, dst): (nk_fabric::Port<u64>, nk_fabric::Port<u64>),
    mut step: impl FnMut(u64) -> usize,
) -> f64 {
    let mut now = 0;
    measure(tr, name, 300, || {
        timed(|| {
            for i in 0..256u64 {
                src.send(Frame {
                    src: A_IP,
                    dst: B_IP,
                    flow_hash: i,
                    wire_bytes: wire,
                    payload: i,
                });
            }
            now += DT_NS;
            step(now);
            let mut n = 0;
            while dst.recv().is_some() {
                n += 1;
            }
            assert_eq!(n, 256, "every frame is forwarded");
            n
        })
    })
}

/// Run every rig; fabric frames carry `message` payload bytes (capped at
/// one MSS), the size the workload puts on the wire.
pub fn run(tr: &mut Tracer, message: usize) -> Rigs {
    let wire = message.min(nk_types::constants::MSS) + HEADERS;
    let mut tor = TorSwitch::<u64>::new();
    let tor_ports = (
        tor.attach_endpoint(A_IP, LinkConfig::ideal()),
        tor.attach_endpoint(B_IP, LinkConfig::ideal()),
    );
    let mut vsw = VirtualSwitch::<u64>::new();
    let vsw_ports = (vsw.attach(A_IP), vsw.attach(B_IP));
    Rigs {
        engine_b1: engine(tr, 1),
        engine_b256: engine(tr, 256),
        spsc: spsc(tr),
        copy_64: copy(tr, 64),
        copy_64k: copy(tr, 64 * 1024),
        seg_64: segments(tr, 64),
        seg_mss: segments(tr, 64 * 1024),
        handshake: handshake(tr),
        tor: forward(tr, "fabric.tor", wire, tor_ports, |now| tor.step(now)),
        vswitch: forward(tr, "fabric.vswitch", wire, vsw_ports, |now| vsw.step(now)),
    }
}
