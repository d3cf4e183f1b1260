//! In-memory span recorder and the order statistics the report uses.
//!
//! Spans are recorded from the benchmark's own code around the calls it
//! makes into each layer: one per `Cluster::step`, one per `GuestLib`
//! socket call and one per rig call. The recorder keeps the first
//! [`MAX_SPANS`] spans for the trace file and, for every span kind, every
//! duration (up to [`MAX_SAMPLES`]) for the percentiles. With tracing off
//! every hook is a single branch.

use std::io::Write;
use std::time::Instant;

/// Spans kept for the trace file; later spans still feed the percentiles.
pub const MAX_SPANS: usize = 200_000;
/// Durations kept per span kind.
const MAX_SAMPLES: usize = 1 << 23;
/// Parent id of a root span, or of a span whose parent was not kept.
pub const NO_PARENT: u32 = u32::MAX;

/// What a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Episode,
    Setup,
    Gen,
    Step,
    Socket,
    Connect,
    Send,
    Recv,
    Accept,
    Close,
    Rig,
    RigCall,
}

const KINDS: usize = 12;

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Episode => "episode",
            Kind::Setup => "setup",
            Kind::Gen => "gen.pass",
            Kind::Step => "cluster.step",
            Kind::Socket => "guest.socket",
            Kind::Connect => "guest.connect",
            Kind::Send => "guest.send",
            Kind::Recv => "guest.recv",
            Kind::Accept => "guest.accept",
            Kind::Close => "guest.close",
            Kind::Rig => "rig",
            Kind::RigCall => "rig.call",
        }
    }
}

/// One recorded span. `sock` and `req` are the socket id and the request
/// id (the rpc request sent or completed) where they apply, else 0.
#[derive(Clone, Debug)]
pub struct Span {
    pub kind: Kind,
    pub label: &'static str,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub sock: u32,
    pub req: u64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Spans not kept because the buffer was full.
    dropped: u64,
    /// Innermost open span, parent of the next one.
    parent: u32,
    durations: Vec<Vec<u32>>,
    /// Socket calls that returned `WouldBlock`, and all socket calls.
    pub wouldblock: u64,
    pub calls: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
            parent: NO_PARENT,
            durations: vec![Vec::new(); KINDS],
            wouldblock: 0,
            calls: 0,
        }
    }

    /// Timestamp for a span start; 0 when tracing is off.
    #[inline]
    pub fn start(&self) -> u64 {
        if self.on {
            self.now()
        } else {
            0
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span that encloses later ones; returns its id.
    pub fn open(&mut self, kind: Kind, label: &'static str) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        let start_ns = self.now();
        let id = self.push(Span {
            kind,
            label,
            parent: self.parent,
            start_ns,
            end_ns: start_ns,
            sock: 0,
            req: 0,
        });
        if id != NO_PARENT {
            self.parent = id;
        }
        id
    }

    /// Close a span opened with [`Tracer::open`]; `start` is the value
    /// [`Tracer::start`] gave just before it.
    pub fn close(&mut self, id: u32, kind: Kind, start: u64) {
        if !self.on {
            return;
        }
        let end = self.now();
        self.sample(kind, end.saturating_sub(start));
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = end;
            self.parent = span.parent;
        }
    }

    /// Record a leaf span that started at `start` and ends now.
    #[inline]
    pub fn leaf(&mut self, kind: Kind, label: &'static str, start: u64, sock: u32, req: u64) {
        if !self.on {
            return;
        }
        let end = self.now();
        self.sample(kind, end.saturating_sub(start));
        self.push(Span {
            kind,
            label,
            parent: self.parent,
            start_ns: start,
            end_ns: end,
            sock,
            req,
        });
    }

    /// Count one socket call and whether it would have blocked.
    #[inline]
    pub fn count_call(&mut self, would_block: bool) {
        if self.on {
            self.calls += 1;
            self.wouldblock += u64::from(would_block);
        }
    }

    fn sample(&mut self, kind: Kind, ns: u64) {
        let v = &mut self.durations[kind as usize];
        if v.len() < MAX_SAMPLES {
            v.push(ns.min(u64::from(u32::MAX)) as u32);
        }
    }

    fn push(&mut self, span: Span) -> u32 {
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return NO_PARENT;
        }
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Durations recorded for one span kind, in ns.
    pub fn durations(&mut self, kind: Kind) -> &mut Vec<u32> {
        &mut self.durations[kind as usize]
    }

    /// Write the kept spans as JSON lines; returns how many were written.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"label\":\"{}\",\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"sock\":{},\"req\":{}}}",
                s.kind.name(),
                s.label,
                s.start_ns,
                s.end_ns,
                s.sock,
                s.req
            )?;
        }
        writeln!(out, "{{\"spans_not_kept\":{}}}", self.dropped)?;
        out.flush()?;
        Ok(self.spans.len())
    }
}

/// The `q`-quantile (0..=1) of `v` by nearest rank; reorders `v`.
pub fn quantile_u32(v: &mut [u32], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
    let (_, x, _) = v.select_nth_unstable(rank);
    f64::from(*x)
}

/// The median of `v`; reorders `v`.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
