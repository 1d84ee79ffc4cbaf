//! Spans recorded around calls into each layer's public functions.
//!
//! The benchmark times every call it makes whether tracing is on or not;
//! with tracing on it also keeps a [`Span`] per call, in memory, and
//! writes them out when the run ends. A layer that calls another
//! internally (pipeline workers and server workers call the codec, the
//! store calls the codec per row) gets *replay* children: the same inputs
//! run again through the lower layer's public function right after the
//! call, outside every timed region. A layer's self time is its spans'
//! time minus their replayed children's time.

use crate::util::{jstr, num};
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    Core,
    Entropy,
    Pipeline,
    Service,
    Store,
}

pub const LAYERS: [Layer; 5] = [
    Layer::Core,
    Layer::Entropy,
    Layer::Pipeline,
    Layer::Service,
    Layer::Store,
];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Core => "core",
            Layer::Entropy => "entropy",
            Layer::Pipeline => "pipeline",
            Layer::Service => "service",
            Layer::Store => "store",
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// A call the workload itself makes.
    Call,
    /// A lower layer re-run on a `Call`'s inputs, to split its time.
    Replay,
    /// A per-layer measurement on the workload's inputs, off its path.
    Probe,
}

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    pub kind: Kind,
    /// Seconds since the run's clock origin.
    pub start: f64,
    pub end: f64,
    /// 1-based id of the span this one splits (0: none).
    pub parent: u32,
    pub req: u64,
    /// Uncompressed bytes the call covered.
    pub bytes: u64,
    /// Public-function calls the span covers (a replay may batch many).
    pub calls: u32,
    /// Share of this span's time that ran inside its parent's interval
    /// (`1/workers` for work a pool spread over `workers` threads).
    pub share: f64,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

pub struct Tracer {
    pub on: bool,
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Tracer {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
        }
    }

    /// An empty tracer on the same clock, for another thread.
    pub fn child(&self) -> Tracer {
        Tracer::new(self.on, self.origin)
    }

    /// Start a span that later spans can name as their parent; 0 when
    /// tracing is off. End it with [`Tracer::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        layer: Layer,
        kind: Kind,
        req: u64,
        bytes: u64,
    ) -> u32 {
        if !self.on {
            return 0;
        }
        let t = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            layer,
            kind,
            start: t,
            end: t,
            parent: 0,
            req,
            bytes,
            calls: 1,
            share: 1.0,
        });
        self.spans.len() as u32
    }

    pub fn close(&mut self, id: u32) {
        if id != 0 {
            self.spans[id as usize - 1].end = self.origin.elapsed().as_secs_f64();
        }
    }

    /// Run `f`, returning its result, its duration in seconds and the id
    /// of the span recorded for it (0 when tracing is off).
    #[allow(clippy::too_many_arguments)]
    pub fn time<R>(
        &mut self,
        name: &'static str,
        layer: Layer,
        kind: Kind,
        parent: u32,
        req: u64,
        bytes: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64, u32) {
        let t0 = Instant::now();
        let r = std::hint::black_box(f());
        let t1 = Instant::now();
        let secs = (t1 - t0).as_secs_f64();
        if !self.on {
            return (r, secs, 0);
        }
        self.spans.push(Span {
            name,
            layer,
            kind,
            start: (t0 - self.origin).as_secs_f64(),
            end: (t1 - self.origin).as_secs_f64(),
            parent,
            req,
            bytes,
            calls: 1,
            share: 1.0,
        });
        (r, secs, self.spans.len() as u32)
    }

    /// Adjust the last recorded span (no-op when tracing is off).
    pub fn last(&mut self, calls: u32, share: f64) {
        if let Some(s) = self.spans.last_mut() {
            s.calls = calls;
            s.share = share;
        }
    }

    /// Append another thread's spans, re-basing their ids.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != 0 {
                s.parent += base;
            }
            s
        }));
    }

    /// Self time per layer over `Call` and `Replay` spans: each span's
    /// duration minus its children's (scaled by their `share`).
    pub fn self_seconds(&self) -> [f64; 5] {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if s.parent != 0 {
                child[s.parent as usize - 1] += s.dur() * s.share;
            }
        }
        let mut out = [0.0; 5];
        for (s, c) in self.spans.iter().zip(&child) {
            if s.kind != Kind::Probe {
                let i = LAYERS.iter().position(|&l| l == s.layer).expect("layer");
                out[i] += (s.dur() - c).max(0.0);
            }
        }
        out
    }

    /// Calls per layer over `Call` spans.
    pub fn calls(&self) -> [u64; 5] {
        let mut out = [0u64; 5];
        for s in self.spans.iter().filter(|s| s.kind == Kind::Call) {
            let i = LAYERS.iter().position(|&l| l == s.layer).expect("layer");
            out[i] += s.calls as u64;
        }
        out
    }

    fn probes(&self, name: &str) -> impl Iterator<Item = &Span> {
        let name = name.to_string();
        self.spans
            .iter()
            .filter(move |s| s.kind == Kind::Probe && s.name == name)
    }

    /// 10⁹ uncompressed bytes per second over the probe spans `name`.
    pub fn gbps(&self, name: &str) -> f64 {
        let (b, t) = self
            .probes(name)
            .fold((0u64, 0.0), |(b, t), s| (b + s.bytes, t + s.dur()));
        b as f64 / 1e9 / t
    }

    /// Mean microseconds per public-function call over probe spans `name`.
    pub fn us_per_call(&self, name: &str) -> f64 {
        let (c, t) = self
            .probes(name)
            .fold((0u64, 0.0), |(c, t), s| (c + s.calls as u64, t + s.dur()));
        t * 1e6 / c as f64
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"id\": {}, \"name\": {}, \"layer\": \"{}\", \"kind\": \"{:?}\", \"start_us\": {}, \"end_us\": {}, \"parent\": {}, \"req\": {}, \"bytes\": {}, \"calls\": {}, \"share\": {}}}",
                i + 1,
                jstr(s.name),
                s.layer.name(),
                s.kind,
                num(s.start * 1e6),
                num(s.end * 1e6),
                s.parent,
                s.req,
                s.bytes,
                s.calls,
                num(s.share)
            )?;
        }
        w.flush()
    }
}
