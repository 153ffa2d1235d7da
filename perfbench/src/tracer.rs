//! In-memory spans for the traced replay.
//!
//! Every layer call is timed and folded into per-layer self time (its
//! duration minus the time its child spans cover). Whole spans — name,
//! start, end, parent, request id — are kept only for sampled chunks: a
//! root span is sampled when its request-id range holds a multiple of
//! the sampling period, so the choice depends on sequence numbers alone,
//! and all its descendants are kept with it.

use std::io::Write;
use std::path::Path;

use wmlp_loadgen::timing::Clock;

/// The layers a replayed request passes through, in server order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Root: one connection's chunk of requests, end to end.
    Chunk,
    NetRead,
    Decode,
    Hop,
    Route,
    Ring,
    Engine,
    Promote,
    Flush,
    Put,
    Get,
    Doorbell,
    Encode,
    NetWrite,
}

pub const LAYERS: [Layer; 14] = [
    Layer::Chunk,
    Layer::NetRead,
    Layer::Decode,
    Layer::Hop,
    Layer::Route,
    Layer::Ring,
    Layer::Engine,
    Layer::Promote,
    Layer::Flush,
    Layer::Put,
    Layer::Get,
    Layer::Doorbell,
    Layer::Encode,
    Layer::NetWrite,
];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Chunk => "chunk",
            Layer::NetRead => "net.read",
            Layer::Decode => "codec.decode",
            Layer::Hop => "router.hop",
            Layer::Route => "router.route",
            Layer::Ring => "ring.handoff",
            Layer::Engine => "engine.step",
            Layer::Promote => "store.promote",
            Layer::Flush => "store.flush",
            Layer::Put => "store.put",
            Layer::Get => "store.get",
            Layer::Doorbell => "doorbell.push_drain",
            Layer::Encode => "codec.encode",
            Layer::NetWrite => "net.write",
        }
    }
}

/// Accumulated self time and work of one layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct Total {
    pub self_ns: u64,
    pub calls: u64,
    /// Items (frames, requests, jobs) the calls handled.
    pub items: u64,
}

impl Total {
    /// Self time per item, in ns (0 when the layer never ran).
    pub fn ns_per_item(&self) -> f64 {
        if self.items == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.items as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    start: u64,
    end: u64,
    parent: Option<usize>,
    req: u64,
    items: u64,
}

#[derive(Debug)]
struct Open {
    layer: Layer,
    start: u64,
    child_ns: u64,
    items: u64,
    idx: Option<usize>,
}

pub struct Tracer {
    clock: Clock,
    sample_every: u64,
    sampled: bool,
    spans: Vec<Span>,
    stack: Vec<Open>,
    totals: [Total; LAYERS.len()],
}

impl Tracer {
    pub fn new(clock: Clock, sample_every: u64) -> Self {
        Tracer {
            clock,
            sample_every: sample_every.max(1),
            sampled: false,
            spans: Vec::new(),
            stack: Vec::new(),
            totals: [Total::default(); LAYERS.len()],
        }
    }

    /// Open a span of `layer` covering `items` items starting at request
    /// id `req`.
    pub fn enter(&mut self, layer: Layer, req: u64, items: u64) {
        if self.stack.is_empty() {
            let n = self.sample_every;
            self.sampled = req.is_multiple_of(n) || req / n != (req + items.max(1) - 1) / n;
        }
        let start = self.clock.now_nanos();
        let idx = self.sampled.then(|| {
            self.spans.push(Span {
                layer,
                start,
                end: start,
                parent: self.stack.last().and_then(|o| o.idx),
                req,
                items,
            });
            self.spans.len() - 1
        });
        self.stack.push(Open {
            layer,
            start,
            child_ns: 0,
            items,
            idx,
        });
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let end = self.clock.now_nanos();
        let Some(o) = self.stack.pop() else {
            return;
        };
        let dur = end.saturating_sub(o.start);
        let t = &mut self.totals[o.layer as usize];
        t.self_ns += dur.saturating_sub(o.child_ns);
        t.calls += 1;
        t.items += o.items;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(i) = o.idx {
            self.spans[i].end = end;
        }
    }

    pub fn total(&self, layer: Layer) -> Total {
        self.totals[layer as usize]
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Write the kept spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{},\"items\":{}}}",
                s.layer.name(),
                s.start,
                s.end,
                s.req,
                s.items
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_sampling_follows_ids() {
        let mut tr = Tracer::new(Clock::start(), 100);
        tr.enter(Layer::Chunk, 64, 64);
        tr.enter(Layer::Engine, 64, 2);
        tr.enter(Layer::Get, 64, 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.exit();
        tr.exit();
        tr.exit();
        let (get, engine) = (tr.total(Layer::Get), tr.total(Layer::Engine));
        assert!(get.self_ns >= 2_000_000);
        assert!(
            engine.self_ns < get.self_ns,
            "the child's time is not the parent's"
        );
        assert_eq!((engine.calls, engine.items), (1, 2));
        // Ids 64..128 hold 100, so the chunk and its children are kept.
        assert_eq!(tr.span_count(), 3);
        tr.enter(Layer::Chunk, 128, 64);
        tr.exit();
        assert_eq!(tr.span_count(), 3, "ids 128..192 hold no multiple of 100");
    }
}
