//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans are kept in memory while the traced window runs and written as
//! Chrome-trace JSON (load it in `chrome://tracing` or Perfetto) when it
//! ends, together with a per-layer self-time table. Nothing here is
//! inside the program under test: a span is two `Instant` reads taken by
//! the benchmark on either side of a public call.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Id of "no parent".
pub const ROOT: u32 = u32::MAX;

/// Spans written to the trace file; the self-time table uses all of
/// them. Keeps the file loadable (train.lstm records ~100 000).
const MAX_WRITTEN: usize = 40_000;

pub struct Span {
    pub id: u32,
    pub parent: u32,
    /// Index into [`Tracer::names`].
    pub name: u32,
    /// The repo module the time belongs to.
    pub layer: &'static str,
    /// Track: spans on another track than their parent ran concurrently
    /// with it and are not subtracted from its self time.
    pub track: u32,
    pub start_us: f64,
    pub end_us: f64,
    /// Id of the span's outermost ancestor (itself for a root).
    pub root: u32,
}

pub struct Tracer {
    t0: Instant,
    names: Vec<String>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Microseconds since the tracer was made.
    pub fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Interns a span name (done before the timed loop for names that
    /// repeat).
    pub fn name(&mut self, name: &str) -> u32 {
        match self.names.iter().position(|n| n == name) {
            Some(i) => i as u32,
            None => {
                self.names.push(name.to_string());
                (self.names.len() - 1) as u32
            }
        }
    }

    pub fn span(
        &mut self,
        name: u32,
        layer: &'static str,
        track: u32,
        parent: u32,
        start_us: f64,
        end_us: f64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        let root = if parent == ROOT {
            id
        } else {
            self.spans[parent as usize].root
        };
        self.spans.push(Span {
            id,
            parent,
            name,
            layer,
            track,
            start_us,
            end_us,
            root,
        });
        id
    }

    /// Self time per layer, in microseconds, over the trees whose root
    /// `keep` accepts: a span's duration minus the part its same-track
    /// children cover.
    pub fn self_times(&self, keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, f64> {
        let mut covered = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT && self.spans[s.parent as usize].track == s.track {
                covered[s.parent as usize] += s.end_us - s.start_us;
            }
        }
        let mut out = BTreeMap::new();
        for s in self
            .spans
            .iter()
            .filter(|s| keep(&self.spans[s.root as usize]))
        {
            let own = (s.end_us - s.start_us - covered[s.id as usize]).max(0.0);
            *out.entry(s.layer).or_insert(0.0) += own;
        }
        out
    }

    /// Writes the Chrome-trace file: one complete (`"ph":"X"`) event per
    /// span, `args` carrying the span's id and its parent's.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(w, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
        for (i, s) in self.spans.iter().take(MAX_WRITTEN).enumerate() {
            if i > 0 {
                write!(w, ",")?;
            }
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            write!(
                w,
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                escape(&self.names[s.name as usize]),
                s.layer,
                s.start_us,
                s.end_us - s.start_us,
                s.track,
                s.id,
                parent
            )?;
        }
        writeln!(w, "\n]}}")?;
        w.flush()
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}
