//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Every timed call goes through [`Tracer::scope`] whether tracing is on
//! or off, so the traced and untraced passes time the same way; with
//! tracing on the span is also kept in memory (name, start, end, parent,
//! rep, thread) and written out as a Chrome trace when the run ends.

use famg_prof::json::Json;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.module.operation`.
    pub name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the span that caused this one.
    parent: Option<usize>,
    /// Which repetition of the workload this belongs to.
    rep: u32,
    /// 0 for the caller, `rank + 1` for a simulated rank's thread.
    tid: u32,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    rep: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder; with `on == false` it only times.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            rep: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Switches recording on or off (between repetitions).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Tags the spans that follow with repetition `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` as a child span of the current one and returns its result
    /// with the elapsed seconds.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let id = self.on.then(|| {
            self.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: self.stack.last().copied(),
                rep: self.rep,
                tid: 0,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let t0 = Instant::now();
        let out = f(self);
        let t1 = Instant::now();
        if let Some(id) = id {
            self.stack.pop();
            let (s, e) = (self.ns(t0), self.ns(t1));
            (self.spans[id].start_ns, self.spans[id].end_ns) = (s, e);
        }
        (out, (t1 - t0).as_secs_f64())
    }

    /// Records a span measured elsewhere (a rank thread cannot borrow the
    /// tracer) as a child of the current span.
    pub fn record(&mut self, name: &'static str, t0: Instant, t1: Instant, tid: u32) {
        if self.on {
            self.spans.push(Span {
                name,
                start_ns: self.ns(t0),
                end_ns: self.ns(t1),
                parent: self.stack.last().copied(),
                rep: self.rep,
                tid,
            });
        }
    }

    /// Self time of every span: its duration minus the part its children
    /// on the same thread cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                if self.spans[p].tid == s.tid {
                    own[p] = own[p].saturating_sub(s.dur_ns());
                }
            }
        }
        own
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto): one
    /// complete event per span, `pid` = repetition, `tid` = thread.
    pub fn chrome_trace(&self) -> String {
        let events = self
            .spans
            .iter()
            .zip(self.self_ns())
            .enumerate()
            .map(|(id, (s, own))| {
                let parent = s.parent.map_or(Json::Null, |p| Json::int(p as u64));
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    ("ph".into(), Json::Str("X".into())),
                    ("ts".into(), Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur".into(), Json::Num(s.dur_ns() as f64 / 1e3)),
                    ("pid".into(), Json::int(u64::from(s.rep))),
                    ("tid".into(), Json::int(u64::from(s.tid))),
                    (
                        "args".into(),
                        Json::Obj(vec![
                            ("id".into(), Json::int(id as u64)),
                            ("parent".into(), parent),
                            ("self_us".into(), Json::Num(own as f64 / 1e3)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![("traceEvents".into(), Json::Arr(events))]).dump()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn nesting_parents_and_self_time() {
        let mut tr = Tracer::new(true);
        let ((), outer) = tr.scope("outer", |tr| {
            tr.scope("inner", |_| std::thread::sleep(Duration::from_millis(5)));
            let t0 = Instant::now();
            tr.record("rank", t0, t0 + Duration::from_millis(50), 1);
        });
        assert!(outer >= 0.005);
        assert_eq!(tr.spans.len(), 3);
        assert_eq!(tr.spans[1].parent, Some(0));
        assert_eq!(tr.spans[2].parent, Some(0));
        let own = tr.self_ns();
        // The other thread's span covers none of the caller's time.
        assert_eq!(own[0], tr.spans[0].dur_ns() - tr.spans[1].dur_ns());
        assert_eq!(own[1], tr.spans[1].dur_ns());
        assert!(tr.chrome_trace().contains("\"traceEvents\""));
    }

    #[test]
    fn off_times_but_keeps_nothing() {
        let mut tr = Tracer::new(false);
        let (v, s) = tr.scope("x", |_| 7);
        assert_eq!(v, 7);
        assert!(s >= 0.0);
        assert!(tr.spans.is_empty());
    }
}
