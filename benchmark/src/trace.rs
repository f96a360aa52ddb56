//! Spans recorded from the benchmark's own files, around its calls into
//! each layer: name, start, end, parent, session. Kept in memory and
//! written out once, when the run ends.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Microseconds since the recorder was made.
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Spans of one session share this number; 0 is outside any session.
    pub session: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_us - self.start_us) * 1e-6
    }
}

/// One rank's span log. The traced wrappers are called from inside the
/// packages through `&self`, hence the mutex; a rank never contends for it.
#[derive(Clone)]
pub struct Recorder {
    inner: Arc<Mutex<Log>>,
}

struct Log {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    session: u64,
    on: bool,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            inner: Arc::new(Mutex::new(Log {
                t0: Instant::now(),
                spans: Vec::new(),
                open: Vec::new(),
                session: 0,
                on: true,
            })),
        }
    }

    /// A recorder that records nothing: the untraced pass runs the same
    /// code as the traced one with this in hand.
    pub fn off() -> Self {
        let rec = Recorder::new();
        rec.set_on(false);
        rec
    }

    fn log(&self) -> std::sync::MutexGuard<'_, Log> {
        self.inner
            .lock()
            .expect("a rank thread panicked while recording a span")
    }

    /// Spans opened from now on belong to `session`.
    pub fn set_session(&self, session: u64) {
        self.log().session = session;
    }

    /// Turn recording off and on: the untraced twin of a traced request
    /// runs the same code with this off.
    pub fn set_on(&self, on: bool) {
        self.log().on = on;
    }

    /// Run `f` inside a span named `name`.
    pub fn scope<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = {
            let mut log = self.log();
            if log.on {
                let now = log.t0.elapsed().as_secs_f64() * 1e6;
                let (parent, session) = (log.open.last().copied(), log.session);
                log.spans.push(Span {
                    name,
                    start_us: now,
                    end_us: now,
                    parent,
                    session,
                });
                let id = log.spans.len() - 1;
                log.open.push(id);
                Some(id)
            } else {
                None
            }
        };
        let r = f();
        if let Some(id) = id {
            let mut log = self.log();
            log.spans[id].end_us = log.t0.elapsed().as_secs_f64() * 1e6;
            log.open.pop();
        }
        r
    }

    pub fn spans(&self) -> Vec<Span> {
        self.log().spans.clone()
    }
}

/// What one span instance spent, split by where.
#[derive(Debug, Clone, Default)]
pub struct Split {
    pub total: f64,
    /// `total` minus the part of it its child spans cover.
    pub self_time: f64,
    /// Seconds and calls of the direct children, by name.
    pub children: Vec<(&'static str, f64, u64)>,
}

impl Split {
    pub fn child(&self, name: &str) -> (f64, u64) {
        self.children
            .iter()
            .find(|c| c.0 == name)
            .map_or((0.0, 0), |c| (c.1, c.2))
    }
}

/// One [`Split`] per span named `name`, in recording order.
pub fn splits(spans: &[Span], name: &str) -> Vec<Split> {
    let mut out: Vec<(usize, Split)> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == name)
        .map(|(i, s)| {
            (
                i,
                Split {
                    total: s.seconds(),
                    self_time: s.seconds(),
                    children: Vec::new(),
                },
            )
        })
        .collect();
    for s in spans {
        let Some(p) = s.parent else { continue };
        let Ok(at) = out.binary_search_by_key(&p, |(i, _)| *i) else {
            continue;
        };
        let split = &mut out[at].1;
        split.self_time -= s.seconds();
        match split.children.iter_mut().find(|c| c.0 == s.name) {
            Some(c) => {
                c.1 += s.seconds();
                c.2 += 1;
            }
            None => split.children.push((s.name, s.seconds(), 1)),
        }
    }
    out.into_iter().map(|(_, s)| s).collect()
}

/// Durations of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::seconds)
        .collect()
}

/// The span log of every rank as one JSON document.
pub fn to_json(ranks: &[Vec<Span>]) -> String {
    let mut s = String::from("{\"unit\":\"us\",\"spans\":[\n");
    let mut first = true;
    for (rank, spans) in ranks.iter().enumerate() {
        for (id, sp) in spans.iter().enumerate() {
            if !first {
                s.push_str(",\n");
            }
            first = false;
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                s,
                "{{\"rank\":{rank},\"id\":{id},\"name\":\"{}\",\"start\":{:.3},\"end\":{:.3},\"parent\":{parent},\"session\":{}}}",
                sp.name, sp.start_us, sp.end_us, sp.session
            )
            .expect("writing to a String cannot fail");
        }
    }
    s.push_str("\n]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let rec = Recorder::new();
        rec.set_session(3);
        rec.scope("outer", || {
            rec.scope("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            rec.scope("inner", || ());
        });
        rec.set_on(false);
        rec.scope("outer", || ());
        let spans = rec.spans();
        assert_eq!(spans.len(), 3, "nothing is recorded while off");
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].session, 3);
        let split = &splits(&spans, "outer")[0];
        let (inner_s, inner_calls) = split.child("inner");
        assert_eq!(inner_calls, 2);
        assert!((split.total - split.self_time - inner_s).abs() < 1e-12);
        assert!(inner_s >= 2e-3);
        assert!(to_json(&[spans]).contains("\"name\":\"inner\""));
    }
}
