//! Sample statistics, process memory, and the bench-side span recorder.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Milliseconds in a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A sorted sample of values.
#[derive(Debug, Clone, Default)]
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    /// Sort `values` into a distribution.
    pub fn new(mut values: Vec<f64>) -> Dist {
        values.sort_by(f64::total_cmp);
        Dist { sorted: values }
    }

    /// Number of samples.
    pub fn n(&self) -> u64 {
        self.sorted.len() as u64
    }

    /// Nearest-rank quantile (`q` in 0..=1); 0 for an empty sample.
    pub fn q(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let rank = (q * self.sorted.len() as f64).ceil() as usize;
        self.sorted[rank.clamp(1, self.sorted.len()) - 1]
    }

    /// The median: the mean of the two middle values for an even count.
    pub fn median(&self) -> f64 {
        let n = self.sorted.len();
        match n {
            0 => 0.0,
            _ if n % 2 == 1 => self.sorted[n / 2],
            _ => (self.sorted[n / 2 - 1] + self.sorted[n / 2]) / 2.0,
        }
    }

    /// Arithmetic mean; 0 for an empty sample.
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident memory of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hardware threads available to this process.
pub fn hw_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

struct SpanRec {
    name: &'static str,
    trace: u64,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

thread_local! {
    /// Indices of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Bench-side spans around calls into the program's public entry points.
/// Each span has a name, start, end, the span that caused it (the
/// innermost span open on the same thread), and a trace id shared by the
/// spans of one session. Disabled, `span` is a plain call.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

/// Per-name totals of a [`Tracer`]'s spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotal {
    /// Completed spans.
    pub count: u64,
    /// Summed durations, in seconds.
    pub total_s: f64,
    /// Summed self time (duration minus time covered by child spans).
    pub self_s: f64,
    /// Distinct trace ids.
    pub traces: u64,
}

impl Tracer {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` inside a span named `name` belonging to trace `trace`.
    pub fn span<T>(&self, name: &'static str, trace: u64, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let parent = OPEN.with(|o| o.borrow().last().copied());
        let idx = {
            let mut spans = self.spans.lock().expect("span list lock");
            spans.push(SpanRec {
                name,
                trace,
                parent,
                start: self.epoch.elapsed(),
                end: Duration::ZERO,
            });
            spans.len() - 1
        };
        OPEN.with(|o| o.borrow_mut().push(idx));
        let out = f();
        OPEN.with(|o| o.borrow_mut().pop());
        let end = self.epoch.elapsed();
        self.spans.lock().expect("span list lock")[idx].end = end;
        out
    }

    /// Totals per span name, with self time.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotal> {
        let spans = self.spans.lock().expect("span list lock");
        let mut child_time = vec![Duration::ZERO; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_time[p] += s.end.saturating_sub(s.start);
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotal> = BTreeMap::new();
        let mut traces: BTreeMap<&'static str, std::collections::BTreeSet<u64>> = BTreeMap::new();
        for (s, children) in spans.iter().zip(child_time) {
            let d = s.end.saturating_sub(s.start);
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_s += d.as_secs_f64();
            t.self_s += d.saturating_sub(children).as_secs_f64();
            traces.entry(s.name).or_default().insert(s.trace);
        }
        for (name, ids) in traces {
            if let Some(t) = out.get_mut(name) {
                t.traces = ids.len() as u64;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let d = Dist::new((1..=100).map(f64::from).collect());
        assert_eq!(d.q(0.99), 99.0);
        assert_eq!(d.q(0.5), 50.0);
        assert_eq!(d.median(), 50.5);
        assert_eq!(Dist::default().q(0.99), 0.0);
    }

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new(true);
        t.span("outer", 1, || {
            std::thread::sleep(Duration::from_millis(20));
            t.span("inner", 1, || std::thread::sleep(Duration::from_millis(30)));
        });
        let totals = t.totals();
        let outer = totals["outer"];
        let inner = totals["inner"];
        assert!(outer.total_s >= inner.total_s + 0.019);
        assert!((outer.self_s - (outer.total_s - inner.total_s)).abs() < 1e-9);
        assert_eq!(inner.self_s, inner.total_s);
    }
}
