//! Sample summaries, the in-memory span recorder of the traced run, and
//! the few lines of JSON writing the outputs need.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Median, quartiles and count of one set of samples.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

/// Quantile `q` of ascending `sorted` by linear interpolation.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// `samples`, ascending.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

pub fn summarize(samples: &[f64]) -> Summary {
    let s = sorted(samples);
    Summary {
        median: quantile(&s, 0.5),
        q1: quantile(&s, 0.25),
        q3: quantile(&s, 0.75),
        n: s.len(),
    }
}

pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// Geometric mean (the per-program aggregate: no program's absolute size
/// dominates the ratio between two commits).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|v| *v <= 0.0) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// One recorded interval. `parent` indexes the span that caused this one.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub rep: usize,
}

/// Span recorder of the traced run. Spans stay in memory until the run
/// ends.
pub struct Tracer {
    origin: Instant,
    pub rep: usize,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            rep: 0,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name` under `parent`; `f` receives
    /// the new span's index so it can parent its own children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce(&mut Tracer, Option<usize>) -> T,
    ) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            rep: self.rep,
        });
        let out = f(self, Some(id));
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Self time per span name in milliseconds, one sample per rep: a
    /// span's duration minus what its child spans cover, summed over the
    /// rep's spans of that name, times `scale_of_rep[rep]` (the CPU-speed
    /// factor of that rep, see `sys::Speed`). Only spans under a root called
    /// `root` count, so kernels timed outside the op do not leak into its
    /// account.
    pub fn self_ms_by_name(
        &self,
        root: &str,
        scale_of_rep: &[f64],
    ) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let under_root = |mut i: usize| loop {
            match self.spans[i].parent {
                Some(p) => i = p,
                None => return self.spans[i].name == root,
            }
        };
        let mut per_rep: BTreeMap<(&'static str, usize), f64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if under_root(i) {
                let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
                let scale = scale_of_rep.get(s.rep).copied().unwrap_or(1.0);
                *per_rep.entry((s.name, s.rep)).or_default() += own as f64 / 1e6 * scale;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for ((name, _), ms) in per_rep {
            out.entry(name).or_default().push(ms);
        }
        out
    }

    /// The span file: one JSON array, one object per span.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"workload\":\"{workload}\",\"rep\":{}}}",
                s.name, s.start_ns, s.end_ns, s.rep
            );
            out.push_str(if i + 1 == self.spans.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push(']');
        out
    }
}

/// A JSON number: shortest text that round-trips, and never `NaN`/`inf`
/// (which JSON cannot carry).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}
