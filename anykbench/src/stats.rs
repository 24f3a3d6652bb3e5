//! Order statistics: medians, the tail-percentile picker that enforces the
//! "at least ten samples beyond it" rule, and Python-compatible quartiles
//! for `compare`.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// One reported figure: the value, how many samples it summarises and, for
/// a tail, the percentile that was actually used.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub n: usize,
    /// Percentile in `[0, 100]` (`50.0` for a median, `0.0` for a plain
    /// count or rate).
    pub pct: f64,
}

impl Reading {
    /// An exact count, rate or single measurement.
    pub fn exact(value: f64, n: usize) -> Reading {
        Reading { value, n, pct: 0.0 }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    v
}

/// Linear-interpolated quantile of an ascending slice, `q` in `[0, 1]`.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// Median as a [`Reading`].
pub fn p50(values: &[f64]) -> Reading {
    let s = sorted(values);
    Reading {
        value: quantile_sorted(&s, 0.5),
        n: s.len(),
        pct: 50.0,
    }
}

/// The highest percentile `<= named` (e.g. 99.0) that still has
/// [`MIN_BEYOND`] samples beyond it, never below the median. With fewer
/// than `2 * MIN_BEYOND` samples the median is all the data supports.
pub fn supported_percentile(n: usize, named: f64) -> f64 {
    if n < 2 * MIN_BEYOND {
        return 50.0;
    }
    let highest = 100.0 * (n - MIN_BEYOND) as f64 / n as f64;
    highest.min(named).max(50.0)
}

/// Tail percentile of `values`: `named` if the sample supports it, else the
/// highest percentile that does (see [`supported_percentile`]); the
/// percentile used is reported in the reading.
pub fn tail(values: &[f64], named: f64) -> Reading {
    let s = sorted(values);
    let pct = supported_percentile(s.len(), named);
    Reading {
        value: quantile_sorted(&s, pct / 100.0),
        n: s.len(),
        pct,
    }
}

/// Sub-windows a run's samples are cut into (see [`Series::steady`]).
pub const SUB_WINDOWS: usize = 8;

/// Samples with a position: seconds since the measured window opened, or
/// the sample's index for a sequential probe.
#[derive(Debug, Default, Clone)]
pub struct Series {
    at: Vec<f64>,
    val: Vec<f64>,
}

impl Series {
    pub fn push(&mut self, at: f64, val: f64) {
        self.at.push(at);
        self.val.push(val);
    }

    /// Append a sample of a sequential probe (position = index).
    pub fn push_next(&mut self, val: f64) {
        self.push(self.val.len() as f64, val);
    }

    pub fn extend(&mut self, other: Series) {
        self.at.extend(other.at);
        self.val.extend(other.val);
    }

    pub fn len(&self) -> usize {
        self.val.len()
    }

    pub fn clear(&mut self) {
        self.at.clear();
        self.val.clear();
    }

    /// Index of the sub-window a position falls in, of `count` over `span`;
    /// work that finished after the window closed belongs to the last one.
    fn sub_window(at: f64, span: f64, count: usize) -> usize {
        ((at / span * count as f64).max(0.0) as usize).min(count - 1)
    }

    /// The run's figure for a latency: cut `span` (the window length, or
    /// the sample count of a sequential probe) into up to [`SUB_WINDOWS`]
    /// sub-windows — fewer when a sub-window would be too small to support
    /// `named_pct` — take the percentile in each, and report the **lower
    /// quartile** of those. Neighbours on a shared host only ever add
    /// time, in bursts of seconds, so the quieter stretches of a run are
    /// what repeats from run to run; a plain whole-run median moved 2–3×
    /// as much.
    pub fn steady(&self, span: f64, named_pct: f64) -> Reading {
        let n = self.val.len();
        let need = if named_pct <= 50.0 {
            1
        } else {
            (MIN_BEYOND as f64 / (1.0 - named_pct / 100.0)).ceil() as usize
        };
        let count = (n / need).clamp(1, SUB_WINDOWS);
        let mut groups = vec![Vec::new(); count];
        for (&at, &v) in self.at.iter().zip(&self.val) {
            if v.is_finite() {
                groups[Self::sub_window(at, span, count)].push(v);
            }
        }
        let mut pct = named_pct.max(50.0);
        let mut figures = Vec::new();
        for g in groups.iter().filter(|g| !g.is_empty()) {
            let r = if named_pct <= 50.0 {
                p50(g)
            } else {
                tail(g, named_pct)
            };
            pct = pct.min(r.pct);
            figures.push(r.value);
        }
        Reading {
            value: quantile_sorted(&sorted(&figures), 0.25),
            n,
            pct,
        }
    }

    /// The run's figure for a throughput: completions per second in each of
    /// [`SUB_WINDOWS`] sub-windows of `span` seconds, **upper quartile**.
    /// Completions after the window closed are not counted.
    pub fn rate(&self, span: f64) -> Reading {
        let mut counts = [0usize; SUB_WINDOWS];
        let mut n = 0;
        for &at in self.at.iter().filter(|&&at| at < span) {
            counts[Self::sub_window(at, span, SUB_WINDOWS)] += 1;
            n += 1;
        }
        let per_s: Vec<f64> = counts
            .iter()
            .map(|&c| c as f64 / (span / SUB_WINDOWS as f64))
            .collect();
        Reading {
            value: quantile_sorted(&sorted(&per_s), 0.75),
            n,
            pct: 0.0,
        }
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the default *exclusive* method), so `compare` reports the
/// spread the driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(f64::NAN);
        return (v, v);
    }
    let at = |i: usize| {
        // Python: j = i*(n+1)//4 clamped to [1, n-1]; delta = i*(n+1) - j*4
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_interpolates_and_ignores_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: exactly ten lie beyond p99.
        assert_eq!(supported_percentile(1000, 99.0), 99.0);
        // 999 do not support p99; the picker backs off just below it.
        let p = supported_percentile(999, 99.0);
        assert!(p < 99.0 && p > 98.9, "{p}");
        // 120 samples support p90 (12 beyond) but not p99.
        assert_eq!(supported_percentile(120, 90.0), 90.0);
        assert!((supported_percentile(120, 99.0) - 100.0 * 110.0 / 120.0).abs() < 1e-9);
        // Too few for any tail: the median is reported instead.
        assert_eq!(supported_percentile(16, 99.0), 50.0);
        assert_eq!(supported_percentile(0, 99.0), 50.0);
    }

    #[test]
    fn tail_reports_the_percentile_it_used() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        let r = tail(&v, 99.0);
        assert_eq!((r.n, r.pct), (2000, 99.0));
        assert!((r.value - 1980.01).abs() < 1e-6, "{}", r.value);
        let few = tail(&v[..16], 99.0);
        assert_eq!(few.pct, 50.0);
        assert_eq!(few.value, 8.5);
    }

    #[test]
    fn steady_figures_ignore_a_noisy_stretch() {
        // 8 s window, a sample every 10 ms costing 1.0 — except seconds 2–4,
        // where a neighbour doubles it.
        let mut s = Series::default();
        for i in 0..800 {
            let at = f64::from(i) * 0.01;
            s.push(at, if (2.0..4.0).contains(&at) { 2.0 } else { 1.0 });
        }
        let r = s.steady(8.0, 50.0);
        assert_eq!((r.value, r.n, r.pct), (1.0, 800, 50.0));
        // p99 needs 1000 samples per sub-window: one sub-window, and the
        // percentile backs off to what 800 samples support.
        let t = s.steady(8.0, 99.0);
        assert!(t.pct < 99.0 && t.value == 2.0, "{t:?}");
        // 100 completions per second everywhere.
        assert_eq!(s.rate(8.0).value, 100.0);
        // Work finishing after the window closed counts for latency (last
        // sub-window) but not for the rate.
        s.push(8.5, 1.0);
        assert_eq!(s.rate(8.0).n, 800);
        assert_eq!(s.steady(8.0, 50.0).n, 801);
    }

    #[test]
    fn sequential_probes_are_cut_by_index() {
        let mut s = Series::default();
        for i in 0..16 {
            s.push_next(if i < 4 { 5.0 } else { 1.0 });
        }
        // Two samples per sub-window; the two slow sub-windows are outvoted.
        assert_eq!(s.steady(16.0, 50.0).value, 1.0);
        assert!(Series::default().steady(1.0, 50.0).value.is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), (1.0, 4.0));
    }
}
