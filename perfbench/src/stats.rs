//! The benchmark's own arithmetic: nearest-rank percentiles that refuse
//! to report a tail the sample cannot support, span self time, and the
//! unattributed share of a round trip.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (in `(0, 1]`) of an ascending slice, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond its rank.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((n as f64) * q).ceil() as usize;
    if n == 0 || rank == 0 || n - rank.min(n) < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Fewest samples that leave [`MIN_BEYOND`] beyond percentile `q`.
pub fn min_samples(q: f64) -> usize {
    (MIN_BEYOND as f64 / (1.0 - q)).round() as usize
}

/// Percentile `q` of each consecutive window of [`min_samples`]`(q)`
/// samples in completion order (a remainder is spread over the
/// windows); empty below one window.
pub fn window_percentiles(in_order: &[f64], q: f64) -> Vec<f64> {
    let windows = in_order.len() / min_samples(q);
    (0..windows)
        .filter_map(|w| {
            let range = w * in_order.len() / windows..(w + 1) * in_order.len() / windows;
            let mut window = in_order[range].to_vec();
            window.sort_by(f64::total_cmp);
            percentile(&window, q)
        })
        .collect()
}

/// Nearest-rank quantile of the window tails that [`windowed_percentile`]
/// reports: the lower quartile, so three windows in four reach it.
pub const WINDOW_RANK: f64 = 0.25;

/// The [`WINDOW_RANK`] quantile of [`window_percentiles`]; `None` below
/// one window. Host load sets the tail of the windows it lands in, not
/// the reported percentile, as long as it spares a quarter of them. On
/// the shared host that defined the benchmark, stalls of a few minutes
/// raised the tails of more than half the windows of whole runs, and the
/// median window moved with them; a slower program raises every window.
pub fn windowed_percentile(in_order: &[f64], q: f64) -> Option<f64> {
    let mut tails = window_percentiles(in_order, q);
    tails.sort_by(f64::total_cmp);
    let rank = ((tails.len() as f64) * WINDOW_RANK).ceil().max(1.0) as usize;
    tails.get(rank - 1).copied()
}

/// Median as the midpoint of the two middle samples (for per-layer
/// figures and the overhead ratio, where no tail is claimed).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    })
}

/// Tail percentile of the end-to-end latencies. A p99 of millisecond
/// round trips on a shared two-core host is set by the host's load and
/// disk bursts, not by the program; a quartile of per-window p90s is not.
pub const TAIL_Q: f64 = 0.90;

/// A latency sample set summarised as its nearest-rank median and tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: Option<f64>,
    pub tail: Option<f64>,
}

/// Summarises latencies in completion order: the pooled median and the
/// [`windowed_percentile`] at [`TAIL_Q`].
pub fn summarize(in_order: &[f64]) -> Summary {
    let mut sorted = in_order.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary {
        n: in_order.len(),
        p50: percentile(&sorted, 0.50),
        tail: windowed_percentile(in_order, TAIL_Q),
    }
}

/// One timed interval of a trace. Times are nanoseconds since the trace
/// epoch; `parent` is the id of the span that caused this one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span's duration minus the part of its interval that its children
/// cover. Overlapping children are counted once, and a child reaching
/// outside the parent counts only inside it.
pub fn self_time_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut cover: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| s < e)
        .collect();
    cover.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (s, e) in cover {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    span.duration_ns() - covered
}

/// Self time of every span in `spans` that has children, keyed by name,
/// in nanoseconds.
pub fn self_times(spans: &[Span]) -> std::collections::BTreeMap<&'static str, Vec<f64>> {
    let mut children: std::collections::HashMap<u64, Vec<&Span>> = Default::default();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    let mut out: std::collections::BTreeMap<&'static str, Vec<f64>> = Default::default();
    for s in spans {
        if let Some(kids) = children.get(&s.id) {
            out.entry(s.name)
                .or_default()
                .push(self_time_ns(s, kids) as f64);
        }
    }
    out
}

/// Percentage of the median round trip of one op class that the
/// medians of its layers do not account for:
/// `100 · (1 − Σ median(layer) / median(round trip))`. Every sample set
/// passed in must belong to that same op class.
pub fn unattributed_pct(round_trip: &[f64], layers: &[&[f64]]) -> Option<f64> {
    let rt = median(round_trip)?;
    let mut attributed = 0.0;
    for layer in layers {
        attributed += median(layer)?;
    }
    Some(100.0 * (1.0 - attributed / rt))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_need_ten_samples_beyond_their_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(percentile(&v[..999], 0.99), None);
        assert_eq!(percentile(&v[..20], 0.50), Some(10.0));
        assert_eq!(percentile(&v[..19], 0.50), None);
        assert_eq!(percentile(&[], 0.50), None);
    }

    #[test]
    fn summaries_pool_the_median_and_window_the_tail() {
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, Some(500.0));
        // Ten windows of 100 values; each p90 is the window's 90th
        // smallest (990, 890, …, 90), and the third smallest is 290.
        assert_eq!(TAIL_Q, 0.90);
        assert_eq!(s.tail, Some(290.0));
        assert_eq!(summarize(&v[..99]).tail, None);
    }

    #[test]
    fn windowed_percentile_is_the_lower_quartile_window_tail() {
        assert_eq!(min_samples(0.99), 1000);
        assert_eq!(min_samples(0.95), 200);
        // Three windows of 1000; a burst of slow samples in the second
        // moves only that window's p99.
        let mut v: Vec<f64> = (0..3000).map(|i| f64::from(i % 1000)).collect();
        for x in &mut v[1000..1100] {
            *x = 1e6;
        }
        assert_eq!(window_percentiles(&v, 0.99), vec![989.0, 1e6, 989.0]);
        assert_eq!(windowed_percentile(&v, 0.99), Some(989.0));
        assert_eq!(windowed_percentile(&v[..999], 0.99), None);
        // Load that slows five windows of eight leaves the quartile at the
        // quiet windows' tail; a program that slows all of them moves it.
        let quiet: Vec<f64> = (0..800).map(|i| f64::from(i % 100)).collect();
        let mut stalled = quiet.clone();
        for x in &mut stalled[300..] {
            *x *= 3.0;
        }
        assert_eq!(windowed_percentile(&quiet, 0.90), Some(89.0));
        assert_eq!(windowed_percentile(&stalled, 0.90), Some(89.0));
        let slower: Vec<f64> = quiet.iter().map(|x| x * 1.1).collect();
        assert_eq!(windowed_percentile(&slower, 0.90), Some(89.0 * 1.1));
        // A remainder is spread over the windows, never left out.
        let mut sorted = v[..1999].to_vec();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(
            windowed_percentile(&v[..1999], 0.99),
            percentile(&sorted, 0.99)
        );
    }

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_only_the_covered_part() {
        let parent = span(1, None, 100, 200);
        // Two overlapping children cover 120..160 once; a child starting
        // before the parent counts only from 100; one past the end only
        // up to 200.
        let a = span(2, Some(1), 120, 150);
        let b = span(3, Some(1), 140, 160);
        let early = span(4, Some(1), 90, 105);
        let late = span(5, Some(1), 190, 230);
        assert_eq!(
            self_time_ns(&parent, &[&a, &b, &early, &late]),
            100 - 40 - 5 - 10
        );
        assert_eq!(self_time_ns(&parent, &[]), 100);
        let outside = span(6, Some(1), 300, 400);
        assert_eq!(self_time_ns(&parent, &[&outside]), 100);
        let spans = vec![parent.clone(), a, b];
        assert_eq!(self_times(&spans)["s"], vec![60.0]);
    }

    #[test]
    fn unattributed_share_uses_medians_of_one_class() {
        // Medians: round trip 10, layers 3 and 4, so 30 % is unattributed;
        // the outliers move means but not medians.
        let rt = [9.0, 10.0, 1000.0];
        let l1 = [3.0, 3.0, 500.0];
        let l2 = [0.0, 4.0, 4.0];
        let pct = unattributed_pct(&rt, &[&l1, &l2]).unwrap();
        assert!((pct - 30.0).abs() < 1e-9, "{pct}");
        assert_eq!(unattributed_pct(&[], &[&l1]), None);
        assert_eq!(unattributed_pct(&rt, &[&[]]), None);
    }
}
