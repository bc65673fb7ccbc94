//! Order statistics used for every reported number.
//!
//! One rule everywhere: the nearest-rank percentile. The `q`-th
//! percentile of `n` sorted values is the value at rank `ceil(q * n)`
//! (1-based, clamped to `1..=n`), so every reported quantile is a value
//! that was actually measured. The median is the 0.5 percentile.

/// Nearest-rank percentile of an ascending-sorted sample; `None` when
/// the sample is empty.
#[must_use]
pub fn percentile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    // The epsilon keeps e.g. 0.9 * 100 from ranking as 91 through
    // representation error.
    let rank = (q * sorted.len() as f64 - 1e-9).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Nearest-rank percentile of an unsorted sample.
#[must_use]
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, q)
}

/// Nearest-rank median.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// Nearest-rank median over groups of each group's smallest value
/// (empty groups are skipped): a stall has to hit every member of a
/// group to move it. With one value per group it is the plain median.
#[must_use]
pub fn median_of_minima(groups: &[Vec<f64>]) -> Option<f64> {
    let minima: Vec<f64> = groups
        .iter()
        .filter_map(|g| g.iter().copied().min_by(f64::total_cmp))
        .collect();
    median(&minima)
}

/// The highest of the conventional tail percentiles (p99.9, p99, p95,
/// p90) that still has at least ten samples beyond it, with its label;
/// `None` for samples too small to have a meaningful tail.
#[must_use]
pub fn reportable_tail(values: &[f64]) -> Option<(&'static str, f64)> {
    const TAILS: [(&str, f64); 4] = [
        ("p99.9", 0.999),
        ("p99", 0.99),
        ("p95", 0.95),
        ("p90", 0.90),
    ];
    let n = values.len() as f64;
    TAILS
        .iter()
        .find(|(_, q)| n - (q * n - 1e-9).ceil() >= 10.0)
        .and_then(|&(label, q)| percentile(values, q).map(|v| (label, v)))
}

/// Peak resident set size of this process in MiB (`VmHWM`), if the
/// platform exposes it.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_measured_values() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(5.0));
        assert_eq!(percentile(&v, 0.9), Some(9.0));
        assert_eq!(percentile(&v, 0.91), Some(10.0));
        assert_eq!(percentile(&v, 1.0), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
    }

    #[test]
    fn median_ignores_input_order_and_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn median_of_minima_takes_each_groups_fastest() {
        let groups = vec![vec![9.0, 3.0, 20.0], vec![4.0], vec![], vec![30.0, 5.0]];
        assert_eq!(median_of_minima(&groups), Some(4.0));
        let singles = vec![vec![3.0], vec![1.0], vec![2.0]];
        assert_eq!(median_of_minima(&singles), median(&[3.0, 1.0, 2.0]));
        assert_eq!(median_of_minima(&[vec![]]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let small: Vec<f64> = (0..50).map(f64::from).collect();
        assert_eq!(reportable_tail(&small), None);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(reportable_tail(&hundred), Some(("p90", 90.0)));
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(reportable_tail(&thousand), Some(("p99", 990.0)));
    }
}
