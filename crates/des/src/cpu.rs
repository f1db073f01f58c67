//! Per-node CPU accounting.
//!
//! The paper reports CPU utilization sampled by `sar` every 5 seconds
//! (Sec. V-D, Fig. 10). [`CpuMeter`] reproduces that measurement: models
//! charge CPU work as `(start, duration, parallelism)` intervals and the
//! meter spreads the busy core-seconds over fixed-width sampling bins. It
//! also exposes aggregate busy time so experiments can report mean
//! utilization deltas (the paper's "48.1 % lower CPU utilization" claim).

use crate::time::SimTime;

/// Bin-sampled CPU utilization meter for one node.
#[derive(Debug, Clone)]
pub struct CpuMeter {
    cores: u32,
    bin: SimTime,
    /// Busy core-seconds accumulated per bin.
    bins: Vec<f64>,
    total_busy_core_secs: f64,
    horizon: SimTime,
}

impl CpuMeter {
    /// A meter for a node with `cores` cores, sampling at `bin` granularity.
    pub fn new(cores: u32, bin: SimTime) -> Self {
        assert!(cores > 0, "node needs at least one core");
        assert!(bin > SimTime::ZERO, "sampling bin must be positive");
        CpuMeter {
            cores,
            bin,
            bins: Vec::new(),
            total_busy_core_secs: 0.0,
            horizon: SimTime::ZERO,
        }
    }

    /// Standard `sar`-style meter: 5-second bins, as in the paper.
    pub fn sar(cores: u32) -> Self {
        CpuMeter::new(cores, SimTime::from_secs(5))
    }

    /// Number of cores on the node.
    pub fn cores(&self) -> u32 {
        self.cores
    }

    /// Charge `parallelism` cores busy from `start` for `dur`.
    ///
    /// `parallelism` may be fractional (e.g. a thread that is 30 % busy) and
    /// is clamped to the core count — a node cannot be more than 100 % busy.
    pub fn charge(&mut self, start: SimTime, dur: SimTime, parallelism: f64) {
        if dur == SimTime::ZERO || parallelism <= 0.0 {
            return;
        }
        let par = parallelism.min(self.cores as f64);
        let end = start + dur;
        self.horizon = self.horizon.max(end);
        self.total_busy_core_secs += dur.as_secs_f64() * par;

        let bin_ns = self.bin.as_nanos();
        let first = (start.as_nanos() / bin_ns) as usize;
        let last = ((end.as_nanos().saturating_sub(1)) / bin_ns) as usize;
        if self.bins.len() <= last {
            self.bins.resize(last + 1, 0.0);
        }
        for b in first..=last {
            let bin_start = SimTime::from_nanos(b as u64 * bin_ns);
            let bin_end = bin_start + self.bin;
            let overlap = end.min(bin_end).saturating_sub(start.max(bin_start));
            self.bins[b] += overlap.as_secs_f64() * par;
        }
    }

    /// Charge a single sequential thread (parallelism 1) for `dur` at
    /// `start`; the common case for protocol-stack costs.
    pub fn charge_thread(&mut self, start: SimTime, dur: SimTime) {
        self.charge(start, dur, 1.0);
    }

    /// Utilization (0–100 %) per sampling bin, in time order.
    pub fn utilization_series(&self) -> Vec<(SimTime, f64)> {
        let cap = self.bin.as_secs_f64() * self.cores as f64;
        self.bins
            .iter()
            .enumerate()
            .map(|(i, &busy)| {
                let t = SimTime::from_nanos(i as u64 * self.bin.as_nanos());
                (t, (busy / cap * 100.0).min(100.0))
            })
            .collect()
    }

    /// Mean utilization (0–100 %) over `[0, horizon]`; uses the observed
    /// horizon when `None`.
    pub fn mean_utilization(&self, horizon: Option<SimTime>) -> f64 {
        let h = horizon.unwrap_or(self.horizon);
        if h == SimTime::ZERO {
            return 0.0;
        }
        (self.total_busy_core_secs / (h.as_secs_f64() * self.cores as f64) * 100.0).min(100.0)
    }

    /// Total busy core-seconds charged.
    pub fn busy_core_secs(&self) -> f64 {
        self.total_busy_core_secs
    }

    /// Latest end of any charged interval.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Merge another meter's charges into this one (same shape required);
    /// used to average utilization across slave nodes as the paper does.
    pub fn merge(&mut self, other: &CpuMeter) {
        assert_eq!(self.cores, other.cores, "core counts differ");
        assert_eq!(self.bin, other.bin, "bin widths differ");
        if self.bins.len() < other.bins.len() {
            self.bins.resize(other.bins.len(), 0.0);
        }
        for (a, b) in self.bins.iter_mut().zip(other.bins.iter()) {
            *a += b;
        }
        self.total_busy_core_secs += other.total_busy_core_secs;
        self.horizon = self.horizon.max(other.horizon);
    }
}

/// Average the utilization series of many nodes into one series (per-bin
/// mean of per-node utilization), matching how the paper reports "average
/// CPU utilization across all 22 slave nodes".
pub fn average_utilization(meters: &[CpuMeter]) -> Vec<(SimTime, f64)> {
    if meters.is_empty() {
        return Vec::new();
    }
    // Materialize each meter's series once; rebuilding it per bin would be
    // O(bins^2 x nodes).
    let series: Vec<Vec<(SimTime, f64)>> = meters.iter().map(|m| m.utilization_series()).collect();
    let longest = series.iter().map(|s| s.len()).max().unwrap_or(0);
    let bin = meters[0].bin;
    let mut out = Vec::with_capacity(longest);
    for i in 0..longest {
        let sum: f64 = series
            .iter()
            .map(|s| s.get(i).map(|&(_, u)| u).unwrap_or(0.0))
            .sum();
        out.push((
            SimTime::from_nanos(i as u64 * bin.as_nanos()),
            sum / meters.len() as f64,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bin_full_busy() {
        let mut m = CpuMeter::new(1, SimTime::from_secs(5));
        m.charge(SimTime::ZERO, SimTime::from_secs(5), 1.0);
        let s = m.utilization_series();
        assert_eq!(s.len(), 1);
        assert!((s[0].1 - 100.0).abs() < 1e-9);
    }

    #[test]
    fn charge_spans_bins_proportionally() {
        let mut m = CpuMeter::new(1, SimTime::from_secs(5));
        // Busy from 2.5s to 7.5s: half of bin 0 and half of bin 1.
        m.charge(SimTime::from_millis(2500), SimTime::from_secs(5), 1.0);
        let s = m.utilization_series();
        assert_eq!(s.len(), 2);
        assert!((s[0].1 - 50.0).abs() < 1e-6);
        assert!((s[1].1 - 50.0).abs() < 1e-6);
    }

    #[test]
    fn parallelism_clamped_to_cores() {
        let mut m = CpuMeter::new(2, SimTime::from_secs(1));
        m.charge(SimTime::ZERO, SimTime::from_secs(1), 100.0);
        let s = m.utilization_series();
        assert!((s[0].1 - 100.0).abs() < 1e-9);
        assert!((m.busy_core_secs() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn mean_utilization_over_horizon() {
        let mut m = CpuMeter::new(4, SimTime::from_secs(5));
        m.charge(SimTime::ZERO, SimTime::from_secs(10), 2.0);
        // 2 of 4 cores busy for the whole 10s horizon -> 50%.
        assert!((m.mean_utilization(None) - 50.0).abs() < 1e-9);
        // Against a longer horizon it halves.
        assert!((m.mean_utilization(Some(SimTime::from_secs(20))) - 25.0).abs() < 1e-9);
    }

    #[test]
    fn zero_charges_ignored() {
        let mut m = CpuMeter::sar(24);
        m.charge(SimTime::from_secs(1), SimTime::ZERO, 1.0);
        m.charge(SimTime::from_secs(1), SimTime::from_secs(1), 0.0);
        assert_eq!(m.busy_core_secs(), 0.0);
        assert!(m.utilization_series().is_empty());
    }

    #[test]
    fn merge_adds_charges() {
        let mut a = CpuMeter::new(1, SimTime::from_secs(5));
        let mut b = CpuMeter::new(1, SimTime::from_secs(5));
        a.charge(SimTime::ZERO, SimTime::from_secs(5), 0.25);
        b.charge(SimTime::ZERO, SimTime::from_secs(5), 0.25);
        a.merge(&b);
        assert!((a.utilization_series()[0].1 - 50.0).abs() < 1e-9);
    }

    #[test]
    fn average_across_nodes() {
        let mut a = CpuMeter::new(1, SimTime::from_secs(5));
        let mut b = CpuMeter::new(1, SimTime::from_secs(5));
        a.charge(SimTime::ZERO, SimTime::from_secs(5), 1.0); // 100%
        b.charge(SimTime::ZERO, SimTime::from_secs(5), 0.5); // 50%
        let avg = average_utilization(&[a, b]);
        assert_eq!(avg.len(), 1);
        assert!((avg[0].1 - 75.0).abs() < 1e-9);
        assert!(average_utilization(&[]).is_empty());
    }
}
