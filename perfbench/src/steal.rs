//! Host steal time: CPU time the hypervisor gave to other guests while
//! this VM had work to run (the `steal` column of `/proc/stat`).
//!
//! On a shared VM, steal comes in spells of seconds to minutes. Within
//! a run, a phase slice that lost 20-40% of its CPU time ran 2-5x slower
//! than a quiet one (measured on a 2-vCPU VM). The end-to-end figures are
//! therefore taken from the slices the host left alone (see
//! [`quiet_slices`]), and the stolen share is reported with each run.

/// Kernel clock ticks per second of `/proc/stat` (`USER_HZ`).
const TICKS_PER_S: f64 = 100.0;
/// A slice is quiet when the host stole at most this share of its CPU time.
pub const QUIET_SHARE: f64 = 0.02;
/// Figures come from at least this many slices of each phase.
const MIN_SLICES: usize = 4;

/// Steal ticks summed over every CPU since boot; 0 where unavailable.
fn ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            // `cpu user nice system idle iowait irq softirq steal …`
            s.lines().next()?.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Measures the share of the machine's CPU time stolen from its start.
pub struct Watch {
    ticks: u64,
    at: std::time::Instant,
}

impl Watch {
    pub fn start() -> Self {
        Self {
            ticks: ticks(),
            at: std::time::Instant::now(),
        }
    }

    /// Stolen CPU time over all CPUs, as a share of their wall time.
    pub fn stolen(&self) -> f64 {
        let wall = self.at.elapsed().as_secs_f64() * TICKS_PER_S * crate::pin::cpus() as f64;
        (ticks() - self.ticks) as f64 / wall.max(f64::MIN_POSITIVE)
    }
}

/// Indices of the slices a phase's figures come from, given each slice's
/// stolen share: every quiet slice, or, when fewer than [`MIN_SLICES`]
/// were quiet, the [`MIN_SLICES`] least stolen.
pub fn quiet_slices(stolen: &[f64]) -> Vec<usize> {
    let quiet: Vec<usize> = (0..stolen.len())
        .filter(|&i| stolen[i] <= QUIET_SHARE)
        .collect();
    if quiet.len() >= MIN_SLICES.min(stolen.len()) {
        return quiet;
    }
    let mut order: Vec<usize> = (0..stolen.len()).collect();
    order.sort_by(|&a, &b| stolen[a].total_cmp(&stolen[b]));
    order.truncate(MIN_SLICES);
    order.sort_unstable();
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_slices_prefer_unstolen_and_keep_a_minimum() {
        let stolen = [0.0, 0.3, 0.01, 0.02, 0.5, 0.0];
        assert_eq!(quiet_slices(&stolen), vec![0, 2, 3, 5]);
        let noisy = [0.3, 0.1, 0.4, 0.2, 0.05, 0.6];
        assert_eq!(quiet_slices(&noisy), vec![0, 1, 3, 4]);
        assert_eq!(quiet_slices(&[0.9, 0.8]), vec![0, 1]);
    }
}
