//! What the harness reads about the machine it runs on: processor count,
//! load average, this process's CPU time and peak resident memory.  All of
//! it comes from `/proc`; on a host without it the readings are NaN or 0
//! and the run says so.

use std::fs;

/// Processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The 1-minute load average, or NaN when `/proc/loadavg` is unreadable.
pub fn loadavg_1m() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|f| f.parse().ok()))
        .unwrap_or(f64::NAN)
}

/// Peak resident set size of this process (`VmHWM`), MiB; NaN when
/// `/proc/self/status` is unreadable.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(f64::NAN)
}

/// CPU time (user + system, all threads) this process has used, ms; 0 when
/// `/proc/self/stat` is unreadable.  Kernel clock ticks are taken as 10 ms
/// (`CLK_TCK` = 100, which Linux has used on every architecture for two
/// decades; there is no libc here to ask).
pub fn cpu_ms() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // The command name (field 2) may hold spaces; fields are counted
            // from the closing parenthesis.
            let rest = &s[s.rfind(')')? + 1..];
            let mut f = rest.split_whitespace();
            let utime: f64 = f.nth(11)?.parse().ok()?;
            let stime: f64 = f.next()?.parse().ok()?;
            Some((utime + stime) * 10.0)
        })
        .unwrap_or(0.0)
}

/// Processor time the host has accounted since boot, summed over
/// processors, in clock ticks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ticks {
    /// Running this guest's code (user, system, interrupts).
    pub busy: u64,
    /// Nothing to run.
    pub idle: u64,
    /// A virtual processor was ready to run and the hypervisor ran
    /// something else.
    pub stolen: u64,
}

impl Ticks {
    /// Read `/proc/stat`; all zero when it is unreadable.
    pub fn now() -> Ticks {
        fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| {
                // cpu user nice system idle iowait irq softirq steal ...
                let f: Vec<u64> = s.lines().next()?.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
                (f.len() >= 8).then(|| Ticks {
                    busy: f[0] + f[1] + f[2] + f[5] + f[6],
                    idle: f[3] + f[4],
                    stolen: f[7],
                })
            })
            .unwrap_or_default()
    }

    /// Ticks accounted since `earlier`.
    pub fn since(self, earlier: Ticks) -> Ticks {
        Ticks {
            busy: self.busy.saturating_sub(earlier.busy),
            idle: self.idle.saturating_sub(earlier.idle),
            stolen: self.stolen.saturating_sub(earlier.stolen),
        }
    }

    /// Share of all processor time that was stolen.
    pub fn steal_share(self) -> f64 {
        match self.busy + self.idle + self.stolen {
            0 => 0.0,
            all => self.stolen as f64 / all as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_plausible_on_linux() {
        assert!(nproc() >= 1);
        if cfg!(target_os = "linux") {
            assert!(loadavg_1m() >= 0.0);
            assert!(peak_rss_mib() > 0.5, "a running test binary holds more than half a MiB");
            let before = cpu_ms();
            let mut x = 0u64;
            let t0 = std::time::Instant::now();
            while t0.elapsed() < std::time::Duration::from_millis(60) {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
            }
            assert!(cpu_ms() >= before + 20.0, "60 ms of spinning shows up as CPU time");
        }
    }
}
