//! What the benchmark reads from `/proc`: per-thread CPU time, peak
//! resident memory, host steal time and the host's shape. Linux only —
//! the reactor the benchmark drives is `poll(2)`-based already.

use std::fs;

/// CPU time of one class of threads.
#[derive(Clone, Copy, Default, Debug)]
pub struct Cpu {
    /// `utime` and `stime` in clock ticks. The kernel may charge these by
    /// sampling at the tick, so they are used only for the user/kernel
    /// split.
    pub user: u64,
    pub sys: u64,
    /// Exact time on a CPU, in nanoseconds, from `schedstat`. Zero when
    /// the kernel keeps no scheduler statistics.
    pub run_ns: u64,
}

impl Cpu {
    /// Microseconds of CPU: exact when `schedstat` is there, from ticks
    /// (`hz` per second) when it is not.
    pub fn micros(self, hz: f64) -> f64 {
        if self.run_ns > 0 {
            self.run_ns as f64 / 1e3
        } else {
            (self.user + self.sys) as f64 / hz * 1e6
        }
    }

    pub fn plus(self, other: Cpu) -> Cpu {
        Cpu {
            user: self.user + other.user,
            sys: self.sys + other.sys,
            run_ns: self.run_ns + other.run_ns,
        }
    }

    pub fn since(self, earlier: Cpu) -> Cpu {
        // Saturating: a class shrinks when one of its threads exits.
        Cpu {
            user: self.user.saturating_sub(earlier.user),
            sys: self.sys.saturating_sub(earlier.sys),
            run_ns: self.run_ns.saturating_sub(earlier.run_ns),
        }
    }

    /// Share of the class's time spent in the kernel.
    pub fn sys_frac(self) -> f64 {
        match self.user + self.sys {
            0 => 0.0,
            t => self.sys as f64 / t as f64,
        }
    }
}

/// One reading of the CPU time of the process's live threads, split by
/// who burned it. The classes come from thread names: the harness names
/// engine threads `engine-N` and its own generator threads `lg-*`;
/// `hs1-net` names its reactor threads `reactor-N`.
#[derive(Clone, Copy, Default, Debug)]
pub struct CpuSnapshot {
    pub engine: Cpu,
    pub reactor: Cpu,
    pub loadgen: Cpu,
    /// Every other thread (the main thread, mostly asleep).
    pub other: Cpu,
}

impl CpuSnapshot {
    pub fn since(self, earlier: CpuSnapshot) -> CpuSnapshot {
        CpuSnapshot {
            engine: self.engine.since(earlier.engine),
            reactor: self.reactor.since(earlier.reactor),
            loadgen: self.loadgen.since(earlier.loadgen),
            other: self.other.since(earlier.other),
        }
    }

    pub fn plus(self, other: CpuSnapshot) -> CpuSnapshot {
        CpuSnapshot {
            engine: self.engine.plus(other.engine),
            reactor: self.reactor.plus(other.reactor),
            loadgen: self.loadgen.plus(other.loadgen),
            other: self.other.plus(other.other),
        }
    }

    /// The system under test: everything but the load generator.
    pub fn sut(self) -> Cpu {
        self.engine.plus(self.reactor).plus(self.other)
    }
}

/// `utime`/`stime` (fields 14 and 15) from a `/proc/.../stat` line, plus
/// the thread name. The name sits in parentheses and may itself contain
/// spaces or parentheses, so fields are counted from the *last* `)`.
fn parse_stat(line: &str) -> Option<(&str, Cpu)> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    let mut rest = line.get(close + 1..)?.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime is 11 fields further on.
    let user = rest.nth(11)?.parse().ok()?;
    let sys = rest.next()?.parse().ok()?;
    Some((line.get(open + 1..close)?, Cpu { user, sys, run_ns: 0 }))
}

pub fn cpu_snapshot() -> CpuSnapshot {
    let mut snap = CpuSnapshot::default();
    let Ok(tasks) = fs::read_dir("/proc/self/task") else { return snap };
    for task in tasks.flatten() {
        // A thread may exit between the listing and the read.
        let Ok(line) = fs::read_to_string(task.path().join("stat")) else { continue };
        let Some((name, mut cpu)) = parse_stat(&line) else { continue };
        // schedstat: "<ns on cpu> <ns waiting to run> <timeslices>".
        cpu.run_ns = fs::read_to_string(task.path().join("schedstat"))
            .ok()
            .and_then(|s| s.split_ascii_whitespace().next()?.parse().ok())
            .unwrap_or(0);
        let class = if name.starts_with("engine-") {
            &mut snap.engine
        } else if name.starts_with("reactor-") {
            &mut snap.reactor
        } else if name.starts_with("lg-") {
            &mut snap.loadgen
        } else {
            &mut snap.other
        };
        *class = class.plus(cpu);
    }
    snap
}

extern "C" {
    fn sysconf(name: std::ffi::c_int) -> std::ffi::c_long;
}

/// Clock ticks per second, the unit of `utime`/`stime`.
pub fn ticks_per_sec() -> f64 {
    const SC_CLK_TCK: std::ffi::c_int = 2;
    // SAFETY: `sysconf` takes an integer and returns one; it reads no
    // memory of ours. libc is linked by std.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz > 0 {
        hz as f64
    } else {
        100.0
    }
}

fn status_kib(key: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kib("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Resident set size of this process right now (`VmRSS`), in MiB.
pub fn rss_mb() -> f64 {
    status_kib("VmRSS:").unwrap_or(0) as f64 / 1024.0
}

/// Host-wide `(steal, total)` jiffies from the first line of `/proc/stat`.
pub fn host_cpu() -> (u64, u64) {
    let Ok(stat) = fs::read_to_string("/proc/stat") else { return (0, 0) };
    let Some(line) = stat.lines().next() else { return (0, 0) };
    let fields: Vec<u64> =
        line.split_ascii_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // the guest columns are already inside user/nice.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// Share of host CPU time stolen by the hypervisor between two readings.
pub fn steal_frac(before: (u64, u64), after: (u64, u64)) -> f64 {
    match after.1.saturating_sub(before.1) {
        0 => 0.0,
        total => after.0.saturating_sub(before.0) as f64 / total as f64,
    }
}

/// The machine a number was taken on, recorded beside it.
pub struct HostShape {
    pub nproc: usize,
    pub kernel: String,
    pub cpu_model: String,
}

pub fn host_shape() -> HostShape {
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_default();
    let cpu_model = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_default();
    HostShape { nproc, kernel, cpu_model }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_hostile_thread_name() {
        let line = "42 (a) b (c) S 1 42 42 0 -1 4194304 100 0 0 0 17 5 0 0 20 0 3 0 1 2 3";
        let (name, cpu) = parse_stat(line).expect("parses");
        assert_eq!(name, "a) b (c");
        assert_eq!((cpu.user, cpu.sys, cpu.run_ns), (17, 5, 0));
        // Ticks stand in when schedstat is absent.
        assert_eq!(cpu.micros(100.0), 220_000.0);
        assert_eq!(Cpu { run_ns: 1500, ..cpu }.micros(100.0), 1.5);
        assert!(parse_stat("garbage").is_none());
    }

    #[test]
    fn own_threads_are_classified() {
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let spin = |name: &str| {
            let stop = stop.clone();
            std::thread::Builder::new()
                .name(name.into())
                .spawn(move || {
                    let mut x = 0u64;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        x = std::hint::black_box(x.wrapping_add(1));
                    }
                })
                .expect("spawn")
        };
        let before = cpu_snapshot();
        let handles = [spin("engine-9"), spin("lg-test")];
        std::thread::sleep(std::time::Duration::from_millis(300));
        let during = cpu_snapshot().since(before);
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for h in handles {
            h.join().expect("join");
        }
        let hz = ticks_per_sec();
        assert!(hz >= 1.0);
        // Each spun for 300 ms less whatever the other tests took.
        assert!(during.engine.micros(hz) > 50_000.0, "{during:?}");
        assert!(during.loadgen.micros(hz) > 50_000.0, "{during:?}");
        assert!(during.sut().micros(hz) >= during.engine.micros(hz));
        assert!(peak_rss_mb() >= rss_mb() && rss_mb() > 0.0);
    }
}
