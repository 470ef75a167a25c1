//! Host-side measurements: CPU clocks, peak memory and the host
//! fingerprint recorded with every result.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `cpu_set_t`: a 1024-bit CPU mask.
type CpuSet = [u64; 16];

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock(id: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, properly aligned `struct timespec` (two
    // 64-bit fields on every 64-bit Linux target) and the clock ids are the
    // kernel's fixed CPU-time clocks, so the call only writes into `ts`.
    let rc = unsafe { clock_gettime(id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({id}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// User+system CPU time of the whole process, every thread included
/// (threads that already exited too).
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// User+system CPU time of the calling thread.
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// A CPU affinity mask of the calling thread. Threads inherit the mask of
/// the thread that spawns them.
pub struct Affinity(CpuSet);

impl Affinity {
    /// The calling thread's current mask.
    pub fn current() -> Option<Affinity> {
        let mut mask: CpuSet = [0; 16];
        // SAFETY: `mask` is a live, writable buffer of exactly the size
        // passed, and pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
        (rc == 0).then_some(Affinity(mask))
    }

    /// Make this the calling thread's mask. Returns whether it took.
    pub fn apply(&self) -> bool {
        // SAFETY: `self.0` is a live buffer of exactly the size passed, and
        // pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &self.0) == 0 }
    }

    /// Restrict the calling thread, and every thread it spawns from now on,
    /// to the lowest-numbered CPU of this mask. Returns that CPU.
    pub fn pin_lowest(&self) -> Option<usize> {
        let cpu =
            (0..CpuSet::default().len() * 64).find(|&c| self.0[c / 64] >> (c % 64) & 1 == 1)?;
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        Affinity(one).apply().then_some(cpu)
    }
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `nproc` and CPU model: a result is only comparable with results from
/// the same kind of host.
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
}

impl Fingerprint {
    pub fn probe() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split_once(':'))
            .map_or_else(|| "unknown".to_owned(), |(_, m)| m.trim().to_owned());
        Fingerprint { nproc, cpu_model }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (p0, t0) = (process_cpu(), thread_cpu());
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(thread_cpu() > t0);
        assert!(process_cpu() > p0);
    }

    #[test]
    fn pinning_leaves_one_cpu_and_restores() {
        // On a thread of its own: the mask is per thread, so the pin ends
        // with the thread and no other test runs pinned.
        std::thread::spawn(|| {
            let all = Affinity::current().expect("mask");
            let cpus = |a: &Affinity| a.0.iter().map(|w| w.count_ones()).sum::<u32>();
            let cpu = all.pin_lowest().expect("pin");
            let now = Affinity::current().expect("mask");
            assert_eq!(cpus(&now), 1);
            assert_eq!(now.0[cpu / 64] >> (cpu % 64) & 1, 1);
            assert!(all.apply());
            assert_eq!(cpus(&Affinity::current().expect("mask")), cpus(&all));
        })
        .join()
        .expect("pinned thread");
    }

    #[test]
    fn fingerprint_and_rss_are_populated() {
        let fp = Fingerprint::probe();
        assert!(fp.nproc >= 1);
        assert!(!fp.cpu_model.is_empty());
        assert!(peak_rss_mb() > 0.0);
    }
}
