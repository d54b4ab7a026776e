//! Keeping a measuring process on one CPU.
//!
//! On a small VM a thread woken on another CPU waits for that CPU to
//! leave its idle state, and the scheduler decides afresh for every
//! process whether the client and the server's threads share a CPU.
//! Over loopback TCP, where each request hands off between three
//! threads, that made whole processes answer twice as fast as others.
//! With every thread of the process on one CPU each hand-off is a
//! same-CPU context switch, which costs the same from run to run.

/// `cpu_set_t`: 1024 CPUs, one bit each.
#[cfg(target_os = "linux")]
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Restrict the calling thread, and every thread it starts afterwards,
/// to the lowest-numbered CPU it may run on. Returns that CPU, or
/// `None` where the platform offers no affinity (the run then goes on
/// unpinned).
#[cfg(target_os = "linux")]
pub fn pin_to_one() -> Option<usize> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: both calls get a pointer to a live, properly sized
    // `cpu_set_t` and only read or write within it; pid 0 is this thread.
    unsafe {
        if sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) != 0 {
            return None;
        }
        let cpu = (0..1024).find(|&c| allowed[c / 64] & (1 << (c % 64)) != 0)?;
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        (sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) == 0).then_some(cpu)
    }
}

/// Restrict the calling thread to one CPU: not offered here.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_one() -> Option<usize> {
    None
}
