//! Process resource figures read from Linux `/proc`.

/// Peak resident set size (`VmHWM`) of this process since it started or
/// since the last [`reset_peak_rss`], in megabytes.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// glibc's `cpu_set_t`: a bitmask of 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    /// glibc: returns free heap memory of every arena to the kernel.
    fn malloc_trim(pad: usize) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Keeps this process on one CPU while alive; restores the CPUs it was
/// allowed before on drop.
pub struct OneCpu {
    prev: CpuSet,
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        // SAFETY: `prev` is a valid cpu_set_t of the size passed.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &self.prev) };
    }
}

/// Confines this process to the `slot`-th of the CPUs it may use (counted
/// modulo how many there are). The tensor kernels size their intra-op
/// fan-out by the CPUs a process may use, and that fan-out spawns threads
/// per convolution call, which a shared host's scheduler then delays at
/// random; on one CPU every kernel runs inline. Call it before the first
/// kernel runs: the kernels read the CPU count once per process. Threads
/// and processes started while the guard lives inherit the mask.
pub fn one_cpu(slot: usize) -> OneCpu {
    let mut prev: CpuSet = [0; 16];
    let size = std::mem::size_of::<CpuSet>();
    // SAFETY: `prev` is a valid, writable cpu_set_t of the size passed.
    let rc = unsafe { sched_getaffinity(0, size, &mut prev) };
    assert_eq!(rc, 0, "sched_getaffinity");
    let allowed: Vec<usize> = (0..size * 8)
        .filter(|&c| prev[c / 64] & (1 << (c % 64)) != 0)
        .collect();
    let cpu = allowed[slot % allowed.len()];
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a valid cpu_set_t of the size passed.
    let rc = unsafe { sched_setaffinity(0, size, &one) };
    assert_eq!(rc, 0, "sched_setaffinity");
    OneCpu { prev }
}

/// Returns freed heap memory to the kernel, then resets `VmHWM` to the
/// current resident size, so that the next [`peak_rss_mb`] covers what runs
/// after this call on top of live memory only, not on top of whatever free
/// memory earlier work happened to leave in the allocator's arenas.
pub fn reset_peak_rss() {
    // SAFETY: malloc_trim has no preconditions; it only releases free
    // chunks the allocator owns.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5")
        .expect("reset VmHWM through /proc/self/clear_refs");
}

/// User plus system CPU seconds this process has used so far, at the
/// 10 ms resolution of `/proc/self/stat` (`USER_HZ` = 100).
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name start at field 3 (state);
    // utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("comm field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> f64 { fields[i].parse().expect("numeric CPU time field") };
    (ticks(11) + ticks(12)) / 100.0
}
