//! Host facts recorded next to the results: the CPU count the OS
//! reports, the parallelism a spin probe actually gets, and this
//! process's peak resident set and page faults; plus the allocator
//! settings every run uses.

use std::hint::black_box;
use std::time::Instant;

/// What [`std::thread::available_parallelism`] reports.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A fixed amount of integer work that the optimiser cannot remove.
fn spin(iters: u64) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..iters {
        x = black_box(x.rotate_left(7) ^ i).wrapping_mul(0x2545_f491_4f6c_dd1d);
    }
    x
}

/// Effective parallelism: `threads × t(1 thread) / t(threads at once)`
/// for the same per-thread spin work, calibrated so one thread spins for
/// about `target_ms`. Close to `nproc` on dedicated cores; close to 1
/// when a CPU quota lets only one core's worth of work run at a time.
/// Takes the best of three rounds on each side.
pub fn effective_parallelism(threads: usize, target_ms: f64) -> f64 {
    let mut iters = 1u64 << 16;
    loop {
        let t = Instant::now();
        black_box(spin(iters));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if ms >= target_ms / 8.0 || iters >= 1 << 40 {
            iters = ((iters as f64) * target_ms / ms.max(1e-3)) as u64;
            break;
        }
        iters *= 2;
    }
    let best = |f: &dyn Fn()| {
        (0..3)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let one = best(&|| {
        black_box(spin(iters));
    });
    let many = best(&|| {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| s.spawn(move || black_box(spin(iters))))
                .collect();
            for h in handles {
                h.join().expect("spin thread panicked");
            }
        })
    });
    threads as f64 * one / many
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Minor page faults this process has taken so far.
pub fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; minflt is the 10th
    // field of the line, the 8th after the name.
    stat.rsplit_once(')')?
        .1
        .split_whitespace()
        .nth(7)?
        .parse()
        .ok()
}

/// Pins glibc malloc's mmap and trim thresholds, which it otherwise moves
/// with the sizes the program frees. Under the moving thresholds about
/// one `city_certified` process in four settled into returning its
/// per-slot LP tableaus to the kernel and faulting them back in: ten
/// times the page faults, half the time in the kernel, 1.8× the slot
/// time, chosen at random per process. Pinned, every run allocates the
/// same way. Returns whether both settings took.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn pin_malloc_thresholds() -> bool {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` takes two plain integers and only changes
    // allocator parameters under the allocator's own lock; these two
    // parameters and values are documented for glibc (32 MiB is the
    // largest mmap threshold on 64-bit targets).
    unsafe { mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, 1 << 30) == 1 }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn pin_malloc_thresholds() -> bool {
    false
}
