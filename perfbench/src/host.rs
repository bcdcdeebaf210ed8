//! Host facts recorded with every result, the process's peak memory, the
//! host-speed calibration, and pinning the run to one CPU.

use std::path::Path;
use std::sync::{mpsc, OnceLock};
use std::time::Instant;

/// A calibration kernel: a fixed piece of work timed right before and
/// right after each timed set-up or operation. Shared hosts change speed
/// within a second (the same evaluation takes 30 ms or 60 ms), and the
/// kernel slows with them; a timing is rescaled by how much slower or
/// faster the kernel ran than at the reference host speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Sorting over a working set the size of an evaluation's: sort
    /// 131072 pseudo-random `(u64, u64)` pairs (2 MiB). A kernel that fits
    /// in cache (4000 `BTreeMap` inserts) missed the slow spells in which
    /// the evaluations, whose relations do not fit, slowed most.
    Compute,
    /// Thread hand-offs, like a network round on one CPU: 4 times, start
    /// a thread, make 16 channel round trips with it, and join it.
    Handoff,
}

impl Kernel {
    /// What the kernel takes at the reference host speed, in
    /// milliseconds.
    pub fn reference_ms(self) -> f64 {
        match self {
            Kernel::Compute => 5.0,
            Kernel::Handoff => 0.75,
        }
    }

    /// Run the kernel once and return its time in milliseconds.
    pub fn run(self) -> f64 {
        let start = Instant::now();
        match self {
            Kernel::Compute => {
                let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
                let mut pairs: Vec<(u64, u64)> = (0..131_072u64)
                    .map(|i| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        (x, i)
                    })
                    .collect();
                pairs.sort_unstable();
                std::hint::black_box(pairs[pairs.len() / 2]);
            }
            Kernel::Handoff => {
                for _ in 0..4 {
                    let (to_echo, echo_rx) = mpsc::channel::<u64>();
                    let (echo_tx, from_echo) = mpsc::channel::<u64>();
                    let echo = std::thread::spawn(move || {
                        while let Ok(v) = echo_rx.recv() {
                            if echo_tx.send(v + 1).is_err() {
                                break;
                            }
                        }
                    });
                    let mut v = 0;
                    for _ in 0..16 {
                        to_echo.send(v).expect("echo thread is alive");
                        v = from_echo.recv().expect("echo thread replies");
                    }
                    drop(to_echo);
                    echo.join().expect("echo thread ends");
                    std::hint::black_box(v);
                }
            }
        }
        start.elapsed().as_secs_f64() * 1e3
    }

    /// The factor that rescales a timing taken between two runs of the
    /// kernel, `before_ms` and `after_ms`, to the reference host speed.
    pub fn speed_factor(self, before_ms: f64, after_ms: f64) -> f64 {
        2.0 * self.reference_ms() / (before_ms + after_ms)
    }
}

/// Cores available to this process when it started, before
/// [`pin_to_one_cpu`] narrowed them.
pub fn nproc() -> usize {
    *NPROC.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

static NPROC: OnceLock<usize> = OnceLock::new();
static PINNED: OnceLock<usize> = OnceLock::new();

/// The CPU the process runs on, if [`pin_to_one_cpu`] pinned it.
pub fn pinned_cpu() -> Option<usize> {
    PINNED.get().copied()
}

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Restrict the calling thread, and every thread it starts after, to the
/// lowest-numbered CPU it may run on. Called first thing in `main`, this
/// runs the whole benchmark on one CPU: on a shared host the other
/// virtual CPUs come and go with the neighbours' load, and a network
/// round whose workers run in parallel then measures the neighbours.
/// Returns the CPU, or `None` where the system does not allow it.
pub fn pin_to_one_cpu() -> Option<usize> {
    nproc();
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; 16];
        let size = std::mem::size_of_val(&mask);
        // SAFETY: `mask` is a writable buffer of `size` bytes; pid 0 is
        // the calling thread.
        if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
            return None;
        }
        let (word, bits) = mask.iter().enumerate().find(|(_, w)| **w != 0)?;
        let bit = bits.trailing_zeros() as usize;
        let mut one = [0u64; 16];
        one[word] = 1 << bit;
        // SAFETY: `one` is a readable buffer of `size` bytes.
        if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
            return None;
        }
        let cpu = 64 * word + bit;
        PINNED.set(cpu).ok();
        Some(cpu)
    }
    #[cfg(not(target_os = "linux"))]
    None
}

/// CPU time the hypervisor has taken from the CPU the run is pinned to
/// (the `steal` column of that CPU's line in `/proc/stat`), in
/// milliseconds, in steps of 10 ms; 0 when the run is not pinned or the
/// kernel does not report it.
pub fn steal_ms() -> f64 {
    let Some(cpu) = pinned_cpu() else {
        return 0.0;
    };
    let label = format!("cpu{cpu}");
    // `/proc/stat` counts in USER_HZ ticks, 100 per second on Linux.
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let line = stat
                .lines()
                .find(|l| l.split_whitespace().next() == Some(label.as_str()))?;
            line.split_whitespace().nth(8)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks * 10.0)
}

/// One timed call: its wall time, and how much of it the hypervisor held
/// the run's CPU.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lap {
    /// Wall time, in milliseconds.
    pub ms: f64,
    /// Stolen time within it, in milliseconds ([`steal_ms`]).
    pub stolen_ms: f64,
}

/// Times one call as a [`Lap`]. `/proc/stat` is read outside the timed
/// interval.
pub struct Stopwatch {
    steal: f64,
    start: Instant,
}

impl Stopwatch {
    /// Start timing.
    pub fn start() -> Stopwatch {
        let steal = steal_ms();
        Stopwatch {
            steal,
            start: Instant::now(),
        }
    }

    /// The lap since [`Stopwatch::start`].
    pub fn lap(&self) -> Lap {
        let ms = self.start.elapsed().as_secs_f64() * 1e3;
        Lap {
            ms,
            stolen_ms: steal_ms() - self.steal,
        }
    }
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Hand the memory the allocator holds free back to the system. Without
/// it glibc keeps each thread arena at its own high-water mark, and the
/// peak resident size drifts upward with whichever short-lived worker
/// threads happened to land on which arena.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `malloc_trim` only returns free pages to the system.
    unsafe {
        malloc_trim(0);
    }
}

/// The compiler that built the benchmark (captured by `build.rs`).
pub fn rustc() -> &'static str {
    env!("PERFBENCH_RUSTC")
}

/// The commit checked out in the working directory, read from `.git`
/// without leaving it; `unknown` outside a git checkout.
pub fn git_sha() -> String {
    let git = Path::new(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(sha) = read(&git.join(reference)) {
        return sha.trim().to_string();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (sha, name) = line.split_once(' ')?;
                (name == reference).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
