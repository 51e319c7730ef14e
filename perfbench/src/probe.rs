//! Resource probes read from the outside: process and per-thread CPU from
//! `/proc/self`, peak resident memory, and a counting global allocator that
//! costs one relaxed flag check while it is switched off.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Kernel clock ticks per second for `/proc/*/stat` CPU fields (`USER_HZ`,
/// 100 on every mainstream Linux build).
const CLK_TCK: f64 = 100.0;

/// Microseconds per clock tick.
pub const TICK_US: f64 = 1e6 / CLK_TCK;

/// `utime + stime` in clock ticks from a `stat` line, plus the thread name.
fn parse_stat(text: &str) -> Option<(String, u64)> {
    // The name sits in parentheses and may itself contain spaces or
    // parentheses, so split at the last closing one.
    let open = text.find('(')?;
    let close = text.rfind(')')?;
    let name = text.get(open + 1..close)?.to_owned();
    let fields: Vec<&str> = text.get(close + 1..)?.split_whitespace().collect();
    // Fields after the name start at `state` (field 3); utime and stime are
    // fields 14 and 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((name, utime + stime))
}

/// CPU ticks of the whole process, exited threads included.
pub fn process_ticks() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|t| parse_stat(&t))
        .map_or(0, |(_, ticks)| ticks)
}

/// CPU ticks of every live thread, by thread id, with its name.
pub fn thread_ticks() -> HashMap<u32, (String, u64)> {
    let mut out = HashMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        if let Some(stat) = std::fs::read_to_string(entry.path().join("stat"))
            .ok()
            .and_then(|t| parse_stat(&t))
        {
            out.insert(tid, stat);
        }
    }
    out
}

/// The calling thread's kernel id (the main thread's equals the pid).
pub fn main_tid() -> u32 {
    std::process::id()
}

/// Thread roles the CPU breakdown reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// The benchmark's single closed-loop client (the main thread).
    Client,
    /// `gateway-worker-*` scatter pool threads.
    GatewayWorker,
    /// `httpd-worker-*` request handler threads.
    HttpdWorker,
    /// The `httpd-poll` event loop.
    HttpdPoll,
    /// Any other thread alive at the end of the window (sweepers, notify
    /// sinks, long-lived stream producers).
    OtherLive,
    /// Threads that exited inside the window: per-batch `ppg-batch-stream`
    /// and `ppg-stream` producers and the scoped producers they spawn.
    Exited,
}

fn role_of(tid: u32, name: &str) -> Role {
    if tid == main_tid() {
        Role::Client
    } else if name.starts_with("gateway-worker") {
        Role::GatewayWorker
    } else if name.starts_with("httpd-worker") {
        Role::HttpdWorker
    } else if name.starts_with("httpd-poll") {
        Role::HttpdPoll
    } else {
        Role::OtherLive
    }
}

/// A CPU reading taken at the start of a measured window.
pub struct CpuMark {
    process: u64,
    threads: HashMap<u32, (String, u64)>,
}

impl CpuMark {
    pub fn now() -> CpuMark {
        CpuMark {
            threads: thread_ticks(),
            process: process_ticks(),
        }
    }

    /// Process CPU in µs since the mark.
    pub fn process_us(&self) -> f64 {
        process_ticks().saturating_sub(self.process) as f64 * TICK_US
    }

    /// CPU in µs since the mark, by thread role. A thread alive at the end
    /// counts its growth since the mark (all of it when it started inside
    /// the window); whatever the process used beyond the live threads ran
    /// on threads that have since exited.
    pub fn by_role(&self) -> HashMap<Role, f64> {
        let threads = thread_ticks();
        let process = process_ticks().saturating_sub(self.process);
        let mut out: HashMap<Role, f64> = HashMap::new();
        let mut live = 0u64;
        for (tid, (name, ticks)) in &threads {
            let before = self.threads.get(tid).map_or(0, |(_, t)| *t);
            let delta = ticks.saturating_sub(before);
            live += delta;
            *out.entry(role_of(*tid, name)).or_default() += delta as f64 * TICK_US;
        }
        out.insert(Role::Exited, process.saturating_sub(live) as f64 * TICK_US);
        out
    }
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
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

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting allocations and requested bytes while
/// [`count_allocations`] has switched counting on.
pub struct CountingAlloc;

impl CountingAlloc {
    #[inline]
    fn note(size: usize) {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters only touch
// atomics and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract and
        // `ptr` came from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switch allocation counting on or off.
pub fn count_allocations(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes requested)` counted so far.
pub fn allocations() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}
