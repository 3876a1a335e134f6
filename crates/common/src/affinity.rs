//! Thread→core pinning for the benchmark drivers.
//!
//! The paper's model is one worker per core; on real hardware the OS
//! scheduler happily migrates an unpinned worker mid-measurement, folding
//! cache refills and cross-core noise into whatever the figure claims to
//! measure. [`pin_to_core`] binds the *calling thread* to one CPU via a
//! raw `sched_setaffinity` syscall (the workspace vendors no libc), and
//! [`PinPolicy`] names the two placements the harness offers plus the
//! default of leaving the scheduler alone.
//!
//! Everything degrades to a clean no-op: on non-Linux targets, on
//! architectures without the syscall shim, or when the requested core
//! does not exist, [`pin_to_core`] returns `false` and the thread simply
//! runs unpinned — a benchmark must never fail because the host is
//! smaller than the sweep.

/// How benchmark worker threads are placed on cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PinPolicy {
    /// Leave placement to the OS scheduler (the default).
    #[default]
    None,
    /// Thread `i` → core `(i * stride) % cores` with
    /// `stride = max(1, cores / threads)`: spreads a small thread count
    /// across the whole core space (and, on multi-socket or
    /// cluster-of-cores parts, across the far caches).
    RoundRobin,
    /// Thread `i` → core `i % cores`: packs threads onto the
    /// lowest-numbered cores so a small sweep shares one cache domain.
    Compact,
    /// Thread `i` → core `i % n`: deliberately packs all threads onto the
    /// first `n` cores, oversubscribing them when `threads > n`. The
    /// contention benches use it to study more workers than cores on a
    /// machine that has plenty.
    CompactTo(usize),
}

impl PinPolicy {
    /// Parse a policy name (config files, CLI flags).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "none" => Some(Self::None),
            "round_robin" | "rr" => Some(Self::RoundRobin),
            "compact" => Some(Self::Compact),
            _ => {
                let n = s.strip_prefix("compact:")?.parse().ok()?;
                if n == 0 {
                    return None;
                }
                Some(Self::CompactTo(n))
            }
        }
    }

    /// The policy's stable label (config echo, JSON meta).
    pub fn label(self) -> String {
        match self {
            Self::None => "none".into(),
            Self::RoundRobin => "round_robin".into(),
            Self::Compact => "compact".into(),
            Self::CompactTo(n) => format!("compact:{n}"),
        }
    }

    /// The core this policy assigns to `thread` out of `threads`, given
    /// `cores` available cores; `None` when the policy does not pin.
    /// Pure placement arithmetic, separated from the syscall so tests can
    /// pin (sic) the mapping down without touching affinity masks.
    pub fn core_for(self, thread: u32, threads: u32, cores: usize) -> Option<usize> {
        if cores == 0 {
            return None;
        }
        match self {
            Self::None => None,
            Self::RoundRobin => {
                let stride = (cores / (threads.max(1) as usize)).max(1);
                Some((thread as usize * stride) % cores)
            }
            Self::Compact => Some(thread as usize % cores),
            Self::CompactTo(n) => Some(thread as usize % n.min(cores)),
        }
    }

    /// How many *distinct* cores this policy lands `threads` threads on,
    /// out of `cores` available. The engine's early-yield heuristic keys
    /// off this — `threads > distinct_cores` means the run is
    /// oversubscribed no matter how many cores the machine has.
    /// `PinPolicy::None` counts every core: the scheduler can use them all.
    pub fn distinct_cores(self, threads: u32, cores: usize) -> usize {
        let t = threads.max(1) as usize;
        match self {
            Self::None => cores.max(1),
            Self::RoundRobin | Self::Compact => t.min(cores.max(1)),
            Self::CompactTo(n) => t.min(n.min(cores.max(1)).max(1)),
        }
    }

    /// Pin the calling thread per this policy. Returns `true` only when a
    /// core was assigned *and* the affinity syscall succeeded.
    pub fn apply(self, thread: u32, threads: u32) -> bool {
        match self.core_for(thread, threads, available_cores()) {
            Some(core) => pin_to_core(core),
            None => false,
        }
    }
}

/// The host's available parallelism (1 when unknown), snapshotted on the
/// first call. `available_parallelism()` honours the *calling thread's*
/// affinity mask, so re-reading it from a thread that has pinned itself
/// reports one core — `pin_to_core` would then refuse every other core
/// and the oversubscription checks would misfire.
pub fn available_cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Bind the calling thread to `core`. Returns `false` — leaving the
/// thread unpinned — when the core does not exist on this host or the
/// platform has no affinity support (see the [module docs](self)).
pub fn pin_to_core(core: usize) -> bool {
    if core >= available_cores() {
        return false;
    }
    // One-bit CPU mask. 1024 bits matches the kernel's default cpumask
    // width; hosts beyond that were range-checked out above anyway.
    let mut mask = [0u64; 16];
    let word = core / 64;
    if word >= mask.len() {
        return false;
    }
    mask[word] = 1u64 << (core % 64);
    sched_setaffinity_raw(&mask)
}

/// `sched_setaffinity(0, size, mask)` for the current thread, x86_64.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn sched_setaffinity_raw(mask: &[u64]) -> bool {
    let ret: i64;
    // SAFETY: syscall 203 (sched_setaffinity) reads `size` bytes from the
    // mask pointer and touches no other memory; rcx/r11 are clobbered by
    // the syscall instruction itself.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 203i64 => ret,
            in("rdi") 0,
            in("rsi") std::mem::size_of_val(mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret == 0
}

/// `sched_setaffinity(0, size, mask)` for the current thread, aarch64.
#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
fn sched_setaffinity_raw(mask: &[u64]) -> bool {
    let ret: i64;
    // SAFETY: syscall 122 (sched_setaffinity) reads `size` bytes from the
    // mask pointer and touches no other memory.
    unsafe {
        std::arch::asm!(
            "svc #0",
            in("x8") 122i64,
            inlateout("x0") 0i64 => ret,
            in("x1") std::mem::size_of_val(mask),
            in("x2") mask.as_ptr(),
            options(nostack),
        );
    }
    ret == 0
}

/// Portable no-op fallback: report failure, never crash.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
fn sched_setaffinity_raw(_mask: &[u64]) -> bool {
    false
}

// ---------------------------------------------------------------------------
// NUMA topology
// ---------------------------------------------------------------------------

/// The host's NUMA layout: which node owns each CPU. Detected once from
/// sysfs (`/sys/devices/system/node/node*/cpulist`); anything that fails
/// to parse — missing sysfs, exotic list syntax, non-Linux hosts — softly
/// degrades to a single node owning every CPU, so NUMA-aware code paths
/// collapse to the uniform behavior instead of erroring.
#[derive(Debug)]
pub struct NumaTopology {
    /// `node_of[cpu]` = owning node; CPUs beyond the vector map to node 0.
    node_of: Vec<u16>,
    /// Number of nodes (≥ 1).
    nodes: usize,
}

impl NumaTopology {
    /// Number of NUMA nodes (1 when unknown).
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The node owning `cpu` (0 when the CPU is unknown to the map).
    pub fn node_of_cpu(&self, cpu: usize) -> usize {
        self.node_of.get(cpu).copied().unwrap_or(0) as usize
    }

    /// Parse one sysfs `cpulist` ("0-15,32-47" / "3" / "" for a memory-only
    /// node) into CPU indices. Returns `None` on syntax it does not know.
    fn parse_cpulist(list: &str) -> Option<Vec<usize>> {
        let mut cpus = Vec::new();
        let trimmed = list.trim();
        if trimmed.is_empty() {
            return Some(cpus);
        }
        for part in trimmed.split(',') {
            match part.split_once('-') {
                Some((lo, hi)) => {
                    let lo: usize = lo.trim().parse().ok()?;
                    let hi: usize = hi.trim().parse().ok()?;
                    if hi < lo || hi - lo > 4096 {
                        return None;
                    }
                    cpus.extend(lo..=hi);
                }
                None => cpus.push(part.trim().parse().ok()?),
            }
        }
        Some(cpus)
    }

    /// Read the topology from sysfs; `None` on any miss (caller falls back
    /// to [`NumaTopology::single_node`]).
    fn from_sysfs() -> Option<Self> {
        let mut node_of = vec![0u16; available_cores()];
        let mut nodes = 0usize;
        for node in 0..=node_of.len().max(1) {
            let path = format!("/sys/devices/system/node/node{node}/cpulist");
            let Ok(list) = std::fs::read_to_string(&path) else {
                break;
            };
            for cpu in Self::parse_cpulist(&list)? {
                if cpu >= node_of.len() {
                    node_of.resize(cpu + 1, 0);
                }
                node_of[cpu] = node as u16;
            }
            nodes = node + 1;
        }
        (nodes >= 1).then_some(Self {
            node_of,
            nodes: nodes.max(1),
        })
    }

    /// The degenerate one-node topology every fallback lands on.
    fn single_node() -> Self {
        Self {
            node_of: Vec::new(),
            nodes: 1,
        }
    }
}

/// The detected host topology (cached; see [`NumaTopology`]).
pub fn numa_topology() -> &'static NumaTopology {
    static TOPOLOGY: std::sync::OnceLock<NumaTopology> = std::sync::OnceLock::new();
    TOPOLOGY.get_or_init(|| NumaTopology::from_sysfs().unwrap_or_else(NumaTopology::single_node))
}

/// The CPU the calling thread is executing on right now, via the `getcpu`
/// syscall; `None` where the syscall shim does not exist.
pub fn current_cpu() -> Option<usize> {
    getcpu_raw()
}

/// The NUMA node the calling thread is executing on right now (node 0 when
/// the CPU cannot be determined — matching the one-node fallback).
pub fn current_node() -> usize {
    current_cpu().map_or(0, |cpu| numa_topology().node_of_cpu(cpu))
}

/// `getcpu(&cpu, NULL, NULL)` for the current thread, x86_64.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn getcpu_raw() -> Option<usize> {
    let mut cpu: u32 = 0;
    let ret: i64;
    // SAFETY: syscall 309 (getcpu) writes 4 bytes through the first
    // pointer; the node and cache pointers are allowed to be null.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 309i64 => ret,
            in("rdi") &mut cpu,
            in("rsi") 0,
            in("rdx") 0,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    (ret == 0).then_some(cpu as usize)
}

/// `getcpu(&cpu, NULL, NULL)` for the current thread, aarch64.
#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
fn getcpu_raw() -> Option<usize> {
    let mut cpu: u32 = 0;
    let ret: i64;
    // SAFETY: syscall 168 (getcpu) writes 4 bytes through the first
    // pointer; the node and cache pointers are allowed to be null.
    unsafe {
        std::arch::asm!(
            "svc #0",
            in("x8") 168i64,
            inlateout("x0") &mut cpu as *mut u32 as i64 => ret,
            in("x1") 0i64,
            in("x2") 0i64,
            options(nostack),
        );
    }
    (ret == 0).then_some(cpu as usize)
}

/// Portable fallback: the current CPU is unknowable, report so.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
fn getcpu_raw() -> Option<usize> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oversized_core_falls_back_cleanly() {
        // Requesting a core beyond the machine must not pin and must not
        // panic — the thread just stays unpinned.
        assert!(!pin_to_core(available_cores()));
        assert!(!pin_to_core(usize::MAX));
    }

    /// Regression: the count must not shrink to the caller's own mask
    /// once the caller is pinned. Runs on a thread of its own so the pin
    /// dies with it.
    #[test]
    fn core_count_survives_pinning_the_caller() {
        std::thread::spawn(|| {
            let before = available_cores();
            if pin_to_core(0) {
                assert_eq!(available_cores(), before);
                // Every core the host has stays a valid pin target.
                assert!(pin_to_core(before - 1));
            }
        })
        .join()
        .expect("pinned probe thread");
    }

    #[test]
    fn none_policy_never_pins() {
        assert_eq!(PinPolicy::None.core_for(0, 8, 64), None);
        assert!(!PinPolicy::None.apply(0, 8));
    }

    #[test]
    fn compact_packs_low_cores() {
        for t in 0..8 {
            assert_eq!(PinPolicy::Compact.core_for(t, 8, 64), Some(t as usize));
        }
        // Oversubscription wraps instead of inventing cores.
        assert_eq!(PinPolicy::Compact.core_for(65, 128, 64), Some(1));
    }

    #[test]
    fn round_robin_strides_across_the_core_space() {
        // 4 threads on 64 cores: stride 16 spreads them out.
        let cores = 64;
        let picks: Vec<_> = (0..4)
            .map(|t| PinPolicy::RoundRobin.core_for(t, 4, cores).unwrap())
            .collect();
        assert_eq!(picks, vec![0, 16, 32, 48]);
        // More threads than cores: stride collapses to 1 and wraps.
        assert_eq!(PinPolicy::RoundRobin.core_for(70, 128, 64), Some(6));
    }

    #[test]
    fn parse_round_trips_labels() {
        for p in [
            PinPolicy::None,
            PinPolicy::RoundRobin,
            PinPolicy::Compact,
            PinPolicy::CompactTo(4),
        ] {
            assert_eq!(PinPolicy::parse(&p.label()), Some(p));
        }
        assert_eq!(PinPolicy::parse("rr"), Some(PinPolicy::RoundRobin));
        assert_eq!(PinPolicy::parse("compact:0"), None);
        assert_eq!(PinPolicy::parse("bogus"), None);
    }

    #[test]
    fn compact_to_oversubscribes_deliberately() {
        // 8 threads forced onto 2 cores: wraps over the pair.
        for t in 0..8u32 {
            assert_eq!(
                PinPolicy::CompactTo(2).core_for(t, 8, 64),
                Some(t as usize % 2)
            );
        }
        // Never assigns beyond the machine.
        assert_eq!(PinPolicy::CompactTo(128).core_for(65, 128, 64), Some(1));
    }

    #[test]
    fn distinct_cores_sees_through_the_policy() {
        // Unpinned: the scheduler has the whole machine.
        assert_eq!(PinPolicy::None.distinct_cores(8, 64), 64);
        // Compact/RoundRobin: one core per thread until the machine runs out.
        assert_eq!(PinPolicy::Compact.distinct_cores(8, 64), 8);
        assert_eq!(PinPolicy::Compact.distinct_cores(128, 64), 64);
        assert_eq!(PinPolicy::RoundRobin.distinct_cores(4, 64), 4);
        // CompactTo: capped by the requested core budget — 8 threads on 2
        // cores is oversubscription the park table must be able to see.
        assert_eq!(PinPolicy::CompactTo(2).distinct_cores(8, 64), 2);
        assert_eq!(PinPolicy::CompactTo(16).distinct_cores(8, 64), 8);
    }

    #[test]
    fn cpulist_parses_sysfs_syntax() {
        assert_eq!(
            NumaTopology::parse_cpulist("0-3,8-11\n"),
            Some(vec![0, 1, 2, 3, 8, 9, 10, 11])
        );
        assert_eq!(NumaTopology::parse_cpulist("5"), Some(vec![5]));
        assert_eq!(NumaTopology::parse_cpulist(""), Some(vec![]));
        assert_eq!(NumaTopology::parse_cpulist("3-1"), None);
        assert_eq!(NumaTopology::parse_cpulist("x-y"), None);
    }

    #[test]
    fn topology_soft_fails_to_one_node() {
        // Whatever the host looks like, the cached topology must exist,
        // report ≥ 1 node, and map every CPU somewhere valid.
        let topo = numa_topology();
        assert!(topo.nodes() >= 1);
        for cpu in 0..available_cores() {
            assert!(topo.node_of_cpu(cpu) < topo.nodes());
        }
        // Unknown CPUs map to node 0, never panic.
        assert_eq!(NumaTopology::single_node().node_of_cpu(9999), 0);
    }

    #[test]
    fn current_node_is_in_range() {
        // current_cpu is None off Linux; current_node must still answer.
        let node = current_node();
        assert!(node < numa_topology().nodes());
        if let Some(cpu) = current_cpu() {
            assert_eq!(numa_topology().node_of_cpu(cpu), node);
        }
    }

    #[test]
    fn pinning_to_core_zero_succeeds_on_linux() {
        // Core 0 always exists; on supported platforms the syscall must
        // succeed, elsewhere the fallback must report false.
        let ok = pin_to_core(0);
        if cfg!(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        )) {
            assert!(ok, "sched_setaffinity(0) failed on a supported target");
        } else {
            assert!(!ok);
        }
    }
}
