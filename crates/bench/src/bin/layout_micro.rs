//! Memory-layout micro-probes — the measured backing for two structural
//! choices:
//!
//! 1. **Padding** (`padding_audit` section): the engine wraps its
//!    contended hot words (2PL park-table lockwords, epoch slots, the
//!    shared timestamp counter, waits-for heads) in
//!    `abyss_common::Padded`. This audit measures what that buys: the
//!    same per-thread slot hammering run twice through the harness, once
//!    with `Padded` (128-byte-aligned slots, no false sharing) and once
//!    with `Unpadded` (`repr(transparent)` — adjacent slots share cache
//!    lines), reporting ns/op for each and the unpadded/padded ratio.
//!
//! 2. **NUMA arena refill** (`numa` section): memory-pool lifecycles
//!    against the per-node arenas, same-node vs interleaved, reporting
//!    ns/alloc and the arena hit rate.
//!
//! Prints one table per section and writes `results/layout_micro.json`
//! in the shared envelope. `--quick` shrinks budgets (CI smoke); `--full`
//! grows them.

use std::ops::AddAssign;
use std::sync::atomic::{AtomicU64, Ordering};

use abyss_bench::harness::emit::{num, Envelope};
use abyss_bench::harness::{self, BenchContext, BenchSpec, PinPolicy};
use abyss_bench::{HarnessArgs, Report};
use abyss_common::{PadWrap, Padded, Unpadded};
use abyss_storage::mempool::{arena_depth, MemPool};

// ---------------------------------------------------------------------
// Padding audit
// ---------------------------------------------------------------------

/// Per-thread op counter merged across the harness's workers.
#[derive(Default, Clone)]
struct Ops(u64);

impl AddAssign for Ops {
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

/// What a padding case hammers per iteration on its thread's slot.
#[derive(Clone, Copy)]
enum Pattern {
    /// A 2PL lockword handoff: CAS 0→1 (acquire) then store 0 (release) —
    /// the park-table / lock-table hot word.
    Lockword,
    /// An epoch slot: publish a monotonically rising local epoch, then
    /// read a neighbor's slot the way the epoch advancer scans the ring.
    EpochSlot,
}

impl Pattern {
    fn name(self) -> &'static str {
        match self {
            Pattern::Lockword => "2pl_lockword",
            Pattern::EpochSlot => "epoch_slots",
        }
    }
}

/// A bank of per-thread hot words, generic over the padding wrapper so
/// the padded and compile-time-unpadded controls run the same code.
struct PadAudit<P: PadWrap<AtomicU64>> {
    slots: Vec<P>,
    ops_per_thread: u64,
    pattern: Pattern,
}

impl<P: PadWrap<AtomicU64>> PadAudit<P> {
    fn new(threads: u32, ops_per_thread: u64, pattern: Pattern) -> Self {
        Self {
            slots: (0..threads).map(|_| P::wrap(AtomicU64::new(0))).collect(),
            ops_per_thread,
            pattern,
        }
    }
}

impl<P: PadWrap<AtomicU64>> BenchSpec for PadAudit<P> {
    type Result = Ops;

    fn run(&self, ctx: &mut BenchContext<'_>) -> Ops {
        let mine = self.slots[ctx.thread_id as usize].get();
        let next = self.slots[(ctx.thread_id as usize + 1) % self.slots.len()].get();
        ctx.wait_for_start();
        let mut done = 0u64;
        match self.pattern {
            Pattern::Lockword => {
                while done < self.ops_per_thread {
                    while mine
                        .compare_exchange_weak(0, 1, Ordering::Acquire, Ordering::Relaxed)
                        .is_err()
                    {
                        std::hint::spin_loop();
                    }
                    mine.store(0, Ordering::Release);
                    done += 1;
                }
            }
            Pattern::EpochSlot => {
                while done < self.ops_per_thread {
                    mine.store(done, Ordering::Release);
                    std::hint::black_box(next.load(Ordering::Acquire));
                    done += 1;
                }
            }
        }
        Ops(done)
    }
}

/// Best-of-N ns/op for one wrapper type.
fn audit_case<P: PadWrap<AtomicU64>>(threads: u32, ops: u64, rounds: u32, pattern: Pattern) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let mut spec = PadAudit::<P>::new(threads, ops, pattern);
        let out = harness::run_bounded(&mut spec, threads, PinPolicy::Compact);
        assert_eq!(out.merged.0, u64::from(threads) * ops);
        best = best.min(out.wall.as_nanos() as f64 / (u64::from(threads) * ops) as f64);
    }
    best
}

fn padding_section(args: &HarnessArgs) -> String {
    let threads = (abyss_common::available_cores() as u32).clamp(2, 4);
    let (ops, rounds) = if args.quick {
        (200_000u64, 2u32)
    } else if args.full {
        (4_000_000, 5)
    } else {
        (1_000_000, 3)
    };

    let mut table = Report::new(&[
        "hot word",
        "padded ns/op",
        "unpadded ns/op",
        "unpadded/padded",
    ]);
    let mut cases = Vec::new();
    for pattern in [Pattern::Lockword, Pattern::EpochSlot] {
        let padded = audit_case::<Padded<AtomicU64>>(threads, ops, rounds, pattern);
        let unpadded = audit_case::<Unpadded<AtomicU64>>(threads, ops, rounds, pattern);
        let ratio = unpadded / padded;
        table.row(vec![
            pattern.name().to_string(),
            format!("{padded:.1}"),
            format!("{unpadded:.1}"),
            format!("{ratio:.3}"),
        ]);
        cases.push(format!(
            "{{\"hot_word\":\"{}\",\"padded_ns_per_op\":{},\
             \"unpadded_ns_per_op\":{},\"unpadded_over_padded\":{}}}",
            pattern.name(),
            num(padded),
            num(unpadded),
            num(ratio),
        ));
    }
    table.print(&format!(
        "padding audit: {threads} compact-pinned threads, {ops} ops each, best-of-{rounds}"
    ));

    format!(
        "{{\"threads\":{threads},\"ops_per_thread\":{ops},\"rounds\":{rounds},\
         \"pin\":\"compact\",\"cases\":[{}]}}",
        cases.join(",")
    )
}

// ---------------------------------------------------------------------
// NUMA arena refill
// ---------------------------------------------------------------------

/// Per-thread tally for the arena-churn spec.
#[derive(Default, Clone, Copy)]
struct Churn {
    allocs: u64,
    arena_hits: u64,
    refilled: u64,
}

impl AddAssign for Churn {
    fn add_assign(&mut self, rhs: Self) {
        self.allocs += rhs.allocs;
        self.arena_hits += rhs.arena_hits;
        self.refilled += rhs.refilled;
    }
}

/// Block size the churn hammers — the pool's row-copy sweet spot.
const CHURN_BLOCK: usize = 256;
/// Blocks allocated per pool lifecycle.
const CHURN_BURST: usize = 64;

/// Pool-lifecycle churn against the node arenas: each round builds a
/// pool bound to one node, allocates a burst, frees it, and drops the
/// pool — parking its cache into that node's arena, where the next
/// same-node pool's refill recycles it. `nodes` round-robins the target:
/// a single entry is the local steady state (arena hits every round
/// after the first); listing every node is the interleaved pattern a
/// non-NUMA-aware allocator produces. Single-node hosts collapse both
/// cases to identical behavior — the figure reports the topology so the
/// validator knows when the delta is meaningful.
struct ArenaChurn {
    nodes: Vec<usize>,
    rounds: u64,
}

impl BenchSpec for ArenaChurn {
    type Result = Churn;

    fn run(&self, ctx: &mut BenchContext<'_>) -> Churn {
        ctx.wait_for_start();
        let mut out = Churn::default();
        let mut blocks = Vec::with_capacity(CHURN_BURST);
        for r in 0..self.rounds {
            let node = self.nodes[(r as usize) % self.nodes.len()];
            let mut pool = MemPool::new_on_node(node);
            for _ in 0..CHURN_BURST {
                blocks.push(pool.alloc(CHURN_BLOCK));
            }
            out.allocs += CHURN_BURST as u64;
            for b in blocks.drain(..) {
                pool.free(b);
            }
            let st = pool.stats();
            out.arena_hits += st.arena_hits;
            out.refilled += st.refilled_blocks;
        }
        out
    }
}

/// Best-of-N ns/alloc for one node pattern, plus the arena hit rate:
/// the fraction of refilled blocks recycled from the node arena rather
/// than carved fresh (deterministic given the pattern, so any rep
/// serves).
fn churn_case(nodes: Vec<usize>, rounds: u64, reps: u32) -> (f64, f64) {
    let mut best = f64::INFINITY;
    let mut hit_rate = 0.0;
    for _ in 0..reps {
        let mut spec = ArenaChurn {
            nodes: nodes.clone(),
            rounds,
        };
        let out = harness::run_bounded(&mut spec, 1, PinPolicy::Compact);
        best = best.min(out.wall.as_nanos() as f64 / out.merged.allocs as f64);
        hit_rate = out.merged.arena_hits as f64 / out.merged.refilled.max(1) as f64;
    }
    (best, hit_rate)
}

fn numa_section(args: &HarnessArgs) -> String {
    let topo = abyss_common::numa_topology();
    let here = abyss_common::current_node();
    let (rounds, reps) = if args.quick {
        (2_000u64, 2u32)
    } else if args.full {
        (40_000, 5)
    } else {
        (10_000, 3)
    };
    let all_nodes: Vec<usize> = (0..topo.nodes()).collect();

    // Prime every node's arena once so the timed cases measure steady
    // state, not first-touch allocation.
    churn_case(all_nodes.clone(), 64.max(rounds / 10), 1);

    let mut table = Report::new(&["pattern", "ns/alloc", "arena hit rate"]);
    let mut cases = Vec::new();
    let mut by_name = [0.0f64; 2];
    for (i, (name, nodes)) in [("local", vec![here]), ("interleaved", all_nodes.clone())]
        .into_iter()
        .enumerate()
    {
        let (ns, hits) = churn_case(nodes, rounds, reps);
        by_name[i] = ns;
        table.row(vec![
            name.to_string(),
            format!("{ns:.1}"),
            format!("{hits:.3}"),
        ]);
        cases.push(format!(
            "{{\"pattern\":\"{name}\",\"ns_per_alloc\":{},\"arena_hit_rate\":{}}}",
            num(ns),
            num(hits),
        ));
    }
    table.print(&format!(
        "numa arena refill: {} node(s), {CHURN_BURST}x{CHURN_BLOCK}B bursts, \
         {rounds} pool lifecycles x best-of-{reps}",
        topo.nodes()
    ));

    format!(
        "{{\"nodes\":{},\"current_node\":{here},\"block_size\":{CHURN_BLOCK},\
         \"burst\":{CHURN_BURST},\"rounds\":{rounds},\"reps\":{reps},\
         \"arena_depth_local\":{},\"interleaved_over_local\":{},\"cases\":[{}]}}",
        topo.nodes(),
        arena_depth(here, CHURN_BLOCK),
        num(by_name[1] / by_name[0]),
        cases.join(",")
    )
}

fn main() {
    let args = HarnessArgs::parse();
    let padding = padding_section(&args);
    let numa = numa_section(&args);

    let mut env = Envelope::new("layout_micro");
    env.section("padding_audit", &padding)
        .section("numa", &numa);
    env.write().expect("write results/layout_micro.json");
}
