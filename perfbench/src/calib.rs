//! A fixed reference computation, run between rounds.
//!
//! The reference host's neighbours slow everything down by 15–30 % for
//! minutes at a time — longer than a run — so no statistic of a run's own
//! round times is steady from run to run. The kernel below does a fixed
//! amount of work with the same ingredients as the engine's hot paths
//! (random accesses over a table far larger than the private caches, a
//! comparison sort, integer hashing) and shares no code with the engine; what
//! the host does to it, it does to the rounds next to it.

use std::hint::black_box;
use std::time::Instant;

/// Table entries (16 MiB of `u64`).
const TABLE: usize = 1 << 21;
/// Random read-modify-writes per call.
const TOUCHES: usize = 150_000;
/// Keys sorted per call.
const SORTED: usize = 1 << 15;

/// The kernel's scratch memory, allocated once.
pub struct Kernel {
    table: Vec<u64>,
    keys: Vec<u64>,
    state: u64,
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel::new()
    }
}

impl Kernel {
    /// Allocate and touch the scratch memory.
    pub fn new() -> Kernel {
        Kernel {
            table: (0..TABLE as u64).collect(),
            keys: vec![0; SORTED],
            state: 0x9E37_79B9_7F4A_7C15,
        }
    }

    fn next(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.state ^ (self.state >> 29)
    }

    /// Run the kernel once; returns the milliseconds it took.
    pub fn run(&mut self) -> f64 {
        let started = Instant::now();
        for _ in 0..TOUCHES {
            let x = self.next();
            let slot = (x >> 20) as usize % TABLE;
            self.table[slot] = self.table[slot].wrapping_add(x);
        }
        for i in 0..SORTED {
            self.keys[i] = self.next();
        }
        self.keys.sort_unstable();
        black_box(&self.keys);
        black_box(&self.table);
        started.elapsed().as_secs_f64() * 1e3
    }
}
