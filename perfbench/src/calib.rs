//! Host-speed calibration for the end-to-end timings.
//!
//! On a shared host other tenants' load changes how fast this process runs,
//! in phases that last from seconds to minutes. On the guest described at
//! [`NOMINAL_S`] the same scorecard pass measured ~0.37 s, ~0.45 s and
//! ~0.75 s within an hour, with cache-heavy code slowed most. A median over
//! one run reads whatever phase the run fell in, so ten runs of the same
//! code spread by 30-40% of their median, and the fastest sample of a run
//! does no better when a whole run falls in one slow phase.
//!
//! So every timed repetition is bracketed by a fixed calibration loop, and
//! its times are reported in host-normalized seconds: wall time x
//! [`scale`] of the loop's time. The loop is this file's own code and calls
//! nothing of the repository, so no change to the simulator moves it. Its
//! mix of hash-map updates over a ~1 MB table, 4-way set-associative tag
//! lookups, sorting and small allocations is the simulator's kind of work,
//! and it slows in the same phases: on that guest, over five minutes of
//! alternating phases, a one-thread loop of this mix ran x1.70 slower in
//! the slow phases than in the fast ones, and the scorecard pass x1.69.
//! The loop runs on as many threads at once as the workload's passes use,
//! so contention on every core a pass runs on shows in the reading.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// A fixed reference time for one calibration loop, near its one-thread
/// time in the fastest phases seen on a 2-vCPU KVM guest of an Intel Xeon
/// host (2.0 GHz, 105 MB shared L3), where it read 0.06-0.08 s. It only
/// sets the unit: host-normalized seconds are seconds on a host that runs
/// the loop in this time.
pub const NOMINAL_S: f64 = 0.060;

/// How a pass's time follows the loop's: a pass spends only part of its
/// time in the contention-sensitive work the loop is made of, so it slows
/// by the loop's slowdown to this power. Fitted on that guest over ten
/// seeds of each workload, while the loop's time drifted 2x: with 0.6 the
/// runs' spread (IQR / median of the ten per-run cold_s values) was 0.08,
/// 0.03 and 0.07 on tune, campaign and scorecard, against 0.39, 0.18 and
/// 0.18 for plain wall-time medians and 0.11, 0.09 and 0.10 with power 1.
pub const EXPONENT: f64 = 0.6;

/// The factor that turns wall seconds into host-normalized seconds when
/// the calibration loop took `loop_s`.
pub fn scale(loop_s: f64) -> f64 {
    (NOMINAL_S / loop_s).powf(EXPONENT)
}

/// Rounds per loop; each round touches every structure once.
const ROUNDS: u32 = 16;
/// Updates per round.
const UPDATES: u64 = 1 << 16;
/// Sets of the 4-way tag array (256 KB of tags).
const SETS: usize = 1 << 13;

/// One thread's working set, allocated once so that a loop times no page
/// faults.
struct State {
    map: HashMap<u64, u64>,
    keys: Vec<u64>,
    tags: Vec<u64>,
    lru: Vec<u32>,
}

impl State {
    fn new() -> Self {
        State {
            map: HashMap::with_capacity(UPDATES as usize),
            keys: Vec::with_capacity(UPDATES as usize),
            tags: vec![0; SETS * 4],
            lru: vec![0; SETS * 4],
        }
    }

    /// One calibration loop; returns its wall time in seconds.
    fn run(&mut self) -> f64 {
        self.tags.fill(0);
        self.lru.fill(0);
        let start = Instant::now();
        let mut rng = 0x9E37_79B9_7F4A_7C15_u64;
        let mut hits = 0u64;
        for round in 0..ROUNDS {
            self.map.clear();
            self.keys.clear();
            for i in 0..UPDATES {
                // xorshift64
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                *self.map.entry(rng & 0xFFFF).or_insert(0) += i;
                self.keys.push(rng >> 20);
                let tag = (rng >> 6) & 0xF_FFFF;
                let set = (tag as usize % SETS) * 4;
                let now = (round << 16) | i as u32;
                match (set..set + 4).find(|&w| self.tags[w] == tag) {
                    Some(w) => {
                        hits += 1;
                        self.lru[w] = now;
                    }
                    None => {
                        let victim = (set..set + 4)
                            .min_by_key(|&w| self.lru[w])
                            .expect("four ways");
                        self.tags[victim] = tag;
                        self.lru[victim] = now;
                    }
                }
                black_box(Box::new([rng, i, tag, hits]));
            }
            self.keys.sort_unstable();
            black_box(&self.keys);
        }
        black_box((self.map.len(), hits));
        start.elapsed().as_secs_f64()
    }
}

/// The calibration loop on a fixed number of threads.
pub struct Calibration {
    states: Vec<State>,
}

impl Calibration {
    /// A calibration for passes that run on `threads` threads.
    pub fn new(threads: usize) -> Self {
        Calibration {
            states: (0..threads.max(1)).map(|_| State::new()).collect(),
        }
    }

    /// Runs the loop once on every thread at the same time; returns the
    /// mean of the threads' loop times in seconds.
    pub fn measure(&mut self) -> f64 {
        let n = self.states.len() as f64;
        let total: f64 = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .states
                .iter_mut()
                .map(|st| s.spawn(move || st.run()))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("calibration loop panicked"))
                .sum()
        });
        total / n
    }
}
