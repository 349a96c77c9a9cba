//! The canary: a fixed kernel of ordinary memory-bound work, timed once per
//! round between the measured operations, and before and after every set-up.
//!
//! On a shared host the wall time of memory-bound work moves in waves that
//! last from seconds to minutes. The canary does what the system under test
//! does — hashes strings into a dictionary, groups codes in hash maps,
//! collects ids in an ordered set, copies columns — over a working set as far
//! beyond the caches as the measured tables are, but it is the benchmark's
//! own code over its own fixed input: nothing in the system can speed it up
//! or slow it down. What the host does to it, it does to the operations timed
//! next to it, so the gating timings are taken relative to it
//! (`stats::calibrated`; README.md, "Why calibrated", has the measurements
//! behind that). Its best time (`bench.canary_ms`) and its spread over a run
//! (`bench.host_noise_pct`) say how busy the host was.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::{Duration, Instant};

const ROWS: usize = 48_000;
const COLUMNS: usize = 3;
/// Copies of the code column made per pass.
const COPIES: usize = 8;
/// Groups with more members than this are "flagged".
const FLAG_ABOVE: usize = 12;

/// What a pass takes, in ms, on a quiet host of the kind the benchmark was
/// written on: the scale that turns `operation ÷ canary` back into
/// milliseconds. A constant, so that a calibrated timing means the same in
/// every run.
pub const NOMINAL_MS: f64 = 15.0;

/// Fixed keys, unlike `RandomState`: the same probes in every process.
type FixedState = BuildHasherDefault<DefaultHasher>;

/// The kernel and its input: a `cust`-like table of short strings, the same
/// in every run whatever the seed and workload.
pub struct Canary {
    rows: Vec<[String; COLUMNS]>,
}

impl Canary {
    pub fn new() -> Self {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % bound
        };
        let rows = (0..ROWS)
            .map(|_| {
                [
                    format!("Name{:05}", draw(100_000)),
                    format!("{} Main St.", draw(9_999)),
                    format!("Town{:03}", draw(52)),
                ]
            })
            .collect();
        Canary { rows }
    }

    /// One pass: dictionary-encode the strings, group the rows by two of the
    /// codes, collect the large groups' rows in an ordered set, copy the
    /// codes a few times.
    pub fn run(&self) -> Duration {
        let started = Instant::now();
        let mut dictionary: HashMap<&str, u32, FixedState> = HashMap::default();
        let mut codes = Vec::with_capacity(ROWS * COLUMNS);
        for row in &self.rows {
            for value in row {
                let next = dictionary.len() as u32;
                codes.push(*dictionary.entry(value.as_str()).or_insert(next));
            }
        }
        let mut groups: HashMap<(u32, u32), Vec<u32>, FixedState> = HashMap::default();
        for (id, row) in codes.chunks_exact(COLUMNS).enumerate() {
            let key = (row[2], row[1] % 64);
            groups.entry(key).or_default().push(id as u32);
        }
        let flagged: BTreeSet<u64> = groups
            .values()
            .filter(|members| members.len() > FLAG_ABOVE)
            .flat_map(|members| members.iter().map(|id| u64::from(*id)))
            .collect();
        let copies: Vec<Vec<u32>> = (0..COPIES).map(|_| codes.clone()).collect();
        black_box((flagged.len(), copies.len()));
        started.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_input_is_fixed_and_the_kernel_runs() {
        let (a, b) = (Canary::new(), Canary::new());
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.rows.len(), ROWS);
        assert!(a.run() > Duration::ZERO);
    }
}
