//! How fast the machine is right now, measured beside the workload.
//!
//! The machines this benchmark runs on are small guests of shared hosts.
//! Other tenants slow a pinned process down by anything up to a half, for
//! milliseconds or for an hour, and no timing taken on such a machine repeats
//! (README, "Observed spread"). So the benchmark never reports a time as the
//! clock gave it. Between the slices of every timed phase it runs a fixed
//! reference computation of its own, a few milliseconds of the kinds of work
//! the store does, and divides each slice's times by how much slower than
//! nominal the reference ran around that slice. What it reports is the time
//! the program would have taken on the machine at its nominal speed: a change
//! to the program moves it, a busy neighbour does not.
//!
//! The reference never touches the program under test, so an optimisation
//! cannot speed it up.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Instant;

/// Nanoseconds each kernel takes beside a workload on the seed machine when
/// nothing else disturbs it (2.1 GHz Xeon guest, pinned; the fifth percentile
/// `fit_reference.py` prints), in the order `Reference::kernel_ns` times them:
/// alu, memory, hash, btree, alloc, handoff. They set the unit, not the
/// steadiness: on a machine that is faster or slower throughout, every
/// reported time is off by one constant factor.
pub const NOMINAL_NS: [f64; 6] = [
    520_000.0, 465_000.0, 415_000.0, 425_000.0, 385_000.0, 430_000.0,
];

/// How much of the reference's slowdown each kernel speaks for; they sum to
/// 1, so a machine twice slower at everything halves every reported time.
/// Same-seed runs repeat the same slices, so a slice's time over its fastest
/// repetitions is what the machine did to it; `fit_reference.py` regresses
/// that on the kernels' slowdowns around the slice, all workloads pooled.
/// The kernels move together, so the fit pins no single weight down (two
/// collections gave alu 0.20 to 0.33, memory 0.15 to 0.26, hash 0.14 to 0.27,
/// the others 0.06 to 0.19) and the spread of the results barely depends on
/// which of those is used: these are rounded middles.
pub const WEIGHTS: [f64; 6] = [0.25, 0.20, 0.15, 0.10, 0.15, 0.15];

/// Words of the array the `memory` kernel walks: 8 MB, beyond the private
/// caches and small beside the program's own footprint.
const MEMORY_WORDS: usize = 1 << 20;
const HASH_KEYS: u64 = 200_000;
const BTREE_KEYS: u32 = 200_000;
const RING_BUFFERS: usize = 4096;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The reference computation. Six kernels, each about half a millisecond,
/// each slowed by a different kind of interference: independent arithmetic
/// (a neighbour on the core's other hardware thread), random reads of an
/// array and of a hash map (shared cache and memory), ordered-map lookups
/// (branches and pointer chasing), allocation and copying, and hand-offs to
/// another thread and back (the kernel's wake-up path, which every cache-server
/// round trip of the store takes).
pub struct Reference {
    rng: u64,
    memory: Vec<u64>,
    hash: HashMap<u64, u64>,
    btree: BTreeMap<u32, u32>,
    ring: VecDeque<Vec<u8>>,
    to_peer: Option<Sender<u64>>,
    from_peer: Receiver<u64>,
    peer: Option<JoinHandle<()>>,
}

impl Reference {
    pub fn new() -> Reference {
        let (to_peer, peer_rx) = channel::<u64>();
        let (peer_tx, from_peer) = channel::<u64>();
        let peer = std::thread::spawn(move || {
            while let Ok(v) = peer_rx.recv() {
                if peer_tx.send(v + 1).is_err() {
                    break;
                }
            }
        });
        let mut rng = 88_172_645_463_325_252_u64;
        let hash = (0..HASH_KEYS / 2)
            .map(|_| {
                let k = xorshift(&mut rng) % HASH_KEYS;
                (k, k)
            })
            .collect();
        let btree = (0..BTREE_KEYS / 2)
            .map(|_| {
                let k = (xorshift(&mut rng) % u64::from(BTREE_KEYS)) as u32;
                (k, k)
            })
            .collect();
        Reference {
            rng,
            memory: vec![1; MEMORY_WORDS],
            hash,
            btree,
            ring: VecDeque::with_capacity(RING_BUFFERS + 1),
            to_peer: Some(to_peer),
            from_peer,
            peer: Some(peer),
        }
    }

    /// Runs every kernel once and returns the time each took, in ns.
    pub fn kernel_ns(&mut self) -> [f64; 6] {
        let mut out = [0.0; 6];
        let mut timed = |slot: usize, start: Instant| {
            out[slot] = start.elapsed().as_nanos() as f64;
        };

        let t = Instant::now();
        let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
        for i in 0..400_000u64 {
            a = a.wrapping_mul(3).wrapping_add(i);
            b = b.wrapping_add(a >> 3) ^ i;
            c = c.rotate_left(5).wrapping_add(b);
            d ^= c.wrapping_mul(7);
        }
        std::hint::black_box((a, b, c, d));
        timed(0, t);

        let t = Instant::now();
        let mut acc = 0u64;
        for _ in 0..40_000 {
            let i = xorshift(&mut self.rng) as usize & (MEMORY_WORDS - 1);
            acc = acc.wrapping_add(self.memory[i]);
            self.memory[i] = acc;
        }
        std::hint::black_box(acc);
        timed(1, t);

        let t = Instant::now();
        let mut found = 0u64;
        for _ in 0..8_000 {
            let k = xorshift(&mut self.rng) % HASH_KEYS;
            if let Some(v) = self.hash.get_mut(&k) {
                *v += 1;
                found += 1;
            }
        }
        std::hint::black_box(found);
        timed(2, t);

        let t = Instant::now();
        let mut sum = 0u64;
        for _ in 0..3_000 {
            let k = (xorshift(&mut self.rng) % u64::from(BTREE_KEYS)) as u32;
            if let Some((_, v)) = self.btree.range(k..).next() {
                sum += u64::from(*v);
            }
        }
        std::hint::black_box(sum);
        timed(3, t);

        let t = Instant::now();
        for _ in 0..3_000 {
            let len = 64 + (xorshift(&mut self.rng) % 256) as usize;
            let made = vec![7u8; len];
            self.ring.push_back(made.clone());
            if self.ring.len() > RING_BUFFERS {
                self.ring.pop_front();
            }
            std::hint::black_box(made);
        }
        timed(4, t);

        let t = Instant::now();
        let to_peer = self
            .to_peer
            .as_ref()
            .expect("the peer lives as long as self");
        for i in 0..100 {
            to_peer.send(i).expect("the peer is running");
            self.from_peer.recv().expect("the peer replies");
        }
        timed(5, t);
        out
    }
}

/// How many times slower than nominal the machine ran the reference: the
/// weighted geometric mean over the kernels of time ÷ nominal time.
pub fn slowdown_of(kernel_ns: &[f64; 6]) -> f64 {
    let logs = kernel_ns
        .iter()
        .zip(&NOMINAL_NS)
        .zip(&WEIGHTS)
        .map(|((t, nominal), weight)| weight * (t / nominal).ln());
    logs.sum::<f64>().exp()
}

impl Drop for Reference {
    fn drop(&mut self) {
        // Hanging up ends the peer's loop; wait until it has ended.
        self.to_peer = None;
        if let Some(peer) = self.peer.take() {
            let _ = peer.join();
        }
    }
}

/// Reads the reference between the intervals of a timed phase.
pub struct Meter {
    reference: Reference,
    last: f64,
    /// The kernels' times at every reading taken, in order.
    pub kernel_readings: Vec<[f64; 6]>,
}

impl Meter {
    /// Builds the reference, runs it a few times so that its own caches and
    /// allocator are warm, and takes the first reading.
    pub fn new() -> Meter {
        let mut reference = Reference::new();
        for _ in 0..20 {
            reference.kernel_ns();
        }
        let first = reference.kernel_ns();
        Meter {
            reference,
            last: slowdown_of(&first),
            kernel_readings: vec![first],
        }
    }

    /// Takes a reading and returns the machine's slowdown over the interval
    /// since the previous one: the mean of the readings at its two ends. Call
    /// it right before an interval (and drop the result) and right after.
    pub fn lap(&mut self) -> f64 {
        let reading = self.reference.kernel_ns();
        let now = slowdown_of(&reading);
        let over_interval = (self.last + now) / 2.0;
        self.last = now;
        self.kernel_readings.push(reading);
        over_interval
    }

    /// Times `work` and returns its result with its duration in seconds at
    /// nominal machine speed.
    pub fn timed<T>(&mut self, work: impl FnOnce() -> T) -> (T, f64) {
        self.lap();
        let start = Instant::now();
        let out = work();
        let wall_s = start.elapsed().as_secs_f64();
        (out, wall_s / self.lap())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_weighted_geometric_mean_ratio_to_nominal() {
        assert!((WEIGHTS.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((slowdown_of(&NOMINAL_NS) - 1.0).abs() < 1e-12);
        // The whole machine twice slower: twice, whatever the weights.
        assert!((slowdown_of(&NOMINAL_NS.map(|t| 2.0 * t)) - 2.0).abs() < 1e-12);
        // One kernel alone speaks for its weight.
        let mut one = NOMINAL_NS;
        one[0] *= 4.0;
        assert!((slowdown_of(&one) - 4f64.powf(WEIGHTS[0])).abs() < 1e-12);
    }

    #[test]
    fn every_kernel_takes_time_and_the_peer_ends_with_the_reference() {
        let mut reference = Reference::new();
        assert!(reference.kernel_ns().iter().all(|&t| t > 0.0));
        drop(reference); // joins the peer; hangs if it never ends
    }

    #[test]
    fn a_lap_is_the_mean_of_the_readings_at_its_ends() {
        let mut meter = Meter::new();
        let lap = meter.lap();
        let [before, after] = [0, 1].map(|i| slowdown_of(&meter.kernel_readings[i]));
        assert!((lap - (before + after) / 2.0).abs() < 1e-12);
        let ((), s) = meter.timed(|| std::thread::sleep(std::time::Duration::from_millis(5)));
        assert!(s > 0.0 && s.is_finite());
        assert_eq!(meter.kernel_readings.len(), 4);
    }
}
