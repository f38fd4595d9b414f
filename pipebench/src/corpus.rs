//! The request plan of the `corpus-service` workload.
//!
//! The jobs are a fixed pool of random DFGs (`dfg::benchmarks::random_dfg`,
//! drawn from [`POOL_SEED`]), each with one session count `k`. Every job is
//! sent fresh once, repeated verbatim once (answered from the solve cache),
//! and, when its answer comes back node-capped, re-sent once with a larger
//! node budget (resumed from its snapshot), in that order. The run seed
//! draws the order of the fresh jobs and how many requests later each
//! repeat and re-send follows. The pool is fixed so that every seed asks
//! for the same total work: the seed moves the cache's interleaving, not
//! the amount of solving, and a handful of random instances would otherwise
//! swing the run's time by a third from seed to seed.

use advbist::dfg::benchmarks::{self, random_dfg, RandomDfgConfig};
use advbist::dfg::SynthesisInput;

use crate::workloads::PAPER_NODES;

/// Seed of the job pool.
pub const POOL_SEED: u64 = 0x5EED_C0DE_0B15_7000;
/// Jobs in the pool; each is sent fresh once and repeated once.
pub const JOBS: usize = 72;
/// Smallest generated DFG, in operations.
pub const MIN_OPS: usize = 5;
/// Largest generated DFG, in operations (tseng has eight).
pub const MAX_OPS: usize = 8;
/// Node budget of a fresh or repeated request: every job of the pool finds
/// a design or proves infeasibility within it (at 200 nodes one job ends
/// with no incumbent).
pub const FRESH_NODES: u64 = 400;
/// Node budget of a re-sent request.
pub const RESEND_NODES: u64 = 800;
/// Largest number of requests between a job's fresh request and its repeat
/// or re-send.
pub const MAX_DELAY: usize = 40;
/// Solve-cache capacity of the service, in MiB.
pub const CACHE_MB: u64 = 64;
/// Node budget of a fresh or repeated service-probe request: small enough
/// that figure1 is capped and leaves a snapshot to resume.
pub const PROBE_FRESH_NODES: u64 = 10;

/// The generated inputs of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Corpus {
    /// The job pool's circuits.
    pub instances: Vec<SynthesisInput>,
    /// Session count of each job.
    pub ks: Vec<usize>,
    /// Order in which the jobs are first sent.
    pub order: Vec<usize>,
    /// Per job: requests between its fresh request and its repeat.
    pub repeat_delay: Vec<usize>,
    /// Per job: requests between its fresh request and its re-send.
    pub resend_delay: Vec<usize>,
    /// Node budget of a fresh or repeated request.
    pub fresh_nodes: u64,
    /// Node budget of a re-sent request.
    pub resend_nodes: u64,
}

/// SplitMix64, the generator `random_dfg` itself uses.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }
}

/// Generates the inputs of `seed`: the fixed job pool plus the seed's plan.
pub fn generate(seed: u64) -> Corpus {
    let mut pool = Rng(POOL_SEED);
    let mut instances = Vec::with_capacity(JOBS);
    let mut ks = Vec::with_capacity(JOBS);
    for job in 0..JOBS {
        let input = random_dfg(&RandomDfgConfig {
            num_inputs: pool.range(3, 5),
            num_ops: MIN_OPS + job % (MAX_OPS - MIN_OPS + 1),
            multipliers: pool.range(1, 2),
            alus: pool.range(1, 2),
            seed: pool.next(),
        });
        ks.push(pool.range(1, input.binding().num_modules()));
        instances.push(input);
    }

    let mut rng = Rng(seed);
    let mut order: Vec<usize> = (0..JOBS).collect();
    for i in (1..JOBS).rev() {
        order.swap(i, rng.range(0, i));
    }
    // The client only escalates: a job's repeat goes out before its re-send
    // (on a tie the repeat was scheduled first), so no request asks again at
    // a budget below one already spent on the job. The job service answers
    // such a request from the deeper snapshot (see the README).
    let (repeat_delay, resend_delay) = (0..JOBS)
        .map(|_| {
            let (a, b) = (rng.range(1, MAX_DELAY), rng.range(1, MAX_DELAY));
            (a.min(b), a.max(b))
        })
        .unzip();
    Corpus {
        instances,
        ks,
        order,
        repeat_delay,
        resend_delay,
        fresh_nodes: FRESH_NODES,
        resend_nodes: RESEND_NODES,
    }
}

/// The service probe of the paper workloads, whose requests never reach the
/// service, snapshot or RTL layers: figure1 at k=1 and k=2, each sent fresh
/// at [`PROBE_FRESH_NODES`], repeated, and re-sent at the paper budget.
pub fn service_probe() -> Corpus {
    Corpus {
        instances: vec![benchmarks::figure1(), benchmarks::figure1()],
        ks: vec![1, 2],
        order: vec![0, 1],
        repeat_delay: vec![1, 1],
        resend_delay: vec![2, 2],
        fresh_nodes: PROBE_FRESH_NODES,
        resend_nodes: PAPER_NODES,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_requests() {
        let a = generate(7);
        assert_eq!(a, generate(7));
        let b = generate(8);
        assert_ne!(a.order, b.order);
        assert_ne!(a.repeat_delay, b.repeat_delay);
        // The job pool does not depend on the seed.
        assert_eq!(a.instances, b.instances);
        assert_eq!(a.ks, b.ks);
    }

    #[test]
    fn plan_covers_every_job_once() {
        let corpus = generate(1);
        let mut order = corpus.order.clone();
        order.sort_unstable();
        assert_eq!(order, (0..JOBS).collect::<Vec<_>>());
        for (input, &k) in corpus.instances.iter().zip(&corpus.ks) {
            assert!((MIN_OPS..=MAX_OPS).contains(&input.dfg().num_ops()));
            assert!((1..=input.binding().num_modules()).contains(&k));
        }
        for (&repeat, &resend) in corpus.repeat_delay.iter().zip(&corpus.resend_delay) {
            assert!(1 <= repeat && repeat <= resend && resend <= MAX_DELAY);
        }
    }
}
