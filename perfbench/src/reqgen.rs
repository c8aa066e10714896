//! The seeded `serve-warm` request generator.
//!
//! The distinct requests are the six built-in kernels × both scaled
//! machines × two small search budgets. Each client sends an endless
//! sequence of rounds; a round is a seeded shuffle of every distinct
//! request, so the mix is the same for every seed and only the order
//! (and with it the overlap between the two clients) changes.

use eco_bench::FIGURE_SCALE;
use eco_core::{SearchOptions, TuneRequest};
use eco_kernels::Kernel;
use eco_machine::MachineDesc;

/// Search budgets of the distinct requests.
pub const SEARCH_NS: [i64; 2] = [16, 24];

/// SplitMix64: a small, fully specified generator, so a seed means the
/// same sequence on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n` > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Every distinct `serve-warm` request, in a fixed order: kernel-major,
/// then machine, then search budget. All are certified searches.
///
/// # Panics
///
/// Panics if the search options fail validation (they are constants).
pub fn distinct_requests() -> Vec<TuneRequest> {
    let machines = [
        MachineDesc::sgi_r10000().scaled(FIGURE_SCALE),
        MachineDesc::ultrasparc_iie().scaled(FIGURE_SCALE),
    ];
    let mut out = Vec::new();
    for kernel in Kernel::all() {
        for machine in &machines {
            for n in SEARCH_NS {
                let options = SearchOptions::builder()
                    .search_n(n)
                    .max_variants(2)
                    .certify(true)
                    .build()
                    .expect("constant search options");
                out.push(TuneRequest::new(kernel.clone(), machine.clone()).options(options));
            }
        }
    }
    out
}

/// One client's request sequence: indices into [`distinct_requests`].
#[derive(Debug, Clone)]
pub struct RequestStream {
    rng: SplitMix64,
    distinct: usize,
    round: Vec<usize>,
}

impl RequestStream {
    /// Client `client`'s stream for `seed` over `distinct` requests.
    pub fn new(seed: u64, client: u64, distinct: usize) -> RequestStream {
        let mut mix = SplitMix64::new(seed ^ client.wrapping_mul(0xa076_1d64_78bd_642f));
        // Decorrelate nearby seeds before the first shuffle.
        let rng = SplitMix64::new(mix.next_u64());
        RequestStream {
            rng,
            distinct,
            round: Vec::new(),
        }
    }
}

impl Iterator for RequestStream {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.round.is_empty() {
            // A Fisher–Yates shuffle of one round, consumed from the back.
            self.round = (0..self.distinct).collect();
            for i in (1..self.distinct).rev() {
                let j = self.rng.below(i + 1);
                self.round.swap(i, j);
            }
        }
        self.round.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_sequence() {
        let a: Vec<usize> = RequestStream::new(7, 0, 24).take(100).collect();
        let b: Vec<usize> = RequestStream::new(7, 0, 24).take(100).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn other_seeds_and_clients_run_and_differ() {
        let a: Vec<usize> = RequestStream::new(7, 0, 24).take(48).collect();
        let b: Vec<usize> = RequestStream::new(8, 0, 24).take(48).collect();
        let c: Vec<usize> = RequestStream::new(7, 1, 24).take(48).collect();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert!(b.iter().chain(&c).all(|&i| i < 24));
    }

    #[test]
    fn every_round_is_a_permutation() {
        let seq: Vec<usize> = RequestStream::new(123, 1, 24).take(72).collect();
        for round in seq.chunks(24) {
            let mut r = round.to_vec();
            r.sort_unstable();
            assert_eq!(r, (0..24).collect::<Vec<_>>());
        }
    }

    #[test]
    fn splitmix_matches_its_reference_output() {
        // First output of SplitMix64 seeded with 0 (reference value).
        assert_eq!(SplitMix64::new(0).next_u64(), 0xe220_a839_7b1d_cdaf);
    }

    #[test]
    fn distinct_requests_cover_kernels_machines_and_budgets() {
        let reqs = distinct_requests();
        assert_eq!(reqs.len(), Kernel::all().len() * 2 * SEARCH_NS.len());
        let mut fps: Vec<u64> = reqs.iter().map(TuneRequest::fingerprint).collect();
        fps.sort_unstable();
        fps.dedup();
        assert_eq!(fps.len(), reqs.len());
        assert!(reqs.iter().all(|r| r.options.certify));
    }
}
