//! Random tower-height generation shared by all skiplist variants.

use crate::HEIGHT;

/// Draws a tower top level in `0..HEIGHT` with the geometric distribution
/// `P(level ≥ k) = 2^-k` that gives skiplists their expected O(log n)
/// search paths. The bits come from the calling thread's seeded
/// [`cds_atomic::stress::draw`] stream, so a scheduled round or an
/// explored schedule fixes every tower height.
pub(crate) fn random_level() -> usize {
    // trailing_zeros of uniform bits is geometric(1/2); cap the height.
    (cds_atomic::stress::draw().trailing_zeros() as usize).min(HEIGHT - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_in_range() {
        for _ in 0..10_000 {
            let l = random_level();
            assert!(l < HEIGHT);
        }
    }

    #[test]
    fn distribution_is_roughly_geometric() {
        let mut counts = [0usize; HEIGHT];
        const N: usize = 100_000;
        for _ in 0..N {
            counts[random_level()] += 1;
        }
        // Level 0 should get about half the draws.
        assert!(counts[0] > N / 3 && counts[0] < 2 * N / 3);
        // Higher levels decay: level 4 should be well below level 1.
        assert!(counts[4] < counts[1]);
    }
}
