//! Collection strategies.

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::ops::Range;

/// Strategy for `Vec`s whose length is drawn from `size` and whose
/// elements come from `element`.
pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
    assert!(size.start < size.end, "empty vec size range");
    VecStrategy { element, size }
}

/// See [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = (self.size.end - self.size.start) as u64;
        let len = self.size.start + rng.u64_below(span) as usize;
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Just;

    #[test]
    fn vec_length_honors_range() {
        let strat = vec(Just(7u8), 2..5);
        let mut rng = TestRng::from_seed(11);
        let mut lens = [false; 6];
        for _ in 0..200 {
            let v = strat.generate(&mut rng);
            assert!((2..5).contains(&v.len()));
            assert!(v.iter().all(|&x| x == 7));
            lens[v.len()] = true;
        }
        assert!(lens[2] && lens[3] && lens[4]);
    }
}
