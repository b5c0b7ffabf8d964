//! Stimulus processes with controllable signal statistics.
//!
//! Section 6 of the paper: "we generated a set of testbenches ranging
//! between low and high static probabilities and toggle rates of the
//! activation signal". [`StimulusSpec::MarkovBits`] provides exactly that
//! control knob; the other variants cover the usual datapath stimuli.

use oiso_netlist::Fnv;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::error::Error;
use std::fmt;

/// Errors constructing stimuli.
#[derive(Debug, Clone, PartialEq)]
pub enum StimulusError {
    /// The requested (static probability, toggle rate) pair is unreachable:
    /// a two-state Markov chain caps the toggle rate at `2·min(p1, 1−p1)`.
    UnreachableStatistics {
        /// Requested probability of 1.
        p_one: f64,
        /// Requested toggles per cycle.
        toggle_rate: f64,
    },
    /// A probability outside `[0, 1]`.
    InvalidProbability(f64),
    /// An empty replay trace.
    EmptyTrace,
}

impl fmt::Display for StimulusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StimulusError::UnreachableStatistics { p_one, toggle_rate } => write!(
                f,
                "toggle rate {toggle_rate} unreachable at static probability {p_one} \
                 (limit is 2*min(p, 1-p))"
            ),
            StimulusError::InvalidProbability(p) => {
                write!(f, "probability {p} outside [0, 1]")
            }
            StimulusError::EmptyTrace => write!(f, "replay trace is empty"),
        }
    }
}

impl Error for StimulusError {}

/// A stimulus process: produces one value per clock cycle for one primary
/// input. Implementations are deterministic given their construction seed.
pub trait Stimulus {
    /// The value to drive in the given cycle. Called once per cycle, in
    /// increasing cycle order.
    fn next_value(&mut self, cycle: u64) -> u64;

    /// Fills `out[t]` with the value of cycle `first_cycle + t`, for a
    /// block of consecutive cycles. The default calls
    /// [`Stimulus::next_value`] once per cycle, in order, so a block fill
    /// draws exactly the values that per-cycle calls would.
    fn fill(&mut self, first_cycle: u64, out: &mut [u64]) {
        for (cycle, slot) in (first_cycle..).zip(out.iter_mut()) {
            *slot = self.next_value(cycle);
        }
    }
}

/// A declarative, re-instantiable stimulus description.
///
/// Plans built from specs can be instantiated repeatedly with the same seed,
/// which is how the iterative isolation algorithm re-simulates the design
/// with identical vectors after each transformation step.
#[derive(Debug, Clone, PartialEq)]
pub enum StimulusSpec {
    /// A constant value.
    Constant(u64),
    /// Independent uniform random words (each bit: p=0.5, toggle rate 0.5).
    UniformRandom,
    /// Per-bit two-state Markov chains with target static probability `p_one`
    /// and target `toggle_rate` (toggles per cycle per bit).
    MarkovBits {
        /// Stationary probability of a bit being 1.
        p_one: f64,
        /// Expected toggles per cycle per bit; at most `2·min(p1, 1−p1)`.
        toggle_rate: f64,
    },
    /// A counter incrementing by `step` each cycle (wraps at net width).
    Counter {
        /// Per-cycle increment.
        step: u64,
    },
    /// Cyclic replay of an explicit vector trace.
    Trace(Vec<u64>),
}

impl StimulusSpec {
    /// Instantiates the spec for a net of the given width, seeding any
    /// randomness deterministically from `seed`.
    ///
    /// # Errors
    ///
    /// Returns an error for unreachable Markov statistics, probabilities
    /// outside `[0, 1]`, or an empty trace.
    pub fn instantiate(
        &self,
        width: u8,
        seed: u64,
    ) -> Result<Box<dyn Stimulus>, StimulusError> {
        match self {
            StimulusSpec::Constant(v) => Ok(Box::new(ConstantStim(*v))),
            StimulusSpec::UniformRandom => Ok(Box::new(UniformStim {
                rng: StdRng::seed_from_u64(seed),
                mask: oiso_netlist::net::mask(width),
            })),
            StimulusSpec::MarkovBits { p_one, toggle_rate } => {
                Ok(Box::new(MarkovStim::new(width, *p_one, *toggle_rate, seed)?))
            }
            StimulusSpec::Counter { step } => Ok(Box::new(CounterStim {
                step: *step,
                mask: oiso_netlist::net::mask(width),
            })),
            StimulusSpec::Trace(values) => {
                if values.is_empty() {
                    return Err(StimulusError::EmptyTrace);
                }
                Ok(Box::new(TraceStim {
                    values: values.clone(),
                }))
            }
        }
    }
}

struct ConstantStim(u64);

impl Stimulus for ConstantStim {
    fn next_value(&mut self, _cycle: u64) -> u64 {
        self.0
    }
}

struct UniformStim {
    rng: StdRng,
    mask: u64,
}

impl Stimulus for UniformStim {
    fn next_value(&mut self, _cycle: u64) -> u64 {
        self.rng.gen::<u64>() & self.mask
    }
}

struct CounterStim {
    step: u64,
    mask: u64,
}

impl Stimulus for CounterStim {
    fn next_value(&mut self, cycle: u64) -> u64 {
        cycle.wrapping_mul(self.step) & self.mask
    }
}

struct TraceStim {
    values: Vec<u64>,
}

impl Stimulus for TraceStim {
    fn next_value(&mut self, cycle: u64) -> u64 {
        self.values[(cycle as usize) % self.values.len()]
    }
}

/// Per-bit two-state Markov chain.
///
/// With transition probabilities `a = P(0→1)` and `b = P(1→0)`, the
/// stationary distribution has `p1 = a/(a+b)` and the per-cycle toggle rate
/// is `2ab/(a+b)`. Solving for targets `(p1, tr)`:
/// `a = tr / (2(1−p1))`, `b = tr / (2·p1)`.
///
/// Each flip is one `gen_bool(p)` draw, `((x >> 11) as f64 · 2⁻⁵³) < p`,
/// taken as the integer test `(x >> 11) < ceil(p·2⁵³)`: the left side is
/// an integer below 2⁵³ and `p·2⁵³` is exact, so both tests draw the same
/// stream. A flip probability of 0 draws nothing.
struct MarkovStim {
    rng: StdRng,
    state: u64,
    width: u8,
    /// Flip thresholds indexed by the bit's current state: `[a, b]` as
    /// `ceil(p·2⁵³)`, each probability clamped to 1 first.
    thresholds: [u64; 2],
}

/// `gen_bool(p)`'s acceptance bound on `x >> 11`, or 0 (no draw) unless
/// `p > 0`, as a NaN toggle rate gives.
fn flip_threshold(p: f64) -> u64 {
    if p > 0.0 {
        (p.min(1.0) * (1u64 << 53) as f64).ceil() as u64
    } else {
        0
    }
}

impl MarkovStim {
    fn new(width: u8, p_one: f64, toggle_rate: f64, seed: u64) -> Result<Self, StimulusError> {
        if !(0.0..=1.0).contains(&p_one) {
            return Err(StimulusError::InvalidProbability(p_one));
        }
        if toggle_rate < 0.0 {
            return Err(StimulusError::InvalidProbability(toggle_rate));
        }
        let limit = 2.0 * p_one.min(1.0 - p_one);
        if toggle_rate > limit + 1e-9 {
            return Err(StimulusError::UnreachableStatistics {
                p_one,
                toggle_rate,
            });
        }
        // Degenerate endpoints (p=0 or p=1) force a constant stream.
        let (a, b) = if p_one <= f64::EPSILON {
            (0.0, 1.0)
        } else if p_one >= 1.0 - f64::EPSILON {
            (1.0, 0.0)
        } else {
            (toggle_rate / (2.0 * (1.0 - p_one)), toggle_rate / (2.0 * p_one))
        };
        let mut rng = StdRng::seed_from_u64(seed);
        // Draw the initial state from the stationary distribution so the
        // measured statistics converge from cycle 0.
        let mut state = 0u64;
        for bit in 0..width {
            if rng.gen_bool(p_one.clamp(0.0, 1.0)) {
                state |= 1 << bit;
            }
        }
        Ok(MarkovStim {
            rng,
            state,
            width,
            thresholds: [flip_threshold(a), flip_threshold(b)],
        })
    }
}

impl Stimulus for MarkovStim {
    fn next_value(&mut self, _cycle: u64) -> u64 {
        let current = self.state;
        for bit in 0..self.width {
            let threshold = self.thresholds[((self.state >> bit) & 1) as usize];
            if threshold != 0 && (self.rng.next_u64() >> 11) < threshold {
                self.state ^= 1 << bit;
            }
        }
        current
    }
}

/// A named set of stimulus specs for a design's primary inputs, plus the
/// master seed. Instantiating the same plan twice produces identical vector
/// streams — the property the iterative algorithm relies on to compare
/// power before and after a transformation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StimulusPlan {
    /// `(input name, spec)` pairs. Inputs are matched by *name* so the plan
    /// survives netlist transformations that add nets.
    pub drivers: Vec<(String, StimulusSpec)>,
    /// Master seed; per-input seeds are derived from it and the input name.
    pub seed: u64,
}

impl StimulusPlan {
    /// Creates an empty plan with the given master seed.
    pub fn new(seed: u64) -> Self {
        StimulusPlan {
            drivers: Vec::new(),
            seed,
        }
    }

    /// Adds a driver for the named primary input. Driving an input again
    /// overrides the earlier driver.
    pub fn drive(mut self, input: impl Into<String>, spec: StimulusSpec) -> Self {
        self.drivers.push((input.into(), spec));
        self
    }

    /// The spec registered for `input`, if any. An input registered more
    /// than once answers with its last registration, the one simulation
    /// drives (a later driver overrides an earlier one).
    pub fn spec_for(&self, input: &str) -> Option<&StimulusSpec> {
        self.drivers
            .iter()
            .rev()
            .find(|(name, _)| name == input)
            .map(|(_, spec)| spec)
    }

    /// Derives the deterministic per-input seed.
    pub fn seed_for(&self, input: &str) -> u64 {
        // FNV-1a over the name, mixed with the master seed.
        let mut h = Fnv::seeded(self.seed).legacy_prime();
        h.bytes(input.as_bytes());
        h.finish()
    }

    /// Returns a copy of the plan with a different master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// A 64-bit content fingerprint of the plan: the master seed plus every
    /// `(input name, spec)` pair in order, with float parameters hashed via
    /// `f64::to_bits`. Two plans with equal fingerprints drive identical
    /// vector streams, which is what lets simulation reports be memoized on
    /// (netlist fingerprint, plan fingerprint, cycles) — see `SimMemo`.
    ///
    /// FNV-1a over an explicit field encoding; stable across runs and
    /// platforms.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new().legacy_prime();
        h.u64(self.seed);
        h.u64(self.drivers.len() as u64);
        for (name, spec) in &self.drivers {
            h.u64(name.len() as u64);
            for b in name.bytes() {
                h.u64(b as u64);
            }
            match spec {
                StimulusSpec::Constant(v) => {
                    h.u64(0);
                    h.u64(*v);
                }
                StimulusSpec::UniformRandom => h.u64(1),
                StimulusSpec::MarkovBits { p_one, toggle_rate } => {
                    h.u64(2);
                    h.f64(*p_one);
                    h.f64(*toggle_rate);
                }
                StimulusSpec::Counter { step } => {
                    h.u64(3);
                    h.u64(*step);
                }
                StimulusSpec::Trace(values) => {
                    h.u64(4);
                    h.u64(values.len() as u64);
                    for &v in values {
                        h.u64(v);
                    }
                }
            }
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measure(stim: &mut dyn Stimulus, cycles: u64, width: u8) -> (f64, f64) {
        // (static prob of 1 per bit, toggles per cycle per bit)
        let mut ones = 0u64;
        let mut toggles = 0u64;
        let mut prev: Option<u64> = None;
        for c in 0..cycles {
            let v = stim.next_value(c);
            ones += v.count_ones() as u64;
            if let Some(p) = prev {
                toggles += (v ^ p).count_ones() as u64;
            }
            prev = Some(v);
        }
        let bits = (cycles * width as u64) as f64;
        (
            ones as f64 / bits,
            toggles as f64 / ((cycles - 1) * width as u64) as f64,
        )
    }

    #[test]
    fn markov_hits_target_statistics() {
        for &(p1, tr) in &[(0.5, 0.5), (0.2, 0.2), (0.8, 0.1), (0.5, 0.05)] {
            let spec = StimulusSpec::MarkovBits {
                p_one: p1,
                toggle_rate: tr,
            };
            let mut stim = spec.instantiate(16, 42).unwrap();
            let (mp, mt) = measure(stim.as_mut(), 20_000, 16);
            assert!((mp - p1).abs() < 0.02, "p1 target {p1}, measured {mp}");
            assert!((mt - tr).abs() < 0.02, "tr target {tr}, measured {mt}");
        }
    }

    /// The Markov draw as it was written before the integer thresholds:
    /// one `gen_bool(flip_p)` per bit, branching on the bit's state.
    fn reference_markov(width: u8, p_one: f64, toggle_rate: f64, seed: u64, cycles: u64) -> Vec<u64> {
        let (a, b) = if p_one <= f64::EPSILON {
            (0.0, 1.0)
        } else if p_one >= 1.0 - f64::EPSILON {
            (1.0, 0.0)
        } else {
            (toggle_rate / (2.0 * (1.0 - p_one)), toggle_rate / (2.0 * p_one))
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut state = 0u64;
        for bit in 0..width {
            if rng.gen_bool(p_one.clamp(0.0, 1.0)) {
                state |= 1 << bit;
            }
        }
        let mut values: Vec<u64> = (0..cycles)
            .map(|_| {
                let current = state;
                for bit in 0..width {
                    let is_one = (state >> bit) & 1 == 1;
                    let flip_p = if is_one { b } else { a };
                    if flip_p > 0.0 && rng.gen_bool(flip_p.min(1.0)) {
                        state ^= 1 << bit;
                    }
                }
                current
            })
            .collect();
        // The generator's position after the run: equal only if both loops
        // drew the same number of times.
        values.push(rng.next_u64());
        values
    }

    #[test]
    fn integer_thresholds_draw_the_reference_stream() {
        let pairs = [
            (0.0, 0.0),
            (1.0, 0.0),
            (0.3, 0.0),
            (0.5, 0.5),
            (0.2, 0.1),
            (0.5, 1.0),             // tr at its limit: a = b = 1
            (0.25, 0.5),            // tr at its limit: b = 1
            (0.75, 0.5),            // tr at its limit: a = 1
            (0.25, 0.5 + 5e-10),    // inside the 1e-9 slack: b clamped to 1
            (1e-3, 2e-3),
            (0.4, f64::NAN),        // a NaN toggle rate never draws a flip
        ];
        for width in [1u8, 7, 12, 16, 64] {
            for (i, &(p_one, toggle_rate)) in pairs.iter().enumerate() {
                let seed = 0x5EED ^ ((width as u64) << 8) ^ i as u64;
                let mut stim = MarkovStim::new(width, p_one, toggle_rate, seed).unwrap();
                let mut values: Vec<u64> = (0..3000).map(|c| stim.next_value(c)).collect();
                values.push(stim.rng.next_u64());
                assert_eq!(
                    values,
                    reference_markov(width, p_one, toggle_rate, seed, 3000),
                    "width {width}, p {p_one}, tr {toggle_rate}"
                );
            }
        }
    }

    #[test]
    fn markov_rejects_unreachable_statistics() {
        let spec = StimulusSpec::MarkovBits {
            p_one: 0.1,
            toggle_rate: 0.5, // limit is 0.2
        };
        assert!(matches!(
            spec.instantiate(1, 0),
            Err(StimulusError::UnreachableStatistics { .. })
        ));
        assert!(matches!(
            StimulusSpec::MarkovBits {
                p_one: 1.5,
                toggle_rate: 0.0
            }
            .instantiate(1, 0),
            Err(StimulusError::InvalidProbability(_))
        ));
    }

    #[test]
    fn markov_degenerate_probabilities_are_constant() {
        let mut zero = StimulusSpec::MarkovBits {
            p_one: 0.0,
            toggle_rate: 0.0,
        }
        .instantiate(8, 7)
        .unwrap();
        let mut one = StimulusSpec::MarkovBits {
            p_one: 1.0,
            toggle_rate: 0.0,
        }
        .instantiate(8, 7)
        .unwrap();
        for c in 0..100 {
            assert_eq!(zero.next_value(c), 0);
            assert_eq!(one.next_value(c), 0xFF);
        }
    }

    #[test]
    fn uniform_random_is_deterministic_per_seed() {
        let spec = StimulusSpec::UniformRandom;
        let mut s1 = spec.instantiate(32, 99).unwrap();
        let mut s2 = spec.instantiate(32, 99).unwrap();
        let mut s3 = spec.instantiate(32, 100).unwrap();
        let a: Vec<u64> = (0..50).map(|c| s1.next_value(c)).collect();
        let b: Vec<u64> = (0..50).map(|c| s2.next_value(c)).collect();
        let c: Vec<u64> = (0..50).map(|c| s3.next_value(c)).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn counter_and_trace() {
        let mut cnt = StimulusSpec::Counter { step: 3 }.instantiate(4, 0).unwrap();
        assert_eq!(cnt.next_value(0), 0);
        assert_eq!(cnt.next_value(1), 3);
        assert_eq!(cnt.next_value(6), 2); // 18 mod 16

        let mut tr = StimulusSpec::Trace(vec![5, 9]).instantiate(4, 0).unwrap();
        assert_eq!(tr.next_value(0), 5);
        assert_eq!(tr.next_value(1), 9);
        assert_eq!(tr.next_value(2), 5);
        assert!(matches!(
            StimulusSpec::Trace(vec![]).instantiate(4, 0),
            Err(StimulusError::EmptyTrace)
        ));
    }

    #[test]
    fn plan_seeds_differ_per_input_but_are_stable() {
        let plan = StimulusPlan::new(7)
            .drive("a", StimulusSpec::UniformRandom)
            .drive("b", StimulusSpec::UniformRandom);
        assert_ne!(plan.seed_for("a"), plan.seed_for("b"));
        assert_eq!(plan.seed_for("a"), plan.seed_for("a"));
        assert_ne!(plan.seed_for("a"), plan.with_seed(8).seed_for("a"));
    }

    #[test]
    fn plan_fingerprint_tracks_content() {
        let base = StimulusPlan::new(7)
            .drive("a", StimulusSpec::UniformRandom)
            .drive("g", StimulusSpec::MarkovBits {
                p_one: 0.3,
                toggle_rate: 0.2,
            });
        assert_eq!(base.fingerprint(), base.clone().fingerprint());
        assert_ne!(base.fingerprint(), base.clone().with_seed(8).fingerprint());
        let retuned = StimulusPlan::new(7)
            .drive("a", StimulusSpec::UniformRandom)
            .drive("g", StimulusSpec::MarkovBits {
                p_one: 0.3,
                toggle_rate: 0.25,
            });
        assert_ne!(base.fingerprint(), retuned.fingerprint(), "float params hashed");
        let renamed = StimulusPlan::new(7)
            .drive("a", StimulusSpec::UniformRandom)
            .drive("h", StimulusSpec::MarkovBits {
                p_one: 0.3,
                toggle_rate: 0.2,
            });
        assert_ne!(base.fingerprint(), renamed.fingerprint(), "names hashed");
    }

    #[test]
    fn plan_lookup_by_name() {
        let plan = StimulusPlan::new(0).drive("x", StimulusSpec::Constant(3));
        assert_eq!(plan.spec_for("x"), Some(&StimulusSpec::Constant(3)));
        assert_eq!(plan.spec_for("y"), None);
    }

    #[test]
    fn spec_for_answers_with_the_last_registration() {
        let plan = StimulusPlan::new(0)
            .drive("x", StimulusSpec::Constant(3))
            .drive("y", StimulusSpec::UniformRandom)
            .drive("x", StimulusSpec::Constant(5));
        assert_eq!(plan.spec_for("x"), Some(&StimulusSpec::Constant(5)));
    }
}
