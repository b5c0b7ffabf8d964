//! Recorded input streams: draw a plan's Markov inputs once and replay
//! them into every run of that plan.
//!
//! Algorithm 1 re-simulates each transformed netlist "with identical
//! vectors": inputs are matched by name and seeded from the plan, so every
//! run of one plan drives the same values whatever the netlist. The costly
//! streams are the [`StimulusSpec::MarkovBits`] ones, one draw per bit per
//! cycle. An [`InputRecording`] draws them once, for one run length, and
//! each [`InputRecording::run`] replays them instead of drawing again.
//!
//! * Only Markov streams are recorded. Uniform, constant, counter and
//!   trace inputs stay live: one draw per cycle (or none) costs about
//!   what a copy does, and recording them would only add memory.
//! * Each stream is stored in the narrowest of `u8`, `u16`, `u32` or `u64`
//!   that holds its input's width.
//! * A recording is held by the caller whose runs repeat the plan —
//!   `optimize()` for its monitored runs, the related-work baselines for
//!   their before/after pair — and dropped with it. Nothing is shared
//!   between callers, so concurrent requests never evict or wait on each
//!   other's streams.
//! * A recording over [`RECORDING_BUDGET`] bytes (cycles × the word bytes
//!   of every Markov stream) is not made: its runs drive every input live,
//!   so a request's memory stays what a live run needs.
//! * The run length is the recording's: [`InputRecording::run`] takes no
//!   cycle count, so a replay never runs past its streams.
//!
//! A run's report equals [`Testbench::from_plan`]'s bit for bit, and so
//! do its errors: drivers are resolved by the same code, in plan order.

use crate::engine::{EngineKind, BLOCK};
use crate::stats::SimReport;
use crate::stimulus::{Stimulus, StimulusPlan, StimulusSpec};
use crate::testbench::{instantiate_plan, SimError, Testbench};
use oiso_netlist::Netlist;
use std::sync::Arc;

/// The most bytes one recording may hold: cycles × the word bytes of
/// every recorded stream. The largest recording the benchmark workloads
/// make is `soc`'s at 20 000 cycles, 10 bytes a cycle: 200 000 bytes. A
/// plan past the budget (many wide Markov inputs, or a long run) drives
/// its inputs live instead.
pub const RECORDING_BUDGET: u64 = 1 << 18;

/// A plan's Markov input streams, drawn once for a fixed run length on
/// one netlist's inputs, and replayed into every [`InputRecording::run`].
///
/// Reports equal [`Testbench::from_plan`]'s run for the same cycle count,
/// bit for bit, on any netlist: a netlist whose driven inputs have other
/// widths than the recorded ones (the streams depend on them) is driven
/// live.
pub struct InputRecording<'p> {
    plan: &'p StimulusPlan,
    cycles: u64,
    /// The width of each driven input, in plan order.
    widths: Vec<u8>,
    /// One stream per Markov driver, in plan order; empty when nothing
    /// was recorded.
    streams: Vec<Recorded>,
}

impl<'p> InputRecording<'p> {
    /// Draws `plan`'s Markov streams on `netlist`'s inputs for `cycles`
    /// cycles. Nothing is recorded when the plan has no Markov driver or
    /// the streams would exceed [`RECORDING_BUDGET`]; the runs are then
    /// live.
    ///
    /// # Errors
    ///
    /// As [`Testbench::from_plan`]: an unknown input, a non-input net, or
    /// an invalid spec.
    pub fn record(
        netlist: &Netlist,
        plan: &'p StimulusPlan,
        cycles: u64,
    ) -> Result<Self, SimError> {
        let mut live = instantiate_plan(netlist, plan)?;
        let widths = live
            .iter()
            .map(|(net, _, _)| netlist.net(*net).width())
            .collect();
        let markov: Vec<_> = live.iter_mut().filter(|(_, spec, _)| is_markov(spec)).collect();
        let bytes: u64 = markov
            .iter()
            .map(|(net, _, _)| word_bytes(netlist.net(*net).width()))
            .sum();
        let streams = if bytes.saturating_mul(cycles) <= RECORDING_BUDGET {
            markov
                .into_iter()
                .map(|(net, _, stim)| {
                    Recorded::record(stim.as_mut(), netlist.net(*net).width(), cycles)
                })
                .collect()
        } else {
            Vec::new()
        };
        Ok(InputRecording {
            plan,
            cycles,
            widths,
            streams,
        })
    }

    /// Bytes held by the recorded streams; 0 when the runs are live.
    pub fn bytes(&self) -> u64 {
        self.streams.iter().map(Recorded::bytes).sum()
    }

    /// Simulates `netlist` under the plan for the recorded cycle count,
    /// replaying the recorded Markov streams and driving every other
    /// input live. `attach` adds monitors and captures to the testbench
    /// before it runs.
    ///
    /// # Errors
    ///
    /// As [`Testbench::from_plan`] and [`Testbench::run_with_engine`].
    pub fn run(
        &self,
        netlist: &Netlist,
        engine: EngineKind,
        attach: impl FnOnce(&mut Testbench<'_>),
    ) -> Result<SimReport, SimError> {
        let live = instantiate_plan(netlist, self.plan)?;
        let replays = !self.streams.is_empty()
            && live
                .iter()
                .map(|(net, _, _)| netlist.net(*net).width())
                .eq(self.widths.iter().copied());
        let mut streams = self.streams.iter();
        let drivers = live
            .into_iter()
            .map(|(net, spec, live)| {
                let stim: Box<dyn Stimulus> = if replays && is_markov(spec) {
                    Box::new(Replay(
                        streams.next().expect("one stream per Markov driver").clone(),
                    ))
                } else {
                    live
                };
                (net, stim)
            })
            .collect();
        let mut tb = Testbench::with_drivers(netlist, self.plan.seed, drivers);
        attach(&mut tb);
        tb.run_with_engine(self.cycles, engine)
    }
}

fn is_markov(spec: &StimulusSpec) -> bool {
    matches!(spec, StimulusSpec::MarkovBits { .. })
}

/// Bytes per recorded value of a `width`-bit input.
fn word_bytes(width: u8) -> u64 {
    match width {
        0..=8 => 1,
        9..=16 => 2,
        17..=32 => 4,
        _ => 8,
    }
}

/// One recorded stream, in the narrowest word that holds its input's width.
#[derive(Clone)]
enum Recorded {
    U8(Arc<[u8]>),
    U16(Arc<[u16]>),
    U32(Arc<[u32]>),
    U64(Arc<[u64]>),
}

impl Recorded {
    /// Draws `cycles` values of `stim`, a driver of a `width`-bit input.
    fn record(stim: &mut dyn Stimulus, width: u8, cycles: u64) -> Self {
        match word_bytes(width) {
            1 => Recorded::U8(narrow(stim, cycles)),
            2 => Recorded::U16(narrow(stim, cycles)),
            4 => Recorded::U32(narrow(stim, cycles)),
            _ => Recorded::U64(narrow(stim, cycles)),
        }
    }

    fn bytes(&self) -> u64 {
        let (len, word) = match self {
            Recorded::U8(v) => (v.len(), 1),
            Recorded::U16(v) => (v.len(), 2),
            Recorded::U32(v) => (v.len(), 4),
            Recorded::U64(v) => (v.len(), 8),
        };
        len as u64 * word
    }

    /// Widens the values of cycles `first..first + out.len()` into `out`.
    fn copy_to(&self, first: usize, out: &mut [u64]) {
        match self {
            Recorded::U8(v) => widen(&v[first..first + out.len()], out),
            Recorded::U16(v) => widen(&v[first..first + out.len()], out),
            Recorded::U32(v) => widen(&v[first..first + out.len()], out),
            Recorded::U64(v) => widen(&v[first..first + out.len()], out),
        }
    }
}

/// Draws `cycles` values of `stim` in 64-cycle blocks, narrowing each to
/// `T`. A driver's values fit its input's width, so no bit is lost.
fn narrow<T: TryFrom<u64>>(stim: &mut dyn Stimulus, cycles: u64) -> Arc<[T]>
where
    T::Error: std::fmt::Debug,
{
    let mut out = Vec::with_capacity(cycles as usize);
    let mut block = [0u64; BLOCK];
    let mut first = 0u64;
    while first < cycles {
        let n = (cycles - first).min(BLOCK as u64) as usize;
        stim.fill(first, &mut block[..n]);
        out.extend(block[..n].iter().map(|&v| T::try_from(v).expect("value fits its input")));
        first += n as u64;
    }
    out.into()
}

fn widen<T: Copy + Into<u64>>(src: &[T], out: &mut [u64]) {
    for (slot, &v) in out.iter_mut().zip(src) {
        *slot = v.into();
    }
}

/// A Markov driver that replays its recorded stream: a widening copy.
/// Runs never pass the recording's end, which holds the run's length.
struct Replay(Recorded);

impl Stimulus for Replay {
    fn next_value(&mut self, cycle: u64) -> u64 {
        let mut value = [0u64];
        self.0.copy_to(cycle as usize, &mut value);
        value[0]
    }

    fn fill(&mut self, first_cycle: u64, out: &mut [u64]) {
        self.0.copy_to(first_cycle as usize, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_stored_in_the_narrowest_word_and_widen_back() {
        let markov = StimulusSpec::MarkovBits {
            p_one: 0.5,
            toggle_rate: 0.5,
        };
        for (width, words) in [(1, 1), (8, 1), (9, 2), (16, 2), (17, 4), (32, 4), (33, 8), (64, 8)] {
            let mut stim = markov.instantiate(width, 11).unwrap();
            let recorded = Recorded::record(stim.as_mut(), width, 130);
            assert_eq!(recorded.bytes(), 130 * words, "width {width}");
            let mut live = markov.instantiate(width, 11).unwrap();
            let mut want = vec![0u64; 130];
            live.fill(0, &mut want);
            let mut got = vec![0u64; 130];
            recorded.copy_to(0, &mut got);
            assert_eq!(got, want, "width {width}");
        }
    }

    #[test]
    #[should_panic]
    fn a_replay_refuses_to_run_past_its_recording() {
        let markov = StimulusSpec::MarkovBits {
            p_one: 0.5,
            toggle_rate: 0.5,
        };
        let mut stim = markov.instantiate(4, 1).unwrap();
        let mut replay = Replay(Recorded::record(stim.as_mut(), 4, 64));
        replay.fill(0, &mut [0u64; 65]);
    }
}
