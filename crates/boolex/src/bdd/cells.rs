//! The BDD meaning of every combinational cell kind.
//!
//! [`encode_cell`] is the one symbolic definition of each [`CellKind`]:
//! the equivalence checker builds a netlist's per-bit functions with it,
//! and static activity builds both the current- and next-cycle functions
//! with it. Its operation order is part of its contract — every
//! `bdd_nodes` and `peak_nodes` figure the benches record was measured
//! with this order — and its semantics are those of the word evaluator
//! [`oiso_netlist::eval_comb_cell`], which the tests below check bit for
//! bit.

use super::{Bdd, BddRef};
use oiso_netlist::CellKind;

/// Encodes one combinational cell over per-bit input functions (`ins[i]`
/// holds port `i`'s bits, LSB first), returning the `width` output bits.
///
/// `abort` is polled once per partial-product row of a multiplier — the
/// only cell whose BDD is exponential in every variable order — so a
/// caller can cut a hopeless build short on a node budget or a deadline.
///
/// Returns `None` for stateful kinds (`Reg`, `Latch`), for inputs
/// narrower than the port convention requires, and when `abort` fires.
pub fn encode_cell(
    bdd: &mut Bdd,
    kind: CellKind,
    ins: &[&[BddRef]],
    width: usize,
    mut abort: impl FnMut(&Bdd) -> bool,
) -> Option<Vec<BddRef>> {
    let bit = |ins: &[&[BddRef]], i: usize, j: usize| ins.get(i).and_then(|s| s.get(j)).copied();
    match kind {
        CellKind::Const { value } => Some(
            (0..width)
                .map(|j| {
                    if (value >> j) & 1 == 1 {
                        BddRef::TRUE
                    } else {
                        BddRef::FALSE
                    }
                })
                .collect(),
        ),
        CellKind::Buf => (0..width).map(|j| bit(ins, 0, j)).collect(),
        CellKind::Not => (0..width)
            .map(|j| bit(ins, 0, j).map(|b| bdd.not(b)))
            .collect(),
        CellKind::And | CellKind::Or | CellKind::Xor => {
            let mut out = Vec::with_capacity(width);
            for j in 0..width {
                let mut acc = bit(ins, 0, j)?;
                for slice in ins.iter().skip(1) {
                    let b = *slice.get(j)?;
                    acc = match kind {
                        CellKind::And => bdd.and(acc, b),
                        CellKind::Or => bdd.or(acc, b),
                        _ => bdd.xor(acc, b),
                    };
                }
                out.push(acc);
            }
            Some(out)
        }
        CellKind::RedOr => {
            let mut acc = BddRef::FALSE;
            for &b in *ins.first()? {
                acc = bdd.or(acc, b);
            }
            Some(vec![acc])
        }
        CellKind::RedAnd => {
            let mut acc = BddRef::TRUE;
            for &b in *ins.first()? {
                acc = bdd.and(acc, b);
            }
            Some(vec![acc])
        }
        CellKind::Zext => Some(
            (0..width)
                .map(|j| bit(ins, 0, j).unwrap_or(BddRef::FALSE))
                .collect(),
        ),
        CellKind::Slice { lo, .. } => (0..width).map(|j| bit(ins, 0, lo as usize + j)).collect(),
        CellKind::Concat => {
            // Inputs are listed most-significant first: the low bits of the
            // output come from the *last* input.
            let mut bits = Vec::new();
            for slice in ins.iter().rev() {
                bits.extend_from_slice(slice);
            }
            if bits.len() < width {
                return None;
            }
            bits.truncate(width);
            Some(bits)
        }
        CellKind::Mux => {
            let sel = *ins.first()?;
            let n_data = ins.len().checked_sub(1)?;
            if n_data == 0 {
                return None;
            }
            // Select values ≥ n_data−1 clamp to the last data input (the
            // simulator's convention).
            let mut conds = Vec::with_capacity(n_data);
            let mut rest = BddRef::TRUE;
            for k in 0..n_data {
                if k + 1 == n_data {
                    conds.push(rest);
                    break;
                }
                let eq = equals_const(bdd, sel, k);
                let ne = bdd.not(eq);
                rest = bdd.and(rest, ne);
                conds.push(eq);
            }
            let mut out = Vec::with_capacity(width);
            for j in 0..width {
                let mut acc = BddRef::FALSE;
                for (k, &cond) in conds.iter().enumerate() {
                    let d = bit(ins, 1 + k, j)?;
                    let term = bdd.and(cond, d);
                    acc = bdd.or(acc, term);
                }
                out.push(acc);
            }
            Some(out)
        }
        CellKind::Add | CellKind::Sub => {
            let a = *ins.first()?;
            let b = *ins.get(1)?;
            if a.len() < width || b.len() < width {
                return None;
            }
            // a − b = a + !b + 1 (two's complement).
            let subtract = kind == CellKind::Sub;
            let carry = if subtract {
                BddRef::TRUE
            } else {
                BddRef::FALSE
            };
            Some(ripple_carry_sum(
                bdd,
                &a[..width],
                &b[..width],
                subtract,
                carry,
            ))
        }
        CellKind::Mul => {
            // Shift-add over the multiplier bits, truncated to width.
            let a = *ins.first()?;
            let b = *ins.get(1)?;
            if a.len() < width || b.len() < width {
                return None;
            }
            let mut acc = vec![BddRef::FALSE; width];
            for i in 0..width {
                let mut partial = vec![BddRef::FALSE; width];
                for j in 0..width - i {
                    partial[i + j] = bdd.and(a[j], b[i]);
                }
                acc = ripple_carry_sum(bdd, &acc, &partial, false, BddRef::FALSE);
                if abort(bdd) {
                    return None;
                }
            }
            Some(acc)
        }
        CellKind::Eq => {
            let a = *ins.first()?;
            let b = *ins.get(1)?;
            if a.len() != b.len() {
                return None;
            }
            let mut acc = BddRef::TRUE;
            for (&aj, &bj) in a.iter().zip(b.iter()) {
                let x = bdd.xor(aj, bj);
                let xn = bdd.not(x);
                acc = bdd.and(acc, xn);
            }
            Some(vec![acc])
        }
        CellKind::Lt => {
            let a = *ins.first()?;
            let b = *ins.get(1)?;
            if a.len() != b.len() {
                return None;
            }
            // `a < b` is the borrow out of `a − b`.
            let mut borrow = BddRef::FALSE;
            for (&aj, &bj) in a.iter().zip(b.iter()) {
                let na = bdd.not(aj);
                let g = bdd.and(na, bj);
                let x = bdd.xor(aj, bj);
                let nx = bdd.not(x);
                let prop = bdd.and(nx, borrow);
                borrow = bdd.or(g, prop);
            }
            Some(vec![borrow])
        }
        CellKind::Shl | CellKind::Shr => {
            // out = a shifted by sh, zero once sh ≥ width: a one-hot mux
            // over each representable shift amount below the width (any
            // other amount leaves every disjunct false, i.e. zero).
            let a = *ins.first()?;
            let sh = *ins.get(1)?;
            let left = kind == CellKind::Shl;
            let mut terms: Vec<(usize, BddRef)> = Vec::new();
            for k in 0..width {
                if sh.len() < 63 && (k >> sh.len()) != 0 {
                    break; // amount not representable in the shift input
                }
                terms.push((k, equals_const(bdd, sh, k)));
            }
            let mut out = Vec::with_capacity(width);
            for j in 0..width {
                let mut acc = BddRef::FALSE;
                for &(k, eq) in &terms {
                    let src = if left {
                        j.checked_sub(k).and_then(|i| a.get(i).copied())
                    } else {
                        a.get(j + k).copied()
                    };
                    let Some(src) = src else { continue }; // shifted-in zero
                    let term = bdd.and(eq, src);
                    acc = bdd.or(acc, term);
                }
                out.push(acc);
            }
            Some(out)
        }
        CellKind::Latch | CellKind::Reg { .. } => None,
    }
}

/// `a + (negate_b ? !b : b) + carry_in`, ripple-carry, `a.len()` bits.
fn ripple_carry_sum(
    bdd: &mut Bdd,
    a: &[BddRef],
    b: &[BddRef],
    negate_b: bool,
    carry_in: BddRef,
) -> Vec<BddRef> {
    let mut carry = carry_in;
    let mut out = Vec::with_capacity(a.len());
    for (&aj, &bj) in a.iter().zip(b) {
        let bj = if negate_b { bdd.not(bj) } else { bj };
        let axb = bdd.xor(aj, bj);
        out.push(bdd.xor(axb, carry));
        let g = bdd.and(aj, bj);
        let prop = bdd.and(carry, axb);
        carry = bdd.or(g, prop);
    }
    out
}

/// The condition `word == k` over `word`'s full bit vector (`FALSE` when
/// `k` does not fit the word).
fn equals_const(bdd: &mut Bdd, word: &[BddRef], k: usize) -> BddRef {
    let mut eq = if word.len() < 63 && (k >> word.len()) != 0 {
        BddRef::FALSE
    } else {
        BddRef::TRUE
    };
    for (i, &bit) in word.iter().enumerate() {
        let lit = if (k >> i) & 1 == 1 { bit } else { bdd.not(bit) };
        eq = bdd.and(eq, lit);
    }
    eq
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Signal;
    use oiso_netlist::{eval_comb_cell, CellId, NetId, NetlistBuilder};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// Random vectors tried when the inputs are too wide to enumerate.
    const RANDOM_VECTORS: usize = 512;

    /// Encodes a one-cell netlist and compares every output bit against
    /// [`eval_comb_cell`]: on every input vector when the inputs total at
    /// most 12 bits, on seeded random vectors otherwise.
    fn check_cell(kind: CellKind, in_widths: &[u8], out_width: u8) {
        let mut b = NetlistBuilder::new("dut");
        let ins: Vec<NetId> = in_widths
            .iter()
            .enumerate()
            .map(|(i, &w)| b.input(format!("i{i}"), w))
            .collect();
        let o = b.wire("o", out_width);
        b.cell("c", kind, &ins, o).unwrap();
        b.mark_output(o);
        let n = b.build().unwrap();
        let cell = n.cell(CellId::from_index(0));

        let mut bdd = Bdd::new();
        let bits: Vec<Vec<BddRef>> = ins
            .iter()
            .zip(in_widths)
            .map(|(&net, &w)| (0..w).map(|bit| bdd.literal(Signal { net, bit })).collect())
            .collect();
        let slices: Vec<&[BddRef]> = bits.iter().map(Vec::as_slice).collect();
        let out = encode_cell(&mut bdd, kind, &slices, out_width as usize, |_| false)
            .expect("combinational kinds encode");
        assert_eq!(out.len(), out_width as usize);

        let check = |vals: &[u64]| {
            let assignment = |sig: Signal| {
                let port = ins.iter().position(|&net| net == sig.net).unwrap();
                (vals[port] >> sig.bit) & 1 == 1
            };
            let symbolic = out.iter().enumerate().fold(0u64, |acc, (i, &bit)| {
                acc | (u64::from(bdd.eval(bit, &assignment)) << i)
            });
            assert_eq!(
                symbolic,
                eval_comb_cell(&n, cell, vals),
                "{kind:?} on {vals:?}"
            );
        };
        let mask = |w: u8| oiso_netlist::net::mask(w);
        let total: u32 = in_widths.iter().map(|&w| u32::from(w)).sum();
        if total <= 12 {
            for word in 0..1u64 << total {
                let mut shift = 0;
                let vals: Vec<u64> = in_widths
                    .iter()
                    .map(|&w| {
                        let v = (word >> shift) & mask(w);
                        shift += u32::from(w);
                        v
                    })
                    .collect();
                check(&vals);
            }
        } else {
            let mut rng = StdRng::seed_from_u64(u64::from(total));
            for _ in 0..RANDOM_VECTORS {
                let vals: Vec<u64> = in_widths
                    .iter()
                    .map(|&w| rng.gen::<u64>() & mask(w))
                    .collect();
                check(&vals);
            }
        }
    }

    #[test]
    fn arithmetic_matches_evaluator() {
        check_cell(CellKind::Add, &[6, 6], 6);
        check_cell(CellKind::Sub, &[6, 6], 6);
        check_cell(CellKind::Mul, &[5, 5], 5);
        check_cell(CellKind::Add, &[1, 1], 1);
        check_cell(CellKind::Sub, &[1, 1], 1);
        check_cell(CellKind::Add, &[9, 9], 9);
    }

    #[test]
    fn shifts_match_evaluator() {
        check_cell(CellKind::Shl, &[6, 3], 6);
        check_cell(CellKind::Shr, &[6, 3], 6);
        // Amounts wider than needed: out-of-range amounts force 0.
        check_cell(CellKind::Shl, &[4, 6], 4);
        check_cell(CellKind::Shr, &[4, 6], 4);
    }

    #[test]
    fn comparisons_match_evaluator() {
        check_cell(CellKind::Lt, &[6, 6], 1);
        check_cell(CellKind::Eq, &[6, 6], 1);
        check_cell(CellKind::Lt, &[1, 1], 1);
    }

    #[test]
    fn mux_clamp_matches_evaluator() {
        // 3 data inputs on a 2-bit select: sel = 3 clamps to input 2.
        check_cell(CellKind::Mux, &[2, 4, 4, 4], 4);
        check_cell(CellKind::Mux, &[1, 5, 5], 5);
        // 5 data inputs on a 3-bit select: sel = 5..7 clamp to input 4.
        check_cell(CellKind::Mux, &[3, 1, 1, 1, 1, 1], 1);
        // 2 data inputs on a 3-bit select: every nonzero select picks 1.
        check_cell(CellKind::Mux, &[3, 2, 2], 2);
    }

    #[test]
    fn gates_and_wiring_match_evaluator() {
        check_cell(CellKind::And, &[4, 4, 4], 4);
        check_cell(CellKind::Or, &[4, 4], 4);
        check_cell(CellKind::Xor, &[4, 4], 4);
        check_cell(CellKind::Not, &[4], 4);
        check_cell(CellKind::Buf, &[5], 5);
        check_cell(CellKind::Const { value: 0b1011_0110 }, &[], 6);
        check_cell(CellKind::RedOr, &[5], 1);
        check_cell(CellKind::RedAnd, &[5], 1);
        check_cell(CellKind::Slice { lo: 2, hi: 5 }, &[8], 4);
        check_cell(CellKind::Concat, &[3, 5], 8);
        check_cell(CellKind::Concat, &[2, 3, 4], 9);
        check_cell(CellKind::Zext, &[4], 7);
    }

    #[test]
    fn multiplier_rows_poll_the_abort_test() {
        let mut bdd = Bdd::new();
        let bits: Vec<Vec<BddRef>> = (0..2)
            .map(|net| {
                (0..4)
                    .map(|bit| {
                        bdd.literal(Signal {
                            net: NetId::from_index(net),
                            bit,
                        })
                    })
                    .collect()
            })
            .collect();
        let slices: Vec<&[BddRef]> = bits.iter().map(Vec::as_slice).collect();
        let mut rows = 0;
        let out = encode_cell(&mut bdd, CellKind::Mul, &slices, 4, |_| {
            rows += 1;
            false
        });
        assert_eq!((out.map(|o| o.len()), rows), (Some(4), 4));
        let mut polls = 0;
        let aborted = encode_cell(&mut bdd, CellKind::Mul, &slices, 4, |_| {
            polls += 1;
            polls == 2
        });
        assert_eq!((aborted, polls), (None, 2));
    }

    #[test]
    fn stateful_kinds_have_no_encoding() {
        let mut bdd = Bdd::new();
        let d = [BddRef::TRUE];
        let en = [BddRef::FALSE];
        let ins: [&[BddRef]; 2] = [&d, &en];
        assert!(encode_cell(&mut bdd, CellKind::Latch, &ins, 1, |_| false).is_none());
        let reg = CellKind::Reg { has_enable: true };
        assert!(encode_cell(&mut bdd, reg, &ins, 1, |_| false).is_none());
    }
}
