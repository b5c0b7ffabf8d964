//! Word-level meaning of every combinational cell kind.
//!
//! All values are unsigned words in the low bits of a `u64`, masked to the
//! net width; arithmetic wraps (fixed-width RT datapath semantics). This is
//! the one concrete definition of each [`CellKind`]: the simulators, the
//! constant-folding cleanup pass and lint's constant propagation all call
//! [`eval_comb_cell`], and the BDD cell encoder is tested against it.

use crate::cell::{Cell, CellKind};
use crate::net::mask;
use crate::netlist::Netlist;

/// Evaluates a combinational cell (anything but `Reg`; `Latch` is handled by
/// the engine because it holds state).
///
/// `input_vals[i]` is the current value of `cell.inputs()[i]`; widths are
/// read from `netlist`.
///
/// # Panics
///
/// Panics (in debug builds) if called on a register or latch.
#[inline]
pub fn eval_comb_cell(netlist: &Netlist, cell: &Cell, input_vals: &[u64]) -> u64 {
    let out_width = netlist.net(cell.output()).width();
    let out_mask = mask(out_width);
    let v = |i: usize| input_vals[i];
    let in_width = |i: usize| netlist.net(cell.inputs()[i]).width();

    let raw = match cell.kind() {
        CellKind::Add => v(0).wrapping_add(v(1)),
        CellKind::Sub => v(0).wrapping_sub(v(1)),
        CellKind::Mul => v(0).wrapping_mul(v(1)),
        CellKind::Shl => {
            let amt = v(1);
            if amt >= out_width as u64 {
                0
            } else {
                v(0) << amt
            }
        }
        CellKind::Shr => {
            let amt = v(1);
            if amt >= out_width as u64 {
                0
            } else {
                v(0) >> amt
            }
        }
        CellKind::Lt => (v(0) < v(1)) as u64,
        CellKind::Eq => (v(0) == v(1)) as u64,
        CellKind::Mux => {
            let n_data = cell.inputs().len() - 1;
            let sel = (v(0) as usize).min(n_data - 1);
            v(1 + sel)
        }
        CellKind::And => input_vals.iter().copied().fold(u64::MAX, |a, b| a & b),
        CellKind::Or => input_vals.iter().copied().fold(0, |a, b| a | b),
        CellKind::Xor => input_vals.iter().copied().fold(0, |a, b| a ^ b),
        CellKind::Not => !v(0),
        CellKind::Buf => v(0),
        CellKind::RedOr => (v(0) != 0) as u64,
        CellKind::RedAnd => (v(0) == mask(in_width(0))) as u64,
        CellKind::Const { value } => value,
        CellKind::Slice { lo, hi } => (v(0) >> lo) & mask(hi - lo + 1),
        CellKind::Concat => {
            let mut acc = 0u64;
            for (i, &val) in input_vals.iter().enumerate() {
                acc = (acc << in_width(i)) | val;
            }
            acc
        }
        CellKind::Zext => v(0),
        CellKind::Reg { .. } | CellKind::Latch => {
            debug_assert!(false, "stateful cell passed to eval_comb_cell");
            0
        }
    };
    raw & out_mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CellId, NetlistBuilder};

    /// Builds a one-cell netlist and evaluates the cell on `inputs`.
    fn eval_one(kind: CellKind, in_widths: &[u8], out_width: u8, vals: &[u64]) -> u64 {
        let mut b = NetlistBuilder::new("e");
        let ins: Vec<_> = in_widths
            .iter()
            .enumerate()
            .map(|(i, &w)| b.input(format!("i{i}"), w))
            .collect();
        let o = b.wire("o", out_width);
        b.cell("dut", kind, &ins, o).unwrap();
        b.mark_output(o);
        let n = b.build().unwrap();
        let cell = n.cell(CellId::from_index(0));
        eval_comb_cell(&n, cell, vals)
    }

    #[test]
    fn arithmetic_wraps() {
        assert_eq!(eval_one(CellKind::Add, &[8, 8], 8, &[0xFF, 1]), 0);
        assert_eq!(eval_one(CellKind::Sub, &[8, 8], 8, &[0, 1]), 0xFF);
        assert_eq!(eval_one(CellKind::Mul, &[8, 8], 8, &[16, 16]), 0);
        assert_eq!(eval_one(CellKind::Mul, &[8, 8], 8, &[3, 5]), 15);
    }

    #[test]
    fn shifts_saturate_to_zero() {
        assert_eq!(eval_one(CellKind::Shl, &[8, 4], 8, &[0b1, 3]), 0b1000);
        assert_eq!(eval_one(CellKind::Shl, &[8, 4], 8, &[0xFF, 8]), 0);
        assert_eq!(eval_one(CellKind::Shr, &[8, 4], 8, &[0x80, 7]), 1);
        assert_eq!(eval_one(CellKind::Shr, &[8, 4], 8, &[0x80, 9]), 0);
    }

    #[test]
    fn comparisons() {
        assert_eq!(eval_one(CellKind::Lt, &[8, 8], 1, &[3, 5]), 1);
        assert_eq!(eval_one(CellKind::Lt, &[8, 8], 1, &[5, 5]), 0);
        assert_eq!(eval_one(CellKind::Eq, &[8, 8], 1, &[5, 5]), 1);
        assert_eq!(eval_one(CellKind::Eq, &[8, 8], 1, &[4, 5]), 0);
    }

    #[test]
    fn mux_selects_and_clamps() {
        // 3 data inputs, 2-bit select.
        let k = CellKind::Mux;
        assert_eq!(eval_one(k, &[2, 4, 4, 4], 4, &[0, 10, 11, 12]), 10);
        assert_eq!(eval_one(k, &[2, 4, 4, 4], 4, &[2, 10, 11, 12]), 12);
        // Out-of-range select clamps to last input.
        assert_eq!(eval_one(k, &[2, 4, 4, 4], 4, &[3, 10, 11, 12]), 12);
    }

    #[test]
    fn bitwise_gates() {
        assert_eq!(
            eval_one(CellKind::And, &[4, 4, 4], 4, &[0b1110, 0b0111, 0b1111]),
            0b0110
        );
        assert_eq!(eval_one(CellKind::Or, &[4, 4], 4, &[0b1000, 0b0001]), 0b1001);
        assert_eq!(eval_one(CellKind::Xor, &[4, 4], 4, &[0b1100, 0b1010]), 0b0110);
        assert_eq!(eval_one(CellKind::Not, &[4], 4, &[0b1010]), 0b0101);
        assert_eq!(eval_one(CellKind::Buf, &[4], 4, &[0b1010]), 0b1010);
    }

    #[test]
    fn reductions() {
        assert_eq!(eval_one(CellKind::RedOr, &[4], 1, &[0]), 0);
        assert_eq!(eval_one(CellKind::RedOr, &[4], 1, &[0b0100]), 1);
        assert_eq!(eval_one(CellKind::RedAnd, &[4], 1, &[0b1111]), 1);
        assert_eq!(eval_one(CellKind::RedAnd, &[4], 1, &[0b0111]), 0);
    }

    #[test]
    fn wiring_cells() {
        assert_eq!(eval_one(CellKind::Const { value: 0x1FF }, &[], 8, &[]), 0xFF);
        assert_eq!(
            eval_one(CellKind::Slice { lo: 2, hi: 5 }, &[8], 4, &[0b1011_0100]),
            0b1101
        );
        assert_eq!(
            eval_one(CellKind::Concat, &[3, 5], 8, &[0b101, 0b10001]),
            0b101_10001
        );
        assert_eq!(eval_one(CellKind::Zext, &[4], 8, &[0b1010]), 0b1010);
    }
}
