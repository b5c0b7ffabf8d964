//! Nets: named, width-carrying wires.

use crate::id::{CellId, NetId};

/// A net of the RT-level netlist: a named bundle of 1–64 wires with a single
/// driver (a cell output or a primary input) and any number of loads.
#[derive(Debug, Clone)]
pub struct Net {
    pub(crate) name: String,
    pub(crate) width: u8,
    pub(crate) driver: Option<CellId>,
    pub(crate) loads: Vec<(CellId, usize)>,
    pub(crate) is_input: bool,
    pub(crate) is_output: bool,
}

impl Net {
    /// The net's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The bit width (1..=64).
    pub fn width(&self) -> u8 {
        self.width
    }

    /// The driving cell, or `None` for primary inputs.
    pub fn driver(&self) -> Option<CellId> {
        self.driver
    }

    /// The cells loading this net, with the input-port index at which each
    /// connects. A cell appears once per connected port.
    pub fn loads(&self) -> &[(CellId, usize)] {
        &self.loads
    }

    /// `true` if this net is a primary input of the design.
    pub fn is_primary_input(&self) -> bool {
        self.is_input
    }

    /// `true` if this net is (also) a primary output of the design.
    pub fn is_primary_output(&self) -> bool {
        self.is_output
    }

    /// Bit mask covering the net's width.
    pub fn mask(&self) -> u64 {
        mask(self.width)
    }
}

/// Bit mask with the lowest `width` bits set.
///
/// # Panics
///
/// Panics if `width` is 0 or exceeds 64.
pub fn mask(width: u8) -> u64 {
    assert!((1..=64).contains(&width), "net width must be 1..=64");
    if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Convenience alias used by traversals: a (net, port) load pair.
pub type Load = (NetId, usize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_widths() {
        assert_eq!(mask(1), 1);
        assert_eq!(mask(8), 0xFF);
        assert_eq!(mask(63), u64::MAX >> 1);
        assert_eq!(mask(64), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "net width must be 1..=64")]
    fn zero_width_mask_panics() {
        let _ = mask(0);
    }

    #[test]
    fn net_accessors() {
        let n = Net {
            name: "x".into(),
            width: 16,
            driver: Some(CellId::from_index(2)),
            loads: vec![(CellId::from_index(3), 0)],
            is_input: false,
            is_output: true,
        };
        assert_eq!(n.name(), "x");
        assert_eq!(n.width(), 16);
        assert_eq!(n.driver(), Some(CellId::from_index(2)));
        assert_eq!(n.loads().len(), 1);
        assert!(!n.is_primary_input());
        assert!(n.is_primary_output());
        assert_eq!(n.mask(), 0xFFFF);
    }
}
