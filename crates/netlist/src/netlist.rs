//! The netlist container: nets, cells, primary I/O, and controlled mutation.

use crate::builder::BuildError;
use crate::cell::{Cell, CellKind};
use crate::id::{CellId, NetId};
use crate::net::{mask, Net};
use crate::validate;
use std::collections::HashMap;

/// An RT-level netlist: a named design with nets, cells, and primary I/O.
///
/// Construction goes through [`NetlistBuilder`](crate::NetlistBuilder);
/// transformation passes (notably the isolation transform in `oiso-core`)
/// use the checked mutators [`Netlist::add_wire`], [`Netlist::add_cell`],
/// and [`Netlist::rewire_input`], then re-run [`Netlist::validate`].
#[derive(Debug, Clone)]
pub struct Netlist {
    pub(crate) name: String,
    pub(crate) nets: Vec<Net>,
    pub(crate) cells: Vec<Cell>,
    pub(crate) inputs: Vec<NetId>,
    pub(crate) outputs: Vec<NetId>,
    pub(crate) net_names: HashMap<String, NetId>,
    pub(crate) cell_names: HashMap<String, CellId>,
}

impl Netlist {
    pub(crate) fn empty(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            nets: Vec::new(),
            cells: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            net_names: HashMap::new(),
            cell_names: HashMap::new(),
        }
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The net with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this netlist.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// The cell with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this netlist.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// Number of cells.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Iterator over `(id, net)` pairs in id order.
    pub fn nets(&self) -> impl Iterator<Item = (NetId, &Net)> {
        self.nets
            .iter()
            .enumerate()
            .map(|(i, n)| (NetId::from_index(i), n))
    }

    /// Iterator over `(id, cell)` pairs in id order.
    pub fn cells(&self) -> impl Iterator<Item = (CellId, &Cell)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| (CellId::from_index(i), c))
    }

    /// The primary input nets, in declaration order.
    pub fn primary_inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// The primary output nets, in declaration order.
    pub fn primary_outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// Looks up a net by name.
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.net_names.get(name).copied()
    }

    /// Looks up a cell by instance name.
    pub fn find_cell(&self, name: &str) -> Option<CellId> {
        self.cell_names.get(name).copied()
    }

    /// Iterator over the ids of all register cells.
    pub fn registers(&self) -> impl Iterator<Item = CellId> + '_ {
        self.cells()
            .filter(|(_, c)| c.kind().is_register())
            .map(|(id, _)| id)
    }

    /// Iterator over the ids of all arithmetic (isolation-candidate) cells.
    pub fn arithmetic_cells(&self) -> impl Iterator<Item = CellId> + '_ {
        self.cells()
            .filter(|(_, c)| c.kind().is_arithmetic())
            .map(|(id, _)| id)
    }

    /// Adds an internal wire and returns its id.
    ///
    /// # Errors
    ///
    /// Returns an error if the name is already taken or the width is invalid.
    pub fn add_wire(&mut self, name: impl Into<String>, width: u8) -> Result<NetId, BuildError> {
        let name = name.into();
        if !(1..=64).contains(&width) {
            return Err(BuildError::InvalidWidth { net: name, width });
        }
        if self.net_names.contains_key(&name) {
            return Err(BuildError::DuplicateNet(name));
        }
        let id = NetId::from_index(self.nets.len());
        self.net_names.insert(name.clone(), id);
        self.nets.push(Net {
            name,
            width,
            driver: None,
            loads: Vec::new(),
            is_input: false,
            is_output: false,
        });
        Ok(id)
    }

    /// Adds a primary input net.
    ///
    /// # Errors
    ///
    /// Returns an error if the name is already taken or the width is invalid.
    pub fn add_input(&mut self, name: impl Into<String>, width: u8) -> Result<NetId, BuildError> {
        let id = self.add_wire(name, width)?;
        self.nets[id.index()].is_input = true;
        self.inputs.push(id);
        Ok(id)
    }

    /// Marks an existing net as a primary output. Idempotent.
    pub fn mark_output(&mut self, net: NetId) {
        if !self.nets[net.index()].is_output {
            self.nets[net.index()].is_output = true;
            self.outputs.push(net);
        }
    }

    /// Adds a cell, validating its port convention (see [`CellKind`]) and
    /// connecting it to its nets.
    ///
    /// # Errors
    ///
    /// Returns an error on duplicate instance names, width mismatches, wrong
    /// port counts, driving a primary input, or double-driving a net.
    pub fn add_cell(
        &mut self,
        name: impl Into<String>,
        kind: CellKind,
        inputs: &[NetId],
        output: NetId,
    ) -> Result<CellId, BuildError> {
        let name = name.into();
        if self.cell_names.contains_key(&name) {
            return Err(BuildError::DuplicateCell(name));
        }
        validate::check_cell_ports(self, &name, kind, inputs, output)?;
        let out_net = &self.nets[output.index()];
        if out_net.is_input {
            return Err(BuildError::DrivesPrimaryInput {
                cell: name,
                net: out_net.name.clone(),
            });
        }
        if out_net.driver.is_some() {
            return Err(BuildError::MultipleDrivers(out_net.name.clone()));
        }
        let id = CellId::from_index(self.cells.len());
        self.cell_names.insert(name.clone(), id);
        for (port, &net) in inputs.iter().enumerate() {
            self.nets[net.index()].loads.push((id, port));
        }
        self.nets[output.index()].driver = Some(id);
        self.cells.push(Cell {
            name,
            kind,
            inputs: inputs.to_vec(),
            output,
        });
        Ok(id)
    }

    /// Reconnects input port `port` of `cell` to `new_net`, preserving the
    /// port convention. This is the primitive the isolation transform uses to
    /// splice isolation banks into operand paths.
    ///
    /// # Errors
    ///
    /// Returns an error if the new net's width differs from the old one.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range for `cell`.
    pub fn rewire_input(
        &mut self,
        cell: CellId,
        port: usize,
        new_net: NetId,
    ) -> Result<(), BuildError> {
        let old_net = self.cells[cell.index()].inputs[port];
        if self.nets[new_net.index()].width != self.nets[old_net.index()].width {
            return Err(BuildError::WidthMismatch {
                cell: self.cells[cell.index()].name.clone(),
                detail: format!(
                    "rewire of port {port}: {} is {} bits, replacement {} is {} bits",
                    self.nets[old_net.index()].name,
                    self.nets[old_net.index()].width,
                    self.nets[new_net.index()].name,
                    self.nets[new_net.index()].width
                ),
            });
        }
        self.nets[old_net.index()]
            .loads
            .retain(|&(c, p)| !(c == cell && p == port));
        self.nets[new_net.index()].loads.push((cell, port));
        self.cells[cell.index()].inputs[port] = new_net;
        Ok(())
    }

    /// Runs the global structural checks: every non-input net driven, no
    /// combinational cycles, connectivity tables consistent.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<(), crate::ValidateError> {
        validate::validate(self)
    }

    /// Runs [`Netlist::validate`] plus the dangling-net check: every net
    /// must either feed at least one cell or be a primary output.
    ///
    /// Generators may deliberately leave scratch nets unread (the random
    /// design builder keeps a value pool), so this is a separate, opt-in
    /// level of scrutiny used by hand-written designs and the fuzzer's
    /// mutation filter.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate_strict(&self) -> Result<(), crate::ValidateError> {
        validate::validate_strict(self)
    }

    /// Like [`Netlist::validate`], but collects *every* violation instead
    /// of bailing on the first. Returns an empty vector when the netlist
    /// is structurally sound; findings appear in the same deterministic
    /// order `validate` checks them, so the first element is exactly what
    /// `validate` would have returned as its error.
    pub fn validate_all(&self) -> Vec<crate::ValidateError> {
        validate::validate_all(self)
    }

    /// Like [`Netlist::validate_strict`], but collects every violation
    /// (including one [`crate::ValidateError::DanglingNet`] per
    /// unobservable net) instead of bailing on the first.
    pub fn validate_strict_all(&self) -> Vec<crate::ValidateError> {
        validate::validate_strict_all(self)
    }

    /// The constant value driven onto `net`, if its driver is a `Const` cell.
    pub fn constant_value(&self, net: NetId) -> Option<u64> {
        let driver = self.net(net).driver()?;
        match self.cell(driver).kind() {
            CellKind::Const { value } => Some(value & mask(self.net(net).width())),
            _ => None,
        }
    }

    /// A 64-bit content fingerprint of the netlist structure.
    ///
    /// Covers the design name, every net (name, width, primary-I/O flags),
    /// every cell (instance name, kind with payload, port connections), and
    /// the primary-I/O declaration order — everything that determines
    /// simulation behavior. Two netlists with equal fingerprints simulate
    /// identically under the same stimulus, which is what lets per-netlist
    /// simulation statistics be memoized (see `oiso-sim`'s `SimMemo`).
    ///
    /// The hash is FNV-1a over an explicit field encoding, so it is stable
    /// across runs, platforms, and compiler versions (unlike `std::hash`).
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new().legacy_prime();
        h.str(&self.name);
        h.u64(self.nets.len() as u64);
        for net in &self.nets {
            h.str(&net.name);
            h.u64(net.width as u64);
            h.u64(net.is_input as u64);
            h.u64(net.is_output as u64);
        }
        h.u64(self.cells.len() as u64);
        for cell in &self.cells {
            h.str(&cell.name);
            h.str(cell.kind.mnemonic());
            // Payload-carrying kinds: the mnemonic alone does not identify
            // them (e.g. every Const is "const").
            match cell.kind {
                CellKind::Reg { has_enable } => h.u64(has_enable as u64),
                CellKind::Const { value } => h.u64(value),
                CellKind::Slice { lo, hi } => {
                    h.u64(lo as u64);
                    h.u64(hi as u64);
                }
                _ => {}
            }
            h.u64(cell.inputs.len() as u64);
            for &input in &cell.inputs {
                h.u64(input.index() as u64);
            }
            h.u64(cell.output.index() as u64);
        }
        h.u64(self.inputs.len() as u64);
        for &pi in &self.inputs {
            h.u64(pi.index() as u64);
        }
        h.u64(self.outputs.len() as u64);
        for &po in &self.outputs {
            h.u64(po.index() as u64);
        }
        h.finish()
    }

    /// Generates a fresh net name with the given prefix that does not clash
    /// with any existing net.
    pub fn fresh_net_name(&self, prefix: &str) -> String {
        let mut i = 0usize;
        loop {
            let candidate = format!("{prefix}_{i}");
            if !self.net_names.contains_key(&candidate) {
                return candidate;
            }
            i += 1;
        }
    }

    /// Generates a fresh cell name with the given prefix that does not clash
    /// with any existing cell.
    pub fn fresh_cell_name(&self, prefix: &str) -> String {
        let mut i = 0usize;
        loop {
            let candidate = format!("{prefix}_{i}");
            if !self.cell_names.contains_key(&candidate) {
                return candidate;
            }
            i += 1;
        }
    }
}

/// The workspace's one FNV-1a accumulator (64-bit, offset basis
/// `0xcbf29ce484222325`, prime `0x100000001b3`).
///
/// Every fingerprint, seed and checksum that leaves the process — netlist
/// and stimulus fingerprints, per-input stimulus seeds, checkpoint and
/// fuzz-journal keys, store checksums, serve cache keys — is built on it,
/// so the byte stream each caller feeds is a compatibility contract.
/// [`Fnv::str`] hashes a length prefix so field boundaries cannot alias.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv {
    hash: u64,
    prime: u64,
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl Fnv {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    const LEGACY_PRIME: u64 = 0x0000_1000_0000_01b3;

    /// A fresh accumulator at the FNV offset basis.
    #[inline]
    pub fn new() -> Self {
        Fnv {
            hash: Self::OFFSET_BASIS,
            prime: Self::PRIME,
        }
    }

    /// An accumulator whose start is the offset basis XOR `seed`, so one
    /// byte stream yields a different hash per seed.
    #[inline]
    pub fn seeded(seed: u64) -> Self {
        Fnv {
            hash: Self::OFFSET_BASIS ^ seed,
            ..Fnv::new()
        }
    }

    /// The same accumulator multiplying by `0x1000_0000_01b3` — the FNV
    /// prime with one extra hex zero, still an odd multiplier — instead of
    /// the FNV prime. The netlist and stimulus fingerprints, per-input
    /// stimulus seeds and sweep point seeds were first computed with it;
    /// they key memos and journals, so they keep it.
    #[inline]
    pub fn legacy_prime(self) -> Self {
        Fnv {
            prime: Self::LEGACY_PRIME,
            ..self
        }
    }

    /// Folds in raw bytes, with no length prefix.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(self.prime);
        }
    }

    /// Folds in the 8 little-endian bytes of `v`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds in the exact bit pattern of `v`.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Folds in `s`'s length (as [`Fnv::u64`]) then its bytes.
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// The hash of everything folded in so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetlistBuilder;

    fn tiny() -> Netlist {
        let mut b = NetlistBuilder::new("tiny");
        let a = b.input("a", 8);
        let c = b.input("b", 8);
        let s = b.wire("s", 8);
        b.cell("add0", CellKind::Add, &[a, c], s).unwrap();
        b.mark_output(s);
        b.build().unwrap()
    }

    #[test]
    fn lookup_by_name() {
        let n = tiny();
        assert!(n.find_net("a").is_some());
        assert!(n.find_net("zzz").is_none());
        assert!(n.find_cell("add0").is_some());
        assert_eq!(n.primary_inputs().len(), 2);
        assert_eq!(n.primary_outputs().len(), 1);
    }

    #[test]
    fn loads_and_driver_are_tracked() {
        let n = tiny();
        let a = n.find_net("a").unwrap();
        let s = n.find_net("s").unwrap();
        let add = n.find_cell("add0").unwrap();
        assert_eq!(n.net(a).loads(), &[(add, 0)]);
        assert_eq!(n.net(s).driver(), Some(add));
        assert!(n.net(a).driver().is_none());
    }

    #[test]
    fn rewire_input_moves_load() {
        let mut n = tiny();
        let add = n.find_cell("add0").unwrap();
        let a = n.find_net("a").unwrap();
        let w = n.add_wire("iso", 8).unwrap();
        n.rewire_input(add, 0, w).unwrap();
        assert!(n.net(a).loads().is_empty());
        assert_eq!(n.net(w).loads(), &[(add, 0)]);
        assert_eq!(n.cell(add).inputs()[0], w);
    }

    #[test]
    fn rewire_width_mismatch_rejected() {
        let mut n = tiny();
        let add = n.find_cell("add0").unwrap();
        let w = n.add_wire("narrow", 4).unwrap();
        assert!(n.rewire_input(add, 0, w).is_err());
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut n = tiny();
        assert!(matches!(
            n.add_wire("a", 8),
            Err(BuildError::DuplicateNet(_))
        ));
        let w = n.add_wire("w2", 8).unwrap();
        let a = n.find_net("a").unwrap();
        let b2 = n.find_net("b").unwrap();
        assert!(matches!(
            n.add_cell("add0", CellKind::Add, &[a, b2], w),
            Err(BuildError::DuplicateCell(_))
        ));
    }

    #[test]
    fn multiple_drivers_rejected() {
        let mut n = tiny();
        let a = n.find_net("a").unwrap();
        let b2 = n.find_net("b").unwrap();
        let s = n.find_net("s").unwrap();
        assert!(matches!(
            n.add_cell("add1", CellKind::Add, &[a, b2], s),
            Err(BuildError::MultipleDrivers(_))
        ));
    }

    #[test]
    fn driving_primary_input_rejected() {
        let mut n = tiny();
        let a = n.find_net("a").unwrap();
        let b2 = n.find_net("b").unwrap();
        assert!(matches!(
            n.add_cell("bad", CellKind::Add, &[a, b2], a),
            Err(BuildError::DrivesPrimaryInput { .. })
        ));
    }

    #[test]
    fn constant_value_extraction() {
        let mut b = NetlistBuilder::new("k");
        let w = b.wire("k", 8);
        b.cell("c0", CellKind::Const { value: 0x1FF }, &[], w).unwrap();
        b.mark_output(w);
        let n = b.build().unwrap();
        // Truncated to 8 bits.
        assert_eq!(n.constant_value(n.find_net("k").unwrap()), Some(0xFF));
    }

    #[test]
    fn fresh_names_do_not_clash() {
        let n = tiny();
        let name = n.fresh_net_name("a");
        assert!(n.find_net(&name).is_none());
        let cname = n.fresh_cell_name("add0");
        assert!(n.find_cell(&cname).is_none());
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.fingerprint(), b.fingerprint(), "same structure, same fp");
        assert_eq!(a.fingerprint(), a.clone().fingerprint(), "clone preserves fp");

        // Any structural change must move the fingerprint.
        let mut wired = tiny();
        wired.add_wire("extra", 8).unwrap();
        assert_ne!(a.fingerprint(), wired.fingerprint(), "added net");

        let mut marked = tiny();
        let s = marked.find_net("a").unwrap();
        marked.mark_output(s);
        assert_ne!(a.fingerprint(), marked.fingerprint(), "changed output set");
    }

    #[test]
    fn fingerprint_distinguishes_cell_kind_payloads() {
        let build = |value: u64| {
            let mut b = NetlistBuilder::new("k");
            let w = b.wire("k", 8);
            b.cell("c0", CellKind::Const { value }, &[], w).unwrap();
            b.mark_output(w);
            b.build().unwrap()
        };
        assert_ne!(
            build(1).fingerprint(),
            build(2).fingerprint(),
            "Const payload must be hashed, not just the mnemonic"
        );
    }

    #[test]
    fn mark_output_is_idempotent() {
        let mut n = tiny();
        let s = n.find_net("s").unwrap();
        n.mark_output(s);
        n.mark_output(s);
        assert_eq!(n.primary_outputs().len(), 1);
    }
}
