//! Standard-cell vocabulary.
//!
//! The printed EGFET libraries used by the papers are tiny (a dozen cells);
//! this enum mirrors that reality. Every combinational cell has exactly one
//! output; sequential behavior is expressed with [`CellKind::Dff`] /
//! [`CellKind::DffE`].

/// The kind of a standard cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CellKind {
    /// Inverter: `y = !a`.
    Inv,
    /// Buffer: `y = a` (used for fanout repair / port isolation).
    Buf,
    /// 2-input NAND.
    Nand2,
    /// 2-input NOR.
    Nor2,
    /// 2-input AND.
    And2,
    /// 2-input OR.
    Or2,
    /// 2-input XOR.
    Xor2,
    /// 2-input XNOR.
    Xnor2,
    /// 3-input AND.
    And3,
    /// 3-input OR.
    Or3,
    /// 2:1 multiplexer; inputs `[a, b, sel]`, `y = sel ? b : a`.
    Mux2,
    /// AND-OR-invert 2-1 is absent from printed libraries; majority carries
    /// the full-adder carry: inputs `[a, b, c]`, `y = ab | ac | bc`.
    Maj3,
    /// D flip-flop; inputs `[d]`, output `q`, clocked by the implicit clock.
    Dff,
    /// D flip-flop with clock enable; inputs `[d, en]`: `q' = en ? d : q`.
    DffE,
}

impl CellKind {
    /// Number of input pins.
    #[must_use]
    pub fn arity(&self) -> usize {
        match self {
            CellKind::Inv | CellKind::Buf | CellKind::Dff => 1,
            CellKind::Nand2
            | CellKind::Nor2
            | CellKind::And2
            | CellKind::Or2
            | CellKind::Xor2
            | CellKind::Xnor2
            | CellKind::DffE => 2,
            CellKind::And3 | CellKind::Or3 | CellKind::Mux2 | CellKind::Maj3 => 3,
        }
    }

    /// Whether the cell is a state element (flip-flop).
    #[must_use]
    pub fn is_sequential(&self) -> bool {
        matches!(self, CellKind::Dff | CellKind::DffE)
    }

    /// Combinational truth function. For sequential cells this computes the
    /// *next-state* function given `[d]` / `[d, en, q]` — see [`CellKind::next_state`].
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.arity()` or if called on a sequential
    /// cell (use [`CellKind::next_state`]).
    #[must_use]
    pub fn eval(&self, inputs: &[bool]) -> bool {
        assert!(!self.is_sequential(), "eval called on sequential cell {self:?}");
        assert_eq!(inputs.len(), self.arity(), "arity mismatch for {self:?}");
        match self {
            CellKind::Inv => !inputs[0],
            CellKind::Buf => inputs[0],
            CellKind::Nand2 => !(inputs[0] && inputs[1]),
            CellKind::Nor2 => !(inputs[0] || inputs[1]),
            CellKind::And2 => inputs[0] && inputs[1],
            CellKind::Or2 => inputs[0] || inputs[1],
            CellKind::Xor2 => inputs[0] ^ inputs[1],
            CellKind::Xnor2 => !(inputs[0] ^ inputs[1]),
            CellKind::And3 => inputs[0] && inputs[1] && inputs[2],
            CellKind::Or3 => inputs[0] || inputs[1] || inputs[2],
            CellKind::Mux2 => {
                if inputs[2] {
                    inputs[1]
                } else {
                    inputs[0]
                }
            }
            CellKind::Maj3 => (inputs[0] && (inputs[1] || inputs[2])) || (inputs[1] && inputs[2]),
            CellKind::Dff | CellKind::DffE => unreachable!(),
        }
    }

    /// Word-parallel truth function: every bit position of the operands is an
    /// independent evaluation (one simulation lane), so a single bitwise
    /// expression computes the cell for up to 64 input vectors at once. This
    /// is the kernel of `pe-sim`'s bit-sliced simulator; bit `l` of the
    /// result equals `self.eval(...)` applied to bit `l` of each operand.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.arity()` or if called on a sequential
    /// cell (use [`CellKind::next_state_packed`]).
    #[must_use]
    pub fn eval_packed(&self, inputs: &[u64]) -> u64 {
        assert!(!self.is_sequential(), "eval_packed called on sequential cell {self:?}");
        assert_eq!(inputs.len(), self.arity(), "arity mismatch for {self:?}");
        match self {
            CellKind::Inv => !inputs[0],
            CellKind::Buf => inputs[0],
            CellKind::Nand2 => !(inputs[0] & inputs[1]),
            CellKind::Nor2 => !(inputs[0] | inputs[1]),
            CellKind::And2 => inputs[0] & inputs[1],
            CellKind::Or2 => inputs[0] | inputs[1],
            CellKind::Xor2 => inputs[0] ^ inputs[1],
            CellKind::Xnor2 => !(inputs[0] ^ inputs[1]),
            CellKind::And3 => inputs[0] & inputs[1] & inputs[2],
            CellKind::Or3 => inputs[0] | inputs[1] | inputs[2],
            CellKind::Mux2 => (inputs[0] & !inputs[2]) | (inputs[1] & inputs[2]),
            CellKind::Maj3 => (inputs[0] & (inputs[1] | inputs[2])) | (inputs[1] & inputs[2]),
            CellKind::Dff | CellKind::DffE => unreachable!(),
        }
    }

    /// Width-generic word-parallel truth function: a `[u64; W]` slab packs
    /// `64 * W` lanes per net (word `i` holds lanes `64*i .. 64*i+63`), and
    /// one call evaluates the cell for all of them. The form is arity-free:
    /// the three pin slabs are always passed, and pins past the cell's
    /// [`CellKind::arity`] are ignored (callers pad them with any slab,
    /// conventionally the first input), so a compiled sweep program calls
    /// it without a per-cell input slice. The match on the cell kind happens
    /// once per call, outside the word loop, so each arm monomorphizes to
    /// `W` straight-line bitwise ops — at `W = 1` this computes exactly
    /// [`CellKind::eval_packed`].
    ///
    /// # Panics
    ///
    /// Panics if called on a sequential cell (use
    /// [`CellKind::next_state_packed_wide`]).
    #[must_use]
    #[inline]
    pub fn eval_packed_wide<const W: usize>(
        &self,
        a: &[u64; W],
        b: &[u64; W],
        c: &[u64; W],
    ) -> [u64; W] {
        use core::array::from_fn;
        match self {
            CellKind::Inv => from_fn(|i| !a[i]),
            CellKind::Buf => *a,
            CellKind::Nand2 => from_fn(|i| !(a[i] & b[i])),
            CellKind::Nor2 => from_fn(|i| !(a[i] | b[i])),
            CellKind::And2 => from_fn(|i| a[i] & b[i]),
            CellKind::Or2 => from_fn(|i| a[i] | b[i]),
            CellKind::Xor2 => from_fn(|i| a[i] ^ b[i]),
            CellKind::Xnor2 => from_fn(|i| !(a[i] ^ b[i])),
            CellKind::And3 => from_fn(|i| a[i] & b[i] & c[i]),
            CellKind::Or3 => from_fn(|i| a[i] | b[i] | c[i]),
            CellKind::Mux2 => from_fn(|i| (a[i] & !c[i]) | (b[i] & c[i])),
            CellKind::Maj3 => from_fn(|i| (a[i] & (b[i] | c[i])) | (b[i] & c[i])),
            CellKind::Dff | CellKind::DffE => {
                panic!("eval_packed_wide called on sequential cell {self:?}")
            }
        }
    }

    /// Next-state function of a sequential cell given its data inputs and the
    /// current state `q`.
    ///
    /// # Panics
    ///
    /// Panics if called on a combinational cell or with the wrong number of
    /// inputs.
    #[must_use]
    pub fn next_state(&self, inputs: &[bool], q: bool) -> bool {
        assert_eq!(inputs.len(), self.arity(), "arity mismatch for {self:?}");
        match self {
            CellKind::Dff => inputs[0],
            CellKind::DffE => {
                if inputs[1] {
                    inputs[0]
                } else {
                    q
                }
            }
            _ => panic!("next_state called on combinational cell {self:?}"),
        }
    }

    /// Word-parallel next-state function (see [`CellKind::eval_packed`] for
    /// the lane model): bit `l` of the result is the next state of lane `l`.
    ///
    /// # Panics
    ///
    /// Panics if called on a combinational cell or with the wrong number of
    /// inputs.
    #[must_use]
    pub fn next_state_packed(&self, inputs: &[u64], q: u64) -> u64 {
        assert_eq!(inputs.len(), self.arity(), "arity mismatch for {self:?}");
        match self {
            CellKind::Dff => inputs[0],
            CellKind::DffE => (inputs[0] & inputs[1]) | (q & !inputs[1]),
            _ => panic!("next_state_packed called on combinational cell {self:?}"),
        }
    }

    /// Width-generic word-parallel next-state function (see
    /// [`CellKind::eval_packed_wide`] for the slab model and the arity-free
    /// pin convention): `d` and `en` are the data and enable pins (`en` is
    /// ignored by [`CellKind::Dff`]), `q` the current state. Word `i`, bit
    /// `l` of the result is the next state of lane `64*i + l`.
    ///
    /// # Panics
    ///
    /// Panics if called on a combinational cell.
    #[must_use]
    #[inline]
    pub fn next_state_packed_wide<const W: usize>(
        &self,
        d: &[u64; W],
        en: &[u64; W],
        q: &[u64; W],
    ) -> [u64; W] {
        match self {
            CellKind::Dff => *d,
            CellKind::DffE => core::array::from_fn(|i| (d[i] & en[i]) | (q[i] & !en[i])),
            _ => panic!("next_state_packed_wide called on combinational cell {self:?}"),
        }
    }

    /// All cell kinds, for iterating cell libraries.
    #[must_use]
    pub fn all() -> &'static [CellKind] {
        &[
            CellKind::Inv,
            CellKind::Buf,
            CellKind::Nand2,
            CellKind::Nor2,
            CellKind::And2,
            CellKind::Or2,
            CellKind::Xor2,
            CellKind::Xnor2,
            CellKind::And3,
            CellKind::Or3,
            CellKind::Mux2,
            CellKind::Maj3,
            CellKind::Dff,
            CellKind::DffE,
        ]
    }

    /// Short lower-case name (the cell-library / Verilog name).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            CellKind::Inv => "inv",
            CellKind::Buf => "buf",
            CellKind::Nand2 => "nand2",
            CellKind::Nor2 => "nor2",
            CellKind::And2 => "and2",
            CellKind::Or2 => "or2",
            CellKind::Xor2 => "xor2",
            CellKind::Xnor2 => "xnor2",
            CellKind::And3 => "and3",
            CellKind::Or3 => "or3",
            CellKind::Mux2 => "mux2",
            CellKind::Maj3 => "maj3",
            CellKind::Dff => "dff",
            CellKind::DffE => "dffe",
        }
    }

    /// Whether the inputs of this cell are symmetric (order-insensitive).
    /// Used by structural hashing to canonicalize input order.
    #[must_use]
    pub fn is_commutative(&self) -> bool {
        matches!(
            self,
            CellKind::Nand2
                | CellKind::Nor2
                | CellKind::And2
                | CellKind::Or2
                | CellKind::Xor2
                | CellKind::Xnor2
                | CellKind::And3
                | CellKind::Or3
                | CellKind::Maj3
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_matches_eval_expectations() {
        for &k in CellKind::all() {
            if k.is_sequential() {
                continue;
            }
            let n = k.arity();
            // Exhaustive truth-table sanity: eval never panics over all input
            // combinations and is deterministic.
            for m in 0..(1u32 << n) {
                let inputs: Vec<bool> = (0..n).map(|i| (m >> i) & 1 == 1).collect();
                let a = k.eval(&inputs);
                let b = k.eval(&inputs);
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn basic_truth_tables() {
        assert!(CellKind::Nand2.eval(&[false, true]));
        assert!(!CellKind::Nand2.eval(&[true, true]));
        assert!(CellKind::Xor2.eval(&[true, false]));
        assert!(!CellKind::Xor2.eval(&[true, true]));
        assert!(CellKind::Maj3.eval(&[true, true, false]));
        assert!(!CellKind::Maj3.eval(&[true, false, false]));
        assert!(CellKind::Mux2.eval(&[false, true, true]));
        assert!(!CellKind::Mux2.eval(&[false, true, false]));
    }

    #[test]
    fn dff_next_state() {
        assert!(CellKind::Dff.next_state(&[true], false));
        assert!(!CellKind::Dff.next_state(&[false], true));
        assert!(CellKind::DffE.next_state(&[true, true], false));
        assert!(CellKind::DffE.next_state(&[false, false], true)); // holds
        assert!(!CellKind::DffE.next_state(&[false, true], true)); // loads
    }

    #[test]
    #[should_panic(expected = "sequential")]
    fn eval_on_dff_panics() {
        let _ = CellKind::Dff.eval(&[true]);
    }

    #[test]
    fn packed_eval_matches_scalar_on_every_lane() {
        // Fill each operand with a different bit pattern so every lane sees a
        // distinct input combination, then check all 64 lanes against the
        // scalar truth function.
        for &k in CellKind::all() {
            if k.is_sequential() {
                continue;
            }
            let n = k.arity();
            let words: Vec<u64> =
                (0..n).map(|i| 0xA5A5_5A5A_DEAD_BEEFu64.rotate_left(7 * i as u32 + 3)).collect();
            let packed = k.eval_packed(&words);
            for lane in 0..64 {
                let inputs: Vec<bool> = words.iter().map(|w| (w >> lane) & 1 == 1).collect();
                assert_eq!(
                    (packed >> lane) & 1 == 1,
                    k.eval(&inputs),
                    "{k:?} lane {lane} diverged from scalar eval"
                );
            }
        }
    }

    #[test]
    fn packed_next_state_matches_scalar_on_every_lane() {
        let d = 0x0123_4567_89AB_CDEFu64;
        let en = 0xF0F0_0F0F_3C3C_C3C3u64;
        let q = 0xFFFF_0000_FF00_00FFu64;
        for lane in 0..64 {
            let bit = |w: u64| (w >> lane) & 1 == 1;
            assert_eq!(
                bit(CellKind::Dff.next_state_packed(&[d], q)),
                CellKind::Dff.next_state(&[bit(d)], bit(q))
            );
            assert_eq!(
                bit(CellKind::DffE.next_state_packed(&[d, en], q)),
                CellKind::DffE.next_state(&[bit(d), bit(en)], bit(q))
            );
        }
    }

    #[test]
    #[should_panic(expected = "combinational")]
    fn packed_next_state_on_gate_panics() {
        let _ = CellKind::And2.next_state_packed(&[0, 0], 0);
    }

    fn wide_eval_matches_word_at_a_time<const W: usize>() {
        for &k in CellKind::all() {
            if k.is_sequential() {
                continue;
            }
            let n = k.arity();
            let slabs: Vec<[u64; W]> = (0..n)
                .map(|i| {
                    core::array::from_fn(|w| {
                        0xA5A5_5A5A_DEAD_BEEFu64.rotate_left((7 * i + 13 * w + 3) as u32)
                    })
                })
                .collect();
            let pin = |j: usize| slabs.get(j).unwrap_or(&slabs[0]);
            let wide = k.eval_packed_wide::<W>(pin(0), pin(1), pin(2));
            for w in 0..W {
                let words: Vec<u64> = slabs.iter().map(|s| s[w]).collect();
                assert_eq!(wide[w], k.eval_packed(&words), "{k:?} word {w} diverged at W={W}");
            }
        }
    }

    #[test]
    fn wide_eval_matches_narrow_eval_per_word() {
        wide_eval_matches_word_at_a_time::<1>();
        wide_eval_matches_word_at_a_time::<2>();
        wide_eval_matches_word_at_a_time::<4>();
        wide_eval_matches_word_at_a_time::<8>();
    }

    #[test]
    fn wide_next_state_matches_narrow_per_word() {
        let d: [u64; 4] = core::array::from_fn(|w| 0x0123_4567_89AB_CDEFu64.rotate_left(w as u32));
        let en: [u64; 4] =
            core::array::from_fn(|w| 0xF0F0_0F0F_3C3C_C3C3u64.rotate_right(w as u32));
        let q: [u64; 4] =
            core::array::from_fn(|w| 0xFFFF_0000_FF00_00FFu64.rotate_left(2 * w as u32));
        let dff = CellKind::Dff.next_state_packed_wide::<4>(&d, &d, &q);
        let dffe = CellKind::DffE.next_state_packed_wide::<4>(&d, &en, &q);
        for w in 0..4 {
            assert_eq!(dff[w], CellKind::Dff.next_state_packed(&[d[w]], q[w]));
            assert_eq!(dffe[w], CellKind::DffE.next_state_packed(&[d[w], en[w]], q[w]));
        }
    }

    #[test]
    #[should_panic(expected = "combinational")]
    fn wide_next_state_on_gate_panics() {
        let _ = CellKind::And2.next_state_packed_wide::<2>(&[0; 2], &[0; 2], &[0; 2]);
    }

    #[test]
    #[should_panic(expected = "sequential")]
    fn wide_eval_on_dff_panics() {
        let _ = CellKind::Dff.eval_packed_wide::<2>(&[0; 2], &[0; 2], &[0; 2]);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = CellKind::all().iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CellKind::all().len());
    }

    #[test]
    fn commutativity_consistent_with_truth_table() {
        // For every cell marked commutative, swapping any two inputs must not
        // change the output.
        for &k in CellKind::all() {
            if k.is_sequential() || !k.is_commutative() {
                continue;
            }
            let n = k.arity();
            for m in 0..(1u32 << n) {
                let inputs: Vec<bool> = (0..n).map(|i| (m >> i) & 1 == 1).collect();
                let base = k.eval(&inputs);
                for i in 0..n {
                    for j in (i + 1)..n {
                        let mut sw = inputs.clone();
                        sw.swap(i, j);
                        assert_eq!(base, k.eval(&sw), "{k:?} not symmetric in ({i},{j})");
                    }
                }
            }
        }
    }
}
