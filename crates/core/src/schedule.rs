//! Idle-skip schedule over the NIC array.
//!
//! The simulator keeps, per NIC, the next cycle its endpoint/injection
//! ticks must execute (`u64::MAX` = fully inert). The original flat
//! `Vec<u64>` scan made every cycle compare every deadline even on a
//! quiescent machine. This structure pairs the deadline array with an
//! occupancy bitmap (one bit per *scheduled* NIC, the same shape as the
//! router wake set in `mdd-router`), so per-cycle walks read one word per
//! 64 NICs and compare only the deadlines of NICs that have any future
//! event at all.
//!
//! Exactness: a NIC without its bit set has deadline `u64::MAX`, which the
//! dense scan would also skip at every cycle, and bitmap iteration yields
//! ascending NIC order — the dense scan's order — so tick and injection
//! sequences are bit-identical to the flat scan.

/// Per-NIC next-due-cycle schedule with an occupancy bitmap.
pub(crate) struct NicSchedule {
    /// Next cycle NIC `i` must tick; `u64::MAX` marks a fully inert NIC.
    next: Vec<u64>,
    /// Bit `i` set ⟺ `next[i] != u64::MAX`.
    bits: Vec<u64>,
}

impl NicSchedule {
    /// A schedule over `n` NICs, all due at cycle 0 (everything awake —
    /// the state the dense scan starts from).
    pub fn new(n: usize) -> Self {
        let mut s = NicSchedule {
            next: vec![0; n],
            bits: vec![0; n.div_ceil(64)],
        };
        s.wake_all(0);
        s
    }

    /// NICs covered by the schedule.
    pub fn len(&self) -> usize {
        self.next.len()
    }

    /// Set NIC `i`'s next due cycle, maintaining the bitmap.
    #[inline]
    pub fn set(&mut self, i: usize, cycle: u64) {
        self.next[i] = cycle;
        if cycle == u64::MAX {
            self.bits[i / 64] &= !(1 << (i % 64));
        } else {
            self.bits[i / 64] |= 1 << (i % 64);
        }
    }

    /// Make every NIC due at `cycle` (a PR rescue episode may have mutated
    /// any NIC, so the whole array wakes).
    pub fn wake_all(&mut self, cycle: u64) {
        let n = self.len();
        self.next.fill(cycle);
        self.bits.fill(u64::MAX);
        if !n.is_multiple_of(64) {
            let w = self.bits.len() - 1;
            self.bits[w] = (1u64 << (n % 64)) - 1;
        }
    }

    /// Collect every NIC due at or before `cycle`, ascending, into `out`
    /// (cleared first). Compares only scheduled NICs' deadlines.
    pub fn due_into(&self, cycle: u64, out: &mut Vec<u32>) {
        out.clear();
        for (w, &word) in self.bits.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                let i = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                if self.next[i] <= cycle {
                    out.push(i as u32);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::NicSchedule;

    #[test]
    fn starts_all_due() {
        let s = NicSchedule::new(130);
        let mut due = Vec::new();
        s.due_into(0, &mut due);
        assert_eq!(due, (0..130).collect::<Vec<_>>());
    }

    #[test]
    fn set_and_clear_track_the_flat_array() {
        let n = 200;
        let mut s = NicSchedule::new(n);
        for i in 0..n {
            s.set(i, u64::MAX);
        }
        let mut due = Vec::new();
        s.due_into(u64::MAX - 1, &mut due);
        assert!(due.is_empty(), "inert NICs are never due");
        s.set(137, 42);
        s.set(3, 7);
        s.set(199, 42);
        s.due_into(6, &mut due);
        assert!(due.is_empty());
        s.due_into(7, &mut due);
        assert_eq!(due, vec![3]);
        s.due_into(42, &mut due);
        assert_eq!(due, vec![3, 137, 199]);
        s.set(3, u64::MAX);
        s.due_into(u64::MAX - 1, &mut due);
        assert_eq!(due, vec![137, 199]);
    }

    #[test]
    fn wake_all_restores_full_occupancy() {
        let mut s = NicSchedule::new(70);
        for i in 0..70 {
            s.set(i, u64::MAX);
        }
        s.wake_all(9);
        let mut due = Vec::new();
        s.due_into(8, &mut due);
        assert!(due.is_empty(), "woken NICs are due at 9, not before");
        s.due_into(9, &mut due);
        assert_eq!(due, (0..70).collect::<Vec<_>>());
    }
}
