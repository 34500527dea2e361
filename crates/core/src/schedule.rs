//! Hierarchical idle-skip schedule over the NIC array.
//!
//! The simulator keeps, per NIC, the next cycle its endpoint/injection
//! ticks must execute (`u64::MAX` = fully inert). The original flat
//! `Vec<u64>` scan made every cycle cost O(num_nics) even on a quiescent
//! machine — the exact idle-structure tax the scale ladder measures. This
//! structure pairs the deadline array with a two-level occupancy bitmap
//! (one bit per *scheduled* NIC, a summary word per 64 bitmap words, the
//! same shape as the router wake set in `mdd-router`), so per-cycle walks
//! touch only NICs that have any future event at all.
//!
//! Exactness: a NIC without its bit set has deadline `u64::MAX`, which the
//! dense scan would also skip at every cycle, and bitmap iteration yields
//! ascending NIC order — the dense scan's order — so tick and injection
//! sequences are bit-identical to the flat scan.

/// Per-NIC next-due-cycle schedule with a two-level occupancy bitmap.
pub(crate) struct NicSchedule {
    /// Next cycle NIC `i` must tick; `u64::MAX` marks a fully inert NIC.
    next: Vec<u64>,
    /// Bit `i` set ⟺ `next[i] != u64::MAX`.
    bits: Vec<u64>,
    /// Bit `w` of word `s` set ⟺ `bits[s * 64 + w] != 0`.
    summary: Vec<u64>,
}

impl NicSchedule {
    /// A schedule over `n` NICs, all due at cycle 0 (everything awake —
    /// the state the dense scan starts from).
    pub fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        let mut bits = vec![u64::MAX; words];
        if !n.is_multiple_of(64) {
            bits[words - 1] = (1u64 << (n % 64)) - 1;
        }
        let mut summary = vec![0u64; words.div_ceil(64).max(1)];
        for (w, &word) in bits.iter().enumerate() {
            if word != 0 {
                summary[w / 64] |= 1 << (w % 64);
            }
        }
        NicSchedule {
            next: vec![0; n],
            bits,
            summary,
        }
    }

    /// NICs covered by the schedule.
    pub fn len(&self) -> usize {
        self.next.len()
    }

    /// Set NIC `i`'s next due cycle, maintaining the bitmap.
    #[inline]
    pub fn set(&mut self, i: usize, cycle: u64) {
        self.next[i] = cycle;
        let w = i / 64;
        if cycle == u64::MAX {
            self.bits[w] &= !(1 << (i % 64));
            if self.bits[w] == 0 {
                self.summary[w / 64] &= !(1 << (w % 64));
            }
        } else {
            self.bits[w] |= 1 << (i % 64);
            self.summary[w / 64] |= 1 << (w % 64);
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
        for (w, &word) in self.bits.iter().enumerate() {
            if word != 0 {
                self.summary[w / 64] |= 1 << (w % 64);
            }
        }
    }

    /// Collect every NIC due at or before `cycle`, ascending, into `out`
    /// (cleared first). O(scheduled NICs), not O(all NICs).
    pub fn due_into(&self, cycle: u64, out: &mut Vec<u32>) {
        out.clear();
        for (s, &sw) in self.summary.iter().enumerate() {
            let mut sw = sw;
            while sw != 0 {
                let w = s * 64 + sw.trailing_zeros() as usize;
                sw &= sw - 1;
                let mut word = self.bits[w];
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

    /// Minimum due cycle over all scheduled NICs (`u64::MAX` when every
    /// NIC is inert). Unscheduled entries are `u64::MAX` and cannot be the
    /// minimum, so walking only set bits is exact.
    pub fn min_next(&self) -> u64 {
        let mut min = u64::MAX;
        for (s, &sw) in self.summary.iter().enumerate() {
            let mut sw = sw;
            while sw != 0 {
                let w = s * 64 + sw.trailing_zeros() as usize;
                sw &= sw - 1;
                let mut word = self.bits[w];
                while word != 0 {
                    let i = w * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    min = min.min(self.next[i]);
                }
            }
        }
        min
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
        assert_eq!(due.len(), 130);
        assert_eq!(due, (0..130).collect::<Vec<_>>());
        assert_eq!(s.min_next(), 0);
    }

    #[test]
    fn set_and_clear_track_the_flat_array() {
        let n = 200;
        let mut s = NicSchedule::new(n);
        for i in 0..n {
            s.set(i, u64::MAX);
        }
        assert_eq!(s.min_next(), u64::MAX);
        s.set(137, 42);
        s.set(3, 7);
        s.set(199, 42);
        let mut due = Vec::new();
        s.due_into(42, &mut due);
        assert_eq!(due, vec![3, 137, 199]);
        s.due_into(41, &mut due);
        assert_eq!(due, vec![3]);
        assert_eq!(s.min_next(), 7);
        s.set(3, u64::MAX);
        assert_eq!(s.min_next(), 42);
    }

    #[test]
    fn wake_all_restores_full_occupancy() {
        let mut s = NicSchedule::new(70);
        for i in 0..70 {
            s.set(i, u64::MAX);
        }
        s.wake_all(9);
        let mut due = Vec::new();
        s.due_into(9, &mut due);
        assert_eq!(due.len(), 70);
        assert_eq!(s.min_next(), 9);
    }
}
