//! The circulating token of Extended Disha Sequential.

use mdd_topology::{RecoveryRing, TourStop};

/// Token status.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TokenState {
    /// Touring router and NIC stops, available for capture.
    Circulating,
    /// Captured by a rescue episode; circulation is suspended.
    Captured,
    /// Lost in transit (fault injection); a watchdog regenerates it after
    /// a time-out. The paper flags the token as a single point of failure
    /// requiring "a reliable token management mechanism" — this models
    /// the standard timeout-regeneration scheme.
    Lost,
}

/// The token: a single control capability touring all routers and network
/// interfaces. Whichever stop holds it when a potential deadlock is flagged
/// may capture it; it is released for re-circulation at the capturing
/// stop's position once the rescue episode completes.
#[derive(Debug)]
pub struct CirculatingToken {
    tour_len: usize,
    pos: usize,
    hop_cycles: u64,
    next_move: u64,
    state: TokenState,
    lost_at: u64,
    regen_timeout: u64,
    /// Completed circulations (for diagnostics).
    pub laps: u64,
    /// Times the token was captured.
    pub captures: u64,
    /// Times the watchdog regenerated a lost token.
    pub regenerations: u64,
}

impl CirculatingToken {
    /// A token touring `ring` (routers interleaved with their NICs),
    /// advancing one stop every `hop_cycles` cycles.
    pub fn new(ring: &RecoveryRing, hop_cycles: u64) -> Self {
        assert!(hop_cycles >= 1);
        let tour_len = ring.tour_len();
        CirculatingToken {
            tour_len,
            pos: 0,
            hop_cycles,
            next_move: 0,
            state: TokenState::Circulating,
            lost_at: 0,
            // Watchdog: two silent circulations' worth of cycles.
            regen_timeout: 2 * tour_len as u64 * hop_cycles,
            laps: 0,
            captures: 0,
            regenerations: 0,
        }
    }

    /// Override the watchdog regeneration time-out (builder style).
    pub fn with_regen_timeout(mut self, cycles: u64) -> Self {
        self.regen_timeout = cycles.max(1);
        self
    }

    /// Fault injection: the token's control packet is lost in transit.
    /// Only a circulating token can be lost — during a rescue episode it
    /// travels with the rescued message under the lane's stronger
    /// delivery guarantees.
    pub fn drop_token(&mut self, now: u64) {
        assert_eq!(
            self.state,
            TokenState::Circulating,
            "only a circulating token can be dropped"
        );
        self.state = TokenState::Lost;
        self.lost_at = now;
    }

    /// Current state.
    pub fn state(&self) -> TokenState {
        self.state
    }

    /// The stop currently holding the token.
    pub fn current_stop(&self, ring: &RecoveryRing) -> TourStop {
        ring.tour_stop(self.pos)
    }

    /// Advance the tour if due. Returns the stop the token lands on when it
    /// moves (capture eligibility should be checked then); `None` if the
    /// token did not move this cycle or is captured.
    pub fn advance(&mut self, ring: &RecoveryRing, now: u64) -> Option<TourStop> {
        if self.state == TokenState::Lost {
            if now.saturating_sub(self.lost_at) >= self.regen_timeout {
                // Watchdog fires: regenerate at the last known position.
                self.state = TokenState::Circulating;
                self.regenerations += 1;
                self.next_move = now;
            } else {
                return None;
            }
        }
        if self.state != TokenState::Circulating || now < self.next_move {
            return None;
        }
        self.pos = (self.pos + 1) % self.tour_len;
        if self.pos == 0 {
            self.laps += 1;
        }
        self.next_move = now + self.hop_cycles;
        Some(ring.tour_stop(self.pos))
    }

    /// Capture the token at its current stop.
    pub fn capture(&mut self) {
        debug_assert_eq!(self.state, TokenState::Circulating);
        self.state = TokenState::Captured;
        self.captures += 1;
    }

    /// Release the token for re-circulation; it resumes from the capturing
    /// stop at cycle `now` (the paper: "if the token is captured by a
    /// network interface, it is released for re-circulation by the same
    /// network interface").
    pub fn release(&mut self, now: u64) {
        debug_assert_eq!(self.state, TokenState::Captured);
        self.state = TokenState::Circulating;
        self.next_move = now + self.hop_cycles;
    }
}
