//! The one stop condition every engine of the suite consults: a wall-clock
//! [`Deadline`] with a shared cooperative [`CancelFlag`].

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared cooperative cancellation token.
///
/// A portfolio race hands one flag to every member's [`Deadline`]
/// ([`Deadline::with_cancel`]); raising it (`store(true,
/// Ordering::Relaxed)`) makes every holder of those deadlines stop at its
/// next check. Relaxed ordering suffices because the flag only gates
/// wall-clock work, never data visibility.
pub type CancelFlag = Arc<AtomicBool>;

/// How many [`Deadline::expired`] calls share one `Instant::now` read.
pub const CLOCK_CHECK_INTERVAL: u32 = 64;

/// An absolute wall-clock deadline plus the instant the run started, plus
/// a shared cooperative [`CancelFlag`].
///
/// This is the only thing any engine consults to decide when to stop: the
/// SAT solver ([`SolverConfig::deadline`](crate::SolverConfig::deadline)),
/// the QBF CEGAR loop (`QbfConfig::deadline` in `kratt-qbf`), KRATT's
/// structural analysis, the FRAIG sweep and every attack loop each hold a
/// clone of the one deadline their request started. Clones share the
/// cancellation flag and the expiry latch, so a run stops at the *run's*
/// deadline — or the instant a portfolio sibling wins the race — rather
/// than restarting a fresh per-call timer.
///
/// [`Deadline::expired`] sits on hot loops (the SAT solver's conflict
/// loop, the DIP loop, FALL's per-node scan, the structural search's
/// candidate loop), so it reads the clock only every
/// [`CLOCK_CHECK_INTERVAL`] calls and latches the first expiry it sees;
/// between clock reads it costs two relaxed atomic loads and one relaxed
/// increment. The very first call always reads the clock, so an
/// already-spent budget is still reported immediately. Loops that check
/// more often than that — the solver's decisions — poll
/// [`Deadline::is_cancelled`] alone, one relaxed load.
#[derive(Debug, Clone)]
pub struct Deadline {
    start: Instant,
    end: Option<Instant>,
    cancel: CancelFlag,
    gate: Arc<ExpiryGate>,
}

/// Shared expiry state: once the clock has been observed past the end
/// instant the latch stays set, so clones agree and later calls skip the
/// syscall entirely.
#[derive(Debug, Default)]
struct ExpiryGate {
    latched: AtomicBool,
    calls: AtomicU32,
}

impl Deadline {
    /// A deadline `limit` from now (`None` = unlimited).
    pub fn started(limit: Option<Duration>) -> Self {
        let start = Instant::now();
        Deadline {
            start,
            end: limit.map(|l| start + l),
            cancel: CancelFlag::default(),
            gate: Arc::new(ExpiryGate::default()),
        }
    }

    /// A deadline that never expires (unless cancelled).
    pub fn unlimited() -> Self {
        Deadline::started(None)
    }

    /// Replaces the cancellation flag with an externally shared one (the
    /// portfolio hands every member the same race flag this way).
    pub fn with_cancel(mut self, cancel: CancelFlag) -> Self {
        self.cancel = cancel;
        self
    }

    /// Whether the deadline has passed or the run was cancelled.
    pub fn expired(&self) -> bool {
        if self.is_cancelled() || self.gate.latched.load(Ordering::Relaxed) {
            return true;
        }
        let Some(end) = self.end else {
            return false;
        };
        // `fetch_add` returns the pre-increment value, so call 0 — the
        // entry check every engine performs — always reads the clock.
        let calls = self.gate.calls.fetch_add(1, Ordering::Relaxed);
        if !calls.is_multiple_of(CLOCK_CHECK_INTERVAL) {
            return false;
        }
        if Instant::now() >= end {
            self.gate.latched.store(true, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Raises the cancellation flag: every holder of this deadline (or of
    /// a deadline sharing its flag) observes `expired() == true` from its
    /// next check onwards.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// Whether the cancellation flag has been raised.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    /// Wall-clock time since the deadline was started.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// The absolute expiry instant; `None` means unlimited.
    pub fn instant(&self) -> Option<Instant> {
        self.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_deadline_never_expires() {
        let deadline = Deadline::unlimited();
        assert!(!deadline.expired());
        assert!(deadline.instant().is_none());
    }

    #[test]
    fn cancellation_makes_a_deadline_expire() {
        let flag = CancelFlag::default();
        let deadline = Deadline::unlimited().with_cancel(flag.clone());
        assert!(!deadline.expired());
        let clone = deadline.clone();
        deadline.cancel();
        assert!(clone.expired());
        assert!(clone.is_cancelled());
        // The flag propagates into deadlines built around the same token.
        let other = Deadline::unlimited().with_cancel(flag);
        assert!(other.expired());
    }

    #[test]
    fn expiry_latches_and_interval_gates_the_clock() {
        // Already expired at call 0: the entry check latches, so every
        // later call — including the clock-gated ones — stays true.
        let deadline = Deadline::started(Some(Duration::ZERO));
        for _ in 0..(CLOCK_CHECK_INTERVAL * 2) {
            assert!(deadline.expired());
        }
        // A live deadline stays false through the gated calls.
        let live = Deadline::started(Some(Duration::from_secs(3600)));
        for _ in 0..(CLOCK_CHECK_INTERVAL * 2) {
            assert!(!live.expired());
        }
    }
}
