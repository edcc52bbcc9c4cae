//! Cooperative cancellation: the [`CancelToken`] of the current
//! [`QueryCtx`](crate::QueryCtx), which the evaluation kernels poll at
//! chunk boundaries.
//!
//! The query service needs two things a synchronous evaluator does not
//! give for free: per-query **deadlines** and cross-connection
//! **CANCEL**. Both reduce to the same mechanism — a shared flag the
//! kernels check between units of work and bail out on. The design
//! constraints, in order:
//!
//! * **One code path.** The fuzz oracle, the bench suite, and the server
//!   must all exercise the *same* kernel loops. So cancellation is not a
//!   wrapper or a cloned "cancellable" kernel: the token rides in the
//!   query's context ([`QueryCtx::cancel`](crate::QueryCtx::cancel)) and
//!   the checkpoints ([`cancelled`]) live inside the one
//!   sweep/semijoin/enumerate implementation. With no token installed a
//!   checkpoint is a thread-local read and a branch — unobservable next
//!   to the work it guards.
//! * **Chunk granularity.** Checkpoints sit between axis sweeps,
//!   semijoin passes, fixpoint rounds, pool chunks, and every few
//!   hundred enumerated tuples — never inside the innermost node loops.
//!   A cancelled query therefore stops within one chunk, not one node,
//!   which is the latency the server promises (and tests).
//! * **Early return, not unwinding.** A cancelled kernel returns its
//!   partial result normally; the executor's final checkpoint discards
//!   it and surfaces `Cancelled`. No panics, no poisoned locks, no
//!   half-recycled scratch pools.
//!
//! Deadlines piggyback on the same token: [`CancelToken::with_deadline`]
//! stores an expiry instant, and the checkpoint latches the flag the
//! first time it observes the clock past it. Clock reads are throttled
//! (one `Instant::now` every [`DEADLINE_STRIDE`] checkpoints) so tight
//! enumeration loops do not pay a timer call per tuple.

use std::cell::Cell;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a query stopped early.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CancelReason {
    /// Somebody called [`CancelToken::cancel`] (e.g. a CANCEL verb from
    /// another connection, or a client disconnect).
    Cancelled,
    /// The query's deadline passed.
    DeadlineExceeded,
}

impl std::fmt::Display for CancelReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CancelReason::Cancelled => "cancelled",
            CancelReason::DeadlineExceeded => "deadline exceeded",
        })
    }
}

const FLAG_LIVE: u8 = 0;
const FLAG_CANCELLED: u8 = 1;
const FLAG_DEADLINE: u8 = 2;

#[derive(Debug)]
struct CancelState {
    /// 0 = live, 1 = explicitly cancelled, 2 = deadline latched.
    flag: AtomicU8,
    /// Expiry; checked lazily by [`CancelToken::check`] and latched into
    /// `flag` so late observers agree on the reason.
    deadline: Option<Instant>,
}

/// A shared cancellation flag plus optional deadline. Clone it freely —
/// all clones observe the same state.
#[derive(Clone, Debug)]
pub struct CancelToken(Arc<CancelState>);

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

impl CancelToken {
    /// A token with no deadline; cancels only via [`CancelToken::cancel`].
    pub fn new() -> CancelToken {
        CancelToken(Arc::new(CancelState {
            flag: AtomicU8::new(FLAG_LIVE),
            deadline: None,
        }))
    }

    /// A token that additionally trips once `budget` has elapsed.
    pub fn with_deadline(budget: Duration) -> CancelToken {
        CancelToken::with_deadline_at(Instant::now() + budget)
    }

    /// A token that trips once the clock passes `at`.
    pub fn with_deadline_at(at: Instant) -> CancelToken {
        CancelToken(Arc::new(CancelState {
            flag: AtomicU8::new(FLAG_LIVE),
            deadline: Some(at),
        }))
    }

    /// Trips the token. Idempotent; an explicit cancel wins over a
    /// concurrent deadline latch only in the sense that whichever lands
    /// first is the reported reason.
    pub fn cancel(&self) {
        let _ = self.0.flag.compare_exchange(
            FLAG_LIVE,
            FLAG_CANCELLED,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// The full checkpoint: consults the flag *and* the deadline clock,
    /// latching a passed deadline. Returns the reason if tripped.
    pub fn check(&self) -> Option<CancelReason> {
        match self.0.flag.load(Ordering::Relaxed) {
            FLAG_CANCELLED => return Some(CancelReason::Cancelled),
            FLAG_DEADLINE => return Some(CancelReason::DeadlineExceeded),
            _ => {}
        }
        if let Some(at) = self.0.deadline {
            if Instant::now() >= at {
                let _ = self.0.flag.compare_exchange(
                    FLAG_LIVE,
                    FLAG_DEADLINE,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                );
                return self.reason();
            }
        }
        None
    }

    /// The flag-only view: does not read the clock, so a deadline that
    /// passed but was never observed by [`CancelToken::check`] reports
    /// `None` here.
    pub fn reason(&self) -> Option<CancelReason> {
        match self.0.flag.load(Ordering::Relaxed) {
            FLAG_CANCELLED => Some(CancelReason::Cancelled),
            FLAG_DEADLINE => Some(CancelReason::DeadlineExceeded),
            _ => None,
        }
    }

    /// Whether the token has tripped (flag only; see
    /// [`CancelToken::reason`]).
    pub fn is_cancelled(&self) -> bool {
        self.0.flag.load(Ordering::Relaxed) != FLAG_LIVE
    }
}

/// One clock read per this many [`cancelled`] checkpoints when the
/// installed token carries a deadline. At kernel checkpoint rates
/// (hundreds of ns to µs apart) this bounds deadline overshoot well
/// under a millisecond while keeping `Instant::now` off the per-tuple
/// path.
pub const DEADLINE_STRIDE: u32 = 32;

thread_local! {
    static STRIDE: Cell<u32> = const { Cell::new(0) };
}

/// The kernel checkpoint: true iff the current context carries a token
/// that has tripped. With no token this is one thread-local read.
/// Deadline clock reads are throttled to every [`DEADLINE_STRIDE`]th
/// call.
pub fn cancelled() -> bool {
    crate::ctx::with_current(|c| {
        let Some(token) = c.cancel.as_ref() else {
            return false;
        };
        if token.0.flag.load(Ordering::Relaxed) != FLAG_LIVE {
            return true;
        }
        if token.0.deadline.is_some() {
            let n = STRIDE.with(|s| {
                let n = s.get().wrapping_add(1);
                s.set(n);
                n
            });
            if n.is_multiple_of(DEADLINE_STRIDE) {
                return token.check().is_some();
            }
        }
        false
    })
}

/// The reason the current context's token tripped, if it did. Unlike
/// [`cancelled`], always consults the deadline clock — callers use this
/// at query entry/exit where one timer read is fine.
pub fn active_reason() -> Option<CancelReason> {
    crate::ctx::with_current(|c| c.cancel.as_ref().and_then(CancelToken::check))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_live() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.check(), None);
        assert_eq!(t.reason(), None);
    }

    #[test]
    fn cancel_trips_all_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        t.cancel();
        assert_eq!(c.check(), Some(CancelReason::Cancelled));
        assert_eq!(c.reason(), Some(CancelReason::Cancelled));
    }

    #[test]
    fn deadline_latches_with_its_own_reason() {
        let t = CancelToken::with_deadline(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(2));
        // reason() alone does not read the clock ...
        assert_eq!(t.reason(), None);
        // ... check() does, and latches.
        assert_eq!(t.check(), Some(CancelReason::DeadlineExceeded));
        assert_eq!(t.reason(), Some(CancelReason::DeadlineExceeded));
    }

    #[test]
    fn explicit_cancel_beats_a_later_deadline_observation() {
        let t = CancelToken::with_deadline(Duration::from_millis(0));
        t.cancel();
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(t.check(), Some(CancelReason::Cancelled));
    }

    fn with_token<R>(token: &CancelToken, f: impl FnOnce() -> R) -> R {
        crate::QueryCtx {
            cancel: Some(token.clone()),
            ..crate::QueryCtx::current()
        }
        .enter(f)
    }

    #[test]
    fn ambient_install_and_restore() {
        assert!(!cancelled());
        let t = CancelToken::new();
        with_token(&t, || {
            assert!(!cancelled());
            t.cancel();
            assert!(cancelled());
            assert_eq!(active_reason(), Some(CancelReason::Cancelled));
            // Nested install shadows, then restores.
            let inner = CancelToken::new();
            with_token(&inner, || {
                assert!(!cancelled());
            });
            assert!(cancelled());
        });
        assert!(!cancelled());
        assert_eq!(active_reason(), None);
    }

    #[test]
    fn ambient_deadline_trips_within_the_stride() {
        let t = CancelToken::with_deadline(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(2));
        with_token(&t, || {
            // The throttle means up to DEADLINE_STRIDE calls may pass
            // before the clock is consulted; never more.
            let tripped = (0..=DEADLINE_STRIDE).any(|_| cancelled());
            assert!(tripped);
        });
    }

    #[test]
    fn restore_survives_a_panic() {
        let t = CancelToken::new();
        t.cancel();
        let r = std::panic::catch_unwind(|| {
            with_token(&t, || panic!("boom"));
        });
        assert!(r.is_err());
        assert!(!cancelled());
    }
}
