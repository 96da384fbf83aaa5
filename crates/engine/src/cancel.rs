//! Cooperative cancellation and wall-clock deadlines.
//!
//! A [`CancelToken`] is a cheap shared flag checked at natural preemption
//! points — round boundaries in the WavePipe driver, step boundaries in the
//! serial loop, and every Newton iteration — so a runaway solve stops within
//! one iteration of the budget expiring instead of running to `tstop`. The
//! token is *cooperative*: nothing is interrupted mid-factorization, which
//! keeps every accepted point bit-identical to an unbudgeted run.
//!
//! The deadline is armed by the analysis entry point (after the DC operating
//! point, so even a zero budget yields the `t = 0` solution) rather than at
//! token construction: an options struct can be built long before the run it
//! configures starts.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[derive(Debug, Default)]
struct Inner {
    cancelled: AtomicBool,
    /// Armed deadline instant, if a wall-clock budget is active.
    deadline: Mutex<Option<Instant>>,
    /// The token this one was made from by [`CancelToken::child`], whose
    /// cancellation this one also reads.
    parent: Option<CancelToken>,
}

/// Shared, clonable cancellation handle.
///
/// All clones observe the same state; `clone` is an `Arc` bump. Equality is
/// identity (two tokens are equal iff they share state), mirroring
/// [`wavepipe_telemetry::ProbeHandle`].
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// Creates a fresh, un-cancelled token with no deadline armed.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A fresh token with its own deadline that also reads as cancelled
    /// once this one is. Cancelling the child leaves this token alone, so
    /// each of several runs can spend a private budget while one caller's
    /// [`CancelToken::cancel`] still stops them all.
    pub fn child(&self) -> Self {
        let inner = Inner { parent: Some(self.clone()), ..Inner::default() };
        CancelToken { inner: Arc::new(inner) }
    }

    /// Requests cancellation. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// True once [`CancelToken::cancel`] has been called on any clone, or
    /// on the token this one is a [`CancelToken::child`] of.
    pub(crate) fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire)
            || self.inner.parent.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// Arms (or re-arms) a wall-clock deadline `budget` from now. Called by
    /// the analysis entry points; re-armable so one token can budget several
    /// consecutive runs.
    pub(crate) fn arm_deadline(&self, budget: Duration) {
        let at = Instant::now().checked_add(budget);
        *self.inner.deadline.lock().expect("cancel token lock") = at;
    }

    /// True when a deadline is armed and has passed.
    pub(crate) fn deadline_expired(&self) -> bool {
        match *self.inner.deadline.lock().expect("cancel token lock") {
            Some(at) => Instant::now() >= at,
            None => false,
        }
    }
}

impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_inert() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert!(!t.deadline_expired());
    }

    #[test]
    fn cancel_is_visible_to_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        t.cancel();
        assert!(c.is_cancelled());
    }

    #[test]
    fn a_child_reads_its_parent_s_cancel_but_keeps_its_own_deadline() {
        let parent = CancelToken::new();
        let (a, b) = (parent.child(), parent.child());
        a.arm_deadline(Duration::ZERO);
        assert!(a.deadline_expired() && !b.deadline_expired() && !parent.deadline_expired());
        a.cancel();
        assert!(!parent.is_cancelled() && !b.is_cancelled());
        parent.cancel();
        assert!(b.is_cancelled());
    }

    #[test]
    fn zero_deadline_expires_immediately() {
        let t = CancelToken::new();
        t.arm_deadline(Duration::ZERO);
        assert!(t.deadline_expired());
        // Re-arming replaces the expired deadline.
        t.arm_deadline(Duration::from_secs(3600));
        assert!(!t.deadline_expired());
    }

    #[test]
    fn long_deadline_does_not_expire() {
        let t = CancelToken::new();
        t.arm_deadline(Duration::from_secs(3600));
        assert!(!t.deadline_expired());
    }

    #[test]
    fn equality_is_identity() {
        let a = CancelToken::new();
        let b = CancelToken::new();
        assert_ne!(a, b);
        assert_eq!(a, a.clone());
    }
}
