//! Cooperative cancellation for running campaigns.
//!
//! A [`CancelToken`] is a cloneable flag shared between whoever owns a
//! running [`Campaign`](crate::Campaign) (a serve daemon, an embedding
//! UI, a signal handler) and the execution machinery. Cancellation is
//! **cooperative**: the lease executor checks the token between cells,
//! never mid-cell, so every cell that started finishes and lands in
//! the shared [`ResultCache`](crate::ResultCache). A cancelled run
//! fails with [`EngineError::Cancelled`](crate::EngineError) — and
//! because completed cells are cached, re-submitting the same spec
//! over the same cache resumes where the cancelled run stopped.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A cloneable cancellation flag checked cooperatively between cells.
///
/// All clones share one flag: [`cancel`](CancelToken::cancel) on any
/// clone is observed by every other. The flag is sticky — there is no
/// un-cancel. Checking is a single relaxed atomic load, cheap enough
/// for per-cell polling.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Has cancellation been requested (on any clone)?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_one_flag() {
        let t = CancelToken::new();
        let c = t.clone();
        assert!(!t.is_cancelled() && !c.is_cancelled());
        c.cancel();
        assert!(t.is_cancelled() && c.is_cancelled());
        c.cancel(); // idempotent
        assert!(t.is_cancelled());
    }

    #[test]
    fn independent_tokens_do_not_interfere() {
        let a = CancelToken::new();
        let b = CancelToken::new();
        a.cancel();
        assert!(a.is_cancelled());
        assert!(!b.is_cancelled());
    }
}
