//! Event subscription: the one seam through which campaign progress
//! flows.
//!
//! Every execution backend reports work as a stream of
//! [`CampaignEvent`]s, and everything that wants to watch a campaign —
//! a progress renderer, a metrics exporter, the distributed worker's
//! stdout pipe — subscribes by implementing [`CampaignObserver`].
//! Observers receive events in **completion order** (the order cells
//! actually finished, across threads and worker processes); consumers
//! that need deterministic row order attach a
//! [`ResultSink`](crate::ResultSink) instead, which the campaign feeds
//! through its re-sequencer.
//!
//! Built-in observers:
//!
//! * [`ProgressReporter`](crate::ProgressReporter) — live campaign
//!   progress (counters, throughput, cache-hit rate, ETA).
//! * [`WireObserver`](crate::WireObserver) — encodes each event as one
//!   line-delimited JSON protocol line; a `sweep-worker` process is
//!   exactly this observer writing to its stdout.

use crate::error::EngineError;
use crate::protocol::CampaignEvent;

/// A subscriber to a campaign's event stream (see the
/// crate docs).
///
/// Observers run one at a time, each event on the thread that
/// delivered it — the thread that called `run`, or one of the
/// backend's own threads — and that thread waits for them before it
/// goes on. A slow observer therefore slows the campaign; hand heavy
/// work to a thread of your own.
///
/// `on_event` errors fail the campaign: the first error wins, event
/// dispatch to observers and sinks stops immediately, and the error is
/// returned once the backend's in-flight work drains (cells already
/// executing cannot be cancelled mid-flight; their results still land
/// in the shared cache). Purely advisory observers (progress
/// rendering) should swallow their own failures and always return
/// `Ok`.
pub trait CampaignObserver: Send {
    /// Called once per event, in completion order.
    fn on_event(&mut self, event: &CampaignEvent) -> Result<(), EngineError>;

    /// Called once after the event stream closes (even when the
    /// campaign is about to report a failure), so renderers can emit a
    /// final state.
    fn on_finish(&mut self) -> Result<(), EngineError> {
        Ok(())
    }
}

/// Adapter: any `FnMut(&CampaignEvent)` closure observes a campaign.
pub struct FnObserver<F: FnMut(&CampaignEvent) + Send>(pub F);

impl<F: FnMut(&CampaignEvent) + Send> CampaignObserver for FnObserver<F> {
    fn on_event(&mut self, event: &CampaignEvent) -> Result<(), EngineError> {
        (self.0)(event);
        Ok(())
    }
}
