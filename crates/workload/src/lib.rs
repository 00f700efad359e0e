//! Request-trace generators for DynaSoRe experiments.
//!
//! The paper drives its simulator with two kinds of request logs (§4.2):
//!
//! * **Synthetic logs** — per-user read and write activity proportional to
//!   the logarithm of the user's degree (Huberman et al.), roughly four
//!   reads per write (Silberstein et al.), one write per user per day on
//!   average, requests spread evenly over time. Implemented by
//!   [`SyntheticTraceGenerator`].
//! * **Real user traffic** — a two-week sample of Yahoo! News Activity:
//!   2.5 M users, 17 M writes and 9.8 M reads, strongly diurnal. That trace
//!   is proprietary, so [`DiurnalTraceGenerator`] produces a synthetic
//!   stand-in with the same rate variability, write dominance and
//!   degree-rank activity mapping.
//!
//! [`FlashEventPlan`] reproduces the flash-event experiment (§4.6): a user
//! suddenly gains 100 random followers at day 2 and loses them at day 7.
//!
//! All generators are deterministic for a given seed and yield requests in
//! non-decreasing time order, so multi-day traces can be streamed without
//! materialising them in memory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod diurnal;
mod flash;
mod request;
mod sampler;
mod synthetic;

pub use diurnal::DiurnalTraceGenerator;
pub use flash::{FlashEventPlan, GraphMutation, TimedMutation};
pub use request::Request;
pub use sampler::WeightedSampler;
pub use synthetic::{SyntheticConfig, SyntheticTraceGenerator};
