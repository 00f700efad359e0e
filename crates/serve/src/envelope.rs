//! Protocol-agnostic request/response envelopes.
//!
//! An envelope is the unit the pipeline moves: a [`RequestEnvelope`] enters,
//! flows through the middleware stages, reaches the backend if every stage
//! accepts it, and comes back out as a [`ResponseEnvelope`] with a typed
//! [`StatusCode`]. Nothing in here knows about wire formats — an HTTP or
//! RPC transport would translate at the edge and hand the same envelopes to
//! the same pipeline.

use dynasore_types::{Event, StatusCode, UserId, View};

/// What the caller wants the store to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestOp {
    /// Fetch the views of `targets` (the caller's social connections).
    Read {
        /// View owners to fetch.
        targets: Vec<UserId>,
    },
    /// Fetch the caller's merged, newest-first feed.
    ReadFeed,
    /// Append `payload` as a new event in the caller's own view.
    Write {
        /// Opaque event payload.
        payload: Vec<u8>,
    },
}

impl RequestOp {
    /// Flow-budget cost of the operation: one unit per view touched, so a
    /// wide fan-out read spends proportionally more budget than a write.
    #[must_use]
    pub fn flow_cost(&self) -> u64 {
        match self {
            RequestOp::Read { targets } => targets.len().max(1) as u64,
            RequestOp::ReadFeed | RequestOp::Write { .. } => 1,
        }
    }
}

/// One request travelling through the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestEnvelope {
    /// The user the request is submitted on behalf of.
    pub user: UserId,
    /// Credential presented by the caller, checked by the auth stage.
    pub token: Option<String>,
    /// The operation to perform.
    pub op: RequestOp,
}

impl RequestEnvelope {
    /// A read of `targets`' views on behalf of `user`.
    #[must_use]
    pub fn read(user: UserId, targets: Vec<UserId>) -> Self {
        RequestEnvelope {
            user,
            token: None,
            op: RequestOp::Read { targets },
        }
    }

    /// A feed read on behalf of `user`.
    #[must_use]
    pub fn read_feed(user: UserId) -> Self {
        RequestEnvelope {
            user,
            token: None,
            op: RequestOp::ReadFeed,
        }
    }

    /// A write of `payload` into `user`'s own view.
    #[must_use]
    pub fn write(user: UserId, payload: Vec<u8>) -> Self {
        RequestEnvelope {
            user,
            token: None,
            op: RequestOp::Write { payload },
        }
    }

    /// Attaches a credential token.
    #[must_use]
    pub fn with_token(mut self, token: impl Into<String>) -> Self {
        self.token = Some(token.into());
        self
    }
}

/// Payload of a response envelope.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum ResponseBody {
    /// No payload (writes, rejections).
    #[default]
    Empty,
    /// The requested views, in request-target order.
    Views(Vec<View>),
    /// The caller's merged feed, newest first.
    Feed(Vec<Event>),
}

/// One response travelling back out of the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseEnvelope {
    /// Outcome of the request.
    pub status: StatusCode,
    /// Response payload; [`ResponseBody::Empty`] unless the request was a
    /// served read.
    pub body: ResponseBody,
    /// Human-readable diagnostic for non-ok statuses.
    pub detail: Option<String>,
}

impl ResponseEnvelope {
    /// A successful response carrying `body`.
    #[must_use]
    pub fn ok(body: ResponseBody) -> Self {
        ResponseEnvelope {
            status: StatusCode::Ok,
            body,
            detail: None,
        }
    }

    /// A rejection with `status` and a diagnostic message.
    #[must_use]
    pub fn rejected(status: StatusCode, detail: impl Into<String>) -> Self {
        ResponseEnvelope {
            status,
            body: ResponseBody::Empty,
            detail: Some(detail.into()),
        }
    }

    /// Whether the request was served.
    #[must_use]
    pub fn is_success(&self) -> bool {
        self.status.is_success()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_cost_scales_with_read_fanout() {
        let targets: Vec<UserId> = (0..7).map(UserId::new).collect();
        assert_eq!(RequestOp::Read { targets }.flow_cost(), 7);
        // An empty read still costs one unit — envelopes are never free.
        assert_eq!(RequestOp::Read { targets: vec![] }.flow_cost(), 1);
        assert_eq!(RequestOp::ReadFeed.flow_cost(), 1);
        assert_eq!(RequestOp::Write { payload: vec![] }.flow_cost(), 1);
    }

    #[test]
    fn constructors_and_token_attachment() {
        let req = RequestEnvelope::write(UserId::new(3), b"hi".to_vec()).with_token("secret");
        assert_eq!(req.user, UserId::new(3));
        assert_eq!(req.token.as_deref(), Some("secret"));
        assert_eq!(
            req.op,
            RequestOp::Write {
                payload: b"hi".to_vec()
            }
        );
        assert_eq!(
            RequestEnvelope::read_feed(UserId::new(0)).op,
            RequestOp::ReadFeed
        );
        let read = RequestEnvelope::read(UserId::new(0), vec![]);
        assert_eq!(read.op, RequestOp::Read { targets: vec![] });
    }

    #[test]
    fn response_helpers() {
        assert!(ResponseEnvelope::ok(ResponseBody::Empty).is_success());
        let rej = ResponseEnvelope::rejected(StatusCode::Throttled, "budget exhausted");
        assert!(!rej.is_success());
        assert_eq!(rej.body, ResponseBody::Empty);
        assert_eq!(rej.detail.as_deref(), Some("budget exhausted"));
    }
}
