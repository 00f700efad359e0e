//! Traffic units and message classes.
//!
//! The paper's simulator assumes that *"each application message, i.e.,
//! read, write request and their answer, is 10 times longer than a protocol
//! message"* (§4.3). All traffic accounting in this workspace therefore
//! measures messages in abstract **traffic units**, with an application
//! message worth [`APP_MESSAGE_UNITS`] and a protocol message worth
//! [`PROTOCOL_MESSAGE_UNITS`].

/// Size of an application message (request/response carrying view data), in
/// traffic units.
pub const APP_MESSAGE_UNITS: u64 = 10;

/// Size of a protocol/system message (replication control, notifications,
/// threshold piggybacking), in traffic units.
pub const PROTOCOL_MESSAGE_UNITS: u64 = 1;

/// Number of protocol messages modelling the transfer of one view's data
/// when a replica is created, migrated or recovered. A view transfer carries
/// as much data as an application message (10 protocol units), but it is
/// *system* traffic, so it is accounted as protocol messages (cf. Figure 6,
/// which separates application from system traffic). Shared by every engine
/// so replica creation, drain migration and persistent-tier recovery all
/// cost the same.
pub const VIEW_TRANSFER_PROTOCOL_MESSAGES: usize = 10;

/// Accumulated traffic, in abstract units.
pub type TrafficUnits = u64;

/// Classification of a message for accounting purposes.
///
/// The convergence experiment of the paper (Fig. 6) separates *application
/// traffic* (reads/writes and their answers) from *system traffic* (replica
/// creation, migration and other protocol messages), so the class is tracked
/// alongside every message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageClass {
    /// A read/write request or its answer; carries user data.
    Application,
    /// A control message of the placement protocol; carries no user data.
    Protocol,
}

impl MessageClass {
    /// The size of one message of this class, in traffic units.
    pub fn units(self) -> TrafficUnits {
        match self {
            MessageClass::Application => APP_MESSAGE_UNITS,
            MessageClass::Protocol => PROTOCOL_MESSAGE_UNITS,
        }
    }

    /// Returns `true` for application messages.
    pub fn is_application(self) -> bool {
        matches!(self, MessageClass::Application)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn application_messages_are_ten_times_protocol_messages() {
        assert_eq!(APP_MESSAGE_UNITS, 10 * PROTOCOL_MESSAGE_UNITS);
        assert_eq!(MessageClass::Application.units(), 10);
        assert_eq!(MessageClass::Protocol.units(), 1);
    }

    #[test]
    fn class_predicates() {
        assert!(MessageClass::Application.is_application());
        assert!(!MessageClass::Protocol.is_application());
    }
}
