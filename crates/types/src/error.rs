//! Error handling shared by the DynaSoRe crates.

use std::fmt;

use crate::{MachineId, UserId};

/// Convenience result alias used across the workspace.
pub type Result<T, E = Error> = std::result::Result<T, E>;

/// Errors produced by the DynaSoRe crates.
///
/// The variants are intentionally coarse: most APIs validate their inputs
/// eagerly and report a descriptive configuration error rather than failing
/// deep inside an experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A configuration value is invalid (zero-sized cluster, empty graph,
    /// impossible memory budget, …).
    InvalidConfig(String),
    /// A user id does not exist in the social graph or placement tables.
    UnknownUser(UserId),
    /// A machine id does not exist in the topology, or has the wrong role
    /// (e.g. a broker where a server was expected).
    UnknownMachine(MachineId),
    /// A server was asked to hold more views than its capacity.
    ServerFull(MachineId),
    /// A view that must exist (every view has at least one replica) could
    /// not be found on any server. Indicates a placement-invariant
    /// violation.
    ViewLost(UserId),
    /// The cluster has been shut down; no further reads or writes are
    /// accepted.
    ClusterShutdown,
    /// A durable-log record failed structural validation *despite a valid
    /// checksum* (unknown kind, inconsistent inner lengths). A crash can
    /// only tear the tail of the log — which replay tolerates — so this
    /// indicates writer corruption and is surfaced loudly.
    CorruptRecord(String),
    /// An I/O error occurred while reading or writing a dataset file.
    Io(String),
}

impl Error {
    /// Builds an [`Error::InvalidConfig`] from any displayable message.
    pub fn invalid_config(msg: impl Into<String>) -> Self {
        Error::InvalidConfig(msg.into())
    }

    /// Builds an [`Error::Io`] from any displayable message.
    pub fn io(msg: impl fmt::Display) -> Self {
        Error::Io(msg.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            Error::UnknownUser(u) => write!(f, "unknown user {u}"),
            Error::UnknownMachine(m) => write!(f, "unknown machine {m}"),
            Error::ServerFull(m) => write!(f, "server {m} is full"),
            Error::ClusterShutdown => {
                write!(f, "cluster is shut down and accepts no further requests")
            }
            Error::CorruptRecord(detail) => write!(f, "corrupt durable record: {detail}"),
            Error::ViewLost(u) => write!(f, "view of user {u} has no replica"),
            Error::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(err: std::io::Error) -> Self {
        Error::io(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_descriptive() {
        let cases: Vec<(Error, &str)> = vec![
            (Error::invalid_config("bad"), "invalid configuration: bad"),
            (Error::UnknownUser(UserId::new(3)), "unknown user u3"),
            (
                Error::UnknownMachine(MachineId::new(4)),
                "unknown machine m4",
            ),
            (Error::ServerFull(MachineId::new(2)), "server m2 is full"),
            (
                Error::ClusterShutdown,
                "cluster is shut down and accepts no further requests",
            ),
            (
                Error::ViewLost(UserId::new(9)),
                "view of user u9 has no replica",
            ),
            (Error::Io("boom".into()), "i/o error: boom"),
            (
                Error::CorruptRecord("bad kind".into()),
                "corrupt durable record: bad kind",
            ),
        ];
        for (err, expected) in cases {
            assert_eq!(err.to_string(), expected);
        }
    }

    #[test]
    fn error_is_send_sync_and_std_error() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<Error>();
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "missing");
        let err: Error = io.into();
        assert!(matches!(err, Error::Io(_)));
    }
}
