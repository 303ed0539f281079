//! Session workflows (§4).
//!
//! "The Stethoscope works in both online and offline mode. Both modes
//! share some fundamental steps, such as dot file parsing, conversion to
//! an in memory graph representation, and sequential reading of a trace
//! file."

pub mod multi;
pub mod offline;
pub mod online;
mod shared;
pub mod snapshot;

pub use shared::PlanView;
pub(crate) use shared::{Server, StreamCloser};

use std::fmt;
use std::time::Duration;

/// How long an online or multi-server session waits for its stream to
/// complete before giving up. It is the only timer a session has: it
/// bounds a wedged server, and a session that completes never reaches it.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(120);

/// Errors from building or driving a session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionError {
    /// Explanation.
    pub msg: String,
}

impl SessionError {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        SessionError { msg: msg.into() }
    }
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "session error: {}", self.msg)
    }
}

impl std::error::Error for SessionError {}

impl From<std::io::Error> for SessionError {
    fn from(e: std::io::Error) -> Self {
        SessionError::new(format!("io: {e}"))
    }
}
