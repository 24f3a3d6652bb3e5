//! Service-level errors.

use crate::service::SessionId;
use anyk_engine::EngineError;
use anyk_query::ParseError;
use std::time::Duration;

/// Which resource cap shed an overloaded request; see
/// [`ServiceError::Overloaded`] and [`crate::GovernorConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadReason {
    /// The concurrent-session cap ([`crate::GovernorConfig::max_sessions`]).
    Sessions,
    /// The in-flight page cap
    /// ([`crate::GovernorConfig::max_pages_in_flight`]).
    PagesInFlight,
    /// The global MEM(k) budget
    /// ([`crate::GovernorConfig::memory_budget_units`]).
    Memory,
}

impl std::fmt::Display for OverloadReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            OverloadReason::Sessions => "concurrent-session cap reached",
            OverloadReason::PagesInFlight => "in-flight page cap reached",
            OverloadReason::Memory => "MEM(k) memory budget exhausted",
        })
    }
}

/// Errors surfaced by [`crate::QueryService`].
#[derive(Debug)]
pub enum ServiceError {
    /// The session id is unknown: never issued, or already closed.
    UnknownSession(SessionId),
    /// The textual query could not be parsed (syntax error, unknown
    /// ranking/algorithm, invalid head or predicate). Carries the byte
    /// offset of the offending token.
    Parse(ParseError),
    /// Query preparation failed (unknown relation, arity mismatch,
    /// constant/column type mismatch, unsupported cyclic query, ...).
    Engine(EngineError),
    /// The request was shed by admission control: a resource cap is
    /// currently exhausted. Transient by construction — retry after
    /// `retry_after_hint` (or back off further under sustained load).
    Overloaded {
        /// Which cap shed the request.
        reason: OverloadReason,
        /// Suggested client back-off before retrying.
        retry_after_hint: Duration,
    },
    /// The session outlived its TTL or idle deadline and was reaped; its
    /// enumeration state is gone. Re-open the query to start over.
    SessionExpired(SessionId),
    /// The session was cancelled ([`crate::QueryService::cancel_session`]);
    /// its enumeration state is gone.
    SessionCancelled(SessionId),
    /// A previous page pull on this session panicked; the session was
    /// isolated and its state discarded. Other sessions are unaffected.
    SessionPoisoned(SessionId),
    /// A delta batch could not be applied to the current snapshot (unknown
    /// relation, arity mismatch, non-finite weight, delete id out of range).
    /// Validation runs before any work, so the served snapshot is untouched.
    Delta(anyk_storage::DeltaError),
    /// A chaos-testing failpoint fired on the serving path (see
    /// [`crate::faults`]); never produced unless a fault plan is armed.
    Fault(anyk_core::faults::Injected),
    /// Enumeration or preparation panicked; the panic was contained to this
    /// one request (see the crate docs on panic isolation) and the offending
    /// session, if any, was poisoned. `context` carries the panic payload.
    Panicked {
        /// The panic message, when it was a string payload.
        context: String,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownSession(id) => {
                write!(f, "unknown (or already closed) session {id}")
            }
            ServiceError::Parse(e) => write!(f, "invalid query text: {e}"),
            ServiceError::Engine(e) => write!(f, "query preparation failed: {e}"),
            ServiceError::Overloaded {
                reason,
                retry_after_hint,
            } => write!(
                f,
                "service overloaded ({reason}); retry after {retry_after_hint:?}"
            ),
            ServiceError::SessionExpired(id) => {
                write!(f, "{id} expired (TTL or idle deadline) and was reaped")
            }
            ServiceError::SessionCancelled(id) => write!(f, "{id} was cancelled"),
            ServiceError::SessionPoisoned(id) => write!(
                f,
                "{id} was poisoned by a panic in an earlier page pull and is closed"
            ),
            ServiceError::Delta(e) => write!(f, "delta batch rejected: {e}"),
            ServiceError::Fault(e) => write!(f, "{e}"),
            ServiceError::Panicked { context } => {
                write!(f, "request panicked (isolated): {context}")
            }
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Engine(e) => Some(e),
            ServiceError::Parse(e) => Some(e),
            ServiceError::Delta(e) => Some(e),
            ServiceError::Fault(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EngineError> for ServiceError {
    fn from(e: EngineError) -> Self {
        // A parse failure wrapped by the engine is still a parse failure to
        // service clients — keep the variant stable regardless of the path
        // the text took. Likewise an injected fault stays a fault whether
        // it fired in the engine or the server.
        match e {
            EngineError::Parse(p) => ServiceError::Parse(p),
            EngineError::Fault(i) => ServiceError::Fault(i),
            other => ServiceError::Engine(other),
        }
    }
}

impl From<ParseError> for ServiceError {
    fn from(e: ParseError) -> Self {
        ServiceError::Parse(e)
    }
}

impl From<anyk_storage::DeltaError> for ServiceError {
    fn from(e: anyk_storage::DeltaError) -> Self {
        ServiceError::Delta(e)
    }
}

impl From<anyk_core::faults::Injected> for ServiceError {
    fn from(e: anyk_core::faults::Injected) -> Self {
        ServiceError::Fault(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_not_debug_dumps() {
        let e = ServiceError::Overloaded {
            reason: OverloadReason::Memory,
            retry_after_hint: Duration::from_millis(50),
        };
        assert!(e.to_string().contains("MEM(k) memory budget"));
        let e = ServiceError::Panicked {
            context: "index out of bounds".into(),
        };
        assert!(e.to_string().contains("isolated"));
        assert!(e.to_string().contains("index out of bounds"));
    }

    #[test]
    fn engine_faults_stay_faults_across_the_layer() {
        let injected = anyk_core::faults::Injected {
            site: "engine.compile",
        };
        let e = ServiceError::from(EngineError::Fault(injected));
        assert!(matches!(e, ServiceError::Fault(i) if i.site == "engine.compile"));
        use std::error::Error;
        assert!(e.source().is_some(), "fault source chain preserved");
    }
}
