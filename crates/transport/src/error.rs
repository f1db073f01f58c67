//! Typed errors for the real dataplane.
//!
//! Every connect/fetch path in this crate returns [`TransportError`]
//! instead of panicking or leaking raw `io::Error`s. The variant
//! classification is what drives recovery: [`TransportError::is_retryable`]
//! decides whether the [`crate::retry::RetryPolicy`] re-dials and
//! re-issues a request, or surfaces the failure to the merge.

use std::fmt;
use std::io;

/// Result alias for dataplane operations.
pub type Result<T> = std::result::Result<T, TransportError>;

/// A failure on the real dataplane.
#[derive(Debug)]
pub enum TransportError {
    /// Establishing a connection failed (refused, unreachable, or the
    /// dial timed out).
    Connect {
        /// Human-readable dial target.
        target: String,
        /// The underlying I/O failure.
        source: io::Error,
    },
    /// A read or write exceeded its deadline.
    Timeout {
        /// Which operation timed out.
        during: &'static str,
    },
    /// The peer dropped the connection mid-exchange (reset, broken
    /// pipe, or an unexpected EOF inside a frame).
    Reset {
        /// Which operation observed the drop.
        during: &'static str,
    },
    /// A frame arrived but failed to decode, or its payload failed the
    /// end-to-end checksum.
    Corrupt {
        /// What was wrong with the bytes.
        detail: String,
    },
    /// The stream ended before the bytes the peer promised arrived —
    /// detected by expected-length accounting against the segment
    /// length an `OkCrc` frame carries, so a truncation landing
    /// exactly on a chunk boundary no longer masquerades as clean EOF.
    Truncated {
        /// Bytes received so far.
        got: u64,
        /// Bytes the segment was declared to hold.
        expected: u64,
    },
    /// The per-peer circuit breaker is open: recent consecutive
    /// failures exceeded the threshold, so requests to this peer fail
    /// fast instead of burning the retry budget. Not retryable — the
    /// breaker itself schedules the half-open probe.
    CircuitOpen {
        /// The peer whose breaker is open.
        peer: String,
    },
    /// The supplier does not have the requested object.
    NotFound {
        /// What was missing (MOF and reducer).
        what: String,
    },
    /// The peer rejected the request as malformed.
    BadRequest {
        /// The peer's complaint.
        detail: String,
    },
    /// A fetch of one specific segment failed. `source` is the
    /// underlying failure; the context says *which* (MOF, reducer) on
    /// *which* supplier it hit, so a consolidated `fetch_all` over many
    /// suppliers reports a failure the operator can act on instead of a
    /// bare connection error.
    Segment {
        /// MOF id of the failing fetch.
        mof: u64,
        /// Reducer (partition) number of the failing fetch.
        reducer: u32,
        /// Supplier address the fetch targeted.
        peer: String,
        /// The underlying failure.
        source: Box<TransportError>,
    },
    /// The retry budget ran out; `last` is the final attempt's error.
    RetriesExhausted {
        /// Attempts made (initial try plus retries).
        attempts: u32,
        /// The error of the last attempt.
        last: Box<TransportError>,
    },
    /// Several independent segment fetches failed in one `fetch_all`.
    /// The consolidated report keeps every per-segment failure (each a
    /// [`TransportError::Segment`] with its own peer context) so a
    /// partial outage reads as "these peers failed" instead of one
    /// opaque first-error.
    Partial {
        /// Every failed fetch, in submission order.
        failures: Vec<TransportError>,
    },
    /// Any other I/O failure.
    Io {
        /// Which operation failed.
        during: &'static str,
        /// The underlying I/O failure.
        source: io::Error,
    },
}

impl TransportError {
    /// Classify an `io::Error` observed `during` some operation into
    /// the transport taxonomy.
    pub fn from_io(during: &'static str, e: io::Error) -> Self {
        match e.kind() {
            // A blocking socket with a read/write timeout surfaces the
            // deadline as WouldBlock on Unix and TimedOut on Windows.
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
                TransportError::Timeout { during }
            }
            io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::UnexpectedEof => TransportError::Reset { during },
            io::ErrorKind::InvalidData => TransportError::Corrupt {
                detail: e.to_string(),
            },
            _ => TransportError::Io { during, source: e },
        }
    }

    /// Whether a retry with a fresh connection can plausibly succeed.
    ///
    /// Transient network failures (dial errors, timeouts, resets,
    /// corrupt frames, truncations, generic I/O) are
    /// retryable; semantic failures (missing segment, malformed
    /// request), an open circuit breaker (the
    /// breaker schedules its own probe), and an already-exhausted
    /// budget are not. Segment context is transparent: it classifies as
    /// whatever it wraps.
    pub fn is_retryable(&self) -> bool {
        match self {
            TransportError::Segment { source, .. } => source.is_retryable(),
            _ => matches!(
                self,
                TransportError::Connect { .. }
                    | TransportError::Timeout { .. }
                    | TransportError::Reset { .. }
                    | TransportError::Corrupt { .. }
                    | TransportError::Truncated { .. }
                    | TransportError::Io { .. }
            ),
        }
    }

    /// Whether this is (or was last caused by) a timeout.
    pub fn is_timeout(&self) -> bool {
        match self {
            TransportError::Timeout { .. } => true,
            TransportError::RetriesExhausted { last, .. } => last.is_timeout(),
            TransportError::Segment { source, .. } => source.is_timeout(),
            _ => false,
        }
    }

    /// A structural copy of this error, for fanning one connection-level
    /// failure out to every in-flight operation it killed. `io::Error`
    /// sources are flattened to their (kind, message) pair — the OS
    /// payload is not cloneable, the classification is.
    pub fn duplicate(&self) -> TransportError {
        match self {
            TransportError::Connect { target, source } => TransportError::Connect {
                target: target.clone(),
                source: io::Error::new(source.kind(), source.to_string()),
            },
            TransportError::Timeout { during } => TransportError::Timeout { during },
            TransportError::Reset { during } => TransportError::Reset { during },
            TransportError::Corrupt { detail } => TransportError::Corrupt {
                detail: detail.clone(),
            },
            TransportError::NotFound { what } => TransportError::NotFound { what: what.clone() },
            TransportError::BadRequest { detail } => TransportError::BadRequest {
                detail: detail.clone(),
            },
            TransportError::Truncated { got, expected } => TransportError::Truncated {
                got: *got,
                expected: *expected,
            },
            TransportError::CircuitOpen { peer } => {
                TransportError::CircuitOpen { peer: peer.clone() }
            }
            TransportError::Partial { failures } => TransportError::Partial {
                failures: failures.iter().map(TransportError::duplicate).collect(),
            },
            TransportError::Segment {
                mof,
                reducer,
                peer,
                source,
            } => TransportError::Segment {
                mof: *mof,
                reducer: *reducer,
                peer: peer.clone(),
                source: Box::new(source.duplicate()),
            },
            TransportError::RetriesExhausted { attempts, last } => {
                TransportError::RetriesExhausted {
                    attempts: *attempts,
                    last: Box::new(last.duplicate()),
                }
            }
            TransportError::Io { during, source } => TransportError::Io {
                during,
                source: io::Error::new(source.kind(), source.to_string()),
            },
        }
    }
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Connect { target, source } => {
                write!(f, "connect to {target} failed: {source}")
            }
            TransportError::Timeout { during } => write!(f, "timed out during {during}"),
            TransportError::Reset { during } => {
                write!(f, "connection dropped during {during}")
            }
            TransportError::Corrupt { detail } => write!(f, "corrupt frame: {detail}"),
            TransportError::NotFound { what } => write!(f, "not found: {what}"),
            TransportError::BadRequest { detail } => write!(f, "bad request: {detail}"),
            TransportError::Truncated { got, expected } => {
                write!(
                    f,
                    "segment truncated: got {got} of {expected} expected bytes"
                )
            }
            TransportError::CircuitOpen { peer } => {
                write!(f, "circuit breaker open for {peer}; failing fast")
            }
            TransportError::Partial { failures } => {
                write!(f, "{} segment fetches failed: [", failures.len())?;
                for (i, e) in failures.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "]")
            }
            TransportError::Segment {
                mof,
                reducer,
                peer,
                source,
            } => {
                write!(
                    f,
                    "fetch of mof {mof} reducer {reducer} from {peer} failed: {source}"
                )
            }
            TransportError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts; last error: {last}")
            }
            TransportError::Io { during, source } => {
                write!(f, "i/o error during {during}: {source}")
            }
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransportError::Connect { source, .. } | TransportError::Io { source, .. } => {
                Some(source)
            }
            TransportError::RetriesExhausted { last, .. } => Some(last.as_ref()),
            TransportError::Segment { source, .. } => Some(source.as_ref()),
            TransportError::Partial { failures } => failures
                .first()
                .map(|e| e as &(dyn std::error::Error + 'static)),
            _ => None,
        }
    }
}

/// The `io::ErrorKind` a transport error flattens to. Context wrappers
/// (`Segment`, `RetriesExhausted`) recurse into their cause, so callers
/// matching on kinds still see `TimedOut`/`ConnectionReset` rather than
/// `Other` after the error picked up fetch context on the way up.
fn io_kind(e: &TransportError) -> io::ErrorKind {
    match e {
        TransportError::Connect { .. } => io::ErrorKind::ConnectionRefused,
        TransportError::Timeout { .. } => io::ErrorKind::TimedOut,
        TransportError::Reset { .. } => io::ErrorKind::ConnectionReset,
        TransportError::Corrupt { .. } | TransportError::BadRequest { .. } => {
            io::ErrorKind::InvalidData
        }
        TransportError::NotFound { .. } => io::ErrorKind::NotFound,
        TransportError::Truncated { .. } => io::ErrorKind::UnexpectedEof,
        TransportError::CircuitOpen { .. } => io::ErrorKind::ConnectionRefused,
        TransportError::Partial { failures } => failures
            .first()
            .map(io_kind)
            .unwrap_or(io::ErrorKind::Other),
        TransportError::Segment { source, .. } => io_kind(source),
        TransportError::RetriesExhausted { last, .. } => io_kind(last),
        TransportError::Io { source, .. } => source.kind(),
    }
}

/// Bridge to `io::Error` for io-trait boundaries (e.g. the
/// [`jbs_mapred::levitate::RecordStream`] implementation). The error
/// rides inside, typed, for [`TransportError::from_bridged`] to take
/// back out; the kind comes from the root cause.
impl From<TransportError> for io::Error {
    fn from(e: TransportError) -> io::Error {
        io::Error::new(io_kind(&e), e)
    }
}

impl TransportError {
    /// The way back over an io-trait boundary: a transport error that
    /// crossed it through the `io::Error` bridge comes out as itself,
    /// context and all; any other `io::Error` is classified by
    /// [`Self::from_io`].
    pub fn from_bridged(during: &'static str, e: io::Error) -> Self {
        if !matches!(e.get_ref(), Some(inner) if inner.is::<TransportError>()) {
            return Self::from_io(during, e);
        }
        let kind = e.kind();
        match e.into_inner().map(|i| i.downcast::<TransportError>()) {
            Some(Ok(t)) => *t,
            // Unreachable: the payload was checked to be one above.
            _ => Self::from_io(during, io::Error::from(kind)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_classification() {
        let t = TransportError::from_io("read", io::Error::from(io::ErrorKind::WouldBlock));
        assert!(matches!(t, TransportError::Timeout { .. }));
        assert!(t.is_retryable() && t.is_timeout());

        let r = TransportError::from_io("read", io::Error::from(io::ErrorKind::ConnectionReset));
        assert!(matches!(r, TransportError::Reset { .. }));
        assert!(r.is_retryable());

        let c = TransportError::from_io(
            "read",
            io::Error::new(io::ErrorKind::InvalidData, "bad magic"),
        );
        assert!(matches!(c, TransportError::Corrupt { .. }));
    }

    #[test]
    fn semantic_errors_do_not_retry() {
        let nf = TransportError::NotFound {
            what: "mof 7".into(),
        };
        assert!(!nf.is_retryable());
        let bad = TransportError::BadRequest {
            detail: "magic".into(),
        };
        assert!(!bad.is_retryable());
        let exhausted = TransportError::RetriesExhausted {
            attempts: 5,
            last: Box::new(TransportError::Timeout { during: "read" }),
        };
        assert!(!exhausted.is_retryable());
        assert!(exhausted.is_timeout());
    }

    #[test]
    fn io_bridge_keeps_kinds() {
        let e: io::Error = TransportError::NotFound {
            what: "mof 1 reducer 2".into(),
        }
        .into();
        assert_eq!(e.kind(), io::ErrorKind::NotFound);

        let e: io::Error = TransportError::RetriesExhausted {
            attempts: 3,
            last: Box::new(TransportError::Timeout { during: "read" }),
        }
        .into();
        assert_eq!(e.kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn segment_context_is_transparent() {
        let seg = TransportError::Segment {
            mof: 7,
            reducer: 3,
            peer: "10.0.0.2:9999".into(),
            source: Box::new(TransportError::Reset {
                during: "read response",
            }),
        };
        assert!(seg.is_retryable(), "context must not mask retryability");
        let msg = seg.to_string();
        assert!(msg.contains("mof 7"), "{msg}");
        assert!(msg.contains("reducer 3"), "{msg}");
        assert!(msg.contains("10.0.0.2:9999"), "{msg}");
        let e: io::Error = seg.into();
        assert_eq!(e.kind(), io::ErrorKind::ConnectionReset);
        assert!(e.to_string().contains("mof 7"), "{e}");
        match TransportError::from_bridged("merge", e) {
            TransportError::Segment { mof, source, .. } => {
                assert_eq!(mof, 7);
                assert!(matches!(*source, TransportError::Reset { .. }));
            }
            other => panic!("the bridge lost the typed error: {other}"),
        }
        let plain = io::Error::new(io::ErrorKind::InvalidData, "bad record");
        assert!(matches!(
            TransportError::from_bridged("merge", plain),
            TransportError::Corrupt { .. }
        ));

        let terminal = TransportError::Segment {
            mof: 1,
            reducer: 0,
            peer: "x".into(),
            source: Box::new(TransportError::NotFound {
                what: "mof 1".into(),
            }),
        };
        assert!(!terminal.is_retryable());
    }

    #[test]
    fn robustness_variants_classify() {
        let trunc = TransportError::Truncated {
            got: 100,
            expected: 256,
        };
        assert!(trunc.is_retryable());
        let msg = trunc.to_string();
        assert!(msg.contains("100") && msg.contains("256"), "{msg}");
        let e: io::Error = trunc.into();
        assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);

        let open = TransportError::CircuitOpen {
            peer: "10.0.0.9:4242".into(),
        };
        assert!(!open.is_retryable(), "breaker schedules its own probes");
        assert!(open.to_string().contains("10.0.0.9:4242"));

        // Segment context stays transparent over the new variants.
        let seg = TransportError::Segment {
            mof: 1,
            reducer: 2,
            peer: "p".into(),
            source: Box::new(TransportError::Truncated {
                got: 0,
                expected: 1,
            }),
        };
        assert!(seg.is_retryable());
        assert!(!seg.is_timeout());
    }

    #[test]
    fn partial_reports_every_failure() {
        let seg = |mof: u64, peer: &str| TransportError::Segment {
            mof,
            reducer: 0,
            peer: peer.into(),
            source: Box::new(TransportError::Reset { during: "read" }),
        };
        let partial = TransportError::Partial {
            failures: vec![seg(3, "hostA:1"), seg(9, "hostB:2")],
        };
        assert!(!partial.is_retryable());
        let msg = partial.to_string();
        assert!(msg.contains("2 segment fetches failed"), "{msg}");
        assert!(msg.contains("hostA:1") && msg.contains("hostB:2"), "{msg}");
        assert!(msg.contains("mof 3") && msg.contains("mof 9"), "{msg}");
        let d = partial.duplicate();
        assert_eq!(d.to_string(), msg);
        let e: io::Error = partial.into();
        assert_eq!(e.kind(), io::ErrorKind::ConnectionReset);
    }

    #[test]
    fn duplicate_preserves_structure() {
        let e = TransportError::RetriesExhausted {
            attempts: 4,
            last: Box::new(TransportError::Connect {
                target: "host:1".into(),
                source: io::Error::from(io::ErrorKind::ConnectionRefused),
            }),
        };
        let d = e.duplicate();
        assert_eq!(d.to_string(), e.to_string());
        assert!(matches!(
            d,
            TransportError::RetriesExhausted { attempts: 4, .. }
        ));
        assert_eq!(io_kind(&d), io_kind(&e));
    }
}
