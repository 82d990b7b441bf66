//! The framed binary wire protocol.
//!
//! Both directions are length-delimited so a reader can always tell a
//! complete frame from a truncated one — the property the shutdown and
//! fault-injection tests lean on: a response cut mid-write is an I/O
//! error at the client, never a shorter answer that still parses.
//!
//! All integers are little-endian.
//!
//! ```text
//! request  := opcode:u8  user_id:u64  len:u32  payload:[u8; len]
//!             opcode 1 = QUERY     (payload is UTF-8 mini-SQL)
//!             opcode 2 = BYE       (len must be 0)
//!             opcode 3 = PIR_FETCH (len must be 8; payload is index:u64)
//!             opcode 4 = APPEND    (len must be 4; payload is count:u32)
//!             opcode 5 = SEAL      (len must be 0)
//!             opcode 6 = DISGUISE  (len must be 0)
//!             opcode 7 = RESTORE   (len must be 0)
//!
//! response := tag:u8  body
//!             tag 0 = EXACT      body = value:f64
//!             tag 1 = PERTURBED  body = value:f64
//!             tag 2 = INTERVAL   body = lo:f64 hi:f64
//!             tag 3 = REFUSED    body = reason:u8 len:u32 msg:[u8; len]
//!             tag 4 = ERROR      body = len:u32 msg:[u8; len]
//!             tag 5 = BYE        body = empty
//!             tag 6 = RECORD     body = len:u32 bytes:[u8; len]
//! ```

use std::fmt;
use std::io::{self, Read, Write};

/// Requests larger than this are rejected before the payload is read, so
/// a hostile length prefix cannot make the server allocate unboundedly.
pub const MAX_PAYLOAD: u32 = 64 * 1024;

/// Bytes in the fixed request header `opcode:u8 user_id:u64 len:u32`.
const REQUEST_HEADER: usize = 13;

/// The request opcodes of the wire format (see the module docs).
pub(crate) mod opcode {
    /// One mini-SQL query; the payload is its UTF-8 text.
    pub const QUERY: u8 = 1;
    /// End of session; no payload.
    pub const BYE: u8 = 2;
    /// One PIR record fetch; the payload is `index:u64`.
    pub const PIR_FETCH: u8 = 3;
    /// Grow the mutable tail; the payload is `count:u32`.
    pub const APPEND: u8 = 4;
    /// Freeze the mutable tail; no payload.
    pub const SEAL: u8 = 5;
    /// Unsubscribe the user; no payload.
    pub const DISGUISE: u8 = 6;
    /// Resubscribe the user; no payload.
    pub const RESTORE: u8 = 7;
}

/// A client-to-server frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Submit one mini-SQL query on behalf of `user`.
    Query {
        /// The session's user id (no authentication — ids are claims).
        user: u64,
        /// Query text in the `tdf-querydb` mini-SQL syntax.
        sql: String,
    },
    /// End the session; the server acknowledges and closes.
    Bye {
        /// The session's user id.
        user: u64,
    },
    /// Fetch one record from the server's PIR store. Requests from many
    /// users coalesce into fused batch sweeps server-side.
    PirFetch {
        /// The session's user id.
        user: u64,
        /// Record index to fetch.
        index: u64,
    },
    /// Append `count` synthetic records to the server's mutable tail.
    /// Record content is deterministic per *global row index*, so the
    /// population is independent of how appends are chunked.
    Append {
        /// The session's user id.
        user: u64,
        /// Number of records to append.
        count: u32,
    },
    /// Freeze the mutable tail into a sealed (spillable) segment.
    Seal {
        /// The session's user id.
        user: u64,
    },
    /// Unsubscribe: atomically re-own every row of `user`'s ledger
    /// records to ghost principals and redact the payload per policy.
    Disguise {
        /// The user unsubscribing (the rows disguised are theirs).
        user: u64,
    },
    /// Resubscribe: atomically restore `user`'s disguised rows bit for
    /// bit.
    Restore {
        /// The user resubscribing.
        user: u64,
    },
}

impl Request {
    /// The frame's wire opcode (one of the [`opcode`] constants).
    pub(crate) fn opcode(&self) -> u8 {
        match self {
            Request::Query { .. } => opcode::QUERY,
            Request::Bye { .. } => opcode::BYE,
            Request::PirFetch { .. } => opcode::PIR_FETCH,
            Request::Append { .. } => opcode::APPEND,
            Request::Seal { .. } => opcode::SEAL,
            Request::Disguise { .. } => opcode::DISGUISE,
            Request::Restore { .. } => opcode::RESTORE,
        }
    }
}

/// Why a query was refused, as a wire-stable code. The human-readable
/// message travels alongside; the code is what counters and tests key on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RefusalReason {
    /// Refusal class not covered below (e.g. undeclared SUM range).
    Other = 0,
    /// The user's privacy budget is exhausted.
    Budget = 1,
    /// The query exceeded its evaluation deadline.
    Deadline = 2,
    /// The query fits a tracker (differencing) pattern.
    Tracker = 3,
    /// A static admission rule refused (e.g. query set below minimum).
    Policy = 4,
    /// The server is draining for shutdown.
    Draining = 5,
}

impl RefusalReason {
    fn from_wire(code: u8) -> io::Result<Self> {
        Ok(match code {
            0 => RefusalReason::Other,
            1 => RefusalReason::Budget,
            2 => RefusalReason::Deadline,
            3 => RefusalReason::Tracker,
            4 => RefusalReason::Policy,
            5 => RefusalReason::Draining,
            other => return Err(bad(format!("unknown refusal reason {other}"))),
        })
    }

    /// The `serve.refused.<label>` counter the server bumps for this
    /// reason: a static name, so a refusal formats nothing.
    pub(crate) fn counter(self) -> &'static str {
        match self {
            RefusalReason::Other => "serve.refused.other",
            RefusalReason::Budget => "serve.refused.budget",
            RefusalReason::Deadline => "serve.refused.deadline",
            RefusalReason::Tracker => "serve.refused.tracker",
            RefusalReason::Policy => "serve.refused.policy",
            RefusalReason::Draining => "serve.refused.draining",
        }
    }

    /// The reason's short name: the counter-name suffix.
    pub fn label(self) -> &'static str {
        &self.counter()["serve.refused.".len()..]
    }
}

/// A server-to-client frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The exact aggregate value.
    Exact(f64),
    /// A perturbed (noisy) aggregate value.
    Perturbed(f64),
    /// An interval guaranteed to contain the true value.
    Interval(f64, f64),
    /// The query was refused by the admission path.
    Refused {
        /// Machine-readable refusal class.
        reason: RefusalReason,
        /// Human-readable explanation.
        message: String,
    },
    /// The request itself failed (parse error, unknown attribute, …).
    Error(String),
    /// Acknowledgement of a `Bye`.
    Bye,
    /// The record bytes answering a `PirFetch`.
    Record(Vec<u8>),
}

impl Response {
    /// True for the `Refused` variant.
    pub fn is_refused(&self) -> bool {
        matches!(self, Response::Refused { .. })
    }

    /// A best-guess point value, if the response carries one.
    pub fn point(&self) -> Option<f64> {
        match self {
            Response::Exact(v) | Response::Perturbed(v) => Some(*v),
            Response::Interval(lo, hi) => Some(0.5 * (lo + hi)),
            _ => None,
        }
    }
}

/// The one-line transcript form the smoke binaries print: values to six
/// decimals, a refusal's label and message, and a record's length with
/// its first eight bytes in hex.
impl fmt::Display for Response {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Response::Exact(v) => write!(f, "exact {v:.6}"),
            Response::Perturbed(v) => write!(f, "perturbed {v:.6}"),
            Response::Interval(lo, hi) => write!(f, "interval [{lo:.6}, {hi:.6}]"),
            Response::Refused { reason, message } => {
                write!(f, "refused[{}] {message}", reason.label())
            }
            Response::Error(message) => write!(f, "error {message}"),
            Response::Record(bytes) => {
                write!(f, "record {} bytes ", bytes.len())?;
                for b in bytes.iter().take(8) {
                    write!(f, "{b:02x}")?;
                }
                f.write_str("..")
            }
            Response::Bye => f.write_str("bye"),
        }
    }
}

fn bad(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

fn read_u8(r: &mut impl Read) -> io::Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_f64(r: &mut impl Read) -> io::Result<f64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}

fn read_bytes(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let len = read_u32(r)?;
    if len > MAX_PAYLOAD {
        return Err(bad(format!("frame payload of {len} bytes exceeds cap")));
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

fn utf8(bytes: Vec<u8>) -> io::Result<String> {
    String::from_utf8(bytes).map_err(|_| bad("payload is not UTF-8".to_owned()))
}

fn read_string(r: &mut impl Read) -> io::Result<String> {
    utf8(read_bytes(r)?)
}

/// Serializes one request into a byte buffer.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut word = [0u8; 8];
    let (user, payload): (u64, &[u8]) = match req {
        Request::Query { user, sql } => (*user, sql.as_bytes()),
        Request::PirFetch { user, index } => {
            word = index.to_le_bytes();
            (*user, &word)
        }
        Request::Append { user, count } => {
            word[..4].copy_from_slice(&count.to_le_bytes());
            (*user, &word[..4])
        }
        Request::Bye { user }
        | Request::Seal { user }
        | Request::Disguise { user }
        | Request::Restore { user } => (*user, &[]),
    };
    let mut out = Vec::with_capacity(REQUEST_HEADER + payload.len());
    out.push(req.opcode());
    out.extend_from_slice(&user.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Reads one complete request frame: the fixed header in one read, then
/// exactly the payload its opcode allows.
pub fn read_request(r: &mut impl Read) -> io::Result<Request> {
    let mut header = [0u8; REQUEST_HEADER];
    r.read_exact(&mut header)?;
    let op = header[0];
    let user = le_word(&header[1..9]);
    let len = le_word(&header[9..]) as u32;
    // One payload-length rule per opcode, checked before any payload
    // byte is read.
    let fits = match op {
        opcode::QUERY => len <= MAX_PAYLOAD,
        opcode::PIR_FETCH => len == 8,
        opcode::APPEND => len == 4,
        opcode::BYE | opcode::SEAL | opcode::DISGUISE | opcode::RESTORE => len == 0,
        other => return Err(bad(format!("unknown opcode {other}"))),
    };
    if !fits {
        return Err(bad(format!(
            "opcode {op} cannot carry a {len}-byte payload"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(match op {
        opcode::QUERY => Request::Query {
            user,
            sql: utf8(payload)?,
        },
        opcode::PIR_FETCH => Request::PirFetch {
            user,
            index: le_word(&payload),
        },
        opcode::APPEND => Request::Append {
            user,
            count: le_word(&payload) as u32,
        },
        opcode::BYE => Request::Bye { user },
        opcode::SEAL => Request::Seal { user },
        opcode::DISGUISE => Request::Disguise { user },
        opcode::RESTORE => Request::Restore { user },
        _ => unreachable!("opcode {op} passed the length rule"),
    })
}

/// The little-endian unsigned integer in `bytes` (at most 8 of them).
fn le_word(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

/// Serializes one response into a byte buffer.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    match resp {
        Response::Exact(v) => {
            out.push(0);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Response::Perturbed(v) => {
            out.push(1);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Response::Interval(lo, hi) => {
            out.push(2);
            out.extend_from_slice(&lo.to_le_bytes());
            out.extend_from_slice(&hi.to_le_bytes());
        }
        Response::Refused { reason, message } => {
            out.push(3);
            out.push(*reason as u8);
            out.extend_from_slice(&(message.len() as u32).to_le_bytes());
            out.extend_from_slice(message.as_bytes());
        }
        Response::Error(message) => {
            out.push(4);
            out.extend_from_slice(&(message.len() as u32).to_le_bytes());
            out.extend_from_slice(message.as_bytes());
        }
        Response::Bye => out.push(5),
        Response::Record(bytes) => {
            out.push(6);
            out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(bytes);
        }
    }
    out
}

/// Reads one complete response frame.
pub fn read_response(r: &mut impl Read) -> io::Result<Response> {
    match read_u8(r)? {
        0 => Ok(Response::Exact(read_f64(r)?)),
        1 => Ok(Response::Perturbed(read_f64(r)?)),
        2 => Ok(Response::Interval(read_f64(r)?, read_f64(r)?)),
        3 => {
            let reason = RefusalReason::from_wire(read_u8(r)?)?;
            Ok(Response::Refused {
                reason,
                message: read_string(r)?,
            })
        }
        4 => Ok(Response::Error(read_string(r)?)),
        5 => Ok(Response::Bye),
        6 => Ok(Response::Record(read_bytes(r)?)),
        other => Err(bad(format!("unknown response tag {other}"))),
    }
}

/// Writes a pre-encoded frame in one call.
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    w.write_all(frame)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let bytes = encode_request(&req);
        let mut cursor = io::Cursor::new(bytes);
        assert_eq!(read_request(&mut cursor).unwrap(), req);
    }

    fn round_trip_response(resp: Response) {
        let bytes = encode_response(&resp);
        let mut cursor = io::Cursor::new(bytes);
        assert_eq!(read_response(&mut cursor).unwrap(), resp);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Query {
            user: 42,
            sql: "SELECT COUNT(*) FROM t".to_owned(),
        });
        round_trip_request(Request::Query {
            user: u64::MAX,
            sql: String::new(),
        });
        round_trip_request(Request::Bye { user: 7 });
        round_trip_request(Request::PirFetch {
            user: 3,
            index: 9_999_999,
        });
        round_trip_request(Request::PirFetch {
            user: u64::MAX,
            index: 0,
        });
        round_trip_request(Request::Append {
            user: 11,
            count: 5000,
        });
        round_trip_request(Request::Append {
            user: 0,
            count: u32::MAX,
        });
        round_trip_request(Request::Seal { user: 11 });
        round_trip_request(Request::Disguise { user: 6 });
        round_trip_request(Request::Restore { user: u64::MAX });
    }

    #[test]
    fn every_opcode_enforces_its_payload_length_and_no_prefix_parses() {
        let frames = [
            encode_request(&Request::Query {
                user: 9,
                sql: "SELECT COUNT(*) FROM t".to_owned(),
            }),
            encode_request(&Request::Bye { user: 9 }),
            encode_request(&Request::PirFetch { user: 9, index: 7 }),
            encode_request(&Request::Append { user: 9, count: 64 }),
            encode_request(&Request::Seal { user: 9 }),
            encode_request(&Request::Disguise { user: 9 }),
            encode_request(&Request::Restore { user: 9 }),
        ];
        for frame in &frames {
            let op = frame[0];
            assert!(read_request(&mut io::Cursor::new(frame)).is_ok(), "op {op}");
            // Every proper prefix of a well-formed frame fails to parse.
            for cut in 0..frame.len() {
                let mut cursor = io::Cursor::new(&frame[..cut]);
                assert!(read_request(&mut cursor).is_err(), "op {op} prefix {cut}");
            }
            // A length the opcode's rule forbids is rejected even when
            // that many payload bytes follow.
            let len = frame.len() - REQUEST_HEADER;
            let wrong = match op {
                opcode::QUERY => vec![MAX_PAYLOAD as usize + 1],
                _ if len == 0 => vec![1],
                _ => vec![len - 1, len + 1],
            };
            for bad_len in wrong {
                let mut bytes = frame[..9].to_vec();
                bytes.extend_from_slice(&(bad_len as u32).to_le_bytes());
                bytes.resize(REQUEST_HEADER + bad_len, 0);
                let parsed = read_request(&mut io::Cursor::new(bytes));
                assert!(parsed.is_err(), "op {op} took a {bad_len}-byte payload");
            }
        }
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Response::Exact(146.0));
        round_trip_response(Response::Perturbed(-3.75));
        round_trip_response(Response::Interval(1.0, 2.0));
        round_trip_response(Response::Refused {
            reason: RefusalReason::Budget,
            message: "privacy budget exhausted".to_owned(),
        });
        round_trip_response(Response::Error("parse error".to_owned()));
        round_trip_response(Response::Bye);
        round_trip_response(Response::Record(vec![0xDE, 0xAD, 0x00, 0x42]));
        round_trip_response(Response::Record(Vec::new()));
    }

    #[test]
    fn truncated_frames_are_io_errors_not_answers() {
        for resp in [
            Response::Perturbed(5.0),
            Response::Refused {
                reason: RefusalReason::Tracker,
                message: "tracker pattern detected".to_owned(),
            },
            Response::Record(vec![1, 2, 3, 4, 5, 6, 7, 8]),
        ] {
            let bytes = encode_response(&resp);
            // Every proper prefix must fail to parse — a partial write can
            // never be mistaken for a (different) complete answer.
            for cut in 0..bytes.len() {
                let mut cursor = io::Cursor::new(&bytes[..cut]);
                assert!(read_response(&mut cursor).is_err(), "prefix {cut} parsed");
            }
        }
    }

    #[test]
    fn oversized_length_prefixes_are_rejected() {
        let mut bytes = vec![4u8];
        bytes.extend_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        let mut cursor = io::Cursor::new(bytes);
        assert!(read_response(&mut cursor).is_err());
    }

    #[test]
    fn unknown_opcodes_and_tags_are_rejected() {
        let mut req = vec![9u8];
        req.extend_from_slice(&1u64.to_le_bytes());
        req.extend_from_slice(&0u32.to_le_bytes());
        assert!(read_request(&mut io::Cursor::new(req)).is_err());
        assert!(read_response(&mut io::Cursor::new(vec![9u8])).is_err());
    }
}
