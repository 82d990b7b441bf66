//! A blocking client for the framed protocol — used by the load
//! generator, the CI smoke script and the integration tests.

use crate::protocol::{encode_request, read_response, write_frame, Request, Response};
use std::io;
use std::net::{SocketAddr, TcpStream};

/// One connection to a `tdf-serve` server.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Submits one query on behalf of `user` and awaits the response.
    /// A truncated or malformed response frame is an `Err`, never a
    /// partial answer.
    pub fn query(&mut self, user: u64, sql: &str) -> io::Result<Response> {
        let sql = sql.to_owned();
        self.call(&Request::Query { user, sql })
    }

    /// Fetches one PIR record on behalf of `user`; the server batches
    /// concurrent fetches from all connections into fused sweeps.
    pub fn pir_fetch(&mut self, user: u64, index: u64) -> io::Result<Response> {
        self.call(&Request::PirFetch { user, index })
    }

    /// Appends `count` synthetic records to the server's mutable tail.
    /// The server answers with the new total row count as
    /// [`Response::Exact`].
    pub fn append(&mut self, user: u64, count: u32) -> io::Result<Response> {
        self.call(&Request::Append { user, count })
    }

    /// Freezes the server's mutable tail into a sealed segment. The
    /// server answers with the sealed-segment count as
    /// [`Response::Exact`].
    pub fn seal(&mut self, user: u64) -> io::Result<Response> {
        self.call(&Request::Seal { user })
    }

    /// Unsubscribes `user`: atomically disguises every ledger row they
    /// own. The server answers with the number of rows re-owned as
    /// [`Response::Exact`]; a wrong-state request (already disguised, no
    /// rows) is a typed policy refusal.
    pub fn disguise(&mut self, user: u64) -> io::Result<Response> {
        self.call(&Request::Disguise { user })
    }

    /// Resubscribes `user`: atomically restores their disguised rows bit
    /// for bit. The server answers with the number of rows returned as
    /// [`Response::Exact`].
    pub fn restore(&mut self, user: u64) -> io::Result<Response> {
        self.call(&Request::Restore { user })
    }

    /// Ends the session cleanly; the server acknowledges with
    /// [`Response::Bye`].
    pub fn bye(&mut self, user: u64) -> io::Result<Response> {
        self.call(&Request::Bye { user })
    }

    /// One round trip: the request frame out, the response frame in.
    fn call(&mut self, request: &Request) -> io::Result<Response> {
        write_frame(&mut self.stream, &encode_request(request))?;
        read_response(&mut self.stream)
    }
}
