//! A from-scratch HTTP/1.1 stack for the MathCloud platform.
//!
//! The paper's platform is built on Jersey + Jetty; this crate is the Rust
//! replacement, written directly on `std::net`:
//!
//! * [`Request`] / [`Response`] / [`Headers`] / [`Method`] / [`StatusCode`] —
//!   the message model,
//! * [`Url`] plus percent-encoding and query-string codecs,
//! * [`Router`] — method + path-template dispatch (`/services/{name}/jobs/{id}`),
//! * [`Server`] — a blocking server with a worker thread pool and keep-alive,
//! * [`Client`] — a blocking client used by the catalogue, the workflow
//!   engine and the command-line tools, with a fault-tolerant transport
//!   ([`RetryPolicy`], per-authority circuit breakers — see [`transport`]).
//!
//! # Examples
//!
//! ```
//! use mathcloud_http::{Client, Response, Router, Server};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut router = Router::new();
//! router.get("/hello/{name}", |_req, params| {
//!     Response::text(200, &format!("hello, {}", params.get("name").unwrap()))
//! });
//! let server = Server::bind("127.0.0.1:0", router)?;
//! let url = format!("http://{}/hello/world", server.local_addr());
//!
//! let resp = Client::new().get(&url)?;
//! assert_eq!(resp.status.as_u16(), 200);
//! assert_eq!(resp.body_string(), "hello, world");
//! # server.shutdown();
//! # Ok(())
//! # }
//! ```

pub mod client;
mod conn;
pub mod message;
pub mod router;
pub mod server;
pub mod sse;
pub mod transport;
pub mod url;
pub mod wire;

pub use client::{Client, ClientError};
pub use message::{
    BodyStream, Headers, Method, Request, Response, StatusCode, StreamControl, Version,
    IDEMPOTENCY_KEY_HEADER, MEMO_HIT_HEADER,
};
pub use router::{PathParams, Router};
pub use server::{Server, ServerConfig};
pub use transport::{BreakerConfig, BreakerState, CircuitBreaker, RetryPolicy};
pub use url::{decode_query, encode_query, percent_decode, percent_encode, Url, UrlError};
