//! Load-generator clients for both wire dialects. Each request leaves the
//! client in one `write_all` on a `TCP_NODELAY` socket, so any delay the
//! benchmark measures is the server's, not the generator's.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

use cdi_serve::cdipack::{self, WIRE_MAGIC};
use cdi_serve::proto::{Request, Response};

/// A framed cdipack request, ready to write.
pub fn pack_frame(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    cdipack::write_frame(&mut out, &cdipack::encode_request(req))
        .expect("writing into a Vec cannot fail");
    out
}

/// Open a cdipack connection: a write half (magic already sent) and a
/// buffered read half, for the open-loop writer and reader threads.
pub fn pack_connect(addr: SocketAddr) -> std::io::Result<(TcpStream, BufReader<TcpStream>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.write_all(&WIRE_MAGIC)?;
    let reader = BufReader::new(stream.try_clone()?);
    Ok((stream, reader))
}

/// Read one framed cdipack response.
pub fn pack_read(reader: &mut BufReader<TcpStream>) -> Result<Response, String> {
    let payload = cdipack::read_frame(reader)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| "connection closed".to_string())?;
    cdipack::decode_response(&payload).map_err(|e| e.to_string())
}

/// A closed-loop JSON-lines client.
#[derive(Debug)]
pub struct JsonClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl JsonClient {
    /// Connect to a server.
    pub fn connect(addr: SocketAddr) -> std::io::Result<JsonClient> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(JsonClient {
            reader,
            writer,
            line: String::new(),
        })
    }

    /// Send one request and wait for its response.
    pub fn call(&mut self, req: &Request) -> Result<Response, String> {
        let mut out = serde_json::to_string(req).map_err(|e| e.to_string())?;
        out.push('\n');
        self.writer
            .write_all(out.as_bytes())
            .map_err(|e| e.to_string())?;
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("connection closed".to_string()),
            Ok(_) => serde_json::from_str(&self.line).map_err(|e| e.to_string()),
            Err(e) => Err(e.to_string()),
        }
    }
}
