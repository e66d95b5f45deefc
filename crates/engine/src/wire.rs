//! The binary conventions every byte stream of the system shares: the
//! checked payload [`codec`] primitives and the length-prefixed
//! [`frame`] format — the WAL's log file and every `ddlf-server` request
//! and response.

pub mod codec {
    //! Checked binary-codec primitives shared by every consumer of the
    //! binary conventions (1-byte tags, little-endian fixed-width
    //! integers, length-prefixed strings/byte vectors): the wire
    //! protocol in `ddlf-server` and the WAL record format in
    //! [`wal`](crate::wal). One implementation means one place to harden —
    //! every reader bounds-checks before consuming, so a hostile or
    //! truncated buffer yields `None`, never a panic or a misread.

    use bytes::{Buf, BufMut, Bytes};

    /// Reads one byte, if present.
    pub fn get_u8(b: &mut Bytes) -> Option<u8> {
        (b.remaining() >= 1).then(|| Buf::get_u8(b))
    }

    /// Reads a little-endian `u32`, if present.
    pub fn get_u32(b: &mut Bytes) -> Option<u32> {
        (b.remaining() >= 4).then(|| Buf::get_u32_le(b))
    }

    /// Reads a little-endian `u64`, if present.
    pub fn get_u64(b: &mut Bytes) -> Option<u64> {
        (b.remaining() >= 8).then(|| Buf::get_u64_le(b))
    }

    /// Reads a `0`/`1` boolean; any other byte is malformed.
    pub fn get_bool(b: &mut Bytes) -> Option<bool> {
        match get_u8(b)? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    /// Reads a `u32`-length-prefixed byte vector, if fully present.
    pub fn get_bytes(b: &mut Bytes) -> Option<Vec<u8>> {
        let len = get_u32(b)? as usize;
        if b.remaining() < len {
            return None;
        }
        let out = b.chunk()[..len].to_vec();
        b.advance(len);
        Some(out)
    }

    /// Writes a `u32`-length-prefixed byte vector.
    ///
    /// # Panics
    /// Panics if `bytes` exceeds `u32::MAX` (nothing that large fits a
    /// frame anyway).
    pub fn put_bytes(b: &mut impl BufMut, bytes: &[u8]) {
        b.put_u32_le(u32::try_from(bytes.len()).expect("byte vector fits a frame"));
        b.put_slice(bytes);
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    pub fn get_str(b: &mut Bytes) -> Option<String> {
        let bytes = get_bytes(b)?;
        String::from_utf8(bytes).ok()
    }

    /// Writes a `u32`-length-prefixed UTF-8 string.
    ///
    /// # Panics
    /// Panics if `s` exceeds `u32::MAX` bytes.
    pub fn put_str(b: &mut impl BufMut, s: &str) {
        put_bytes(b, s.as_bytes());
    }

    /// `Some(v)` iff the buffer was fully consumed — decoded messages
    /// with trailing bytes reject.
    pub fn finished<T>(b: &Bytes, v: T) -> Option<T> {
        b.is_empty().then_some(v)
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use bytes::BytesMut;

        #[test]
        fn primitives_roundtrip_and_reject_short_buffers() {
            let mut b = BytesMut::new();
            b.put_u8(7);
            b.put_u32_le(9);
            b.put_u64_le(u64::MAX);
            put_bytes(&mut b, &[1, 2, 3]);
            put_str(&mut b, "héllo");
            let mut r = b.freeze();
            assert_eq!(get_u8(&mut r), Some(7));
            assert_eq!(get_u32(&mut r), Some(9));
            assert_eq!(get_u64(&mut r), Some(u64::MAX));
            assert_eq!(get_bytes(&mut r), Some(vec![1, 2, 3]));
            assert_eq!(get_str(&mut r).as_deref(), Some("héllo"));
            assert_eq!(finished(&r, ()), Some(()));

            let mut short: Bytes = {
                let mut b = BytesMut::new();
                b.put_u32_le(100); // promises 100 bytes, delivers none
                b.freeze()
            };
            assert_eq!(get_bytes(&mut short), None);
            assert_eq!(get_u64(&mut Bytes::new()), None);
            assert_eq!(get_bool(&mut Bytes::from_static(&[2])), None);
        }

        #[test]
        fn hostile_length_prefix_allocates_nothing() {
            // A length prefix of u32::MAX with a tiny payload must be
            // rejected by the bounds check before any allocation.
            let mut b = BytesMut::new();
            b.put_u32_le(u32::MAX);
            b.put_u8(1);
            let mut r = b.freeze();
            assert_eq!(get_bytes(&mut r), None);
        }
    }
}

pub mod frame {
    //! Length-prefixed framing for binary messages over byte streams.
    //!
    //! (Canonical system-wide description — this framing, the
    //! [`codec`](super::codec) conventions, and the WAL record grammar
    //! built on both — in `ARCHITECTURE.md` at the repository root.)
    //!
    //! The binary encodings built on these conventions (the `ddlf-server`
    //! request/response protocol, the WAL's records) are self-describing
    //! only given their length, so a stream transport needs a frame
    //! boundary. The format is minimal and symmetric:
    //!
    //! ```text
    //!   ┌────────────────┬──────────────────────┐
    //!   │ u32 LE: length │ length payload bytes │
    //!   └────────────────┴──────────────────────┘
    //! ```
    //!
    //! The same framing carries byte *streams* beyond sockets: the
    //! `ddlf-server` wire protocol frames its requests/responses, and
    //! `ddlf-engine`'s write-ahead log (`wal/log.wal`, the one log file
    //! of a WAL directory) is a sequence of these frames, each payload
    //! one binary `WalRecord` — see the record grammar in
    //! `ddlf_engine::wal`'s module docs. For a log file the
    //! error taxonomy below is what makes crash recovery clean: a torn
    //! final frame (`UnexpectedEof`) *is* the crash point — a torn
    //! append is always a prefix of a valid frame — distinguishable
    //! both from a complete log (`Ok(None)`) and from real corruption
    //! (`InvalidData`: a length prefix that was never validly written).
    //!
    //! [`write_frame`] prepends the prefix; [`read_frame`] strips it and
    //! distinguishes three stream conditions:
    //!
    //! * `Ok(Some(payload))` — one complete frame;
    //! * `Ok(None)` — clean EOF *between* frames (the peer closed after a
    //!   complete exchange);
    //! * `Err(UnexpectedEof)` — EOF *inside* a frame (a torn write), and
    //!   `Err(InvalidData)` — a length prefix above [`MAX_FRAME`]
    //!   (garbage or a hostile header; reading it would OOM the peer).

    use std::io::{self, Read, Write};

    /// Upper bound on a frame's payload length (16 MiB). A prefix above
    /// this is rejected as garbage before any payload allocation.
    pub const MAX_FRAME: usize = 16 << 20;

    /// Writes `payload` as one length-prefixed frame and flushes.
    ///
    /// Prefix and payload go out in a **single** write: two small writes
    /// would land in separate TCP segments, and the Nagle/delayed-ACK
    /// interaction then stalls every round-trip by tens of milliseconds.
    ///
    /// Errors with `InvalidData` when `payload` exceeds [`MAX_FRAME`]
    /// (the peer would reject it anyway), or with the underlying I/O
    /// error.
    pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
        let prefix = length_prefix(payload.len())?;
        let mut framed = Vec::with_capacity(4 + payload.len());
        framed.extend_from_slice(&prefix);
        framed.extend_from_slice(payload);
        w.write_all(&framed)?;
        w.flush()
    }

    /// The length prefix of a `len`-byte payload, for a writer that
    /// encodes the payload in place behind it; `InvalidData` when `len`
    /// exceeds [`MAX_FRAME`].
    pub fn length_prefix(len: usize) -> io::Result<[u8; 4]> {
        if len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame of {len} bytes exceeds MAX_FRAME {MAX_FRAME}"),
            ));
        }
        Ok(u32::try_from(len)
            .expect("MAX_FRAME fits u32")
            .to_le_bytes())
    }

    /// Reads one length-prefixed frame.
    ///
    /// Returns `Ok(None)` on clean EOF before any prefix byte;
    /// `Err(UnexpectedEof)` on EOF mid-prefix or mid-payload;
    /// `Err(InvalidData)` on a prefix above [`MAX_FRAME`].
    pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
        let mut payload = Vec::new();
        Ok(read_frame_into(r, &mut payload)?.then_some(payload))
    }

    /// [`read_frame`] into a caller-owned buffer, so a scan over many
    /// small frames allocates once: `payload` is overwritten with the
    /// frame, and `Ok(false)` is the clean EOF.
    pub fn read_frame_into(r: &mut impl Read, payload: &mut Vec<u8>) -> io::Result<bool> {
        let mut prefix = [0u8; 4];
        // Hand-rolled first read so EOF-at-a-boundary is distinguishable
        // from EOF inside the prefix.
        let mut got = 0;
        while got < prefix.len() {
            match r.read(&mut prefix[got..])? {
                0 if got == 0 => return Ok(false),
                0 => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "EOF inside frame length prefix",
                    ))
                }
                n => got += n,
            }
        }
        let len = u32::from_le_bytes(prefix) as usize;
        if len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame length {len} exceeds MAX_FRAME {MAX_FRAME}"),
            ));
        }
        payload.clear();
        payload.resize(len, 0);
        r.read_exact(payload)?;
        Ok(true)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn roundtrip_frames_in_sequence() {
            let mut buf = Vec::new();
            write_frame(&mut buf, b"hello").unwrap();
            write_frame(&mut buf, b"").unwrap();
            write_frame(&mut buf, &[0xAB; 300]).unwrap();
            let mut r = buf.as_slice();
            assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
            assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
            assert_eq!(read_frame(&mut r).unwrap().unwrap(), vec![0xAB; 300]);
            assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
        }

        #[test]
        fn torn_frames_are_errors_not_eof() {
            let mut buf = Vec::new();
            write_frame(&mut buf, b"payload").unwrap();
            // EOF inside the payload.
            let mut r = &buf[..buf.len() - 2];
            assert_eq!(
                read_frame(&mut r).unwrap_err().kind(),
                std::io::ErrorKind::UnexpectedEof
            );
            // EOF inside the prefix itself.
            let mut r = &buf[..2];
            assert_eq!(
                read_frame(&mut r).unwrap_err().kind(),
                std::io::ErrorKind::UnexpectedEof
            );
        }

        #[test]
        fn hostile_length_prefix_rejected_before_allocation() {
            let mut r: &[u8] = &u32::MAX.to_le_bytes();
            assert_eq!(
                read_frame(&mut r).unwrap_err().kind(),
                std::io::ErrorKind::InvalidData
            );
            let mut w = Vec::new();
            assert_eq!(
                write_frame(&mut w, &vec![0u8; MAX_FRAME + 1])
                    .unwrap_err()
                    .kind(),
                std::io::ErrorKind::InvalidData
            );
        }
    }
}
