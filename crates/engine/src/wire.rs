//! The binary conventions every byte stream of the system shares: the
//! checked payload [`codec`] primitives (readers over a `&[u8]` cursor,
//! writers into a `Vec<u8>`) and the length-prefixed [`frame`] format —
//! the WAL's log file and every `ddlf-server` request and response.
//! Every frame is written by one framer, [`frame::put_frame`], encoding
//! in place into a buffer its writer reuses, and read by one reader,
//! [`frame::read_frame_into`].

pub mod codec {
    //! Checked binary-codec primitives shared by every consumer of the
    //! binary conventions (1-byte tags, little-endian fixed-width
    //! integers, LEB128 varints, length-prefixed strings/byte vectors):
    //! the wire protocol in `ddlf-server` and the WAL record format in
    //! [`wal`](crate::wal). Readers take a `&mut &[u8]` cursor and
    //! advance it past what they consume; writers append to a
    //! `Vec<u8>`. One implementation means one place to harden — every
    //! reader bounds-checks before consuming, so a hostile or truncated
    //! buffer yields `None`, never a panic or a misread.

    /// Takes the next `N` bytes, if present.
    fn take<const N: usize>(b: &mut &[u8]) -> Option<[u8; N]> {
        let (head, rest) = b.split_first_chunk::<N>()?;
        *b = rest;
        Some(*head)
    }

    /// Reads one byte, if present.
    pub fn get_u8(b: &mut &[u8]) -> Option<u8> {
        take::<1>(b).map(|[v]| v)
    }

    /// Reads a little-endian `u32`, if present.
    pub fn get_u32(b: &mut &[u8]) -> Option<u32> {
        take(b).map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`, if present.
    pub fn get_u64(b: &mut &[u8]) -> Option<u64> {
        take(b).map(u64::from_le_bytes)
    }

    /// Writes a little-endian `u32`.
    pub fn put_u32(b: &mut Vec<u8>, v: u32) {
        b.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn put_u64(b: &mut Vec<u8>, v: u64) {
        b.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes `v` as an LEB128 varint: seven bits a byte, low group
    /// first, the high bit set on every byte but the last — 1 byte below
    /// 128, at most 10 for a `u64`.
    pub fn put_var(b: &mut Vec<u8>, mut v: u64) {
        while v >= 0x80 {
            b.push(v as u8 | 0x80);
            v >>= 7;
        }
        b.push(v as u8);
    }

    /// Reads an LEB128 varint as [`put_var`] writes it. Strict, so every
    /// value has exactly one encoding: a varint cut short, one longer
    /// than 10 bytes, one whose value overflows a `u64`, or one ending
    /// in a redundant zero byte (a value that fits fewer bytes) is
    /// malformed.
    pub fn get_var(b: &mut &[u8]) -> Option<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = get_u8(b)?;
            let bits = u64::from(byte & 0x7F);
            // The tenth byte holds the `u64`'s top bit alone.
            if (shift == 63 && bits > 1) || (shift > 0 && byte == 0) {
                return None;
            }
            v |= bits << shift;
            if byte & 0x80 == 0 {
                return Some(v);
            }
        }
        None
    }

    /// Reads a varint into a `u32` field; a value above `u32::MAX` is
    /// malformed.
    pub fn get_var_u32(b: &mut &[u8]) -> Option<u32> {
        u32::try_from(get_var(b)?).ok()
    }

    /// Writes `v` zigzag-encoded as a varint (0, -1, 1, -2, … become
    /// 0, 1, 2, 3, …), so a small negative number is short too.
    pub fn put_zigzag(b: &mut Vec<u8>, v: i64) {
        put_var(b, ((v << 1) ^ (v >> 63)) as u64);
    }

    /// Reads a zigzag varint as [`put_zigzag`] writes it.
    pub fn get_zigzag(b: &mut &[u8]) -> Option<i64> {
        let z = get_var(b)?;
        Some((z >> 1) as i64 ^ -((z & 1) as i64))
    }

    /// Reads a `0`/`1` boolean; any other byte is malformed.
    pub fn get_bool(b: &mut &[u8]) -> Option<bool> {
        match get_u8(b)? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    /// Reads a `u32`-length-prefixed byte vector, if fully present.
    pub fn get_bytes(b: &mut &[u8]) -> Option<Vec<u8>> {
        let len = get_u32(b)? as usize;
        let (bytes, rest) = b.split_at_checked(len)?;
        *b = rest;
        Some(bytes.to_vec())
    }

    /// Writes a `u32`-length-prefixed byte vector.
    ///
    /// # Panics
    /// Panics if `bytes` exceeds `u32::MAX` (nothing that large fits a
    /// frame anyway).
    pub fn put_bytes(b: &mut Vec<u8>, bytes: &[u8]) {
        put_u32(
            b,
            u32::try_from(bytes.len()).expect("byte vector fits a frame"),
        );
        b.extend_from_slice(bytes);
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    pub fn get_str(b: &mut &[u8]) -> Option<String> {
        let bytes = get_bytes(b)?;
        String::from_utf8(bytes).ok()
    }

    /// Writes a `u32`-length-prefixed UTF-8 string.
    ///
    /// # Panics
    /// Panics if `s` exceeds `u32::MAX` bytes.
    pub fn put_str(b: &mut Vec<u8>, s: &str) {
        put_bytes(b, s.as_bytes());
    }

    /// `Some(v)` iff the buffer was fully consumed — decoded messages
    /// with trailing bytes reject.
    pub fn finished<T>(b: &[u8], v: T) -> Option<T> {
        b.is_empty().then_some(v)
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use proptest::prelude::{any, prop_assert_eq, proptest};

        #[test]
        fn primitives_roundtrip_and_reject_short_buffers() {
            let mut b = vec![7];
            put_u32(&mut b, 9);
            put_u64(&mut b, u64::MAX);
            put_bytes(&mut b, &[1, 2, 3]);
            put_str(&mut b, "héllo");
            let mut r = b.as_slice();
            assert_eq!(get_u8(&mut r), Some(7));
            assert_eq!(get_u32(&mut r), Some(9));
            assert_eq!(get_u64(&mut r), Some(u64::MAX));
            assert_eq!(get_bytes(&mut r), Some(vec![1, 2, 3]));
            assert_eq!(get_str(&mut r).as_deref(), Some("héllo"));
            assert_eq!(finished(r, ()), Some(()));

            // Promises 100 bytes, delivers none.
            assert_eq!(get_bytes(&mut &100u32.to_le_bytes()[..]), None);
            assert_eq!(get_u64(&mut &[][..]), None);
            assert_eq!(get_bool(&mut &[2][..]), None);
        }

        proptest! {
            /// Every width, not only full-width words: each value is
            /// shifted right by a random amount.
            #[test]
            fn varints_roundtrip(
                (a, b, c) in (any::<u32>(), any::<u64>(), any::<i64>()),
                shift in 0u32..64,
            ) {
                let (a, b, c) = (a >> (shift % 32), b >> shift, c >> shift);
                let mut buf = Vec::new();
                put_var(&mut buf, a.into());
                put_var(&mut buf, b);
                put_zigzag(&mut buf, c);
                let mut r = buf.as_slice();
                prop_assert_eq!(get_var_u32(&mut r), Some(a));
                prop_assert_eq!(get_var(&mut r), Some(b));
                prop_assert_eq!(get_zigzag(&mut r), Some(c));
                prop_assert_eq!(finished(r, ()), Some(()));
            }
        }

        #[test]
        fn varint_edges_are_pinned() {
            let enc = |v: u64| {
                let mut b = Vec::new();
                put_var(&mut b, v);
                b
            };
            assert_eq!(enc(0), [0]);
            assert_eq!(enc(127), [0x7F]);
            assert_eq!(enc(128), [0x80, 0x01]);
            assert_eq!(enc(u64::MAX).len(), 10);
            let zig = |v: i64| {
                let mut b = Vec::new();
                put_zigzag(&mut b, v);
                b
            };
            assert_eq!([zig(0), zig(-1), zig(1), zig(-2)], [[0], [1], [2], [3]]);
            assert_eq!(zig(i64::MIN), enc(u64::MAX));
        }

        #[test]
        fn malformed_varints_reject() {
            // Cut short: a continuation byte with nothing after it.
            assert_eq!(get_var(&mut &[0x80][..]), None);
            assert_eq!(get_var(&mut &[][..]), None);
            // Eleven bytes: longer than any u64 needs.
            let mut long = vec![0x80; 10];
            long.push(0x01);
            assert_eq!(get_var(&mut long.as_slice()), None);
            // Ten bytes whose last carries more than the top bit.
            let mut over = vec![0xFF; 9];
            over.push(0x02);
            assert_eq!(get_var(&mut over.as_slice()), None);
            // A redundant zero byte: 1 written in two bytes.
            assert_eq!(get_var(&mut &[0x81, 0x00][..]), None);
            // u32::MAX + 1 in a u32 field; u32::MAX itself fits.
            let mut b = Vec::new();
            put_var(&mut b, u64::from(u32::MAX) + 1);
            assert_eq!(get_var_u32(&mut b.as_slice()), None);
            b.clear();
            put_var(&mut b, u32::MAX.into());
            assert_eq!(get_var_u32(&mut b.as_slice()), Some(u32::MAX));
            // Trailing bytes after a whole varint.
            let mut r = &[0x05, 0x00][..];
            assert_eq!(get_var(&mut r), Some(5));
            assert_eq!(finished(r, ()), None);
        }

        #[test]
        fn hostile_length_prefix_allocates_nothing() {
            // A length prefix of u32::MAX with a tiny payload must be
            // rejected by the bounds check before any allocation.
            let mut b = Vec::new();
            put_u32(&mut b, u32::MAX);
            b.push(1);
            assert_eq!(get_bytes(&mut b.as_slice()), None);
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
    //! both from a complete log (`Ok(false)`) and from real corruption
    //! (`InvalidData`: a length prefix that was never validly written).
    //!
    //! There is one writer and one reader, and both work in buffers the
    //! caller owns and reuses. [`put_frame`] encodes a payload in place
    //! behind a reserved prefix, then patches the length in — the log's
    //! appender and both ends of a connection frame through it, so it
    //! is the only code that writes a length prefix. [`read_frame_into`]
    //! reads the prefix and then the payload, so every caller reading a
    //! file or socket wraps it in an [`io::BufReader`] kept for the
    //! stream's life (recovery's log reader, both ends of a
    //! connection): a frame that arrived whole then costs one `read(2)`.
    //! It strips the prefix and distinguishes three stream conditions:
    //!
    //! * `Ok(true)` — one complete frame, now in the caller's buffer;
    //! * `Ok(false)` — clean EOF *between* frames (the peer closed after
    //!   a complete exchange);
    //! * `Err(UnexpectedEof)` — EOF *inside* a frame (a torn write), and
    //!   `Err(InvalidData)` — a length prefix above [`MAX_FRAME`]
    //!   (garbage or a hostile header; reading it would OOM the peer).

    use std::io::{self, Read};

    /// Upper bound on a frame's payload length (16 MiB). A prefix above
    /// this is rejected as garbage before any payload allocation.
    pub const MAX_FRAME: usize = 16 << 20;

    /// Appends one frame to `buf`: reserves the length prefix, lets
    /// `encode` append the payload in place behind it, then patches the
    /// length in. Returns the frame's size, prefix included.
    ///
    /// A payload above [`MAX_FRAME`] (the peer would reject it anyway)
    /// is refused with `InvalidData`, and `buf` is truncated back to
    /// exactly what it held before — no prefix, no partial payload.
    ///
    /// A socket writer sends the whole buffer in a **single** write: two
    /// small writes would land in separate TCP segments, and the
    /// Nagle/delayed-ACK interaction then stalls every round-trip by
    /// tens of milliseconds.
    pub fn put_frame(buf: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) -> io::Result<usize> {
        let start = buf.len();
        buf.extend_from_slice(&[0; 4]);
        encode(buf);
        let len = buf.len() - start - 4;
        match length_prefix(len) {
            Ok(prefix) => {
                buf[start..start + 4].copy_from_slice(&prefix);
                Ok(4 + len)
            }
            Err(e) => {
                buf.truncate(start);
                Err(e)
            }
        }
    }

    /// The length prefix of a `len`-byte payload; `InvalidData` when
    /// `len` exceeds [`MAX_FRAME`].
    fn length_prefix(len: usize) -> io::Result<[u8; 4]> {
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

    /// Reads one length-prefixed frame into a caller-owned buffer, so a
    /// reader of many frames allocates only when a frame outgrows every
    /// earlier one: `payload` is overwritten with the frame.
    ///
    /// Returns `Ok(false)` on clean EOF before any prefix byte;
    /// `Err(UnexpectedEof)` on EOF mid-prefix or mid-payload;
    /// `Err(InvalidData)` on a prefix above [`MAX_FRAME`].
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

        /// Frames `payload` onto `buf` through the one framer.
        fn put(buf: &mut Vec<u8>, payload: &[u8]) -> io::Result<usize> {
            put_frame(buf, |b| b.extend_from_slice(payload))
        }

        #[test]
        fn roundtrip_frames_in_sequence() {
            let mut buf = Vec::new();
            put(&mut buf, b"hello").unwrap();
            put(&mut buf, b"").unwrap();
            put(&mut buf, &[0xAB; 300]).unwrap();
            let mut r = buf.as_slice();
            let mut payload = Vec::new();
            for want in [&b"hello"[..], b"", &[0xAB; 300]] {
                assert!(read_frame_into(&mut r, &mut payload).unwrap());
                assert_eq!(payload, want);
            }
            assert!(!read_frame_into(&mut r, &mut payload).unwrap(), "clean EOF");
        }

        /// `put_frame` appends exactly one frame behind whatever the
        /// buffer already held, and an oversize payload leaves the
        /// buffer byte-for-byte as it was.
        #[test]
        fn put_frame_appends_one_frame_or_nothing() {
            let mut buf = vec![0xEE; 7];
            assert_eq!(put(&mut buf, &[1, 2, 3]).unwrap(), 7);
            assert_eq!(buf[..7], [0xEE; 7], "earlier bytes untouched");
            assert_eq!(buf[7..11], 3u32.to_le_bytes(), "prefix = payload length");
            assert_eq!(buf[11..], [1, 2, 3]);

            let before = buf.clone();
            let err = put_frame(&mut buf, |b| b.resize(b.len() + MAX_FRAME + 1, 0xAB));
            assert_eq!(err.unwrap_err().kind(), io::ErrorKind::InvalidData);
            assert_eq!(buf, before, "an oversize frame left bytes behind");
        }

        #[test]
        fn torn_frames_are_errors_not_eof() {
            let mut buf = Vec::new();
            put(&mut buf, b"payload").unwrap();
            let mut payload = Vec::new();
            // EOF inside the payload, then inside the prefix itself.
            for cut in [buf.len() - 2, 2] {
                assert_eq!(
                    read_frame_into(&mut &buf[..cut], &mut payload)
                        .unwrap_err()
                        .kind(),
                    io::ErrorKind::UnexpectedEof
                );
            }
        }

        #[test]
        fn hostile_length_prefix_rejected_before_allocation() {
            let mut payload = Vec::new();
            assert_eq!(
                read_frame_into(&mut &u32::MAX.to_le_bytes()[..], &mut payload)
                    .unwrap_err()
                    .kind(),
                io::ErrorKind::InvalidData
            );
            assert_eq!(payload.capacity(), 0);
        }
    }
}
