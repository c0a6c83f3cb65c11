package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"sync/atomic"
)

// DefaultMaxFrame bounds a single frame's payload. Anything larger (or
// a nonsensical length prefix, e.g. from an HTTP client poking the
// port) is treated as a protocol violation and the connection dropped.
const DefaultMaxFrame = 16 << 20

// A frame is a 4-byte big-endian payload length followed by the
// payload; the payload is gob(frameHeader) ++ body. The header always
// travels through a persistent per-connection gob encoder, so gob type
// definitions are sent once per connection rather than once per
// message. That matters for the experiments: per-message typedef
// overhead would inflate exactly the small-message protocols whose byte
// counts Figure 8 compares. A body is either the next message of the
// same gob stream or, under a BodyCodec, that codec's raw bytes — gob
// messages are self-delimiting, so after the header decode the
// remainder of the frame is exactly the body. The application-server
// protocol installs its binary codec on both ends before the first
// frame (WithBodyCodec, WithServerBodyCodec), so its bodies are never
// gob; the database protocol starts in gob and switches once its
// handshake settles.

// BodyCodec encodes and decodes message bodies inside the frame format.
// The frame header stays gob regardless; a codec only replaces the body
// encoding, which is where the volume is. Both peers must use it from
// the same frame on: either from the first frame, installed on both
// ends at construction, or from a boundary the protocol layer
// negotiates.
type BodyCodec interface {
	// Name identifies the codec during negotiation and in metrics.
	Name() string
	// EncodeBody appends body's encoding to dst and returns the
	// extended slice.
	EncodeBody(dst []byte, body any) ([]byte, error)
	// DecodeBody decodes one body from data, the remainder of a frame.
	DecodeBody(data []byte, body any) error
}

// frameWriter frames messages onto a connection. Not safe for
// concurrent use; callers hold a write mutex (which also guards codec).
type frameWriter struct {
	bw      *bufio.Writer
	scratch bytes.Buffer
	enc     *gob.Encoder
	lenBuf  [4]byte
	codec   BodyCodec
	bodyBuf []byte
}

func newFrameWriter(w io.Writer) *frameWriter {
	fw := &frameWriter{bw: bufio.NewWriter(w)}
	fw.enc = gob.NewEncoder(&fw.scratch)
	return fw
}

// writeFrame encodes header+body as one frame and flushes it. On
// success it returns the frame's size on the wire (prefix included); on
// a write or flush error it returns how many of the frame's bytes still
// reached the socket, so callers can account partially-sent traffic —
// under fault injection those bytes are real load on the shared path,
// and dropping them from Stats.BytesSent skews the Figure-8 comparison.
func (fw *frameWriter) writeFrame(h *frameHeader, body any) (int, error) {
	fw.scratch.Reset()
	if err := fw.enc.Encode(h); err != nil {
		return 0, err
	}
	var bodyBytes []byte
	if fw.codec != nil {
		var err error
		fw.bodyBuf, err = fw.codec.EncodeBody(fw.bodyBuf[:0], body)
		if err != nil {
			return 0, err
		}
		bodyBytes = fw.bodyBuf
	} else if err := fw.enc.Encode(body); err != nil {
		return 0, err
	}
	n := fw.scratch.Len() + len(bodyBytes)
	binary.BigEndian.PutUint32(fw.lenBuf[:], uint32(n))
	// From here on every byte handed to bw may reach the socket even if
	// a later write fails; track acceptance so the error paths can
	// report the flushed count instead of 0.
	preBuffered := fw.bw.Buffered()
	accepted := 0
	k, err := fw.bw.Write(fw.lenBuf[:])
	accepted += k
	if err != nil {
		return fw.flushedBytes(preBuffered, accepted), err
	}
	k, err = fw.bw.Write(fw.scratch.Bytes())
	accepted += k
	if err != nil {
		return fw.flushedBytes(preBuffered, accepted), err
	}
	if len(bodyBytes) > 0 {
		k, err = fw.bw.Write(bodyBytes)
		accepted += k
		if err != nil {
			return fw.flushedBytes(preBuffered, accepted), err
		}
	}
	if err := fw.bw.Flush(); err != nil {
		return fw.flushedBytes(preBuffered, accepted), err
	}
	return n + 4, nil
}

// flushedBytes estimates how many bytes reached the socket after a
// failed write or flush: everything the buffered writer accepted (plus
// any residue already buffered before this frame) minus what still sits
// in its buffer.
func (fw *frameWriter) flushedBytes(preBuffered, accepted int) int {
	f := preBuffered + accepted - fw.bw.Buffered()
	if f < 0 {
		f = 0
	}
	return f
}

// chunkReader serves gob exactly one frame's payload. It implements
// io.ByteReader so gob.NewDecoder does NOT wrap it in its own bufio
// and read ahead past the frame boundary.
type chunkReader struct {
	buf []byte
	off int
}

func (c *chunkReader) reset(b []byte) { c.buf, c.off = b, 0 }

// rest returns the undecoded remainder of the current frame and marks
// it consumed — the body bytes once the header has been gob-decoded.
func (c *chunkReader) rest() []byte {
	b := c.buf[c.off:]
	c.off = len(c.buf)
	return b
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if c.off >= len(c.buf) {
		return 0, io.EOF
	}
	n := copy(p, c.buf[c.off:])
	c.off += n
	return n, nil
}

func (c *chunkReader) ReadByte() (byte, error) {
	if c.off >= len(c.buf) {
		return 0, io.EOF
	}
	b := c.buf[c.off]
	c.off++
	return b, nil
}

// codecRef boxes a BodyCodec for atomic publication: the codec is
// installed by a handshake running on another goroutine while the
// reader goroutine is blocked in readFrame, and the network round trip
// between those moments is not a happens-before edge the race detector
// recognizes.
type codecRef struct{ c BodyCodec }

// frameReader reads frames and decodes their messages through a
// persistent gob stream (headers always; bodies until a codec is
// installed). Reads are resumable: a deadline-induced timeout mid-frame
// preserves the partial length/payload state so the read continues
// cleanly after the wakeup is handled — the client reader relies on
// this to expire pending calls without corrupting the stream. The
// payload buffer is per-connection and grow-only: frames are decoded
// before the next readFrame, so the buffer can be reused instead of
// allocated per frame.
type frameReader struct {
	r        io.Reader
	maxFrame int
	lenBuf   [4]byte
	lenOff   int
	payload  []byte
	payOff   int
	inFrame  bool
	chunk    chunkReader
	dec      *gob.Decoder
	codec    atomic.Pointer[codecRef]
}

func newFrameReader(r io.Reader, maxFrame int) *frameReader {
	fr := &frameReader{r: r, maxFrame: maxFrame}
	fr.dec = gob.NewDecoder(&fr.chunk)
	return fr
}

// setCodec installs a body codec, effective from the next frame the
// reader starts decoding. Safe to call from a goroutine other than the
// reader's.
func (fr *frameReader) setCodec(c BodyCodec) { fr.codec.Store(&codecRef{c: c}) }

// readFrame reads the next frame into the decode buffer and returns
// its size on the wire. When a read deadline fires, onTimeout decides:
// return true to resume the (possibly partial) read, false to abort
// with the timeout error. A nil onTimeout aborts.
func (fr *frameReader) readFrame(onTimeout func() bool) (int, error) {
	for fr.lenOff < 4 {
		n, err := fr.r.Read(fr.lenBuf[fr.lenOff:])
		fr.lenOff += n
		if err != nil {
			if isTimeout(err) && onTimeout != nil && onTimeout() {
				continue
			}
			return 0, err
		}
	}
	size := int(binary.BigEndian.Uint32(fr.lenBuf[:]))
	if size <= 0 || size > fr.maxFrame {
		return 0, fmt.Errorf("wire: bad frame length %d", size)
	}
	if !fr.inFrame {
		if cap(fr.payload) < size {
			fr.payload = make([]byte, size)
		}
		fr.payload = fr.payload[:size]
		fr.payOff = 0
		fr.inFrame = true
	}
	for fr.payOff < len(fr.payload) {
		n, err := fr.r.Read(fr.payload[fr.payOff:])
		fr.payOff += n
		if err != nil {
			if isTimeout(err) && onTimeout != nil && onTimeout() {
				continue
			}
			return 0, err
		}
	}
	fr.chunk.reset(fr.payload)
	fr.inFrame = false
	fr.lenOff = 0
	return size + 4, nil
}

func (fr *frameReader) decode(v any) error { return fr.dec.Decode(v) }

// decodeBody decodes the remainder of the current frame as a message
// body: through the persistent gob stream by default, or the installed
// body codec's raw bytes.
func (fr *frameReader) decodeBody(v any) error {
	if ref := fr.codec.Load(); ref != nil && ref.c != nil {
		return ref.c.DecodeBody(fr.chunk.rest(), v)
	}
	return fr.dec.Decode(v)
}
