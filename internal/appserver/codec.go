package appserver

import (
	"encoding/binary"
	"fmt"

	"edgeejb/internal/wire"
)

// pageCodec is the hand-rolled binary body codec of the client
// protocol. Every client and server of this protocol is built from this
// package, so both ends install it from the first frame (wire's
// WithBodyCodec / WithServerBodyCodec): there is no handshake and no
// other body encoding. Layouts:
//
//	Request:  SessionID, Action, n, then n (key, value) pairs
//	Response: OK byte (0 or 1), Err, Body
//
// Strings, Body and n are uvarint-length-prefixed or uvarint-counted.
// A decoded Request with no parameters has nil Params. Decoding copies
// every string and Body out of the frame, whose buffer the transport
// reuses for the next frame.
var pageCodec wire.BodyCodec = binaryCodec{}

type binaryCodec struct{}

func (binaryCodec) Name() string { return "appserver-binary" }

func (binaryCodec) EncodeBody(dst []byte, body any) ([]byte, error) {
	switch b := body.(type) {
	case *Request:
		dst = appendString(dst, b.SessionID)
		dst = appendString(dst, b.Action)
		dst = binary.AppendUvarint(dst, uint64(len(b.Params)))
		for k, v := range b.Params {
			dst = appendString(dst, k)
			dst = appendString(dst, v)
		}
		return dst, nil
	case *Response:
		if b.OK {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
		dst = appendString(dst, b.Err)
		dst = binary.AppendUvarint(dst, uint64(len(b.Body)))
		return append(dst, b.Body...), nil
	default:
		return nil, fmt.Errorf("appserver: codec cannot encode %T", body)
	}
}

func (binaryCodec) DecodeBody(data []byte, body any) error {
	r := &breader{b: data}
	switch b := body.(type) {
	case *Request:
		b.SessionID = r.str()
		b.Action = r.str()
		// A pair takes at least two bytes, which bounds the map's size
		// hint by the rest of the frame.
		if n := r.length(); n > (len(r.b)-r.off)/2 {
			r.fail()
		} else if n > 0 {
			b.Params = make(map[string]string, n)
			for i := 0; i < n && r.err == nil; i++ {
				k := r.str()
				b.Params[k] = r.str()
			}
		}
	case *Response:
		ok := r.byte1()
		if ok > 1 {
			r.fail()
		}
		b.OK = ok == 1
		b.Err = r.str()
		if n := r.length(); n > 0 {
			b.Body = append([]byte(nil), r.b[r.off:r.off+n]...)
			r.off += n
		}
	default:
		return fmt.Errorf("appserver: codec cannot decode %T", body)
	}
	if r.err == nil && r.off != len(r.b) {
		r.fail()
	}
	return r.err
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// breader reads the codec's primitives with a sticky error: after the
// first malformed read every further read returns a zero value, and
// DecodeBody reports the error once.
type breader struct {
	b   []byte
	off int
	err error
}

func (r *breader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("appserver: codec: truncated or malformed body at offset %d", r.off)
	}
}

func (r *breader) byte1() byte {
	if r.err != nil || r.off >= len(r.b) {
		r.fail()
		return 0
	}
	c := r.b[r.off]
	r.off++
	return c
}

// length reads a length or count, rejecting any that runs past the end
// of the frame.
func (r *breader) length() int {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	if v > uint64(len(r.b)-r.off) {
		r.fail()
		return 0
	}
	return int(v)
}

func (r *breader) str() string {
	n := r.length()
	if n == 0 {
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}
