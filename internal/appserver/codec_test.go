package appserver

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

func codecRequests() map[string]*Request {
	return map[string]*Request{
		"zero":       {},
		"nil params": {SessionID: "s-1", Action: "home"},
		"empty params": {
			SessionID: "s-2", Action: "logout", Params: map[string]string{},
		},
		"populated": {
			SessionID: "s-3", Action: "register",
			Params: map[string]string{
				"user": "uid-1", "newUser": "new-7", "fullName": "New User new-7",
				"email": "new-7@example.test", "empty": "",
			},
		},
		"non-ascii": {Action: "accountUpdate", Params: map[string]string{"address": "Straße 1 — Zürich"}},
	}
}

func codecResponses() map[string]*Response {
	return map[string]*Response{
		"zero":       {},
		"ok page":    {OK: true, Body: []byte(pageChrome + "<h1>Quote</h1>\n" + pageFooter)},
		"failure":    {Err: "trade: no such user uid-99"},
		"empty body": {OK: true, Body: []byte{}},
		"binary":     {OK: true, Body: []byte{0, 1, 2, 0xff, 0x80}},
	}
}

// sameRequest compares decoded requests; the codec carries no
// distinction between nil and empty Params (a lookup in either gives
// the same answer), so neither does the comparison.
func sameRequest(a, b *Request) bool {
	if a.SessionID != b.SessionID || a.Action != b.Action || len(a.Params) != len(b.Params) {
		return false
	}
	for k, v := range a.Params {
		if w, ok := b.Params[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// sameResponse compares decoded responses; an empty Body decodes nil.
func sameResponse(a, b *Response) bool {
	return a.OK == b.OK && a.Err == b.Err && bytes.Equal(a.Body, b.Body)
}

func mustEncode(t testing.TB, body any) []byte {
	t.Helper()
	data, err := pageCodec.EncodeBody(nil, body)
	if err != nil {
		t.Fatalf("encode %T: %v", body, err)
	}
	return data
}

func TestPageCodecRoundTrip(t *testing.T) {
	for name, req := range codecRequests() {
		t.Run("request/"+name, func(t *testing.T) {
			got := new(Request)
			if err := pageCodec.DecodeBody(mustEncode(t, req), got); err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !sameRequest(got, req) {
				t.Errorf("round trip:\n got %#v\nwant %#v", got, req)
			}
		})
	}
	for name, resp := range codecResponses() {
		t.Run("response/"+name, func(t *testing.T) {
			got := new(Response)
			if err := pageCodec.DecodeBody(mustEncode(t, resp), got); err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !sameResponse(got, resp) {
				t.Errorf("round trip:\n got %#v\nwant %#v", got, resp)
			}
		})
	}
}

// TestPageCodecBodyDoesNotAliasFrame checks that a decoded Body is a
// copy: the transport reuses the frame buffer for the next frame.
func TestPageCodecBodyDoesNotAliasFrame(t *testing.T) {
	data := mustEncode(t, &Response{OK: true, Body: []byte("<html>page</html>")})
	got := new(Response)
	if err := pageCodec.DecodeBody(data, got); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 'X'
	}
	if string(got.Body) != "<html>page</html>" {
		t.Fatalf("Body changed with the frame buffer: %q", got.Body)
	}
}

// TestPageCodecRejectsPrefixes decodes every strict prefix of every
// matrix encoding. Each must fail with an error: no panic, and no read
// past the prefix (the prefix is cut from a larger buffer filled with
// valid-looking bytes, so an over-read would decode them).
func TestPageCodecRejectsPrefixes(t *testing.T) {
	var encs [][]byte
	var news []func() any
	for _, req := range codecRequests() {
		encs = append(encs, mustEncode(t, req))
		news = append(news, func() any { return new(Request) })
	}
	for _, resp := range codecResponses() {
		encs = append(encs, mustEncode(t, resp))
		news = append(news, func() any { return new(Response) })
	}
	for i, data := range encs {
		for n := 0; n < len(data); n++ {
			buf := append(append([]byte(nil), data...), bytes.Repeat([]byte{1}, 64)...)
			if err := pageCodec.DecodeBody(buf[:n:n], news[i]()); err == nil {
				t.Errorf("encoding %d: prefix of %d/%d bytes decoded without error", i, n, len(data))
			}
		}
	}
}

func TestPageCodecRejectsTrailingBytes(t *testing.T) {
	data := append(mustEncode(t, &Response{OK: true, Body: []byte("x")}), 0)
	if err := pageCodec.DecodeBody(data, new(Response)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestPageCodecRejectsOversizedLength corrupts each length field to
// exceed the frame; the decoder must reject it rather than allocate or
// slice past the end.
func TestPageCodecRejectsOversizedLength(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<40)
	cases := map[string]struct {
		data []byte
		body any
	}{
		"body length": {
			data: append(append([]byte{1, 0}, huge...), "short"...),
			body: new(Response),
		},
		"err length": {
			data: append(append([]byte{0}, huge...), "short"...),
			body: new(Response),
		},
		"body one past end": {
			data: []byte{1, 0, 4, 'a', 'b', 'c'},
			body: new(Response),
		},
		"session length": {
			data: append(huge, "short"...),
			body: new(Request),
		},
		"param count": {
			data: append([]byte{0, 0}, huge...),
			body: new(Request),
		},
		"param count past pairs": {
			// Three pairs announced, bytes for one.
			data: []byte{0, 0, 3, 1, 'k', 1, 'v'},
			body: new(Request),
		},
		"bad OK byte": {
			data: []byte{2, 0, 0},
			body: new(Response),
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			if err := pageCodec.DecodeBody(tc.data, tc.body); err == nil {
				t.Fatal("oversized length accepted")
			}
		})
	}
}

func TestPageCodecRejectsForeignTypes(t *testing.T) {
	if _, err := pageCodec.EncodeBody(nil, "page"); err == nil {
		t.Error("encoded a string body")
	}
	if err := pageCodec.DecodeBody([]byte{0}, new(string)); err == nil {
		t.Error("decoded into a string")
	}
}

// FuzzPageCodec decodes arbitrary frames as both body types. Decoding
// must never panic, and whatever decodes must re-encode and decode to
// the same value.
func FuzzPageCodec(f *testing.F) {
	for _, req := range codecRequests() {
		f.Add(mustEncode(f, req))
	}
	for _, resp := range codecResponses() {
		f.Add(mustEncode(f, resp))
	}
	f.Add([]byte(strings.Repeat("\xff", 12)))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		if pageCodec.DecodeBody(data, &req) == nil {
			again := new(Request)
			if err := pageCodec.DecodeBody(mustEncode(t, &req), again); err != nil || !sameRequest(again, &req) {
				t.Fatalf("request re-encode: %v, %#v vs %#v", err, again, &req)
			}
		}
		var resp Response
		if pageCodec.DecodeBody(data, &resp) == nil {
			again := new(Response)
			if err := pageCodec.DecodeBody(mustEncode(t, &resp), again); err != nil || !sameResponse(again, &resp) {
				t.Fatalf("response re-encode: %v, %#v vs %#v", err, again, &resp)
			}
		}
	})
}
