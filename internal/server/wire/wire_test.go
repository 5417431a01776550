package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var trace TraceID
	for i := range trace {
		trace[i] = byte(i + 1)
	}
	frames := []Frame{
		{Type: MsgHello, ReqID: 1, Payload: []byte(`{"proto":1}`)},
		{Type: MsgQuery, ReqID: 0xDEADBEEF, Trace: trace, Span: 0x0102030405060708,
			Payload: []byte(`{"sql":"select r from r in OurRobots"}`)},
		{Type: MsgHelloOK, ReqID: 7, Span: 99},
		{Type: MsgCancel, ReqID: 42, Trace: trace},
		{Type: MsgError, ReqID: 3, Payload: []byte(`{"code":"PARSE","message":"x"}`)},
	}
	eq := func(got, want Frame) bool {
		return got.Type == want.Type && got.ReqID == want.ReqID &&
			got.Trace == want.Trace && got.Span == want.Span &&
			bytes.Equal(got.Payload, want.Payload)
	}
	var stream bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&stream, f); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	// Byte-level decode.
	b := stream.Bytes()
	for i, want := range frames {
		got, n, err := DecodeFrame(b)
		if err != nil {
			t.Fatalf("frame %d: DecodeFrame: %v", i, err)
		}
		if !eq(got, want) {
			t.Fatalf("frame %d: got %+v want %+v", i, got, want)
		}
		b = b[n:]
	}
	if len(b) != 0 {
		t.Fatalf("%d trailing bytes", len(b))
	}
	// Reader-level decode.
	r := bytes.NewReader(stream.Bytes())
	for i, want := range frames {
		got, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: ReadFrame: %v", i, err)
		}
		if !eq(got, want) {
			t.Fatalf("frame %d: got %+v want %+v", i, got, want)
		}
	}
	if _, err := ReadFrame(r); err != io.EOF {
		t.Fatalf("end of stream: got %v, want io.EOF", err)
	}
}

func TestDecodeFrameTruncated(t *testing.T) {
	full, err := EncodeFrame(Frame{Type: MsgQuery, ReqID: 9, Payload: []byte("0123456789")})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(full); cut++ {
		if _, n, err := DecodeFrame(full[:cut]); !errors.Is(err, ErrFrameTruncated) || n != 0 {
			t.Fatalf("cut=%d: got n=%d err=%v, want ErrFrameTruncated and 0 consumed", cut, n, err)
		}
	}
	// A truncated payload through the reader is ErrUnexpectedEOF.
	if _, err := ReadFrame(bytes.NewReader(full[:len(full)-1])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("ReadFrame truncated: %v", err)
	}
}

func TestFrameTooLarge(t *testing.T) {
	if _, err := EncodeFrame(Frame{Type: MsgResult, Payload: make([]byte, MaxPayload+1)}); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("encode oversize: %v", err)
	}
	// A hostile length prefix must fail before allocating the payload.
	hdr := make([]byte, HeaderSize)
	copy(hdr, []byte{0xFF, 0xFF, 0xFF, 0xFF, byte(MsgQuery), 0, 0, 0, 1})
	if _, n, err := DecodeFrame(hdr); !errors.Is(err, ErrFrameTooLarge) || n != 0 {
		t.Fatalf("decode oversize: n=%d err=%v", n, err)
	}
	if _, err := ReadFrame(bytes.NewReader(hdr)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("read oversize: %v", err)
	}
}

func TestMarshalUnmarshal(t *testing.T) {
	f, err := Marshal(MsgQuery, 5, Query{SQL: "select r from r in OurRobots"})
	if err != nil {
		t.Fatal(err)
	}
	var q Query
	if err := Unmarshal(f, &q); err != nil {
		t.Fatal(err)
	}
	if q.SQL != "select r from r in OurRobots" {
		t.Fatalf("round trip: %+v", q)
	}
	// Empty-body messages carry no payload.
	if f, err := Marshal(MsgCancel, 1, nil); err != nil || len(f.Payload) != 0 {
		t.Fatalf("nil body: payload %d bytes, err %v", len(f.Payload), err)
	}
	// Garbage payloads fail with a wrapped error, not a panic.
	if err := Unmarshal(Frame{Type: MsgQuery, Payload: []byte("{")}, &q); err == nil {
		t.Fatal("bad payload accepted")
	}
}

func TestCodesClosedSet(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Codes {
		if c == "" || seen[c] {
			t.Fatalf("empty or duplicate code %q", c)
		}
		seen[c] = true
	}
	for _, want := range []string{CodeParse, CodeQuery, CodeCanceled, CodeOverloaded,
		CodeShuttingDown, CodeBadRequest, CodeProtocol, CodeInternal} {
		if !seen[want] {
			t.Fatalf("code %q missing from Codes", want)
		}
	}
}

// BenchmarkFrameRoundTrip prices the framing layer itself — the number
// docs/SERVICE.md cites when arguing the codec is not the bottleneck.
func BenchmarkFrameRoundTrip(b *testing.B) {
	f, err := Marshal(MsgQuery, 1, Query{SQL: `select r.Name from r in OurRobots where r.Arm.MountedTool.ManufacturedBy.Location = "Utopia"`})
	if err != nil {
		b.Fatal(err)
	}
	enc, err := EncodeFrame(f)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, err := EncodeFrame(f)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := DecodeFrame(buf); err != nil {
			b.Fatal(err)
		}
	}
}
