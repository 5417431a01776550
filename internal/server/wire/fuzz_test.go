package wire

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzFrameDecode feeds arbitrary bytes — including truncated tails,
// oversize length prefixes, and valid frames with flipped bits — to the
// frame decoder, which must either decode a frame that re-encodes to
// the consumed bytes or fail with a typed error consuming nothing, and
// never panic. The shape mirrors FuzzWALRecordDecode in
// internal/storage: both codecs sit on untrusted byte streams (a crash-
// recovered log there, the network here) and carry the same totality
// contract.
func FuzzFrameDecode(f *testing.F) {
	q, _ := Marshal(MsgQuery, 7, Query{SQL: "select r from r in OurRobots"})
	q.Trace = TraceID{0xAB, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 0xCD}
	q.Span = 0xFEEDFACE
	qb, _ := EncodeFrame(q)
	e, _ := Marshal(MsgError, 7, ErrorBody{Code: CodeParse, Message: "no"})
	eb, _ := EncodeFrame(e)
	cancel, _ := EncodeFrame(Frame{Type: MsgCancel, ReqID: 1})
	f.Add(qb)
	f.Add(eb)
	f.Add(cancel)
	f.Add(append(append([]byte{}, qb...), cancel...)) // two frames back to back
	f.Add(qb[:len(qb)/2])                             // torn tail
	flipped := append([]byte{}, qb...)
	flipped[HeaderSize+2] ^= 0x20 // bit flip inside the body
	f.Add(flipped)
	f.Add([]byte{})
	hostile := make([]byte, HeaderSize) // hostile length, full header
	copy(hostile, []byte{0xFF, 0xFF, 0xFF, 0xFF, 3, 0, 0, 0, 1})
	f.Add(hostile)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 3, 0, 0, 0, 1}) // hostile length, torn header
	f.Add(bytes.Repeat([]byte{0x00}, HeaderSize))        // empty payload, type 0

	f.Fuzz(func(t *testing.T, b []byte) {
		fr, n, err := DecodeFrame(b)
		if err != nil {
			if !errors.Is(err, ErrFrameTruncated) && !errors.Is(err, ErrFrameTooLarge) {
				t.Fatalf("unexpected error type: %v", err)
			}
			if n != 0 {
				t.Fatalf("failed decode consumed %d bytes", n)
			}
			return
		}
		if n < HeaderSize || n > len(b) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(b))
		}
		// A decoded frame re-encodes to exactly the bytes it came from.
		enc, err := EncodeFrame(fr)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if !bytes.Equal(enc, b[:n]) {
			t.Fatalf("re-encode mismatch: %x vs %x", enc, b[:n])
		}
		// The stream reader agrees with the byte decoder.
		rf, rerr := ReadFrame(bytes.NewReader(b))
		if rerr != nil {
			t.Fatalf("ReadFrame disagrees with DecodeFrame: %v", rerr)
		}
		if rf.Type != fr.Type || rf.ReqID != fr.ReqID || rf.Trace != fr.Trace ||
			rf.Span != fr.Span || !bytes.Equal(rf.Payload, fr.Payload) {
			t.Fatalf("ReadFrame mismatch: %+v vs %+v", rf, fr)
		}
	})
}
