package client

import (
	"errors"
	"fmt"
	"io"
	"net"
	"testing"

	"asr/internal/server/wire"
)

// TestErrorMapping walks every error code the server can emit
// (wire.Codes is a closed set) and checks each maps to a distinct
// typed sentinel that errors.Is recognizes through *ServerError — the
// contract callers branch on.
func TestErrorMapping(t *testing.T) {
	want := map[string]error{
		wire.CodeParse:            ErrParse,
		wire.CodeQuery:            ErrQuery,
		wire.CodeCanceled:         ErrCanceled,
		wire.CodeDeadlineExceeded: ErrDeadlineExceeded,
		wire.CodeOverloaded:       ErrOverloaded,
		wire.CodeShuttingDown:     ErrShuttingDown,
		wire.CodeBadRequest:       ErrBadRequest,
		wire.CodeProtocol:         ErrProtocol,
		wire.CodeInternal:         ErrInternal,
	}
	if len(want) != len(wire.Codes) {
		t.Fatalf("mapping covers %d codes, wire defines %d — update both", len(want), len(wire.Codes))
	}
	seen := map[error]string{}
	for _, code := range wire.Codes {
		sentinel, ok := want[code]
		if !ok {
			t.Fatalf("wire code %q has no client sentinel", code)
		}
		if prev, dup := seen[sentinel]; dup {
			t.Fatalf("codes %q and %q share a sentinel", prev, code)
		}
		seen[sentinel] = code

		if got := ErrFor(code); got != sentinel {
			t.Fatalf("ErrFor(%q) = %v, want %v", code, got, sentinel)
		}
		se := &ServerError{Code: code, Message: "detail"}
		if !errors.Is(se, sentinel) {
			t.Fatalf("errors.Is(*ServerError{%q}, sentinel) = false", code)
		}
		// No cross-talk: a ServerError matches only its own sentinel.
		for otherCode, other := range want {
			if otherCode != code && errors.Is(se, other) {
				t.Fatalf("*ServerError{%q} also matches sentinel for %q", code, otherCode)
			}
		}
		if se.Error() == "" || sentinel.Error() == "" {
			t.Fatal("empty error text")
		}
	}
	// Unknown codes (a server newer than the client) degrade to
	// ErrInternal rather than panicking or matching nothing.
	if got := ErrFor("FUTURE_CODE"); got != ErrInternal {
		t.Fatalf("ErrFor(unknown) = %v, want ErrInternal", got)
	}
	if !errors.Is(&ServerError{Code: "FUTURE_CODE"}, ErrInternal) {
		t.Fatal("unknown-code ServerError should match ErrInternal")
	}
}

// TestConnLostSemantics: ErrConnLost (transport failure) is a subset of
// ErrConnClosed — old callers matching ErrConnClosed keep working — but
// a deliberate local Close never reads as a lost transport.
func TestConnLostSemantics(t *testing.T) {
	lost := fmt.Errorf("%w: %v", ErrConnLost, io.EOF)
	if !errors.Is(lost, ErrConnLost) {
		t.Fatal("wrapped transport failure must match ErrConnLost")
	}
	if !errors.Is(lost, ErrConnClosed) {
		t.Fatal("ErrConnLost must also match ErrConnClosed (compat)")
	}
	if errors.Is(ErrConnClosed, ErrConnLost) {
		t.Fatal("a deliberate Close must not read as a lost transport")
	}
}

// TestDialFailureIsConnLost: a connect that fails reaches the caller
// typed, as ErrConnLost, like a connection lost after the handshake.
func TestDialFailureIsConnLost(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	if _, err := Dial(addr); !errors.Is(err, ErrConnLost) {
		t.Fatalf("Dial of a closed port = %v, want ErrConnLost", err)
	}
}
