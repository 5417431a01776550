package server

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"asr/internal/server/wire"
	"asr/internal/storage"
)

// TestQueryErrorCode pins the engine-failure → wire-code mapping: every
// storage sentinel, however deeply wrapped, is the server's problem
// (INTERNAL); anything else the engine
// returns is the query's (QUERY); and the request context decides
// between DEADLINE_EXCEEDED and CANCELED before the error is looked at.
func TestQueryErrorCode(t *testing.T) {
	live := context.Background()
	expired, cancelExpired := context.WithTimeout(live, 0)
	defer cancelExpired()
	<-expired.Done()
	canceled, cancel := context.WithCancel(live)
	cancel()

	wrapped := func(err error) error {
		return fmt.Errorf("query: prefilter: %w", fmt.Errorf("btree: load page 7: %w", err))
	}
	cases := []struct {
		name string
		ctx  context.Context
		err  error
		want string
	}{
		{"injected fault", live, wrapped(storage.ErrInjectedFault), wire.CodeInternal},
		{"corrupt page", live, wrapped(storage.ErrCorruptPage), wire.CodeInternal},
		{"simulated crash", live, wrapped(storage.ErrCrashed), wire.CodeInternal},
		{"pool exhausted", live, wrapped(storage.ErrPoolExhausted), wire.CodeInternal},
		{"plain engine error", live, errors.New(`query: unknown collection "Nope"`), wire.CodeQuery},
		{"expired request deadline", expired, wrapped(storage.ErrPoolExhausted), wire.CodeDeadlineExceeded},
		{"canceled request", canceled, errors.New("query: anything"), wire.CodeCanceled},
		{"cancellation surfacing from below", live, wrapped(context.Canceled), wire.CodeCanceled},
	}
	for _, tc := range cases {
		if got := queryErrorCode(tc.ctx, tc.err); got != tc.want {
			t.Errorf("%s: queryErrorCode(%v) = %s, want %s", tc.name, tc.err, got, tc.want)
		}
	}
}
