package asr

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"asr/internal/gom"
	"asr/internal/storage"
)

// TestMaintainerCancellationSkipsBackoff: a cancelled maintainer
// context must turn a retriable fault into an immediate terminal
// failure — no backoff sleeps, no retry attempts — while still rolling
// back and quarantining cleanly. The retry policy here (many attempts,
// hour-long backoff) would hang the test for days if cancellation were
// ignored.
func TestMaintainerCancellationSkipsBackoff(t *testing.T) {
	r := newFaultyRig(t, 53)
	r.mt.SetRetryPolicy(50, time.Hour)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r.mt.SetContext(ctx)

	start := time.Now()
	tripped := false
	for _, pair := range r.mutableSources(t) {
		r.fi.Heal()
		r.fi.Schedule(storage.Fault{Op: storage.OpWrite, Permanent: true})
		r.db.Base.MustSetAttr(pair[0], "Next", gom.Ref(pair[1]))
		if r.mt.Err() != nil {
			tripped = true
			break
		}
	}
	if !tripped {
		t.Fatal("no update's maintenance hit the faulty device")
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancelled maintenance took %v — it slept through a backoff", elapsed)
	}

	err := r.mt.Err()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("maintenance error does not carry the cancellation: %v", err)
	}
	if !strings.Contains(err.Error(), "retry abandoned") {
		t.Fatalf("error does not say the retry was abandoned: %v", err)
	}
	if !r.ix.Quarantined() {
		t.Fatal("index not quarantined after abandoned maintenance")
	}
	if got := r.ix.Stats().Retries; got != 0 {
		t.Fatalf("Retries = %d, want 0 under a cancelled context", got)
	}

	// A live context restores normal retry behaviour after repair.
	r.fi.Heal()
	r.mt.SetContext(context.Background())
	r.mt.SetRetryPolicy(3, time.Microsecond)
	if _, err := r.ix.Repair(); err != nil {
		t.Fatalf("Repair: %v", err)
	}
	r.fi.Schedule(storage.Fault{Op: storage.OpWrite}) // one-shot: retriable
	src, dst := r.mutableSource(t)
	r.db.Base.MustSetAttr(src, "Next", gom.Ref(dst))
	if err := r.mt.Err(); err != nil {
		t.Fatalf("maintenance with restored context failed: %v", err)
	}
	if err := verifyClean(r.ix); err != nil {
		t.Fatal(err)
	}
}
