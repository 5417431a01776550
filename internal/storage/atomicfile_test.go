package storage_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"asr/internal/dump"
	"asr/internal/paperdb"
	"asr/internal/storage"
)

// TestSaveToCrashBaseSnapshotStages kills the rewrite of BASE.gom — the
// only persisted copy of the object base — at each stage of
// AtomicWriteFile. Before the rename ("written", "synced") the previous
// snapshot must be byte-identical and loadable; after it ("renamed") the
// new one must be. Then dump.SaveFile itself: it goes through the same
// function (no .tmp left behind), and with its temp name blocked it
// fails without touching the snapshot — it has no in-place fallback.
func TestSaveToCrashBaseSnapshotStages(t *testing.T) {
	path := filepath.Join(t.TempDir(), "base.gom")
	r := paperdb.BuildRobots()
	if err := dump.SaveFile(r.Base, path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	oldCount := r.Base.Count()
	if _, err := r.Base.New(r.Schema.MustLookup("ROBOT")); err != nil {
		t.Fatal(err)
	}
	var next bytes.Buffer
	if err := dump.Save(r.Base, &next); err != nil {
		t.Fatal(err)
	}

	errCrash := errors.New("injected crash")
	for _, stage := range []string{"written", "synced", "renamed"} {
		if err := os.WriteFile(path, before, 0o644); err != nil {
			t.Fatal(err)
		}
		err := storage.AtomicWriteFile(path, next.Bytes(), nil, func(at string) error {
			if at == stage {
				return fmt.Errorf("%w at %s", errCrash, at)
			}
			return nil
		})
		if !errors.Is(err, errCrash) {
			t.Fatalf("crash at %q: got %v, want the injected crash", stage, err)
		}
		want, wantCount := before, oldCount
		if stage == "renamed" {
			want, wantCount = next.Bytes(), oldCount+1
		}
		got, err := os.ReadFile(path)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("crash at %q: snapshot is not the expected complete document (err %v)", stage, err)
		}
		ob, err := dump.LoadFile(path)
		if err != nil || ob.Count() != wantCount {
			t.Fatalf("crash at %q: snapshot loads %v objects, err %v; want %d", stage, ob, err, wantCount)
		}
	}

	// A clean save after the aborted attempts overwrites the stale temp
	// file and leaves none.
	if err := dump.SaveFile(r.Base, path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("clean SaveFile left %s.tmp (stat err %v)", path, err)
	}
	if err := os.WriteFile(path, before, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := dump.SaveFile(r.Base, path); err == nil {
		t.Fatal("SaveFile succeeded with its temp name blocked: it wrote the snapshot in place")
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, before) {
		t.Fatal("failed SaveFile modified the snapshot")
	}
}
