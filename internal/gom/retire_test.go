package gom_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"asr/internal/server"
)

// TestRetiredManagersStopObserving: server.Database.SaveAs to a new
// base retires the database it moves from, and a retired Manager stops
// observing the shared object base. After three moves a mutation
// reaches one observer, the live Manager, and after Close none.
func TestRetiredManagersStopObserving(t *testing.T) {
	db, err := server.DemoDatabase(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for i := range 3 {
		if db, err = db.SaveAs(filepath.Join(dir, fmt.Sprint("base", i))); err != nil {
			t.Fatal(err)
		}
	}
	if n := db.Base.Observers(); n != 1 {
		t.Errorf("after three SaveAs a mutation reaches %d observers, want 1", n)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if n := db.Base.Observers(); n != 0 {
		t.Errorf("after Close a mutation reaches %d observers, want 0", n)
	}
}
