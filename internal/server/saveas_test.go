package server

import (
	"testing"

	"asr/internal/gom"
)

// TestSaveAsMovesThenSavesInPlace walks the lifecycle gomshell's \save
// drives: an in-memory database is moved onto a fresh durable base (its
// old indexes retired), keeps being maintained there, is re-saved in
// place, and reopens with its mutations and clean indexes. A move that
// cannot create its files leaves the database as it was.
func TestSaveAsMovesThenSavesInPlace(t *testing.T) {
	d, err := DemoDatabase(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if nd, err := d.SaveAs(t.TempDir() + "/no/such/dir/db"); err == nil || nd != nil {
		t.Fatalf("SaveAs into a missing directory: %v, %v", nd, err)
	}
	if len(d.Manager.Indexes()) != 1 || d.Durable() {
		t.Fatal("a failed move altered the database")
	}

	base := t.TempDir() + "/db"
	nd, err := d.SaveAs(base)
	if err != nil {
		t.Fatal(err)
	}
	if !nd.Durable() || nd.Base != d.Base || len(nd.Manager.Indexes()) != 1 {
		t.Fatalf("moved database: durable=%v sameBase=%v indexes=%d", nd.Durable(), nd.Base == d.Base, len(nd.Manager.Indexes()))
	}
	if len(d.Manager.Indexes()) != 0 {
		t.Fatal("the move left the old database's indexes (and maintainers) registered")
	}

	t3, _ := nd.Base.Schema().Lookup("T3")
	leaf := nd.Base.Extent(t3, false)[0]
	if err := nd.Base.SetAttr(leaf, "Payload", gom.String("moved")); err != nil {
		t.Fatal(err)
	}
	same, err := nd.SaveAs(base)
	if err != nil || same != nd {
		t.Fatalf("re-save in place: %v, %v", same, err)
	}
	if err := nd.Close(); err != nil {
		t.Fatal(err)
	}

	r, _, err := OpenDurableBase(base, "")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	o, _ := r.Base.Get(leaf)
	if v, _ := o.Attr("Payload"); v == nil || !v.Equal(gom.String("moved")) {
		t.Fatalf("reopened base lost the saved mutation: Payload = %v", v)
	}
	for _, ix := range r.Manager.Indexes() {
		if rep, err := ix.Verify(); err != nil || !rep.Clean() {
			t.Fatalf("reopened index %s: %+v, %v", ix, rep, err)
		}
	}
}
