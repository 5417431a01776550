package server

import (
	"context"
	"os"
	"strings"
	"testing"

	"asr/internal/asr"
	"asr/internal/dump"
	"asr/internal/query"
	"asr/internal/storage"
)

func TestDemoDatabase(t *testing.T) {
	d, err := DemoDatabase(1, 42)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(d.Manager.Stats().Indexes); n != 1 {
		t.Fatalf("demo database has %d indexes, want 1", n)
	}

	// Pick a chain endpoint that actually exists (not every L3 payload
	// is reachable from a T0 at small scales), then check the demo query
	// shape routes through the ASR and finds it.
	reach, _ := renderInProcessTB(t, d, `select x.Next.Next.Next.Payload from x in All`)
	if len(reach) == 0 {
		t.Fatal("no T0 chain reaches level 3 — demo generation broke")
	}
	target := strings.Trim(reach[0], `"`)
	demoSQL := `select x.Payload from x in All where x.Next.Next.Next.Payload = "` + target + `"`
	vals, plan := renderInProcessTB(t, d, demoSQL)
	if !strings.Contains(plan, "via ASR") {
		t.Fatalf("demo query should use the index, plan: %q", plan)
	}
	if len(vals) == 0 {
		t.Fatal("demo query returned nothing — payload decoration or sharing broke")
	}
	// …and a predicate the index cannot serve falls back to traversal.
	_, plan2 := renderInProcessTB(t, d, `select x.Payload from x in All where x.Payload = "L0-3"`)
	if strings.Contains(plan2, "via ASR") {
		t.Fatalf("payload predicate should not use the chain index, plan: %q", plan2)
	}
	// Deterministic: same scale and seed → byte-identical database.
	d2, err := DemoDatabase(1, 42)
	if err != nil {
		t.Fatal(err)
	}
	vals2, _ := renderInProcessTB(t, d2, demoSQL)
	if strings.Join(vals, "\n") != strings.Join(vals2, "\n") {
		t.Fatal("demo database is not deterministic for a fixed seed")
	}

	if err := d.Checkpoint(); err != nil {
		t.Fatalf("in-memory checkpoint should be a no-op, got %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadDumpFile(t *testing.T) {
	d, err := DemoDatabase(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/demo.gom"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dump.Save(d.Base, f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	d2, err := LoadDumpFile(path, []string{"full:binary:T0.Next.Next.Next.Payload"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sql := `select x.Payload from x in All where x.Next.Next.Next.Payload = "L3-2"`
	v1, p1 := renderInProcessTB(t, d, sql)
	v2, p2 := renderInProcessTB(t, d2, sql)
	if strings.Join(v1, "\n") != strings.Join(v2, "\n") || p1 != p2 {
		t.Fatalf("reloaded dump diverges: %v/%q vs %v/%q", v1, p1, v2, p2)
	}

	if _, err := LoadDumpFile(path, []string{"bogus-spec"}, nil); err == nil {
		t.Fatal("bad index spec should fail")
	}
	if _, err := LoadDumpFile(t.TempDir()+"/missing.gom", nil, nil); err == nil {
		t.Fatal("missing dump should fail")
	}
}

// TestOpenDurableBase persists a demo base the way gomshell \save does
// (binary snapshot + file-backed index pages + WAL + manifest), reopens it
// through the crash-recovery path, and checks the reopened database
// answers byte-identically without rebuilding indexes.
func TestOpenDurableBase(t *testing.T) {
	d, err := DemoDatabase(1, 11)
	if err != nil {
		t.Fatal(err)
	}
	base := t.TempDir() + "/db"

	fd, err := storage.OpenFileDisk(base+".pages", 0)
	if err != nil {
		t.Fatal(err)
	}
	wal, err := storage.OpenWAL(base + ".pages.wal")
	if err != nil {
		t.Fatal(err)
	}
	pool := storage.NewBufferPool(fd, 0, storage.LRU)
	pool.AttachWAL(wal)
	mgr := asr.NewManager(d.Base, pool)
	for _, old := range d.Manager.Indexes() {
		if _, err := mgr.CreateIndex(old.Path(), old.Extension(), old.Decomposition()); err != nil {
			t.Fatal(err)
		}
	}
	if err := mgr.SaveTo(base + ".manifest"); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(base + ".gom")
	if err != nil {
		t.Fatal(err)
	}
	if err := dump.Save(d.Base, f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := pool.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	wal.Close()
	fd.Close()

	d2, info, err := OpenDurableBase(base, "")
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if info == nil {
		t.Fatal("no RecoveryInfo")
	}
	if info.WALTailDamaged || len(info.QuarantinedPages) != 0 {
		t.Fatalf("clean reopen reported damage: %+v", info)
	}

	sql := `select x.Payload from x in All where x.Next.Next.Next.Payload = "L3-4"`
	v1, p1 := renderInProcessTB(t, d, sql)
	res, err := d2.Engine.RunCtx(context.Background(), query.MustParse(sql), 1)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(renderValues(res), "\n") != strings.Join(v1, "\n") || res.Plan != p1 {
		t.Fatalf("durable reopen diverges: %v/%q vs %v/%q", renderValues(res), res.Plan, v1, p1)
	}
	if !strings.Contains(res.Plan, "via ASR") {
		t.Fatalf("reopened index not used: %q", res.Plan)
	}

	// Checkpoint through the Database wrapper (the gomd OnDrain path).
	if err := d2.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	if _, _, err := OpenDurableBase(t.TempDir()+"/nope", ""); err == nil {
		t.Fatal("missing durable base should fail")
	}
}
