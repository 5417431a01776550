package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"asr/internal/asr"
	"asr/internal/dump"
	"asr/internal/gom"
	"asr/internal/storage"
)

// durableDatabase persists a demo base the way gomshell \save does and
// reopens it through OpenDurableBase, returning the database
// ready for online backup (page file + WAL + archive attached).
func durableDatabase(t *testing.T) *Database {
	t.Helper()
	d, err := DemoDatabase(1, 23)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	base := dir + "/db"

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

	d2, _, err := OpenDurableBase(base, dir+"/archive")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d2.Close() })

	// Mutate the indexed leaf through the reopened base so the index
	// maintenance writes run as WAL transactions — the backup watermarks
	// below are only meaningful once the LSN clock has advanced.
	t3, ok := d2.Base.Schema().Lookup("T3")
	if !ok {
		t.Fatal("demo schema lost T3")
	}
	for i, id := range d2.Base.Extent(t3, false) {
		if i == 4 {
			break
		}
		if err := d2.Base.SetAttr(id, "Payload", gom.String(fmt.Sprintf("mut-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d2.Manager.Healthy(); err != nil {
		t.Fatalf("index maintenance after mutation: %v", err)
	}
	if err := d2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return d2
}

// TestAdminBackupEndpoint drives POST /backup through the admin plane:
// method/parameter validation, the not-configured case, and a real
// online backup of a durable database whose response carries the
// watermarks the restore runbook needs.
func TestAdminBackupEndpoint(t *testing.T) {
	d := durableDatabase(t)
	s := startServer(t, d.Engine, d, Config{
		AdminAddr: "127.0.0.1:0",
		OnBackup:  func(dest string) (any, error) { return d.Backup(dest) },
	})

	do := func(method, path string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(method, "http://"+s.AdminAddr()+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if code, _ := do(http.MethodGet, "/backup"); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /backup: %d, want 405", code)
	}
	if code, body := do(http.MethodPost, "/backup"); code != http.StatusBadRequest || !strings.Contains(body, "dest") {
		t.Fatalf("POST /backup without dest: %d %q, want 400 about dest", code, body)
	}

	dst := t.TempDir() + "/bk"
	code, body := do(http.MethodPost, "/backup?dest="+dst)
	if code != http.StatusOK {
		t.Fatalf("POST /backup: %d %q", code, body)
	}
	var got struct {
		Backup    storage.BackupInfo `json:"backup"`
		ElapsedUS int64              `json:"elapsed_us"`
	}
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("backup response not JSON: %v\n%s", err, body)
	}
	if got.Backup.Pages == 0 || got.Backup.StartLSN == 0 {
		t.Fatalf("backup response missing watermarks: %+v", got.Backup)
	}
	man, err := storage.ReadBackupManifest(dst)
	if err != nil {
		t.Fatalf("backup dir has no readable manifest: %v", err)
	}
	if man.StartLSN != got.Backup.StartLSN {
		t.Fatalf("manifest StartLSN %d != response %d", man.StartLSN, got.Backup.StartLSN)
	}
	for _, aux := range []string{"manifest", "gom"} {
		if _, ok := man.Aux[aux]; !ok {
			t.Fatalf("backup manifest missing aux file %q: %+v", aux, man.Aux)
		}
	}

	// Same destination again: Backup refuses to clobber an existing chain.
	if code, body := do(http.MethodPost, "/backup?dest="+dst); code != http.StatusInternalServerError {
		t.Fatalf("re-backup into existing dir: %d %q, want 500", code, body)
	}
}

// TestAdminBackupNotConfigured covers the in-memory serving path: no
// Config.OnBackup means POST /backup answers 501, pointing at -db.
func TestAdminBackupNotConfigured(t *testing.T) {
	d := robotsDatabase(t)
	s := startServer(t, d.Engine, d, Config{AdminAddr: "127.0.0.1:0"})
	resp, err := http.Post("http://"+s.AdminAddr()+"/backup?dest="+t.TempDir(), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("POST /backup without OnBackup: %d, want 501", resp.StatusCode)
	}
}

// TestAdminHealthzDegraded checks the scrubber's degradation signal:
// /healthz flips to 503 with a "degraded:" body while Config.HealthCheck
// reports unhealed corruption, and recovers to 200 once it clears.
func TestAdminHealthzDegraded(t *testing.T) {
	d := robotsDatabase(t)
	var hcErr error
	s := startServer(t, d.Engine, d, Config{
		AdminAddr:   "127.0.0.1:0",
		HealthCheck: func() error { return hcErr },
	})

	get := func() (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + s.AdminAddr() + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if code, body := get(); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthy /healthz: %d %q", code, body)
	}
	hcErr = errors.New("scrub: 2 unhealed pages")
	if code, body := get(); code != http.StatusServiceUnavailable || !strings.Contains(body, "degraded: scrub: 2 unhealed pages") {
		t.Fatalf("degraded /healthz: %d %q", code, body)
	}
	hcErr = nil
	if code, _ := get(); code != http.StatusOK {
		t.Fatalf("recovered /healthz: %d", code)
	}
}

// TestAdminBackupCarriesUnsavedMutations pins the drift the shared
// lifecycle removed: durableDatabase mutates objects after the last
// explicit save, so BASE.gom on disk is stale while the maintained index
// pages are current. Backup must Save first — a backup that copied the
// stale snapshot restores to a base whose indexes are ahead of its
// objects. Restoring to the backup's end LSN and reopening must show the
// mutations and Verify every index clean.
func TestAdminBackupCarriesUnsavedMutations(t *testing.T) {
	d := durableDatabase(t)
	bk := t.TempDir() + "/bk"
	info, err := d.Backup(bk)
	if err != nil {
		t.Fatal(err)
	}
	dst := t.TempDir() + "/restored"
	if _, err := storage.Restore(bk, filepath.Dir(d.basePath)+"/archive", dst, info.EndLSN); err != nil {
		t.Fatal(err)
	}
	r, rinfo, err := OpenDurableBase(dst, "")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if len(rinfo.QuarantinedPages) != 0 {
		t.Fatalf("restored base opened with quarantined pages: %v", rinfo.QuarantinedPages)
	}
	t3, _ := r.Base.Schema().Lookup("T3")
	mutated := false
	for _, id := range r.Base.Extent(t3, false) {
		o, _ := r.Base.Get(id)
		if v, _ := o.Attr("Payload"); v != nil && v.Equal(gom.String("mut-0")) {
			mutated = true
		}
	}
	if !mutated {
		t.Fatal("restored base lost the mutation made after the last explicit save")
	}
	for _, ix := range r.Manager.Indexes() {
		rep, err := ix.Verify()
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Clean() {
			t.Fatalf("restored index %s drifted from the restored object base: %+v", ix, rep)
		}
	}
}

// TestAdminReadyzDegradedByQuarantinedIndex: /readyz reports any
// quarantined index — here one taken out of service by Index.Verify
// finding a corrupt partition page, with no maintenance failure
// involved — as 503 "degraded: …" while queries answer through
// fallbacks, and returns to ready as soon as the quarantine is lifted,
// by whatever lifts it (Index.Repair called directly).
func TestAdminReadyzDegradedByQuarantinedIndex(t *testing.T) {
	d := durableDatabase(t)
	s := startServer(t, d.Engine, d, Config{AdminAddr: "127.0.0.1:0"})
	get := func() (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + s.AdminAddr() + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	if code, body := get(); code != http.StatusOK || !strings.HasPrefix(body, "ready\n") {
		t.Fatalf("healthy /readyz: %d %q", code, body)
	}

	ix := d.Manager.Indexes()[0]
	if err := d.Manager.Pool().DropClean(); err != nil {
		t.Fatal(err)
	}
	if err := d.Disk().CorruptPage(ix.Partitions()[0].Part.Forward().Root(), 10); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Verify(); !errors.Is(err, storage.ErrCorruptPage) {
		t.Fatalf("Verify on a corrupt partition page = %v, want ErrCorruptPage", err)
	}
	if code, body := get(); code != http.StatusServiceUnavailable || !strings.HasPrefix(body, "degraded: ") {
		t.Fatalf("/readyz with a quarantined index: %d %q, want 503 degraded", code, body)
	}

	if _, err := ix.Repair(); err != nil {
		t.Fatal(err)
	}
	if code, body := get(); code != http.StatusOK || !strings.HasPrefix(body, "ready\n") {
		t.Fatalf("/readyz after Index.Repair: %d %q", code, body)
	}
}
