package main

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"asr/internal/asr"
	"asr/internal/dump"
	"asr/internal/server"
	"asr/internal/server/client"
	"asr/internal/storage"
)

func TestParseFlags(t *testing.T) {
	var errw bytes.Buffer
	if _, err := parseFlags(nil, &errw); err == nil {
		t.Fatal("no mode should be rejected")
	}
	if _, err := parseFlags([]string{"-demo", "-load", "x.gom"}, &errw); err == nil {
		t.Fatal("two modes should be rejected")
	}
	if _, err := parseFlags([]string{"-demo", "-index", "full:binary:T0.Payload"}, &errw); err == nil {
		t.Fatal("-index without -load should be rejected")
	}
	if _, err := parseFlags([]string{"-db", "base", "-chaos-disk", "0.5"}, &errw); err == nil {
		t.Fatal("-chaos-disk with -db should be rejected")
	}
	if _, err := parseFlags([]string{"-demo", "-archive-dir", "arch"}, &errw); err == nil {
		t.Error("-archive-dir without -db should fail")
	}
	if _, err := parseFlags([]string{"-demo", "-scrub-interval", "1m"}, &errw); err == nil {
		t.Error("-scrub-interval without -db should fail")
	}
	if _, err := parseFlags([]string{"-demo", "-chaos-disk", "1.5"}, &errw); err == nil {
		t.Fatal("-chaos-disk out of [0,1] should be rejected")
	}
	o, err := parseFlags([]string{"-load", "x.gom", "-index", "a", "-index", "b", "-max-inflight", "7"}, &errw)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.indexes) != 2 || o.maxInflight != 7 {
		t.Fatalf("parsed %+v", o)
	}
	// -h prints usage with doc cross-links and all modes.
	errw.Reset()
	parseFlags([]string{"-h"}, &errw)
	usage := errw.String()
	for _, want := range []string{"-demo", "-load", "-db", "docs/SERVICE.md", "docs/OBSERVABILITY.md", "SIGTERM"} {
		if !strings.Contains(usage, want) {
			t.Errorf("usage missing %q", want)
		}
	}
}

// TestGomdSmoke is the server-smoke CI gate: boot gomd in-process on
// ephemeral ports with a demo database, hit it with a 30-connection
// query burst, deliver a real SIGTERM mid-traffic, and require (a) every
// request ends in a correct result or a typed rejection, (b) at least
// one query succeeded, (c) /metrics served server counters, and (d) the
// daemon exits cleanly. Run under -race by `make server-smoke`.
func TestGomdSmoke(t *testing.T) {
	opts, err := parseFlags([]string{
		"-demo", "-scale", "2",
		"-addr", "127.0.0.1:0", "-admin", "127.0.0.1:0",
		"-max-inflight", "64", "-drain-timeout", "10s",
	}, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}

	var out lockedBuffer
	ready := make(chan *server.Server, 1)
	runErr := make(chan error, 1)
	go func() {
		runErr <- run(opts, &out, func(s *server.Server) { ready <- s })
	}()
	var srv *server.Server
	select {
	case srv = <-ready:
	case err := <-runErr:
		t.Fatalf("gomd exited before ready: %v\n%s", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatal("gomd never became ready")
	}

	// Establish the oracle once over the wire, then burst.
	const sql = `select x.Payload from x in All where x.Next.Next.Next.Payload = "L3-1"`
	c0, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := c0.Query(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	c0.Close()
	wantVals := strings.Join(oracle.Values, "\n")

	const conns = 30
	var succeeded, rejected, failed atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := client.Dial(srv.Addr())
			if err != nil {
				rejected.Add(1) // listener already closed by the drain
				return
			}
			defer c.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := c.Query(context.Background(), sql)
				switch {
				case err == nil:
					if strings.Join(res.Values, "\n") != wantVals {
						failed.Add(1)
						return
					}
					succeeded.Add(1)
				case errors.Is(err, client.ErrShuttingDown),
					errors.Is(err, client.ErrOverloaded),
					errors.Is(err, client.ErrConnClosed):
					rejected.Add(1)
					return
				default:
					t.Errorf("untyped failure: %v", err)
					failed.Add(1)
					return
				}
			}
		}()
	}

	// Let traffic build, scrape metrics, then deliver a real SIGTERM.
	time.Sleep(100 * time.Millisecond)
	resp, err := http.Get("http://" + srv.AdminAddr() + "/metrics")
	if err != nil {
		t.Fatalf("scrape /metrics: %v", err)
	}
	var metrics bytes.Buffer
	metrics.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(metrics.String(), "server_sessions_total") {
		t.Error("/metrics missing server series")
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("gomd exit: %v\n%s", err, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("gomd did not drain within 30s\n%s", out.String())
	}
	close(stop)
	wg.Wait()

	if failed.Load() > 0 {
		t.Fatalf("%d requests lost or diverged", failed.Load())
	}
	if succeeded.Load() == 0 {
		t.Fatal("no query succeeded before drain")
	}
	log := out.String()
	for _, want := range []string{"demo database", "listening on", "received terminated, draining", "checkpointing on drain", "clean shutdown"} {
		if !strings.Contains(log, want) {
			t.Errorf("gomd log missing %q:\n%s", want, log)
		}
	}
	t.Logf("smoke: %d completed, %d typed rejections across %d connections", succeeded.Load(), rejected.Load(), conns)
}

// TestGomdLoadMode boots gomd from a binary snapshot with a -index flag
// and queries it over the wire.
func TestGomdLoadMode(t *testing.T) {
	d, err := server.DemoDatabase(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "demo.gom")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dump.Save(d.Base, f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	opts, err := parseFlags([]string{
		"-load", path, "-index", "full:binary:T0.Next.Next.Next.Payload",
		"-addr", "127.0.0.1:0", "-admin", "",
	}, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	var out lockedBuffer
	ready := make(chan *server.Server, 1)
	runErr := make(chan error, 1)
	go func() {
		runErr <- run(opts, &out, func(s *server.Server) { ready <- s })
	}()
	var srv *server.Server
	select {
	case srv = <-ready:
	case err := <-runErr:
		t.Fatalf("gomd exited before ready: %v\n%s", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatal("gomd never became ready")
	}
	c, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(context.Background(), `select x.Payload from x in All where x.Next.Next.Next.Payload = "L3-1"`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "via ASR") {
		t.Fatalf("-index was not built: plan %q", res.Plan)
	}
	c.Close()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := <-runErr; err != nil {
		t.Fatalf("gomd exit: %v", err)
	}
}

// TestGomdChaosDisk boots gomd with -chaos-disk 1 — every page read
// faults — and requires the failure contract end to end: index-routed
// queries fail with the typed INTERNAL sentinel (never a crash or a
// hang), traversal queries (which touch no index pages) still answer,
// and the daemon drains cleanly afterward.
func TestGomdChaosDisk(t *testing.T) {
	opts, err := parseFlags([]string{
		"-demo", "-scale", "2", "-chaos-disk", "1", "-chaos-seed", "3",
		"-addr", "127.0.0.1:0", "-admin", "",
	}, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	var out lockedBuffer
	ready := make(chan *server.Server, 1)
	runErr := make(chan error, 1)
	go func() {
		runErr <- run(opts, &out, func(s *server.Server) { ready <- s })
	}()
	var srv *server.Server
	select {
	case srv = <-ready:
	case err := <-runErr:
		t.Fatalf("gomd exited before ready: %v\n%s", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatal("gomd never became ready")
	}

	c, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The indexed query needs ASR pages; with p=1 every read faults.
	_, err = c.Query(context.Background(), `select x.Payload from x in All where x.Next.Next.Next.Payload = "L3-1"`)
	if !errors.Is(err, client.ErrInternal) {
		t.Fatalf("indexed query under disk faults = %v, want ErrInternal", err)
	}
	if !strings.Contains(err.Error(), "injected") {
		t.Fatalf("INTERNAL response does not name the fault: %v", err)
	}

	// Traversal reads the in-memory object base only — still healthy.
	res, err := c.Query(context.Background(), `select x.Payload from x in All where x.Payload = "L0-1"`)
	if err != nil {
		t.Fatalf("traversal query under disk faults: %v", err)
	}
	if len(res.Values) != 1 {
		t.Fatalf("traversal result = %+v", res)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := <-runErr; err != nil {
		t.Fatalf("gomd exit: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "CHAOS: injecting page-read faults") {
		t.Errorf("startup log missing chaos banner:\n%s", out.String())
	}
}

// lockedBuffer lets the daemon log from its goroutines while the test
// reads, without racing.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// saveDurableBase persists a demo database the way gomshell \save does
// (binary snapshot + page file + WAL + manifest) and returns its base path.
func saveDurableBase(t *testing.T, dir string) string {
	t.Helper()
	d, err := server.DemoDatabase(1, 17)
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(dir, "db")
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
	return base
}

// TestGomdDurableBackupAndScrub boots gomd in -db mode with WAL
// archiving and a fast scrub cadence, takes an online backup over the
// admin endpoint while querying, and requires a healthy /healthz, a
// readable backup chain on disk, and a clean drain.
func TestGomdDurableBackupAndScrub(t *testing.T) {
	dir := t.TempDir()
	base := saveDurableBase(t, dir)

	opts, err := parseFlags([]string{
		"-db", base, "-archive-dir", filepath.Join(dir, "archive"),
		"-scrub-interval", "50ms",
		"-addr", "127.0.0.1:0", "-admin", "127.0.0.1:0",
	}, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	var out lockedBuffer
	ready := make(chan *server.Server, 1)
	runErr := make(chan error, 1)
	go func() {
		runErr <- run(opts, &out, func(s *server.Server) { ready <- s })
	}()
	var srv *server.Server
	select {
	case srv = <-ready:
	case err := <-runErr:
		t.Fatalf("gomd exited before ready: %v\n%s", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatal("gomd never became ready")
	}

	// Healthy before and while the scrubber runs.
	resp, err := http.Get("http://" + srv.AdminAddr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", resp.StatusCode)
	}

	// A real query keeps answering while the backup streams out.
	c, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const sql = `select x.Payload from x in All where x.Next.Next.Next.Payload = "L3-1"`
	if _, err := c.Query(context.Background(), sql); err != nil {
		t.Fatal(err)
	}

	bdir := filepath.Join(dir, "bk")
	resp, err = http.Post("http://"+srv.AdminAddr()+"/backup?dest="+bdir, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /backup = %d: %s", resp.StatusCode, body.String())
	}
	man, err := storage.ReadBackupManifest(bdir)
	if err != nil {
		t.Fatalf("backup chain unreadable: %v", err)
	}
	if man.NumPages == 0 {
		t.Fatalf("empty backup manifest: %+v", man)
	}
	if _, err := c.Query(context.Background(), sql); err != nil {
		t.Fatalf("query after backup: %v", err)
	}

	// Let at least one scrub pass complete before draining.
	time.Sleep(120 * time.Millisecond)

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := <-runErr; err != nil {
		t.Fatalf("gomd exit: %v\n%s", err, out.String())
	}
	log := out.String()
	for _, want := range []string{"archiving WAL segments", "integrity scrubber running", "online backup complete", "clean shutdown"} {
		if !strings.Contains(log, want) {
			t.Errorf("gomd log missing %q:\n%s", want, log)
		}
	}
}
