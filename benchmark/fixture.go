package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"asr/internal/asr"
	"asr/internal/dump"
	"asr/internal/gom"
	"asr/internal/query"
	"asr/internal/server"
	"asr/internal/server/client"
	"asr/internal/storage"
)

// demoLevels is the depth of the demo chain T0→T1→T2→T3 that
// server.DemoDatabase generates; every object carries the unique
// Payload "L<level>-<ordinal>".
const demoLevels = 4

// indexedSQL is the backward query the demo ASR answers.
func indexedSQL(k int) string {
	return fmt.Sprintf(`select x.Payload from x in All where x.Next.Next.Next.Payload = "L3-%d"`, k)
}

// scanSQL has no usable ASR for its predicate: traversal fallback.
func scanSQL(k int) string {
	return fmt.Sprintf(`select x.Payload from x in All where x.Payload = "L0-%d"`, k)
}

// forwardSQL projects through the ASR (forward index query per anchor).
func forwardSQL(k int) string {
	return fmt.Sprintf(`select x.Next.Next.Next.Payload from x in All where x.Payload = "L0-%d"`, k)
}

// serverConfig is the one server configuration every workload runs
// under. MaxInflight is raised from the 2×GOMAXPROCS default, which the
// saturating workloads' connections would sit exactly at: admission runs
// on every request, but no operation may be shed on the seed.
var serverConfig = server.Config{MaxInflight: 64}

// fixtureSeed generates every fixture. The database is a fixed dataset,
// the same on every run; the run seed decides what is asked of it and
// what is written to it. (Fixtures drawn from the run seed differ in
// sharing and layout enough to move every timed metric by several
// percent from seed to seed, which a regression bound cannot tell from
// a regression.)
const fixtureSeed = 1

// fixture is a workload's generated database: the pristine durable base
// on disk (FileDisk + WAL + manifest + logical dump), or for the
// in-memory workload just the recipe. Fixture generation is not part of
// setup_s; asr.build_rows_per_s reports the index build.
type fixture struct {
	sp    spec
	dir   string // scratch directory, removed by the caller
	base  string // pristine durable base path prefix ("" when in-memory)
	first answer // expected answer of indexedSQL(0), the first query after open
}

func buildFixture(sp spec, dir string) (*fixture, error) {
	fx := &fixture{sp: sp, dir: dir}
	var pool *storage.BufferPool
	var closers []io.Closer
	if sp.durable {
		fx.base = filepath.Join(dir, "pristine")
		fd, err := storage.OpenFileDisk(fx.base+".pages", 0)
		if err != nil {
			return nil, err
		}
		wal, err := storage.OpenWAL(fx.base + ".pages.wal")
		if err != nil {
			fd.Close()
			return nil, err
		}
		closers = []io.Closer{wal, fd}
		pool = storage.NewBufferPool(fd, 0, storage.LRU)
		pool.AttachWAL(wal)
	}
	db, err := server.DemoDatabaseWith(sp.scale, fixtureSeed, pool)
	if err != nil {
		return nil, err
	}
	if fx.first, err = runOracle(db.Engine, indexedSQL(0)); err != nil {
		return nil, err
	}
	if !sp.durable {
		return fx, nil
	}
	if err := db.Manager.SaveTo(fx.base + ".manifest"); err != nil {
		return nil, err
	}
	f, err := os.Create(fx.base + ".gom")
	if err != nil {
		return nil, err
	}
	if err := dump.Save(db.Base, f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	for _, c := range closers {
		if err := c.Close(); err != nil {
			return nil, err
		}
	}
	return fx, nil
}

var baseSuffixes = []string{".gom", ".pages", ".pages.wal", ".manifest"}

// clone copies the pristine durable base to a new path prefix, so every
// pass that mutates pages starts from the same bytes.
func (fx *fixture) clone(name string) (string, error) {
	dst := filepath.Join(fx.dir, name)
	for _, suf := range baseSuffixes {
		data, err := os.ReadFile(fx.base + suf)
		if err != nil {
			return "", err
		}
		if err := os.WriteFile(dst+suf, data, 0o644); err != nil {
			return "", err
		}
	}
	return dst, nil
}

// db is one opened database with its server and the handles the layers
// are measured through.
type db struct {
	ob   *gom.ObjectBase
	mgr  *asr.Manager
	eng  *query.Engine
	pool *storage.BufferPool
	fd   *storage.FileDisk // nil when in-memory
	wal  *storage.WAL      // nil when in-memory
	srv  *server.Server
	conn []*client.Client

	path   *gom.PathExpression // T0.Next.Next.Next.Payload, the indexed path
	levels [demoLevels][]gom.OID
}

// openTimes are the steps of one cold open.
type openTimes struct {
	recover, load, openFrom, start, total time.Duration
}

// open brings the fixture from nothing (in-memory) or files on disk
// (durable) to a first verified wire answer, timing each step. The
// durable path is the same public steps server.OpenDurableBaseArchived
// performs, assembled here so the pool can be bounded.
func (fx *fixture) open(base string) (*db, openTimes, error) {
	var t openTimes
	d := &db{}
	t0 := time.Now()
	if !fx.sp.durable {
		sdb, err := server.DemoDatabase(fx.sp.scale, fixtureSeed)
		if err != nil {
			return nil, t, err
		}
		d.ob, d.mgr, d.eng, d.pool = sdb.Base, sdb.Manager, sdb.Engine, sdb.Manager.Pool()
		t.load = time.Since(t0)
	} else {
		fd, wal, info, err := storage.Recover(base + ".pages")
		if err != nil {
			return nil, t, err
		}
		d.fd, d.wal = fd, wal
		if len(info.QuarantinedPages) > 0 {
			d.close()
			return nil, t, fmt.Errorf("recover %s: %d pages quarantined", base, len(info.QuarantinedPages))
		}
		t.recover = time.Since(t0)
		t1 := time.Now()
		f, err := os.Open(base + ".gom")
		if err != nil {
			d.close()
			return nil, t, err
		}
		d.ob, err = dump.Load(f)
		f.Close()
		if err != nil {
			d.close()
			return nil, t, err
		}
		t.load = time.Since(t1)
		t2 := time.Now()
		d.pool = storage.NewBufferPool(fd, fx.sp.frames, storage.LRU)
		d.pool.AttachWAL(wal)
		d.mgr, err = asr.OpenFrom(d.ob, d.pool, base+".manifest")
		if err != nil {
			d.close()
			return nil, t, err
		}
		d.eng = query.New(d.ob, d.mgr)
		t.openFrom = time.Since(t2)
	}
	t3 := time.Now()
	d.srv = server.New(d.eng, d.mgr, serverConfig)
	if err := d.srv.Start(); err != nil {
		d.close()
		return nil, t, err
	}
	t.start = time.Since(t3)
	if err := d.dial(1); err != nil {
		d.close()
		return nil, t, err
	}
	res, err := d.conn[0].Query(context.Background(), indexedSQL(0))
	t.total = time.Since(t0)
	if err != nil {
		d.close()
		return nil, t, err
	}
	if !fx.first.equal(res.Values, res.Plan) {
		d.close()
		return nil, t, fmt.Errorf("first answer after open differs from the fixture's: got %q / %q", res.Values, res.Plan)
	}
	if err := d.bind(); err != nil {
		d.close()
		return nil, t, err
	}
	return d, t, nil
}

// dial grows the client connection set to n.
func (d *db) dial(n int) error {
	for len(d.conn) < n {
		c, err := client.Dial(d.srv.Addr())
		if err != nil {
			return err
		}
		d.conn = append(d.conn, c)
	}
	return nil
}

// bind resolves the indexed path and the per-level object lists (extent
// order is ordinal order, which the payload spot-check confirms).
func (d *db) bind() error {
	schema := d.ob.Schema()
	for lvl := range d.levels {
		t, ok := schema.Lookup(fmt.Sprintf("T%d", lvl))
		if !ok {
			return fmt.Errorf("fixture has no type T%d", lvl)
		}
		ext := d.ob.Extent(t, false)
		if len(ext) == 0 {
			return fmt.Errorf("fixture has no T%d objects", lvl)
		}
		last := len(ext) - 1
		o, _ := d.ob.Get(ext[last])
		if v, _ := o.Attr("Payload"); v != gom.String(fmt.Sprintf("L%d-%d", lvl, last)) {
			return fmt.Errorf("T%d extent is not in ordinal order (last payload %v)", lvl, v)
		}
		d.levels[lvl] = ext
	}
	t0, _ := schema.Lookup("T0")
	var err error
	d.path, err = gom.ResolvePath(t0, "Next", "Next", "Next", "Payload")
	return err
}

// close stops the server and releases the files; nil-safe on every field
// so a half-open db can be closed too.
func (d *db) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, c := range d.conn {
		c.Close()
	}
	if d.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		keep(d.srv.Shutdown(ctx))
		cancel()
	}
	if d.wal != nil {
		keep(d.wal.Close())
	}
	if d.fd != nil {
		keep(d.fd.Close())
	}
	return first
}

// loadPlain loads the fixture's logical dump with no manager attached:
// the index-less copy that update and query baselines run against.
func (fx *fixture) loadPlain() (*gom.ObjectBase, error) {
	if !fx.sp.durable {
		sdb, err := server.DemoDatabase(fx.sp.scale, fixtureSeed)
		if err != nil {
			return nil, err
		}
		for _, ix := range sdb.Manager.Indexes() {
			if err := sdb.Manager.DropIndex(ix); err != nil {
				return nil, err
			}
		}
		return sdb.Base, nil
	}
	f, err := os.Open(fx.base + ".gom")
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dump.Load(f)
}
