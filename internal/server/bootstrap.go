package server

import (
	"errors"
	"fmt"
	"os"
	"strings"

	"asr/internal/asr"
	"asr/internal/dump"
	"asr/internal/gendb"
	"asr/internal/gom"
	"asr/internal/query"
	"asr/internal/storage"
)

// Database bundles everything a server needs to answer queries: the
// object base, its index manager, and a query engine. It is also the one
// owner of a durable base's lifecycle — OpenDurableBase, SaveAs, Save,
// Backup, Checkpoint, Close — for gomd (-demo, -load or -db) and
// gomshell alike.
type Database struct {
	Base    *gom.ObjectBase
	Manager *asr.Manager
	Engine  *query.Engine

	// Durable databases only: the BASE of the file set
	// BASE.{gom,pages,pages.wal,manifest}, the page file and WAL behind
	// the manager's pool, and the optional WAL archive.
	basePath string
	disk     *storage.FileDisk
	wal      *storage.WAL
	archive  *storage.Archive
}

// Durable reports whether this database is backed by a page file and
// WAL (OpenDurableBase, SaveAs) — the precondition for Save, Backup and
// scrubbing.
func (d *Database) Durable() bool { return d.disk != nil }

// Disk exposes the page file of a durable database (nil otherwise).
func (d *Database) Disk() *storage.FileDisk { return d.disk }

// WAL exposes the log of a durable database (nil otherwise).
func (d *Database) WAL() *storage.WAL { return d.wal }

// Save persists what the page file and its WAL do not: it checkpoints
// the pool and rewrites the index manifest (Manager.SaveTo), then the
// object-base snapshot BASE.gom — each replaced atomically. A crash
// between the two leaves the new manifest beside the previous snapshot,
// the state any crash after an unsaved mutation leaves
// (docs/ROBUSTNESS.md). Mutation must be quiesced, as for SaveTo.
func (d *Database) Save() error {
	if !d.Durable() {
		return fmt.Errorf("server: save: database is in-memory")
	}
	if err := d.Manager.SaveTo(d.basePath + ".manifest"); err != nil {
		return err
	}
	return dump.SaveFile(d.Base, d.basePath+".gom")
}

// Backup streams an online backup of a durable database into dstDir:
// the page file copied under per-page latches (queries keep running),
// plus the index manifest and the object-base snapshot, with the WAL
// watermarks recorded for restore. It Saves first, so the copy describes
// the database as it stands, not as of the last explicit save.
func (d *Database) Backup(dstDir string) (*storage.BackupInfo, error) {
	if !d.Durable() {
		return nil, fmt.Errorf("server: backup: database is in-memory (start with -db to back up)")
	}
	if err := d.Save(); err != nil {
		return nil, err
	}
	info, err := storage.Backup(d.disk, d.wal, dstDir, map[string]string{
		"manifest": d.basePath + ".manifest",
		"gom":      d.basePath + ".gom",
	})
	if err != nil {
		return nil, err
	}
	// Retention rides the backup chain: history before this backup's
	// start watermark can no longer be needed by it.
	if d.archive != nil {
		if _, err := d.archive.Prune(info.StartLSN); err != nil {
			return info, fmt.Errorf("server: backup succeeded but pruning the archive failed: %w", err)
		}
	}
	return info, nil
}

// Checkpoint flushes dirty pages to the device, syncs, and recycles
// the WAL (durable databases); it is a no-op for in-memory databases.
func (d *Database) Checkpoint() error {
	if !d.Durable() {
		return nil
	}
	return d.Manager.Pool().Checkpoint()
}

// Close checkpoints (best effort) and releases file handles.
func (d *Database) Close() error {
	if !d.Durable() {
		return nil
	}
	return errors.Join(d.Checkpoint(), d.wal.Close(), d.disk.Close())
}

// NewMemoryDatabase wraps an existing object base with a manager and
// engine over pool; nil means a fresh unbounded in-memory pool. The
// -chaos-disk serving path passes a bounded pool over a
// storage.FaultInjector: bounded, so index reads actually reach the
// (faulty) device instead of living in cache forever.
func NewMemoryDatabase(ob *gom.ObjectBase, pool *storage.BufferPool) *Database {
	if pool == nil {
		pool = storage.NewBufferPool(storage.NewDisk(0), 0, storage.LRU)
	}
	mgr := asr.NewManager(ob, pool)
	return &Database{Base: ob, Manager: mgr, Engine: query.New(ob, mgr)}
}

// DemoDatabase generates a synthetic four-level reference chain
// T0→T1→T2→T3 (gendb, the paper's §4.1 characterization), assigns every
// object a unique Payload "L<level>-<ordinal>", binds the T0 extent as
// collection variable All, and builds a full/binary ASR over
// T0.Next.Next.Next.Payload. Queries like
//
//	select x.Payload from x in All where x.Next.Next.Next.Payload = "L3-5"
//
// then route through the index, while predicates on x.Payload fall back
// to traversal — both strategies observable from one demo dataset.
// scale multiplies the extent sizes (scale 1 ≈ 46 objects).
func DemoDatabase(scale int, seed int64) (*Database, error) {
	return DemoDatabaseWith(scale, seed, nil)
}

// DemoDatabaseWith is DemoDatabase over an explicit buffer pool (nil
// means a fresh unbounded in-memory pool).
func DemoDatabaseWith(scale int, seed int64, pool *storage.BufferPool) (*Database, error) {
	if scale < 1 {
		scale = 1
	}
	db, err := gendb.Generate(gendb.Spec{
		N:       3,
		C:       []int{8 * scale, 12 * scale, 16 * scale, 10 * scale},
		D:       []int{8 * scale, 12 * scale, 16 * scale},
		Fan:     []int{1, 2, 1},
		Sharing: gendb.Uniform,
		Seed:    seed,
	})
	if err != nil {
		return nil, err
	}
	for level, ext := range db.Extents {
		for k, id := range ext {
			if err := db.Base.SetAttr(id, "Payload", gom.String(fmt.Sprintf("L%d-%d", level, k))); err != nil {
				return nil, err
			}
		}
	}
	setT, err := db.Schema.DefineCollection("ALL_T0", gom.SetType, db.Types[0])
	if err != nil {
		return nil, err
	}
	all, err := db.Base.New(setT)
	if err != nil {
		return nil, err
	}
	for _, id := range db.Extents[0] {
		if err := db.Base.InsertIntoSet(all.ID(), gom.Ref(id)); err != nil {
			return nil, err
		}
	}
	if err := db.Base.BindVar("All", all.ID()); err != nil {
		return nil, err
	}
	d := NewMemoryDatabase(db.Base, pool)
	if err := d.BuildIndexes([]string{"full:binary:T0.Next.Next.Next.Payload"}); err != nil {
		return nil, err
	}
	return d, nil
}

// LoadDumpFile restores a logical JSON dump (gomshell `save`, package
// dump) over pool (nil: a fresh unbounded in-memory pool) and rebuilds
// the requested indexes — dumps carry no index pages; indexes are
// derived data (docs/ARCHITECTURE.md).
func LoadDumpFile(path string, indexSpecs []string, pool *storage.BufferPool) (*Database, error) {
	ob, err := dump.LoadFile(path)
	if err != nil {
		return nil, fmt.Errorf("server: loading %s: %w", path, err)
	}
	d := NewMemoryDatabase(ob, pool)
	if err := d.BuildIndexes(indexSpecs); err != nil {
		return nil, err
	}
	return d, nil
}

// OpenDurableBase reopens a database persisted by Save at
// BASE.{gom,pages,pages.wal,manifest}: the page file is crash-recovered
// through its WAL, the object base loaded from the snapshot, and the
// indexes reattached from the manifest without rebuilding. With a
// non-empty archiveDir, recovery seals the crashed log's records into
// that WAL archive (instead of discarding them) and every later
// checkpoint archives too — the prerequisite for point-in-time
// recovery. RecoveryInfo.String renders the operator's startup line.
func OpenDurableBase(base, archiveDir string) (_ *Database, _ *storage.RecoveryInfo, err error) {
	var arch *storage.Archive
	if archiveDir != "" {
		if arch, err = storage.OpenArchive(archiveDir); err != nil {
			return nil, nil, err
		}
	}
	fd, wal, info, err := storage.RecoverArchived(base+".pages", arch)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if err != nil {
			wal.Close()
			fd.Close()
		}
	}()
	ob, err := dump.LoadFile(base + ".gom")
	if err != nil {
		return nil, nil, err
	}
	pool := storage.NewBufferPool(fd, 0, storage.LRU)
	pool.AttachWAL(wal)
	mgr, err := asr.OpenFrom(ob, pool, base+".manifest")
	if err != nil {
		return nil, nil, err
	}
	return &Database{
		Base: ob, Manager: mgr, Engine: query.New(ob, mgr),
		basePath: base, disk: fd, wal: wal, archive: arch,
	}, info, nil
}

// SaveAs persists the database at base and returns the Database that
// lives there: d itself, Saved, when it already does. Otherwise the
// database is moved — a fresh page file and WAL at base (overwriting a
// base of that name), every index rebuilt onto them, the result Saved —
// and the returned Database, which shares d.Base, keeps running
// file-backed, so later maintenance is WAL-logged. A failed move leaves
// d untouched and returns nil. A successful one retires d (indexes
// dropped, storage closed); an error beside the non-nil Database
// reports only a failure doing that.
func (d *Database) SaveAs(base string) (*Database, error) {
	if d.basePath == base {
		return d, d.Save()
	}
	nd, err := d.moveTo(base)
	if err != nil {
		return nil, err
	}
	var errs []error
	for _, ix := range d.Manager.Indexes() {
		errs = append(errs, d.Manager.DropIndex(ix))
	}
	return nd, errors.Join(append(errs, d.Close())...)
}

func (d *Database) moveTo(base string) (_ *Database, err error) {
	// Overwrite: start the page file and its log from scratch (recovering
	// an absent pair creates it).
	os.Remove(base + ".pages")
	os.Remove(base + ".pages.wal")
	fd, wal, _, err := storage.Recover(base + ".pages")
	if err != nil {
		return nil, err
	}
	pool := storage.NewBufferPool(fd, 0, storage.LRU)
	pool.AttachWAL(wal)
	mgr := asr.NewManager(d.Base, pool)
	defer func() {
		if err != nil {
			for _, ix := range mgr.Indexes() {
				mgr.DropIndex(ix) // end its maintenance; the pages die with the files
			}
			wal.Close()
			fd.Close()
		}
	}()
	for _, ix := range d.Manager.Indexes() {
		if _, err := mgr.CreateIndex(ix.Path(), ix.Extension(), ix.Decomposition()); err != nil {
			return nil, err
		}
	}
	nd := &Database{
		Base: d.Base, Manager: mgr, Engine: query.New(d.Base, mgr),
		basePath: base, disk: fd, wal: wal,
	}
	return nd, nd.Save()
}

// BuildIndexes creates one ASR per spec. A spec reads
// EXT:DEC:TYPE.Attr[.Attr...], e.g. full:binary:ROBOT.Arm.MountedTool
// — EXT one of can|full|left|right, DEC one of binary|none.
func (d *Database) BuildIndexes(specs []string) error {
	for _, spec := range specs {
		parts := strings.SplitN(spec, ":", 3)
		if len(parts) != 3 {
			return fmt.Errorf("server: index spec %q, want EXT:DEC:TYPE.A.B", spec)
		}
		if _, err := d.CreateIndex(parts[0], parts[1], parts[2]); err != nil {
			return fmt.Errorf("server: index spec %q: %w", spec, err)
		}
	}
	return nil
}

// CreateIndex builds one ASR from the operator spelling of its three
// parameters: extension can|full|left|right, decomposition binary|none,
// and the path TYPE.Attr[.Attr...].
func (d *Database) CreateIndex(ext, dec, path string) (*asr.Index, error) {
	e, err := asr.ParseExtension(ext)
	if err != nil {
		return nil, err
	}
	p, err := gom.ParsePath(d.Base.Schema(), path)
	if err != nil {
		return nil, err
	}
	dc, err := asr.ParseDecomposition(dec, p.Arity()-1)
	if err != nil {
		return nil, err
	}
	return d.Manager.CreateIndex(p, e, dc)
}
