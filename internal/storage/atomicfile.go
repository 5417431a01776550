package storage

import (
	"errors"
	"os"
	"path/filepath"
)

// AtomicWriteFile replaces path with data so that, across a crash at any
// instant, path holds either its previous content or all of data. It is
// the one way this tree writes a whole file that must survive: the ASR
// manifest, the object-base snapshot (dump.SaveFile), BACKUP.json and
// sealed WAL segments.
//
// The bytes go to path+".tmp" and are fsynced before the rename (a
// rename is not a barrier: without the fsync a power cut can leave the
// new name pointing at an empty file), then the parent directory is
// fsynced so the rename itself is durable. A crash leaves at worst a
// stale .tmp beside an intact path; the next write overwrites it.
//
// cp and stage are the crash tests' two ways in, both nil in production:
// cp gates the data write like any other physical write, and stage is
// called after each step — "written", "synced" (tmp closed, not yet
// renamed), "renamed" (before the directory fsync). An error from either
// aborts the sequence and leaves the files as a kill at that instant
// would.
func AtomicWriteFile(path string, data []byte, cp *Crashpoint, stage func(string) error) (err error) {
	tmp := path + ".tmp"
	killed := false // err simulates a kill: do not tidy up after it
	defer func() {
		if err != nil && !killed {
			os.Remove(tmp)
		}
	}()
	reached := func(s string) error {
		if stage == nil {
			return nil
		}
		serr := stage(s)
		killed = serr != nil
		return serr
	}
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	err = cp.writeAt(f, data, 0)
	killed = errors.Is(err, ErrCrashed)
	if err == nil {
		err = reached("written")
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = reached("synced")
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err == nil {
		err = reached("renamed")
	}
	if err == nil {
		err = syncDir(filepath.Dir(path))
	}
	return err
}

// syncDir fsyncs a directory so a rename or unlink inside it is
// durable before the caller proceeds.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
