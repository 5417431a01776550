package storage

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"asr/internal/fault"
)

// TestBackupCrashMidManifestLeavesNoBackup tears the BACKUP.json write
// in half. The manifest is the backup's commit point and is installed
// atomically, so the directory must read as "no backup here" — not as a
// damaged one — and, after the restart, accept the retry: a partial
// manifest under the real name would both fail ReadBackupManifest and
// make the next Backup refuse the directory as already holding one.
func TestBackupCrashMidManifestLeavesNoBackup(t *testing.T) {
	s := newBackupScene(t)
	for i := 0; i < 3; i++ {
		s.txn(byte(i + 1))
	}
	s.checkpoint()
	bdir := filepath.Join(s.dir, "bk")

	// Nothing else writes through the disk during a quiesced backup: the
	// first admitted write is the manifest.
	s.fd.SetCrashpoint(NewCrashpoint(fault.New(0), 1, 0.5))
	if _, err := Backup(s.fd, s.w, bdir, nil); !errors.Is(err, ErrCrashed) {
		t.Fatalf("backup under a crashpoint: %v, want ErrCrashed", err)
	}
	s.fd.SetCrashpoint(nil) // "restart"

	if _, err := ReadBackupManifest(bdir); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("after the torn manifest write ReadBackupManifest says %v, want not-exist", err)
	}
	if st, err := os.Stat(filepath.Join(bdir, BackupManifestName+".tmp")); err != nil || st.Size() == 0 {
		t.Fatalf("the torn write should have left a partial temp file (stat: %v, %v)", st, err)
	}
	info, err := Backup(s.fd, s.w, bdir, nil)
	if err != nil {
		t.Fatalf("retry into the same directory: %v", err)
	}
	man, err := ReadBackupManifest(bdir)
	if err != nil || man.EndLSN != info.EndLSN {
		t.Fatalf("retry's manifest: %+v, err %v", man, err)
	}
}
