package storage

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Online hot backup and point-in-time restore.
//
// Backup streams a fuzzy copy of a live FileDisk into a backup
// directory without blocking queries: each page record is copied
// atomically under the disk's latch (SnapshotPage), but the sweep as a
// whole races concurrent writers, so the copy is not transactionally
// consistent on its own. Consistency is restored at Restore time by
// replaying archived WAL from the backup's start-LSN watermark — the
// same fuzzy-copy-plus-log design as pg_basebackup. A page that fails
// its checksum during the copy (pre-existing media rot) is copied
// anyway and recorded as torn; replay heals it if the log still holds a
// committed image.
//
// Restore lays the backup down at a new base path, replays the archive
// up to any target LSN (point-in-time recovery), deliberately marks
// pages whose state is *past* the target as corrupt (zapPage), and
// reports what it healed and what stayed quarantined. Opening the
// restored base (storage.Recover + asr.OpenFrom) then routes damaged
// partitions through the existing quarantine → Repair machinery.

// BackupManifestName is the JSON manifest inside a backup directory.
const BackupManifestName = "BACKUP.json"

// backupPagesName is the page-file copy inside a backup directory.
const backupPagesName = "pages.bak"

// backupManifestVersion is bumped when the backup layout changes.
const backupManifestVersion = 1

// ErrPastArchive means the requested restore target LSN is beyond
// everything the archive (plus the backup itself) can reconstruct.
var ErrPastArchive = errors.New("restore: target LSN beyond archived history")

// BackupManifest is the durable description of one backup.
type BackupManifest struct {
	Version   int               `json:"version"`
	StartLSN  uint64            `json:"start_lsn"` // WAL watermark when the sweep began
	EndLSN    uint64            `json:"end_lsn"`   // WAL watermark when the sweep finished
	PageSize  int               `json:"page_size"`
	NumPages  uint64            `json:"num_pages"`
	TornPages []uint64          `json:"torn_pages,omitempty"`
	Aux       map[string]string `json:"aux,omitempty"` // suffix → CRC32C (hex) of the copied file
}

// BackupInfo summarizes one Backup run.
type BackupInfo struct {
	Dir       string `json:"dir"`
	StartLSN  uint64 `json:"start_lsn"`
	EndLSN    uint64 `json:"end_lsn"`
	Pages     int    `json:"pages"`
	TornPages int    `json:"torn_pages"`
	Bytes     int64  `json:"bytes"`
}

// Backup streams an online copy of fd (and any aux files — typically
// the ASR manifest and the object-base dump, keyed by their restored
// suffix) into dstDir. The copy proceeds one page at a time under the
// disk latch, so concurrent queries and writers are never blocked for
// more than one page copy. w provides the start/end LSN watermarks;
// restoring this backup requires the archive to retain every record
// from StartLSN on (see Archive.Prune).
//
// dstDir is created if needed but must not already hold a backup.
func Backup(fd *FileDisk, w *WAL, dstDir string, aux map[string]string) (info *BackupInfo, err error) {
	defer func() {
		if err != nil {
			telBackupFailures.Inc()
		}
	}()
	if err := os.MkdirAll(dstDir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: backup: %w", err)
	}
	if _, serr := os.Stat(filepath.Join(dstDir, BackupManifestName)); serr == nil {
		return nil, fmt.Errorf("storage: backup: %s already holds a backup", dstDir)
	}

	man := BackupManifest{
		Version:  backupManifestVersion,
		StartLSN: w.AppendedLSN(),
		PageSize: fd.PageSize(),
		Aux:      map[string]string{},
	}

	// Aux files first: they are small next to the page file, so copying
	// them at the start keeps the page sweep — the long part —
	// uninterrupted.
	for suffix, src := range aux {
		crc, cerr := copyFileSync(nil, src, filepath.Join(dstDir, "aux."+suffix))
		if cerr != nil {
			return nil, fmt.Errorf("storage: backup aux %s: %w", suffix, cerr)
		}
		man.Aux[suffix] = fmt.Sprintf("%08x", crc)
	}

	out, err := os.OpenFile(filepath.Join(dstDir, backupPagesName), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: backup: %w", err)
	}
	defer out.Close()

	hdr, err := fd.SnapshotHeader()
	if err != nil {
		return nil, err
	}
	var bytes int64
	n, err := out.Write(hdr)
	if err != nil {
		return nil, fmt.Errorf("storage: backup: %w", err)
	}
	bytes += int64(n)

	// Fuzzy sweep: pages allocated after this point are not copied —
	// their committed images live in WAL records above StartLSN and are
	// recreated by replay at restore.
	maxID := fd.MaxPageID()
	man.NumPages = uint64(maxID)
	pages := 0
	for id := PageID(1); id <= maxID; id++ {
		phys, ok, perr := fd.SnapshotPage(id)
		if perr != nil {
			return nil, perr
		}
		if !ok {
			man.TornPages = append(man.TornPages, uint64(id))
			telBackupTorn.Inc()
		}
		n, werr := out.Write(phys)
		if werr != nil {
			return nil, fmt.Errorf("storage: backup page %v: %w", id, werr)
		}
		bytes += int64(n)
		pages++
		telBackupPages.Inc()
	}
	if err := out.Sync(); err != nil {
		return nil, fmt.Errorf("storage: backup: %w", err)
	}
	man.EndLSN = w.AppendedLSN()

	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("storage: backup: %w", err)
	}
	// The manifest is the backup's commit point: it exists iff it is
	// complete (a half-written one would be unreadable and make the next
	// Backup refuse the directory), and the directory fsync installing it
	// covers the page copy's and aux files' names too. Gated by the disk's
	// crashpoint like the disk's own writes.
	if err := AtomicWriteFile(filepath.Join(dstDir, BackupManifestName), append(data, '\n'), fd.crashpoint(), nil); err != nil {
		return nil, fmt.Errorf("storage: backup: %w", err)
	}
	telBackupRuns.Inc()
	telBackupBytes.Add(uint64(bytes))
	return &BackupInfo{
		Dir:       dstDir,
		StartLSN:  man.StartLSN,
		EndLSN:    man.EndLSN,
		Pages:     pages,
		TornPages: len(man.TornPages),
		Bytes:     bytes,
	}, nil
}

// ReadBackupManifest loads and validates a backup directory's manifest.
func ReadBackupManifest(dir string) (*BackupManifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, BackupManifestName))
	if err != nil {
		return nil, fmt.Errorf("storage: backup manifest: %w", err)
	}
	var man BackupManifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("storage: backup manifest: %w", err)
	}
	if man.Version != backupManifestVersion {
		return nil, fmt.Errorf("storage: backup manifest: version %d, want %d", man.Version, backupManifestVersion)
	}
	if man.PageSize <= 0 {
		return nil, fmt.Errorf("storage: backup manifest: invalid page size %d", man.PageSize)
	}
	return &man, nil
}

// RestoreInfo summarizes one Restore run.
type RestoreInfo struct {
	StartLSN         uint64   // the backup's fuzzy-copy watermark
	TargetLSN        uint64   // the LSN actually restored to
	RecordsApplied   int      // committed page images redone onto the copy
	HealedPages      int      // pages whose backup copy failed checksum and a replayed image repaired
	PastTargetPages  []PageID // pages newer than the target, marked corrupt for quarantine → Repair
	QuarantinedPages []PageID // pages still unreadable after replay (unhealable from the archive)
}

// Restore performs point-in-time recovery: it lays the backup in
// backupDir down at dstBase (dstBase.pages plus every aux file the
// backup carries, e.g. dstBase.manifest / dstBase.gom), replays
// committed page images from the WAL archive in archiveDir up to
// targetLSN, and seats the restored file's LSN watermark at the target.
// targetLSN 0 means "everything the archive has". A target below the
// backup's StartLSN is an error (use an older backup); a target above
// the archived history is ErrPastArchive.
//
// Pages whose restored state is newer than the target (copied late in
// the fuzzy sweep) are deliberately marked corrupt: opening the base
// then quarantines the owning partitions and Manager.Repair rebuilds
// them from the object base — nothing past the target survives.
//
// Restore never modifies its sources; a restore that crashes midway is
// simply re-run.
func Restore(backupDir, archiveDir, dstBase string, targetLSN uint64) (*RestoreInfo, error) {
	return restoreWith(nil, backupDir, archiveDir, dstBase, targetLSN)
}

// restoreWith is Restore with a crashpoint gating the destination
// writes, so the crash-mid-restore matrix can freeze a half-written
// destination and assert a re-run succeeds.
func restoreWith(cp *Crashpoint, backupDir, archiveDir, dstBase string, targetLSN uint64) (*RestoreInfo, error) {
	man, err := ReadBackupManifest(backupDir)
	if err != nil {
		return nil, err
	}

	// Gather the archive's view first: the target must be reachable.
	var arch *Archive
	maxArchived := uint64(0)
	if archiveDir != "" {
		arch, err = OpenArchive(archiveDir)
		if err != nil {
			return nil, err
		}
		maxArchived, err = arch.MaxLSN()
		if err != nil {
			return nil, err
		}
	}
	// Without (or beyond) archived history the copy itself carries state
	// up to EndLSN; restoring to exactly EndLSN is only consistent when
	// nothing moved during the sweep.
	reachable := max(maxArchived, man.EndLSN)
	if targetLSN == 0 {
		targetLSN = reachable
	}
	if targetLSN < man.StartLSN {
		return nil, fmt.Errorf("storage: restore: target LSN %d predates the backup (start %d) — restore an older backup",
			targetLSN, man.StartLSN)
	}
	if targetLSN > reachable {
		return nil, fmt.Errorf("storage: restore: %w: target %d, archive ends at %d", ErrPastArchive, targetLSN, reachable)
	}

	// Lay the files down. Stale leftovers from a previous attempt at the
	// same base (including a live-looking WAL) are overwritten/removed —
	// restore owns dstBase.
	pagesPath := dstBase + ".pages"
	if _, err := copyFileSync(cp, filepath.Join(backupDir, backupPagesName), pagesPath); err != nil {
		return nil, fmt.Errorf("storage: restore pages: %w", err)
	}
	for suffix, wantCRC := range man.Aux {
		crc, cerr := copyFileSync(nil, filepath.Join(backupDir, "aux."+suffix), dstBase+"."+suffix)
		if cerr != nil {
			return nil, fmt.Errorf("storage: restore aux %s: %w", suffix, cerr)
		}
		if got := fmt.Sprintf("%08x", crc); got != wantCRC {
			return nil, fmt.Errorf("storage: restore aux %s: checksum %s, backup manifest says %s (backup damaged)",
				suffix, got, wantCRC)
		}
	}
	if err := os.Remove(dstBase + ".pages.wal"); err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("storage: restore: %w", err)
	}

	fd, err := OpenFileDisk(pagesPath, 0)
	if err != nil {
		return nil, err
	}
	defer fd.Close()
	fd.SetCrashpoint(cp)
	if fd.PageSize() != man.PageSize {
		return nil, fmt.Errorf("storage: restore: copied file has page size %d, backup manifest says %d",
			fd.PageSize(), man.PageSize)
	}

	info := &RestoreInfo{StartLSN: man.StartLSN, TargetLSN: targetLSN}

	// Replay: the newest committed image at or below the target, per page
	// — exactly Recover's redo, sourced from the archive chain (read
	// once). Damaged or gapped history fails the restore.
	if arch != nil {
		images, err := foldImageLog(arch, nil, targetLSN)
		if err != nil {
			return nil, err
		}
		// stored < image: the fuzzy copy is stale — roll forward.
		// stored > image: the copy caught state past the target (late in
		// the sweep) — rewind; the image is by construction the newest
		// committed one at or below the target. Corrupt: the copy tore —
		// heal.
		info.RecordsApplied, info.HealedPages, err = images.apply(fd, func(stored, image uint64) bool {
			return stored != image
		})
		if err != nil {
			return nil, err
		}
		telRestoreHealed.Add(uint64(info.HealedPages))
	}

	// Sweep the restored file: state past the target is zapped (it will
	// quarantine and Repair at open), state still unreadable is reported.
	for id := PageID(1); id <= fd.MaxPageID(); id++ {
		lsn, perr := fd.PageLSN(id)
		switch {
		case errors.Is(perr, ErrCorruptPage):
			info.QuarantinedPages = append(info.QuarantinedPages, id)
		case perr == nil && lsn > targetLSN:
			if err := fd.zapPage(id); err != nil {
				return nil, err
			}
			info.PastTargetPages = append(info.PastTargetPages, id)
		case perr != nil:
			return nil, perr
		}
	}

	fd.bumpMaxLSN(targetLSN)
	if err := fd.Sync(); err != nil {
		return nil, err
	}
	telRestoreRuns.Inc()
	return info, nil
}

// copyFileSync copies src to dst (overwriting), fsyncs dst, and returns
// the CRC32C of the copied bytes. cp, when non-nil, gates the writes so
// the crash-mid-restore matrix can freeze a half-written destination.
func copyFileSync(cp *Crashpoint, src, dst string) (uint32, error) {
	in, err := os.Open(src)
	if err != nil {
		return 0, err
	}
	defer in.Close()
	out, err := os.OpenFile(dst, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	defer out.Close()
	var (
		crc uint32
		off int64
		buf = make([]byte, 1<<16)
	)
	for {
		n, rerr := in.Read(buf)
		if n > 0 {
			if werr := cp.writeAt(out, buf[:n], off); werr != nil {
				return 0, werr
			}
			crc = crc32.Update(crc, castagnoli, buf[:n])
			off += int64(n)
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return 0, rerr
		}
	}
	if err := out.Sync(); err != nil {
		return 0, err
	}
	if err := out.Close(); err != nil {
		return 0, err
	}
	return crc, nil
}
