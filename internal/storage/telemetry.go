package storage

import "asr/internal/telemetry"

// Registry mirrors of the storage layer's activity counters. The
// bespoke BufferStats/DiskStats snapshots stay the tool for scoped
// measurements (they can be reset per experiment); the registry series
// are process-cumulative and aggregate across every pool and disk, the
// Prometheus convention. Instruments are resolved once at init so the
// hot paths pay a single atomic add each.
var (
	telPoolPins          = telemetry.Default().Counter("storage_pool_pins_total")
	telPoolHits          = telemetry.Default().Counter("storage_pool_hits_total")
	telPoolMisses        = telemetry.Default().Counter("storage_pool_misses_total")
	telPoolEvictions     = telemetry.Default().Counter("storage_pool_evictions_total")
	telPoolWriteBacks    = telemetry.Default().Counter("storage_pool_writebacks_total")
	telPoolWriteBackErrs = telemetry.Default().Counter("storage_pool_writeback_errors_total")
	telPoolReadSeconds   = telemetry.Default().Histogram("storage_pool_read_seconds", telemetry.LatencyBuckets)
	telDiskReads         = telemetry.Default().Counter("storage_disk_reads_total")
	telDiskWrites        = telemetry.Default().Counter("storage_disk_writes_total")

	// Durability instruments: WAL traffic, group-commit batch sizes
	// (commit markers per fsync), checkpoints, and what recovery did.
	telWALRecords          = telemetry.Default().Counter("storage_wal_records_total")
	telWALCommits          = telemetry.Default().Counter("storage_wal_commits_total")
	telWALSyncs            = telemetry.Default().Counter("storage_wal_syncs_total")
	telWALTruncations      = telemetry.Default().Counter("storage_wal_truncations_total")
	telWALBatch            = telemetry.Default().Histogram("storage_wal_group_commit_batch", []float64{1, 2, 4, 8, 16, 32, 64, 128})
	telCheckpoints         = telemetry.Default().Counter("storage_checkpoints_total")
	telCheckpointSeconds   = telemetry.Default().Histogram("storage_checkpoint_seconds", telemetry.LatencyBuckets)
	telChecksumFailures    = telemetry.Default().Counter("storage_page_checksum_failures_total")
	telRecoveryRedone      = telemetry.Default().Counter("storage_recovery_pages_redone_total")
	telRecoveryCommitted   = telemetry.Default().Counter("storage_recovery_committed_txns_total")
	telRecoveryDiscarded   = telemetry.Default().Counter("storage_recovery_discarded_txns_total")
	telRecoveryQuarantined = telemetry.Default().Counter("storage_recovery_quarantined_pages_total")

	// Durability-beyond-crash instruments: WAL segment archiving, online
	// backup / point-in-time restore, and the background integrity
	// scrubber (docs/ROBUSTNESS.md, "Backup, PITR, and scrubbing").
	telArchiveSealed  = telemetry.Default().Counter("archive_segments_sealed_total")
	telArchiveBytes   = telemetry.Default().Counter("archive_bytes_sealed_total")
	telArchivePruned  = telemetry.Default().Counter("archive_segments_pruned_total")
	telArchiveCorrupt = telemetry.Default().Counter("archive_corrupt_segments_total")

	telBackupRuns     = telemetry.Default().Counter("backup_runs_total")
	telBackupFailures = telemetry.Default().Counter("backup_failures_total")
	telBackupPages    = telemetry.Default().Counter("backup_pages_copied_total")
	telBackupTorn     = telemetry.Default().Counter("backup_torn_pages_total")
	telBackupBytes    = telemetry.Default().Counter("backup_bytes_total")
	telRestoreRuns    = telemetry.Default().Counter("backup_restores_total")
	telRestoreHealed  = telemetry.Default().Counter("backup_restore_healed_pages_total")

	telScrubChecked    = telemetry.Default().Counter("scrub_pages_checked_total")
	telScrubFound      = telemetry.Default().Counter("scrub_corruptions_found_total")
	telScrubHealed     = telemetry.Default().Counter("scrub_corruptions_healed_total")
	telScrubPasses     = telemetry.Default().Counter("scrub_passes_total")
	telScrubPassErrors = telemetry.Default().Counter("scrub_pass_errors_total")
	telScrubUnhealed   = telemetry.Default().Gauge("scrub_unhealed_pages")
)
