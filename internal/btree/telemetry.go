package btree

import "asr/internal/telemetry"

// Registry mirrors of B⁺-tree activity, aggregated across every tree in
// the process. Node reads are logical (the buffer pool may satisfy them
// without I/O); node writes count serializations of a node into its
// page, and leaf splices the node writes that edited a leaf's bytes in
// place rather than decoding and re-encoding it; splits count leaf and
// internal splits together.
var (
	telNodeReads   = telemetry.Default().Counter("btree_node_reads_total")
	telNodeWrites  = telemetry.Default().Counter("btree_node_writes_total")
	telLeafSplices = telemetry.Default().Counter("btree_leaf_splices_total")
	telSplits      = telemetry.Default().Counter("btree_splits_total")

	// telEmptyLeafHops counts scan hops over empty leaves left behind by
	// deletion (deferred compaction, see the package comment). A rising
	// rate relative to scans signals a tree due for Rematerialize/Repair.
	telEmptyLeafHops = telemetry.Default().Counter("btree_empty_leaf_hops_total")
)
