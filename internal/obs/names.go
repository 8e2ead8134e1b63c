package obs

// Canonical metric names. Every layer registers under these so the
// /metrics endpoint, the bench --trace table, DESIGN.md and the tests
// agree on one vocabulary.
const (
	// Query lifecycle (Apuama engine, internal/core).
	MQueryDuration    = "apuama_query_duration_seconds"    // full SVP query, end to end
	MBarrierWait      = "apuama_barrier_wait_seconds"      // consistency-barrier / freshness wait
	MDispatch         = "apuama_dispatch_seconds"          // sub-query launch loop
	MGather           = "apuama_gather_seconds"            // dispatch-complete → last partial
	MCompose          = "apuama_compose_seconds"           // result composition
	MSubqueryDuration = "apuama_subquery_duration_seconds" // one sub-query attempt, per node

	// Batch streaming (incremental gather/compose).
	MGatherFirstBatch  = "apuama_gather_first_batch_seconds" // gather start → first partial batch
	MGatherBatches     = "apuama_gather_batches_total"       // partial batches streamed to the composer
	MGatherRows        = "apuama_gather_rows_total"          // partial rows streamed to the composer
	MLimitShortCircuit = "apuama_limit_short_circuits_total" // gathers stopped early by a settled LIMIT
	MBatchPoolGets     = "apuama_batch_pool_gets"            // gauge: cumulative batch-pool checkouts
	MBatchPoolMisses   = "apuama_batch_pool_misses"          // gauge: checkouts that had to allocate

	// Engine activity counters.
	MSVPQueries    = "apuama_svp_queries_total"
	MPassThrough   = "apuama_passthrough_queries_total"
	MSubqueries    = "apuama_subqueries_total"
	MBlockedWrites = "apuama_blocked_writes_total"
	MComposedRows  = "apuama_composed_rows_total"
	MStaleReads    = "apuama_stale_reads_total"
	MFallbacks     = "apuama_svp_fallback_total" // labeled {reason=...}

	// Plan reuse (the shape cache, internal/core).
	MShapes         = "apuama_shapes_total"          // statement shapes added to the shape cache
	MShapeEvictions = "apuama_shape_evictions_total" // shapes evicted from the full cache

	// Resilience (mirrors of PR 1's counters).
	MSubqueryRetries  = "apuama_subquery_retries_total" // partition failovers
	MBackoffRetries   = "apuama_backoff_retries_total"  // in-place transient retries (engine)
	MDeadlineAborts   = "apuama_deadline_aborts_total"
	MBreakerTrips     = "apuama_breaker_trips_total"
	MProbes           = "apuama_breaker_probes_total"
	MAutoRecoveries   = "apuama_auto_recoveries_total"
	MTransientRetries = "apuama_transient_retries_total" // controller-level retries
	MReadFailovers    = "apuama_read_failovers_total"

	// Result cache & work sharing (internal/cache).
	MCacheHits           = "apuama_cache_hits_total"           // composed results served from cache
	MCacheMisses         = "apuama_cache_misses_total"         // lookups that executed for real
	MCacheStaleHits      = "apuama_cache_stale_hits_total"     // hits served from behind the head epoch
	MCacheShared         = "apuama_cache_shared_total"         // queries that shared an in-flight execution
	MCacheFills          = "apuama_cache_fills_total"          // composed results inserted
	MCacheEvictions      = "apuama_cache_evictions_total"      // entries evicted by size caps
	MCacheExpired        = "apuama_cache_expired_total"        // entries dropped at their TTL
	MCacheBytes          = "apuama_cache_bytes"                // gauge: resident bytes, result layer
	MCacheEntries        = "apuama_cache_entries"              // gauge: resident composed results
	MCacheFlightCancels  = "apuama_cache_flight_cancels_total" // singleflight followers cancelled mid-wait
	MCachePartialHits    = "apuama_cache_partial_hits_total"   // partitions served without dispatch
	MCachePartialMisses  = "apuama_cache_partial_misses_total" // partition probes that dispatched
	MCachePartialFills   = "apuama_cache_partial_fills_total"  // partition results inserted
	MCachePartialShares  = "apuama_cache_partial_shares_total" // partitions joined onto an in-flight leader
	MCachePartialBytes   = "apuama_cache_partial_bytes"        // gauge: resident bytes, partial layer
	MCachePartialEntries = "apuama_cache_partial_entries"      // gauge: resident partition entries

	// Fine-grained adaptive virtual partitions (cluster-level
	// work-stealing scheduler, internal/core).
	MAVPPartitions = "apuama_avp_partitions_total"      // fine partitions dispatched
	MAVPSteals     = "apuama_avp_steals_total"          // claims outside the node's home block
	MAVPRequeues   = "apuama_avp_requeues_total"        // partitions requeued after node failure
	MAVPNodeParts  = "apuama_avp_node_partitions_total" // per-node claims, labeled {node=...}

	// Columnar segment store (internal/storage + engine colScanOp),
	// labeled {node=...}.
	MEngineSegmentsBuilt   = "apuama_engine_segments_built_total"   // segments materialized from the heap
	MEngineSegmentsPruned  = "apuama_engine_segments_pruned_total"  // segments skipped via zone maps
	MEngineSegmentsScanned = "apuama_engine_segments_scanned_total" // segments actually scanned
	MStorageSegmentBytes   = "apuama_storage_segment_bytes"         // gauge: resident encoded segment bytes

	// Cooperative shared scans (MQO layer, internal/engine), labeled
	// {node=...}.
	MEngineSharedAttaches   = "apuama_engine_shared_attaches_total"   // consumers that joined a shared scan
	MEngineSharedScans      = "apuama_engine_shared_scans_total"      // segments physically scanned by drivers
	MEngineSharedDeliveries = "apuama_engine_shared_deliveries_total" // consumer-segments served from a driver's pass

	// Overload protection (internal/admission).
	MAdmissionAdmitted    = "apuama_admission_admitted_total"        // queries granted slots
	MAdmissionQueued      = "apuama_admission_queued_total"          // queries that waited for a slot
	MAdmissionShed        = "apuama_admission_shed_total"            // labeled {reason=queue-full|deadline|queue-timeout}
	MAdmissionWait        = "apuama_admission_wait_seconds"          // queue wait before admission
	MAdmissionBrownout    = "apuama_admission_brownout_level"        // gauge: degradation ladder level (0-1)
	MAdmissionMemReserved = "apuama_admission_memory_reserved_bytes" // gauge: bytes reserved against the budget
	MAdmissionMemAborts   = "apuama_admission_memory_aborts_total"   // reservations aborted at the budget
	MAdmissionSlowKills   = "apuama_admission_slow_kills_total"      // queries cancelled by the slow-query killer
	MAdmissionBatched     = "apuama_admission_batched_total"         // queries held in an MQO batching window
	MAdmissionBatchWins   = "apuama_admission_batch_windows_total"   // batching windows opened

	// Node processors.
	MPoolWait     = "apuama_pool_wait_seconds"     // connection-pool admission wait, labeled {node=...}
	MNodeInflight = "apuama_node_inflight"         // gauge, labeled {node=...}
	MFaultsDown   = "apuama_faults_injected_total" // labeled {node=..., kind=...}

	// Binary wire protocol (internal/proto).
	MWireFrames       = "apuama_wire_frames_total"  // frames in + out on binary connections
	MWireBytes        = "apuama_wire_bytes_total"   // bytes in + out on binary connections
	MWireStreams      = "apuama_wire_streams_total" // query streams opened
	MWireCancels      = "apuama_wire_cancels_total" // wire-level cancel frames honoured
	MWireProtoVersion = "apuama_wire_proto_version" // gauge: last handshake-negotiated version
	MWireShip         = "apuama_wire_ship_seconds"  // header→trailer shipping time per stream
)
