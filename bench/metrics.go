package main

// metricDef names one reported number. Bounds and directions live in
// BENCHMARK.json; a test keeps the two lists identical.
type metricDef struct{ Name, Unit string }

// End-to-end metrics: what a user of CLAM would see. The same eight are
// reported on every workload, from the untraced run only. The 99th
// percentile is not among them: on a shared host it follows the host's
// jitter more than the program (runs of the same code spread 13 %), so it
// is reported per layer, beside p99.9 and the maximum.
var (
	mOpsPerS              = metricDef{"ops_per_s", "1/s"}
	mLatP50               = metricDef{"lat_p50_us", "us"}
	mCPUPerOp             = metricDef{"cpu_us_per_op", "us"}
	mAllocsPerOp          = metricDef{"allocs_per_op", "count"}
	mBytesPerOp           = metricDef{"bytes_per_op", "B"}
	mHeapPerSession       = metricDef{"heap_kb_per_session", "KB"}
	mGoroutinesPerSession = metricDef{"goroutines_per_session", "count"}
	mSetupS               = metricDef{"setup_s", "s"}
)

var endToEnd = []metricDef{
	mOpsPerS, mLatP50, mCPUPerOp, mAllocsPerOp, mBytesPerOp,
	mHeapPerSession, mGoroutinesPerSession, mSetupS,
}

// Per-layer metrics: the traced run. The prefix is the module the number
// belongs to.
var (
	// (a) leg stamps of the workload itself
	mRequestLeg  = metricDef{"core.request_leg_p50_us", "us"}
	mHandler     = metricDef{"core.handler_p50_us", "us"}
	mReplyLeg    = metricDef{"core.reply_leg_p50_us", "us"}
	mAsyncEnq    = metricDef{"core.async.enqueue_p50_ns", "ns"}
	mAsyncSync   = metricDef{"core.async.sync_p50_us", "us"}
	mFanPublish  = metricDef{"core.fanout.publish_call_p50_us", "us"}
	mFanDrainLag = metricDef{"core.fanout.drain_lag_p50_us", "us"}

	// (a) fixed side experiments, the same on every workload
	mCallPipeP50     = metricDef{"core.call_pipe_p50_us", "us"}
	mCallPipeAllocs  = metricDef{"core.call_pipe_allocs", "count"}
	mShmCallP50      = metricDef{"shm.call_p50_us", "us"}
	mShmCallAllocs   = metricDef{"shm.call_allocs", "count"}
	mUnixEchoP50     = metricDef{"wire.unix_echo_p50_us", "us"}
	mHopAddedP50     = metricDef{"core.forward.hop_added_p50_us", "us"}
	mHopAddedAllocs  = metricDef{"core.forward.hop_added_allocs", "count"}
	mUpcallRelayP50  = metricDef{"core.forward.upcall_relay_p50_us", "us"}
	mSessionDial     = metricDef{"core.session.dial_p50_us", "us"}
	mSessionFirst    = metricDef{"core.session.first_call_p50_us", "us"}
	mSessionClose    = metricDef{"core.session.close_p50_us", "us"}
	mDynloadCached   = metricDef{"dynload.load_cached_ns", "ns"}
	mXdrInt64        = metricDef{"xdr.encode_int64_ns", "ns"}
	mXdrBytesEnc     = metricDef{"xdr.bytes_16k_encode_ns", "ns"}
	mXdrBytesDec     = metricDef{"xdr.bytes_16k_decode_ns", "ns"}
	mBundleCompile   = metricDef{"bundle.compile_cached_ns", "ns"}
	mRPCEncCallSmall = metricDef{"rpc.encode_call_small_ns", "ns"}
	mRPCDecArgsSmall = metricDef{"rpc.decode_args_small_ns", "ns"}
	mRPCInvoke       = metricDef{"rpc.invoke_ns", "ns"}
	mRPCEncRepSmall  = metricDef{"rpc.encode_reply_small_ns", "ns"}
	mRPCDecResSmall  = metricDef{"rpc.decode_results_small_ns", "ns"}
	mRPCEncCall16k   = metricDef{"rpc.encode_call_16k_ns", "ns"}
	mRPCDecArgs16k   = metricDef{"rpc.decode_args_16k_ns", "ns"}
	mRPCEncRep16k    = metricDef{"rpc.encode_reply_16k_ns", "ns"}
	mRPCDecRes16k    = metricDef{"rpc.decode_results_16k_ns", "ns"}
	mRPCPathAllocs   = metricDef{"rpc.call_path_allocs", "count"}
	mWireWriteSmall  = metricDef{"wire.write_flush_small_ns", "ns"}
	mWireRecvSmall   = metricDef{"wire.recv_small_ns", "ns"}
	mWireWrite16k    = metricDef{"wire.write_flush_16k_ns", "ns"}
	mWireRecv16k     = metricDef{"wire.recv_16k_ns", "ns"}
	mWireRTAllocs    = metricDef{"wire.roundtrip_allocs", "count"}
	mHandleGet       = metricDef{"handle.get_ns", "ns"}
	mHandlePutRevoke = metricDef{"handle.put_revoke_ns", "ns"}
	mRucProxyCall    = metricDef{"ruc.proxy_call_ns", "ns"}
	mRucSnapshot16   = metricDef{"ruc.sharded_snapshot_16_ns", "ns"}
	mUpcallPost      = metricDef{"upcall.post_ns", "ns"}
	mUpcallConvert   = metricDef{"upcall.convert_args_ns", "ns"}
	mTaskSpawnReuse  = metricDef{"task.spawn_reuse_ns", "ns"}
	mTaskBlockSignal = metricDef{"task.block_signal_ns", "ns"}

	// (c) counters across the traced phase
	mFramesPerOp     = metricDef{"wire.frames_per_op", "count"}
	mFlushesPerOp    = metricDef{"wire.flushes_per_op", "count"}
	mFramesPerFlush  = metricDef{"wire.writev_frames_per_flush", "count"}
	mParallelismHWM  = metricDef{"core.dispatch.parallelism_hwm", "count"}
	mQueueDepthMax   = metricDef{"core.dispatch.queue_depth_max", "count"}
	mStallsPerKop    = metricDef{"core.dispatch.worker_stalls_per_kop", "count"}
	mBatchesPerKop   = metricDef{"core.batches_per_kop", "count"}
	mFanDelivered    = metricDef{"core.fanout.delivered_per_published", "count"}
	mFanDrops        = metricDef{"core.fanout.queue_drops", "count"}
	mFanCoalesced    = metricDef{"core.fanout.coalesced", "count"}
	mRelayedPerOp    = metricDef{"core.forward.calls_relayed_per_op", "count"}
	mProxyHandles    = metricDef{"core.forward.proxy_handles_live", "count"}
	mDriverP99       = metricDef{"driver.lat_p99_us", "us"}
	mDriverP999      = metricDef{"driver.lat_p999_us", "us"}
	mDriverMax       = metricDef{"driver.lat_max_us", "us"}
	mDriverSamples   = metricDef{"driver.samples", "count"}
	mDriverGCCycles  = metricDef{"driver.gc_cycles", "count"}
	mDriverGCPause   = metricDef{"driver.gc_pause_total_ms", "ms"}
	mDriverUntraced  = metricDef{"driver.untraced_lat_p50_us", "us"}
	mDriverTracedP50 = metricDef{"driver.traced_lat_p50_us", "us"}
	mDriverOverhead  = metricDef{"driver.trace_overhead_ratio", "ratio"}
)

var perLayer = []metricDef{
	mRequestLeg, mHandler, mReplyLeg, mAsyncEnq, mAsyncSync, mFanPublish, mFanDrainLag,
	mCallPipeP50, mCallPipeAllocs, mShmCallP50, mShmCallAllocs, mUnixEchoP50,
	mHopAddedP50, mHopAddedAllocs, mUpcallRelayP50,
	mSessionDial, mSessionFirst, mSessionClose, mDynloadCached,
	mXdrInt64, mXdrBytesEnc, mXdrBytesDec, mBundleCompile,
	mRPCEncCallSmall, mRPCDecArgsSmall, mRPCInvoke, mRPCEncRepSmall, mRPCDecResSmall,
	mRPCEncCall16k, mRPCDecArgs16k, mRPCEncRep16k, mRPCDecRes16k, mRPCPathAllocs,
	mWireWriteSmall, mWireRecvSmall, mWireWrite16k, mWireRecv16k, mWireRTAllocs,
	mHandleGet, mHandlePutRevoke, mRucProxyCall, mRucSnapshot16,
	mUpcallPost, mUpcallConvert, mTaskSpawnReuse, mTaskBlockSignal,
	mFramesPerOp, mFlushesPerOp, mFramesPerFlush,
	mParallelismHWM, mQueueDepthMax, mStallsPerKop, mBatchesPerKop,
	mFanDelivered, mFanDrops, mFanCoalesced, mRelayedPerOp, mProxyHandles,
	mDriverP99, mDriverP999, mDriverMax, mDriverSamples, mDriverGCCycles, mDriverGCPause,
	mDriverUntraced, mDriverTracedP50, mDriverOverhead,
}

// fromNs converts a duration in nanoseconds to the metric's unit.
func (d metricDef) fromNs(ns float64) float64 {
	switch d.Unit {
	case "us":
		return ns / 1e3
	case "ms":
		return ns / 1e6
	case "s":
		return ns / 1e9
	}
	return ns
}
