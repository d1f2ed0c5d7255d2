package serve

import "copa/internal/obs"

// Pre-resolved observability handles for the serving layer (DESIGN §9).
// All are registered at package init so the request hot path — in
// particular the allocation-free cache-hit path — never looks a metric
// up by name.
var (
	// Request flow.
	mRequests       = obs.C("copa.serve.requests")
	mRequestSeconds = obs.T("copa.serve.request_seconds")

	// Result cache and in-flight deduplication.
	mCacheHits      = obs.C("copa.serve.cache_hits")
	mCacheMisses    = obs.C("copa.serve.cache_misses")
	mCacheEvictions = obs.C("copa.serve.cache_evictions")
	mInflightDedup  = obs.C("copa.serve.inflight_dedup")

	// Entries in the result cache, mirrored onto /metrics so a fronting
	// router's shard balance is scrapeable. Hits, misses and evictions
	// are the counters above; /v1/healthz reports them per instance.
	gCacheEntries = obs.G("copa.serve.cache.entries")

	// Load shedding, split by cause: queue full at admission, deadline
	// expired while queued, server draining.
	mShedQueueFull = obs.C("copa.serve.shed_queue_full")
	mShedExpired   = obs.C("copa.serve.shed_expired")
	mShedClosed    = obs.C("copa.serve.shed_closed")

	// Evaluator pool behaviour.
	mBatches         = obs.C("copa.serve.batches")
	mQueueSeconds    = obs.T("copa.serve.queue_seconds")
	mBatchSize       = obs.H("copa.serve.batch_size", obs.LinearBuckets(1, 1, 16))
	mBatchShared     = obs.C("copa.serve.batch_shared_evals")
	mEvaluateSeconds = obs.T("copa.serve.evaluate_seconds")
	mEvaluateErrors  = obs.C("copa.serve.evaluate_errors")
	mQueueDepth      = obs.G("copa.serve.queue_depth")
	mWorkers         = obs.G("copa.serve.workers")
)
