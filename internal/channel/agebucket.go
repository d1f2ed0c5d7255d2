package channel

import "time"

// CSI-age bucketing shared by the serving layer (internal/serve cache
// keys) and the online controller (internal/drift validity horizons).
// Both must agree on where a bucket boundary falls: serve derives a cache
// key from a bucket and drift derives an allocation's validity horizon
// from the same boundary, so an epoch that straddled a bucket would let a
// cached allocation outlive the staleness level it was computed for.

// AgeBucket quantizes a CSI age against the coherence time into one of
// buckets+1 steps: ages in [0, coherence) map linearly onto buckets
// 0..buckets−1 and ages at or beyond one coherence time all land in
// bucket `buckets`. Non-positive ages (and degenerate coherence or
// bucket counts) are bucket 0.
func AgeBucket(age, coherence time.Duration, buckets int) int {
	if age <= 0 || coherence <= 0 || buckets <= 0 {
		return 0
	}
	// Saturate before multiplying: buckets·age overflows int64 for ages
	// near the top of time.Duration's range.
	if age >= coherence {
		return buckets
	}
	return int(int64(buckets) * int64(age) / int64(coherence))
}

// BucketStart returns the age at which a bucket begins — the inverse of
// AgeBucket's quantization, used to turn a bucket index back into the
// validity horizon it implies (the bucket after this one starts at
// BucketStart(bucket+1, ...)).
func BucketStart(bucket int, coherence time.Duration, buckets int) time.Duration {
	if bucket <= 0 || buckets <= 0 {
		return 0
	}
	return time.Duration(int64(coherence) * int64(bucket) / int64(buckets))
}

// AgedForBucket returns the impairment set for a quantized CSI-age
// bucket out of `buckets` steps per coherence time: bucket 0 is a fresh
// measurement, bucket `buckets` a full coherence time old (see Aged).
func (imp Impairments) AgedForBucket(bucket, buckets int) Impairments {
	if buckets <= 0 {
		return imp
	}
	return imp.Aged(float64(bucket) / float64(buckets))
}
