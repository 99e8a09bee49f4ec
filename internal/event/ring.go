// Package event holds the sizing rule of the timing wheel that tracks the
// refresh deadline of every cache line frame (the Refrint sentries).  The
// wheel itself lives in internal/core, next to the sentry drain that walks
// its bucket lists; the rule lives here, in a leaf package, so that the
// configuration can bound a cell's retention by the ring it would need.
package event

// SentryBucketCycles is the bucket width, in cycles, of a bank's sentry
// wheel.
const SentryBucketCycles = 64

// DefaultRingBuckets is the ring size used when no horizon is given.
const DefaultRingBuckets = 64

// RingBuckets returns the number of buckets a wheel with buckets of
// `granularity` cycles needs so that a deadline `horizon` cycles beyond the
// earliest pending one fits without growing the ring: horizon/granularity+2
// (the earliest deadline's bucket may be partly past, and the last one
// partly ahead), rounded up to a power of two so a bucket's slot is a mask,
// and never fewer than DefaultRingBuckets.
func RingBuckets(granularity, horizon int64) int64 {
	buckets := int64(DefaultRingBuckets)
	if horizon > 0 && granularity > 0 {
		need := horizon/granularity + 2
		for buckets < need {
			buckets <<= 1
		}
	}
	return buckets
}
