package event

import "testing"

// TestWheelHorizonSizing checks RingBuckets covers the requested span with
// a power-of-two ring, and falls back to DefaultRingBuckets without one.
func TestWheelHorizonSizing(t *testing.T) {
	tests := []struct {
		granularity, horizon int64
		want                 int64
	}{
		{64, 0, DefaultRingBuckets},
		{64, -1, DefaultRingBuckets},
		{64, 64 * 62, DefaultRingBuckets},
		{64, 64 * 63, 128},
		{64, 33_616, 1024},
		{1, 33_616, 1 << 16},
		{SentryBucketCycles, 4_000_000, 1 << 16},
	}
	for _, tt := range tests {
		got := RingBuckets(tt.granularity, tt.horizon)
		if got != tt.want {
			t.Errorf("RingBuckets(%d, %d) = %d, want %d", tt.granularity, tt.horizon, got, tt.want)
		}
		if got&(got-1) != 0 {
			t.Errorf("RingBuckets(%d, %d) = %d, not a power of two", tt.granularity, tt.horizon, got)
		}
		if tt.horizon > 0 && got < tt.horizon/tt.granularity+2 {
			t.Errorf("ring of %d buckets cannot cover a %d-cycle horizon", got, tt.horizon)
		}
	}
}
