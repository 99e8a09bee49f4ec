package sched

import "testing"

// BenchmarkSubmitDequeue measures the scheduler hot path: one submission
// (free-list item, client FIFO append) plus its dequeue (weighted class pick,
// client round-robin, latency accounting) and release.  The benchmem gate in
// scripts/bench.sh pins this at 0 allocs/op.
func BenchmarkSubmitDequeue(b *testing.B) {
	s := New(Config{Workers: 4})
	payload := &struct{ n int }{}
	clients := [4]string{"c0", "c1", "c2", "c3"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Submit(clients[i%4], Class(i%NumClasses), payload); !ok {
			b.Fatal("submit rejected")
		}
		it := s.tryNext()
		if it == nil {
			b.Fatal("dequeue found nothing")
		}
		s.done(it)
	}
}
