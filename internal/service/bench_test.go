package service

// The service benchmarks live here, NOT in the repo-root suite: the
// root bench binary's import graph must stay fixed across PRs so its
// micro-benchmarks (model build, probe selection) compare like with
// like — linking the daemon stack into that binary measurably shifts
// its code layout. `make bench` runs both packages and merges the
// output into one BENCH json.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// runBenchSessions opens n concurrent sessions against m — every one
// naming the same target config, so the model store builds once — and
// drains them all to completion.
func runBenchSessions(b *testing.B, m *Manager, n, trials, probes int) {
	b.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess, err := m.Open(testSpec("bench", int64(100+i), trials, probes))
			if err != nil {
				errs <- err
				return
			}
			defer m.CloseSession(sess)
			for {
				_, ok, err := sess.Next()
				if err != nil {
					errs <- err
					return
				}
				if !ok {
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		b.Fatal(err)
	}
}

// BenchmarkServiceSessions measures flowrecond's session throughput:
// n concurrent sessions, all attacking one target config, opened and
// drained to completion per op. The batched variants run the real
// service path — shared model store (one build for the whole benchmark)
// plus the per-target batched scheduler; naive/sessions=64 is the
// pre-daemon deployment model (one goroutine per session, each building
// its own model from scratch), the baseline the ≥2× acceptance
// criterion is measured against.
func BenchmarkServiceSessions(b *testing.B) {
	const trials, probes = 2, 2
	for _, n := range []int{1, 64, 1000} {
		b.Run(fmt.Sprintf("batched/sessions=%d", n), func(b *testing.B) {
			m := NewManager(Config{MaxActive: n, Workers: 4, Batch: 8})
			defer m.Shutdown()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runBenchSessions(b, m, n, trials, probes)
			}
			b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "sessions/sec")
		})
	}
	b.Run("naive/sessions=64", func(b *testing.B) {
		specs := make([]SessionSpec, 64)
		for i := range specs {
			specs[i] = testSpec("bench", int64(100+i), trials, probes)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := runSessionsNaive(specs); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(specs)*b.N)/b.Elapsed().Seconds(), "sessions/sec")
	})
}

// BenchmarkServiceProbeThroughput measures the scheduler's probe-level
// throughput: 16 concurrent sessions × 4 trials × 4 probes on one
// shared target, reporting probes/sec across every attacker in the
// roster and the model store's lookup hit rate (the amortization the
// multi-tenant design exists for — all but the very first session hit).
func BenchmarkServiceProbeThroughput(b *testing.B) {
	const sessions, trials, probes = 16, 4, 4
	m := NewManager(Config{MaxActive: sessions, Workers: 4, Batch: 8})
	defer m.Shutdown()
	var probeCount atomic.Int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for s := 0; s < sessions; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				sess, err := m.Open(testSpec("bench", int64(200+s), trials, probes))
				if err != nil {
					b.Error(err)
					return
				}
				defer m.CloseSession(sess)
				for {
					res, ok, err := sess.Next()
					if err != nil {
						b.Error(err)
						return
					}
					if !ok {
						return
					}
					for _, att := range res.Attackers {
						probeCount.Add(int64(len(att.Probes)))
					}
				}
			}(s)
		}
		wg.Wait()
	}
	b.ReportMetric(float64(probeCount.Load())/b.Elapsed().Seconds(), "probes/sec")
	st := m.Store().Stats()
	if lookups := st.Hits + st.Misses; lookups > 0 {
		b.ReportMetric(100*float64(st.Hits)/float64(lookups), "storehit%")
	}
}
