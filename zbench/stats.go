package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified). It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapSampler samples the live heap (bytes reachable at the end of the
// latest GC cycle) every 5 ms while it runs.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	mu      sync.Mutex
	samples []float64 // MiB
}

const liveHeapMetric = "/gc/heap/live:bytes"

func readLiveHeapMB() float64 {
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// startHeapSampler collects a GC first so the samples reflect the timed
// phase, not garbage left by set-up.
func startHeapSampler() *heapSampler {
	runtime.GC()
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				v := readLiveHeapMB()
				h.mu.Lock()
				h.samples = append(h.samples, v)
				h.mu.Unlock()
			}
		}
	}()
	return h
}

// peakMB stops the sampler and returns the peak live heap in MiB, taken
// as the 95th percentile of the samples: the level the heap holds for
// the busiest 5% of the timed phase, which one coincidence of large
// allocations cannot set on its own.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return quantile(h.samples, 0.95)
}
