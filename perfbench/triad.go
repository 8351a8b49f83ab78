package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// triadReference measures the host's sustainable memory bandwidth with a
// STREAM-style triad a = b + s·c (24 bytes moved per element) and relates
// the Vlasov sweep to it. Each array must be at least four times the
// last-level cache; when three such arrays do not fit in a quarter of the
// available memory the triad is skipped and only the computed operations
// per byte are reported, with the reason.
func (p *prober) triadReference(llc, avail int64) {
	arrayBytes := 4 * llc
	if llc <= 0 || 3*arrayBytes > avail/4 {
		p.res.note("host.triad_gb_s not measured: 3 arrays of %d MiB (4× the %d MiB last-level cache) exceed a quarter of the %d MiB available memory; vlasov.roofline_fraction not reported, computed vlasov.ops_per_byte = %d flop/B",
			arrayBytes>>20, llc>>20, avail>>20, flopsPerCellSweep/bytesPerCellSweep)
		return
	}
	n := int(arrayBytes / 8)
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	var best time.Duration
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		parallelRanges(n, nproc(), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				a[i] = b[i] + 3*c[i]
			}
		})
		if d := time.Since(t0); rep == 0 || d < best {
			best = d
		}
	}
	gbs := 24 * float64(n) / best.Seconds() / 1e9
	p.res.info("host.triad_gb_s", gbs, "GB/s", 3)
	p.res.info("host.triad_array_mib", float64(arrayBytes>>20), "MiB", 1)
	if m, ok := p.res.Metrics["vlasov.drift_ns_per_cell_sweep"]; ok {
		// Bytes the sweep moves per second against what the host can move.
		p.res.info("vlasov.roofline_fraction", bytesPerCellSweep/m.Value/gbs, "1", m.Samples)
	}
}

func parallelRanges(n, workers int, fn func(lo, hi int)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := n*w/workers, n*(w+1)/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(lo, hi)
		}()
	}
	wg.Wait()
}

// hostMemory returns the last-level cache size and the available memory
// in bytes (0 when the host does not report them).
func hostMemory() (llc, avail int64) {
	if b, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index3/size"); err == nil {
		s := strings.TrimSpace(string(b))
		if v, err := strconv.ParseInt(strings.TrimSuffix(s, "K"), 10, 64); err == nil && strings.HasSuffix(s, "K") {
			llc = v << 10
		}
	}
	f, err := os.Open("/proc/meminfo")
	if err != nil {
		return llc, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "MemAvailable:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			avail = kb << 10
		}
	}
	return llc, avail
}
