package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
)

// metricDef names one reported metric. BENCHMARK.json at the
// repository root lists the same names and units; a self-test keeps
// the two in step.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// endToEnd are the metrics of an untraced run, reported on every
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_img_s", "img/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"cpu_ms_per_img", "ms"},
	{"allocs_per_img", "count"},
	{"heap_live_mb", "MiB"},
	{"deadline_hit_rate", "ratio"},
}

// convClasses are the conv kernel classes of the kernel table: kernel
// size by execution format.
var convClasses = []string{"k1.dense", "k1.csr", "k3.pattern", "k3.csr", "k3.dense", "k6.dense"}

// perLayer are the metrics of a traced run. A layer a workload never
// exercises reports 0 (the tiny detector has no MaxPool, a closed loop
// has no router).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"models.build_ms", "ms"},
		{"core.prune_ms", "ms"},
		{"engine.compile_ms", "ms"},
		{"engine.program_bytes", "bytes"},
		{"engine.program_heap_mb", "MiB"},
		{"engine.forward_ms", "ms"},
		{"engine.forward_batch2_ms_per_img", "ms"},
		{"engine.self_ms", "ms"},
		{"engine.allocs", "count"},
	}
	for _, c := range convClasses {
		p := "tensor.conv." + c
		defs = append(defs,
			metricDef{p + ".ms", "ms"},
			metricDef{p + ".mmacs", "MMAC"},
			metricDef{p + ".gmac_s", "GMAC/s"},
			metricDef{p + ".share", "ratio"},
			metricDef{p + ".hw_share", "ratio"},
		)
	}
	return append(defs,
		metricDef{"tensor.conv.k3.dense_ref.ms", "ms"},
		metricDef{"tensor.maxpool.ms", "ms"},
		metricDef{"tensor.maxpool.allocs", "count"},
		metricDef{"tensor.upsample.ms", "ms"},
		metricDef{"tensor.concat.ms", "ms"},
		metricDef{"tensor.concat.allocs", "count"},
		metricDef{"tensor.decode_jpeg.ms", "ms"},
		metricDef{"tensor.decode_jpeg.allocs", "count"},
		metricDef{"tensor.decode_ppm.ms", "ms"},
		metricDef{"tensor.letterbox.ms", "ms"},
		metricDef{"tensor.letterbox.allocs", "count"},
		metricDef{"detect.postprocess.ms", "ms"},
		metricDef{"detect.postprocess.allocs", "count"},
		metricDef{"detect.candidates", "count"},
		metricDef{"detect.boxes", "count"},
		metricDef{"serve.self_ms", "ms"},
		metricDef{"serve.avg_batch", "img"},
		metricDef{"serve.rejected_ratio", "ratio"},
		metricDef{"serve.requeues", "count"},
		metricDef{"serve.deadline_shed", "count"},
		metricDef{"serve.superseded", "count"},
		metricDef{"stream.stale_ratio", "ratio"},
		metricDef{"stream.push_us", "us"},
		metricDef{"stream.avg_serve_ms", "ms"},
		metricDef{"serve.http.handler_ms", "ms"},
		metricDef{"serve.http.self_ms", "ms"},
		metricDef{"fleet.router.self_ms", "ms"},
		metricDef{"fleet.router.attempts_per_req", "ratio"},
		metricDef{"fleet.router.retries", "count"},
		metricDef{"runtime.gc_cycles_per_img", "count"},
		metricDef{"runtime.gc_pause_ms_per_img", "ms"},
		metricDef{"bench.gen_late_p90_ms", "ms"},
		metricDef{"bench.trace_overhead_pct", "%"},
	)
}()

// state is how one request ended.
type state uint8

const (
	answered state = iota // a correct result
	failed                // an error, a refusal or a wrong result
	shed                  // dropped by design (a stale or expired camera frame)
)

// sample is one request of a window.
type sample struct {
	start time.Time // when it was due (open loop) or sent (closed loop)
	end   time.Time // when its outcome arrived
	state state
}

func (s sample) latency() time.Duration { return s.end.Sub(s.start) }

// nSlices is how many equal parts a window is cut into. Each
// end-to-end metric is computed per part and reported as the median
// part, so a burst of outside interference that covers less than half
// of a window does not move it.
const nSlices = 6

// window is what one measured stretch of load produced.
type window struct {
	t0, end time.Time
	step    time.Duration // slice length; the last slice runs to end
	samples []sample
	late    []time.Duration // open loop: send instant minus due instant
	marks   []usage         // process usage at each slice boundary and at end
}

func (w *window) count(st state) int {
	n := 0
	for _, s := range w.samples {
		if s.state == st {
			n++
		}
	}
	return n
}

func (w *window) attempted() int { return len(w.samples) }
func (w *window) failed() int    { return w.count(failed) }
func (w *window) answered() int  { return w.count(answered) }
func (w *window) wall() time.Duration {
	return w.end.Sub(w.t0)
}

// usage is cumulative process-wide resource use.
type usage struct {
	cpu       time.Duration
	mallocs   uint64
	gcCycles  uint32
	gcPauseNS uint64
}

func (u usage) sub(v usage) usage {
	return usage{u.cpu - v.cpu, u.mallocs - v.mallocs, u.gcCycles - v.gcCycles, u.gcPauseNS - v.gcPauseNS}
}

func readUsage() usage {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return usage{cpu: cpuTime(), mallocs: m.Mallocs, gcCycles: m.NumGC, gcPauseNS: m.PauseTotalNs}
}

// slicer records process usage at every slice boundary of a window
// of length d, from its own goroutine.
type slicer struct {
	t0    time.Time
	step  time.Duration
	marks []usage
	stop  chan struct{}
	done  chan struct{}
}

func startSlicer(d time.Duration) *slicer {
	s := &slicer{step: d / nSlices, stop: make(chan struct{}), done: make(chan struct{})}
	s.marks = append(s.marks, readUsage())
	s.t0 = time.Now()
	go func() {
		defer close(s.done)
		for i := 1; i < nSlices; i++ {
			select {
			case <-time.After(time.Until(s.t0.Add(time.Duration(i) * s.step))):
				s.marks = append(s.marks, readUsage())
			case <-s.stop:
				return
			}
		}
	}()
	return s
}

// finish stops the slicer, records the final usage and fills w's
// timing; w.end is now.
func (s *slicer) finish(w *window) {
	close(s.stop)
	<-s.done
	last := readUsage()
	for len(s.marks) < nSlices {
		s.marks = append(s.marks, last) // the load ended early: empty slices
	}
	w.t0, w.end, w.step, w.marks = s.t0, time.Now(), s.step, append(s.marks, last)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMiB reports the live heap after two collections (the second
// empties the sync.Pool victim caches the first one left behind).
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// e2eMetrics turns a window into the end-to-end metrics. Throughput is
// answered requests over the whole window: an open loop that keeps up
// completes exactly its offered rate in every slice, so a per-slice
// figure would read the schedule rather than a measurement. The others
// are computed per slice and the median slice is reported. Per-result
// costs credit each answered request to the slices its [start, end]
// interval overlaps, in proportion, so a slice holding a few long
// requests is not rounded to whole ones; latency and the deadline hit
// rate count requests by the slice they were due in.
func e2eMetrics(w *window, budget time.Duration, setupS, heapMiB float64) map[string]float64 {
	type part struct {
		lat             []time.Duration
		done            float64 // answered requests credited to the slice
		started, onTime int
	}
	parts := make([]part, nSlices)
	bound := func(i int) time.Time {
		if i >= nSlices {
			return w.end
		}
		return w.t0.Add(time.Duration(i) * w.step)
	}
	for _, s := range w.samples {
		i := min(max(int(s.start.Sub(w.t0)/w.step), 0), nSlices-1)
		parts[i].started++
		if s.state != answered {
			continue
		}
		lat := s.latency()
		parts[i].lat = append(parts[i].lat, lat)
		if lat <= budget {
			parts[i].onTime++
		}
		for j := range parts {
			lo, hi := maxTime(s.start, bound(j)), minTime(s.end, bound(j+1))
			if hi.After(lo) && lat > 0 {
				parts[j].done += float64(hi.Sub(lo)) / float64(lat)
			}
		}
	}
	var p50, p90, cpu, allocs, hit []float64
	for i, p := range parts {
		u := w.marks[i+1].sub(w.marks[i])
		if p.done > 0 {
			cpu = append(cpu, ms(u.cpu)/p.done)
			allocs = append(allocs, float64(u.mallocs)/p.done)
		}
		if len(p.lat) > 0 {
			lat := sortedMS(p.lat)
			p50 = append(p50, percentile(lat, 50))
			p90 = append(p90, percentile(lat, 90))
		}
		if p.started > 0 {
			hit = append(hit, float64(p.onTime)/float64(p.started))
		}
	}
	return map[string]float64{
		"setup_s":           setupS,
		"throughput_img_s":  w.throughput(),
		"latency_p50_ms":    median(p50),
		"latency_p90_ms":    median(p90),
		"cpu_ms_per_img":    median(cpu),
		"allocs_per_img":    median(allocs),
		"heap_live_mb":      heapMiB,
		"deadline_hit_rate": median(hit),
	}
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

// latencies returns the latency of every answered request.
func (w *window) latencies() []time.Duration {
	var out []time.Duration
	for _, s := range w.samples {
		if s.state == answered {
			out = append(out, s.latency())
		}
	}
	return out
}

// tailNote states the whole window's median and the highest percentile
// its sample count supports, for the human-readable output.
func tailNote(w *window) string {
	lat := sortedMS(w.latencies())
	p := tailPercentile(len(lat))
	return fmt.Sprintf("whole window: p50 %.3f ms, tail p%g %.3f ms over %d answered of %d attempted in %.1fs",
		percentile(lat, 50), p, percentile(lat, p), len(lat), w.attempted(), w.wall().Seconds())
}

// runtimeMetrics are the per-layer GC costs of a window.
func runtimeMetrics(w *window, out map[string]float64) {
	ok := float64(w.answered())
	u := w.marks[len(w.marks)-1].sub(w.marks[0])
	out["runtime.gc_cycles_per_img"] = ratio(float64(u.gcCycles), ok)
	out["runtime.gc_pause_ms_per_img"] = ratio(float64(u.gcPauseNS)/1e6, ok)
	out["bench.gen_late_p90_ms"] = percentile(sortedMS(w.late), 90)
}

// throughput is answered results per second over the whole window.
func (w *window) throughput() float64 {
	return ratio(float64(w.answered()), w.wall().Seconds())
}
