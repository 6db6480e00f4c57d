package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sync"
	"testing"
	"time"
)

func TestSameSeedSameInputs(t *testing.T) {
	gen := func(seed int64) [][]byte {
		t.Helper()
		ppm, err := ppmScenes(sceneSeed(seed, 1), 2, 64, 32)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := jpegSequence(sceneSeed(seed, 2), 2, 64, 32)
		if err != nil {
			t.Fatal(err)
		}
		return append(ppm, seq...)
	}
	a, b, c := gen(7), gen(7), gen(8)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("input %d differs between two runs of seed 7", i)
		}
	}
	if digest(a) != digest(b) {
		t.Fatal("digest differs for identical inputs")
	}
	if digest(a) == digest(c) {
		t.Fatal("seeds 7 and 8 gave the same inputs")
	}
}

func TestTailPercentileHasTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
	// The choice is the highest ladder entry that still has ten samples
	// above it, for every sample count.
	for n := 1; n <= 3000; n++ {
		p := tailPercentile(n)
		for _, q := range tailLadder {
			ok := beyond(n, q) >= minBeyond
			if q == p && !ok {
				t.Fatalf("n=%d: chose p%g with %d beyond", n, p, beyond(n, q))
			}
			if q > p && ok {
				t.Fatalf("n=%d: chose p%g but p%g has %d beyond", n, p, q, beyond(n, q))
			}
		}
	}
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(sorted, 90); got != 9 {
		t.Fatalf("p90 of 1..10 = %g, want 9", got)
	}
}

func TestOpenLoopCountsFromDue(t *testing.T) {
	const (
		rate  = 100.0 // one request due every 10ms
		total = 20
		stall = 200 * time.Millisecond
	)
	var mu sync.Mutex
	calls := 0
	send := func(k int) bool {
		mu.Lock()
		calls++
		first := calls == 1
		mu.Unlock()
		if first {
			time.Sleep(stall) // the target stalls on its first request
		}
		return true
	}
	w := openLoop(total, rate, 1, time.Second, send)
	if w.attempted() != total || w.answered() != total {
		t.Fatalf("attempted %d answered %d, want %d", w.attempted(), w.answered(), total)
	}
	// Request 1 was due 10ms in but could only be sent once the stalled
	// request returned, so its latency carries the wait.
	if lat := w.samples[1].latency(); lat < stall-20*time.Millisecond {
		t.Fatalf("request 1 latency %v does not include the %v stall", lat, stall)
	}
	if w.late[1] < stall-20*time.Millisecond {
		t.Fatalf("request 1 was %v late, want about %v", w.late[1], stall-10*time.Millisecond)
	}
	// Timed from the send instead, it would look fast.
	if sendTime := w.samples[1].latency() - w.late[1]; sendTime > 20*time.Millisecond {
		t.Fatalf("request 1 took %v once sent, want a fast target", sendTime)
	}
	// The backlog drains: the last requests are on schedule again.
	if w.late[total-1] > 20*time.Millisecond {
		t.Fatalf("last request still %v late", w.late[total-1])
	}
}

func TestSpanSelfTime(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{Name: "root", Parent: -1, Start: ms(0), End: ms(100)},
		{Name: "child", Parent: 0, Start: ms(10), End: ms(30)},
		{Name: "child", Parent: 0, Start: ms(20), End: ms(50)},  // overlaps the first child
		{Name: "child", Parent: 0, Start: ms(90), End: ms(120)}, // runs past its parent
		{Name: "leaf", Parent: 1, Start: ms(12), End: ms(18)},
		{Name: "open", Parent: 0, Start: ms(60), End: -1}, // never closed
	}
	got := selfTimes(spans)
	// root: 100 minus the union [10,50] + [90,100] = 50.
	if r := got["root"]; r.Count != 1 || r.Total != ms(100) || r.Self != ms(50) {
		t.Fatalf("root = %+v, want 1 span, total 100ms, self 50ms", r)
	}
	// children: 20+30+30 total; the first loses the leaf's 6ms.
	if c := got["child"]; c.Count != 3 || c.Total != ms(80) || c.Self != ms(74) {
		t.Fatalf("child = %+v, want 3 spans, total 80ms, self 74ms", c)
	}
	if l := got["leaf"]; l.Self != ms(6) {
		t.Fatalf("leaf self = %v, want 6ms", l.Self)
	}
	if _, ok := got["open"]; ok {
		t.Fatal("an unclosed span was aggregated")
	}
}

func TestTracerLinksSpansOfOneRequest(t *testing.T) {
	tr := newTracer()
	outer := tr.begin("router", 7)
	other := tr.begin("router", 8)
	done := make(chan int)
	go func() { done <- tr.begin("handler", 7) }() // another goroutine, same request
	inner := <-done
	tr.end(inner)
	tr.end(other)
	tr.end(outer)
	spans := tr.snapshot()
	if spans[inner].Parent != outer {
		t.Fatalf("handler parent = %d, want the router span %d", spans[inner].Parent, outer)
	}
	if spans[other].Parent != -1 {
		t.Fatalf("request 8's span has parent %d, want none", spans[other].Parent)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x", 1)) // a nil tracer records nothing
}

// TestMetricsMatchBenchmarkJSON keeps the metric tables here in step
// with BENCHMARK.json at the repository root.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s %d: BENCHMARK.json has %+v, the benchmark reports %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Fatalf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, doc.Workloads[i].Name, w.name)
		}
	}
}

func TestSliceMetricsCreditPartialRequests(t *testing.T) {
	t0 := time.Unix(1000, 0)
	w := &window{t0: t0, end: t0.Add(nSlices * time.Second), step: time.Second}
	for i := 0; i <= nSlices; i++ {
		w.marks = append(w.marks, usage{cpu: time.Duration(i) * time.Second, mallocs: uint64(100 * i)})
	}
	// Back-to-back 400ms requests: 2.5 per one-second slice, which
	// whole-request counting would round to 2 or 3.
	for at := time.Duration(0); at+400*time.Millisecond <= nSlices*time.Second; at += 400 * time.Millisecond {
		w.samples = append(w.samples, sample{start: t0.Add(at), end: t0.Add(at + 400*time.Millisecond), state: answered})
	}
	// A shed request is attempted but neither answered nor on time.
	w.samples = append(w.samples, sample{start: t0.Add(100 * time.Millisecond), end: t0.Add(time.Second), state: shed})
	m := e2eMetrics(w, 300*time.Millisecond, 1, 2)
	near := func(name string, want float64) {
		t.Helper()
		if got := m[name]; got < want-1e-9 || got > want+1e-9 {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	near("throughput_img_s", 2.5)
	near("cpu_ms_per_img", 400)
	near("allocs_per_img", 40)
	near("latency_p50_ms", 400)
	near("deadline_hit_rate", 0) // every answer took longer than the budget
	near("setup_s", 1)
	near("heap_live_mb", 2)
	m = e2eMetrics(w, time.Second, 1, 2)
	// Slice 0 holds the shed request (3 of 4 on time); the other slices are all on time.
	if hit := m["deadline_hit_rate"]; hit != 1 {
		t.Errorf("deadline_hit_rate with a generous budget = %g, want the median slice at 1", hit)
	}
}

func TestForwardPartsComeFromOneRepetition(t *testing.T) {
	fwd := samples{}
	for _, r := range [][2]float64{{50, 5}, {30, 3}, {40, 4}, {60, 6}} {
		fwd.add("engine.forward_ms", r[0])
		fwd.add("engine.self_ms", r[1])
	}
	out := map[string]float64{}
	fwd.at(medianIndex(fwd["engine.forward_ms"]), out)
	if out["engine.forward_ms"] != 40 || out["engine.self_ms"] != 4 {
		t.Fatalf("got forward %g self %g, want the median repetition's 40 and 4", out["engine.forward_ms"], out["engine.self_ms"])
	}
}
