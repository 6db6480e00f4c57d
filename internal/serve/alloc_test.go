package serve

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"rtoss/internal/detect"
	"rtoss/internal/tensor"
)

// TestServerDetectAllocBudget pins the steady-state allocation budget
// of the served detection path. Unlike the strict zero-alloc tests on
// the ingest primitives (internal/tensor) and PostprocessInto
// (internal/detect), a Detect round trip legitimately allocates a
// handful of objects per request — the request/response pair, the
// channel, the [1,C,H,W] reshape header and the result — so this test
// bounds the count rather than forcing it to zero. The image decode,
// letterbox canvas and head tensors all come from pools/arenas, and the
// engine's scheduler allocates nothing per run, so the bound is tight
// (~30 allocs/op measured on a 48x24 PPM at 32x32 resolution); a pooled
// buffer escaping its pool or a per-candidate allocation sneaking back
// into the executor blows straight through it. The budget must hold at
// every core count, so it is checked at GOMAXPROCS 1, 2 and 4.
func TestServerDetectAllocBudget(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			serverDetectAllocs(t)
		})
	}
}

func serverDetectAllocs(t *testing.T) {
	p := tinyProgram(t)
	s := NewServer(p, Config{})
	defer s.Close()
	pipe := detect.Config{Spec: tinySpec(), ScoreThreshold: 0.05}

	img := tensor.New(3, 24, 48)
	for i := range img.Data {
		img.Data[i] = float32(i%13) / 13
	}
	var ppm bytes.Buffer
	if err := tensor.EncodePPM(&ppm, img); err != nil {
		t.Fatal(err)
	}
	body := ppm.Bytes()

	detectOnce := func() {
		res, err := s.Detect(body, pipe, 32, 32)
		if err != nil {
			t.Fatal(err)
		}
		if res == nil {
			t.Fatal("nil result")
		}
	}
	detectOnce() // warm the batch executor's pooled scratch

	const budget = 50
	allocs := testing.AllocsPerRun(50, detectOnce)
	t.Logf("Server.Detect steady state: %.1f allocs/op (budget %d)", allocs, budget)
	if allocs > budget {
		t.Errorf("Server.Detect allocates %.1f allocs/op in steady state, budget is %d", allocs, budget)
	}
}
