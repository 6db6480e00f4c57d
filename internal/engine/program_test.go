package engine

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rtoss/internal/core"
	"rtoss/internal/nn"
	"rtoss/internal/rng"
	"rtoss/internal/tensor"
)

// csrDetector returns the tiny detector pruned into an off-dictionary
// unstructured layout, so sparse compilation must take the CSR path.
func csrDetector(t testing.TB, seed uint64) *nn.Model {
	t.Helper()
	m := tinyDetector(t, seed)
	for _, l := range m.ConvLayers() {
		ks := l.KH * l.KW
		for k := 0; k < len(l.Weight.Data)/ks; k++ {
			kernel := l.Weight.Data[k*ks : (k+1)*ks]
			// Keep the first 6 taps of 3x3 kernels: a 6-entry mask is in
			// no canonical dictionary (2..5 entries), forcing CSR.
			for i := range kernel {
				if i >= 6 {
					kernel[i] = 0
				}
			}
		}
		l.Structure = nn.SparsityUnstructured
	}
	return m
}

// TestForwardBatchMatchesSingle checks the batched forward against N
// independent single-image passes for every kernel path: dense,
// pattern-grouped and CSR.
func TestForwardBatchMatchesSingle(t *testing.T) {
	cases := []struct {
		name  string
		model func(testing.TB) *nn.Model
		mode  Mode
		wantP bool // pattern layers expected
		wantC bool // CSR layers expected
	}{
		{"dense", func(tb testing.TB) *nn.Model { return tinyDetector(tb, 61) }, ModeDense, false, false},
		{"pattern", func(tb testing.TB) *nn.Model {
			m := tinyDetector(tb, 62)
			if _, err := core.NewVariant(3).Prune(m); err != nil {
				tb.Fatal(err)
			}
			return m
		}, ModeSparse, true, false},
		{"csr", func(tb testing.TB) *nn.Model { return csrDetector(tb, 63) }, ModeSparse, false, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := c.model(t)
			p, err := Compile(m, Options{Mode: c.mode, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			pl, cl := p.SparseLayers()
			if c.wantP && pl == 0 {
				t.Fatal("expected pattern-compiled layers, got none")
			}
			if c.wantC && cl == 0 {
				t.Fatal("expected CSR-compiled layers, got none")
			}
			const n = 5
			r := rng.New(64)
			inputs := make([]*tensor.Tensor, n)
			for i := range inputs {
				inputs[i] = randInput(r, 3, 32, 32)
			}
			batched, err := p.ForwardBatch(inputs)
			if err != nil {
				t.Fatal(err)
			}
			if len(batched) != n {
				t.Fatalf("ForwardBatch returned %d outputs for %d inputs", len(batched), n)
			}
			for i, in := range inputs {
				want, err := p.Output(in)
				if err != nil {
					t.Fatal(err)
				}
				if d := maxAbsDiff(t, batched[i], want); d > 1e-5 {
					t.Errorf("image %d: batched output diverges from single forward by %g", i, d)
				}
			}
		})
	}
}

// TestForwardBatchInputShapes checks rank-3 inputs are accepted and
// mismatched or empty batches error instead of panicking.
func TestForwardBatchInputShapes(t *testing.T) {
	m := tinyDetector(t, 71)
	p, err := Compile(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(72)
	chw := randInput(r, 3, 32, 32).Reshape(3, 32, 32)
	outs, err := p.ForwardBatch([]*tensor.Tensor{chw, chw})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 || maxAbsDiff(t, outs[0], outs[1]) != 0 {
		t.Fatal("identical rank-3 inputs should produce identical outputs")
	}
	if _, err := p.ForwardBatch(nil); err == nil {
		t.Fatal("empty batch should error")
	}
	if _, err := p.ForwardBatch([]*tensor.Tensor{chw, tensor.New(3, 16, 16)}); err == nil {
		t.Fatal("mismatched image shapes should error")
	}
	if _, err := p.ForwardBatch([]*tensor.Tensor{tensor.New(2, 3, 32, 32)}); err == nil {
		t.Fatal("multi-image tensor in a batch list should error")
	}
}

// TestProgramSharedConcurrently hammers one shared Program from many
// goroutines mixing single, retained and batched forwards — the go
// test -race target for the compile-once / run-many split.
func TestProgramSharedConcurrently(t *testing.T) {
	m := tinyDetector(t, 81)
	if _, err := core.NewVariant(3).Prune(m); err != nil {
		t.Fatal(err)
	}
	p, err := Compile(m, Options{Mode: ModeSparse, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	in := randInput(rng.New(82), 3, 32, 32)
	want, err := p.Output(in)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, iters = 8, 6
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				var got *tensor.Tensor
				var err error
				switch (g + i) % 3 {
				case 0:
					got, err = p.Output(in)
				case 1:
					var all []*tensor.Tensor
					if all, err = p.Forward(in); err == nil {
						got = all[len(all)-1]
					}
				default:
					var outs []*tensor.Tensor
					if outs, err = p.ForwardBatch([]*tensor.Tensor{in, in, in}); err == nil {
						got = outs[i%3]
					}
				}
				if err != nil {
					errs[g] = err
					return
				}
				if d := maxAbsDiff(t, got, want); d > 1e-5 {
					t.Errorf("goroutine %d iter %d: output differs by %g", g, i, d)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

// TestRunStatePoolWarmsArena checks that repeated Output calls reuse
// pooled activation buffers instead of re-allocating per run.
func TestRunStatePoolWarmsArena(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items nondeterministically under -race")
	}
	m := tinyDetector(t, 91)
	p, err := Compile(m, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	in := randInput(rng.New(92), 3, 32, 32)
	for i := 0; i < 3; i++ {
		if _, err := p.Output(in); err != nil {
			t.Fatal(err)
		}
	}
	rs := p.acquireRun(nil)
	defer p.releaseRun(rs)
	gets, reuses := rs.arena.Stats()
	if gets == 0 {
		t.Fatal("pooled run state was never used")
	}
	if reuses == 0 {
		t.Fatal("three sequential runs never reused an arena buffer")
	}
}

// TestConcurrentThroughputScales is the run-many payoff check: 8
// streams sharing one Program must beat single-stream throughput. The
// hard >=3x acceptance number is measured on real hardware by `rtoss
// bench`; here we assert conservative scaling to stay robust on small
// CI machines.
func TestConcurrentThroughputScales(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput measurement skipped in -short")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skip("needs >= 4 CPUs for meaningful scaling")
	}
	m := tinyDetector(t, 95)
	if _, err := core.NewVariant(3).Prune(m); err != nil {
		t.Fatal(err)
	}
	p, err := Compile(m, Options{Mode: ModeSparse})
	if err != nil {
		t.Fatal(err)
	}
	in := randInput(rng.New(96), 3, 64, 64)
	const perStream, streams = 20, 8
	run := func(concurrent int) float64 {
		var wg sync.WaitGroup
		start := time.Now()
		for s := 0; s < concurrent; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perStream; i++ {
					if _, err := p.Output(in); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		return float64(concurrent*perStream) / time.Since(start).Seconds()
	}
	run(1) // warm-up
	single := run(1)
	multi := run(streams)
	t.Logf("throughput: single-stream %.1f img/s, %d streams %.1f img/s (%.2fx)",
		single, streams, multi, multi/single)
	if multi < 1.3*single {
		t.Errorf("8 shared streams reached only %.2fx single-stream throughput", multi/single)
	}
}

// TestKernelPanicNamesLayerAndRecovers checks both parallel-for call
// sites: a kernel panic in a wide wavefront level and one inside a
// batch-split convolution must each come back as an error naming the
// layer, and the pooled run state must stay usable — the next run on
// the same Program succeeds.
func TestKernelPanicNamesLayerAndRecovers(t *testing.T) {
	m := tinyDetector(t, 111)
	p, err := Compile(m, Options{Mode: ModeDense, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var wide, single *nn.Layer // a conv sharing its level, and one alone in it
	for _, lvl := range p.levels {
		for _, id := range lvl {
			if l := m.Layers[id]; l.Kind == nn.Conv {
				if len(lvl) > 1 && wide == nil {
					wide = l
				} else if len(lvl) == 1 && single == nil {
					single = l
				}
			}
		}
	}
	if wide == nil || single == nil {
		t.Fatal("tiny detector lacks a conv in a wide level or in a single-layer level")
	}
	r := rng.New(112)
	inputs := []*tensor.Tensor{randInput(r, 3, 32, 32), randInput(r, 3, 32, 32), randInput(r, 3, 32, 32)}
	cases := []struct {
		name  string
		layer *nn.Layer
		run   func() error
	}{
		{"level", wide, func() error { _, err := p.Output(inputs[0]); return err }},
		{"batch-split", single, func() error { _, err := p.ForwardBatch(inputs); return err }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			good := c.layer.Weight
			c.layer.Weight = tensor.New(c.layer.OutC, c.layer.InC/c.layer.Group+1, c.layer.KH, c.layer.KW)
			err := c.run()
			c.layer.Weight = good
			if err == nil {
				t.Fatalf("corrupted layer %q ran without error", c.layer.Name)
			}
			if !strings.Contains(err.Error(), fmt.Sprintf("layer %q", c.layer.Name)) {
				t.Fatalf("error %q does not name layer %q", err, c.layer.Name)
			}
			if err := c.run(); err != nil {
				t.Fatalf("run after a recovered panic failed: %v", err)
			}
		})
	}
}

// TestProgramsStartNoGoroutines compiles, runs and drops many Programs:
// the engine's helpers are shared by the whole process, so the
// goroutine count stays bounded by a constant instead of growing with
// the number of Programs.
func TestProgramsStartNoGoroutines(t *testing.T) {
	m := tinyDetector(t, 121)
	in := randInput(rng.New(122), 3, 32, 32)
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		p, err := Compile(m, Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.ForwardBatch([]*tensor.Tensor{in, in}); err != nil {
			t.Fatal(err)
		}
	}
	// The one-per-CPU helpers may have been started here, if no earlier
	// test started them.
	if after, limit := runtime.NumGoroutine(), before+runtime.NumCPU(); after > limit {
		t.Fatalf("%d goroutines after 50 Programs, want at most %d", after, limit)
	}
}
