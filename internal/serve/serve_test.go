package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"rtoss/internal/core"
	"rtoss/internal/engine"
	"rtoss/internal/nn"
	"rtoss/internal/rng"
	"rtoss/internal/tensor"
)

// tinyProgram compiles a small pruned detector so server tests don't
// pay for zoo-scale models.
func tinyProgram(t testing.TB) *engine.Program {
	t.Helper()
	b := nn.NewBuilder("tinydet", 3, 32, 32, 2)
	x := b.Input()
	x = b.ConvBNAct("stem", x, 3, 8, 3, 2, 1, nn.SiLU)
	c3 := b.C3("c3", x, 8, 8, 1, true, nn.SiLU)
	x = b.ConvBNAct("down", c3, 8, 16, 3, 2, 1, nn.SiLU)
	head := b.Conv("head", x, 16, 14, 1, 1, 0, true)
	b.Detect("detect", head)
	m := b.MustBuild()
	m.InitWeights(3)
	if _, err := core.NewVariant(3).Prune(m); err != nil {
		t.Fatal(err)
	}
	p, err := engine.Compile(m, engine.Options{Mode: engine.ModeSparse})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func testImage(seed uint64) *tensor.Tensor {
	r := rng.New(seed)
	in := tensor.New(1, 3, 32, 32)
	for i := range in.Data {
		in.Data[i] = float32(r.Range(-1, 1))
	}
	return in
}

func maxAbsDiff(a, b *tensor.Tensor) float64 {
	var m float64
	for i := range a.Data {
		d := float64(a.Data[i] - b.Data[i])
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}

// TestServerMatchesDirectOutput checks served inference returns exactly
// what a direct Program call computes, per image, under concurrency.
func TestServerMatchesDirectOutput(t *testing.T) {
	p := tinyProgram(t)
	s := NewServer(p, Config{MaxBatch: 4, MaxDelay: 5 * time.Millisecond})
	defer s.Close()

	const n = 12
	var wg sync.WaitGroup
	errs := make([]error, n)
	outs := make([]*tensor.Tensor, n)
	ins := make([]*tensor.Tensor, n)
	for i := range ins {
		ins[i] = testImage(uint64(100 + i))
	}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = s.Infer(ins[i])
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		want, err := p.Output(ins[i])
		if err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(outs[i], want); d > 1e-5 {
			t.Errorf("request %d: served output diverges from direct forward by %g", i, d)
		}
	}
	st := s.Stats()
	if st.Requests != n || st.Completed != n || st.Errors != 0 {
		t.Errorf("stats requests=%d completed=%d errors=%d, want %d/%d/0", st.Requests, st.Completed, st.Errors, n, n)
	}
	if st.Batches == 0 || st.Batches > n {
		t.Errorf("stats batches=%d out of range", st.Batches)
	}
	if st.AvgLatency <= 0 || st.MaxLatency < st.AvgLatency {
		t.Errorf("stats latency avg=%v max=%v inconsistent", st.AvgLatency, st.MaxLatency)
	}
}

// TestServerMicroBatches checks the scheduler actually coalesces
// concurrent requests instead of running them one by one.
func TestServerMicroBatches(t *testing.T) {
	p := tinyProgram(t)
	// One worker and a generous delay: concurrent requests must pile up
	// into shared batches.
	s := NewServer(p, Config{MaxBatch: 8, MaxDelay: 50 * time.Millisecond, Workers: 1})
	defer s.Close()
	in := testImage(7)
	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Infer(in); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.AvgBatch <= 1.5 {
		t.Errorf("avg batch %.2f: micro-batching coalesced almost nothing", st.AvgBatch)
	}
	if st.MaxBatch > 8 {
		t.Errorf("max batch %d exceeds configured cap 8", st.MaxBatch)
	}
}

// TestServerMixedShapesPartition checks requests of different (legal)
// resolutions co-exist in one queue: batches are partitioned by shape,
// and a malformed request fails alone instead of poisoning the valid
// requests it was coalesced with.
func TestServerMixedShapesPartition(t *testing.T) {
	p := tinyProgram(t)
	// One slow worker and a generous delay force mixed-shape coalescing.
	s := NewServer(p, Config{MaxBatch: 16, MaxDelay: 50 * time.Millisecond, Workers: 1})
	defer s.Close()

	small := testImage(31) // 32x32, the nominal resolution
	big := tensor.New(1, 3, 64, 64)
	r := rng.New(32)
	for i := range big.Data {
		big.Data[i] = float32(r.Range(-1, 1))
	}
	bad := tensor.New(2, 3, 32, 32) // multi-image tensors are not images

	wantSmall, err := p.Output(small)
	if err != nil {
		t.Fatal(err)
	}
	wantBig, err := p.Output(big)
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		out *tensor.Tensor
		err error
	}
	ins := []*tensor.Tensor{small, big, bad, small, big}
	results := make([]result, len(ins))
	var wg sync.WaitGroup
	for i, in := range ins {
		wg.Add(1)
		go func(i int, in *tensor.Tensor) {
			defer wg.Done()
			out, err := s.Infer(in)
			results[i] = result{out, err}
		}(i, in)
	}
	wg.Wait()

	for _, i := range []int{0, 3} {
		if results[i].err != nil {
			t.Fatalf("small request %d failed: %v", i, results[i].err)
		}
		if d := maxAbsDiff(results[i].out, wantSmall); d > 1e-5 {
			t.Errorf("small request %d diverges by %g", i, d)
		}
	}
	for _, i := range []int{1, 4} {
		if results[i].err != nil {
			t.Fatalf("big request %d failed: %v", i, results[i].err)
		}
		if d := maxAbsDiff(results[i].out, wantBig); d > 1e-5 {
			t.Errorf("big request %d diverges by %g", i, d)
		}
	}
	if results[2].err == nil {
		t.Error("malformed request should fail")
	}
}

// TestServerCloseSemantics: Close is idempotent, pending work drains,
// and post-close submissions are rejected.
func TestServerCloseSemantics(t *testing.T) {
	p := tinyProgram(t)
	s := NewServer(p, Config{})
	in := testImage(9)
	if _, err := s.Infer(in); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent
	if _, err := s.Infer(in); err != ErrClosed {
		t.Fatalf("Infer after Close = %v, want ErrClosed", err)
	}
	if _, err := s.TryInfer(in); err != ErrClosed {
		t.Fatalf("TryInfer after Close = %v, want ErrClosed", err)
	}
}

// TestTryInferShedsLoad fills the queue of a server whose workers never
// started (internal construction) and checks TryInfer rejects instead
// of blocking.
func TestTryInferShedsLoad(t *testing.T) {
	p := tinyProgram(t)
	s := &Server{prog: p, cfg: Config{QueueCap: 1}.withDefaults(), queue: make(chan *request, 1)}
	s.queue <- &request{} // saturate
	if _, err := s.TryInfer(testImage(11)); err != ErrQueueFull {
		t.Fatalf("TryInfer on a full queue = %v, want ErrQueueFull", err)
	}
	if st := s.Stats(); st.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", st.Rejected)
	}
}

func TestParseVariant(t *testing.T) {
	cases := []struct {
		in      string
		entries int
		ok      bool
	}{
		{"dense", 0, true}, {"rtoss-2ep", 2, true}, {"rtoss-5ep", 5, true},
		{"rtoss-6ep", 0, false}, {"rtoss-1ep", 0, false}, {"rtoss", 0, false},
		{"", 0, false}, {"RTOSS-3EP", 0, false},
	}
	for _, c := range cases {
		n, err := ParseVariant(c.in)
		if (err == nil) != c.ok || n != c.entries {
			t.Errorf("ParseVariant(%q) = (%d, %v), want (%d, ok=%v)", c.in, n, err, c.entries, c.ok)
		}
	}
}

// TestRegistrySingleBuild checks concurrent requests for one key share
// a single build and get the identical Program.
func TestRegistrySingleBuild(t *testing.T) {
	reg := NewRegistry()
	key := Key{Arch: "YOLOv5s", Variant: "dense", Mode: engine.ModeDense}
	const n = 4
	progs := make([]*engine.Program, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			progs[i], errs[i] = reg.Program(key)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if progs[i] != progs[0] {
			t.Fatal("concurrent requests built distinct Programs for one key")
		}
	}
	if ks := reg.Keys(); len(ks) != 1 || ks[0] != key {
		t.Fatalf("Keys() = %v, want [%v]", ks, key)
	}
	if _, err := reg.Program(Key{Arch: "nope", Variant: "dense"}); err == nil {
		t.Fatal("unknown architecture should error")
	}
	if _, err := reg.Program(Key{Arch: "YOLOv5s", Variant: "magic"}); err == nil {
		t.Fatal("unknown variant should error")
	}
}

// TestHTTPHandler exercises the wire protocol end to end.
func TestHTTPHandler(t *testing.T) {
	p := tinyProgram(t)
	s := NewServer(p, Config{})
	defer s.Close()
	ts := httptest.NewServer(NewHandler(s, HandlerConfig{InputC: 3, InputH: 32, InputW: 32}))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.Status, err)
	}
	resp.Body.Close()

	// Empty body = zero image.
	resp, err = http.Post(ts.URL+"/infer", "application/octet-stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Shape     []int   `json:"shape"`
		L2        float64 `json:"l2"`
		LatencyMS float64 `json:"latency_ms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(got.Shape) != 4 || got.Shape[0] != 1 {
		t.Fatalf("infer shape = %v", got.Shape)
	}

	// Real image bytes must match a direct forward.
	in := testImage(21)
	var buf bytes.Buffer
	for _, v := range in.Data {
		var word [4]byte
		binary.LittleEndian.PutUint32(word[:], math.Float32bits(v))
		buf.Write(word[:])
	}
	resp, err = http.Post(ts.URL+"/infer", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	want, err := p.Output(in)
	if err != nil {
		t.Fatal(err)
	}
	if d := got.L2 - want.L2(); d > 1e-4 || d < -1e-4 {
		t.Errorf("served L2 %.6f vs direct %.6f", got.L2, want.L2())
	}

	// Wrong-sized body is a 400.
	resp, err = http.Post(ts.URL+"/infer", "application/octet-stream", bytes.NewReader([]byte{1, 2, 3}))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("truncated image: status %d, want 400", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats["requests"].(float64) < 2 {
		t.Errorf("stats requests = %v, want >= 2", stats["requests"])
	}
}
