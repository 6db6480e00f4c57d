package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rtoss/internal/core"
	"rtoss/internal/detect"
	"rtoss/internal/engine"
	"rtoss/internal/models"
	"rtoss/internal/serve"
	"rtoss/internal/stream"
)

// The zoo workloads serve the R-TOSS 3EP YOLOv5s through the real
// micro-batching server: zoo-detect-closed calls Server.Detect from a
// closed loop, zoo-camera-paced pushes paced camera frames through
// stream.Hub sessions.

const (
	zooArch    = "YOLOv5s"
	zooEntries = 3 // R-TOSS kernel-pattern entries: variant rtoss-3ep
)

// stages are the set-up phases of one workload, in order.
type stages struct {
	Build   time.Duration `json:"build_ns"`   // models.ByName: shared build + clone
	Prune   time.Duration `json:"prune_ns"`   // core.NewVariant(3).Prune
	Compile time.Duration `json:"compile_ns"` // engine.Compile
	Total   time.Duration `json:"total_ns"`   // until the server (and listeners) are ready
}

// zooEnv is a built zoo serving stack.
type zooEnv struct {
	prog *engine.Program
	srv  *serve.Server
	hub  *stream.Hub // camera workload only
	pipe detect.Config
	res  int
}

// setupZoo builds, prunes and compiles YOLOv5s and starts a server
// with the default serve.Config (and, for cameras, a stream hub with
// the given per-frame budget).
func setupZoo(res int, camera bool, budget time.Duration) (*zooEnv, stages, error) {
	var st stages
	t0 := time.Now()
	m, err := models.ByName(zooArch, models.KITTIClasses)
	if err != nil {
		return nil, st, err
	}
	st.Build = time.Since(t0)
	t := time.Now()
	if _, err := core.NewVariant(zooEntries).Prune(m); err != nil {
		return nil, st, fmt.Errorf("pruning: %w", err)
	}
	st.Prune = time.Since(t)
	t = time.Now()
	prog, err := engine.Compile(m, engine.Options{Mode: engine.ModeSparse})
	if err != nil {
		return nil, st, fmt.Errorf("compiling: %w", err)
	}
	st.Compile = time.Since(t)
	spec, err := models.HeadByName(zooArch, models.KITTIClasses)
	if err != nil {
		return nil, st, err
	}
	e := &zooEnv{prog: prog, pipe: detect.Config{Spec: spec}.WithDefaults(), res: res}
	e.srv = serve.NewServer(prog, serve.Config{})
	if camera {
		e.hub = stream.NewHub(e.srv, stream.Config{Pipe: e.pipe, ResH: res, ResW: res, Budget: budget})
	}
	st.Total = time.Since(t0)
	return e, st, nil
}

func (e *zooEnv) close() {
	if e.hub != nil {
		e.hub.Close()
	}
	e.srv.Close()
}

// closedLoop runs clients callers in a closed loop for d: each round,
// every client sends one request and the next round starts once all
// are answered. Starting each round together keeps the server in one
// batching regime — two idle workers take one request each. Free-running
// clients drift in and out of co-batching (a batch forms whenever two
// requests land within MaxDelay while a worker is busy), which moved
// throughput by about 15% from run to run.
func (e *zooEnv) closedLoop(inputs [][]byte, refs [][]detect.Detection, clients int, d time.Duration, tr *tracer) *window {
	w := &window{}
	var mu sync.Mutex
	var reqID atomic.Uint64
	sl := startSlicer(d)
	for round := 0; time.Since(sl.t0) < d; round++ {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sp := tr.begin("serve.Detect", reqID.Add(1))
				s := sample{start: time.Now(), state: answered}
				res, err := e.srv.Detect(inputs[i], e.pipe, e.res, e.res)
				s.end = time.Now()
				tr.end(sp)
				if err != nil || !sameDetections(res.Detections, refs[i]) {
					s.state = failed
				}
				mu.Lock()
				w.samples = append(w.samples, s)
				mu.Unlock()
			}((round*clients + c) % len(inputs))
		}
		wg.Wait()
	}
	sl.finish(w)
	return w
}

// frameResult is how one pushed frame resolved.
type frameResult struct {
	done time.Time
	det  *detect.Result
	err  error
	set  bool
}

// camera is one paced frame source.
type camera struct {
	frames [][]byte
	refs   [][]detect.Detection
	due    []time.Time     // per pushed frame, by push order
	late   []time.Duration // push instant minus due instant
	pushed []time.Duration // Session.Push call time

	mu      sync.Mutex
	results []frameResult // indexed by session sequence number - 1
}

// cameraWindow pushes every camera's frames open loop at fps for d,
// each camera offset by an equal share of the frame period, then
// closes the sessions (which resolves the last mailbox frame) and
// scores every pushed frame. Frames the stream layer sheds as stale or
// late are misses but not failures.
func (e *zooEnv) cameraWindow(cams []*camera, fps float64, d time.Duration, tr *tracer) (*window, error) {
	period := time.Duration(float64(time.Second) / fps)
	maxFrames := int(d/period) + 2
	sessions := make([]*stream.Session, len(cams))
	for i, c := range cams {
		c.due, c.late, c.pushed = c.due[:0], c.late[:0], c.pushed[:0]
		c.results = make([]frameResult, maxFrames)
		s, err := e.hub.Open(stream.SessionConfig{OnResult: func(r stream.Result) {
			now := time.Now()
			c.mu.Lock()
			c.results[r.Seq-1] = frameResult{done: now, det: r.Det, err: r.Err, set: true}
			c.mu.Unlock()
		}})
		if err != nil {
			return nil, err
		}
		sessions[i] = s
	}
	w := &window{}
	var wg sync.WaitGroup
	pushErrs := make([]error, len(cams))
	sl := startSlicer(d)
	for i, c := range cams {
		wg.Add(1)
		go func(i int, c *camera) {
			defer wg.Done()
			offset := period * time.Duration(i) / time.Duration(len(cams))
			for k := 0; k < maxFrames; k++ {
				due := sl.t0.Add(offset + time.Duration(k)*period)
				if due.Sub(sl.t0) >= d {
					return
				}
				time.Sleep(time.Until(due))
				ps := time.Now()
				if err := sessions[i].Push(c.frames[k%len(c.frames)]); err != nil {
					pushErrs[i] = err
					return
				}
				c.pushed = append(c.pushed, time.Since(ps))
				c.late = append(c.late, ps.Sub(due))
				c.due = append(c.due, due)
			}
		}(i, c)
	}
	wg.Wait()
	for _, s := range sessions {
		s.Close()
	}
	sl.finish(w)
	if err := errors.Join(pushErrs...); err != nil {
		return nil, fmt.Errorf("pushing frames: %w", err)
	}
	for ci, c := range cams {
		for k, due := range c.due {
			r := c.results[k]
			s := sample{start: due, end: r.done, state: answered}
			switch {
			case !r.set:
				s.state, s.end = failed, w.end // never resolved: a session bug
			case errors.Is(r.err, serve.ErrSuperseded) || errors.Is(r.err, serve.ErrDeadline):
				s.state = shed
			case r.err != nil || !sameDetections(r.det.Detections, c.refs[k%len(c.refs)]):
				s.state = failed
			}
			w.samples = append(w.samples, s)
			w.late = append(w.late, c.late[k])
			id := uint64(ci)<<32 | uint64(k+1)
			root := tr.add("stream.frame", id, -1, due, s.end)
			ps := due.Add(c.late[k])
			tr.add("stream.Push", id, root, ps, ps.Add(c.pushed[k]))
		}
	}
	return w, nil
}

// serveDelta summarises serve.Stats over a window.
func serveDelta(a, b serve.Stats, out map[string]float64) {
	out["serve.avg_batch"] = ratio(float64(b.Completed-a.Completed), float64(b.Batches-a.Batches))
	rej := float64(b.Rejected - a.Rejected)
	out["serve.rejected_ratio"] = ratio(rej, float64(b.Requests-a.Requests)+rej)
	out["serve.requeues"] = float64(b.Requeues - a.Requeues)
	out["serve.deadline_shed"] = float64(b.DeadlineShed - a.DeadlineShed)
	out["serve.superseded"] = float64(b.Superseded - a.Superseded)
}

// streamDelta summarises the hub counters over a window.
func streamDelta(a, b stream.Summary, out map[string]float64) {
	in := float64(b.FramesIn - a.FramesIn)
	out["stream.stale_ratio"] = ratio(float64(b.DroppedStale-a.DroppedStale), in)
	served := float64(b.FramesServed - a.FramesServed)
	sum := b.AvgServeMS*float64(b.FramesServed) - a.AvgServeMS*float64(a.FramesServed)
	out["stream.avg_serve_ms"] = ratio(sum, served)
}
