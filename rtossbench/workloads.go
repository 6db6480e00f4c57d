package main

import (
	"fmt"
	"time"

	"rtoss/internal/serve"
)

// Workload sizes. The rates sit well inside what a 2-vCPU machine
// sustains, so every workload measures a stable operating point.
const (
	// zoo-detect-closed
	closedRes     = 128
	closedClients = 2
	closedScenes  = 8
	closedBudget  = 600 * time.Millisecond

	// zoo-camera-paced
	cameraRes    = 64
	cameras      = 2
	cameraFPS    = 15.0
	cameraFrames = 16 // frames per camera sequence, replayed in a loop
	cameraBudget = 350 * time.Millisecond

	// tiny-http-open
	httpShards = 2
	httpConns  = 2
	httpRate   = 40.0 // requests per second, a third of capacity
	httpImages = 16
	httpBudget = 25 * time.Millisecond

	// Scene sizes: KITTI's wide aspect.
	sceneW, sceneH = 256, 128
	frameW, frameH = 640, 192

	// replayReps is how many times the traced run replays each stage;
	// it reports the median repetition.
	replayReps = 5

	// refWorkers computes the references in parallel, one per CPU of
	// the reference machine.
	refWorkers = 2
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

// outcome is what a workload reports.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64 // end-to-end, or per-layer when traced
	notes             []string           // human-readable context lines
	kernels           []kernelRow
	tracePath         string
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) count(w *window) {
	o.attempted += w.attempted()
	o.failed += w.failed()
}

// workload is one named traffic mix.
type workload struct {
	name  string
	why   string
	setup func() (stages, func(), error) // one cold set-up, for the set-up samples
	run   func(cfg config, setups []stages) (*outcome, error)
}

var workloads = []workload{
	{
		name: "zoo-detect-closed",
		why:  "forward pass is ~95% of each request: engine scheduling and the conv and MaxPool kernels move it, ingest and HTTP barely register",
		setup: func() (stages, func(), error) {
			e, st, err := setupZoo(closedRes, false, 0)
			if err != nil {
				return st, nil, err
			}
			return st, e.close, nil
		},
		run: runClosed,
	},
	{
		name: "zoo-camera-paced",
		why:  "newest-frame-wins mailboxes, EDF admission and deadline shedding decide which frames reach a forward pass; staler serving shows here",
		setup: func() (stages, func(), error) {
			e, st, err := setupZoo(cameraRes, true, cameraBudget)
			if err != nil {
				return st, nil, err
			}
			return st, e.close, nil
		},
		run: runCamera,
	},
	{
		name: "tiny-http-open",
		why:  "sub-ms forward: JPEG decode, letterbox, HTTP and JSON, the router hop and the batch wait dominate; kernel changes predict no change",
		setup: func() (stages, func(), error) {
			e, st, err := setupHTTP(httpShards, httpConns)
			if err != nil {
				return st, nil, err
			}
			return st, e.close, nil
		},
		run: runHTTP,
	},
}

// setupMetrics reports the median of each set-up stage.
func setupMetrics(setups []stages, out map[string]float64) {
	var build, pr, comp []float64
	for _, s := range setups {
		build = append(build, ms(s.Build))
		pr = append(pr, ms(s.Prune))
		comp = append(comp, ms(s.Compile))
	}
	out["models.build_ms"] = median(build)
	out["core.prune_ms"] = median(pr)
	out["engine.compile_ms"] = median(comp)
}

func setupSeconds(setups []stages) float64 {
	var v []float64
	for _, s := range setups {
		v = append(v, s.Total.Seconds())
	}
	return median(v)
}

// overheadPct compares the traced window's throughput with the
// untraced one's.
func overheadPct(untraced, traced *window) float64 {
	u, t := untraced.throughput(), traced.throughput()
	return ratio(u-t, u) * 100
}

func runClosed(cfg config, setups []stages) (*outcome, error) {
	o := &outcome{}
	inputs, err := ppmScenes(sceneSeed(cfg.seed, 1), closedScenes, sceneW, sceneH)
	if err != nil {
		return nil, err
	}
	o.note("inputs: %d PPM scenes %dx%d, %.1f KiB, digest %s", len(inputs), sceneW, sceneH, kib(inputs), digest(inputs))
	base := liveHeapMiB()
	e, st, err := setupZoo(closedRes, false, 0)
	if err != nil {
		return nil, err
	}
	defer e.close()
	setups = append(setups, st)
	refs, err := references(e.prog, e.pipe, closedRes, inputs, refWorkers)
	if err != nil {
		return nil, err
	}
	progHeap := liveHeapMiB() - base
	// Warm the server's pools off the clock.
	o.count(e.closedLoop(inputs, refs, closedClients, time.Second, nil))

	if !cfg.trace {
		s0 := e.srv.Stats()
		w := e.closedLoop(inputs, refs, closedClients, cfg.seconds, nil)
		s1 := e.srv.Stats()
		o.note("server: average batch %.3f over the window", ratio(float64(s1.Completed-s0.Completed), float64(s1.Batches-s0.Batches)))
		o.count(w)
		o.metrics = e2eMetrics(w, closedBudget, setupSeconds(setups), liveHeapMiB())
		o.note("%s", tailNote(w))
		return o, nil
	}
	half := cfg.seconds / 2
	wu := e.closedLoop(inputs, refs, closedClients, half, nil)
	tr := newTracer()
	s0 := e.srv.Stats()
	wt := e.closedLoop(inputs, refs, closedClients, half, tr)
	s1 := e.srv.Stats()
	o.count(wu)
	o.count(wt)
	m := zeroLayers()
	serveDelta(s0, s1, m)
	runtimeMetrics(wt, m)
	m["bench.trace_overhead_pct"] = overheadPct(wu, wt)
	setupMetrics(setups, m)
	m["engine.program_bytes"] = float64(e.prog.MemoryBytes())
	m["engine.program_heap_mb"] = progHeap
	if o.kernels, err = replay(e.prog, e.pipe, closedRes, inputs[0], e.srv, replayReps, m); err != nil {
		return nil, err
	}
	o.metrics = m
	o.tracePath, err = tr.write(traceDir, traceName(cfg))
	return o, err
}

func runCamera(cfg config, setups []stages) (*outcome, error) {
	o := &outcome{}
	cams := make([]*camera, cameras)
	var all [][]byte
	for i := range cams {
		frames, err := jpegSequence(sceneSeed(cfg.seed, 2+uint64(i)), cameraFrames, frameW, frameH)
		if err != nil {
			return nil, err
		}
		cams[i] = &camera{frames: frames}
		all = append(all, frames...)
	}
	o.note("inputs: %d cameras x %d JPEG frames %dx%d at %g fps, budget %v, %.1f KiB, digest %s",
		cameras, cameraFrames, frameW, frameH, cameraFPS, cameraBudget, kib(all), digest(all))
	base := liveHeapMiB()
	e, st, err := setupZoo(cameraRes, true, cameraBudget)
	if err != nil {
		return nil, err
	}
	defer e.close()
	setups = append(setups, st)
	refs, err := references(e.prog, e.pipe, cameraRes, all, refWorkers)
	if err != nil {
		return nil, err
	}
	for i, c := range cams {
		c.refs = refs[i*cameraFrames : (i+1)*cameraFrames]
	}
	progHeap := liveHeapMiB() - base
	warm, err := e.cameraWindow(cams, cameraFPS, time.Second, nil)
	if err != nil {
		return nil, err
	}
	o.count(warm)

	if !cfg.trace {
		w, err := e.cameraWindow(cams, cameraFPS, cfg.seconds, nil)
		if err != nil {
			return nil, err
		}
		o.count(w)
		o.metrics = e2eMetrics(w, cameraBudget, setupSeconds(setups), liveHeapMiB())
		o.note("%s", tailNote(w))
		return o, nil
	}
	half := cfg.seconds / 2
	wu, err := e.cameraWindow(cams, cameraFPS, half, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	s0, h0 := e.srv.Stats(), e.hub.Stats()
	wt, err := e.cameraWindow(cams, cameraFPS, half, tr)
	if err != nil {
		return nil, err
	}
	s1, h1 := e.srv.Stats(), e.hub.Stats()
	o.count(wu)
	o.count(wt)
	m := zeroLayers()
	serveDelta(s0, s1, m)
	streamDelta(h0, h1, m)
	runtimeMetrics(wt, m)
	push := selfTimes(tr.snapshot())["stream.Push"]
	m["stream.push_us"] = ratio(float64(push.Total)/1e3, float64(push.Count))
	m["bench.trace_overhead_pct"] = overheadPct(wu, wt)
	setupMetrics(setups, m)
	m["engine.program_bytes"] = float64(e.prog.MemoryBytes())
	m["engine.program_heap_mb"] = progHeap
	if o.kernels, err = replay(e.prog, e.pipe, cameraRes, all[0], e.srv, replayReps, m); err != nil {
		return nil, err
	}
	o.metrics = m
	o.tracePath, err = tr.write(traceDir, traceName(cfg))
	return o, err
}

func runHTTP(cfg config, setups []stages) (*outcome, error) {
	o := &outcome{}
	inputs, err := jpegScenes(sceneSeed(cfg.seed, 4), httpImages, frameW, frameH)
	if err != nil {
		return nil, err
	}
	o.note("inputs: %d JPEG scenes %dx%d at %g req/s over %d connections, %.1f KiB, digest %s",
		len(inputs), frameW, frameH, httpRate, httpConns, kib(inputs), digest(inputs))
	e, st, err := setupHTTP(httpShards, httpConns)
	if err != nil {
		return nil, err
	}
	defer e.close()
	setups = append(setups, st)
	refs, err := references(e.prog, e.pipe, tinyRes, inputs, refWorkers)
	if err != nil {
		return nil, err
	}
	id := uint64(1)
	warm := e.load(inputs, refs, time.Second, id, nil)
	id += uint64(warm.attempted())
	o.count(warm)

	if !cfg.trace {
		w := e.load(inputs, refs, cfg.seconds, id, nil)
		o.count(w)
		o.metrics = e2eMetrics(w, httpBudget, setupSeconds(setups), liveHeapMiB())
		o.note("%s", tailNote(w))
		return o, nil
	}
	half := cfg.seconds / 2
	wu := e.load(inputs, refs, half, id, nil)
	id += uint64(wu.attempted())
	tr := newTracer()
	e.tr.Store(tr)
	r0 := e.router.Stats()
	s0, err := e.shardStats()
	if err != nil {
		return nil, err
	}
	wt := e.load(inputs, refs, half, id, tr)
	r1 := e.router.Stats()
	s1, err := e.shardStats()
	if err != nil {
		return nil, err
	}
	e.tr.Store(nil)
	o.count(wu)
	o.count(wt)
	m := zeroLayers()
	serveDelta(s0, s1, m)
	runtimeMetrics(wt, m)
	m["bench.trace_overhead_pct"] = overheadPct(wu, wt)
	spans := selfTimes(tr.snapshot())
	h, rt := spans["serve.http.handler"], spans["fleet.router"]
	m["serve.http.handler_ms"] = ratio(ms(h.Total), float64(h.Count))
	queued := float64(s1.Completed)*ms(s1.AvgLatency) - float64(s0.Completed)*ms(s0.AvgLatency)
	m["serve.http.self_ms"] = m["serve.http.handler_ms"] - ratio(queued, float64(s1.Completed-s0.Completed))
	m["fleet.router.self_ms"] = ratio(ms(rt.Self), float64(rt.Count))
	m["fleet.router.attempts_per_req"] = ratio(float64(r1["attempts"]-r0["attempts"]), float64(r1["requests"]-r0["requests"]))
	m["fleet.router.retries"] = float64(r1["retries"] - r0["retries"])
	m["engine.program_bytes"] = float64(e.prog.MemoryBytes())
	idle := serve.NewServer(e.prog, serve.Config{})
	o.kernels, err = replay(e.prog, e.pipe, tinyRes, inputs[0], idle, 5*replayReps, m)
	idle.Close()
	if err != nil {
		return nil, err
	}
	o.metrics = m
	o.tracePath, err = tr.write(traceDir, traceName(cfg))
	return o, err
}

// zeroLayers starts a traced run's metrics with every per-layer metric
// at 0, the value a layer the workload never exercises reports.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	return m
}
