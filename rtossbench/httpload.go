package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rtoss/internal/detect"
	"rtoss/internal/engine"
	"rtoss/internal/fleet"
	"rtoss/internal/serve"
)

// The tiny-http-open workload drives fleet.TinyProgram behind a real
// fleet: shards and a router on loopback listeners, requests as POST
// /detect over keep-alive connections, sent on a fixed schedule.

const tinyRes = 32

// tinyPipe is the postprocess config the tiny detector serves with.
func tinyPipe() detect.Config {
	return detect.Config{Spec: fleet.TinySpec(), ScoreThreshold: 0.05}.WithDefaults()
}

// httpEnv is a running tiny fleet.
type httpEnv struct {
	prog    *engine.Program
	pipe    detect.Config
	shards  []*fleet.Shard
	servers []*http.Server // shards first, router last
	router  *fleet.Router
	base    string // router URL
	client  *http.Client
	tr      atomic.Pointer[tracer]
}

// setupHTTP compiles the tiny detector, installs it in n shards, puts
// a router in front and waits until the router reports healthy.
func setupHTTP(n, conns int) (*httpEnv, stages, error) {
	var st stages
	t0 := time.Now()
	prog, err := fleet.TinyProgram()
	if err != nil {
		return nil, st, err
	}
	e := &httpEnv{prog: prog, pipe: tinyPipe()}
	e.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
	var urls []string
	for i := 0; i < n; i++ {
		sh := fleet.NewShard(fleet.ShardConfig{
			Default:  fleet.TinyKey(),
			Res:      tinyRes,
			ShedLoad: true,
			PipeFor: func(serve.Key, *engine.Program) (detect.Config, error) {
				return e.pipe, nil
			},
		})
		e.shards = append(e.shards, sh)
		if _, err := sh.Registry().Install(fleet.TinyKey(), prog); err != nil {
			e.close()
			return nil, st, fmt.Errorf("installing the tiny program: %w", err)
		}
		url, err := e.listen(e.wrap("serve.http.handler", sh.Handler()))
		if err != nil {
			e.close()
			return nil, st, err
		}
		urls = append(urls, url)
	}
	e.router, err = fleet.NewRouter(fleet.RouterConfig{Backends: urls, Default: fleet.TinyKey(), BackoffSeed: 1})
	if err != nil {
		e.close()
		return nil, st, err
	}
	if e.base, err = e.listen(e.wrap("fleet.router", e.router.Handler())); err != nil {
		e.close()
		return nil, st, err
	}
	if err := e.healthy(); err != nil {
		e.close()
		return nil, st, err
	}
	st.Total = time.Since(t0)
	return e, st, nil
}

// listen serves h on a fresh loopback port.
func (e *httpEnv) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	e.servers = append(e.servers, srv)
	go srv.Serve(ln) // returns ErrServerClosed once close shuts it down
	return "http://" + ln.Addr().String(), nil
}

// wrap records a span around every request h serves while a tracer is
// armed. The request ID rides the rid query parameter, which the
// router forwards with the rest of the query.
func (e *httpEnv) wrap(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := e.tr.Load()
		id, err := strconv.ParseUint(r.URL.Query().Get("rid"), 10, 64)
		if tr == nil || err != nil {
			// Untraced, or not benchmark traffic (health probes).
			h.ServeHTTP(w, r)
			return
		}
		sp := tr.begin(name, id)
		h.ServeHTTP(w, r)
		tr.end(sp)
	})
}

func (e *httpEnv) healthy() error {
	resp, err := e.client.Get(e.base + "/healthz")
	if err != nil {
		return fmt.Errorf("router health: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("router health: %s", resp.Status)
	}
	return nil
}

func (e *httpEnv) close() {
	// Stop the router first so it sends no more probes to the shards.
	for i := len(e.servers) - 1; i >= 0; i-- {
		e.servers[i].Close()
	}
	if e.router != nil {
		e.router.Close()
	}
	for _, sh := range e.shards {
		sh.Close()
	}
	e.client.CloseIdleConnections()
}

// detect posts one image and scores the answer.
func (e *httpEnv) detect(id uint64, img []byte, want []detect.Detection) bool {
	url := e.base + "/detect?rid=" + strconv.FormatUint(id, 10)
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, url, bytes.NewReader(img))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "image/jpeg")
	resp, err := e.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return false
	}
	var dr serve.DetectResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		return false
	}
	return sameDetections(dr.Boxes(), want)
}

// openLoop sends total requests, request k due k/rate after the start,
// from at most conns goroutines; send(k) reports whether request k got
// a correct answer. Latency counts from the due instant, so a stall
// that holds up later sends shows in their latency.
func openLoop(total int, rate float64, conns int, d time.Duration, send func(k int) bool) *window {
	interval := time.Duration(float64(time.Second) / rate)
	w := &window{samples: make([]sample, total), late: make([]time.Duration, total)}
	var next atomic.Int64
	var wg sync.WaitGroup
	sl := startSlicer(d)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= total {
					return
				}
				due := sl.t0.Add(time.Duration(k) * interval)
				time.Sleep(time.Until(due))
				sent := time.Now()
				st := failed
				if send(k) {
					st = answered
				}
				w.samples[k] = sample{start: due, end: time.Now(), state: st}
				w.late[k] = sent.Sub(due)
			}
		}()
	}
	wg.Wait()
	sl.finish(w)
	return w
}

// load runs the open loop for d against the router, numbering the
// requests from firstID.
func (e *httpEnv) load(inputs [][]byte, refs [][]detect.Detection, d time.Duration, firstID uint64, tr *tracer) *window {
	total := int(httpRate * d.Seconds())
	return openLoop(total, httpRate, httpConns, d, func(k int) bool {
		id := firstID + uint64(k)
		sp := tr.begin("client.request", id)
		defer tr.end(sp)
		return e.detect(id, inputs[k%len(inputs)], refs[k%len(refs)])
	})
}

// shardStats sums the serve counters every shard reports on GET
// /stats.
func (e *httpEnv) shardStats() (serve.Stats, error) {
	var sum serve.Stats
	var latSum float64
	for _, sh := range e.shards {
		rec := httptest.NewRecorder()
		sh.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
		var doc struct {
			Models map[string]struct {
				Requests     uint64  `json:"requests"`
				Rejected     uint64  `json:"rejected"`
				Completed    uint64  `json:"completed"`
				Batches      uint64  `json:"batches"`
				Requeues     uint64  `json:"requeues"`
				DeadlineShed uint64  `json:"deadline_shed"`
				Superseded   uint64  `json:"superseded"`
				AvgLatencyMS float64 `json:"avg_latency_ms"`
			} `json:"models"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			return sum, fmt.Errorf("shard stats: %w", err)
		}
		for _, m := range doc.Models {
			sum.Requests += m.Requests
			sum.Rejected += m.Rejected
			sum.Completed += m.Completed
			sum.Batches += m.Batches
			sum.Requeues += m.Requeues
			sum.DeadlineShed += m.DeadlineShed
			sum.Superseded += m.Superseded
			latSum += m.AvgLatencyMS * float64(m.Completed)
		}
	}
	if sum.Completed > 0 {
		sum.AvgLatency = time.Duration(latSum / float64(sum.Completed) * float64(time.Millisecond))
	}
	return sum, nil
}
