package stream

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"rtoss/internal/detect"
	"rtoss/internal/faultinject"
	"rtoss/internal/serve"
)

// stream.go is the session layer: a Hub owns the per-stream Sessions
// and fans their frames into one serve.Server. Each session is a
// 1-slot mailbox plus a pump goroutine:
//
//   - Push never blocks on inference. If the mailbox already holds an
//     unserved frame, that frame is evicted and counted dropped_stale —
//     newest-frame-wins at the edge, before a byte reaches the queue.
//   - The pump serves at most one frame at a time through
//     Server.DetectFrame with the stream identity and a deadline of
//     capture+budget, so serve's EDF scheduler orders streams by slack
//     and sheds anything that expired or was superseded in the queue.
//     One in-flight frame per session also means a session's results
//     arrive strictly in capture order: no frame is ever served after
//     a fresher frame of the same stream.
//
// All counters are plain atomics, updated on both the session and the
// hub, so GET /stats can snapshot them without locks and without torn
// reads under the race detector.

// ErrHubClosed is returned by Push and Open after the hub or session
// shut down.
var ErrHubClosed = errors.New("stream: hub closed")

// Config fixes the detection pipeline every session runs.
type Config struct {
	// Pipe is the postprocess config (head spec + thresholds) each
	// frame is decoded with.
	Pipe detect.Config
	// ResH, ResW is the model input resolution frames are letterboxed
	// to (multiples of the head stride).
	ResH, ResW int
	// Budget is the default per-frame deadline budget: a frame's
	// deadline is its capture instant plus Budget. Zero disables
	// deadlines (frames are never shed for lateness).
	Budget time.Duration

	// FaultInjector arms the hub's chaos injection point (mid-frame
	// disconnect in the HTTP ingest loop). Nil — the production
	// configuration — makes the point a nil check.
	FaultInjector *faultinject.Injector

	// clock overrides time.Now for deterministic tests.
	clock func() time.Time
}

// SessionConfig parameterises one stream session.
type SessionConfig struct {
	// Budget overrides the hub's default deadline budget; zero means
	// inherit.
	Budget time.Duration
	// OnResult, when set, is called after every frame resolves
	// (served, shed, or failed). Served/shed outcomes arrive from the
	// session's pump goroutine; mailbox evictions arrive from the
	// pushing goroutine, so the callback must be safe for concurrent
	// use. It must not block for long: the session serves nothing
	// while it runs.
	OnResult func(Result)
}

// Result is the outcome of one pushed frame.
type Result struct {
	Stream uint64
	Seq    uint64
	// Det is the detection result; nil when the frame was shed or
	// failed.
	Det *detect.Result
	// Err is nil for a served frame, serve.ErrSuperseded /
	// serve.ErrDeadline for a shed one, or the pipeline error.
	Err error
	// Latency is push-to-resolution time.
	Latency time.Duration
	// OnTime reports whether a served frame finished within its
	// deadline (always true when deadlines are disabled).
	OnTime bool
}

// counters is the atomic stat block shared by sessions and the hub.
type counters struct {
	framesIn        atomic.Uint64
	framesServed    atomic.Uint64
	droppedStale    atomic.Uint64 // mailbox evictions + queue supersessions
	droppedDeadline atomic.Uint64
	errored         atomic.Uint64
	onTime          atomic.Uint64
	serveNanos      atomic.Uint64 // summed latency of served frames
}

// Summary is a point-in-time snapshot of one counter block.
type Summary struct {
	FramesIn        uint64  `json:"frames_in"`
	FramesServed    uint64  `json:"frames_served"`
	DroppedStale    uint64  `json:"dropped_stale"`
	DroppedDeadline uint64  `json:"dropped_deadline"`
	Errors          uint64  `json:"errors"`
	OnTime          uint64  `json:"on_time"`
	DeadlineHitRate float64 `json:"deadline_hit_rate"`
	AvgServeMS      float64 `json:"avg_serve_ms"`
}

func (c *counters) summary() Summary {
	// Outcomes are loaded before frames_in: a frame is counted in before
	// it can resolve, so this order keeps a snapshot taken under load
	// from showing more outcomes than pushed frames.
	s := Summary{
		FramesServed:    c.framesServed.Load(),
		DroppedStale:    c.droppedStale.Load(),
		DroppedDeadline: c.droppedDeadline.Load(),
		Errors:          c.errored.Load(),
		OnTime:          c.onTime.Load(),
	}
	s.FramesIn = c.framesIn.Load()
	// Hit rate counts every pushed frame: a dropped frame is a missed
	// deadline from the stream's point of view.
	if s.FramesIn > 0 {
		s.DeadlineHitRate = float64(s.OnTime) / float64(s.FramesIn)
	} else {
		s.DeadlineHitRate = 1
	}
	if s.FramesServed > 0 {
		s.AvgServeMS = float64(c.serveNanos.Load()) / float64(s.FramesServed) / 1e6
	}
	return s
}

// Hub owns the stream sessions of one server.
type Hub struct {
	srv *serve.Server
	cfg Config

	mu       sync.Mutex
	sessions map[uint64]*Session
	nextID   uint64
	closed   bool

	total  counters
	opened atomic.Uint64

	bufs sync.Pool // frame byte buffers, recycled across pushes
}

// NewHub wires a session hub to a server.
func NewHub(srv *serve.Server, cfg Config) *Hub {
	if cfg.clock == nil {
		cfg.clock = time.Now
	}
	return &Hub{srv: srv, cfg: cfg, sessions: make(map[uint64]*Session)}
}

// frame is one mailbox entry.
type frame struct {
	img []byte
	seq uint64
	at  time.Time // capture instant (deadline anchor)
}

// Session is one video stream: push frames in, results come back via
// the OnResult callback in capture order.
type Session struct {
	hub    *Hub
	id     uint64
	budget time.Duration
	onRes  func(Result)

	mail chan frame
	quit chan struct{}
	done chan struct{}

	// mu guards closed and fences Push against Close: a frame enters
	// the mailbox only while closed is false, and Close sets closed
	// before signalling the pump, so every accepted frame is seen by
	// the pump's final drain. Only nonblocking channel ops happen
	// under mu.
	mu     sync.Mutex
	closed bool

	seq   atomic.Uint64
	stats counters

	closeOnce sync.Once
}

// Open starts a new session. Stream IDs start at 1 (serve treats
// stream 0 as "no stream").
func (h *Hub) Open(cfg SessionConfig) (*Session, error) {
	budget := cfg.Budget
	if budget == 0 {
		budget = h.cfg.Budget
	}
	s := &Session{
		hub:    h,
		budget: budget,
		onRes:  cfg.OnResult,
		mail:   make(chan frame, 1),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil, ErrHubClosed
	}
	h.nextID++
	s.id = h.nextID
	h.sessions[s.id] = s
	h.mu.Unlock()
	h.opened.Add(1)
	go s.pump()
	return s, nil
}

// Close shuts every session down and refuses new ones. Idempotent.
func (h *Hub) Close() {
	h.mu.Lock()
	h.closed = true
	open := make([]*Session, 0, len(h.sessions))
	for _, s := range h.sessions {
		open = append(open, s)
	}
	h.mu.Unlock()
	for _, s := range open {
		s.Close()
	}
}

func (h *Hub) remove(id uint64) {
	h.mu.Lock()
	delete(h.sessions, id)
	h.mu.Unlock()
}

// Stats snapshots the hub-wide counters across all sessions, live and
// closed.
func (h *Hub) Stats() Summary { return h.total.summary() }

// Active reports the number of live sessions.
func (h *Hub) Active() int {
	h.mu.Lock()
	n := len(h.sessions)
	h.mu.Unlock()
	return n
}

// StatsMap renders the hub counters for serve.HandlerConfig.ExtraStats
// so GET /stats carries the per-stream drop/deadline counters in the
// same snapshot as the server's own.
func (h *Hub) StatsMap() map[string]any {
	s := h.Stats()
	return map[string]any{
		"streams": map[string]any{
			"active":            h.Active(),
			"opened":            h.opened.Load(),
			"frames_in":         s.FramesIn,
			"frames_served":     s.FramesServed,
			"dropped_stale":     s.DroppedStale,
			"dropped_deadline":  s.DroppedDeadline,
			"errors":            s.Errors,
			"deadline_hit_rate": s.DeadlineHitRate,
			"avg_serve_ms":      s.AvgServeMS,
		},
	}
}

func (h *Hub) getBuf(n int) []byte {
	if b, ok := h.bufs.Get().(*[]byte); ok && cap(*b) >= n {
		return (*b)[:n]
	}
	return make([]byte, n)
}

func (h *Hub) putBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	h.bufs.Put(&b)
}

// ID is the session's stream identity on the serve queue.
func (s *Session) ID() uint64 { return s.id }

// Summary snapshots this session's counters.
func (s *Session) Summary() Summary { return s.stats.summary() }

// Push submits one captured frame. The image bytes are copied, so the
// caller may reuse img immediately. If an unserved frame is already
// waiting, it is evicted and counted dropped_stale (newest-frame-wins).
// Push never waits on inference; it only fails once the session or hub
// is closed.
func (s *Session) Push(img []byte) error {
	h := s.hub
	buf := h.getBuf(len(img))
	copy(buf, img)
	f := frame{img: buf, seq: s.seq.Add(1), at: h.cfg.clock()}
	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			h.putBuf(buf)
			return ErrHubClosed
		}
		// Counted before the pump can see the frame, and taken back if
		// the mailbox refuses it, so frames_in never trails the frame's
		// outcome and equals the sum of outcomes once all resolve.
		s.stats.framesIn.Add(1)
		h.total.framesIn.Add(1)
		select {
		case s.mail <- f:
			s.mu.Unlock()
			return nil
		default:
			s.stats.framesIn.Add(^uint64(0))
			h.total.framesIn.Add(^uint64(0))
		}
		// Mailbox full: evict the stale frame and retry. The eviction
		// may race with the pump taking the frame to serve — either way
		// exactly one party gets it.
		var old frame
		evicted := false
		select {
		case old = <-s.mail:
			evicted = true
		default:
		}
		s.mu.Unlock()
		if evicted {
			s.dropStale(old)
		}
	}
}

func (s *Session) dropStale(f frame) {
	s.hub.putBuf(f.img)
	s.stats.droppedStale.Add(1)
	s.hub.total.droppedStale.Add(1)
	s.emit(Result{Stream: s.id, Seq: f.seq, Err: serve.ErrSuperseded})
}

// Close stops the pump and removes the session from the hub. It waits
// for the in-flight frame to resolve and serves the final mailbox
// frame (the freshest pushed) before returning. Idempotent and safe
// to race with Push.
func (s *Session) Close() {
	s.closeOnce.Do(func() {
		// Setting closed under mu before signalling quit means no Push
		// can add a frame after the pump's final drain: accepted frames
		// strictly precede the quit signal.
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		close(s.quit)
		<-s.done
		s.hub.remove(s.id)
	})
}

func (s *Session) pump() {
	defer close(s.done)
	for {
		select {
		case <-s.quit:
			// A final frame may be sitting in the mailbox. It is the
			// freshest the stream produced, so it is served, not dropped —
			// a finite POSTed sequence always resolves its last frame.
			select {
			case f := <-s.mail:
				s.serveFrame(f)
			default:
			}
			return
		case f := <-s.mail:
			s.serveFrame(f)
		}
	}
}

func (s *Session) serveFrame(f frame) {
	h := s.hub
	opt := serve.FrameOptions{Stream: s.id, Seq: f.seq, Block: true}
	if s.budget > 0 {
		opt.Deadline = f.at.Add(s.budget)
	}
	det, err := h.srv.DetectFrame(f.img, h.cfg.Pipe, h.cfg.ResH, h.cfg.ResW, opt)
	now := h.cfg.clock()
	lat := now.Sub(f.at)
	res := Result{Stream: s.id, Seq: f.seq, Det: det, Err: err, Latency: lat}
	switch {
	case err == nil:
		s.stats.framesServed.Add(1)
		h.total.framesServed.Add(1)
		s.stats.serveNanos.Add(uint64(lat))
		h.total.serveNanos.Add(uint64(lat))
		res.OnTime = opt.Deadline.IsZero() || !now.After(opt.Deadline)
		if res.OnTime {
			s.stats.onTime.Add(1)
			h.total.onTime.Add(1)
		}
	case errors.Is(err, serve.ErrSuperseded):
		s.stats.droppedStale.Add(1)
		h.total.droppedStale.Add(1)
	case errors.Is(err, serve.ErrDeadline):
		s.stats.droppedDeadline.Add(1)
		h.total.droppedDeadline.Add(1)
	default:
		s.stats.errored.Add(1)
		h.total.errored.Add(1)
	}
	h.putBuf(f.img)
	s.emit(res)
}

func (s *Session) emit(r Result) {
	if s.onRes != nil {
		s.onRes(r)
	}
}
