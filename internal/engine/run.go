package engine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"rtoss/internal/nn"
	"rtoss/internal/tensor"
)

// Forward runs the model on input (shape [N, InputC, H, W]) and returns
// every layer's output tensor, indexed by layer ID. H/W may differ from
// the model's nominal resolution as long as every conv output stays
// non-empty. Because every output is kept, Forward cannot recycle
// activation buffers; use Output when only the final tensor matters.
func (p *Program) Forward(input *tensor.Tensor) ([]*tensor.Tensor, error) {
	rs, err := p.run(input, p.all)
	if err != nil {
		return nil, err
	}
	defer p.releaseRun(rs)
	return append([]*tensor.Tensor(nil), rs.outs...), nil
}

// Output runs the model and returns the final layer's tensor.
// Intermediate activations are recycled through a pooled per-run arena
// as soon as their last consumer has executed, so repeated calls reuse
// warm buffers instead of re-allocating them.
func (p *Program) Output(input *tensor.Tensor) (*tensor.Tensor, error) {
	rs, err := p.run(input, nil)
	if err != nil {
		return nil, err
	}
	defer p.releaseRun(rs)
	return rs.outs[len(rs.outs)-1], nil
}

// Heads runs the model and returns the detection-head tensors feeding
// the model's Detect sink, in the sink's input order (for YOLOv5s the
// P3/P4/P5 prediction maps; for RetinaNet the classification and
// regression maps). Intermediate activations are recycled like Output;
// the returned tensors are caller-owned. It errors if the model has no
// Detect layer.
func (p *Program) Heads(input *tensor.Tensor) ([]*tensor.Tensor, error) {
	rs, err := p.runHeads(input)
	if err != nil {
		return nil, err
	}
	defer p.releaseRun(rs)
	heads := make([]*tensor.Tensor, len(p.headIDs))
	for i, id := range p.headIDs {
		heads[i] = rs.outs[id]
	}
	return heads, nil
}

// HeadsBatch stacks the inputs into one batch, runs the model once, and
// returns each image's detection-head tensors: result[i][h] is head h
// of image i, each a caller-owned [1, C, H, W] tensor. Input rules
// match ForwardBatch. The batch-sized head buffers are split into
// per-image copies and returned to the run's arena, so steady-state
// serving reuses them across batches.
func (p *Program) HeadsBatch(inputs []*tensor.Tensor) ([][]*tensor.Tensor, error) {
	return p.HeadsBatchArena(inputs, nil)
}

// HeadsBatchArena is HeadsBatch drawing the per-image head copies from
// dst instead of the heap (nil dst behaves exactly like HeadsBatch).
// A serving executor passes a long-lived arena and returns each head
// tensor via dst.Put after postprocessing, so steady-state detect
// batches recycle warm head buffers instead of allocating
// heads×batch tensors per forward. Callers that hand head tensors to
// clients (Heads requests) must NOT recycle them.
func (p *Program) HeadsBatchArena(inputs []*tensor.Tensor, dst *tensor.Arena) ([][]*tensor.Tensor, error) {
	batch, err := stack(inputs)
	if err != nil {
		return nil, err
	}
	rs, err := p.runHeads(batch)
	if err != nil {
		return nil, err
	}
	defer p.releaseRun(rs)
	heads := make([][]*tensor.Tensor, len(inputs))
	for i := range heads {
		heads[i] = make([]*tensor.Tensor, len(p.headIDs))
	}
	for h, id := range p.headIDs {
		for i, img := range tensor.SplitBatchArena(rs.outs[id], dst) {
			heads[i][h] = img
		}
		rs.arena.Put(rs.outs[id])
	}
	return heads, nil
}

// ForwardBatch stacks the inputs into one NCHW batch, runs the model
// once, and returns each image's final output tensor. Every input must
// be a single image ([C, H, W] or [1, C, H, W]) of identical shape. The
// results own their data; outputs match len(inputs) independent Output
// calls up to floating-point summation order. Batched convolutions are
// additionally split across the workers, so one batched pass beats N
// sequential single-image passes.
func (p *Program) ForwardBatch(inputs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	batch, err := stack(inputs)
	if err != nil {
		return nil, err
	}
	out, err := p.Output(batch)
	if err != nil {
		return nil, err
	}
	return tensor.SplitBatch(out), nil
}

// stack turns a batch of single-image inputs into one NCHW tensor,
// reporting empty or mismatched batches as errors.
func stack(inputs []*tensor.Tensor) (batch *tensor.Tensor, err error) {
	defer func() {
		if r := recover(); r != nil {
			batch, err = nil, fmt.Errorf("engine: batch of %d inputs: %v", len(inputs), r)
		}
	}()
	return tensor.Stack(inputs), nil
}

func (p *Program) runHeads(input *tensor.Tensor) (*runState, error) {
	if len(p.headIDs) == 0 {
		return nil, fmt.Errorf("engine: model %q has no detection heads", p.model.Name)
	}
	return p.run(input, p.headIDs)
}

// run is the one execution core behind every entry point. It executes
// the model's wavefront levels in order, each level's layers in
// parallel, and returns the borrowed run state whose outs table holds
// the final output and every layer in keep; the caller reads what it
// needs and hands the state back with releaseRun. Every other output
// buffer has already been recycled into the run's arena. On error the
// state is released here.
func (p *Program) run(input *tensor.Tensor, keep []int) (*runState, error) {
	if input.Rank() != 4 {
		return nil, fmt.Errorf("engine: input must be 4-D, got %v", input.Shape())
	}
	if input.Dim(1) != p.model.InputC {
		return nil, fmt.Errorf("engine: input has %d channels, model wants %d", input.Dim(1), p.model.InputC)
	}
	rs := p.acquireRun(keep)
	rs.input = input
	for _, lvl := range p.levels {
		rs.level = lvl
		if err := rs.forEach(len(lvl), (*runState).exec); err != nil {
			p.releaseRun(rs)
			return nil, err
		}
	}
	return rs, nil
}

// handoff passes forEach work to the process-wide helper goroutines,
// one per CPU, started by the first forEach that hands out work (never
// under Workers: 1) and shared by every Program. It is
// unbuffered, so a send succeeds only while a helper is idle and
// waiting for work.
var (
	handoff      = make(chan *runState)
	startHelpers = sync.OnceFunc(func() {
		for range runtime.NumCPU() {
			go helper()
		}
	})
)

func helper() {
	for rs := range handoff {
		rs.drain()
		rs.wg.Done()
	}
}

// forEach is the engine's one parallel-for: it runs body(rs, i) for i
// in [0, n) on the calling goroutine plus up to workers-1 helpers that
// are idle right now. A helper that is not free is never waited for —
// the caller simply claims more items itself — so with Workers: 1, or
// under full load, everything runs on the caller. Its state lives in
// the pooled runState, so a steady-state call allocates nothing. It
// returns the first error a body returned; a body's panic is re-raised
// on the caller once every worker has stopped. A single item runs
// directly and leaves that state untouched, so its body may itself
// call forEach.
//
//rtoss:noalloc
func (rs *runState) forEach(n int, body func(*runState, int) error) error {
	if n == 1 {
		return body(rs, 0)
	}
	rs.body, rs.items, rs.err, rs.panicked = body, int32(n), nil, nil
	rs.failed.Store(false)
	rs.next.Store(0)
claim:
	for h := 1; h < n && h < rs.p.workers; h++ {
		startHelpers()
		rs.wg.Add(1)
		select {
		case handoff <- rs:
		default: // every helper is busy
			rs.wg.Done()
			break claim
		}
	}
	rs.drain()
	rs.wg.Wait()
	if rs.panicked != nil {
		panic(rs.panicked)
	}
	return rs.err
}

// drain claims and runs forEach items until none are left, recording
// the first error or panic.
//
//rtoss:noalloc
func (rs *runState) drain() {
	defer func() {
		if r := recover(); r != nil {
			rs.fail(nil, r)
		}
	}()
	for {
		i := rs.next.Add(1) - 1
		if i >= rs.items {
			return
		}
		if err := rs.body(rs, int(i)); err != nil {
			rs.fail(err, nil)
		}
	}
}

func (rs *runState) fail(err error, panicked any) {
	if rs.failed.CompareAndSwap(false, true) {
		rs.err, rs.panicked = err, panicked
	}
}

// get allocates a layer output buffer from the run's arena.
// It is the engine's sanctioned arena plumbing: the buffer it hands out
// is tracked by the run's refcounts and returned via consume, with the
// Heads keep-list exempting the outputs that survive the run.
//
//rtoss:arena-owner
func (rs *runState) get(shape ...int) *tensor.Tensor {
	return rs.arena.Get(shape...)
}

// consume retires one reference to layer id's output, recycling its
// buffer once the last consumer is done. Aliased outputs forward the
// release to the owning layer.
func (rs *runState) consume(id int) {
	if atomic.AddInt32(&rs.refs[id], -1) != 0 {
		return
	}
	if a := rs.alias[id]; a >= 0 {
		rs.consume(int(a))
		return
	}
	if rs.owned[id] {
		rs.arena.Put(rs.outs[id])
		rs.outs[id] = nil
	}
}

// exec runs layer i of the current level. Any failure — a kernel panic
// or an invalid layer — is recovered into an error naming the layer.
func (rs *runState) exec(i int) (err error) {
	id := rs.level[i]
	l := rs.p.model.Layers[id]
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("engine: layer %q: %v", l.Name, r)
		}
	}()
	in := func(i int) *tensor.Tensor { return rs.outs[l.Inputs[i]] }
	var out *tensor.Tensor
	owned := true
	aliasOf := -1
	switch l.Kind {
	case nn.Input:
		out, owned = rs.input, false
	case nn.Conv:
		out = rs.conv(l, in(0))
	case nn.BatchNorm:
		out = rs.batchNorm(in(0), l.Gamma, l.Beta)
	case nn.Act:
		out = rs.activate(in(0), l.Act)
	case nn.MaxPool:
		t := in(0)
		oh := tensor.ConvOut(t.Dim(2), l.PoolK, l.PoolStride, l.PoolPad)
		ow := tensor.ConvOut(t.Dim(3), l.PoolK, l.PoolStride, l.PoolPad)
		out = rs.get(t.Dim(0), t.Dim(1), oh, ow)
		tensor.MaxPool2DInto(out, t, l.PoolK, l.PoolStride, l.PoolPad)
	case nn.Upsample:
		t := in(0)
		scale := l.Scale
		if scale == 0 {
			scale = 2
		}
		if scale < 1 {
			panic(fmt.Sprintf("upsample has invalid scale %d", l.Scale))
		}
		out = rs.get(t.Dim(0), t.Dim(1), scale*t.Dim(2), scale*t.Dim(3))
		tensor.UpsampleNearestInto(out, t, scale)
	case nn.Concat:
		ts := make([]*tensor.Tensor, len(l.Inputs))
		total := 0
		for i := range l.Inputs {
			ts[i] = in(i)
			total += ts[i].Dim(1)
		}
		out = rs.get(ts[0].Dim(0), total, ts[0].Dim(2), ts[0].Dim(3))
		tensor.ConcatChannelsInto(out, ts...)
	case nn.Add:
		first := in(0)
		out = rs.get(first.Shape()...)
		copy(out.Data, first.Data)
		for i := 1; i < len(l.Inputs); i++ {
			out.Add(in(i))
		}
	case nn.GlobalPool:
		out = rs.globalAvgPool(in(0))
	case nn.Linear:
		out = rs.linear(in(0), l)
	case nn.Detect:
		// Sink node: expose the first head's output. The buffer stays
		// owned by the producing layer (alias), so its release waits
		// for this output's own consumers.
		out, owned, aliasOf = in(0), false, l.Inputs[0]
	default:
		panic(fmt.Sprintf("unsupported layer kind %v", l.Kind))
	}
	rs.outs[id] = out
	rs.owned[id] = owned
	rs.alias[id] = int32(aliasOf)
	for i, p := range l.Inputs {
		if i == 0 && aliasOf >= 0 {
			continue // reference transferred to the alias
		}
		rs.consume(p)
	}
	return nil
}

// conv dispatches one convolution to the compiled sparse kernel or the
// dense path. A batched input on a single-layer level, which forEach
// runs directly, is split across the workers one image at a time (NCHW
// images are contiguous, so each runs the single-image kernel on a
// zero-copy view); wider levels already keep the workers busy.
func (rs *runState) conv(l *nn.Layer, t *tensor.Tensor) *tensor.Tensor {
	oh := tensor.ConvOut(t.Dim(2), l.KH, l.Stride, l.Pad)
	ow := tensor.ConvOut(t.Dim(3), l.KW, l.Stride, l.Pad)
	out := rs.get(t.Dim(0), l.OutC, oh, ow)
	if n := t.Dim(0); n > 1 && len(rs.level) == 1 {
		rs.outs[l.ID] = out // convImage reads its destination from here
		// convImage fails only by panicking, which forEach re-raises.
		_ = rs.forEach(n, (*runState).convImage)
		return out
	}
	rs.convInto(l, t, out)
	return out
}

// convImage runs batch image b of the current level's conv.
func (rs *runState) convImage(b int) error {
	l := rs.p.model.Layers[rs.level[0]]
	rs.convInto(l, rs.outs[l.Inputs[0]].BatchView(b), rs.outs[l.ID].BatchView(b))
	return nil
}

// convInto runs the compiled (or dense) kernel for one conv layer.
func (rs *runState) convInto(l *nn.Layer, t, out *tensor.Tensor) {
	switch cc := rs.p.compiled[l.ID]; {
	case cc != nil && cc.Pattern != nil:
		tensor.Conv2DPatternInto(out, t, cc.Pattern, l.Bias, l.Stride, l.Pad, l.Group)
	case cc != nil && cc.CSR != nil:
		tensor.Conv2DCSRInto(out, t, cc.CSR, l.Bias, l.Stride, l.Pad, l.Group)
	default:
		tensor.Conv2DInto(out, t, l.Weight, l.Bias, l.Stride, l.Pad, l.Group)
	}
}

func (rs *runState) batchNorm(t *tensor.Tensor, gamma, beta []float32) *tensor.Tensor {
	n, c, h, w := t.Dim(0), t.Dim(1), t.Dim(2), t.Dim(3)
	out := rs.get(n, c, h, w)
	hw := h * w
	for b := 0; b < n; b++ {
		for ic := 0; ic < c; ic++ {
			g, be := gamma[ic], beta[ic]
			src := t.Data[(b*c+ic)*hw : (b*c+ic+1)*hw]
			dst := out.Data[(b*c+ic)*hw : (b*c+ic+1)*hw]
			for i, v := range src {
				dst[i] = g*v + be
			}
		}
	}
	return out
}

func (rs *runState) activate(t *tensor.Tensor, act nn.Activation) *tensor.Tensor {
	out := rs.get(t.Shape()...)
	for i, v := range t.Data {
		out.Data[i] = applyAct(v, act)
	}
	return out
}

func (rs *runState) globalAvgPool(t *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := t.Dim(0), t.Dim(1), t.Dim(2), t.Dim(3)
	out := rs.get(n, c, 1, 1)
	hw := h * w
	for b := 0; b < n; b++ {
		for ic := 0; ic < c; ic++ {
			sum := 0.0
			for _, v := range t.Data[(b*c+ic)*hw : (b*c+ic+1)*hw] {
				sum += float64(v)
			}
			out.Data[b*c+ic] = float32(sum / float64(hw))
		}
	}
	return out
}

func (rs *runState) linear(t *tensor.Tensor, l *nn.Layer) *tensor.Tensor {
	n := t.Dim(0)
	flat := t.Dim(1) * t.Dim(2) * t.Dim(3)
	if flat != l.InF {
		panic(fmt.Sprintf("linear expects %d features, got %d", l.InF, flat))
	}
	out := rs.get(n, l.OutF, 1, 1)
	for b := 0; b < n; b++ {
		for o := 0; o < l.OutF; o++ {
			acc := float32(0)
			if l.LinB != nil {
				acc = l.LinB[o]
			}
			row := l.LinW.Data[o*l.InF : (o+1)*l.InF]
			for i := 0; i < flat; i++ {
				acc += row[i] * t.Data[b*flat+i]
			}
			out.Data[b*l.OutF+o] = acc
		}
	}
	return out
}
