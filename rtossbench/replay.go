package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"time"

	"rtoss/internal/detect"
	"rtoss/internal/engine"
	"rtoss/internal/hw"
	"rtoss/internal/nn"
	"rtoss/internal/prune"
	"rtoss/internal/serve"
	"rtoss/internal/sparse"
	"rtoss/internal/tensor"
)

// Server.Detect and Program.Heads are opaque from outside, so the
// traced run replays one input through the public stage calls in
// order — decode, letterbox, Heads, every kernel on activations
// captured from a Forward, postprocess — timing each with its heap
// allocation count. What the stage calls do not cover is reported as
// the caller's self time rather than hidden.

// timed runs fn and reports its wall time and heap allocations.
func timed(fn func()) (time.Duration, uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	t := time.Now()
	fn()
	d := time.Since(t)
	runtime.ReadMemStats(&b)
	return d, b.Mallocs - a.Mallocs
}

// kernelOp is one replayable kernel call of the compiled model.
type kernelOp struct {
	class string // conv class ("k3.pattern"), or maxpool / upsample / concat
	l     *nn.Layer
	cc    *sparse.CompiledConv
	ins   []*tensor.Tensor
	out   *tensor.Tensor
	want  *tensor.Tensor // the engine's own output for this layer
	macs  int64          // multiply-accumulates the kernel executes
	ref   *tensor.Tensor // dense-kernel output for pruned 3x3 convs
}

func (op *kernelOp) run() {
	l, in := op.l, op.ins[0]
	switch {
	case op.cc != nil && op.cc.Pattern != nil:
		tensor.Conv2DPatternInto(op.out, in, op.cc.Pattern, l.Bias, l.Stride, l.Pad, l.Group)
	case op.cc != nil && op.cc.CSR != nil:
		tensor.Conv2DCSRInto(op.out, in, op.cc.CSR, l.Bias, l.Stride, l.Pad, l.Group)
	case l.Kind == nn.Conv:
		tensor.Conv2DInto(op.out, in, l.Weight, l.Bias, l.Stride, l.Pad, l.Group)
	case l.Kind == nn.MaxPool:
		tensor.MaxPool2DInto(op.out, in, l.PoolK, l.PoolStride, l.PoolPad)
	case l.Kind == nn.Upsample:
		scale := l.Scale
		if scale == 0 {
			scale = 2
		}
		tensor.UpsampleNearestInto(op.out, in, scale)
	case l.Kind == nn.Concat:
		tensor.ConcatChannelsInto(op.out, op.ins...)
	}
}

// runDenseRef runs a pruned conv through the dense kernel with every
// tap kept: the yardstick the sparse formats are read against.
func (op *kernelOp) runDenseRef() {
	l := op.l
	tensor.Conv2DInto(op.ref, op.ins[0], l.Weight, l.Bias, l.Stride, l.Pad, l.Group)
}

// kernelPlan lowers every conv like the engine does for the program's
// mode and pairs each replayable layer with its captured inputs.
func kernelPlan(prog *engine.Program, outs []*tensor.Tensor) ([]*kernelOp, error) {
	var cutoff float64
	switch prog.Mode() {
	case engine.ModeSparse:
		cutoff = 1
	case engine.ModeDense:
		cutoff = -1
	default:
		return nil, fmt.Errorf("replay: mode %v is not replayed", prog.Mode())
	}
	var ops []*kernelOp
	for _, l := range prog.Model().Layers {
		op := &kernelOp{l: l, want: outs[l.ID]}
		for _, id := range l.Inputs {
			op.ins = append(op.ins, outs[id])
		}
		shape := outs[l.ID].Shape()
		switch l.Kind {
		case nn.Conv:
			if cutoff > 0 {
				op.cc = sparse.CompileConv(l, nil, cutoff)
			}
			oh, ow := shape[2], shape[3]
			format := "dense"
			switch {
			case op.cc != nil && op.cc.Pattern != nil:
				format, op.macs = "pattern", int64(op.cc.Pattern.NNZ())*int64(oh*ow)
			case op.cc != nil && op.cc.CSR != nil:
				format, op.macs = "csr", int64(op.cc.CSR.NNZ())*int64(oh*ow)
			default:
				op.macs = l.MACs(oh, ow)
			}
			op.class = fmt.Sprintf("k%d.%s", l.KH, format)
			if l.KH == 3 && format != "dense" {
				op.ref = tensor.New(shape...)
			}
		case nn.MaxPool:
			op.class = "maxpool"
		case nn.Upsample:
			op.class = "upsample"
		case nn.Concat:
			op.class = "concat"
		default:
			continue
		}
		op.out = tensor.New(shape...)
		ops = append(ops, op)
	}
	return ops, nil
}

// sameFloats reports whether a equals b bit for bit.
func sameFloats(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// samples collects one value per replay repetition for each metric.
type samples map[string][]float64

func (s samples) add(k string, v float64) { s[k] = append(s[k], v) }

// medians reduces every metric to its median repetition.
func (s samples) medians(out map[string]float64) {
	for k, vs := range s {
		out[k] = median(vs)
	}
}

// at sets every metric to its value in repetition i.
func (s samples) at(i int, out map[string]float64) {
	for k, vs := range s {
		out[k] = vs[i]
	}
}

// medianIndex returns the index of the median of vs, the lower of the
// middle two for an even count.
func medianIndex(vs []float64) int {
	idx := make([]int, len(vs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return vs[idx[a]] < vs[idx[b]] })
	return idx[(len(idx)-1)/2]
}

// kernelRow is one line of the kernel table.
type kernelRow struct {
	Class   string
	Layers  int
	MS      float64
	MMACs   float64
	GMACs   float64
	Share   float64 // of the measured forward pass
	HWShare float64 // internal/hw's predicted share on the Jetson TX2
}

// replay times the stage calls for one input; srv is an idle server
// on the same program, timed for the serve layer's self time.
func replay(prog *engine.Program, pipe detect.Config, res int, img []byte, srv *serve.Server, reps int, out map[string]float64) ([]kernelRow, error) {
	decodeKey := "tensor.decode_jpeg"
	if bytes.HasPrefix(img, []byte("P6")) {
		decodeKey = "tensor.decode_ppm"
	}
	// Warm every pooled buffer once so the repetitions measure the
	// steady state a serving process sees.
	decoded, err := tensor.DecodeImageInto(nil, img)
	if err != nil {
		return nil, err
	}
	canvas, meta := tensor.LetterboxImageInto(nil, decoded, res, res, tensor.LetterboxFill)
	in := canvas.Reshape(1, canvas.Dim(0), canvas.Dim(1), canvas.Dim(2))
	heads, err := prog.Heads(in)
	if err != nil {
		return nil, err
	}
	dets, _, err := detect.PostprocessStats(nil, heads, meta, pipe)
	if err != nil {
		return nil, err
	}
	if _, err := srv.Detect(img, pipe, res, res); err != nil {
		return nil, err
	}
	outs, err := prog.Forward(in)
	if err != nil {
		return nil, err
	}
	ops, err := kernelPlan(prog, outs)
	if err != nil {
		return nil, err
	}
	pair := []*tensor.Tensor{canvas, canvas}
	classes := append([]string(nil), convClasses...)
	for _, op := range ops {
		if op.l.Kind == nn.Conv && !slices.Contains(classes, op.class) {
			classes = append(classes, op.class)
		}
	}

	// The forward pass and its parts come from one repetition, the one
	// with the median forward time, so the replayed kernels plus
	// engine.self_ms add up to engine.forward_ms exactly. Every other
	// stage reports its own median.
	s, fwd := samples{}, samples{}
	for r := 0; r < reps; r++ {
		var derr, herr, berr, perr, serr error
		d, a := timed(func() { decoded, derr = tensor.DecodeImageInto(decoded, img) })
		s.add(decodeKey+".ms", ms(d))
		s.add(decodeKey+".allocs", float64(a))
		lb, la := timed(func() { canvas, meta = tensor.LetterboxImageInto(canvas, decoded, res, res, tensor.LetterboxFill) })
		s.add("tensor.letterbox.ms", ms(lb))
		s.add("tensor.letterbox.allocs", float64(la))
		fw, fa := timed(func() { heads, herr = prog.Heads(in) })
		fwd.add("engine.forward_ms", ms(fw))
		s.add("engine.allocs", float64(fa))
		b2, _ := timed(func() { _, berr = prog.HeadsBatch(pair) })
		s.add("engine.forward_batch2_ms_per_img", ms(b2)/2)
		var pst detect.PostStats
		pp, pa := timed(func() { dets, pst, perr = detect.PostprocessStats(dets[:0], heads, meta, pipe) })
		s.add("detect.postprocess.ms", ms(pp))
		s.add("detect.postprocess.allocs", float64(pa))
		s.add("detect.candidates", float64(pst.Candidates))
		s.add("detect.boxes", float64(pst.Kept))
		sd, _ := timed(func() { _, serr = srv.Detect(img, pipe, res, res) })
		s.add("serve.self_ms", ms(sd-d-lb-fw-pp))
		if err := errors.Join(derr, herr, berr, perr, serr); err != nil {
			return nil, err
		}

		byClass := map[string]float64{}
		allocs := map[string]float64{}
		var kernels, denseRef float64
		for _, op := range ops {
			kd, ka := timed(op.run)
			byClass[op.class] += ms(kd)
			allocs[op.class] += float64(ka)
			kernels += ms(kd)
			if op.ref != nil {
				rd, _ := timed(op.runDenseRef)
				denseRef += ms(rd)
			}
		}
		for _, c := range classes {
			fwd.add("tensor.conv."+c+".ms", byClass[c])
		}
		s.add("tensor.conv.k3.dense_ref.ms", denseRef)
		fwd.add("tensor.maxpool.ms", byClass["maxpool"])
		s.add("tensor.maxpool.allocs", allocs["maxpool"])
		fwd.add("tensor.upsample.ms", byClass["upsample"])
		fwd.add("tensor.concat.ms", byClass["concat"])
		s.add("tensor.concat.allocs", allocs["concat"])
		fwd.add("engine.self_ms", ms(fw)-kernels)
	}
	for _, op := range ops {
		if !sameFloats(op.out.Data, op.want.Data) {
			return nil, fmt.Errorf("replay: layer %q output differs from the engine's", op.l.Name)
		}
	}
	s.medians(out)
	fwd.at(medianIndex(fwd["engine.forward_ms"]), out)
	return kernelTable(prog, ops, out)
}

// kernelTable aggregates the conv classes — every listed one, plus any
// other the model has — and sets each one's executed work, rate,
// measured share of the forward pass and hw's predicted share for the
// same model and structure. It returns the classes the model has, in
// layer order.
func kernelTable(prog *engine.Program, ops []*kernelOp, out map[string]float64) ([]kernelRow, error) {
	est, err := hw.Estimate(prog.Model(), hw.JetsonTX2(), prune.Pattern)
	if err != nil {
		return nil, err
	}
	layerTime := map[int]float64{}
	for _, lc := range est.Layers {
		layerTime[lc.LayerID] = lc.TotalTime
	}
	rows := map[string]*kernelRow{}
	for _, c := range convClasses {
		rows[c] = &kernelRow{Class: c}
	}
	var order []string
	for _, op := range ops {
		if op.l.Kind != nn.Conv {
			continue
		}
		r := rows[op.class]
		if r == nil {
			r = &kernelRow{Class: op.class}
			rows[op.class] = r
		}
		if r.Layers == 0 {
			order = append(order, op.class)
		}
		r.Layers++
		r.MMACs += float64(op.macs) / 1e6
		r.HWShare += ratio(layerTime[op.l.ID], est.Time)
	}
	for c, r := range rows {
		p := "tensor.conv." + c
		r.MS = out[p+".ms"]
		r.GMACs = ratio(r.MMACs, r.MS)
		r.Share = ratio(r.MS, out["engine.forward_ms"])
		out[p+".mmacs"], out[p+".gmac_s"], out[p+".share"], out[p+".hw_share"] = r.MMACs, r.GMACs, r.Share, r.HWShare
	}
	table := make([]kernelRow, len(order))
	for i, c := range order {
		table[i] = *rows[c]
	}
	return table, nil
}
