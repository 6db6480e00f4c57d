package main

import (
	"fmt"
	"math"
	"sync"

	"rtoss/internal/detect"
	"rtoss/internal/engine"
	"rtoss/internal/tensor"
)

// references computes the expected detections for every input once,
// through the unbatched path: decode, letterbox, Program.Heads and
// detect.PostprocessInto. Served results must match them bitwise — the
// same parity contract the evaluation gates hold across backends.
func references(prog *engine.Program, pipe detect.Config, res int, inputs [][]byte, workers int) ([][]detect.Detection, error) {
	refs := make([][]detect.Detection, len(inputs))
	errs := make([]error, len(inputs))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				refs[i], errs[i] = reference(prog, pipe, res, inputs[i])
			}
		}()
	}
	for i := range inputs {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("reference for input %d: %w", i, err)
		}
	}
	return refs, nil
}

func reference(prog *engine.Program, pipe detect.Config, res int, img []byte) ([]detect.Detection, error) {
	t, err := tensor.DecodeImageInto(nil, img)
	if err != nil {
		return nil, err
	}
	canvas, meta := tensor.LetterboxImageInto(nil, t, res, res, tensor.LetterboxFill)
	heads, err := prog.Heads(canvas.Reshape(1, canvas.Dim(0), canvas.Dim(1), canvas.Dim(2)))
	if err != nil {
		return nil, err
	}
	return detect.PostprocessInto(nil, heads, meta, pipe.WithDefaults())
}

// sameDetections reports whether got equals want bit for bit.
func sameDetections(got, want []detect.Detection) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Class != w.Class || !sameFloat(g.Score, w.Score) ||
			!sameFloat(g.Box.X1, w.Box.X1) || !sameFloat(g.Box.Y1, w.Box.Y1) ||
			!sameFloat(g.Box.X2, w.Box.X2) || !sameFloat(g.Box.Y2, w.Box.Y2) {
			return false
		}
	}
	return true
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
