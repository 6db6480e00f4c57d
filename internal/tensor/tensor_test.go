package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"rtoss/internal/rng"
)

func TestNewShapeAndLen(t *testing.T) {
	a := New(2, 3, 4)
	if a.Rank() != 3 || a.Len() != 24 {
		t.Fatalf("rank=%d len=%d", a.Rank(), a.Len())
	}
	s := a.Shape()
	if s[0] != 2 || s[1] != 3 || s[2] != 4 {
		t.Fatalf("shape %v", s)
	}
}

func TestNewPanicsOnNegativeDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, -1)
}

func TestAtSetRoundTrip(t *testing.T) {
	a := New(2, 3, 4, 5)
	a.Set(7.5, 1, 2, 3, 4)
	if a.At(1, 2, 3, 4) != 7.5 {
		t.Fatal("At/Set round trip failed")
	}
	// Row-major layout: last index is fastest.
	if a.Data[1*3*4*5+2*4*5+3*5+4] != 7.5 {
		t.Fatal("unexpected memory layout")
	}
}

func TestAtPanicsOutOfBounds(t *testing.T) {
	a := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.At(2, 0)
}

func TestFromSliceLengthCheck(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestReshapeSharesData(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := a.Reshape(3, 2)
	b.Set(42, 0, 0)
	if a.At(0, 0) != 42 {
		t.Fatal("reshape should share underlying data")
	}
	if b.At(2, 1) != 6 {
		t.Fatalf("reshape element order changed: %v", b.At(2, 1))
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := a.Clone()
	b.Set(99, 0, 0)
	if a.At(0, 0) != 1 {
		t.Fatal("clone is shallow")
	}
}

func TestNormsAndSparsity(t *testing.T) {
	a := FromSlice([]float32{3, -4, 0, 0}, 4)
	if a.L1() != 7 {
		t.Fatalf("L1=%v", a.L1())
	}
	if a.L2() != 5 {
		t.Fatalf("L2=%v", a.L2())
	}
	if a.NNZ() != 2 {
		t.Fatalf("NNZ=%d", a.NNZ())
	}
	if a.Sparsity() != 0.5 {
		t.Fatalf("Sparsity=%v", a.Sparsity())
	}
	if a.Sum() != -1 {
		t.Fatalf("Sum=%v", a.Sum())
	}
}

func TestAddMulScale(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{10, 20, 30, 40}, 2, 2)
	a.Add(b)
	want := []float32{11, 22, 33, 44}
	for i, v := range want {
		if a.Data[i] != v {
			t.Fatalf("Add: %v", a.Data)
		}
	}
	a.Mul(b)
	if a.Data[3] != 44*40 {
		t.Fatalf("Mul: %v", a.Data)
	}
	a.Scale(0.5)
	if a.Data[0] != 55 {
		t.Fatalf("Scale: %v", a.Data)
	}
}

func TestAddShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).Add(New(4))
}

func TestMaxAbsMax(t *testing.T) {
	a := FromSlice([]float32{-7, 3, 2}, 3)
	if a.Max() != 3 {
		t.Fatalf("Max=%v", a.Max())
	}
	if a.AbsMax() != 7 {
		t.Fatalf("AbsMax=%v", a.AbsMax())
	}
}

func TestConvOut(t *testing.T) {
	cases := []struct{ in, k, s, p, want int }{
		{640, 3, 1, 1, 640},
		{640, 3, 2, 1, 320},
		{640, 6, 2, 2, 320},
		{7, 3, 1, 0, 5},
		{7, 1, 1, 0, 7},
		{224, 7, 2, 3, 112},
	}
	for _, c := range cases {
		if got := ConvOut(c.in, c.k, c.s, c.p); got != c.want {
			t.Errorf("ConvOut(%d,%d,%d,%d)=%d want %d", c.in, c.k, c.s, c.p, got, c.want)
		}
	}
}

func TestConv2DIdentityKernel(t *testing.T) {
	// A 1x1 kernel of value 1 must reproduce the input channel.
	in := FromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	w := FromSlice([]float32{1}, 1, 1, 1, 1)
	out := Conv2D(in, w, nil, 1, 0, 1)
	if !out.Equal(in, 0) {
		t.Fatalf("identity conv failed: %v", out.Data)
	}
}

func TestConv2DHandComputed(t *testing.T) {
	// 3x3 input, 2x2 kernel, stride 1, no pad.
	in := FromSlice([]float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 1, 3, 3)
	w := FromSlice([]float32{
		1, 0,
		0, 1,
	}, 1, 1, 2, 2)
	out := Conv2D(in, w, nil, 1, 0, 1)
	// Each output = x[i,j] + x[i+1,j+1].
	want := []float32{1 + 5, 2 + 6, 4 + 8, 5 + 9}
	for i, v := range want {
		if out.Data[i] != v {
			t.Fatalf("got %v want %v", out.Data, want)
		}
	}
}

func TestConv2DBias(t *testing.T) {
	in := FromSlice([]float32{1, 1, 1, 1}, 1, 1, 2, 2)
	w := FromSlice([]float32{1}, 1, 1, 1, 1)
	out := Conv2D(in, w, []float32{10}, 1, 0, 1)
	for _, v := range out.Data {
		if v != 11 {
			t.Fatalf("bias not applied: %v", out.Data)
		}
	}
}

func TestConv2DPadding(t *testing.T) {
	// Single pixel, 3x3 kernel of ones, pad 1: every output position sums
	// the (single) overlapping input value.
	in := FromSlice([]float32{5}, 1, 1, 1, 1)
	w := Full(1, 1, 1, 3, 3)
	out := Conv2D(in, w, nil, 1, 1, 1)
	if out.Dim(2) != 1 || out.Dim(3) != 1 {
		t.Fatalf("bad output shape %v", out.Shape())
	}
	if out.Data[0] != 5 {
		t.Fatalf("pad conv got %v", out.Data[0])
	}
}

func TestConv2DGroups(t *testing.T) {
	// Two channels, two groups: each output channel sees only its own input.
	in := FromSlice([]float32{
		1, 1, 1, 1, // channel 0
		2, 2, 2, 2, // channel 1
	}, 1, 2, 2, 2)
	w := FromSlice([]float32{1, 1}, 2, 1, 1, 1)
	out := Conv2D(in, w, nil, 1, 0, 2)
	if out.At(0, 0, 0, 0) != 1 || out.At(0, 1, 0, 0) != 2 {
		t.Fatalf("grouped conv mixed channels: %v", out.Data)
	}
}

func TestConv2DGroupsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for indivisible groups")
		}
	}()
	in := New(1, 3, 2, 2)
	w := New(2, 1, 1, 1)
	Conv2D(in, w, nil, 1, 0, 2)
}

func randTensor(r *rng.RNG, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = float32(r.Range(-1, 1))
	}
	return t
}

func TestConv2DMatchesIm2col(t *testing.T) {
	r := rng.New(1234)
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(2)
		c := 1 + r.Intn(4)
		k := 1 + r.Intn(4)
		ks := []int{1, 3, 5}[r.Intn(3)]
		h := ks + r.Intn(6)
		w := ks + r.Intn(6)
		stride := 1 + r.Intn(2)
		pad := r.Intn(2)
		in := randTensor(r, n, c, h, w)
		wt := randTensor(r, k, c, ks, ks)
		bias := make([]float32, k)
		for i := range bias {
			bias[i] = float32(r.Range(-1, 1))
		}
		direct := Conv2D(in, wt, bias, stride, pad, 1)
		gemm := Conv2DIm2col(in, wt, bias, stride, pad)
		if !direct.Equal(gemm, 1e-4) {
			t.Fatalf("trial %d: direct and im2col paths disagree (shape in=%v w=%v s=%d p=%d)", trial, in.Shape(), wt.Shape(), stride, pad)
		}
	}
}

func TestMatMulHandComputed(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("MatMul got %v want %v", c.Data, want)
		}
	}
}

func TestMatMulDimCheck(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

func TestMaxPool2D(t *testing.T) {
	in := FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	out := MaxPool2D(in, 2, 2, 0)
	want := []float32{6, 8, 14, 16}
	for i, v := range want {
		if out.Data[i] != v {
			t.Fatalf("MaxPool got %v want %v", out.Data, want)
		}
	}
}

func TestMaxPool2DPadIgnoresBorder(t *testing.T) {
	in := FromSlice([]float32{-5}, 1, 1, 1, 1)
	out := MaxPool2D(in, 3, 1, 1)
	if out.Data[0] != -5 {
		t.Fatalf("padded maxpool should ignore padding, got %v", out.Data[0])
	}
}

// TestMaxPool2DIntoZeroAlloc pins the pooling kernel's zero-alloc
// contract on a 4-D input (the SPPF block runs three 5x5 pools per
// forward) and checks it against a straightforward At-indexed
// reference, including the padded border.
func TestMaxPool2DIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("-race allocates internally; zero-alloc is only meaningful without it")
	}
	r := rng.New(11)
	in := New(2, 3, 9, 7)
	for i := range in.Data {
		in.Data[i] = float32(r.Range(-1, 1))
	}
	const k, stride, pad = 5, 1, 2
	out := New(2, 3, ConvOut(9, k, stride, pad), ConvOut(7, k, stride, pad))
	MaxPool2DInto(out, in, k, stride, pad)
	for b := 0; b < 2; b++ {
		for c := 0; c < 3; c++ {
			for oy := 0; oy < out.Dim(2); oy++ {
				for ox := 0; ox < out.Dim(3); ox++ {
					m := float32(math.Inf(-1))
					for iy := oy - pad; iy < oy-pad+k; iy++ {
						for ix := ox - pad; ix < ox-pad+k; ix++ {
							if iy >= 0 && iy < 9 && ix >= 0 && ix < 7 && in.At(b, c, iy, ix) > m {
								m = in.At(b, c, iy, ix)
							}
						}
					}
					if got := out.At(b, c, oy, ox); got != m {
						t.Fatalf("out[%d,%d,%d,%d] = %v, want %v", b, c, oy, ox, got, m)
					}
				}
			}
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { MaxPool2DInto(out, in, k, stride, pad) }); allocs != 0 {
		t.Fatalf("MaxPool2DInto allocates %.1f times per call, want 0", allocs)
	}
}

func TestUpsampleNearest2x(t *testing.T) {
	in := FromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	out := UpsampleNearest2x(in)
	if out.Dim(2) != 4 || out.Dim(3) != 4 {
		t.Fatalf("shape %v", out.Shape())
	}
	if out.At(0, 0, 0, 0) != 1 || out.At(0, 0, 0, 1) != 1 || out.At(0, 0, 3, 3) != 4 {
		t.Fatalf("upsample wrong: %v", out.Data)
	}
}

func TestConcatChannels(t *testing.T) {
	a := Full(1, 1, 2, 2, 2)
	b := Full(2, 1, 3, 2, 2)
	out := ConcatChannels(a, b)
	if out.Dim(1) != 5 {
		t.Fatalf("channels %d", out.Dim(1))
	}
	if out.At(0, 0, 0, 0) != 1 || out.At(0, 4, 1, 1) != 2 {
		t.Fatal("concat misplaced data")
	}
}

func TestQuickL2NonNegativeAndScale(t *testing.T) {
	f := func(vals []float32) bool {
		if len(vals) == 0 {
			return true
		}
		// Clamp pathological values; synthetic weights are bounded.
		for i, v := range vals {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				vals[i] = 0
			}
			if v > 1e6 {
				vals[i] = 1e6
			}
			if v < -1e6 {
				vals[i] = -1e6
			}
		}
		a := FromSlice(vals, len(vals))
		l2 := a.L2()
		if l2 < 0 {
			return false
		}
		b := a.Clone()
		b.Scale(2)
		// ||2x|| == 2||x|| within float tolerance.
		return math.Abs(b.L2()-2*l2) <= 1e-3*(1+2*l2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSparsityBounds(t *testing.T) {
	f := func(vals []float32) bool {
		if len(vals) == 0 {
			return true
		}
		a := FromSlice(vals, len(vals))
		s := a.Sparsity()
		return s >= 0 && s <= 1 && a.NNZ()+int(s*float64(len(vals))+0.5) == len(vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTriangleInequality(t *testing.T) {
	r := rng.New(99)
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.Intn(64)
		a := randTensor(r, n)
		b := randTensor(r, n)
		sum := a.Clone()
		sum.Add(b)
		if sum.L2() > a.L2()+b.L2()+1e-6 {
			t.Fatalf("triangle inequality violated: %v > %v + %v", sum.L2(), a.L2(), b.L2())
		}
	}
}

func BenchmarkConv2DDirect3x3(b *testing.B) {
	r := rng.New(5)
	in := randTensor(r, 1, 32, 40, 40)
	w := randTensor(r, 32, 32, 3, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Conv2D(in, w, nil, 1, 1, 1)
	}
}

func BenchmarkConv2DIm2col3x3(b *testing.B) {
	r := rng.New(5)
	in := randTensor(r, 1, 32, 40, 40)
	w := randTensor(r, 32, 32, 3, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Conv2DIm2col(in, w, nil, 1, 1)
	}
}

func BenchmarkMatMul256(b *testing.B) {
	r := rng.New(5)
	x := randTensor(r, 256, 256)
	y := randTensor(r, 256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MatMul(x, y)
	}
}
