package engine

import (
	"testing"

	"rtoss/internal/baselines"
	"rtoss/internal/core"
	"rtoss/internal/nn"
	"rtoss/internal/rng"
	"rtoss/internal/tensor"
)

func tinyDetector(t testing.TB, seed uint64) *nn.Model {
	t.Helper()
	b := nn.NewBuilder("tinydet", 3, 32, 32, 2)
	x := b.Input()
	x = b.ConvBNAct("stem", x, 3, 8, 3, 2, 1, nn.SiLU)
	c3 := b.C3("c3", x, 8, 8, 1, true, nn.SiLU)
	x = b.ConvBNAct("down", c3, 8, 16, 3, 2, 1, nn.SiLU)
	up := b.Upsample("up", x, 2)
	cat := b.Concat("cat", up, c3)
	x = b.ConvBNAct("fuse", cat, 24, 16, 1, 1, 0, nn.SiLU)
	head := b.Conv("head", x, 16, 14, 1, 1, 0, true)
	b.Detect("detect", head)
	m := b.MustBuild()
	m.InitWeights(seed)
	return m
}

func randInput(r *rng.RNG, c, h, w int) *tensor.Tensor {
	in := tensor.New(1, c, h, w)
	for i := range in.Data {
		in.Data[i] = float32(r.Range(-1, 1))
	}
	return in
}

func TestForwardShapes(t *testing.T) {
	m := tinyDetector(t, 1)
	p, err := Compile(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	outs, err := p.Forward(randInput(rng.New(2), 3, 32, 32))
	if err != nil {
		t.Fatal(err)
	}
	shapes, err := m.InferShapes()
	if err != nil {
		t.Fatal(err)
	}
	for id, out := range outs {
		if out == nil {
			t.Fatalf("layer %d has no output", id)
		}
		want := shapes[id]
		if out.Dim(1) != want.C || out.Dim(2) != want.H || out.Dim(3) != want.W {
			t.Fatalf("layer %d (%s) output %v, shape inference says %v", id, m.Layers[id].Name, out.Shape(), want)
		}
	}
}

func TestForwardDeterministic(t *testing.T) {
	m := tinyDetector(t, 5)
	in := randInput(rng.New(9), 3, 32, 32)
	a, err := Output(m, in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Output(m, in)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b, 0) {
		t.Fatal("forward pass not deterministic")
	}
}

func TestForwardRejectsBadInput(t *testing.T) {
	p, err := Compile(tinyDetector(t, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Forward(tensor.New(1, 5, 32, 32)); err == nil {
		t.Fatal("expected channel mismatch error")
	}
	if _, err := p.Forward(tensor.New(3, 32, 32)); err == nil {
		t.Fatal("expected rank error")
	}
}

func TestActivations(t *testing.T) {
	cases := []struct {
		act  nn.Activation
		in   float32
		want float32
	}{
		{nn.ReLU, -1, 0},
		{nn.ReLU, 2, 2},
		{nn.LeakyReLU, -1, -0.1},
		{nn.NoAct, -3, -3},
	}
	for _, c := range cases {
		if got := applyAct(c.in, c.act); got != c.want {
			t.Errorf("act %v(%v) = %v want %v", c.act, c.in, got, c.want)
		}
	}
	// SiLU(0) = 0, sigmoid(0) = 0.5.
	if applyAct(0, nn.SiLU) != 0 {
		t.Error("SiLU(0) != 0")
	}
	if applyAct(0, nn.Sigmoid) != 0.5 {
		t.Error("sigmoid(0) != 0.5")
	}
}

func TestPruningPerturbsOutputModestly(t *testing.T) {
	// R-TOSS pattern pruning keeps the dominant weights, so the output
	// delta must be well below 100% relative error — and much smaller
	// than zeroing the same layers completely.
	base := tinyDetector(t, 7)
	in := randInput(rng.New(11), 3, 32, 32)

	pruned := base.Clone()
	if _, err := core.NewVariant(3).Prune(pruned); err != nil {
		t.Fatal(err)
	}
	delta, err := OutputDelta(base, pruned, in)
	if err != nil {
		t.Fatal(err)
	}
	if delta <= 0 {
		t.Fatal("pruning should perturb outputs")
	}
	if delta > 1.2 {
		t.Fatalf("3EP output delta %.3f unreasonably large", delta)
	}

	// Destroying the model entirely must be much worse.
	dead := base.Clone()
	for _, l := range dead.ConvLayers() {
		l.Weight.Zero()
	}
	deadDelta, err := OutputDelta(base, dead, in)
	if err != nil {
		t.Fatal(err)
	}
	if deadDelta <= delta {
		t.Fatalf("zeroed model delta %.3f should exceed pruned delta %.3f", deadDelta, delta)
	}
}

func TestPatternPruningGentlerThanFilterPruning(t *testing.T) {
	// At comparable sparsity, pattern pruning (keeps top weights per
	// kernel) must perturb real activations less than filter pruning
	// (removes whole filters) — the activation-space counterpart of the
	// paper's accuracy argument.
	base := tinyDetector(t, 13)
	in := randInput(rng.New(17), 3, 32, 32)

	pat := base.Clone()
	if _, err := core.NewVariant(3).Prune(pat); err != nil { // 67% sparsity
		t.Fatal(err)
	}
	filt := base.Clone()
	pf := baselines.NewPruningFilters()
	pf.FilterFrac = 0.67 // matched sparsity
	if _, err := pf.Prune(filt); err != nil {
		t.Fatal(err)
	}
	dPat, err := OutputDelta(base, pat, in)
	if err != nil {
		t.Fatal(err)
	}
	dFilt, err := OutputDelta(base, filt, in)
	if err != nil {
		t.Fatal(err)
	}
	if dPat >= dFilt {
		t.Errorf("pattern delta %.4f should be below filter delta %.4f at matched sparsity", dPat, dFilt)
	}
}

func TestGlobalPoolAndLinear(t *testing.T) {
	b := nn.NewBuilder("cls", 2, 4, 4, 3)
	x := b.Input()
	x = b.GlobalPool("gap", x)
	x = b.Linear("fc", x, 2, 3, true)
	b.Detect("out", x)
	m := b.MustBuild()
	m.InitWeights(1)
	// Set deterministic weights: identity-ish.
	fc := m.Layers[2]
	for i := range fc.LinW.Data {
		fc.LinW.Data[i] = 0
	}
	fc.LinW.Set(1, 0, 0) // out0 = mean(channel0)
	fc.LinW.Set(2, 1, 1) // out1 = 2*mean(channel1)
	for i := range fc.LinB {
		fc.LinB[i] = 0
	}
	in := tensor.New(1, 2, 4, 4)
	for i := 0; i < 16; i++ {
		in.Data[i] = 1 // channel 0 all ones
		in.Data[16+i] = 3
	}
	out, err := Output(m, in)
	if err != nil {
		t.Fatal(err)
	}
	if out.At(0, 0, 0, 0) != 1 || out.At(0, 1, 0, 0) != 6 || out.At(0, 2, 0, 0) != 0 {
		t.Fatalf("linear output wrong: %v", out.Data)
	}
}

func TestResidualAddExecutes(t *testing.T) {
	b := nn.NewBuilder("res", 1, 4, 4, 1)
	x := b.Input()
	c := b.Conv("c", x, 1, 1, 1, 1, 0, false)
	sum := b.Add("add", x, c)
	b.Detect("out", sum)
	m := b.MustBuild()
	m.InitWeights(1)
	m.Layers[1].Weight.Data[0] = 2 // conv doubles the input
	in := tensor.Full(3, 1, 1, 4, 4)
	out, err := Output(m, in)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out.Data {
		if v != 9 { // 3 + 2*3
			t.Fatalf("residual output %v want 9", v)
		}
	}
}

func BenchmarkForwardTinyDetector(b *testing.B) {
	m := tinyDetector(b, 3)
	in := randInput(rng.New(4), 3, 32, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Output(m, in); err != nil {
			b.Fatal(err)
		}
	}
}
