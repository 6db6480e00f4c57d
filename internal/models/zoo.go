package models

import (
	"fmt"
	"sort"

	"rtoss/internal/nn"
)

// Detector pairs an architecture with the metadata the Table 1/2
// experiments need. Two-stage detectors additionally carry a per-region
// classifier evaluated Regions times per image, which is what made
// R-CNN-era latencies catastrophic.
type Detector struct {
	Model *nn.Model
	// Stage is "single-stage" or "two-stage".
	Stage string
	// Regions is the number of region proposals evaluated per image by
	// PerRegion (zero for single-stage detectors).
	Regions int
	// PerRegion is the per-proposal classifier network (nil if none).
	PerRegion *nn.Model
	// RefMAP is the literature mAP the paper quotes in Table 1 (%).
	RefMAP float64
	// RefFPS is the literature inference rate the paper quotes in Table 1.
	RefFPS float64
}

// TotalMACs returns the full per-image MAC count including per-region
// replication for two-stage detectors.
func (d *Detector) TotalMACs() int64 {
	m, err := d.Model.MACs()
	if err != nil {
		panic(fmt.Sprintf("models: %s MACs: %v", d.Model.Name, err))
	}
	if d.PerRegion != nil && d.Regions > 0 {
		pr, err := d.PerRegion.MACs()
		if err != nil {
			panic(fmt.Sprintf("models: %s per-region MACs: %v", d.Model.Name, err))
		}
		m += int64(d.Regions) * pr
	}
	return m
}

// TotalParams returns parameters across the main and per-region nets.
func (d *Detector) TotalParams() int64 {
	p := d.Model.Params()
	if d.PerRegion != nil {
		p += d.PerRegion.Params()
	}
	return p
}

// YOLOXs builds YOLOX-s: a YOLOv5s-style CSP backbone and PAN neck with
// YOLOX's decoupled, anchor-free heads (per-level stem + separate
// classification and regression towers). Parameter count lands near the
// paper's Table 2 value of 8.97 M.
func buildYOLOXs(classes int) *nn.Model {
	b := nn.NewBuilder("YOLOXs", 3, 640, 640, classes)
	x := b.Input()
	b.SetModule("backbone")
	x = b.ConvBNAct("b0", x, 3, 32, 6, 2, 2, nn.SiLU)
	x = b.ConvBNAct("b1", x, 32, 64, 3, 2, 1, nn.SiLU)
	x = b.C3("b2", x, 64, 64, 1, true, nn.SiLU)
	x = b.ConvBNAct("b3", x, 64, 128, 3, 2, 1, nn.SiLU)
	p3 := b.C3("b4", x, 128, 128, 3, true, nn.SiLU)
	x = b.ConvBNAct("b5", p3, 128, 256, 3, 2, 1, nn.SiLU)
	p4 := b.C3("b6", x, 256, 256, 3, true, nn.SiLU)
	x = b.ConvBNAct("b7", p4, 256, 512, 3, 2, 1, nn.SiLU)
	x = b.SPPF("b8", x, 512, 512, 5, nn.SiLU)
	p5 := b.C3("b9", x, 512, 512, 1, true, nn.SiLU)

	b.SetModule("neck")
	h10 := b.ConvBNAct("n0", p5, 512, 256, 1, 1, 0, nn.SiLU)
	u := b.Upsample("n1", h10, 2)
	cat := b.Concat("n2", u, p4)
	n3 := b.C3("n3", cat, 512, 256, 1, false, nn.SiLU)
	h14 := b.ConvBNAct("n4", n3, 256, 128, 1, 1, 0, nn.SiLU)
	u2 := b.Upsample("n5", h14, 2)
	cat2 := b.Concat("n6", u2, p3)
	o3 := b.C3("n7", cat2, 256, 128, 1, false, nn.SiLU)
	d := b.ConvBNAct("n8", o3, 128, 128, 3, 2, 1, nn.SiLU)
	cat3 := b.Concat("n9", d, h14)
	o4 := b.C3("n10", cat3, 256, 256, 1, false, nn.SiLU)
	d2 := b.ConvBNAct("n11", o4, 256, 256, 3, 2, 1, nn.SiLU)
	cat4 := b.Concat("n12", d2, h10)
	o5 := b.C3("n13", cat4, 512, 512, 1, false, nn.SiLU)

	// Decoupled heads, one per level (not shared in YOLOX).
	var preds []int
	for i, lv := range []struct{ id, in int }{{o3, 128}, {o4, 256}, {o5, 512}} {
		b.SetModule(fmt.Sprintf("head.l%d", i))
		pfx := fmt.Sprintf("head%d", i)
		stem := b.ConvBNAct(pfx+".stem", lv.id, lv.in, 128, 1, 1, 0, nn.SiLU)
		ct := b.ConvBNAct(pfx+".cls0", stem, 128, 128, 3, 1, 1, nn.SiLU)
		ct = b.ConvBNAct(pfx+".cls1", ct, 128, 128, 3, 1, 1, nn.SiLU)
		cp := b.Conv(pfx+".clsPred", ct, 128, classes, 1, 1, 0, true)
		rt := b.ConvBNAct(pfx+".reg0", stem, 128, 128, 3, 1, 1, nn.SiLU)
		rt = b.ConvBNAct(pfx+".reg1", rt, 128, 128, 3, 1, 1, nn.SiLU)
		rp := b.Conv(pfx+".regPred", rt, 128, 4, 1, 1, 0, true)
		op := b.Conv(pfx+".objPred", rt, 128, 1, 1, 1, 0, true)
		preds = append(preds, cp, rp, op)
	}
	b.SetModule("detect")
	b.Detect("detect", preds...)
	m := b.MustBuild()
	m.InitWeights(DefaultSeed + 2)
	return m
}

// YOLOv7 builds an ELAN-style approximation of YOLOv7 at 640×640: the
// real network's E-ELAN blocks are concatenations of parallel conv
// chains; this descriptor reproduces that block structure with channel
// widths tuned so total parameters land near Table 2's 36.90 M and MACs
// near the published ~52 GMACs.
func buildYOLOv7(classes int) *nn.Model {
	b := nn.NewBuilder("YOLOv7", 3, 640, 640, classes)
	x := b.Input()
	b.SetModule("backbone")
	x = b.ConvBNAct("b0", x, 3, 32, 3, 1, 1, nn.SiLU)
	x = b.ConvBNAct("b1", x, 32, 64, 3, 2, 1, nn.SiLU)
	x = b.ConvBNAct("b2", x, 64, 64, 3, 1, 1, nn.SiLU)
	x = b.ConvBNAct("b3", x, 64, 128, 3, 2, 1, nn.SiLU)

	elan := func(name string, from, inC, midC, outC int) int {
		// Two 1×1 entries; one branch chains four 3×3 convs; concat of
		// four taps; 1×1 fuse — the E-ELAN topology.
		a := b.ConvBNAct(name+".a", from, inC, midC, 1, 1, 0, nn.SiLU)
		c := b.ConvBNAct(name+".b", from, inC, midC, 1, 1, 0, nn.SiLU)
		c1 := b.ConvBNAct(name+".c1", c, midC, midC, 3, 1, 1, nn.SiLU)
		c2 := b.ConvBNAct(name+".c2", c1, midC, midC, 3, 1, 1, nn.SiLU)
		c3 := b.ConvBNAct(name+".c3", c2, midC, midC, 3, 1, 1, nn.SiLU)
		c4 := b.ConvBNAct(name+".c4", c3, midC, midC, 3, 1, 1, nn.SiLU)
		cat := b.Concat(name+".cat", a, c, c2, c4)
		return b.ConvBNAct(name+".fuse", cat, 4*midC, outC, 1, 1, 0, nn.SiLU)
	}
	down := func(name string, from, c int) int {
		return b.ConvBNAct(name, from, c, c, 3, 2, 1, nn.SiLU)
	}

	x = elan("e1", x, 128, 64, 256)
	x = down("d1", x, 256)
	p3 := elan("e2", x, 256, 128, 512)
	x = down("d2", p3, 512)
	p4 := elan("e3", x, 512, 256, 1024)
	x = down("d3", p4, 1024)
	p5 := elan("e4", x, 1024, 256, 1024)

	b.SetModule("neck")
	sp := b.SPPF("sppf", p5, 1024, 512, 5, nn.SiLU)
	n1 := b.ConvBNAct("n1", sp, 512, 256, 1, 1, 0, nn.SiLU)
	u1 := b.Upsample("u1", n1, 2)
	l4 := b.ConvBNAct("l4", p4, 1024, 256, 1, 1, 0, nn.SiLU)
	cat1 := b.Concat("cat1", u1, l4)
	f4 := elan("ne1", cat1, 512, 128, 256)
	n2 := b.ConvBNAct("n2", f4, 256, 128, 1, 1, 0, nn.SiLU)
	u2 := b.Upsample("u2", n2, 2)
	l3 := b.ConvBNAct("l3", p3, 512, 128, 1, 1, 0, nn.SiLU)
	cat2 := b.Concat("cat2", u2, l3)
	f3 := elan("ne2", cat2, 256, 64, 128)
	d4 := b.ConvBNAct("nd1", f3, 128, 256, 3, 2, 1, nn.SiLU)
	cat3 := b.Concat("cat3", d4, f4)
	g4 := elan("ne3", cat3, 512, 128, 256)
	d5 := b.ConvBNAct("nd2", g4, 256, 512, 3, 2, 1, nn.SiLU)
	cat4 := b.Concat("cat4", d5, sp)
	g5 := elan("ne4", cat4, 1024, 256, 512)

	b.SetModule("detect")
	no := 3 * (5 + classes)
	h3 := b.ConvBNAct("h3", f3, 128, 256, 3, 1, 1, nn.SiLU)
	h4 := b.ConvBNAct("h4", g4, 256, 512, 3, 1, 1, nn.SiLU)
	h5 := b.ConvBNAct("h5", g5, 512, 1024, 3, 1, 1, nn.SiLU)
	d3p := b.Conv("detect.p3", h3, 256, no, 1, 1, 0, true)
	d4p := b.Conv("detect.p4", h4, 512, no, 1, 1, 0, true)
	d5p := b.Conv("detect.p5", h5, 1024, no, 1, 1, 0, true)
	b.Detect("detect", d3p, d4p, d5p)
	m := b.MustBuild()
	m.InitWeights(DefaultSeed + 3)
	return m
}

// YOLOR builds a CSP-style approximation of YOLOR (implicit-knowledge
// representation network); widths are tuned so parameters land near
// Table 2's 37.26 M.
func buildYOLOR(classes int) *nn.Model {
	// YOLOR-P6-style models run at larger native resolutions; 896 is
	// the closest square to its published operating points.
	b := nn.NewBuilder("YOLOR", 3, 896, 896, classes)
	x := b.Input()
	b.SetModule("backbone")
	x = b.ConvBNAct("b0", x, 3, 64, 6, 2, 2, nn.SiLU)
	x = b.ConvBNAct("b1", x, 64, 128, 3, 2, 1, nn.SiLU)
	x = b.C3("b2", x, 128, 128, 3, true, nn.SiLU)
	x = b.ConvBNAct("b3", x, 128, 256, 3, 2, 1, nn.SiLU)
	p3 := b.C3("b4", x, 256, 256, 5, true, nn.SiLU)
	x = b.ConvBNAct("b5", p3, 256, 512, 3, 2, 1, nn.SiLU)
	p4 := b.C3("b6", x, 512, 512, 4, true, nn.SiLU)
	x = b.ConvBNAct("b7", p4, 512, 1024, 3, 2, 1, nn.SiLU)
	x = b.C3("b8", x, 1024, 1024, 2, true, nn.SiLU)
	x = b.SPPF("b9", x, 1024, 1024, 5, nn.SiLU)

	b.SetModule("neck")
	h := b.ConvBNAct("n0", x, 1024, 512, 1, 1, 0, nn.SiLU)
	u := b.Upsample("n1", h, 2)
	l4 := b.ConvBNAct("n2", p4, 512, 512, 1, 1, 0, nn.SiLU)
	cat := b.Concat("n3", u, l4)
	f4 := b.C3("n4", cat, 1024, 512, 2, false, nn.SiLU)
	h2 := b.ConvBNAct("n5", f4, 512, 256, 1, 1, 0, nn.SiLU)
	u2 := b.Upsample("n6", h2, 2)
	l3 := b.ConvBNAct("n7", p3, 256, 256, 1, 1, 0, nn.SiLU)
	cat2 := b.Concat("n8", u2, l3)
	f3 := b.C3("n9", cat2, 512, 256, 2, false, nn.SiLU)
	d1 := b.ConvBNAct("n10", f3, 256, 512, 3, 2, 1, nn.SiLU)
	cat3 := b.Concat("n11", d1, f4)
	g4 := b.C3("n12", cat3, 1024, 512, 2, false, nn.SiLU)
	d2 := b.ConvBNAct("n13", g4, 512, 1024, 3, 2, 1, nn.SiLU)
	cat4 := b.Concat("n14", d2, h)
	g5 := b.C3("n15", cat4, 1536, 1024, 1, false, nn.SiLU)

	b.SetModule("detect")
	no := 3 * (5 + classes)
	d3p := b.Conv("detect.p3", f3, 256, no, 1, 1, 0, true)
	d4p := b.Conv("detect.p4", g4, 512, no, 1, 1, 0, true)
	d5p := b.Conv("detect.p5", g5, 1024, no, 1, 1, 0, true)
	b.Detect("detect", d3p, d4p, d5p)
	m := b.MustBuild()
	m.InitWeights(DefaultSeed + 4)
	return m
}

// DETR builds DETR-R50: ResNet-50 backbone, 1×1 input projection, and a
// 6-encoder/6-decoder transformer whose attention and feed-forward
// projections are Linear layers (256-d model, 2048-d FFN, as published).
// Parameters land near Table 2's 41.52 M.
func buildDETR(classes int) *nn.Model {
	b := nn.NewBuilder("DETR", 3, 640, 640, classes)
	x := b.Input()
	b.SetModule("backbone.stem")
	x = b.ConvBNAct("stem", x, 3, 64, 7, 2, 3, nn.ReLU)
	x = b.MaxPool("stem.pool", x, 3, 2, 1)
	stages := []struct {
		name            string
		in, mid, out, n int
		stride          int
	}{
		{"layer1", 64, 64, 256, 3, 1},
		{"layer2", 256, 128, 512, 4, 2},
		{"layer3", 512, 256, 1024, 6, 2},
		{"layer4", 1024, 512, 2048, 3, 2},
	}
	for _, st := range stages {
		b.SetModule("backbone." + st.name)
		in := st.in
		for i := 0; i < st.n; i++ {
			s := 1
			if i == 0 {
				s = st.stride
			}
			x = b.ResNetBlock(fmt.Sprintf("%s.b%d", st.name, i), x, in, st.mid, st.out, s)
			in = st.out
		}
	}
	b.SetModule("transformer")
	x = b.Conv("inputProj", x, 2048, 256, 1, 1, 0, true)
	x = b.GlobalPool("flatten", x) // token dimension abstracted; MACs of attention are seq-dependent and carried by Linear layers below
	// Token counts at 640x640: the encoder sees the 20x20 C5 map (400
	// tokens); the decoder holds 100 object queries. Linear layers carry
	// per-token weights; MACScale replicates their cost across tokens so
	// the analytic engine charges the transformer its real compute.
	const d, ff = 256, 2048
	const encTokens, decTokens = 400, 100
	lin := func(name string, from, in, out int, tokens float64) int {
		id := b.Linear(name, from, in, out, true)
		b.MACScale(id, tokens)
		return id
	}
	for i := 0; i < 6; i++ { // encoder layers: QKV+out projections + FFN
		pfx := fmt.Sprintf("enc%d", i)
		x = lin(pfx+".q", x, d, d, encTokens)
		x = lin(pfx+".k", x, d, d, encTokens)
		x = lin(pfx+".v", x, d, d, encTokens)
		x = lin(pfx+".o", x, d, d, encTokens)
		x = lin(pfx+".ff1", x, d, ff, encTokens)
		x = lin(pfx+".ff2", x, ff, d, encTokens)
	}
	for i := 0; i < 6; i++ { // decoder layers: self-attn + cross-attn + FFN
		pfx := fmt.Sprintf("dec%d", i)
		for _, blk := range []string{".sq", ".sk", ".sv", ".so"} {
			x = lin(pfx+blk, x, d, d, decTokens)
		}
		// Cross-attention: queries from the decoder, keys/values from
		// the 400 encoder tokens.
		x = lin(pfx+".cq", x, d, d, decTokens)
		x = lin(pfx+".ck", x, d, d, encTokens)
		x = lin(pfx+".cv", x, d, d, encTokens)
		x = lin(pfx+".co", x, d, d, decTokens)
		x = lin(pfx+".ff1", x, d, ff, decTokens)
		x = lin(pfx+".ff2", x, ff, d, decTokens)
	}
	b.SetModule("head")
	cls := lin("clsHead", x, d, classes+1, decTokens)
	box1 := lin("boxHead1", x, d, d, decTokens)
	box2 := lin("boxHead2", box1, d, d, decTokens)
	box3 := lin("boxHead3", box2, d, 4, decTokens)
	b.Detect("detect", cls, box3)
	m := b.MustBuild()
	m.InitWeights(DefaultSeed + 5)
	return m
}

// YOLOv4 builds a CSPDarknet53+PANet approximation of YOLOv4 used only
// in the Table 1 comparison.
func buildYOLOv4(classes int) *nn.Model {
	b := nn.NewBuilder("YOLOv4", 3, 640, 640, classes)
	x := b.Input()
	b.SetModule("backbone")
	x = b.ConvBNAct("b0", x, 3, 32, 3, 1, 1, nn.LeakyReLU)
	x = b.ConvBNAct("b1", x, 32, 64, 3, 2, 1, nn.LeakyReLU)
	x = b.C3("b2", x, 64, 64, 1, true, nn.LeakyReLU)
	x = b.ConvBNAct("b3", x, 64, 128, 3, 2, 1, nn.LeakyReLU)
	x = b.C3("b4", x, 128, 128, 2, true, nn.LeakyReLU)
	x = b.ConvBNAct("b5", x, 128, 256, 3, 2, 1, nn.LeakyReLU)
	p3 := b.C3("b6", x, 256, 256, 8, true, nn.LeakyReLU)
	x = b.ConvBNAct("b7", p3, 256, 512, 3, 2, 1, nn.LeakyReLU)
	p4 := b.C3("b8", x, 512, 512, 8, true, nn.LeakyReLU)
	x = b.ConvBNAct("b9", p4, 512, 1024, 3, 2, 1, nn.LeakyReLU)
	x = b.C3("b10", x, 1024, 1024, 4, true, nn.LeakyReLU)
	x = b.SPPF("sppf", x, 1024, 512, 5, nn.LeakyReLU)

	b.SetModule("neck")
	u := b.Upsample("u1", b.ConvBNAct("n1", x, 512, 256, 1, 1, 0, nn.LeakyReLU), 2)
	cat := b.Concat("c1", u, b.ConvBNAct("l4", p4, 512, 256, 1, 1, 0, nn.LeakyReLU))
	f4 := b.C3("n4", cat, 512, 256, 2, false, nn.LeakyReLU)
	u2 := b.Upsample("u2", b.ConvBNAct("n5", f4, 256, 128, 1, 1, 0, nn.LeakyReLU), 2)
	cat2 := b.Concat("c2", u2, b.ConvBNAct("l3", p3, 256, 128, 1, 1, 0, nn.LeakyReLU))
	f3 := b.C3("n6", cat2, 256, 128, 2, false, nn.LeakyReLU)

	b.SetModule("detect")
	no := 3 * (5 + classes)
	d3 := b.Conv("detect.p3", f3, 128, no, 1, 1, 0, true)
	d4 := b.Conv("detect.p4", f4, 256, no, 1, 1, 0, true)
	d5 := b.Conv("detect.p5", x, 512, no, 1, 1, 0, true)
	b.Detect("detect", d3, d4, d5)
	m := b.MustBuild()
	m.InitWeights(DefaultSeed + 6)
	return m
}

// vgg16Features builds the VGG-16 convolutional trunk at the given
// input size (used by the Fast/Faster R-CNN descriptors).
func buildVGG16Features(name string, h, w int) *nn.Model {
	b := nn.NewBuilder(name, 3, h, w, 20)
	x := b.Input()
	b.SetModule("features")
	cfg := []struct{ c, n int }{{64, 2}, {128, 2}, {256, 3}, {512, 3}, {512, 3}}
	in := 3
	for si, st := range cfg {
		for i := 0; i < st.n; i++ {
			x = b.ConvBNAct(fmt.Sprintf("s%d.c%d", si, i), x, in, st.c, 3, 1, 1, nn.ReLU)
			in = st.c
		}
		if si != len(cfg)-1 {
			x = b.MaxPool(fmt.Sprintf("s%d.pool", si), x, 2, 2, 0)
		}
	}
	b.Detect("out", x)
	m := b.MustBuild()
	m.InitWeights(DefaultSeed + 7)
	return m
}

// alexNet builds the AlexNet classifier R-CNN ran on every region crop.
func buildAlexNet(classes int) *nn.Model {
	b := nn.NewBuilder("AlexNet", 3, 227, 227, classes)
	x := b.Input()
	b.SetModule("features")
	x = b.ConvBNAct("c1", x, 3, 64, 11, 4, 2, nn.ReLU)
	x = b.MaxPool("p1", x, 3, 2, 0)
	x = b.ConvBNAct("c2", x, 64, 192, 5, 1, 2, nn.ReLU)
	x = b.MaxPool("p2", x, 3, 2, 0)
	x = b.ConvBNAct("c3", x, 192, 384, 3, 1, 1, nn.ReLU)
	x = b.ConvBNAct("c4", x, 384, 256, 3, 1, 1, nn.ReLU)
	x = b.ConvBNAct("c5", x, 256, 256, 3, 1, 1, nn.ReLU)
	x = b.MaxPool("p3", x, 3, 2, 0)
	b.SetModule("classifier")
	// Real AlexNet flattens the 256x6x6 conv output into fc6.
	x = b.Linear("fc6", x, 256*6*6, 4096, true)
	x = b.Linear("fc7", x, 4096, 4096, true)
	x = b.Linear("fc8", x, 4096, classes+1, true)
	b.Detect("out", x)
	m := b.MustBuild()
	m.InitWeights(DefaultSeed + 8)
	return m
}

// roiHead builds the per-region FC head of Fast/Faster R-CNN
// (7×7×512 RoI-pooled features → 4096 → 4096 → cls+box).
func buildRoIHead(classes int) *nn.Model {
	b := nn.NewBuilder("RoIHead", 512, 7, 7, classes)
	x := b.Input()
	b.SetModule("head")
	x = b.GlobalPool("pool", x)
	x = b.Linear("fc6", x, 512*7*7, 4096, true)
	x = b.Linear("fc7", x, 4096, 4096, true)
	cls := b.Linear("cls", x, 4096, classes+1, true)
	box := b.Linear("box", x, 4096, 4*(classes+1), true)
	b.Detect("out", cls, box)
	m := b.MustBuild()
	m.InitWeights(DefaultSeed + 9)
	return m
}

// Zoo returns the Table 1 detector lineup with the paper's literature
// metrics attached. Reference mAP/fps are the values quoted in Table 1
// (heterogeneous sources, as in the paper); latency is re-derived on our
// analytic platforms.
//
// The lineup is only ever measured (MACs, parameters, analytic cost),
// so its models are the shared memoised instances, not clones: a call
// costs no weight copies, and the same network appearing twice (R-CNN's
// backbone and per-region net) is one instance. Do not mutate them;
// see Shared for the contract.
func Zoo() []*Detector {
	return []*Detector{
		{
			Model:     alexNet(20),
			Stage:     "two-stage",
			Regions:   2000,
			PerRegion: alexNet(20), // selective-search crops each re-run the CNN
			RefMAP:    42.0, RefFPS: 0.02,
		},
		{
			Model:     vgg16Features("FastRCNN", 600, 600),
			Stage:     "two-stage",
			Regions:   2000,
			PerRegion: roiHead(20),
			RefMAP:    19.7, RefFPS: 0.5,
		},
		{
			Model:     vgg16Features("FasterRCNN", 600, 600),
			Stage:     "two-stage",
			Regions:   300,
			PerRegion: roiHead(20),
			RefMAP:    78.9, RefFPS: 7,
		},
		{Model: RetinaNetShared(COCOClasses), Stage: "single-stage", RefMAP: 61.1, RefFPS: 90},
		{Model: yolov4Shared(COCOClasses), Stage: "single-stage", RefMAP: 65.7, RefFPS: 62},
		{Model: YOLOv5sShared(COCOClasses), Stage: "single-stage", RefMAP: 56.4, RefFPS: 140},
	}
}

// Table1Names maps zoo entries to the display names used in Table 1.
var Table1Names = []string{"R-CNN", "Fast R-CNN", "Faster R-CNN", "RetinaNet", "YOLOv4", "YOLOv5"}

// table2 lists the Table 2 builders in the paper's row order, keyed by
// the same cache names as the per-model constructors.
var table2 = []struct {
	name  string
	build func(classes int) *nn.Model
}{
	{"YOLOv5s", buildYOLOv5s},
	{"YOLOXs", buildYOLOXs},
	{"RetinaNet", buildRetinaNet},
	{"YOLOv7", buildYOLOv7},
	{"YOLOR", buildYOLOR},
	{"DETR", buildDETR},
}

// Table2Models returns the six detectors of Table 2 (model size vs
// execution time on Jetson TX2), in the paper's row order, built with
// KITTI classes. Like Zoo, the lineup is only ever measured, so these
// are the shared memoised instances, not copies. Do not mutate them;
// prune a copy from the per-model constructor instead (see Shared).
func Table2Models() []*nn.Model {
	ms := make([]*nn.Model, len(table2))
	for i, e := range table2 {
		ms[i] = sharedCached(e.name, KITTIClasses, func() *nn.Model { return e.build(KITTIClasses) })
	}
	return ms
}

// SortedModuleNames returns the distinct module tags of a model sorted
// lexicographically (reporting helper).
func SortedModuleNames(m *nn.Model) []string {
	seen := map[string]bool{}
	for _, l := range m.Layers {
		if l.Module != "" {
			seen[l.Module] = true
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// YOLOXs returns a fresh copy of the cached YOLOXs build.
func YOLOXs(classes int) *nn.Model {
	return cached("YOLOXs", classes, func() *nn.Model { return buildYOLOXs(classes) })
}

// YOLOv7 returns a fresh copy of the cached YOLOv7 build.
func YOLOv7(classes int) *nn.Model {
	return cached("YOLOv7", classes, func() *nn.Model { return buildYOLOv7(classes) })
}

// YOLOR returns a fresh copy of the cached YOLOR build.
func YOLOR(classes int) *nn.Model {
	return cached("YOLOR", classes, func() *nn.Model { return buildYOLOR(classes) })
}

// DETR returns a fresh copy of the cached DETR build.
func DETR(classes int) *nn.Model {
	return cached("DETR", classes, func() *nn.Model { return buildDETR(classes) })
}

// YOLOv4 returns a fresh copy of the cached YOLOv4 build.
func YOLOv4(classes int) *nn.Model {
	return cached("YOLOv4", classes, func() *nn.Model { return buildYOLOv4(classes) })
}

func yolov4Shared(classes int) *nn.Model {
	return sharedCached("YOLOv4", classes, func() *nn.Model { return buildYOLOv4(classes) })
}

// The two-stage networks below exist only for the zoo, so they are
// only ever handed out shared.

func vgg16Features(name string, h, w int) *nn.Model {
	return sharedCached("vgg16/"+name, h*10000+w, func() *nn.Model { return buildVGG16Features(name, h, w) })
}

func alexNet(classes int) *nn.Model {
	return sharedCached("alexnet", classes, func() *nn.Model { return buildAlexNet(classes) })
}

func roiHead(classes int) *nn.Model {
	return sharedCached("roihead", classes, func() *nn.Model { return buildRoIHead(classes) })
}
