package models

import (
	"math"
	"testing"

	"rtoss/internal/nn"
)

func approx(t *testing.T, name string, got, want, tolFrac float64) {
	t.Helper()
	if math.Abs(got-want) > tolFrac*want {
		t.Errorf("%s = %v, want %v ±%.0f%%", name, got, want, tolFrac*100)
	}
}

func TestYOLOv5sMatchesPaper(t *testing.T) {
	m := YOLOv5s(KITTIClasses)
	// Paper: 7.02 M parameters, 25 layers (modules).
	approx(t, "YOLOv5s params", float64(m.Params()), 7.02e6, 0.01)
	if mc := ModuleCount(m); mc != 25 {
		t.Errorf("YOLOv5s modules = %d, want 25", mc)
	}
	// Paper §III: 68.42% of kernels are 1×1. 39/57 prunable conv layers.
	f := Frac1x1Layers(m)
	if math.Abs(f-0.6842) > 0.0001 {
		t.Errorf("YOLOv5s 1x1 fraction = %.4f, want 0.6842", f)
	}
	// Published YOLOv5s compute is ~8.2 GMACs (16.5 GFLOPs) at 640².
	macs, err := m.MACs()
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "YOLOv5s MACs", float64(macs), 8.2e9, 0.08)
}

func TestYOLOv5sCOCOParams(t *testing.T) {
	m := YOLOv5s(COCOClasses)
	// The familiar 7.2 M COCO configuration.
	approx(t, "YOLOv5s COCO params", float64(m.Params()), 7.23e6, 0.01)
}

func TestRetinaNetMatchesPaper(t *testing.T) {
	m := RetinaNet(KITTIClasses)
	// Paper: 36.49 M parameters, 186 layers.
	approx(t, "RetinaNet params", float64(m.Params()), 36.49e6, 0.005)
	// Layer-node count should be in the paper's ballpark (qualifies as
	// "186 layers" territory; exact counting conventions differ).
	if n := len(m.Layers); n < 150 || n > 230 {
		t.Errorf("RetinaNet has %d layer nodes, expected 150-230", n)
	}
	// Paper §III: 56.14% 1×1 kernels; our conv census gives ~59%.
	f := Frac1x1Layers(m)
	if f < 0.50 || f < 0.5614-0.08 || f > 0.5614+0.08 {
		t.Errorf("RetinaNet 1x1 fraction = %.4f, want ~0.5614", f)
	}
}

func TestTable2ParamColumn(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping paper-scale model construction in -short mode")
	}
	// Table 2 of the paper: parameters in millions.
	want := map[string]float64{
		"YOLOv5s":   7.02e6,
		"YOLOXs":    8.97e6,
		"RetinaNet": 36.49e6,
		"YOLOv7":    36.90e6,
		"YOLOR":     37.26e6,
		"DETR":      41.52e6,
	}
	for _, m := range Table2Models() {
		approx(t, m.Name+" params", float64(m.Params()), want[m.Name], 0.03)
	}
}

func TestDETRFrac1x1(t *testing.T) {
	// Paper §III: DETR has 63.46% 1×1 kernels (we count convs; the
	// transformer's linears are excluded).
	f := Frac1x1Layers(DETR(KITTIClasses))
	if math.Abs(f-0.6346) > 0.08 {
		t.Errorf("DETR 1x1 fraction = %.4f, want ~0.6346", f)
	}
}

func TestAllModelsValidate(t *testing.T) {
	ms := Table2Models()
	ms = append(ms, YOLOv4(COCOClasses))
	for _, m := range ms {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
		if _, err := m.InferShapes(); err != nil {
			t.Errorf("%s shapes: %v", m.Name, err)
		}
	}
}

func TestAllModelsHaveWeights(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping paper-scale model construction in -short mode")
	}
	for _, m := range Table2Models() {
		for _, l := range m.ConvLayers() {
			if l.Weight == nil {
				t.Fatalf("%s layer %q has no weights", m.Name, l.Name)
			}
			if l.Weight.NNZ() == 0 {
				t.Fatalf("%s layer %q weights all zero", m.Name, l.Name)
			}
		}
	}
}

func TestZooTwoStageStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping paper-scale model construction in -short mode")
	}
	zoo := Zoo()
	if len(zoo) != 6 {
		t.Fatalf("zoo size %d", len(zoo))
	}
	for i, d := range zoo {
		if d.Stage == "two-stage" {
			if d.Regions == 0 || d.PerRegion == nil {
				t.Errorf("%s: two-stage without regions", Table1Names[i])
			}
		} else if d.Regions != 0 {
			t.Errorf("%s: single-stage with regions", Table1Names[i])
		}
		if d.RefMAP <= 0 || d.RefFPS <= 0 {
			t.Errorf("%s: missing reference metrics", Table1Names[i])
		}
	}
}

func TestTwoStageMACsDominatedByRegions(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping paper-scale model construction in -short mode")
	}
	// The defining property of R-CNN: per-region evaluation dominates.
	rcnn := Zoo()[0]
	base, _ := rcnn.Model.MACs()
	if rcnn.TotalMACs() < 100*base {
		t.Errorf("R-CNN region MACs should dwarf single-pass MACs: total %d base %d", rcnn.TotalMACs(), base)
	}
	// And the Table 1 ordering: R-CNN > Fast R-CNN > Faster R-CNN.
	zoo := Zoo()
	if !(zoo[0].TotalMACs() > zoo[1].TotalMACs() && zoo[1].TotalMACs() > zoo[2].TotalMACs()) {
		t.Errorf("two-stage MAC ordering broken: %d %d %d", zoo[0].TotalMACs(), zoo[1].TotalMACs(), zoo[2].TotalMACs())
	}
}

func TestPrunableConvsExcludesDetectPredictors(t *testing.T) {
	m := YOLOv5s(KITTIClasses)
	prunable := nn.PrunableConvs(m)
	all := m.ConvLayers()
	if len(all)-len(prunable) != 3 {
		t.Errorf("expected exactly 3 detect predictors excluded, got %d of %d", len(all)-len(prunable), len(all))
	}
	for _, l := range prunable {
		for _, d := range m.Layers {
			if d.Kind == nn.Detect {
				for _, in := range d.Inputs {
					if in == l.ID {
						t.Errorf("prunable conv %q feeds Detect directly", l.Name)
					}
				}
			}
		}
	}
}

func TestWeightsDeterministicAcrossBuilds(t *testing.T) {
	a := YOLOv5s(KITTIClasses)
	b := YOLOv5s(KITTIClasses)
	la, lb := a.ConvLayers()[10], b.ConvLayers()[10]
	for i := range la.Weight.Data {
		if la.Weight.Data[i] != lb.Weight.Data[i] {
			t.Fatal("zoo weights are not reproducible")
		}
	}
}

func TestMACsScaleWithResolution(t *testing.T) {
	m := YOLOv5s(KITTIClasses)
	macs640, _ := m.MACs()
	m.InputH, m.InputW = 320, 320
	macs320, err := m.MACs()
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(macs640) / float64(macs320)
	if ratio < 3.6 || ratio > 4.4 {
		t.Errorf("MACs should scale ~4x with 2x resolution, got %.2fx", ratio)
	}
}

func TestSortedModuleNames(t *testing.T) {
	names := SortedModuleNames(YOLOv5s(KITTIClasses))
	if len(names) != 25 {
		t.Fatalf("module names %d", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i] <= names[i-1] {
			t.Fatal("module names not sorted")
		}
	}
}

func BenchmarkBuildYOLOv5s(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = YOLOv5s(KITTIClasses)
	}
}

func BenchmarkBuildRetinaNet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = RetinaNet(KITTIClasses)
	}
}

func TestSharedCacheHandsOutOneInstance(t *testing.T) {
	a := YOLOv5sShared(KITTIClasses)
	b := YOLOv5sShared(KITTIClasses)
	if a != b {
		t.Fatal("shared path returned distinct instances")
	}
	byName, err := Shared("YOLOv5s", KITTIClasses)
	if err != nil {
		t.Fatal(err)
	}
	if byName != a {
		t.Fatal("Shared by name returned a different instance than YOLOv5sShared")
	}
	if _, err := Shared("DETR", KITTIClasses); err == nil {
		t.Fatal("Shared should reject architectures without a shared path")
	}

	// The clone path must still hand out independent copies: mutating a
	// clone (what pruners do) may not leak into the shared instance.
	clone := YOLOv5s(KITTIClasses)
	if clone == a {
		t.Fatal("clone path returned the shared instance")
	}
	var conv *nn.Layer
	for _, l := range clone.Layers {
		if l.Kind == nn.Conv && l.Weight != nil {
			conv = l
			break
		}
	}
	orig := a.Layers[conv.ID].Weight.Data[0]
	conv.Weight.Data[0] = orig + 42
	if a.Layers[conv.ID].Weight.Data[0] != orig {
		t.Fatal("mutating a clone corrupted the shared instance")
	}
}

func TestMeasuredLineupsShareInstances(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping paper-scale model construction in -short mode")
	}
	// Table2Models and Zoo only feed measurements, so repeated calls must
	// hand out the memoised instances instead of copying their weights.
	a, b := Table2Models(), Table2Models()
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("Table2Models row %d (%s): distinct instances across calls", i, a[i].Name)
		}
		if a[i].Name != table2[i].name {
			t.Errorf("Table2Models row %d is %s, want %s", i, a[i].Name, table2[i].name)
		}
	}
	if a[0] != YOLOv5sShared(KITTIClasses) {
		t.Error("Table2Models YOLOv5s is not the Shared instance")
	}
	za, zb := Zoo(), Zoo()
	for i := range za {
		if za[i].Model != zb[i].Model || za[i].PerRegion != zb[i].PerRegion {
			t.Errorf("%s: Zoo built new instances on the second call", Table1Names[i])
		}
	}
	if za[0].Model != za[0].PerRegion {
		t.Error("R-CNN backbone and per-region net should be one shared instance")
	}
}
