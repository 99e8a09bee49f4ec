package workload

import (
	"math"
	"testing"
	"testing/quick"

	"refrint/internal/config"
	"refrint/internal/mem"
)

func TestAppsAreComplete(t *testing.T) {
	apps := Apps()
	if len(apps) != 11 {
		t.Fatalf("got %d applications, want 11 (Table 5.3)", len(apps))
	}
	for _, name := range AppNames() {
		p, ok := apps[name]
		if !ok {
			t.Errorf("application %q missing", name)
			continue
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if p.Suite != "SPLASH-2" && p.Suite != "PARSEC" {
			t.Errorf("%s: suite %q", name, p.Suite)
		}
	}
}

func TestGet(t *testing.T) {
	if _, err := Get("FFT"); err != nil {
		t.Errorf("Get(FFT) = %v", err)
	}
	if _, err := Get("nope"); err == nil {
		t.Error("Get of unknown app should fail")
	}
}

func TestTable61Binning(t *testing.T) {
	// Table 6.1 of the paper.
	want := map[string]Class{
		"FFT": Class1, "FMM": Class1, "Cholesky": Class1, "Fluidanimate": Class1,
		"Barnes": Class2, "LU": Class2, "Radix": Class2, "Radiosity": Class2,
		"Blackscholes": Class3, "Streamcluster": Class3, "Raytrace": Class3,
	}
	cfg := config.FullSize()
	for name, wantClass := range want {
		p, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.PaperClass != wantClass {
			t.Errorf("%s: PaperClass = %v, want %v", name, p.PaperClass, wantClass)
		}
		if got := p.Classify(cfg); got != wantClass {
			t.Errorf("%s: Classify(full-size) = %v, want %v (footprint ratio %.2f, visibility %.2f)",
				name, got, wantClass, p.FootprintRatio(cfg), p.Visibility(cfg))
		}
	}
}

func TestClassifyPreservedUnderScaling(t *testing.T) {
	full := config.FullSize()
	scaled := config.Scaled()
	factor := config.ScaleFactor()
	for name, p := range Apps() {
		fullClass := p.Classify(full)
		scaledClass := p.Scale(factor).Classify(scaled)
		if fullClass != scaledClass {
			t.Errorf("%s: class changes under scaling: %v -> %v", name, fullClass, scaledClass)
		}
	}
	_ = scaled
}

func TestByClass(t *testing.T) {
	sizes := map[Class]int{}
	for _, p := range Apps() {
		sizes[p.PaperClass]++
	}
	if sizes[Class1] != 4 || sizes[Class2] != 4 || sizes[Class3] != 3 {
		t.Errorf("class sizes = %d/%d/%d, want 4/4/3", sizes[Class1], sizes[Class2], sizes[Class3])
	}
}

func TestClassString(t *testing.T) {
	if Class1.String() != "Class 1" || Class2.String() != "Class 2" || Class3.String() != "Class 3" {
		t.Error("class strings wrong")
	}
	if ClassUnknown.String() != "Unknown" {
		t.Error("unknown class string wrong")
	}
	// The text form is the name, and it decodes back.
	for _, c := range []Class{ClassUnknown, Class1, Class2, Class3} {
		text, err := c.MarshalText()
		if err != nil || string(text) != c.String() {
			t.Fatalf("%v: MarshalText = %q, %v", c, text, err)
		}
		var got Class
		if err := got.UnmarshalText(text); err != nil || got != c {
			t.Errorf("UnmarshalText(%q) = %v, %v; want %v", text, got, err, c)
		}
	}
	var c Class
	if err := c.UnmarshalText([]byte("Class 4")); err == nil {
		t.Error(`UnmarshalText("Class 4") accepted an unknown class`)
	}
}

func TestParamsValidateErrors(t *testing.T) {
	good, _ := Get("FFT")
	cases := []func(*Params){
		func(p *Params) { p.Name = "" },
		func(p *Params) { p.FootprintLines = 0 },
		func(p *Params) { p.SharedFraction = 1.5 },
		func(p *Params) { p.WriteFraction = -0.1 },
		func(p *Params) { p.Locality = 2 },
		func(p *Params) { p.WorkingWindow = 0 },
		func(p *Params) { p.ComputePerMemOp = -1 },
		func(p *Params) { p.MemOpsPerThread = 0 },
		func(p *Params) { p.InstrFetchFraction = 1.0 },
		func(p *Params) { p.CodeLines = 0 },
		func(p *Params) { p.ComputePerMemOp = math.MaxInt32 },
		func(p *Params) { p.CodeLines = math.MaxInt32 },
		func(p *Params) { p.WorkingWindow = math.MaxInt32 },
		func(p *Params) { p.SharedFraction = math.NaN() },
		func(p *Params) { p.WriteFraction = math.NaN() },
		func(p *Params) { p.Locality = math.NaN() },
		func(p *Params) { p.StreamBias = math.NaN() },
		func(p *Params) { p.InstrFetchFraction = math.NaN() },
	}
	for i, mutate := range cases {
		p := good
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	cfg := config.Scaled()
	p := ForConfig(mustGet(t, "LU"), cfg)
	g1 := NewGenerator(p, cfg, 0, 42)
	g2 := NewGenerator(p, cfg, 0, 42)
	for i := 0; i < 1000; i++ {
		a1, ok1 := g1.Next()
		a2, ok2 := g2.Next()
		if ok1 != ok2 || a1 != a2 {
			t.Fatalf("generators with the same seed diverged at access %d: %+v vs %+v", i, a1, a2)
		}
	}
}

func TestGeneratorDifferentThreadsDiffer(t *testing.T) {
	cfg := config.Scaled()
	p := ForConfig(mustGet(t, "LU"), cfg)
	g0 := NewGenerator(p, cfg, 0, 42)
	g1 := NewGenerator(p, cfg, 1, 42)
	same := 0
	for i := 0; i < 200; i++ {
		a0, _ := g0.Next()
		a1, _ := g1.Next()
		if a0.Addr == a1.Addr {
			same++
		}
	}
	if same > 150 {
		t.Errorf("threads produced %d/200 identical addresses; private regions should differ", same)
	}
}

func TestGeneratorQuota(t *testing.T) {
	cfg := config.Scaled()
	p := ForConfig(mustGet(t, "Blackscholes"), cfg)
	g := NewGenerator(p, cfg, 3, 1)
	count := int64(0)
	for {
		_, ok := g.Next()
		if !ok {
			break
		}
		count++
	}
	if count != p.MemOpsPerThread {
		t.Errorf("issued %d references, want %d", count, p.MemOpsPerThread)
	}
	if !g.Done() {
		t.Error("generator should be done")
	}
	if _, ok := g.Next(); ok {
		t.Error("Next after quota should return false")
	}
}

func TestGeneratorFootprintBounded(t *testing.T) {
	cfg := config.Scaled()
	p := ForConfig(mustGet(t, "FFT"), cfg)
	geom := cfg.Geometry()
	lines := map[mem.LineAddr]bool{}
	for thread := 0; thread < cfg.Cores; thread++ {
		g := NewGenerator(p, cfg, thread, 7)
		for i := 0; i < 5000; i++ {
			a, ok := g.Next()
			if !ok {
				break
			}
			lines[geom.LineOf(a.Addr)] = true
		}
	}
	// Distinct lines touched cannot exceed the declared footprint plus code.
	max := p.FootprintLines + p.CodeLines + cfg.Cores // rounding slack
	if len(lines) > max {
		t.Errorf("touched %d distinct lines, footprint bound %d", len(lines), max)
	}
}

func TestGeneratorWriteFractionApproximate(t *testing.T) {
	cfg := config.Scaled()
	p := ForConfig(mustGet(t, "Radix"), cfg)
	g := NewGenerator(p, cfg, 0, 3)
	writes, data := 0, 0
	for i := 0; i < 20000; i++ {
		a, ok := g.Next()
		if !ok {
			break
		}
		if a.Type == mem.InstrFetch {
			continue
		}
		data++
		if a.Type == mem.Write {
			writes++
		}
	}
	got := float64(writes) / float64(data)
	if got < p.WriteFraction-0.05 || got > p.WriteFraction+0.05 {
		t.Errorf("write fraction = %.3f, want about %.2f", got, p.WriteFraction)
	}
}

func TestGeneratorSharedFlagMatchesRegion(t *testing.T) {
	cfg := config.Scaled()
	p := ForConfig(mustGet(t, "Barnes"), cfg)
	g := NewGenerator(p, cfg, 2, 11)
	geom := cfg.Geometry()
	sharedBase := geom.LineOf(mem.Addr(sharedRegionBase))
	codeBase := geom.LineOf(mem.Addr(codeRegionBase))
	for i := 0; i < 10000; i++ {
		a, ok := g.Next()
		if !ok {
			break
		}
		if a.Type == mem.InstrFetch {
			if geom.LineOf(a.Addr) < codeBase {
				t.Fatal("instruction fetch outside the code region")
			}
			continue
		}
		line := geom.LineOf(a.Addr)
		inShared := line >= sharedBase && line < codeBase
		if a.Shared != inShared {
			t.Fatalf("access %d: Shared flag %v but address %#x in shared region %v", i, a.Shared, a.Addr, inShared)
		}
	}
}

func TestGeneratorGapWithinBounds(t *testing.T) {
	cfg := config.Scaled()
	p := ForConfig(mustGet(t, "Blackscholes"), cfg)
	g := NewGenerator(p, cfg, 0, 5)
	for i := 0; i < 5000; i++ {
		a, ok := g.Next()
		if !ok {
			break
		}
		if a.Gap < 0 || a.Gap > int64(2*p.ComputePerMemOp) {
			t.Fatalf("gap %d outside [0, %d]", a.Gap, 2*p.ComputePerMemOp)
		}
	}
}

func TestGeneratorPanicsOnBadThread(t *testing.T) {
	cfg := config.Scaled()
	p := ForConfig(mustGet(t, "LU"), cfg)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range thread should panic")
		}
	}()
	NewGenerator(p, cfg, cfg.Cores, 1)
}

func TestAppBundle(t *testing.T) {
	cfg := config.Scaled()
	p := ForConfig(mustGet(t, "LU"), cfg)
	app := NewApp(p, cfg, 9)
	if app.Threads() != cfg.Cores {
		t.Errorf("Threads = %d, want %d", app.Threads(), cfg.Cores)
	}
	if app.Thread(0).Done() {
		t.Error("a fresh app's threads should not be done")
	}
	if app.Params().Name != "LU" {
		t.Error("Params should round-trip")
	}
	if app.Thread(0) == nil || app.Thread(cfg.Cores-1) == nil {
		t.Error("Thread accessor broken")
	}
}

func TestScaleFloors(t *testing.T) {
	p := mustGet(t, "Blackscholes")
	scaled := p.Scale(1 << 20) // absurd factor: floors must hold
	if scaled.FootprintLines < 64 || scaled.MemOpsPerThread < 2000 || scaled.WorkingWindow < 16 || scaled.CodeLines < 8 {
		t.Errorf("Scale floors violated: %+v", scaled)
	}
	if p.Scale(1) != p {
		t.Error("Scale(1) should be the identity")
	}
}

func TestVisibilityProperty(t *testing.T) {
	cfg := config.FullSize()
	// Property: raising the shared fraction never lowers visibility.
	f := func(frac uint8) bool {
		p := mustGet(t, "Blackscholes")
		p.SharedFraction = float64(frac%100) / 100
		q := p
		q.SharedFraction = p.SharedFraction / 2
		return p.Visibility(cfg) >= q.Visibility(cfg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func mustGet(t *testing.T, name string) Params {
	t.Helper()
	p, err := Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
