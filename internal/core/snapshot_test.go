package core

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"geoalign/internal/linalg/linalgtest"
	"geoalign/internal/snapshot"
	"geoalign/internal/sparse"
)

// testRefs builds a small 3-reference problem exercising both source
// conventions (explicit vector and DM-derived) and partial support.
func testRefs() []Reference {
	dm0 := sparse.NewCOO(4, 3)
	dm0.Add(0, 0, 2)
	dm0.Add(0, 1, 1)
	dm0.Add(1, 1, 3)
	dm0.Add(2, 2, 4)
	dm1 := sparse.NewCOO(4, 3)
	dm1.Add(0, 0, 1)
	dm1.Add(1, 0, 1)
	dm1.Add(1, 2, 2)
	dm1.Add(2, 1, 5)
	dm2 := sparse.NewCOO(4, 3)
	dm2.Add(0, 2, 3)
	dm2.Add(2, 0, 1)
	return []Reference{
		{Name: "area", DM: dm0.ToCSR()},
		{Name: "pop", Source: []float64{1.5, 3, 4.5, 0}, DM: dm1.ToCSR()},
		{Name: "", DM: dm2.ToCSR()},
	}
}

func bitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestEngineSnapshotRoundTrip(t *testing.T) {
	opts := Options{KeepDM: true}
	built, err := NewEngine(testRefs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	objectives := [][]float64{
		{10, 20, 30, 40},
		{0, 5, 0, 1},
		{3, 0, 7, 2},
	}

	meta := &SnapshotMeta{
		SourceKeys: []string{"s0", "s1", "s2", "s3"},
		TargetKeys: []string{"t0", "t1", "t2"},
	}
	var buf bytes.Buffer
	n, err := built.WriteSnapshot(&buf, meta)
	if err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if n != built.SnapshotSize(meta) {
		t.Fatalf("SnapshotSize predicted %d bytes, wrote %d", built.SnapshotSize(meta), n)
	}

	loaded, gotMeta, err := LoadSnapshotBytes(buf.Bytes(), opts)
	if err != nil {
		t.Fatalf("LoadSnapshotBytes: %v", err)
	}
	defer loaded.Close()
	if !loaded.FromSnapshot() || built.FromSnapshot() {
		t.Fatalf("FromSnapshot: loaded=%v built=%v", loaded.FromSnapshot(), built.FromSnapshot())
	}
	if loaded.MappedBytes() != int64(buf.Len()) {
		t.Fatalf("MappedBytes = %d, want %d", loaded.MappedBytes(), buf.Len())
	}
	if !reflect.DeepEqual(gotMeta.SourceKeys, meta.SourceKeys) || !reflect.DeepEqual(gotMeta.TargetKeys, meta.TargetKeys) {
		t.Fatalf("meta keys did not round-trip: %+v", gotMeta)
	}
	if loaded.SourceUnits() != 4 || loaded.TargetUnits() != 3 || loaded.References() != 3 {
		t.Fatalf("dimensions: %d x %d x %d", loaded.SourceUnits(), loaded.TargetUnits(), loaded.References())
	}
	if !reflect.DeepEqual(loaded.ZeroSupportRows(), built.ZeroSupportRows()) {
		t.Fatal("zero-row mask did not round-trip")
	}
	if loaded.PrecomputeBytes() <= 0 {
		t.Fatal("PrecomputeBytes <= 0")
	}

	for oi, obj := range objectives {
		want, err := built.Align(obj)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.Align(obj)
		if err != nil {
			t.Fatal(err)
		}
		if !bitEqual(got.Weights, want.Weights) {
			t.Fatalf("objective %d: weights differ: %v vs %v", oi, got.Weights, want.Weights)
		}
		if !bitEqual(got.Target, want.Target) {
			t.Fatalf("objective %d: targets differ: %v vs %v", oi, got.Target, want.Target)
		}
		if !bitEqual(got.DM.Val, want.DM.Val) || !reflect.DeepEqual(got.DM.ColIdx, want.DM.ColIdx) {
			t.Fatalf("objective %d: estimated crosswalks differ", oi)
		}
	}

	wantBatch, err := built.AlignAll(objectives, 2)
	if err != nil {
		t.Fatal(err)
	}
	gotBatch, err := loaded.AlignAll(objectives, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantBatch {
		if !bitEqual(gotBatch[i].Target, wantBatch[i].Target) || !bitEqual(gotBatch[i].Weights, wantBatch[i].Weights) {
			t.Fatalf("batch objective %d differs", i)
		}
	}
}

func TestEngineSnapshotFile(t *testing.T) {
	built, err := NewEngine(testRefs(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "engine.snap")
	if err := built.WriteSnapshotFile(path, nil); err != nil {
		t.Fatalf("WriteSnapshotFile: %v", err)
	}
	loaded, meta, err := LoadSnapshot(path, Options{})
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	if len(meta.SourceKeys) != 0 || len(meta.TargetKeys) != 0 {
		t.Fatalf("unexpected keys in meta: %+v", meta)
	}
	obj := []float64{1, 2, 3, 4}
	want, err := built.Align(obj)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Align(obj)
	if err != nil {
		t.Fatal(err)
	}
	if !bitEqual(got.Target, want.Target) {
		t.Fatalf("targets differ: %v vs %v", got.Target, want.Target)
	}
	if err := loaded.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := loaded.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestSnapshotPersistsSolverCaches(t *testing.T) {
	built, err := NewEngine(testRefs(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	built.PrecomputeSolverCaches()

	var buf bytes.Buffer
	if _, err := built.WriteSnapshot(&buf, nil); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := LoadSnapshotBytes(buf.Bytes(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	wantChol, wantDone := built.gram.CachedCholesky()
	gotChol, gotDone := loaded.gram.CachedCholesky()
	if !wantDone || !gotDone {
		t.Fatalf("Cholesky not cached: built=%v loaded=%v", wantDone, gotDone)
	}
	if (wantChol == nil) != (gotChol == nil) {
		t.Fatalf("Cholesky PD state differs: built=%v loaded=%v", wantChol != nil, gotChol != nil)
	}
	if wantChol != nil && !bitEqual(gotChol.Data, wantChol.Data) {
		t.Fatal("Cholesky factor did not round-trip bit-identically")
	}
	if metaFlags(t, buf.Bytes())&flagLipschitz != 0 {
		t.Fatal("new snapshot sets the retired Lipschitz flag")
	}
}

// TestSnapshotWithoutSolverCaches: a snapshot written before the lazy
// state exists must load with the caches unset.
func TestSnapshotWithoutSolverCaches(t *testing.T) {
	built, err := NewEngine(testRefs(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := built.WriteSnapshot(&buf, nil); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := LoadSnapshotBytes(buf.Bytes(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if _, done := loaded.gram.CachedCholesky(); done {
		t.Fatal("Cholesky unexpectedly cached")
	}
}

// metaFlags returns the flags field of an encoded engine snapshot's
// meta section.
func metaFlags(t *testing.T, data []byte) int {
	t.Helper()
	f, err := snapshot.OpenBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := f.Ints(secMeta)
	if err != nil {
		t.Fatal(err)
	}
	return m[3]
}

// TestSnapshotLegacyLipschitzIgnored loads a snapshot in the layout of
// writers that still persisted a projected-gradient Lipschitz constant
// (flagLipschitz set, the constant in the second scalar): the loader
// must accept it, ignore the scalar, and align bit-identically to a
// freshly built engine.
func TestSnapshotLegacyLipschitzIgnored(t *testing.T) {
	built, err := NewEngine(testRefs(), Options{KeepDM: true})
	if err != nil {
		t.Fatal(err)
	}
	built.PrecomputeSolverCaches()
	var buf bytes.Buffer
	if _, err := built.WriteSnapshot(&buf, nil); err != nil {
		t.Fatal(err)
	}

	// Re-encode every section, replacing meta and scalars with the
	// legacy form.
	cur, err := snapshot.OpenBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	w := snapshot.NewWriter()
	for _, id := range cur.SectionIDs() {
		switch id {
		case secMeta:
			m, err := cur.Ints(id)
			if err != nil {
				t.Fatal(err)
			}
			m = append([]int(nil), m...)
			m[3] |= flagLipschitz
			w.Ints(id, m)
		case secScalars:
			w.F64(id, []float64{built.gram.AInf, linalgtest.PowerIterSym(built.gram.G, 200)})
		default:
			copySection(t, cur, w, id)
		}
	}
	path := filepath.Join(t.TempDir(), "legacy.snap")
	if err := snapshot.WriteFile(path, w); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if metaFlags(t, data)&flagLipschitz == 0 {
		t.Fatal("legacy snapshot lost its Lipschitz flag")
	}

	loaded, _, err := LoadSnapshot(path, Options{KeepDM: true})
	if err != nil {
		t.Fatalf("legacy snapshot rejected: %v", err)
	}
	defer loaded.Close()
	for _, obj := range [][]float64{{10, 20, 30, 40}, {0, 5, 0, 1}, {3, 0, 7, 2}} {
		want, err := built.Align(obj)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.Align(obj)
		if err != nil {
			t.Fatal(err)
		}
		if !bitEqual(got.Weights, want.Weights) || !bitEqual(got.Target, want.Target) || !bitEqual(got.DM.Val, want.DM.Val) {
			t.Fatalf("objective %v: legacy snapshot aligns differently: %+v vs %+v", obj, got, want)
		}
	}
}

// copySection re-encodes section id of f into w, whatever its kind.
func copySection(t *testing.T, f *snapshot.File, w *snapshot.Writer, id uint32) {
	t.Helper()
	if v, err := f.F64(id); err == nil {
		w.F64(id, v)
	} else if v, err := f.Ints(id); err == nil {
		w.Ints(id, v)
	} else if v, err := f.Bytes(id); err == nil {
		w.Bytes(id, v)
	} else if v, err := f.Strings(id); err == nil {
		w.Strings(id, v)
	} else {
		t.Fatalf("section %d: unreadable: %v", id, err)
	}
}

func TestSnapshotFallbackOption(t *testing.T) {
	fbCOO := sparse.NewCOO(4, 3)
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			fbCOO.Add(i, j, 1)
		}
	}
	fb := fbCOO.ToCSR()
	opts := Options{FallbackDM: fb}
	built, err := NewEngine(testRefs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := built.WriteSnapshot(&buf, nil); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := LoadSnapshotBytes(buf.Bytes(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	// Row 3 has no reference support: only the fallback redistributes it.
	obj := []float64{1, 1, 1, 9}
	want, err := built.Align(obj)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Align(obj)
	if err != nil {
		t.Fatal(err)
	}
	if !bitEqual(got.Target, want.Target) {
		t.Fatalf("fallback targets differ: %v vs %v", got.Target, want.Target)
	}
	var total float64
	for _, v := range got.Target {
		total += v
	}
	if math.Abs(total-12) > 1e-9 {
		t.Fatalf("fallback did not preserve volume: total %v, want 12", total)
	}
}

// tinySections is a hand-built, internally consistent snapshot of a
// minimal 1-reference engine; tests mutate individual sections to prove
// the loader rejects structurally inconsistent files.
type tinySections struct {
	meta      []int
	scalars   []float64
	patIndPtr []int
	patColIdx []int
	wm        []float64
	gram      []float64
	zero      []byte
	names     []string
	dmIndPtr  []int
	dmColIdx  []int
	dmVal     []float64
	rowSums   []float64
	slots     []int
}

func validTiny() *tinySections {
	return &tinySections{
		meta:      []int{2, 2, 1, 0}, // ns=2, nt=2, k=1
		scalars:   []float64{1, 0},
		patIndPtr: []int{0, 2, 3},
		patColIdx: []int{0, 1, 1},
		wm:        []float64{1, 1},
		gram:      []float64{2},
		zero:      []byte{0, 0},
		names:     []string{"ref"},
		dmIndPtr:  []int{0, 2, 3},
		dmColIdx:  []int{0, 1, 1},
		dmVal:     []float64{1, 1, 2},
		rowSums:   []float64{2, 2},
		slots:     []int{0, 1, 2},
	}
}

func (s *tinySections) encode(t *testing.T) []byte {
	t.Helper()
	w := snapshot.NewWriter()
	w.Ints(secMeta, s.meta)
	w.F64(secScalars, s.scalars)
	w.Ints(secPatIndPtr, s.patIndPtr)
	w.Ints(secPatColIdx, s.patColIdx)
	w.F64(secWeightMat, s.wm)
	w.F64(secGram, s.gram)
	w.Bytes(secZeroRow, s.zero)
	w.Strings(secRefNames, s.names)
	w.Ints(refSectionBase+refDMIndPtr, s.dmIndPtr)
	w.Ints(refSectionBase+refDMColIdx, s.dmColIdx)
	w.F64(refSectionBase+refDMVal, s.dmVal)
	w.F64(refSectionBase+refRowSums, s.rowSums)
	w.Ints(refSectionBase+refSlots, s.slots)
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSnapshotStructuralValidation(t *testing.T) {
	// The unmutated sections must load and align.
	e, _, err := LoadSnapshotBytes(validTiny().encode(t), Options{})
	if err != nil {
		t.Fatalf("valid tiny snapshot rejected: %v", err)
	}
	if _, err := e.Align([]float64{3, 5}); err != nil {
		t.Fatalf("tiny engine Align: %v", err)
	}
	e.Close()

	cases := []struct {
		name   string
		mutate func(s *tinySections)
	}{
		{"meta too short", func(s *tinySections) { s.meta = s.meta[:3] }},
		{"zero references", func(s *tinySections) { s.meta[2] = 0 }},
		{"negative units", func(s *tinySections) { s.meta[0] = -1 }},
		{"implausible units", func(s *tinySections) { s.meta[0] = 1 << 50 }},
		{"pattern indptr length", func(s *tinySections) { s.patIndPtr = []int{0, 3} }},
		{"pattern indptr start", func(s *tinySections) { s.patIndPtr[0] = 1 }},
		{"pattern indptr end", func(s *tinySections) { s.patIndPtr[2] = 2 }},
		{"pattern indptr decreasing", func(s *tinySections) { s.patIndPtr[1] = 3; s.patIndPtr[2] = 2 }},
		// An interior pointer overshooting the entry count while the last
		// pointer still equals it: the decrease only shows up one row
		// later, so a loop that trusted indptr[i+1] before comparing the
		// pair would index past the column slice.
		{"pattern indptr interior overshoot", func(s *tinySections) { s.patIndPtr[1] = 4 }},
		{"dm indptr interior overshoot", func(s *tinySections) { s.dmIndPtr[1] = 4 }},
		{"pattern column out of range", func(s *tinySections) { s.patColIdx[2] = 2 }},
		{"pattern columns unsorted", func(s *tinySections) { s.patColIdx[0], s.patColIdx[1] = 1, 0 }},
		{"design matrix length", func(s *tinySections) { s.wm = []float64{1} }},
		{"gram length", func(s *tinySections) { s.gram = []float64{2, 0} }},
		{"zero mask length", func(s *tinySections) { s.zero = []byte{0} }},
		{"zero mask disagrees", func(s *tinySections) { s.zero[0] = 1 }},
		{"name count", func(s *tinySections) { s.names = []string{"a", "b"} }},
		{"dm value length", func(s *tinySections) { s.dmVal = s.dmVal[:2] }},
		{"row sums length", func(s *tinySections) { s.rowSums = s.rowSums[:1] }},
		{"slot count", func(s *tinySections) { s.slots = s.slots[:2] }},
		{"slot out of file range", func(s *tinySections) { s.slots[2] = 9 }},
		{"slot in wrong row", func(s *tinySections) { s.slots[2] = 1 }},
		{"slot on wrong column", func(s *tinySections) { s.slots[0] = 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := validTiny()
			tc.mutate(s)
			e, _, err := LoadSnapshotBytes(s.encode(t), Options{})
			if err == nil {
				e.Close()
				t.Fatal("structurally inconsistent snapshot accepted")
			}
			if !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("err = %v, want errors.Is(err, snapshot.ErrCorrupt)", err)
			}
		})
	}

	t.Run("missing section", func(t *testing.T) {
		w := snapshot.NewWriter()
		w.Ints(secMeta, []int{2, 2, 1, 0})
		var buf bytes.Buffer
		if _, err := w.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		_, _, err := LoadSnapshotBytes(buf.Bytes(), Options{})
		if !errors.Is(err, snapshot.ErrMissingSection) {
			t.Fatalf("err = %v, want ErrMissingSection", err)
		}
	})
}

// TestFallbackSumsCached pins the satellite optimisation: repeated
// degenerate patches reuse one cached row-sum pass over the fallback.
func TestFallbackSumsCached(t *testing.T) {
	fbCOO := sparse.NewCOO(4, 3)
	for i := 0; i < 4; i++ {
		fbCOO.Add(i, i%3, 1)
	}
	opts := Options{FallbackDM: fbCOO.ToCSR()}
	e, err := NewEngine(testRefs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	obj := []float64{1, 1, 1, 9}
	first, err := e.Align(obj)
	if err != nil {
		t.Fatal(err)
	}
	sums := e.fallbackSums()
	again := e.fallbackSums()
	if &sums[0] != &again[0] {
		t.Fatal("fallbackSums recomputed instead of reusing the cache")
	}
	second, err := e.Align(obj)
	if err != nil {
		t.Fatal(err)
	}
	if !bitEqual(first.Target, second.Target) {
		t.Fatal("cached fallback sums changed the result")
	}
}
