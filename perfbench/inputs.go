package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"

	"geoalign"
	"geoalign/internal/geom"
	"geoalign/internal/shapefile"
	"geoalign/internal/sparse"
	"geoalign/internal/synth"
)

// Everything in this file is input generation: it runs before the
// resident-set high-water mark is reset and before any clock starts, and
// the program under test sees only what it writes to disk or returns.

// engineInputs are the references of the US-scale engine, as the
// crosswalk CSV files geoalignd boots from plus the in-memory copies
// the harness derives objectives and deltas from.
type engineInputs struct {
	csvPaths []string
	dms      []*sparse.CSR
	totals   [][]float64 // per-reference source totals (row sums)
}

func genEngineInputs(seed int64, dir string) (*engineInputs, error) {
	p := synth.ScalingProblem(rand.New(rand.NewSource(seed)), usSources, usTargets, usRefs)
	in := &engineInputs{}
	for k, r := range p.References {
		path := filepath.Join(dir, fmt.Sprintf("ref%d.csv", k))
		if err := writeCrosswalkCSV(path, fmt.Sprintf("ref%d", k), r.DM); err != nil {
			return nil, err
		}
		in.csvPaths = append(in.csvPaths, path)
		in.dms = append(in.dms, r.DM)
		in.totals = append(in.totals, r.DM.RowSums())
	}
	return in, nil
}

// writeCrosswalkCSV writes dm as source,target,value rows in row order,
// so the first-seen source key order equals the row order.
func writeCrosswalkCSV(path, attr string, dm *sparse.CSR) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "source,target,%s\n", attr)
	var line []byte
	for i := 0; i < dm.Rows; i++ {
		cols, vals := dm.Row(i)
		for t, j := range cols {
			line = fmt.Appendf(line[:0], "s%05d,t%04d,", i, j)
			line = strconv.AppendFloat(line, vals[t], 'g', -1, 64)
			line = append(line, '\n')
			w.Write(line)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// objectiveGen derives objectives deterministically from (seed, id):
// a random convex mixture of the references' source totals with
// multiplicative log-normal noise, the shape of a real census attribute
// that the references explain well but not exactly.
type objectiveGen struct {
	seed   int64
	totals [][]float64
	noise  [][]float64
}

const noiseVectors = 8

func newObjectiveGen(seed int64, totals [][]float64) *objectiveGen {
	rng := rand.New(rand.NewSource(seed ^ 0x6f626a))
	g := &objectiveGen{seed: seed, totals: totals, noise: make([][]float64, noiseVectors)}
	for v := range g.noise {
		g.noise[v] = make([]float64, len(totals[0]))
		for i := range g.noise[v] {
			g.noise[v][i] = math.Exp(0.3 * rng.NormFloat64())
		}
	}
	return g
}

// fill writes objective id into dst (len = source units).
func (g *objectiveGen) fill(dst []float64, id int64) {
	rng := rand.New(rand.NewSource(g.seed*1_000_003 + id + 1))
	alpha := make([]float64, len(g.totals))
	var sum float64
	for k := range alpha {
		alpha[k] = rng.ExpFloat64() // Dirichlet(1, ..., 1) after normalising
		sum += alpha[k]
	}
	for k := range alpha {
		alpha[k] /= sum
	}
	noise := g.noise[rng.Intn(len(g.noise))]
	for i := range dst {
		var v float64
		for k, t := range g.totals {
			v += alpha[k] * t[i]
		}
		dst[i] = v * noise[i]
	}
}

func (g *objectiveGen) objective(id int64) []float64 {
	obj := make([]float64, len(g.totals[0]))
	g.fill(obj, id)
	return obj
}

// appendFloats appends v as little-endian float64s: the binary align
// request body, and the payload of the binary response.
func appendFloats(dst []byte, v []float64) []byte {
	for _, x := range v {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	}
	return dst
}

// binaryResult is the binary /v1/align response for a result: uint32
// target count, uint32 weight count, then both vectors.
func binaryResult(res *geoalign.Result) []byte {
	out := make([]byte, 0, 8+8*(len(res.Target)+len(res.Weights)))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(res.Target)))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(res.Weights)))
	out = appendFloats(out, res.Target)
	return appendFloats(out, res.Weights)
}

// layerInputs are the two TIGER-like shapefile layers of the build
// workload.
type layerInputs struct {
	srcBase, tgtBase       string
	srcRecords, tgtRecords int
}

func genLayers(seed int64, dir string) (*layerInputs, error) {
	in := &layerInputs{srcBase: filepath.Join(dir, "src"), tgtBase: filepath.Join(dir, "tgt")}
	var err error
	if in.srcRecords, err = writeTigerLayer(in.srcBase, synth.TigerConfig{Units: buildSources, Seed: 2*seed + 1}); err != nil {
		return nil, err
	}
	if in.tgtRecords, err = writeTigerLayer(in.tgtBase, synth.TigerConfig{Units: buildTargets, Seed: 2*seed + 2}); err != nil {
		return nil, err
	}
	return in, nil
}

func writeTigerLayer(base string, cfg synth.TigerConfig) (int, error) {
	w, closer, err := shapefile.CreateWriter(base, []shapefile.Field{{Name: "NAME", Length: 12}})
	if err != nil {
		return 0, err
	}
	err = synth.TigerLayer(cfg, func(i int, name string, parts geom.MultiPolygon) error {
		return w.Write(shapefile.MultiRecord{Parts: parts, Attrs: map[string]string{"NAME": name}})
	})
	if err != nil {
		closer()
		return 0, fmt.Errorf("writing %s: %w", base, err)
	}
	return w.Records(), closer()
}

// plannedWrite is one delta of the mixed-rw write stream.
type plannedWrite struct {
	engine int
	kind   string
	delta  geoalign.Delta
	body   []byte // JSON request body
}

// genWrites plans n deltas, round-robin over the engines: mostly
// value-only row patches (same columns, values nudged), a minority of
// source revisions and of structural patches (a column dropped). Value
// and structural patches draw rows from disjoint halves, so a value
// patch never undoes a structural one.
func genWrites(seed int64, in *engineInputs, engines, n int) ([]plannedWrite, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x64656c74))
	ns := in.dms[0].Rows
	out := make([]plannedWrite, n)
	for w := range out {
		k := rng.Intn(len(in.dms))
		pw := plannedWrite{engine: w % engines}
		switch u := rng.Float64(); {
		case u < writeValueShare:
			pw.kind = "value-row"
			row := rng.Intn(ns / 2)
			cols, vals := in.dms[k].Row(row)
			nudged := make([]float64, len(vals))
			for i, v := range vals {
				nudged[i] = v * (1 + 0.02*(rng.Float64()-0.5))
			}
			pw.delta.RowPatches = []geoalign.RowPatch{{Ref: k, Row: row, Cols: append([]int(nil), cols...), Vals: nudged}}
		case u < writeValueShare+writeSourceShare:
			pw.kind = "source"
			row := rng.Intn(ns)
			pw.delta.SourcePatches = []geoalign.SourcePatch{{Ref: k, Row: row, Value: in.totals[k][row] * (1 + 0.1*(rng.Float64()-0.5))}}
		default:
			pw.kind = "structural"
			var cols []int
			var vals []float64
			row := 0
			for len(cols) < 2 {
				row = ns/2 + rng.Intn(ns-ns/2)
				cols, vals = in.dms[k].Row(row)
			}
			drop := rng.Intn(len(cols))
			var kc []int
			var kv []float64
			for i := range cols {
				if i != drop {
					kc = append(kc, cols[i])
					kv = append(kv, vals[i])
				}
			}
			pw.delta.RowPatches = []geoalign.RowPatch{{Ref: k, Row: row, Cols: kc, Vals: kv}}
		}
		body, err := json.Marshal(pw.delta)
		if err != nil {
			return nil, err
		}
		pw.body = body
		out[w] = pw
	}
	return out, nil
}
