package catalog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"geoalign/internal/atomicfile"
	"geoalign/internal/geom"
)

// On-disk sidecar format, version 1. Little-endian throughout:
//
//	magic "GEOCATIX" (8 bytes)
//	u32 version (1)
//	u32 table count | u32 edge count
//	per table:  name, unitType, attribute, system (strings), u32 nHashes,
//	            hashes, u8 hasVals [vals], u8 hasSummary [summary]
//	per edge:   name, srcType, tgtType (strings), i64 generation,
//	            u32 references, u32 nSrcOrder, srcOrder hashes,
//	            u32 nTgt, tgt hashes, u8 densityKnown, f64 density,
//	            f64 avgDeg, u8 hasSrcSum [summary], u8 hasTgtSum [summary]
//	u32 CRC32C of everything before it
//
// Strings are u32 length + bytes. Summaries are bounds (4×f64), grid
// (u64), units (u32), u32 nSample + 4×f64 per sampled box. Signatures
// and the sorted unique source set are recomputed from the hashes on
// load, so the file stores each fact once.

var sidecarMagic = [8]byte{'G', 'E', 'O', 'C', 'A', 'T', 'I', 'X'}

const sidecarVersion = 1

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// DefaultSidecarName is the index filename geoalignd keeps next to its
// engine snapshots.
const DefaultSidecarName = "catalog.idx"

type sidecarWriter struct {
	buf bytes.Buffer
}

func (w *sidecarWriter) u8(v uint8)   { w.buf.WriteByte(v) }
func (w *sidecarWriter) u32(v uint32) { binary.Write(&w.buf, binary.LittleEndian, v) }
func (w *sidecarWriter) i64(v int64)  { binary.Write(&w.buf, binary.LittleEndian, v) }
func (w *sidecarWriter) u64(v uint64) { binary.Write(&w.buf, binary.LittleEndian, v) }
func (w *sidecarWriter) f64(v float64) {
	w.u64(math.Float64bits(v))
}
func (w *sidecarWriter) str(s string) {
	w.u32(uint32(len(s)))
	w.buf.WriteString(s)
}
func (w *sidecarWriter) hashes(hs []uint64) {
	w.u32(uint32(len(hs)))
	for _, h := range hs {
		w.u64(h)
	}
}
func (w *sidecarWriter) box(b geom.BBox) {
	w.f64(b.MinX)
	w.f64(b.MinY)
	w.f64(b.MaxX)
	w.f64(b.MaxY)
}
func (w *sidecarWriter) summary(s *BoxSummary) {
	if s == nil {
		w.u8(0)
		return
	}
	w.u8(1)
	w.box(s.Bounds)
	w.u64(s.Grid)
	w.u32(uint32(s.Units))
	w.u32(uint32(len(s.Sample)))
	for _, b := range s.Sample {
		w.box(b)
	}
}

// Encode serialises the catalog into the versioned sidecar format.
func (c *Catalog) Encode() []byte {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var w sidecarWriter
	w.buf.Write(sidecarMagic[:])
	w.u32(sidecarVersion)
	tables := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		tables = append(tables, t)
	}
	// Deterministic order: byte-identical files for identical catalogs.
	sortTables(tables)
	edges := make([]*Edge, 0, len(c.edges))
	for _, e := range c.edges {
		edges = append(edges, e)
	}
	sortEdges(edges)
	w.u32(uint32(len(tables)))
	w.u32(uint32(len(edges)))
	for _, t := range tables {
		w.str(t.Name)
		w.str(t.UnitType)
		w.str(t.Attribute)
		w.str(string(t.System))
		w.hashes(t.hashes)
		if t.vals != nil {
			w.u8(1)
			for _, v := range t.vals {
				w.f64(v)
			}
		} else {
			w.u8(0)
		}
		w.summary(t.sum)
	}
	for _, e := range edges {
		w.str(e.Name)
		w.str(e.SourceType)
		w.str(e.TargetType)
		w.i64(int64(e.Generation))
		w.u32(uint32(e.References))
		w.hashes(e.srcOrder)
		w.hashes(e.tgtHashes)
		if e.densityKnown {
			w.u8(1)
		} else {
			w.u8(0)
		}
		w.f64(e.density)
		w.f64(e.avgDeg)
		w.summary(e.srcSum)
		w.summary(e.tgtSum)
	}
	w.u32(crc32.Checksum(w.buf.Bytes(), castagnoli))
	return w.buf.Bytes()
}

func sortTables(ts []*Table) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j].Name < ts[j-1].Name; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}

func sortEdges(es []*Edge) {
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && es[j].Name < es[j-1].Name; j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}

// Save writes the sidecar atomically (temp file + rename in the target
// directory, both fsynced), matching the snapshot persistence
// discipline: a crash mid-write leaves the previous index intact.
func (c *Catalog) Save(path string) error {
	data := c.Encode()
	err := atomicfile.WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	if err != nil {
		return fmt.Errorf("catalog: save: %w", err)
	}
	return nil
}

type sidecarReader struct {
	data []byte
	off  int
	err  error
}

func (r *sidecarReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("catalog: sidecar: "+format, args...)
	}
}
func (r *sidecarReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.data) {
		r.fail("truncated at offset %d (want %d more bytes)", r.off, n)
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}
func (r *sidecarReader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}
func (r *sidecarReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}
func (r *sidecarReader) i64() int64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}
func (r *sidecarReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}
func (r *sidecarReader) f64() float64 { return math.Float64frombits(r.u64()) }
func (r *sidecarReader) str() string {
	n := r.u32()
	if n > uint32(len(r.data)) {
		r.fail("string length %d exceeds file size", n)
		return ""
	}
	return string(r.take(int(n)))
}
func (r *sidecarReader) hashes() []uint64 {
	n := r.u32()
	if uint64(n)*8 > uint64(len(r.data)) {
		r.fail("hash list length %d exceeds file size", n)
		return nil
	}
	out := make([]uint64, 0, n)
	for i := uint32(0); i < n && r.err == nil; i++ {
		out = append(out, r.u64())
	}
	return out
}
func (r *sidecarReader) box() geom.BBox {
	return geom.BBox{MinX: r.f64(), MinY: r.f64(), MaxX: r.f64(), MaxY: r.f64()}
}
func (r *sidecarReader) summary() *BoxSummary {
	if r.u8() == 0 {
		return nil
	}
	s := &BoxSummary{Bounds: r.box(), Grid: r.u64(), Units: int(r.u32())}
	n := r.u32()
	if uint64(n)*32 > uint64(len(r.data)) {
		r.fail("summary sample length %d exceeds file size", n)
		return nil
	}
	for i := uint32(0); i < n && r.err == nil; i++ {
		s.Sample = append(s.Sample, r.box())
	}
	return s
}

// Load reads a sidecar previously written by Save into a fresh
// catalog. The CRC is verified before any parsing; corrupt or
// foreign files are rejected with descriptive errors.
func Load(path string) (*Catalog, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

// Decode parses the sidecar bytes.
func Decode(data []byte) (*Catalog, error) {
	if len(data) < len(sidecarMagic)+8 {
		return nil, fmt.Errorf("catalog: sidecar: %d bytes is too short", len(data))
	}
	if !bytes.Equal(data[:8], sidecarMagic[:]) {
		return nil, fmt.Errorf("catalog: sidecar: bad magic %q", data[:8])
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	want := binary.LittleEndian.Uint32(tail)
	if got := crc32.Checksum(body, castagnoli); got != want {
		return nil, fmt.Errorf("catalog: sidecar: checksum mismatch (file %08x, computed %08x)", want, got)
	}
	r := &sidecarReader{data: body, off: 8}
	if v := r.u32(); v != sidecarVersion {
		return nil, fmt.Errorf("catalog: sidecar: unsupported version %d (want %d)", v, sidecarVersion)
	}
	nTables := r.u32()
	nEdges := r.u32()
	c := New()
	for i := uint32(0); i < nTables && r.err == nil; i++ {
		t := &Table{
			Name:      r.str(),
			UnitType:  r.str(),
			Attribute: r.str(),
			System:    System(r.str()),
		}
		t.hashes = r.hashes()
		if r.u8() == 1 {
			t.vals = make([]float64, len(t.hashes))
			for j := range t.vals {
				t.vals[j] = r.f64()
			}
		}
		t.sum = r.summary()
		if r.err != nil {
			break
		}
		t.Sig = signatureOfHashes(t.hashes)
		c.tables[t.Name] = t
		for _, h := range t.hashes {
			c.inv[h] = append(c.inv[h], t.Name)
		}
	}
	for i := uint32(0); i < nEdges && r.err == nil; i++ {
		e := &Edge{
			Name:       r.str(),
			SourceType: r.str(),
			TargetType: r.str(),
		}
		e.Generation = int(r.i64())
		e.References = int(r.u32())
		e.srcOrder = r.hashes()
		e.tgtHashes = r.hashes()
		e.densityKnown = r.u8() == 1
		e.density = r.f64()
		e.avgDeg = r.f64()
		e.srcSum = r.summary()
		e.tgtSum = r.summary()
		if r.err != nil {
			break
		}
		e.srcHashes = sortedUnique(e.srcOrder)
		e.SrcSig = signatureOfHashes(e.srcHashes)
		e.TgtSig = signatureOfHashes(e.tgtHashes)
		c.edges[e.Name] = e
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(body) {
		return nil, fmt.Errorf("catalog: sidecar: %d trailing bytes after records", len(body)-r.off)
	}
	c.dirty.Store(true)
	return c, nil
}
