package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"runtime"
	"sync"
	"unsafe"

	"geoalign/internal/atomicfile"
)

// rsec is one parsed section table entry.
type rsec struct {
	id    uint32
	kind  Kind
	off   int
	count int
}

func (s *rsec) byteLen() int { return s.count * s.kind.elemSize() }

// File is an open snapshot. When backed by mmap, the slices returned by
// F64/Ints/Bytes may alias the mapping: they stay valid only until
// Close, which unmaps the file. Callers that outlive the File must copy
// (or simply not Close until done — the registry drains before
// unmapping for exactly this reason).
type File struct {
	data     []byte
	mapped   bool // data came from mmap and must be munmapped
	closer   func() error
	zeroCopy bool // aliasing views are legal (little-endian host)
	sections map[uint32]rsec
	order    []rsec

	mu     sync.Mutex
	closed bool
}

// Open maps the snapshot at path (falling back to a plain read where
// mmap is unavailable) and validates its header, section table and
// every section checksum. On any validation failure the file is
// unmapped and a descriptive error wrapping one of the sentinel errors
// is returned.
func Open(path string) (*File, error) {
	data, mapped, closer, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	f, err := parse(data, mapped, closer)
	if err != nil {
		if closer != nil {
			closer()
		}
		return nil, err
	}
	return f, nil
}

// OpenBytes parses a snapshot already in memory (tests, fuzzing, or
// snapshots shipped inside other files). The data is captured by
// reference; zero-copy views alias it.
func OpenBytes(data []byte) (*File, error) {
	return parse(data, false, nil)
}

func parse(data []byte, mapped bool, closer func() error) (*File, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the %d-byte header", ErrTruncated, len(data), headerSize)
	}
	if [8]byte(data[:8]) != Magic {
		return nil, fmt.Errorf("%w: got % x", ErrNotSnapshot, data[:8])
	}
	// The endianness guard is checked before the version: a
	// foreign-endian file would present a byte-swapped version number,
	// and "unsupported version 16777216" is a worse diagnosis than
	// "foreign-endian header".
	switch mark := binary.LittleEndian.Uint32(data[12:]); mark {
	case endianMark:
	case endianMarkSwapped:
		return nil, fmt.Errorf("%w: written in big-endian byte order", ErrForeignEndian)
	default:
		return nil, fmt.Errorf("%w: endianness guard reads %#08x, want %#08x", ErrCorrupt, mark, endianMark)
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != Version {
		return nil, fmt.Errorf("%w: file is version %d, this reader handles %d", ErrVersion, v, Version)
	}
	if ws := data[16]; ws != 8 {
		return nil, fmt.Errorf("%w: int word size %d, want 8", ErrCorrupt, ws)
	}
	wantCRC := binary.LittleEndian.Uint32(data[24:28])
	hdr := make([]byte, headerSize)
	copy(hdr, data[:headerSize])
	hdr[24], hdr[25], hdr[26], hdr[27] = 0, 0, 0, 0
	if got := crc32.Checksum(hdr, castagnoli); got != wantCRC {
		return nil, fmt.Errorf("%w: header CRC %#08x, recorded %#08x", ErrChecksum, got, wantCRC)
	}

	nsec := int(binary.LittleEndian.Uint32(data[20:]))
	if nsec > maxSections {
		return nil, fmt.Errorf("%w: %d sections exceeds the format limit %d", ErrCorrupt, nsec, maxSections)
	}
	tableLen := tableEntrySize*nsec + 4
	if len(data) < headerSize+tableLen {
		return nil, fmt.Errorf("%w: section table for %d sections needs %d bytes, file has %d",
			ErrTruncated, nsec, headerSize+tableLen, len(data))
	}
	table := data[headerSize : headerSize+tableLen]
	wantTableCRC := binary.LittleEndian.Uint32(table[tableEntrySize*nsec:])
	if got := crc32.Checksum(table[:tableEntrySize*nsec], castagnoli); got != wantTableCRC {
		return nil, fmt.Errorf("%w: section table CRC %#08x, recorded %#08x", ErrChecksum, got, wantTableCRC)
	}

	f := &File{
		data:     data,
		mapped:   mapped,
		closer:   closer,
		zeroCopy: hostLittleEndian,
		sections: make(map[uint32]rsec, nsec),
		order:    make([]rsec, 0, nsec),
	}
	minOff := headerSize + tableLen
	for i := 0; i < nsec; i++ {
		e := table[i*tableEntrySize:]
		s := rsec{
			id:   binary.LittleEndian.Uint32(e[0:]),
			kind: Kind(binary.LittleEndian.Uint32(e[4:])),
		}
		off := binary.LittleEndian.Uint64(e[8:])
		count := binary.LittleEndian.Uint64(e[16:])
		if s.kind.elemSize() == 0 {
			return nil, fmt.Errorf("%w: section %d has unknown kind %d", ErrCorrupt, s.id, uint32(s.kind))
		}
		if count > uint64(len(data)) || off > uint64(len(data)) {
			return nil, fmt.Errorf("%w: section %d claims offset %d count %d in a %d-byte file",
				ErrCorrupt, s.id, off, count, len(data))
		}
		s.off, s.count = int(off), int(count)
		end := s.off + s.byteLen()
		if s.off < minOff || end < s.off || end > len(data) {
			return nil, fmt.Errorf("%w: section %d spans [%d,%d) outside payload [%d,%d)",
				ErrCorrupt, s.id, s.off, end, minOff, len(data))
		}
		if _, dup := f.sections[s.id]; dup {
			return nil, fmt.Errorf("%w: duplicate section id %d", ErrCorrupt, s.id)
		}
		f.sections[s.id] = s
		f.order = append(f.order, s)
	}
	if err := f.verifySections(table); err != nil {
		return nil, err
	}
	return f, nil
}

// verifySections checks every payload CRC. Sections are independent, so
// large files fan the scan across cores — the whole-file pass is the
// dominant cost of opening a snapshot, and halving it directly widens
// the cold-start win.
func (f *File) verifySections(table []byte) error {
	nsec := len(f.order)
	errs := make([]error, nsec)
	check := func(i int) {
		s := f.order[i]
		want := binary.LittleEndian.Uint32(table[i*tableEntrySize+24:])
		got := crc32.Checksum(f.data[s.off:s.off+s.byteLen()], castagnoli)
		if got != want {
			errs[i] = fmt.Errorf("%w: section %d (%s, %d elems) CRC %#08x, recorded %#08x",
				ErrChecksum, s.id, s.kind, s.count, got, want)
		}
	}
	const parallelBytes = 4 << 20
	if workers := runtime.GOMAXPROCS(0); workers > 1 && len(f.data) >= parallelBytes && nsec > 1 {
		var wg sync.WaitGroup
		var next int64
		var mu sync.Mutex
		claim := func() int {
			mu.Lock()
			i := int(next)
			next++
			mu.Unlock()
			return i
		}
		if workers > nsec {
			workers = nsec
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := claim()
					if i >= nsec {
						return
					}
					check(i)
				}
			}()
		}
		wg.Wait()
	} else {
		for i := 0; i < nsec; i++ {
			check(i)
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Has reports whether the snapshot contains a section with the id.
func (f *File) Has(id uint32) bool {
	_, ok := f.sections[id]
	return ok
}

// SectionIDs returns the section ids in file order.
func (f *File) SectionIDs() []uint32 {
	out := make([]uint32, len(f.order))
	for i, s := range f.order {
		out[i] = s.id
	}
	return out
}

// Size returns the total file size in bytes.
func (f *File) Size() int64 { return int64(len(f.data)) }

// Mapped reports whether the file is backed by an mmap region.
func (f *File) Mapped() bool { return f.mapped }

// ZeroCopy reports whether numeric sections alias the file contents
// directly (little-endian host, aligned sections) rather than being
// decoded into fresh slices.
func (f *File) ZeroCopy() bool { return f.zeroCopy }

func (f *File) section(id uint32, kind Kind) (rsec, error) {
	s, ok := f.sections[id]
	if !ok {
		return rsec{}, fmt.Errorf("%w: id %d", ErrMissingSection, id)
	}
	if s.kind != kind {
		return rsec{}, fmt.Errorf("%w: section %d is %s, want %s", ErrCorrupt, id, s.kind, kind)
	}
	return s, nil
}

// aligned reports whether the section payload can be reinterpreted as
// 8-byte elements in place.
func (f *File) aligned(s rsec) bool {
	if !f.zeroCopy || s.count == 0 {
		return false
	}
	return uintptr(unsafe.Pointer(unsafe.SliceData(f.data[s.off:])))%8 == 0
}

// F64 returns the float64 section with the id. Zero-copy when the host
// is little-endian and the payload is 8-byte aligned; a fresh decoded
// slice otherwise.
func (f *File) F64(id uint32) ([]float64, error) {
	s, err := f.section(id, KindF64)
	if err != nil {
		return nil, err
	}
	if s.count == 0 {
		return nil, nil
	}
	if f.aligned(s) {
		return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(f.data[s.off:]))), s.count), nil
	}
	out := make([]float64, s.count)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(f.data[s.off+8*i:]))
	}
	return out, nil
}

// Ints returns the int64 section with the id as []int. Zero-copy on
// aligned little-endian 64-bit hosts; decoded otherwise. On 32-bit
// hosts, values outside the int range are rejected as corrupt.
func (f *File) Ints(id uint32) ([]int, error) {
	s, err := f.section(id, KindI64)
	if err != nil {
		return nil, err
	}
	if s.count == 0 {
		return nil, nil
	}
	if f.aligned(s) && unsafe.Sizeof(int(0)) == 8 {
		return unsafe.Slice((*int)(unsafe.Pointer(unsafe.SliceData(f.data[s.off:]))), s.count), nil
	}
	out := make([]int, s.count)
	for i := range out {
		v := int64(binary.LittleEndian.Uint64(f.data[s.off+8*i:]))
		if int64(int(v)) != v {
			return nil, fmt.Errorf("%w: section %d element %d (%d) overflows int", ErrCorrupt, id, i, v)
		}
		out[i] = int(v)
	}
	return out, nil
}

// Bytes returns the byte section with the id as a view into the file.
// Callers must not mutate it.
func (f *File) Bytes(id uint32) ([]byte, error) {
	s, err := f.section(id, KindBytes)
	if err != nil {
		return nil, err
	}
	return f.data[s.off : s.off+s.count], nil
}

// Strings decodes the string-list section with the id. Strings are
// always copied out of the file.
func (f *File) Strings(id uint32) ([]string, error) {
	s, err := f.section(id, KindStrings)
	if err != nil {
		return nil, err
	}
	blob := f.data[s.off : s.off+s.count]
	if len(blob) < 4 {
		return nil, fmt.Errorf("%w: string section %d is %d bytes, shorter than its count field", ErrCorrupt, id, len(blob))
	}
	n := binary.LittleEndian.Uint32(blob)
	blob = blob[4:]
	if n > uint32(len(blob)) {
		return nil, fmt.Errorf("%w: string section %d claims %d strings in %d bytes", ErrCorrupt, id, n, len(blob))
	}
	out := make([]string, 0, n)
	for i := uint32(0); i < n; i++ {
		if len(blob) < 4 {
			return nil, fmt.Errorf("%w: string section %d truncated at string %d", ErrCorrupt, id, i)
		}
		l := binary.LittleEndian.Uint32(blob)
		blob = blob[4:]
		if uint32(len(blob)) < l {
			return nil, fmt.Errorf("%w: string section %d string %d claims %d bytes, %d remain", ErrCorrupt, id, i, l, len(blob))
		}
		out = append(out, string(blob[:l]))
		blob = blob[l:]
	}
	return out, nil
}

// Close releases the mapping. After Close, every slice previously
// returned zero-copy is invalid; touching one faults. Close is
// idempotent and safe for concurrent use.
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	f.data = nil
	f.sections = nil
	f.order = nil
	if f.closer != nil {
		return f.closer()
	}
	return nil
}

// WriteFile writes the assembled snapshot atomically: to a temporary
// file in the destination directory, fsynced, then renamed over path
// (see atomicfile). A crash mid-write never leaves a half-written
// snapshot where a loader could find it.
func WriteFile(path string, w *Writer) error {
	return atomicfile.WriteFile(path, func(f io.Writer) error {
		_, err := w.WriteTo(f)
		return err
	})
}
