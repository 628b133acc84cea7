package blobstore

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"geoalign/internal/atomicfile"
	"geoalign/internal/snapshot"
)

// Manifest names the engine fleet: which snapshot digest serves each
// engine, and the generation the publisher had reached when it was
// cut. It is the only mutable piece of cluster state — blobs are
// immutable and replicas converge on whatever the manifest says by
// pulling missing digests and hot-swapping engines whose digest
// changed.
type Manifest struct {
	// Engines maps engine name to its snapshot assignment.
	Engines map[string]ManifestEntry `json:"engines"`
}

// ManifestEntry is one engine's assignment.
type ManifestEntry struct {
	// Digest is the content address of the .snap blob serving the
	// engine.
	Digest string `json:"digest"`
	// Generation is the publisher's registry generation for the engine
	// when the manifest was cut; informational (each replica numbers
	// its own generations), but lets operators correlate fleet state.
	Generation int `json:"generation,omitempty"`
}

// Validate checks every digest parses, returning a canonicalised copy.
func (m *Manifest) Validate() (*Manifest, error) {
	out := &Manifest{Engines: make(map[string]ManifestEntry, len(m.Engines))}
	for name, e := range m.Engines {
		if name == "" {
			return nil, fmt.Errorf("blobstore: manifest entry with empty engine name")
		}
		d, err := snapshot.ParseDigest(e.Digest)
		if err != nil {
			return nil, fmt.Errorf("blobstore: manifest engine %q: %w", name, err)
		}
		e.Digest = d
		out.Engines[name] = e
	}
	return out, nil
}

// Names returns the manifest's engine names, sorted.
func (m *Manifest) Names() []string {
	names := make([]string, 0, len(m.Engines))
	for n := range m.Engines {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Digests returns the set of digests the manifest references — the
// keep-set for GC.
func (m *Manifest) Digests() map[string]bool {
	out := make(map[string]bool, len(m.Engines))
	for _, e := range m.Engines {
		out[e.Digest] = true
	}
	return out
}

// ReadManifest loads and validates a manifest JSON file.
func ReadManifest(path string) (*Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeManifest(b)
}

// DecodeManifest parses and validates manifest JSON bytes.
func DecodeManifest(b []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("blobstore: decoding manifest: %w", err)
	}
	return m.Validate()
}

// WriteManifest persists a manifest as deterministic, human-diffable
// JSON (sorted keys, indented), published atomically.
func WriteManifest(path string, m *Manifest) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return atomicfile.WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(append(b, '\n'))
		return err
	})
}
