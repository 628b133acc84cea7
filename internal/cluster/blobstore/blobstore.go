// Package blobstore is the content-addressed snapshot store behind
// GeoAlign's fleet serving: engine snapshots (.snap files) are
// published under their SHA-256 digest, replicas pull blobs they are
// missing over HTTP (or find them already present when the store
// directory is shared), and a manifest names which digest serves each
// engine. Content addressing is what makes distribution boring — a
// blob is immutable once published, so fetches are idempotent,
// caching needs no invalidation, and the only coordination surface is
// the tiny manifest.
//
// On-disk layout: one file per blob, named "sha256-<hex>.snap" inside
// the store directory. Publication is atomic (temp file in the same
// directory, fsync, rename, directory fsync; see atomicfile), so a
// crashed writer never leaves a half-blob under a valid name and
// concurrent publishers of the same digest converge on identical bytes.
package blobstore

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"geoalign/internal/atomicfile"
	"geoalign/internal/snapshot"
)

// ErrUnknownBlob is returned for digests the store does not hold.
var ErrUnknownBlob = errors.New("blobstore: unknown blob")

// blobExt is the filename extension blobs are stored under.
const blobExt = ".snap"

// Store is a directory of content-addressed blobs. Methods are safe
// for concurrent use by multiple goroutines and multiple processes
// sharing the directory (publication is rename-atomic and blobs are
// immutable).
type Store struct {
	dir string
}

// Open returns a store over dir, creating the directory if needed.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("blobstore: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("blobstore: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// fileName maps a validated digest to its blob file name.
func fileName(digest string) string {
	return "sha256-" + digest[len(snapshot.DigestPrefix):] + blobExt
}

// digestOfFile inverts fileName; ok is false for foreign files.
func digestOfFile(name string) (string, bool) {
	hexPart, found := strings.CutPrefix(name, "sha256-")
	if !found {
		return "", false
	}
	hexPart, found = strings.CutSuffix(hexPart, blobExt)
	if !found {
		return "", false
	}
	d, err := snapshot.ParseDigest(snapshot.DigestPrefix + hexPart)
	if err != nil {
		return "", false
	}
	return d, true
}

// Path returns the on-disk path a digest resolves to, whether or not
// the blob is present. The digest is validated so a hostile digest can
// never escape the store directory.
func (s *Store) Path(digest string) (string, error) {
	d, err := snapshot.ParseDigest(digest)
	if err != nil {
		return "", err
	}
	return filepath.Join(s.dir, fileName(d)), nil
}

// Has reports whether the store holds the blob.
func (s *Store) Has(digest string) bool {
	p, err := s.Path(digest)
	if err != nil {
		return false
	}
	st, err := os.Stat(p)
	return err == nil && st.Mode().IsRegular()
}

// Stat returns the size of a held blob.
func (s *Store) Stat(digest string) (int64, error) {
	p, err := s.Path(digest)
	if err != nil {
		return 0, err
	}
	st, err := os.Stat(p)
	if err != nil {
		return 0, fmt.Errorf("%w: %s", ErrUnknownBlob, digest)
	}
	return st.Size(), nil
}

// Put publishes the bytes streamed from r and returns their digest.
// The digest is computed while writing; publication is atomic. Putting
// bytes already present is a no-op that still reports their digest.
func (s *Store) Put(r io.Reader) (digest string, size int64, err error) {
	return s.put(r, "")
}

// PutExpected is Put for callers that already know the digest they are
// publishing (a manifest fetch): the incoming bytes are verified
// against it and rejected on mismatch, so a corrupt or hostile origin
// can never populate the store under a clean name.
func (s *Store) PutExpected(r io.Reader, want string) (size int64, err error) {
	want, err = snapshot.ParseDigest(want)
	if err != nil {
		return 0, err
	}
	_, size, err = s.put(r, want)
	return size, err
}

// put streams r into a temp file while hashing it, then renames the
// file to its content address — unless want is set and the digest
// differs, in which case nothing is published.
func (s *Store) put(r io.Reader, want string) (digest string, size int64, err error) {
	err = atomicfile.Publish(s.dir, ".put-*", func(w io.Writer) (string, error) {
		h := snapshot.NewDigester()
		n, err := io.Copy(io.MultiWriter(w, h), r)
		if err != nil {
			return "", err
		}
		size, digest = n, snapshot.FormatDigest(h)
		if want != "" && digest != want {
			return "", fmt.Errorf("fetched bytes digest %s, want %s", digest, want)
		}
		return fileName(digest), nil
	})
	if err != nil {
		return "", 0, fmt.Errorf("blobstore: %w", err)
	}
	return digest, size, nil
}

// PutFile publishes an existing file (an engine snapshot just written
// next to the store) and returns its digest.
func (s *Store) PutFile(path string) (digest string, size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	return s.Put(f)
}

// Open returns a reader over a held blob. The caller closes it.
func (s *Store) Open(digest string) (*os.File, error) {
	p, err := s.Path(digest)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(p)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("%w: %s", ErrUnknownBlob, digest)
		}
		return nil, err
	}
	return f, nil
}

// Remove deletes a held blob. Removing an absent blob is an error.
func (s *Store) Remove(digest string) error {
	p, err := s.Path(digest)
	if err != nil {
		return err
	}
	if err := os.Remove(p); err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("%w: %s", ErrUnknownBlob, digest)
		}
		return err
	}
	return nil
}

// BlobInfo describes one held blob.
type BlobInfo struct {
	Digest string `json:"digest"`
	Size   int64  `json:"size"`
}

// List enumerates held blobs, sorted by digest. Foreign files in the
// directory (including in-flight .put- temp files) are ignored.
func (s *Store) List() ([]BlobInfo, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("blobstore: %w", err)
	}
	var out []BlobInfo
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		d, ok := digestOfFile(e.Name())
		if !ok {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue // raced with a concurrent Remove
		}
		out = append(out, BlobInfo{Digest: d, Size: fi.Size()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Digest < out[j].Digest })
	return out, nil
}

// GC removes every held blob whose digest is not in keep, returning
// what was (or, with dryRun, would be) removed. Blobs that vanish
// between listing and removal are treated as already collected.
func (s *Store) GC(keep map[string]bool, dryRun bool) ([]BlobInfo, error) {
	blobs, err := s.List()
	if err != nil {
		return nil, err
	}
	var swept []BlobInfo
	for _, b := range blobs {
		if keep[b.Digest] {
			continue
		}
		if !dryRun {
			if err := s.Remove(b.Digest); err != nil && !errors.Is(err, ErrUnknownBlob) {
				return swept, err
			}
		}
		swept = append(swept, b)
	}
	return swept, nil
}
