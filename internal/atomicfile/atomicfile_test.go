package atomicfile

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// dirNames lists the entries of dir.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

func writeString(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}

func TestWriteFileReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "index.bin")
	for _, content := range []string{"first version", "second"} {
		if err := WriteFile(path, writeString(content)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != content {
			t.Fatalf("content = %q, want %q", got, content)
		}
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode().Perm() != 0o600 {
		t.Errorf("mode = %v, want %v", st.Mode().Perm(), os.FileMode(0o600))
	}
	if names := dirNames(t, dir); len(names) != 1 {
		t.Fatalf("directory holds %v, want only the published file", names)
	}
}

// TestWriteFileFailureKeepsPrevious is the crash-safety contract: a
// write that fails part-way leaves the previous file byte-identical
// and no temporary file behind.
func TestWriteFileFailureKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest.json")
	prev := []byte("{\"generation\": 7}\n")
	if err := WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(prev)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	err := WriteFile(path, func(w io.Writer) error {
		if _, err := io.WriteString(w, "{\"gener"); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the fill error", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, prev) {
		t.Fatalf("previous file changed: %q", got)
	}
	if names := dirNames(t, dir); len(names) != 1 || names[0] != "manifest.json" {
		t.Fatalf("directory holds %v, want only manifest.json", names)
	}
}

func TestPublishNamesAfterWriting(t *testing.T) {
	dir := t.TempDir()
	err := Publish(dir, ".put-*", func(w io.Writer) (string, error) {
		n, err := io.WriteString(w, "blob")
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("blob-%d", n), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(filepath.Join(dir, "blob-4")); err != nil || string(got) != "blob" {
		t.Fatalf("published blob = %q, %v", got, err)
	}

	// A rejection after the content is written publishes nothing.
	err = Publish(dir, ".put-*", func(w io.Writer) (string, error) {
		io.WriteString(w, "tampered")
		return "", errors.New("digest mismatch")
	})
	if err == nil {
		t.Fatal("rejected write reported success")
	}
	if names := dirNames(t, dir); len(names) != 1 || names[0] != "blob-4" {
		t.Fatalf("directory holds %v, want only blob-4", names)
	}
}

func TestPublishMissingDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "absent")
	if err := WriteFile(filepath.Join(dir, "x"), writeString("x")); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}
