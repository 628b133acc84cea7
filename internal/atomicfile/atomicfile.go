// Package atomicfile publishes files so that a reader never observes a
// partial write and a crash never loses the previous version: content
// goes to a unique temporary file in the destination directory, which
// is fsynced, closed and renamed over the destination, and the
// directory is fsynced so the rename itself survives a crash. Every
// error path removes the temporary file. Published files keep the
// temporary file's mode, 0600 (os.CreateTemp).
package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
)

// WriteFile atomically replaces path with the bytes fill writes. If
// fill fails, path is left untouched.
func WriteFile(path string, fill func(w io.Writer) error) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	return Publish(dir, "."+base+".tmp-*", func(w io.Writer) (string, error) {
		return base, fill(w)
	})
}

// Publish writes a new file into dir atomically. The temporary file is
// created with os.CreateTemp(dir, pattern). fill streams the content
// and returns the destination name within dir, so a caller that names
// files by their content can choose the name after writing; a non-nil
// error from fill abandons the write before anything is renamed.
func Publish(dir, pattern string, fill func(w io.Writer) (name string, err error)) error {
	tmp, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return err
	}
	published := false
	defer func() {
		if !published {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	name, err := fill(tmp)
	if err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		return err
	}
	published = true
	return syncDir(dir)
}

// syncDir fsyncs a directory so a rename into it is durable.
// Filesystems that cannot sync directories report EINVAL; there the
// rename is as durable as the filesystem allows.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if errors.Is(err, syscall.EINVAL) {
		return nil
	}
	return err
}
