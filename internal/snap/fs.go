package snap

import (
	"io"
	"os"
)

// FS is the one seam between the durable layers and the disk: the WAL opens
// its file and WriteFile installs a file through it, so a test can put faults
// behind every storage call. OS is the real file system.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Rename(oldpath, newpath string) error
}

// File is the part of *os.File that the WAL and WriteFile use.
type File interface {
	io.ReadWriteSeeker
	io.Closer
	Sync() error
	Truncate(size int64) error
}

// OS is the production FS.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err // not a non-nil File holding a nil *os.File
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// WriteFile is the one way a file that is read back later is installed: it
// writes path.tmp, fsyncs and closes it, then renames it over path, so path
// holds the old bytes or all of the new ones, never a prefix. The directory
// is not fsynced, so a power cut may still undo the rename (ROADMAP 1(b2)).
func WriteFile(fs FS, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return fs.Rename(tmp, path)
}
