package ntsim

import (
	"maps"
	"sort"
	"strings"

	"ntdts/internal/vclock"
)

// VFS is the simulated machine's filesystem: a flat namespace of
// case-insensitive Windows-style paths ("C:\inetpub\wwwroot\index.html").
// Directories are implicit. The VFS is shared by all processes on the
// simulated machine.
type VFS struct {
	files     map[string]*vfile // key: normalized path
	dirsByKey map[string]string // key: normalized dir path -> original case
}

type vfile struct {
	path  string // original-case path
	data  []byte
	mtime vclock.Time // virtual modification time

	// shared marks a node captured by a PrefixSnapshot: it may be
	// referenced by any number of forked kernels concurrently, so it is
	// immutable from the moment the snapshot is taken. Mutators clone a
	// shared node into the local namespace first (copy-on-write).
	shared bool
	// origin points at the shared node this one was cloned from, so open
	// file descriptions still holding the shared node can re-point to the
	// clone and keep the legacy aliasing semantics (all descriptions of
	// one path observe each other's writes).
	origin *vfile
}

// clone returns a private, mutable copy of a snapshot-shared node. The data
// is copied — not aliased — because the clone will be mutated in place while
// sibling forks keep reading the shared bytes.
func (f *vfile) clone() *vfile {
	c := &vfile{path: f.path, mtime: f.mtime, origin: f}
	if len(f.data) > 0 {
		c.data = append([]byte(nil), f.data...)
	}
	return c
}

// NewVFS returns an empty filesystem.
func NewVFS() *VFS {
	return &VFS{files: make(map[string]*vfile)}
}

func normPath(p string) string {
	return strings.ToLower(strings.ReplaceAll(p, "/", `\`))
}

// WriteFile creates or replaces a file (harness-side setup).
func (fs *VFS) WriteFile(path string, data []byte) {
	d := make([]byte, len(data))
	copy(d, data)
	fs.files[normPath(path)] = &vfile{path: path, data: d}
}

// ReadFile returns a copy of a file's contents.
func (fs *VFS) ReadFile(path string) ([]byte, bool) {
	f, ok := fs.files[normPath(path)]
	if !ok {
		return nil, false
	}
	d := make([]byte, len(f.data))
	copy(d, f.data)
	return d, true
}

// Exists reports whether a file exists.
func (fs *VFS) Exists(path string) bool {
	_, ok := fs.files[normPath(path)]
	return ok
}

// Remove deletes a file, reporting whether it existed.
func (fs *VFS) Remove(path string) bool {
	key := normPath(path)
	_, ok := fs.files[key]
	delete(fs.files, key)
	return ok
}

// List returns all file paths in sorted order (for tests and reports).
func (fs *VFS) List() []string {
	out := make([]string, 0, len(fs.files))
	for _, f := range fs.files {
		out = append(out, f.path)
	}
	sort.Strings(out)
	return out
}

// File access disposition, mirroring CreateFile dwCreationDisposition.
const (
	CreateNew        uint32 = 1
	CreateAlways     uint32 = 2
	OpenExisting     uint32 = 3
	OpenAlways       uint32 = 4
	TruncateExisting uint32 = 5
)

// Generic access rights (subset).
const (
	GenericRead  uint32 = 0x80000000
	GenericWrite uint32 = 0x40000000
)

// OpenFile is an open file description: a file plus a seek offset.
type OpenFile struct {
	fs     *VFS
	file   *vfile
	key    string // normalized path, for copy-on-write re-pointing
	offset int
	access uint32
	closed bool
}

// node returns the current file node for this description. If the node is
// snapshot-shared but another description of the same path has already
// detached a copy-on-write clone into the namespace, this description
// re-points to the clone — preserving the legacy invariant that every open
// description of one path observes the same bytes.
func (of *OpenFile) node() *vfile {
	f := of.file
	if f.shared {
		if cur := of.fs.files[of.key]; cur != nil && cur.origin == f {
			of.file = cur
			return cur
		}
	}
	return f
}

// mutable returns a privately-owned node for this description, detaching a
// copy-on-write clone from a snapshot-shared node on first mutation.
func (of *OpenFile) mutable() *vfile {
	f := of.node()
	if !f.shared {
		return f
	}
	c := f.clone()
	// Install the clone only while the namespace still maps the path to
	// the shared node; if the path was replaced or removed meanwhile, the
	// description mutates an orphan node, exactly as an unshared
	// description of a replaced path would.
	if of.fs.files[of.key] == f {
		of.fs.files[of.key] = c
	}
	of.file = c
	return c
}

// Open opens a path per the CreateFile disposition rules.
func (fs *VFS) Open(path string, access, disposition uint32) (*OpenFile, Errno) {
	key := normPath(path)
	if key == "" {
		return nil, ErrInvalidName
	}
	f, exists := fs.files[key]
	switch disposition {
	case CreateNew:
		if exists {
			return nil, ErrAlreadyExists
		}
		f = &vfile{path: path}
		fs.files[key] = f
	case CreateAlways:
		f = &vfile{path: path}
		fs.files[key] = f
	case OpenExisting:
		if !exists {
			return nil, ErrFileNotFound
		}
	case OpenAlways:
		if !exists {
			f = &vfile{path: path}
			fs.files[key] = f
		}
	case TruncateExisting:
		if !exists {
			return nil, ErrFileNotFound
		}
		if f.shared {
			c := &vfile{path: f.path, mtime: f.mtime, origin: f}
			fs.files[key] = c
			f = c
		} else {
			f.data = nil
		}
	default:
		return nil, ErrInvalidParameter
	}
	return &OpenFile{fs: fs, file: f, key: key, access: access}, ErrSuccess
}

// Read copies up to len(buf) bytes from the current offset, advancing it.
func (of *OpenFile) Read(buf []byte) (int, Errno) {
	if of.closed {
		return 0, ErrInvalidHandle
	}
	if of.access&GenericRead == 0 {
		return 0, ErrAccessDenied
	}
	f := of.node()
	if of.offset >= len(f.data) {
		return 0, ErrSuccess // EOF: zero bytes, success (Win32 semantics)
	}
	n := copy(buf, f.data[of.offset:])
	of.offset += n
	return n, ErrSuccess
}

// Write copies buf at the current offset, extending the file as needed.
func (of *OpenFile) Write(buf []byte) (int, Errno) {
	if of.closed {
		return 0, ErrInvalidHandle
	}
	if of.access&GenericWrite == 0 {
		return 0, ErrAccessDenied
	}
	f := of.mutable()
	end := of.offset + len(buf)
	if end > len(f.data) {
		grown := make([]byte, end)
		copy(grown, f.data)
		f.data = grown
	}
	copy(f.data[of.offset:end], buf)
	of.offset = end
	return len(buf), ErrSuccess
}

// Seek methods, mirroring SetFilePointer dwMoveMethod.
const (
	FileBegin   uint32 = 0
	FileCurrent uint32 = 1
	FileEnd     uint32 = 2
)

// SeekTo moves the file offset and returns the new position.
func (of *OpenFile) SeekTo(distance int64, method uint32) (int64, Errno) {
	if of.closed {
		return 0, ErrInvalidHandle
	}
	var base int64
	switch method {
	case FileBegin:
		base = 0
	case FileCurrent:
		base = int64(of.offset)
	case FileEnd:
		base = int64(len(of.node().data))
	default:
		return 0, ErrInvalidParameter
	}
	pos := base + distance
	if pos < 0 {
		return 0, ErrInvalidParameter
	}
	of.offset = int(pos)
	return pos, ErrSuccess
}

// Size returns the file length in bytes.
func (of *OpenFile) Size() int { return len(of.node().data) }

// Mtime returns the file's virtual modification time.
func (of *OpenFile) Mtime() vclock.Time { return of.node().mtime }

// Touch sets the file's virtual modification time (the win32 layer calls
// it on writes and from SetFileTime).
func (of *OpenFile) Touch(t vclock.Time) { of.mutable().mtime = t }

// Mtime returns a file's modification time by path.
func (fs *VFS) Mtime(path string) (vclock.Time, bool) {
	f, ok := fs.files[normPath(path)]
	if !ok {
		return 0, false
	}
	return f.mtime, true
}

// Path returns the path this description was opened against.
func (of *OpenFile) Path() string { return of.node().path }

func (of *OpenFile) close() { of.closed = true }

// Snapshot support ---------------------------------------------------------

// snapshotMaps marks every node snapshot-shared (freezing it) and returns
// copies of the namespace maps for a PrefixSnapshot to own. The returned
// maps and the nodes they reference are read-only from this point on and
// safe for concurrent forks.
func (fs *VFS) snapshotMaps() (map[string]*vfile, map[string]string) {
	files := make(map[string]*vfile, len(fs.files))
	for k, f := range fs.files {
		f.shared = true
		files[k] = f
	}
	var dirs map[string]string
	if len(fs.dirsByKey) > 0 {
		dirs = make(map[string]string, len(fs.dirsByKey))
		for k, v := range fs.dirsByKey {
			dirs[k] = v
		}
	}
	return files, dirs
}

// restoreFrom loads a snapshot's namespace maps into this fresh
// filesystem. Only the maps are copied; the nodes stay snapshot-shared
// until a write clones them.
func (fs *VFS) restoreFrom(files map[string]*vfile, dirs map[string]string) {
	fs.files, fs.dirsByKey = maps.Clone(files), maps.Clone(dirs)
}
