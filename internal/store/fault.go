package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
)

// This file is the fault-injection half of the robustness story: an
// in-memory FS with an explicit crash-durability model (MemFS) and a
// wrapper that injects failures at any chosen I/O operation (FaultFS).
// Together they let the recovery tests crash a workload at EVERY
// syscall boundary and then reboot against exactly the bytes a real
// power cut would have left behind:
//
//   - file writes live in a volatile buffer until File.Sync copies
//     them to the durable image; a crash keeps only a prefix of the
//     unsynced suffix (the torn-write model);
//   - namespace operations (create/rename/remove) stay pending until
//     SyncDir of the parent directory; a crash applies each pending
//     operation independently with probability 1/2, which is how the
//     write-temp → fsync → rename protocol gets exercised against
//     reordered metadata.
//
// They are exported (not _test.go) so benchmarks and external
// harnesses can reuse them; production opens use OSFS.

// ErrInjected is returned by the operation a FaultFS fault lands on.
var ErrInjected = errors.New("store: injected I/O fault")

// ErrCrashed is returned by every operation after a FaultFS crash
// point: the simulated process is dead and must "reboot" by calling
// MemFS.Crash and re-opening the store.
var ErrCrashed = errors.New("store: filesystem crashed (reboot required)")

// memFile is one file's two images: data is the live content, synced
// the content guaranteed to survive a crash.
type memFile struct {
	data   []byte
	synced []byte
}

// MemFS is an in-memory FS with POSIX-shaped crash semantics. The
// zero value is not usable; call NewMemFS.
type MemFS struct {
	mu sync.Mutex
	// cur is the live namespace; durable the namespace guaranteed to
	// survive a crash (entries move from cur to durable on SyncDir of
	// their parent). Both map to shared *memFile identities.
	cur     map[string]*memFile
	durable map[string]*memFile
	dirs    map[string]bool
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{
		cur:     make(map[string]*memFile),
		durable: make(map[string]*memFile),
		dirs:    make(map[string]bool),
	}
}

func (m *MemFS) MkdirAll(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for d := filepath.Clean(dir); d != "." && d != string(filepath.Separator); d = filepath.Dir(d) {
		m.dirs[d] = true
	}
	return nil
}

func (m *MemFS) ReadDir(dir string) ([]DirEnt, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir = filepath.Clean(dir)
	if !m.dirs[dir] {
		return nil, fmt.Errorf("memfs: readdir %s: no such directory", dir)
	}
	var out []DirEnt
	for p := range m.cur {
		if filepath.Dir(p) == dir {
			out = append(out, DirEnt{Name: filepath.Base(p)})
		}
	}
	for d := range m.dirs {
		if filepath.Dir(d) == dir {
			out = append(out, DirEnt{Name: filepath.Base(d), Dir: true})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

func (m *MemFS) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := &memFile{}
	m.cur[filepath.Clean(name)] = f
	return &memHandle{fs: m, f: f, write: true}, nil
}

func (m *MemFS) Open(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.cur[filepath.Clean(name)]
	if !ok {
		return nil, fmt.Errorf("memfs: open %s: no such file", name)
	}
	return &memHandle{fs: m, f: f}, nil
}

func (m *MemFS) OpenAppend(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	f, ok := m.cur[name]
	if !ok {
		f = &memFile{}
		m.cur[name] = f
	}
	return &memHandle{fs: m, f: f, write: true}, nil
}

func (m *MemFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	oldname, newname = filepath.Clean(oldname), filepath.Clean(newname)
	f, ok := m.cur[oldname]
	if !ok {
		return fmt.Errorf("memfs: rename %s: no such file", oldname)
	}
	m.cur[newname] = f
	delete(m.cur, oldname)
	return nil
}

func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	if _, ok := m.cur[name]; !ok {
		return fmt.Errorf("memfs: remove %s: no such file", name)
	}
	delete(m.cur, name)
	return nil
}

func (m *MemFS) Truncate(name string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.cur[filepath.Clean(name)]
	if !ok {
		return fmt.Errorf("memfs: truncate %s: no such file", name)
	}
	if int(size) < len(f.data) {
		f.data = append([]byte(nil), f.data[:size]...)
	}
	return nil
}

// ReadAt reads from the live image at an offset (the buffer pool's
// chunk-fault read path).
func (m *MemFS) ReadAt(name string, off int64, p []byte) (int, error) {
	h, err := m.Open(name)
	if err != nil {
		return 0, err
	}
	return h.ReadAt(p, off)
}

// SyncDir commits dir's pending namespace operations: after it
// returns, the files currently named under dir survive a crash under
// those names (with whatever content THEY have synced).
func (m *MemFS) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir = filepath.Clean(dir)
	for p := range m.durable {
		if filepath.Dir(p) == dir {
			if _, ok := m.cur[p]; !ok {
				delete(m.durable, p)
			}
		}
	}
	for p, f := range m.cur {
		if filepath.Dir(p) == dir {
			m.durable[p] = f
		}
	}
	return nil
}

// Crash simulates a power cut: the namespace reverts to the durable
// image with each pending namespace op applied independently with
// probability 1/2, and every file's content reverts to its synced
// image plus a random-length prefix of its unsynced appended suffix
// (the torn-write model). After Crash the filesystem represents what a
// rebooted process would find; reuse it with a fresh Open.
func (m *MemFS) Crash(rng *rand.Rand) {
	m.mu.Lock()
	defer m.mu.Unlock()
	next := make(map[string]*memFile, len(m.durable))
	for p, f := range m.durable {
		next[p] = f
	}
	// Pending namespace ops: additions/replacements and removals each
	// land or not, independently — fsync-less renames may be reordered
	// arbitrarily by a real kernel. Iterate in sorted order so a seeded
	// rng yields a deterministic outcome.
	var pending []string
	for p, f := range m.cur {
		if next[p] != f {
			pending = append(pending, p)
		}
	}
	for p := range m.durable {
		if _, ok := m.cur[p]; !ok {
			pending = append(pending, p)
		}
	}
	sort.Strings(pending)
	for _, p := range pending {
		if rng.Intn(2) == 0 {
			continue
		}
		if f, ok := m.cur[p]; ok {
			next[p] = f
		} else {
			delete(next, p)
		}
	}
	// File contents: synced prefix plus a random prefix of unsynced
	// appended bytes. A file truncated below its synced length without
	// a Sync reverts to the longer synced image.
	seenFiles := map[*memFile]bool{}
	for _, f := range next {
		if seenFiles[f] {
			continue
		}
		seenFiles[f] = true
		if len(f.data) > len(f.synced) && bytes.Equal(f.data[:len(f.synced)], f.synced) {
			extra := rng.Intn(len(f.data) - len(f.synced) + 1)
			f.data = append(append([]byte(nil), f.synced...), f.data[len(f.synced):len(f.synced)+extra]...)
		} else {
			f.data = append([]byte(nil), f.synced...)
		}
		f.synced = append([]byte(nil), f.data...)
	}
	m.cur = next
	m.durable = make(map[string]*memFile, len(next))
	for p, f := range next {
		m.durable[p] = f
	}
}

// FlipBit flips bit (off*8+bit) of the named file in BOTH images — the
// corruption model for the checksum tests (a latent media error, not a
// torn write).
func (m *MemFS) FlipBit(name string, off int64, bit uint) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.cur[filepath.Clean(name)]
	if !ok {
		return fmt.Errorf("memfs: flipbit %s: no such file", name)
	}
	if off < 0 || int(off) >= len(f.data) {
		return fmt.Errorf("memfs: flipbit %s: offset %d out of range %d", name, off, len(f.data))
	}
	f.data[off] ^= 1 << (bit & 7)
	f.synced = append([]byte(nil), f.data...)
	return nil
}

// FileSize returns the live size of the named file.
func (m *MemFS) FileSize(name string) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.cur[filepath.Clean(name)]
	if !ok {
		return 0, fmt.Errorf("memfs: size %s: no such file", name)
	}
	return int64(len(f.data)), nil
}

// Files lists all live file paths, sorted.
func (m *MemFS) Files() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.cur))
	for p := range m.cur {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// memHandle is one open descriptor.
type memHandle struct {
	fs     *MemFS
	f      *memFile
	off    int
	write  bool
	closed bool
}

func (h *memHandle) Read(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.off >= len(h.f.data) {
		return 0, io.EOF
	}
	n := copy(p, h.f.data[h.off:])
	h.off += n
	return n, nil
}

// ReadAt reads the file's live image at an offset, whether or not a
// name still refers to it.
func (h *memHandle) ReadAt(p []byte, off int64) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if off < 0 || off > int64(len(h.f.data)) {
		return 0, fmt.Errorf("memfs: readat: offset %d out of range %d", off, len(h.f.data))
	}
	n := copy(p, h.f.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if !h.write {
		return 0, fmt.Errorf("memfs: write on read-only handle")
	}
	h.f.data = append(h.f.data, p...)
	return len(p), nil
}

func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	h.f.synced = append([]byte(nil), h.f.data...)
	return nil
}

func (h *memHandle) Close() error {
	h.closed = true
	return nil
}

// FaultMode selects what happens at a FaultFS failpoint.
type FaultMode int

const (
	// FaultError fails the chosen operation with ErrInjected (after a
	// possible short write) and lets the process continue — the
	// fail-stop path: the store must surface the error and keep
	// serving already-durable data.
	FaultError FaultMode = iota
	// FaultCrash kills the simulated process at the chosen operation:
	// the op takes partial/ambiguous effect, and every later operation
	// returns ErrCrashed until the harness reboots via MemFS.Crash.
	FaultCrash
)

// FaultFS wraps a MemFS and injects one fault at the n'th mutating
// operation (1-based). Mutating operations are Create, OpenAppend,
// Rename, Remove, Truncate, SyncDir, File.Write and File.Sync — every
// point where a real system call could fail or a power cut could land.
type FaultFS struct {
	Inner *MemFS

	mu      sync.Mutex
	ops     int
	failAt  int
	mode    FaultMode
	rng     *rand.Rand
	crashed bool
}

// NewFaultFS wraps inner with no fault armed.
func NewFaultFS(inner *MemFS) *FaultFS { return &FaultFS{Inner: inner} }

// FailAt arms one fault: the n'th mutating operation from now (1-based)
// fails with the given mode. rng drives partial-effect choices.
func (f *FaultFS) FailAt(n int, mode FaultMode, rng *rand.Rand) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops = 0
	f.failAt = n
	f.mode = mode
	f.rng = rng
	f.crashed = false
}

// Ops reports the mutating operations seen since the last FailAt (or
// construction) — run a workload once unarmed to size the crash matrix.
func (f *FaultFS) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// step counts one mutating op and reports whether to inject. The
// second result is true when the op should still take (partial)
// effect before failing.
func (f *FaultFS) step() (inject bool, apply bool, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return true, false, ErrCrashed
	}
	f.ops++
	if f.failAt > 0 && f.ops == f.failAt {
		if f.mode == FaultCrash {
			f.crashed = true
		}
		// Whether the dying op's effect reached the disk is exactly
		// what a crashed process cannot know; flip a coin.
		return true, f.rng.Intn(2) == 1, ErrInjected
	}
	return false, true, nil
}

func (f *FaultFS) MkdirAll(dir string) error { return f.Inner.MkdirAll(dir) }

func (f *FaultFS) ReadDir(dir string) ([]DirEnt, error) {
	f.mu.Lock()
	crashed := f.crashed
	f.mu.Unlock()
	if crashed {
		return nil, ErrCrashed
	}
	return f.Inner.ReadDir(dir)
}

func (f *FaultFS) Create(name string) (File, error) {
	if inject, apply, err := f.step(); inject {
		if apply {
			_, _ = f.Inner.Create(name)
		}
		return nil, err
	}
	h, err := f.Inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultHandle{fs: f, inner: h}, nil
}

func (f *FaultFS) Open(name string) (File, error) {
	f.mu.Lock()
	crashed := f.crashed
	f.mu.Unlock()
	if crashed {
		return nil, ErrCrashed
	}
	return f.Inner.Open(name)
}

// ReadAt delegates to the inner filesystem. Reads are NOT counted as
// mutating operations (the crash matrix enumerates write-side
// failpoints), but a crashed filesystem refuses them like everything
// else.
func (f *FaultFS) ReadAt(name string, off int64, p []byte) (int, error) {
	f.mu.Lock()
	crashed := f.crashed
	f.mu.Unlock()
	if crashed {
		return 0, ErrCrashed
	}
	return f.Inner.ReadAt(name, off, p)
}

func (f *FaultFS) OpenAppend(name string) (File, error) {
	if inject, apply, err := f.step(); inject {
		if apply {
			if h, err2 := f.Inner.OpenAppend(name); err2 == nil {
				_ = h.Close()
			}
		}
		return nil, err
	}
	h, err := f.Inner.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &faultHandle{fs: f, inner: h}, nil
}

func (f *FaultFS) Rename(oldname, newname string) error {
	if inject, apply, err := f.step(); inject {
		if apply {
			_ = f.Inner.Rename(oldname, newname)
		}
		return err
	}
	return f.Inner.Rename(oldname, newname)
}

func (f *FaultFS) Remove(name string) error {
	if inject, apply, err := f.step(); inject {
		if apply {
			_ = f.Inner.Remove(name)
		}
		return err
	}
	return f.Inner.Remove(name)
}

func (f *FaultFS) Truncate(name string, size int64) error {
	if inject, apply, err := f.step(); inject {
		if apply {
			_ = f.Inner.Truncate(name, size)
		}
		return err
	}
	return f.Inner.Truncate(name, size)
}

func (f *FaultFS) SyncDir(dir string) error {
	if inject, apply, err := f.step(); inject {
		if apply {
			_ = f.Inner.SyncDir(dir)
		}
		return err
	}
	return f.Inner.SyncDir(dir)
}

// faultHandle intercepts Write and Sync on files opened for writing.
type faultHandle struct {
	fs    *FaultFS
	inner File
}

func (h *faultHandle) Read(p []byte) (int, error) { return h.inner.Read(p) }

func (h *faultHandle) ReadAt(p []byte, off int64) (int, error) { return h.inner.ReadAt(p, off) }

func (h *faultHandle) Write(p []byte) (int, error) {
	if inject, apply, err := h.fs.step(); inject {
		n := 0
		if apply && err == ErrInjected {
			// Short write: a prefix lands before the failure.
			n = h.fs.rng.Intn(len(p) + 1)
			if n > 0 {
				_, _ = h.inner.Write(p[:n])
			}
		}
		return n, err
	}
	return h.inner.Write(p)
}

func (h *faultHandle) Sync() error {
	if inject, apply, err := h.fs.step(); inject {
		if apply && err == ErrInjected {
			_ = h.inner.Sync()
		}
		return err
	}
	return h.inner.Sync()
}

func (h *faultHandle) Close() error { return h.inner.Close() }
