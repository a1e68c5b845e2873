// Package vfstest is the store's test filesystem: MemFS, an in-memory
// vfs.FS with an explicit crash-durability model that is also the
// fault injector. It lets the recovery tests crash a workload at EVERY
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
// A fault lands on a failpoint, an operation where a real system call
// could fail or a power cut could land: Create, OpenAppend, Rename,
// Remove, Truncate, SyncDir, and Write and Sync on a handle from Create
// or OpenAppend. FailAt(n) fails the nth failpoint with ErrInjected,
// perhaps after a short write, and the process continues: the
// fail-stop path, where the store must surface the error and keep
// serving already-durable data. CrashAt(n) kills the simulated process
// there: the op takes partial effect or none, and every later
// operation, reads included, returns ErrCrashed until Crash reboots.
// Open, ReadDir and ReadAt are not failpoints; MkdirAll neither counts
// nor refuses. FailReadAt(n) fails the nth ReadAt, the buffer pool's
// chunk-fault read.
//
// The store's recovery tests crash a workload at every failpoint,
// reboot, reopen, and require the recovered table to match an oracle
// that holds exactly the acknowledged batches. Production opens use
// vfs.OSFS.
package vfstest

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/vfs"
)

// ErrInjected is returned by the operation an armed fault lands on.
var ErrInjected = errors.New("vfstest: injected I/O fault")

// ErrCrashed is returned by every operation after a CrashAt crash
// point, and by every handle opened before the last Crash: the
// simulated process is dead and must "reboot" by calling Crash and
// re-opening the store.
var ErrCrashed = errors.New("vfstest: filesystem crashed (reboot required)")

// memFile is one file's two images: data is the live content, synced
// the content guaranteed to survive a crash.
type memFile struct {
	data   []byte
	synced []byte
}

func (f *memFile) readAt(p []byte, off int64) (int, error) {
	if off < 0 || off > int64(len(f.data)) {
		return 0, fmt.Errorf("memfs: readat: offset %d out of range %d", off, len(f.data))
	}
	n := copy(p, f.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// MemFS is an in-memory vfs.FS with POSIX-shaped crash semantics and
// one armable fault. The zero value is not usable; call NewMemFS.
type MemFS struct {
	mu sync.Mutex
	// cur is the live namespace; durable the namespace guaranteed to
	// survive a crash (entries move from cur to durable on SyncDir of
	// their parent). Both map to shared *memFile identities.
	cur     map[string]*memFile
	durable map[string]*memFile
	dirs    map[string]bool

	// ops counts failpoints since the last arm; the failAt'th fails,
	// and crashes the process when crash is set. reads counts ReadAt
	// calls since the last FailReadAt; the failRead'th fails. boot
	// counts Crash calls: a handle from an earlier boot is dead.
	ops, failAt     int
	crash, crashed  bool
	rng             *rand.Rand
	reads, failRead int
	boot            int
}

// NewMemFS returns an empty in-memory filesystem with no fault armed.
func NewMemFS() *MemFS {
	return &MemFS{
		cur:     make(map[string]*memFile),
		durable: make(map[string]*memFile),
		dirs:    make(map[string]bool),
	}
}

// FailAt arms one fail-stop fault: the nth failpoint from now (1-based)
// fails with ErrInjected and the process continues. rng drives the
// partial-effect choices.
func (m *MemFS) FailAt(n int, rng *rand.Rand) { m.arm(n, false, rng) }

// CrashAt arms one crash: the nth failpoint from now (1-based) fails
// with ErrInjected, and every later operation with ErrCrashed, until
// Crash reboots.
func (m *MemFS) CrashAt(n int, rng *rand.Rand) { m.arm(n, true, rng) }

func (m *MemFS) arm(n int, crash bool, rng *rand.Rand) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ops, m.failAt, m.crash, m.crashed, m.rng = 0, n, crash, false, rng
}

// Ops reports the failpoints passed since the last arm (or
// construction): run a workload once unarmed to size the crash matrix.
func (m *MemFS) Ops() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ops
}

// FailReadAt arms one read fault: the nth ReadAt from now (1-based)
// fails with ErrInjected. 0 disarms it.
func (m *MemFS) FailReadAt(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reads, m.failRead = 0, n
}

// Reads reports the ReadAt calls since the last FailReadAt.
func (m *MemFS) Reads() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.reads
}

// step passes one failpoint. apply says whether the op takes (partial)
// effect; a non-nil err fails it all the same. Caller holds m.mu.
func (m *MemFS) step() (apply bool, err error) {
	if m.crashed {
		return false, ErrCrashed
	}
	m.ops++
	if m.failAt > 0 && m.ops == m.failAt {
		m.crashed = m.crash
		// Whether the dying op's effect reached the disk is exactly
		// what a crashed process cannot know; flip a coin.
		return m.rng.Intn(2) == 1, ErrInjected
	}
	return true, nil
}

func (m *MemFS) MkdirAll(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for d := filepath.Clean(dir); d != "." && d != string(filepath.Separator); d = filepath.Dir(d) {
		m.dirs[d] = true
	}
	return nil
}

func (m *MemFS) ReadDir(dir string) ([]vfs.DirEnt, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return nil, ErrCrashed
	}
	dir = filepath.Clean(dir)
	if !m.dirs[dir] {
		return nil, fmt.Errorf("memfs: readdir %s: no such directory", dir)
	}
	var out []vfs.DirEnt
	for p := range m.cur {
		if filepath.Dir(p) == dir {
			out = append(out, vfs.DirEnt{Name: filepath.Base(p)})
		}
	}
	for d := range m.dirs {
		if filepath.Dir(d) == dir {
			out = append(out, vfs.DirEnt{Name: filepath.Base(d), Dir: true})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

func (m *MemFS) Create(name string) (vfs.File, error)     { return m.openWrite(name, true) }
func (m *MemFS) OpenAppend(name string) (vfs.File, error) { return m.openWrite(name, false) }

// openWrite opens name for writing, truncating it or creating it if
// absent.
func (m *MemFS) openWrite(name string, truncate bool) (vfs.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	apply, err := m.step()
	if !apply {
		return nil, err
	}
	name = filepath.Clean(name)
	f, ok := m.cur[name]
	if !ok || truncate {
		f = &memFile{}
		m.cur[name] = f
	}
	if err != nil {
		return nil, err
	}
	return &memHandle{fs: m, f: f, boot: m.boot, write: true}, nil
}

func (m *MemFS) Open(name string) (vfs.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return nil, ErrCrashed
	}
	f, ok := m.cur[filepath.Clean(name)]
	if !ok {
		return nil, fmt.Errorf("memfs: open %s: no such file", name)
	}
	return &memHandle{fs: m, f: f, boot: m.boot}, nil
}

func (m *MemFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	apply, err := m.step()
	if !apply {
		return err
	}
	oldname, newname = filepath.Clean(oldname), filepath.Clean(newname)
	f, ok := m.cur[oldname]
	if !ok {
		return cmp.Or(err, fmt.Errorf("memfs: rename %s: no such file", oldname))
	}
	m.cur[newname] = f
	delete(m.cur, oldname)
	return err
}

func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	apply, err := m.step()
	if !apply {
		return err
	}
	name = filepath.Clean(name)
	if _, ok := m.cur[name]; !ok {
		return cmp.Or(err, fmt.Errorf("memfs: remove %s: no such file", name))
	}
	delete(m.cur, name)
	return err
}

func (m *MemFS) Truncate(name string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	apply, err := m.step()
	if !apply {
		return err
	}
	f, ok := m.cur[filepath.Clean(name)]
	if !ok {
		return cmp.Or(err, fmt.Errorf("memfs: truncate %s: no such file", name))
	}
	if int(size) < len(f.data) {
		f.data = append([]byte(nil), f.data[:size]...)
	}
	return err
}

// ReadAt reads from the live image at an offset (the buffer pool's
// chunk-fault read path).
func (m *MemFS) ReadAt(name string, off int64, p []byte) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return 0, ErrCrashed
	}
	if m.reads++; m.reads == m.failRead {
		return 0, ErrInjected
	}
	f, ok := m.cur[filepath.Clean(name)]
	if !ok {
		return 0, fmt.Errorf("memfs: readat %s: no such file", name)
	}
	return f.readAt(p, off)
}

// SyncDir commits dir's pending namespace operations: after it
// returns, the files currently named under dir survive a crash under
// those names (with whatever content THEY have synced).
func (m *MemFS) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	apply, err := m.step()
	if !apply {
		return err
	}
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
	return err
}

// Crash simulates a power cut and the reboot after it: the namespace
// reverts to the durable image with each pending namespace op applied
// independently with probability 1/2, and every file's content reverts
// to its synced image plus a random-length prefix of its unsynced
// appended suffix (the torn-write model). Every armed fault is
// disarmed, and every handle opened before the cut returns ErrCrashed.
// After Crash the filesystem represents what a rebooted process would
// find; reuse it with a fresh Open.
func (m *MemFS) Crash(rng *rand.Rand) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.boot++
	m.failAt, m.failRead, m.crashed = 0, 0, false
	next := maps.Clone(m.durable)
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
	m.durable = maps.Clone(next)
}

// Clone returns a new MemFS holding m's live files and directories,
// every file durable, with no fault armed.
func (m *MemFS) Clone() *MemFS {
	c := NewMemFS()
	m.mu.Lock()
	defer m.mu.Unlock()
	maps.Copy(c.dirs, m.dirs)
	for p, f := range m.cur {
		data := append([]byte(nil), f.data...)
		nf := &memFile{data: data, synced: append([]byte(nil), data...)}
		c.cur[p], c.durable[p] = nf, nf
	}
	return c
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

// memHandle is one open descriptor. Write and Sync are failpoints, and
// only a handle from Create or OpenAppend may call them; a handle from
// an earlier boot, or any handle while the filesystem is crashed,
// returns ErrCrashed.
type memHandle struct {
	fs    *MemFS
	f     *memFile
	off   int
	boot  int
	write bool
}

// dead reports ErrCrashed for a handle the dead process holds. Caller
// holds h.fs.mu.
func (h *memHandle) dead() error {
	if h.boot != h.fs.boot || h.fs.crashed {
		return ErrCrashed
	}
	return nil
}

func (h *memHandle) Read(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if err := h.dead(); err != nil {
		return 0, err
	}
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
	if err := h.dead(); err != nil {
		return 0, err
	}
	return h.f.readAt(p, off)
}

// mutate is Write's and Sync's failpoint. Caller holds h.fs.mu.
func (h *memHandle) mutate() (apply bool, err error) {
	if err := h.dead(); err != nil {
		return false, err
	}
	if !h.write {
		return false, fmt.Errorf("memfs: write or sync on a read-only handle")
	}
	return h.fs.step()
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	apply, err := h.mutate()
	n := len(p)
	if err != nil {
		n = 0
		if apply {
			// Short write: a prefix lands before the failure.
			n = h.fs.rng.Intn(len(p) + 1)
		}
	}
	h.f.data = append(h.f.data, p[:n]...)
	return n, err
}

func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	apply, err := h.mutate()
	if apply {
		h.f.synced = append([]byte(nil), h.f.data...)
	}
	return err
}

func (h *memHandle) Close() error { return nil }
