package vfstest

import (
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/vfs"
)

var _ vfs.FS = (*MemFS)(nil)

// must returns v, panicking on err.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// durable returns a MemFS whose /d/f holds s, synced and durably named,
// and the handle that wrote it.
func durable(s string) (*MemFS, vfs.File) {
	m := NewMemFS()
	must(0, m.MkdirAll("/d"))
	f := must(m.Create("/d/f"))
	must(f.Write([]byte(s)))
	must(0, f.Sync())
	must(0, m.SyncDir("/d"))
	return m, f
}

func content(m *MemFS, name string) string { return string(must(io.ReadAll(must(m.Open(name))))) }

// A torn crash keeps every synced byte and a prefix of the unsynced
// ones; across seeds both ends of that range turn up.
func TestCrashTearsUnsyncedSuffix(t *testing.T) {
	lens := map[int]bool{}
	for seed := range int64(64) {
		m, f := durable("synced|")
		must(f.Write([]byte("unsynced")))
		m.Crash(rand.New(rand.NewSource(seed)))
		got := content(m, "/d/f")
		if !strings.HasPrefix("synced|unsynced", got) || len(got) < len("synced|") {
			t.Fatalf("seed %d: the crash left %q", seed, got)
		}
		lens[len(got)] = true
	}
	if !lens[len("synced|")] || !lens[len("synced|unsynced")] {
		t.Fatalf("torn lengths seen %v: an end of the range is missing", lens)
	}
}

// A rename without SyncDir may be lost in a crash; one with it survives.
func TestRenameDurableOnlyAfterSyncDir(t *testing.T) {
	lost := map[bool]int{}
	for seed := range int64(32) {
		for _, syncDir := range []bool{false, true} {
			m, _ := durable("x")
			must(0, m.Rename("/d/f", "/d/g"))
			if syncDir {
				must(0, m.SyncDir("/d"))
			}
			m.Crash(rand.New(rand.NewSource(seed)))
			if _, err := m.FileSize("/d/g"); err != nil {
				lost[syncDir]++
			}
		}
	}
	if lost[true] != 0 || lost[false] == 0 || lost[false] == 32 {
		t.Fatalf("renames lost of 32: %d after SyncDir, %d without; want none, and some but not all", lost[true], lost[false])
	}
}

// The namespace and read contract the store relies on: a removal or a
// truncation with SyncDir and Sync survives a crash, ReadDir lists files
// and directories sorted, a short ReadAt returns io.EOF, and a Clone
// shares no bytes with its source.
func TestNamespaceAndReads(t *testing.T) {
	m, f := durable("abcdef")
	must(0, m.MkdirAll("/d/sub"))
	must(m.Create("/d/gone"))
	must(0, m.Truncate("/d/f", 4))
	must(0, f.Sync())
	must(0, m.SyncDir("/d"))
	must(0, m.Remove("/d/gone"))
	must(0, m.SyncDir("/d"))
	m.Crash(rand.New(rand.NewSource(1)))
	if ents := must(m.ReadDir("/d")); len(ents) != 2 || ents[0] != (vfs.DirEnt{Name: "f"}) || ents[1] != (vfs.DirEnt{Name: "sub", Dir: true}) {
		t.Fatalf("ReadDir after the crash: %+v", ents)
	}
	p := make([]byte, 3)
	if n, err := m.ReadAt("/d/f", 2, p); n != 2 || err != io.EOF || string(p[:n]) != "cd" {
		t.Fatalf("a read past the end returned %d %q, %v", n, p[:n], err)
	}
	c := m.Clone()
	must(0, c.FlipBit("/d/f", 0, 0))
	if content(m, "/d/f") != "abcd" || content(c, "/d/f") != "`bcd" {
		t.Fatalf("a flip in the clone reached the source, or missed the clone")
	}
}

// FailAt fails exactly the nth failpoint with ErrInjected, a write with
// a prefix of its bytes, and the operations after it succeed.
func TestFailAtFailsOneOpAndContinues(t *testing.T) {
	short := false
	for seed := range int64(16) {
		m, f := durable("ab")
		m.FailAt(2, rand.New(rand.NewSource(seed)))
		must(f.Write([]byte("cd")))
		n, err := f.Write([]byte("efgh"))
		if !errors.Is(err, ErrInjected) || n > 4 {
			t.Fatalf("seed %d: the armed write returned %d, %v", seed, n, err)
		}
		short = short || 0 < n && n < 4
		must(f.Write([]byte("ij")))
		must(0, f.Sync())
		if got, want := content(m, "/d/f"), "abcd"+"efgh"[:n]+"ij"; got != want || m.Ops() != 4 {
			t.Fatalf("seed %d: %q after %d failpoints, want %q after 4", seed, got, m.Ops(), want)
		}
	}
	if !short {
		t.Fatal("no seed gave a short write")
	}
}

// CrashAt refuses every later operation and read with ErrCrashed, and
// counts none, until Crash reboots: handles from before it stay dead,
// and the filesystem serves again.
func TestCrashAtRefusesUntilCrash(t *testing.T) {
	m, f := durable("abc")
	r := must(m.Open("/d/f"))
	m.CrashAt(1, rand.New(rand.NewSource(1)))
	if _, err := m.Create("/d/g"); !errors.Is(err, ErrInjected) {
		t.Fatalf("the crash point returned %v", err)
	}
	p := make([]byte, 1)
	for op, err := range map[string]error{
		"create":      func() error { _, err := m.Create("/d/h"); return err }(),
		"append":      func() error { _, err := m.OpenAppend("/d/h"); return err }(),
		"open":        func() error { _, err := m.Open("/d/f"); return err }(),
		"readdir":     func() error { _, err := m.ReadDir("/d"); return err }(),
		"readat":      func() error { _, err := m.ReadAt("/d/f", 0, p); return err }(),
		"remove":      m.Remove("/d/f"),
		"rename":      m.Rename("/d/f", "/d/h"),
		"truncate":    m.Truncate("/d/f", 0),
		"syncdir":     m.SyncDir("/d"),
		"write":       func() error { _, err := f.Write(p); return err }(),
		"sync":        f.Sync(),
		"handle read": func() error { _, err := r.ReadAt(p, 0); return err }(),
	} {
		if !errors.Is(err, ErrCrashed) {
			t.Errorf("%s on a crashed filesystem returned %v", op, err)
		}
	}
	if m.Ops() != 1 {
		t.Errorf("refused operations counted as failpoints: %d", m.Ops())
	}
	must(0, m.MkdirAll("/e"))

	m.Crash(rand.New(rand.NewSource(2)))
	if _, err := r.Read(p); !errors.Is(err, ErrCrashed) {
		t.Errorf("a read handle from before the crash returned %v", err)
	}
	if _, err := f.Write(p); !errors.Is(err, ErrCrashed) {
		t.Errorf("a write handle from before the crash returned %v", err)
	}
	must(must(m.OpenAppend("/d/f")).Write([]byte("d")))
	if got := content(m, "/d/f"); got != "abcd" {
		t.Fatalf("the rebooted filesystem holds %q, want the synced abc and the new d", got)
	}
}

// FailReadAt(n) fails exactly the nth ReadAt, once, and counts no
// failpoint.
func TestFailReadAtFailsOneRead(t *testing.T) {
	m, _ := durable("abcd")
	m.FailReadAt(3)
	p := make([]byte, 2)
	for i := 1; i <= 5; i++ {
		_, err := m.ReadAt("/d/f", 1, p)
		if failed := errors.Is(err, ErrInjected); failed != (i == 3) || !failed && err != nil {
			t.Fatalf("read %d returned %v", i, err)
		}
	}
	if string(p) != "bc" || m.Reads() != 5 || m.Ops() != 4 {
		t.Fatalf("read %q, counted %d reads and %d failpoints; want bc, 5 and 4", p, m.Reads(), m.Ops())
	}
}
