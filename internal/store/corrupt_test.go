package store

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/testgen"
)

// Corruption (a flipped bit on the platter — NOT a torn write) must be
// DETECTED by a checksum and answered with quarantine + suffix
// serving, never with silently wrong query results and never by
// refusing to start.

// buildFixture creates a store with 4 sealed segments (64 rows each)
// plus a 10-row WAL tail, closed cleanly. Deterministic per seed.
func buildFixture(t *testing.T) (*MemFS, [][]engine.Value) {
	t.Helper()
	mem := NewMemFS()
	st, err := Open("/db", quietOpts(mem, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CreateTable("p", testgen.Schema(), engine.MinSegmentBits); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	var oracle [][]engine.Value
	for i := 0; i < 4; i++ {
		batch := testgen.Batch(rng, 64)
		if _, err := st.Append("p", batch); err != nil {
			t.Fatal(err)
		}
		oracle = append(oracle, batch...)
	}
	batch := testgen.Batch(rng, 10)
	if _, err := st.Append("p", batch); err != nil {
		t.Fatal(err)
	}
	oracle = append(oracle, batch...)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return mem, oracle
}

func reopenFixture(t *testing.T, mem *MemFS) (*DB, *engine.Table, TableStats) {
	t.Helper()
	st, err := Open("/db", quietOpts(mem, 1))
	if err != nil {
		t.Fatalf("corrupted store refused to open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	tab, err := st.Eng().Table("p")
	if err != nil {
		t.Fatalf("corrupted store lost the table entirely: %v", err)
	}
	return st, tab, st.Stats().Tables["p"]
}

// TestCorruptMidSegment flips one bit per part of an interior segment
// file — header, zone block, every column's section, the whole-file
// checksum, the footer — and reopens RESIDENT: every flavor must be
// caught before the table is served and quarantined, and the table
// served from the suffix above the damage.
func TestCorruptMidSegment(t *testing.T) {
	const victim = "/db/p/seg-00000002.seg"
	probe, _ := buildFixture(t)
	size, err := probe.FileSize(victim)
	if err != nil {
		t.Fatal(err)
	}
	headerLen := segHeaderLen(t, probe, victim)
	cases := map[string]int64{
		"header":      10, // inside the headerLen/header bytes
		"zone-block":  int64(len(segMagic)+4+headerLen+4) + 4 + 16,
		"column-data": size / 2, // inside some column section
		"file-crc":    size - 10,
		"end-magic":   size - 3,
	}
	secOff, _ := segLayout(headerLen, testgen.Schema(), engine.MinSegmentBits)
	for _, col := range testgen.Schema() {
		secLen := sectionBytes(col.Type, engine.MinSegmentBits)
		cases["section-"+col.Name] = int64(secOff + 4 + secLen/2)
		secOff += 4 + secLen + 4
	}
	for name, off := range cases {
		t.Run(name, func(t *testing.T) {
			mem, oracle := buildFixture(t)
			if err := mem.FlipBit(victim, off, uint(off)%8); err != nil {
				t.Fatal(err)
			}
			_, tab, ts := reopenFixture(t, mem)
			if len(ts.Quarantined) != 1 || ts.Quarantined[0] != "seg-00000002.seg" {
				t.Fatalf("quarantined %v, want exactly seg-00000002.seg", ts.Quarantined)
			}
			if ts.GapSegments != 3 {
				t.Fatalf("gap of %d segments reported, want 3", ts.GapSegments)
			}
			if tab.Base() != 192 || tab.Version() != 266 {
				t.Fatalf("served base/version %d/%d, want the 192/266 suffix", tab.Base(), tab.Version())
			}
			requireRowsMatch(t, tab, oracle)
			// The damaged file is set aside, not deleted; the stranded
			// valid segments below it are left untouched.
			var aside, stranded bool
			for _, f := range mem.Files() {
				if strings.HasSuffix(f, "seg-00000002.seg.quarantined") {
					aside = true
				}
				if strings.HasSuffix(f, "seg-00000000.seg") {
					stranded = true
				}
				if f == victim {
					t.Fatalf("damaged file still present under its live name")
				}
			}
			if !aside || !stranded {
				t.Fatalf("quarantine was destructive: aside=%v stranded-kept=%v", aside, stranded)
			}
		})
	}
}

// TestCorruptNewestSegment damages the newest sealed segment: the
// served suffix is then just the WAL tail.
func TestCorruptNewestSegment(t *testing.T) {
	mem, oracle := buildFixture(t)
	if err := mem.FlipBit("/db/p/seg-00000003.seg", 200, 5); err != nil {
		t.Fatal(err)
	}
	_, tab, ts := reopenFixture(t, mem)
	if len(ts.Quarantined) != 1 || ts.GapSegments != 4 {
		t.Fatalf("quarantined=%v gap=%d, want 1 file and a 4-segment gap", ts.Quarantined, ts.GapSegments)
	}
	if tab.Base() != 256 || tab.Version() != 266 {
		t.Fatalf("served base/version %d/%d, want tail-only 256/266", tab.Base(), tab.Version())
	}
	requireRowsMatch(t, tab, oracle)
}

// TestCorruptManifest flips a bit in the manifest: recovery rebuilds
// it from the schema echo in a segment header and loses nothing.
func TestCorruptManifest(t *testing.T) {
	mem, oracle := buildFixture(t)
	if err := mem.FlipBit("/db/p/manifest.json", 30, 2); err != nil {
		t.Fatal(err)
	}
	_, tab, ts := reopenFixture(t, mem)
	if len(ts.Quarantined) != 0 || ts.GapSegments != 0 {
		t.Fatalf("manifest rebuild quarantined data: %+v", ts)
	}
	if tab.Base() != 0 || tab.Version() != 266 {
		t.Fatalf("rebuilt table base/version %d/%d, want 0/266", tab.Base(), tab.Version())
	}
	requireRowsMatch(t, tab, oracle)
}

// TestCorruptWAL flips a bit in the WAL tail record: indistinguishable
// from a torn write, so the tail is truncated away — sealed data stays.
func TestCorruptWAL(t *testing.T) {
	mem, oracle := buildFixture(t)
	if err := mem.FlipBit("/db/p/wal.log", int64(len(walMagic))+6, 1); err != nil {
		t.Fatal(err)
	}
	_, tab, ts := reopenFixture(t, mem)
	if len(ts.Quarantined) != 0 || ts.GapSegments != 0 {
		t.Fatalf("wal damage quarantined sealed data: %+v", ts)
	}
	if tab.Base() != 0 || tab.Version() != 256 {
		t.Fatalf("base/version %d/%d, want sealed prefix 0/256", tab.Base(), tab.Version())
	}
	requireRowsMatch(t, tab, oracle)
}

// TestCorruptDict damages the dictionary. Record damage truncates the
// dictionary, and every segment whose header demands more entries than
// survive must quarantine itself rather than decode strings wrongly;
// magic damage quarantines the whole dictionary file. Either way the
// WAL tail (strings inline) still serves.
func TestCorruptDict(t *testing.T) {
	for name, off := range map[string]int64{"record": int64(len(dictMagic)) + 3, "magic": 2} {
		t.Run(name, func(t *testing.T) {
			mem, oracle := buildFixture(t)
			if err := mem.FlipBit("/db/p/dict.log", off, 4); err != nil {
				t.Fatal(err)
			}
			_, tab, ts := reopenFixture(t, mem)
			nq := len(ts.Quarantined)
			if name == "record" && nq != 4 || name == "magic" && nq != 5 {
				t.Fatalf("%s damage quarantined %v", name, ts.Quarantined)
			}
			if tab.Base() != 256 || tab.Version() != 266 {
				t.Fatalf("base/version %d/%d, want tail-only 256/266", tab.Base(), tab.Version())
			}
			requireRowsMatch(t, tab, oracle)
		})
	}
}

// restampFileCRC recomputes a segment file's whole-file checksum after a
// test edited its bytes: what is left is damage only the edited part's
// own checksum can catch.
func restampFileCRC(t *testing.T, fs *MemFS, path string, edit func(image []byte)) {
	t.Helper()
	image, err := readFileAll(fs, path)
	if err != nil {
		t.Fatal(err)
	}
	edit(image)
	end := len(image) - len(segEndMagic) - 4
	copy(image[end:], appendU32(nil, crc(image[:end])))
	if err := writeFileAtomic(fs, path, image); err != nil {
		t.Fatal(err)
	}
}

// TestResidentZoneDamageDegrades: a zone block that fails its own
// checksum inside a file whose whole-file checksum holds (a bad block
// written, not a bit rotted) costs a resident table nothing — it never
// prunes by zone maps anyway. The segment is served, not quarantined,
// the reason logged: losing pruning must never lose the table.
func TestResidentZoneDamageDegrades(t *testing.T) {
	const victim = "/db/p/seg-00000001.seg"
	mem, oracle := buildFixture(t)
	zoneBody := len(segMagic) + 4 + segHeaderLen(t, mem, victim) + 4 + 4
	restampFileCRC(t, mem, victim, func(image []byte) { image[zoneBody+20] ^= 0x10 })

	var logged []string
	o := quietOpts(mem, 1)
	o.Logf = func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }
	st, err := Open("/db", o)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tab, err := st.Eng().Table("p")
	if err != nil {
		t.Fatal(err)
	}
	if ts := st.Stats().Tables["p"]; len(ts.Quarantined) != 0 || ts.GapSegments != 0 || tab.Base() != 0 || tab.Version() != 266 {
		t.Fatalf("zone damage cost data: %+v, base/version %d/%d", ts, tab.Base(), tab.Version())
	}
	if !strings.Contains(strings.Join(logged, "\n"), "zone block ignored") {
		t.Fatalf("no zone degradation log; got %q", logged)
	}
	requireRowsMatch(t, tab, oracle)

	// The same edit inside a column section is caught by the section's
	// checksum, though the whole-file checksum holds.
	mem2, oracle2 := buildFixture(t)
	_, fileSize := segLayout(segHeaderLen(t, mem2, victim), testgen.Schema(), engine.MinSegmentBits)
	restampFileCRC(t, mem2, victim, func(image []byte) { image[fileSize/2] ^= 0x10 })
	_, tab2, ts2 := reopenFixture(t, mem2)
	if len(ts2.Quarantined) != 1 || ts2.Quarantined[0] != "seg-00000001.seg" || tab2.Base() != 128 {
		t.Fatalf("section damage under a valid file checksum: quarantined %v, base %d", ts2.Quarantined, tab2.Base())
	}
	requireRowsMatch(t, tab2, oracle2)
}
