package store

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/testgen"
	"repro/internal/vfs/vfstest"
)

// Corruption (a flipped bit on the platter — NOT a torn write) must be
// DETECTED by a checksum and answered with quarantine + suffix
// serving, never with silently wrong query results and never by
// refusing to start.

// buildFixture creates a store with 4 sealed segments (64 rows each)
// plus a 10-row WAL tail, closed cleanly. Deterministic per seed.
func buildFixture(t *testing.T) (*vfstest.MemFS, [][]engine.Value) {
	t.Helper()
	mem := vfstest.NewMemFS()
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

func reopenFixture(t *testing.T, mem *vfstest.MemFS) (*DB, *engine.Table, TableStats) {
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

// requireSetAside asserts the damaged file is set aside, not deleted,
// and the stranded valid segment 0 below it is left untouched.
func requireSetAside(t *testing.T, mem *vfstest.MemFS, victim string) {
	t.Helper()
	var aside, stranded bool
	for _, f := range mem.Files() {
		if f == victim+".quarantined" {
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
}

// requireReadQuarantines holds a fixture whose segment file victim has
// a damaged column section to the read-time half of the corruption
// contract: Open serves the whole table, the first read of the damaged
// section fails with a *engine.SegmentLoadError and quarantines the
// file, and a reopen serves the suffix above the gap — base, version
// and gap as given — every row matching the oracle.
func requireReadQuarantines(t *testing.T, mem *vfstest.MemFS, victim string, oracle [][]engine.Value, base, version, gap int) {
	t.Helper()
	st, tab, ts := reopenFixture(t, mem)
	if len(ts.Quarantined) != 0 || tab.Base() != 0 || tab.Version() != len(oracle) {
		t.Fatalf("Open checked a column section: quarantined %v, base/version %d/%d", ts.Quarantined, tab.Base(), tab.Version())
	}
	var sle *engine.SegmentLoadError
	if err := readRows(t, tab, oracle); !errors.As(err, &sle) {
		t.Fatalf("first read of the damaged section: %v, want a *engine.SegmentLoadError", err)
	}
	if q := st.Stats().Tables["p"].Quarantined; len(q) != 1 || !strings.HasPrefix(q[0], victim+": ") {
		t.Fatalf("read-time quarantine recorded %v, want %s", q, victim)
	}
	requireSetAside(t, mem, victim)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	_, tab, ts = reopenFixture(t, mem)
	if ts.GapSegments != gap || tab.Base() != base || tab.Version() != version {
		t.Fatalf("reopen serves base/version %d/%d with a %d-segment gap, want %d/%d and %d",
			tab.Base(), tab.Version(), ts.GapSegments, base, version, gap)
	}
	requireRowsMatch(t, tab, oracle)
}

// TestCorruptMidSegment flips one bit per part of an interior segment
// file — header, zone block, every column's section, the whole-file
// checksum, the footer. Envelope damage (header, footer) is caught at
// Open, which quarantines the file and serves the suffix above it;
// section damage is caught by the first read of that section, and the
// next Open serves the same suffix. A zone-block flip only costs
// pruning, and nothing reads the whole-file checksum: both serve every
// row.
func TestCorruptMidSegment(t *testing.T) {
	const victim = "/db/p/seg-00000002.seg"
	probe, _ := buildFixture(t)
	size, err := probe.FileSize(victim)
	if err != nil {
		t.Fatal(err)
	}
	headerLen := segHeaderLen(t, probe, victim)
	type flavor struct {
		off    int64
		caught string // "open", "read" or "" (harmless)
	}
	cases := map[string]flavor{
		"header":      {10, "open"}, // inside the headerLen/header bytes
		"zone-block":  {int64(len(segMagic)+4+headerLen+4) + 4 + 16, ""},
		"column-data": {size / 2, "read"}, // inside some column section
		"file-crc":    {size - 10, ""},
		"end-magic":   {size - 3, "open"},
	}
	secOff, _ := segLayout(headerLen, testgen.Schema(), engine.MinSegmentBits)
	for _, col := range testgen.Schema() {
		secLen := sectionBytes(col.Type, engine.MinSegmentBits)
		cases["section-"+col.Name] = flavor{int64(secOff + 4 + secLen/2), "read"}
		secOff += 4 + secLen + 4
	}
	for name, fl := range cases {
		t.Run(name, func(t *testing.T) {
			mem, oracle := buildFixture(t)
			if err := mem.FlipBit(victim, fl.off, uint(fl.off)%8); err != nil {
				t.Fatal(err)
			}
			switch fl.caught {
			case "read":
				requireReadQuarantines(t, mem, victim, oracle, 192, 266, 3)
			case "open":
				_, tab, ts := reopenFixture(t, mem)
				if len(ts.Quarantined) != 1 || ts.Quarantined[0] != "seg-00000002.seg" {
					t.Fatalf("quarantined %v, want exactly seg-00000002.seg", ts.Quarantined)
				}
				if ts.GapSegments != 3 || tab.Base() != 192 || tab.Version() != 266 {
					t.Fatalf("served base/version %d/%d with a %d-segment gap, want the 192/266 suffix and 3",
						tab.Base(), tab.Version(), ts.GapSegments)
				}
				requireRowsMatch(t, tab, oracle)
				requireSetAside(t, mem, victim)
			default:
				st, tab, ts := reopenFixture(t, mem)
				if len(ts.Quarantined) != 0 || ts.GapSegments != 0 || tab.Base() != 0 || tab.Version() != 266 {
					t.Fatalf("harmless flip cost data: %+v, base/version %d/%d", ts, tab.Base(), tab.Version())
				}
				requireRowsMatch(t, tab, oracle)
				if q := st.Stats().Tables["p"].Quarantined; len(q) != 0 {
					t.Fatalf("harmless flip quarantined %v on read", q)
				}
			}
		})
	}
}

// TestEveryFlippedByteCaughtOrHarmless flips one bit of every byte of an
// interior segment file in turn, opens the store with default options
// and reads every cell. Each flip must end one way: Open quarantines the
// file; or a read fails with a *engine.SegmentLoadError and quarantines
// it; or every cell matches the oracle — allowed only inside the
// whole-file CRC field, which nothing reads, and the zone block, whose
// damage costs only pruning. Every other byte is under a header, zone,
// section-length or section CRC check, which is what the whole-file CRC
// used to guarantee. No outcome may serve a wrong cell. Under -short
// every 7th byte is flipped.
func TestEveryFlippedByteCaughtOrHarmless(t *testing.T) {
	const victim = "/db/p/seg-00000002.seg"
	fixture, oracle := buildFixture(t)
	size, err := fixture.FileSize(victim)
	if err != nil {
		t.Fatal(err)
	}
	zoneLo := int64(len(segMagic) + 4 + segHeaderLen(t, fixture, victim) + 4)
	zoneHi := zoneLo + int64(4+zoneRecBytes*len(testgen.Schema())+4)
	crcLo := size - int64(len(segEndMagic)+4)
	harmless := func(off int64) bool { return zoneLo <= off && off < zoneHi || crcLo <= off && off < crcLo+4 }
	stride := int64(1)
	if testing.Short() {
		stride = 7
	}
	var atOpen, atRead, served int
	for off := int64(0); off < size; off += stride {
		mem := fixture.Clone()
		if err := mem.FlipBit(victim, off, uint(off)%8); err != nil {
			t.Fatal(err)
		}
		st, err := Open("/db", quietOpts(mem, 1))
		if err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		tab, err := st.Eng().Table("p")
		if err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		openQ := st.Stats().Tables["p"].Quarantined
		readErr := readRows(t, tab, oracle)
		readQ := st.Stats().Tables["p"].Quarantined
		var sle *engine.SegmentLoadError
		switch {
		case len(openQ) > 0:
			if len(openQ) != 1 || openQ[0] != "seg-00000002.seg" || readErr != nil {
				t.Fatalf("offset %d: Open quarantined %v, then the suffix read %v", off, openQ, readErr)
			}
			atOpen++
		case errors.As(readErr, &sle):
			if len(readQ) != 1 || !strings.HasPrefix(readQ[0], victim+": ") {
				t.Fatalf("offset %d: read failed (%v) but quarantined %v", off, readErr, readQ)
			}
			atRead++
		case readErr != nil:
			t.Fatalf("offset %d: read failed with %v, want a *engine.SegmentLoadError", off, readErr)
		case !harmless(off):
			t.Fatalf("offset %d: the flip went unchecked — outside the file CRC and the zone block, every cell served", off)
		case tab.Base() != 0 || tab.Version() != len(oracle):
			t.Fatalf("offset %d: harmless flip served base/version %d/%d", off, tab.Base(), tab.Version())
		default:
			served++
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("%d-byte file, stride %d: %d caught at Open, %d at first read, %d harmless", size, stride, atOpen, atRead, served)
}

// TestCorruptNewestSegment damages a column section of the newest
// sealed segment: once the first read has quarantined it, the served
// suffix is just the WAL tail.
func TestCorruptNewestSegment(t *testing.T) {
	const victim = "/db/p/seg-00000003.seg"
	mem, oracle := buildFixture(t)
	size, err := mem.FileSize(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.FlipBit(victim, size/2, 5); err != nil {
		t.Fatal(err)
	}
	requireReadQuarantines(t, mem, victim, oracle, 256, 266, 4)
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

// TestDecodersRejectMalformed feeds hand-made malformed bytes to the
// decoders of untrusted input that the corruption tests above do not
// reach: each must fail with its reason.
func TestDecodersRejectMalformed(t *testing.T) {
	fixture, _ := buildFixture(t)
	seg, err := readFileAll(fixture, "/db/p/seg-00000001.seg")
	if err != nil {
		t.Fatal(err)
	}
	badMagic := append([]byte(nil), seg...)
	badMagic[0] ^= 1
	wal := func(body ...byte) error {
		_, err := decodeWALBody(body, engine.NewBatch(testgen.Schema(), 0))
		return err
	}
	header := func(nrows uint32) []byte { return appendU32(appendU64(nil, 0), nrows) } // start row 0
	for _, c := range []struct {
		name, want string
		err        error
	}{
		{"segment magic", "bad magic", func() error { _, _, err := readSegHeader(badMagic); return err }()},
		{"WAL record shorter than its header", "implausible row count", wal(1, 2, 3)},
		{"WAL row count past the body", "implausible row count 1000", wal(header(1000)...)},
		{"WAL cell tag", "bad cell tag 2", wal(append(header(1), 2)...)},
	} {
		if c.err == nil || !strings.Contains(c.err.Error(), c.want) {
			t.Errorf("%s: got error %v, want %q", c.name, c.err, c.want)
		}
	}
	if _, _, err := readSegHeader(seg); err != nil {
		t.Fatalf("the undamaged segment header: %v", err)
	}
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
func restampFileCRC(t *testing.T, fs *vfstest.MemFS, path string, edit func(image []byte)) {
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
// written, not a bit rotted) costs an uncapped open only its pruning.
// The segment is served, not quarantined, the reason logged: losing
// pruning must never lose the table.
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
	if _, ok := tab.SegmentZone(1, 0); ok {
		t.Fatal("damaged zone block still served")
	}
	requireRowsMatch(t, tab, oracle)

	// The same edit inside a column section is caught by the section's
	// checksum on first read, though the whole-file checksum holds.
	mem2, oracle2 := buildFixture(t)
	_, fileSize := segLayout(segHeaderLen(t, mem2, victim), testgen.Schema(), engine.MinSegmentBits)
	restampFileCRC(t, mem2, victim, func(image []byte) { image[fileSize/2] ^= 0x10 })
	requireReadQuarantines(t, mem2, victim, oracle2, 128, 266, 2)
}
