package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"repro/internal/engine"
)

// The one reader of segment files. Open validates every file's envelope
// with openSegMeta (header, zone block, footer — a handful of small
// reads) and then either decodes all of it at once (loadChunks: the
// resident open, MaxResidentBytes == 0, which also verifies the
// whole-file checksum) or attaches the segment faultable and lets
// tableLoader decode sections on demand into the shared buffer pool,
// their checksums verified at fault time. Both run the same section
// check (checkSection) and the same section decoder (decodeSection), so
// a file reads the same either way; corruption quarantines the file
// whenever it is found.

// segMeta is everything needed to serve one sealed segment file without
// re-reading its header: the per-column section layout (computed from
// the schema, cross-checked against the zone block) and the decoded
// zone maps. Immutable after openSegMeta.
type segMeta struct {
	path     string
	segIdx   int
	fileSize int
	secOff   []int64 // absolute offset of each column's u32 length prefix
	secLen   []int   // section payload bytes (excluding prefix and CRC)
	dictHW   []uint32
	zones    []engine.ZoneInfo // nil when the zone block is damaged
}

// maxSegHeaderLen bounds the header allocation before trusting the
// length field of an unverified file.
const maxSegHeaderLen = 1 << 20

// openSegMeta validates a segment file's envelope — magic, header
// checksum and schema echo, computed layout, footer — with a handful
// of small random-access reads, never touching the column sections.
// A validation failure returns an error and the caller quarantines the
// file, with ONE exception: a damaged zone block only degrades to
// zones == nil (logged), because the data sections carry their own
// CRCs and remain perfectly servable — losing pruning must never lose
// the table.
func openSegMeta(fs FS, path string, schema engine.Schema, segBits uint, wantIdx int, dict *storeDict, logf func(string, ...any)) (*segMeta, error) {
	segRows := 1 << segBits
	pre := make([]byte, len(segMagic)+4)
	if _, err := fs.ReadAt(path, 0, pre); err != nil {
		return nil, fmt.Errorf("read magic: %w", err)
	}
	if string(pre[:len(segMagic)]) != segMagic {
		return nil, fmt.Errorf("bad magic")
	}
	headerLen := int(binary.LittleEndian.Uint32(pre[len(segMagic):]))
	if headerLen <= 0 || headerLen > maxSegHeaderLen {
		return nil, fmt.Errorf("implausible header length %d", headerLen)
	}
	hb := make([]byte, headerLen+4)
	if _, err := fs.ReadAt(path, int64(len(pre)), hb); err != nil {
		return nil, fmt.Errorf("read header: %w", err)
	}
	header := hb[:headerLen]
	if crc(header) != binary.LittleEndian.Uint32(hb[headerLen:]) {
		return nil, fmt.Errorf("header checksum mismatch")
	}

	h := &byteReader{b: header}
	if version := h.u32(); version != formatVersion {
		return nil, fmt.Errorf("unsupported format version %d", version)
	}
	if sb := h.u32(); sb != uint32(segBits) {
		return nil, fmt.Errorf("segment bits %d (want %d)", sb, segBits)
	}
	if idx := h.u64(); idx != uint64(wantIdx) {
		return nil, fmt.Errorf("stream segment index %d (want %d)", idx, wantIdx)
	}
	if nr := h.u32(); nr != uint32(segRows) {
		return nil, fmt.Errorf("row count %d (want %d)", nr, segRows)
	}
	ncols := h.u32()
	if !h.ok() || ncols != uint32(len(schema)) {
		return nil, fmt.Errorf("column count %d (want %d)", ncols, len(schema))
	}
	m := &segMeta{
		path:   path,
		segIdx: wantIdx,
		secOff: make([]int64, len(schema)),
		secLen: make([]int, len(schema)),
		dictHW: make([]uint32, len(schema)),
	}
	for c, col := range schema {
		nameLen := h.u16()
		name := h.take(int(nameLen))
		typ := h.u8()
		m.dictHW[c] = h.u32()
		if !h.ok() || string(name) != col.Name || engine.Type(typ) != col.Type {
			return nil, fmt.Errorf("schema mismatch at column %d (%q %d, want %q %s)", c, name, typ, col.Name, col.Type)
		}
		if col.Type == engine.TString && int(m.dictHW[c]) > dict.count(c) {
			return nil, fmt.Errorf("column %s needs %d dictionary entries, only %d survive", col.Name, m.dictHW[c], dict.count(c))
		}
	}
	if h.remaining() != 0 {
		return nil, fmt.Errorf("%d trailing header bytes", h.remaining())
	}

	secBase, fileSize := segLayout(headerLen, schema, segBits)
	m.fileSize = fileSize
	off := int64(secBase)
	for c, col := range schema {
		m.secOff[c] = off
		m.secLen[c] = sectionBytes(col.Type, segBits)
		off += int64(4 + m.secLen[c] + 4)
	}

	zoneOff := int64(len(pre) + headerLen + 4)
	wantLen := zoneRecBytes * len(schema)
	zb := make([]byte, 4+wantLen+4)
	m.zones = decodeZoneBlock(fs, path, zoneOff, zb, wantLen, m, segRows, logf)

	// Footer: the end magic must sit exactly where the computed layout
	// says, and the file must stop there.
	foot := make([]byte, len(segEndMagic))
	if _, err := fs.ReadAt(path, int64(fileSize-len(segEndMagic)), foot); err != nil {
		return nil, fmt.Errorf("read footer: %w", err)
	}
	if string(foot) != segEndMagic {
		return nil, fmt.Errorf("bad footer magic (truncated?)")
	}
	if n, err := fs.ReadAt(path, int64(fileSize), make([]byte, 1)); err == nil && n > 0 {
		return nil, fmt.Errorf("trailing bytes after footer")
	}
	return m, nil
}

// decodeZoneBlock reads and verifies the zone block, returning nil
// (after logging) on any damage — never an error.
func decodeZoneBlock(fs FS, path string, zoneOff int64, zb []byte, wantLen int, m *segMeta, segRows int, logf func(string, ...any)) []engine.ZoneInfo {
	degrade := func(why string) []engine.ZoneInfo {
		if logf != nil {
			logf("store: %s: zone block ignored (%s); scans fall back to full-segment masks", path, why)
		}
		return nil
	}
	if _, err := fs.ReadAt(path, zoneOff, zb); err != nil {
		return degrade(err.Error())
	}
	if int(binary.LittleEndian.Uint32(zb)) != wantLen {
		return degrade("length mismatch")
	}
	body := zb[4 : 4+wantLen]
	if crc(body) != binary.LittleEndian.Uint32(zb[4+wantLen:]) {
		return degrade("checksum mismatch")
	}
	r := &byteReader{b: body}
	zones := make([]engine.ZoneInfo, len(m.secOff))
	for c := range zones {
		secOff, secLen, z := readZoneRec(r, segRows)
		if !r.ok() || secOff != uint64(m.secOff[c]) || int(secLen) != m.secLen[c] {
			return degrade(fmt.Sprintf("column %d layout echo mismatch", c))
		}
		zones[c] = z
	}
	return zones
}

// checkSection verifies one column section's framing (u32 length |
// section | u32 crc, secLen payload bytes expected) and returns the
// payload, or what is wrong with it.
func checkSection(buf []byte, secLen int) ([]byte, error) {
	if len(buf) != 4+secLen+4 || int(binary.LittleEndian.Uint32(buf)) != secLen {
		return nil, fmt.Errorf("section length prefix mismatch")
	}
	section := buf[4 : 4+secLen]
	if crc(section) != binary.LittleEndian.Uint32(buf[4+secLen:]) {
		return nil, fmt.Errorf("section checksum mismatch")
	}
	return section, nil
}

// decodeSection decodes one checked column section into the typed chunk
// of the given kind: float values (NaN at NULL) + NULL words, dictionary
// codes (-1 at NULL, every other one below dictHW), or exact int64
// cells. It is the only decoder of column data — run per fault out of
// core, for every column at a resident Open — and trusts nothing about
// its input: wrong-sized or out-of-range bytes are an error, never a
// panic.
func decodeSection(section []byte, typ engine.Type, segBits uint, kind chunkKind, dictHW uint32) (engine.Chunk, error) {
	segRows := 1 << segBits
	if kind > chunkInt || (kind == chunkCodes) != (typ == engine.TString) || len(section) != sectionBytes(typ, segBits) {
		return engine.Chunk{}, fmt.Errorf("%d-byte section does not hold a kind-%d chunk of a %s column", len(section), kind, typ)
	}
	nulls, cells := section[:segRows/8], section[segRows/8:]
	var ch engine.Chunk
	switch kind {
	case chunkFloat:
		ch.Vals, ch.Null = make([]float64, segRows), make([]uint64, segRows/64)
		for w := range ch.Null {
			ch.Null[w] = binary.LittleEndian.Uint64(nulls[w*8:])
		}
		for i := range ch.Vals {
			bits := binary.LittleEndian.Uint64(cells[i*8:])
			switch {
			case ch.Null[i>>6]&(1<<(uint(i)&63)) != 0:
				ch.Vals[i] = math.NaN()
			case typ == engine.TFloat:
				ch.Vals[i] = math.Float64frombits(bits)
			default:
				ch.Vals[i] = float64(int64(bits))
			}
		}
	case chunkCodes:
		ch.Codes = make([]int32, segRows)
		for i := range ch.Codes {
			code := int32(binary.LittleEndian.Uint32(cells[i*4:]))
			switch {
			case nulls[i>>3]&(1<<(uint(i)&7)) != 0: // bit i of the little-endian NULL words
				code = -1
			case code < 0 || uint32(code) >= dictHW:
				return engine.Chunk{}, fmt.Errorf("row %d: dictionary code %d out of range", i, code)
			}
			ch.Codes[i] = code
		}
	case chunkInt:
		ch.Ints = make([]int64, segRows)
		for i := range ch.Ints {
			ch.Ints[i] = int64(binary.LittleEndian.Uint64(cells[i*8:]))
		}
	}
	return ch, nil
}

// loadChunks is the resident half of Open: it reads m's whole file,
// verifies the whole-file checksum on top of what openSegMeta checked,
// and decodes every column section into the chunk the engine will hold
// (an int-like column's exact cells only where its floats have rounded).
func loadChunks(fs FS, m *segMeta, schema engine.Schema, segBits uint) ([]engine.Chunk, error) {
	data, err := readFileAll(fs, m.path)
	if err != nil {
		return nil, err
	}
	crcEnd := m.fileSize - len(segEndMagic) - 4
	if len(data) != m.fileSize || crc(data[:crcEnd]) != binary.LittleEndian.Uint32(data[crcEnd:]) {
		return nil, fmt.Errorf("file checksum mismatch")
	}
	chunks := make([]engine.Chunk, len(schema))
	for c, col := range schema {
		kind := chunkFloat
		if col.Type == engine.TString {
			kind = chunkCodes
		}
		section, err := checkSection(data[m.secOff[c]:m.secOff[c]+int64(4+m.secLen[c]+4)], m.secLen[c])
		if err == nil {
			chunks[c], err = decodeSection(section, col.Type, segBits, kind, m.dictHW[c])
		}
		if err != nil {
			return nil, fmt.Errorf("column %s: %w", col.Name, err)
		}
		if kind == chunkFloat && col.Type != engine.TFloat && engine.RoundedInts(chunks[c].Vals, chunks[c].Null) {
			exact, _ := decodeSection(section, col.Type, segBits, chunkInt, 0) // same section: cannot fail now
			chunks[c].Ints = exact.Ints
		}
	}
	return chunks, nil
}

// tableLoader serves one table's chunk faults: it implements
// engine.ChunkLoader over the segment files indexed by metas, caching
// decoded chunks in the DB-wide buffer pool.
//
// It deliberately holds NO reference to the tableStore and takes no
// table lock: faults happen under the engine's view lock (which
// RetainCtx acquires while holding the table lock), so touching the
// table lock here would deadlock. The only mutable state — the
// fault-time quarantine record — has its own leaf mutex.
type tableLoader struct {
	pool    *bufferPool
	fs      FS
	name    string
	schema  engine.Schema
	segBits uint
	metas   map[int]*segMeta // by stream segment index; immutable after Open
	logf    func(string, ...any)

	mu             sync.Mutex
	quarantined    []string
	quarantinedSet map[int]bool
}

var _ engine.ChunkLoader = (*tableLoader)(nil)

// quarantine renames a segment file whose section failed verification
// at fault time — same containment as recovery-time quarantine — and
// returns the error to surface to the faulting query.
func (l *tableLoader) quarantine(m *segMeta, why string) error {
	l.mu.Lock()
	first := !l.quarantinedSet[m.segIdx]
	if first {
		if l.quarantinedSet == nil {
			l.quarantinedSet = make(map[int]bool)
		}
		l.quarantinedSet[m.segIdx] = true
		l.quarantined = append(l.quarantined, fmt.Sprintf("%s: %s", m.path, why))
	}
	l.mu.Unlock()
	if first {
		if err := l.fs.Rename(m.path, m.path+".quarantined"); err == nil {
			_ = l.fs.SyncDir(dirOf(m.path))
		}
		if l.logf != nil {
			l.logf("store: %s: quarantined at fault time: %s", m.path, why)
		}
	}
	return fmt.Errorf("store: %s: %s", m.path, why)
}

// quarantineRecords returns the fault-time quarantine log, merged into
// TableStats alongside recovery-time quarantines.
func (l *tableLoader) quarantineRecords() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.quarantined...)
}

// pin faults column col's chunk of the given kind in stream segment seg
// through the pool: read the section, check it, decode it. Corruption
// quarantines the segment file (rename + record, once) and returns the
// error; plain I/O failures — including a file unlinked by retention
// under a stale reader — do not.
func (l *tableLoader) pin(seg, col int, kind chunkKind) (engine.Chunk, func(), bool, error) {
	m := l.metas[seg]
	if m == nil {
		return engine.Chunk{}, nil, false, fmt.Errorf("store: %s: no segment file for stream segment %d", l.name, seg)
	}
	e, release, missed, err := l.pool.acquire(chunkKey{table: l.name, seg: seg, col: col, kind: kind}, func(e *poolEntry) (int64, error) {
		buf := make([]byte, 4+m.secLen[col]+4)
		if _, err := l.fs.ReadAt(m.path, m.secOff[col], buf); err != nil {
			return 0, fmt.Errorf("read section: %w", err)
		}
		section, err := checkSection(buf, m.secLen[col])
		if err == nil {
			e.chunk, err = decodeSection(section, l.schema[col].Type, l.segBits, kind, m.dictHW[col])
		}
		if err != nil {
			return 0, l.quarantine(m, fmt.Sprintf("column %d %v", col, err))
		}
		return int64(e.chunk.Bytes()), nil
	})
	if err != nil {
		return engine.Chunk{}, nil, missed, err
	}
	return e.chunk, release, missed, nil
}

// PinFloat implements engine.ChunkLoader: the float64 decode (NaN at
// NULL positions) plus NULL bitmap words of numeric column col in
// stream segment seg.
func (l *tableLoader) PinFloat(seg, col int) ([]float64, []uint64, func(), bool, error) {
	ch, release, missed, err := l.pin(seg, col, chunkFloat)
	return ch.Vals, ch.Null, release, missed, err
}

// PinCodes implements engine.ChunkLoader: the i32 dictionary codes
// (-1 = NULL) of string column col in stream segment seg, served
// directly from the on-disk code section (the engine dictionary was
// preloaded from the store dictionary, so the code spaces coincide).
func (l *tableLoader) PinCodes(seg, col int) ([]int32, func(), bool, error) {
	ch, release, missed, err := l.pin(seg, col, chunkCodes)
	return ch.Codes, release, missed, err
}

// PinInt implements engine.ChunkLoader: the exact int64 cells of
// int-like column col in stream segment seg (0 at NULL positions) — the
// 8-byte arm behind per-cell boxing of values past float64's 2^53.
func (l *tableLoader) PinInt(seg, col int) ([]int64, func(), bool, error) {
	ch, release, missed, err := l.pin(seg, col, chunkInt)
	return ch.Ints, release, missed, err
}
