package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"repro/internal/engine"
)

// Out-of-core open path. When Options.MaxResidentBytes > 0 the store
// does NOT decode segment files at Open — it reads and validates only
// their headers (and zone blocks) via openSegMeta, attaches faultable
// segments to the engine, and serves chunk faults through tableLoader,
// which decodes sections on demand into the shared buffer pool.
// Section payloads are checksum-verified at fault time, not at open;
// corruption detected then quarantines the file exactly like the eager
// path does at recovery.

// segMeta is everything the loader needs to serve one sealed segment
// file without re-reading its header: the per-column section layout
// (computed from the schema, cross-checked against the v2 zone block)
// and the decoded zone maps. Immutable after openSegMeta.
type segMeta struct {
	path   string
	segIdx int
	secOff []int64 // absolute offset of each column's u32 length prefix
	secLen []int   // section payload bytes (excluding prefix and CRC)
	dictHW []uint32
	zones  []engine.ZoneInfo // nil when absent or damaged (v1 files)
}

// maxSegHeaderLen bounds the header allocation before trusting the
// length field of an unverified file.
const maxSegHeaderLen = 1 << 20

// openSegMeta validates a segment file's envelope — magic, header
// checksum and schema echo, computed layout, footer — with a handful
// of small random-access reads, never touching the column sections.
// A validation failure returns an error and the caller quarantines the
// file, with ONE exception: a damaged v2 zone block only degrades to
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
	version := int(h.u32())
	if version != formatVersion && version != formatVersionV1 {
		return nil, fmt.Errorf("format version %d (want %d..%d)", version, formatVersionV1, formatVersion)
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

	secBase, fileSize := segLayout(version, headerLen, schema, segBits)
	off := int64(secBase)
	for c, col := range schema {
		m.secOff[c] = off
		m.secLen[c] = sectionBytes(col.Type, segBits)
		off += int64(4 + m.secLen[c] + 4)
	}

	if version >= formatVersion {
		zoneOff := int64(len(pre) + headerLen + 4)
		wantLen := zoneRecBytes * len(schema)
		zb := make([]byte, 4+wantLen+4)
		m.zones = decodeZoneBlock(fs, path, zoneOff, zb, wantLen, m, segRows, logf)
	}

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

// decodeZoneBlock reads and verifies the v2 zone block, returning nil
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

// readSection faults one column's raw section bytes and verifies its
// framing and CRC. Corruption quarantines the segment file (rename +
// record, once) and returns the error; plain I/O failures — including
// a file unlinked by retention under a stale reader — do not.
func (l *tableLoader) readSection(m *segMeta, col int) ([]byte, error) {
	secLen := m.secLen[col]
	buf := make([]byte, 4+secLen+4)
	if _, err := l.fs.ReadAt(m.path, m.secOff[col], buf); err != nil {
		return nil, fmt.Errorf("read section: %w", err)
	}
	if int(binary.LittleEndian.Uint32(buf)) != secLen {
		return nil, l.quarantine(m, fmt.Sprintf("column %d section length prefix mismatch", col))
	}
	section := buf[4 : 4+secLen]
	if crc(section) != binary.LittleEndian.Uint32(buf[4+secLen:]) {
		return nil, l.quarantine(m, fmt.Sprintf("column %d section checksum mismatch", col))
	}
	return section, nil
}

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

func (l *tableLoader) meta(seg int) (*segMeta, error) {
	if m := l.metas[seg]; m != nil {
		return m, nil
	}
	return nil, fmt.Errorf("store: %s: no segment file for stream segment %d", l.name, seg)
}

// PinFloat implements engine.ChunkLoader: the float64 decode (NaN at
// NULL positions, matching the engine's resident decode) plus NULL
// bitmap words of numeric column col in stream segment seg.
func (l *tableLoader) PinFloat(seg, col int) (vals []float64, null []uint64, release func(), missed bool, err error) {
	m, err := l.meta(seg)
	if err != nil {
		return nil, nil, nil, false, err
	}
	typ := l.schema[col].Type
	e, release, missed, err := l.pool.acquire(chunkKey{table: l.name, seg: seg, col: col, kind: chunkFloat}, func(e *poolEntry) (int64, error) {
		section, err := l.readSection(m, col)
		if err != nil {
			return 0, err
		}
		segRows := 1 << l.segBits
		segWords := segRows / 64
		nulls := section[:segWords*8]
		cells := section[segWords*8:]
		fv := make([]float64, segRows)
		nw := make([]uint64, segWords)
		for w := 0; w < segWords; w++ {
			nw[w] = binary.LittleEndian.Uint64(nulls[w*8:])
		}
		for i := 0; i < segRows; i++ {
			if nw[i>>6]&(1<<(uint(i)&63)) != 0 {
				fv[i] = math.NaN()
				continue
			}
			bits := binary.LittleEndian.Uint64(cells[i*8:])
			if typ == engine.TFloat {
				fv[i] = math.Float64frombits(bits)
			} else {
				fv[i] = float64(int64(bits))
			}
		}
		e.vals, e.null = fv, nw
		return int64(len(fv)*8 + len(nw)*8), nil
	})
	if err != nil {
		return nil, nil, nil, missed, err
	}
	return e.vals, e.null, release, missed, nil
}

// PinCodes implements engine.ChunkLoader: the i32 dictionary codes
// (-1 = NULL) of string column col in stream segment seg, served
// directly from the on-disk code section (the engine dictionary was
// preloaded from the store dictionary, so the code spaces coincide).
func (l *tableLoader) PinCodes(seg, col int) (codes []int32, release func(), missed bool, err error) {
	m, err := l.meta(seg)
	if err != nil {
		return nil, nil, false, err
	}
	e, release, missed, err := l.pool.acquire(chunkKey{table: l.name, seg: seg, col: col, kind: chunkCodes}, func(e *poolEntry) (int64, error) {
		section, err := l.readSection(m, col)
		if err != nil {
			return 0, err
		}
		segRows := 1 << l.segBits
		segWords := segRows / 64
		nulls := section[:segWords*8]
		cells := section[segWords*8:]
		cc := make([]int32, segRows)
		hw := int32(m.dictHW[col])
		for i := 0; i < segRows; i++ {
			if binary.LittleEndian.Uint64(nulls[(i>>6)*8:])&(1<<(uint(i)&63)) != 0 {
				cc[i] = -1
				continue
			}
			code := int32(binary.LittleEndian.Uint32(cells[i*4:]))
			if code < 0 || code >= hw {
				return 0, l.quarantine(m, fmt.Sprintf("column %d row %d: dictionary code %d out of range", col, i, code))
			}
			cc[i] = code
		}
		e.codes = cc
		return int64(len(cc) * 4), nil
	})
	if err != nil {
		return nil, nil, missed, err
	}
	return e.codes, release, missed, nil
}

// PinInt implements engine.ChunkLoader: the exact int64 cells of
// int-like column col in stream segment seg (0 at NULL positions) — the
// 8-byte arm behind per-cell boxing of values past float64's 2^53.
func (l *tableLoader) PinInt(seg, col int) (cells []int64, release func(), missed bool, err error) {
	m, err := l.meta(seg)
	if err != nil {
		return nil, nil, false, err
	}
	e, release, missed, err := l.pool.acquire(chunkKey{table: l.name, seg: seg, col: col, kind: chunkInt}, func(e *poolEntry) (int64, error) {
		section, err := l.readSection(m, col)
		if err != nil {
			return 0, err
		}
		segRows := 1 << l.segBits
		raw := section[segRows/64*8:]
		e.ints = make([]int64, segRows)
		for i := range e.ints {
			e.ints[i] = int64(binary.LittleEndian.Uint64(raw[i*8:]))
		}
		return int64(segRows * 8), nil
	})
	if err != nil {
		return nil, nil, missed, err
	}
	return e.ints, release, missed, nil
}
