package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"

	"repro/internal/engine"
)

// The one reader of segment files. Open validates every file's envelope
// with openSegMeta (header, zone block, footer — a handful of small
// reads) and attaches the segment faultable behind its segLoader, which
// then reads, checks (checkSection) and decodes (decodeSection) one
// column section per fault into the shared buffer pool. Corruption
// quarantines the file whenever it is found: at Open for the envelope,
// at the first read for a section. Retention unlinks a file only after
// handing its segment a read handle (segMeta.retire), so a table version
// from before the retention pass reads on until it is dropped.

// segMeta is everything needed to serve one sealed segment file without
// re-reading its header: the per-column section layout (computed from
// the schema, cross-checked against the zone block) and the decoded
// zone maps, immutable after openSegMeta; plus the handle retire opens.
type segMeta struct {
	path   string
	segIdx int
	secOff []int64 // absolute offset of each column's u32 length prefix
	secLen []int   // section payload bytes (excluding prefix and CRC)
	dictHW []uint32
	zones  []engine.ZoneInfo // nil when the zone block is damaged

	mu   sync.Mutex
	held File // nil while the file is live under path
	bad  bool // quarantined at fault time
}

// retire opens the read handle stale readers fault through once
// retention unlinks the file; call it before the unlink, while a version
// holding the segment is reachable (so drop has not run). Best effort:
// without a handle a stale read fails like any I/O error.
func (m *segMeta) retire(fs FS) {
	if f, err := fs.Open(m.path); err == nil {
		m.mu.Lock()
		m.held = f
		m.mu.Unlock()
	}
}

// handle returns the retired file's read handle, nil while it is live.
func (m *segMeta) handle() File {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.held
}

// drop closes the retired handle, if any — the cleanup of the segment's
// segLoader, run once no table version holds the segment.
func (m *segMeta) drop() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.held != nil {
		_ = m.held.Close()
		m.held = nil
	}
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
// cells. It is the only decoder of column data — run once per fault —
// and trusts nothing about its input: wrong-sized or out-of-range bytes
// are an error, never a panic.
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
		if typ == engine.TFloat {
			for i := range ch.Vals {
				ch.Vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(cells[i*8:]))
			}
		} else {
			for i := range ch.Vals {
				ch.Vals[i] = float64(int64(binary.LittleEndian.Uint64(cells[i*8:])))
			}
		}
		nan := math.NaN()
		for w := range ch.Null {
			null := binary.LittleEndian.Uint64(nulls[w*8:])
			ch.Null[w] = null
			for ; null != 0; null &= null - 1 {
				ch.Vals[w<<6+bits.TrailingZeros64(null)] = nan
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

// tableLoader is one table's fault-time state, shared by its
// segLoaders: the DB-wide buffer pool decoded chunks are cached in, the
// segment files still live (metas), and the fault-time quarantine
// record.
//
// It deliberately holds NO reference to the tableStore and takes no
// table lock: faults happen under the engine's view lock (which
// RetainCtx acquires while holding the table lock), so touching the
// table lock here would deadlock. The quarantine record has its own
// leaf mutex; metas changes only under the table lock (Open, RetainCtx)
// and is never read on the fault path.
type tableLoader struct {
	pool    *bufferPool
	fs      FS
	name    string
	schema  engine.Schema
	segBits uint
	metas   map[int]*segMeta // live segment files by stream segment index
	logf    func(string, ...any)

	mu          sync.Mutex
	quarantined []string
}

// newLoader builds table name's loader, faulting through the store's
// pool; it serves no segment until Open attaches one (segment).
func (s *DB) newLoader(name string, schema engine.Schema, segBits uint) *tableLoader {
	return &tableLoader{
		pool:    s.pool,
		fs:      s.fs,
		name:    name,
		schema:  schema,
		segBits: segBits,
		metas:   make(map[int]*segMeta),
		logf:    s.opts.Logf,
	}
}

// segment registers the segment file m and returns its
// engine.ChunkLoader, to attach it with. The engine segment holds the
// only lasting reference to that loader, so once no table version holds
// the segment it is collected and m's retired handle closed.
func (l *tableLoader) segment(m *segMeta) engine.ChunkLoader {
	l.metas[m.segIdx] = m
	sl := &segLoader{l: l, m: m}
	runtime.AddCleanup(sl, (*segMeta).drop, m)
	return sl
}

// retireBelow prepares the live segment files below stream segment
// firstKept for retention's unlink: each gets its read handle and
// leaves metas. Caller holds the table lock.
func (l *tableLoader) retireBelow(firstKept int) {
	for idx, m := range l.metas {
		if idx < firstKept {
			m.retire(l.fs)
			delete(l.metas, idx)
		}
	}
}

// quarantine renames a segment file whose section failed verification
// at fault time — same containment as recovery-time quarantine — and
// returns the error to surface to the faulting query, wrapping
// ErrQuarantined.
func (l *tableLoader) quarantine(m *segMeta, why string) error {
	m.mu.Lock()
	first := !m.bad
	m.bad = true
	m.mu.Unlock()
	if first {
		l.mu.Lock()
		l.quarantined = append(l.quarantined, fmt.Sprintf("%s: %s", m.path, why))
		l.mu.Unlock()
		if err := l.fs.Rename(m.path, m.path+".quarantined"); err == nil {
			_ = l.fs.SyncDir(dirOf(m.path))
		}
		l.logf("store: %s: quarantined at fault time: %s", m.path, why)
	}
	return fmt.Errorf("store: %s: %s: %w", m.path, why, ErrQuarantined)
}

// quarantineRecords returns the fault-time quarantine log, merged into
// TableStats alongside recovery-time quarantines.
func (l *tableLoader) quarantineRecords() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.quarantined...)
}

// load reads column col's section of m through read, checks it and
// decodes the chunk of the given kind. Corruption quarantines the
// segment file (rename + record, once); plain I/O failures do not.
func (l *tableLoader) load(m *segMeta, read func(p []byte, off int64) (int, error), col int, kind chunkKind) (engine.Chunk, error) {
	bp := sectionBufs.Get().(*[]byte)
	defer sectionBufs.Put(bp)
	if need := 4 + m.secLen[col] + 4; cap(*bp) < need {
		*bp = make([]byte, need)
	} else {
		*bp = (*bp)[:need]
	}
	buf := *bp
	if _, err := read(buf, m.secOff[col]); err != nil {
		return engine.Chunk{}, fmt.Errorf("read section: %w", err)
	}
	section, err := checkSection(buf, m.secLen[col])
	var ch engine.Chunk
	if err == nil {
		ch, err = decodeSection(section, l.schema[col].Type, l.segBits, kind, m.dictHW[col])
	}
	if err != nil {
		return engine.Chunk{}, l.quarantine(m, fmt.Sprintf("column %d %v", col, err))
	}
	return ch, nil
}

// sectionBufs recycles the section read buffers of load: a decoded chunk
// keeps none of its buffer's bytes, so a fault allocates only its chunk.
var sectionBufs = sync.Pool{New: func() any { return new([]byte) }}

// segLoader serves one recovered segment's chunk faults: it implements
// engine.ChunkLoader over the segment file m. A live file is read by
// path and its chunks cached in the buffer pool; a retired one (its
// file unlinked by retention, its pool entries dropped) is read through
// its handle, uncached, for the stale versions still reading it.
type segLoader struct {
	l *tableLoader
	m *segMeta
}

var _ engine.ChunkLoader = (*segLoader)(nil)

// pin faults column col's chunk of the given kind.
func (sl *segLoader) pin(col int, kind chunkKind) (engine.Chunk, func(), bool, error) {
	l, m := sl.l, sl.m
	if h := m.handle(); h != nil {
		ch, err := l.load(m, h.ReadAt, col, kind)
		return ch, func() {}, true, err
	}
	e, release, missed, err := l.pool.acquire(chunkKey{table: l.name, seg: m.segIdx, col: col, kind: kind}, func(e *poolEntry) (int64, error) {
		var err error
		e.chunk, err = l.load(m, func(p []byte, off int64) (int, error) { return l.fs.ReadAt(m.path, off, p) }, col, kind)
		return int64(e.chunk.Bytes()), err
	})
	if err != nil {
		if !errors.Is(err, ErrQuarantined) && m.handle() != nil {
			return sl.pin(col, kind) // retention unlinked the file mid-read
		}
		return engine.Chunk{}, nil, missed, err
	}
	return e.chunk, release, missed, nil
}

// PinFloat implements engine.ChunkLoader: the float64 decode (NaN at
// NULL positions) plus NULL bitmap words of numeric column col.
func (sl *segLoader) PinFloat(_, col int) ([]float64, []uint64, func(), bool, error) {
	ch, release, missed, err := sl.pin(col, chunkFloat)
	return ch.Vals, ch.Null, release, missed, err
}

// PinCodes implements engine.ChunkLoader: the i32 dictionary codes
// (-1 = NULL) of string column col, served directly from the on-disk
// code section (the engine dictionary was preloaded from the store
// dictionary, so the code spaces coincide).
func (sl *segLoader) PinCodes(_, col int) ([]int32, func(), bool, error) {
	ch, release, missed, err := sl.pin(col, chunkCodes)
	return ch.Codes, release, missed, err
}

// PinInt implements engine.ChunkLoader: the exact int64 cells of
// int-like column col (0 at NULL positions) — the 8-byte arm behind
// per-cell boxing of values past float64's 2^53.
func (sl *segLoader) PinInt(_, col int) ([]int64, func(), bool, error) {
	ch, release, missed, err := sl.pin(col, chunkInt)
	return ch.Ints, release, missed, err
}
