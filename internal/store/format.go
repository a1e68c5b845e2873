package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"
	"sync"

	"repro/internal/engine"
)

// On-disk formats. All integers are little-endian and fixed-width; all
// checksums are CRC32-C (Castagnoli). Three file kinds share the
// discipline "every byte is covered by a checksum, every file ends in
// a recognizable footer":
//
// Sealed segment file (seg-<idx>.seg), written once via
// write-temp → fsync → rename → dir-fsync so it is either whole or
// absent:
//
//	magic "DWSEG01\n"
//	u32 headerLen | header | u32 crc(header)
//	  header: u32 formatVersion, u32 segBits, u64 segIdx (stream
//	  segment index), u32 nrows, u32 ncols, then per column
//	  {u16 nameLen, name, u8 type, u32 dictHW} — the schema echo lets
//	  recovery rebuild a lost manifest, and dictHW is the number of
//	  dictionary entries (per column) the code section requires.
//	u32 zoneLen | zoneBody | u32 crc(zoneBody)
//	  zoneBody: zoneRecBytes per column {u64 sectionOff (absolute file
//	  offset of the column's u32 length prefix), u32 sectionLen,
//	  u64 minBits, u64 maxBits (IEEE bits of the non-NULL non-NaN
//	  range), u32 nullCount, u32 nanCount, u32 flags (bit0 = range
//	  valid, bit1 = presence valid), 32 bytes presence bitmap (bit
//	  code%256 set iff the dict code occurs)} — the zone maps that let
//	  scans prune whole segments without reading the sections, with
//	  their own CRC so a damaged zone block degrades to "no pruning"
//	  instead of quarantining the (still checksummed) data sections.
//	per column: u32 sectionLen | section | u32 crc(section)
//	  section: NULL bitmap (segRows/64 u64 words, bit i = row i NULL),
//	  then segRows fixed-width cells: int64 payload for bool/int/time,
//	  IEEE bits for float, i32 dictionary code (-1 = NULL) for string.
//	u32 crc(whole file so far) | magic "DWSEGEND"
//
// Version rule: the file magic identifies the KIND, the header's
// formatVersion the LAYOUT. This reader knows exactly one layout (2);
// any other version — the retired zone-less version 1 included — is
// rejected with "unsupported format version N" and the file quarantined
// like any undecodable one.
//
// Dictionary file (dict.log), append-only, one record per newly
// interned string, fsync'd before any segment file that references it:
//
//	magic "DWDIC01\n"
//	record: u16 col | u32 strLen | bytes | u32 crc(record body)
//
// WAL (wal.log): see wal.go. Manifest (manifest.json): JSON payload
// wrapped with a crc32c of its raw bytes, replaced atomically.

const (
	// formatVersion is the one layout written and read (see the version
	// rule above).
	formatVersion = 2

	// zoneRecBytes is the fixed size of one column's zone record inside
	// the zone block: 8 (sectionOff) + 4 (sectionLen) + 8 + 8
	// (min/max bits) + 4 + 4 (null/nan counts) + 4 (flags) + 32
	// (presence bitmap).
	zoneRecBytes = 72

	zoneFlagRange    = 1 << 0
	zoneFlagPresence = 1 << 1

	segMagic    = "DWSEG01\n"
	segEndMagic = "DWSEGEND"
	dictMagic   = "DWDIC01\n"
	walMagic    = "DWWAL01\n"

	manifestName = "manifest.json"
	dictFileName = "dict.log"
	walFileName  = "wal.log"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func crc(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// segFileName names sealed stream segment idx.
func segFileName(idx int) string { return fmt.Sprintf("seg-%08d.seg", idx) }

// parseSegFileName extracts the stream segment index, or -1.
func parseSegFileName(name string) int {
	var idx int
	if n, err := fmt.Sscanf(name, "seg-%d.seg", &idx); n == 1 && err == nil && name == segFileName(idx) {
		return idx
	}
	return -1
}

// ---- little-endian append/read helpers ----

func appendU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// byteReader is a bounds-checked sequential reader over one buffer;
// after any out-of-bounds read ok() is false and every later read
// returns zero, so decoders can validate once at the end.
type byteReader struct {
	b    []byte
	off  int
	fail bool
}

func (r *byteReader) ok() bool       { return !r.fail }
func (r *byteReader) remaining() int { return len(r.b) - r.off }
func (r *byteReader) take(n int) []byte {
	if r.fail || n < 0 || r.off+n > len(r.b) {
		r.fail = true
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}
func (r *byteReader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}
func (r *byteReader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}
func (r *byteReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}
func (r *byteReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// ---- store-level dictionary ----

// storeDict is the persisted family dictionary: per string column, the
// distinct strings in on-disk interning order. It is the store's OWN
// mapping — a seal translates the engine's process-local codes into it
// (remapCodes), and recovery PRELOADS the engine's dictionary from it so
// the on-disk code sections serve directly — and, like the engine's, it
// only ever grows: strings
// whose rows were all dropped by retention keep their codes, so old
// segment files never need rewriting.
//
// The mutex serializes growth (interning during a seal, under the
// table lock) against the buffer pool's concurrent fault-time reads;
// values already interned are immutable, so a snapshot is a bounded
// slice header.
type storeDict struct {
	mu   sync.Mutex
	cols map[int]*colDict
}

type colDict struct {
	values []string
	byStr  map[string]int32
}

func newStoreDict() *storeDict { return &storeDict{cols: make(map[int]*colDict)} }

func (d *storeDict) col(c int) *colDict {
	cd := d.cols[c]
	if cd == nil {
		cd = &colDict{byStr: make(map[string]int32)}
		d.cols[c] = cd
	}
	return cd
}

// intern returns s's code in column c, appending it if new.
func (d *storeDict) intern(c int, s string) int32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	cd := d.col(c)
	if code, ok := cd.byStr[s]; ok {
		return code
	}
	code := int32(len(cd.values))
	cd.byStr[s] = code
	cd.values = append(cd.values, s)
	return code
}

// count returns the number of interned strings of column c.
func (d *storeDict) count(c int) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if cd := d.cols[c]; cd != nil {
		return len(cd.values)
	}
	return 0
}

// columns returns the sorted column indexes that have any entries.
func (d *storeDict) columns() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	cols := make([]int, 0, len(d.cols))
	for c := range d.cols {
		cols = append(cols, c)
	}
	sort.Ints(cols)
	return cols
}

// snapshot returns the first hw interned strings of column c — an
// immutable prefix (the values list is append-only), safe to read
// after the lock drops.
func (d *storeDict) snapshot(c, hw int) []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	cd := d.cols[c]
	if cd == nil {
		return nil
	}
	if hw > len(cd.values) {
		hw = len(cd.values)
	}
	return cd.values[:hw:hw]
}

// encodeDictRecord frames one new dictionary entry.
func encodeDictRecord(col int, s string) []byte {
	body := appendU16(nil, uint16(col))
	body = appendU32(body, uint32(len(s)))
	body = append(body, s...)
	return appendU32(body, crc(body))
}

// decodeDict parses a dict.log image. It returns the per-column string
// lists, the byte offset of the first undecodable record (== len(data)
// when the file is wholly valid), and whether the leading magic was
// valid at all. Parsing stops at the first bad record: everything
// after an undetected-length corruption is unreliable, and segment
// files whose dictHW exceeds the surviving entry count are quarantined
// by the caller.
func decodeDict(data []byte) (dict *storeDict, goodOff int, magicOK bool) {
	dict = newStoreDict()
	if len(data) < len(dictMagic) || string(data[:len(dictMagic)]) != dictMagic {
		return dict, 0, false
	}
	off := len(dictMagic)
	for off < len(data) {
		r := &byteReader{b: data, off: off}
		col := r.u16()
		slen := r.u32()
		str := r.take(int(slen))
		recCRC := r.u32()
		if !r.ok() || crc(data[off:r.off-4]) != recCRC {
			return dict, off, true
		}
		dict.intern(int(col), string(str))
		off = r.off
	}
	return dict, off, true
}

// ---- sealed segment files ----

// cellWidth returns the fixed byte width of one cell of type t.
func cellWidth(t engine.Type) int {
	if t == engine.TString {
		return 4
	}
	return 8
}

// sectionBytes returns the exact section length of one column — fully
// determined by the schema and segment geometry, which is what lets
// the lazy open path compute every section offset without reading any
// section.
func sectionBytes(t engine.Type, segBits uint) int {
	segRows := 1 << segBits
	return segRows/64*8 + segRows*cellWidth(t)
}

// segLayout returns the absolute offset of column 0's length prefix
// for a given header length, and the total file size.
func segLayout(headerLen int, schema engine.Schema, segBits uint) (secBase, fileSize int) {
	secBase = len(segMagic) + 4 + headerLen + 4 + 4 + zoneRecBytes*len(schema) + 4
	fileSize = secBase
	for _, col := range schema {
		fileSize += 4 + sectionBytes(col.Type, segBits) + 4
	}
	return secBase, fileSize + 4 + len(segEndMagic)
}

// computeZone builds one column's zone map from its chunk (and the
// store codes of a string column).
func computeZone(col engine.Column, ch engine.Chunk, codes []int32) engine.ZoneInfo {
	if col.Type == engine.TString {
		z := engine.ZoneInfo{Rows: len(codes), HasPresence: true}
		for _, code := range codes {
			if code < 0 {
				z.NullCount++
				continue
			}
			bit := uint32(code) & 255
			z.Presence[bit>>6] |= 1 << (bit & 63)
		}
		return z
	}
	z := engine.ZoneInfo{Rows: len(ch.Vals)}
	for i, f := range ch.Vals {
		if ch.Null[i>>6]&(1<<(uint(i)&63)) != 0 {
			z.NullCount++
			continue
		}
		if math.IsNaN(f) {
			z.NaNCount++
			continue
		}
		if f == 0 {
			// Canonicalize -0.0 to +0.0, mirroring Value.Key(): the bounds
			// round-trip through Float64bits, and engine semantics treat
			// the two zeros as one value — without this, segments holding
			// identical data would serialize different Min/Max bit
			// patterns depending on which zero was seen first, and any
			// future bit-level bound comparison would misjudge a segment
			// whose only match for x >= 0 is a -0.0 stored as Min.
			f = 0
		}
		if !z.HasRange {
			z.Min, z.Max = f, f
			z.HasRange = true
		} else {
			if f < z.Min {
				z.Min = f
			}
			if f > z.Max {
				z.Max = f
			}
		}
	}
	return z
}

// appendZoneRec serializes one zone record (zoneRecBytes bytes).
func appendZoneRec(b []byte, secOff uint64, secLen uint32, z engine.ZoneInfo) []byte {
	b = appendU64(b, secOff)
	b = appendU32(b, secLen)
	b = appendU64(b, math.Float64bits(z.Min))
	b = appendU64(b, math.Float64bits(z.Max))
	b = appendU32(b, uint32(z.NullCount))
	b = appendU32(b, uint32(z.NaNCount))
	var flags uint32
	if z.HasRange {
		flags |= zoneFlagRange
	}
	if z.HasPresence {
		flags |= zoneFlagPresence
	}
	b = appendU32(b, flags)
	for _, w := range z.Presence {
		b = appendU64(b, w)
	}
	return b
}

// readZoneRec parses one zone record.
func readZoneRec(r *byteReader, segRows int) (secOff uint64, secLen uint32, z engine.ZoneInfo) {
	secOff = r.u64()
	secLen = r.u32()
	z.Min = math.Float64frombits(r.u64())
	z.Max = math.Float64frombits(r.u64())
	z.NullCount = int(r.u32())
	z.NaNCount = int(r.u32())
	flags := r.u32()
	z.HasRange = flags&zoneFlagRange != 0
	z.HasPresence = flags&zoneFlagPresence != 0
	for i := range z.Presence {
		z.Presence[i] = r.u64()
	}
	z.Rows = segRows
	return secOff, secLen, z
}

// remapCodes translates one string chunk's engine codes into store
// codes through a per-seal remap: each distinct engine code's string is
// interned once, in first-appearance order, and every row is a table
// lookup.
func (d *storeDict) remapCodes(c int, codes []int32, values []string) []int32 {
	remap := make([]int32, len(values)) // engine code → store code + 1; 0 = not seen yet
	out := make([]int32, len(codes))
	for i, code := range codes {
		if code < 0 {
			out[i] = -1
			continue
		}
		if remap[code] == 0 {
			remap[code] = d.intern(c, values[code]) + 1
		}
		out[i] = remap[code] - 1
	}
	return out
}

// encodeSegment serializes one sealed segment (chunks and dicts from
// engine.Table.SegmentChunks) into a whole-file byte image. String
// cells are interned into dict; the caller persists dict's new entries
// BEFORE writing the returned image, so a durable segment never
// references a lost dictionary entry.
func encodeSegment(schema engine.Schema, segBits uint, segIdx int, chunks []engine.Chunk, dicts [][]string, dict *storeDict) []byte {
	segRows := 1 << segBits

	// Intern all strings first so the header's dictHW is final.
	codes := make([][]int32, len(schema))
	for c, col := range schema {
		if col.Type == engine.TString {
			codes[c] = dict.remapCodes(c, chunks[c].Codes, dicts[c])
		}
	}

	header := appendU32(nil, formatVersion)
	header = appendU32(header, uint32(segBits))
	header = appendU64(header, uint64(segIdx))
	header = appendU32(header, uint32(segRows))
	header = appendU32(header, uint32(len(schema)))
	for c, col := range schema {
		header = appendU16(header, uint16(len(col.Name)))
		header = append(header, col.Name...)
		header = append(header, byte(col.Type))
		hw := 0
		if col.Type == engine.TString {
			hw = dict.count(c)
		}
		header = appendU32(header, uint32(hw))
	}

	out := []byte(segMagic)
	out = appendU32(out, uint32(len(header)))
	out = append(out, header...)
	out = appendU32(out, crc(header))

	// Zone block: per-column zone maps plus the absolute section offsets
	// (derivable from the schema, but echoed here so readers can
	// cross-check the layout they computed).
	secBase, _ := segLayout(len(header), schema, segBits)
	zoneBody := make([]byte, 0, zoneRecBytes*len(schema))
	off := secBase
	for c, col := range schema {
		secLen := sectionBytes(col.Type, segBits)
		zoneBody = appendZoneRec(zoneBody, uint64(off), uint32(secLen), computeZone(col, chunks[c], codes[c]))
		off += 4 + secLen + 4
	}
	out = appendU32(out, uint32(len(zoneBody)))
	out = append(out, zoneBody...)
	out = appendU32(out, crc(zoneBody))

	for c, col := range schema {
		// NULL bitmap words, then fixed-width cells (0 at NULL).
		ch := chunks[c]
		section := make([]byte, 0, sectionBytes(col.Type, segBits))
		switch {
		case col.Type == engine.TString:
			null := make([]uint64, segRows/64)
			for i, code := range codes[c] {
				if code < 0 {
					null[i>>6] |= 1 << (uint(i) & 63)
				}
			}
			for _, w := range null {
				section = appendU64(section, w)
			}
			for _, code := range codes[c] {
				section = appendU32(section, uint32(code))
			}
		default:
			for _, w := range ch.Null {
				section = appendU64(section, w)
			}
			for i, f := range ch.Vals {
				switch {
				case ch.Null[i>>6]&(1<<(uint(i)&63)) != 0:
					section = appendU64(section, 0)
				case col.Type == engine.TFloat:
					section = appendU64(section, math.Float64bits(f))
				case ch.Ints != nil:
					section = appendU64(section, uint64(ch.Ints[i]))
				default:
					section = appendU64(section, uint64(int64(f)))
				}
			}
		}
		out = appendU32(out, uint32(len(section)))
		out = append(out, section...)
		out = appendU32(out, crc(section))
	}

	out = appendU32(out, crc(out))
	return append(out, segEndMagic...)
}

// readSegHeader extracts just the schema echo from a segment image —
// the manifest-rebuild path when manifest.json itself is corrupt. It
// validates the header checksum but not the sections.
func readSegHeader(data []byte) (schema engine.Schema, segBits uint, err error) {
	if len(data) < len(segMagic)+4 || string(data[:len(segMagic)]) != segMagic {
		return nil, 0, fmt.Errorf("bad magic")
	}
	r := &byteReader{b: data, off: len(segMagic)}
	headerLen := r.u32()
	header := r.take(int(headerLen))
	headerCRC := r.u32()
	if !r.ok() || crc(header) != headerCRC {
		return nil, 0, fmt.Errorf("header checksum mismatch")
	}
	h := &byteReader{b: header}
	if v := h.u32(); v != formatVersion {
		return nil, 0, fmt.Errorf("unsupported format version %d", v)
	}
	sb := h.u32()
	h.u64() // segIdx
	h.u32() // nrows
	ncols := h.u32()
	if !h.ok() || ncols > 4096 {
		return nil, 0, fmt.Errorf("implausible column count")
	}
	schema = make(engine.Schema, 0, ncols)
	for c := uint32(0); c < ncols; c++ {
		nameLen := h.u16()
		name := h.take(int(nameLen))
		typ := h.u8()
		h.u32() // dictHW
		if !h.ok() {
			return nil, 0, fmt.Errorf("truncated header")
		}
		schema = append(schema, engine.Column{Name: string(name), Type: engine.Type(typ)})
	}
	if err := schema.Validate(); err != nil {
		return nil, 0, err
	}
	return schema, uint(sb), nil
}

// ---- manifest ----

// manifest is a table's durable identity: everything recovery needs
// before it can trust a single segment file. It changes rarely — at
// table creation and at each retention pass (Base moves) — and is
// replaced atomically, so it is either the old or the new version,
// never torn.
type manifest struct {
	Format  int           `json:"format"`
	Name    string        `json:"name"`
	SegBits uint          `json:"seg_bits"`
	Base    int           `json:"base"`
	Schema  []manifestCol `json:"schema"`
}

type manifestCol struct {
	Name string `json:"name"`
	Type int    `json:"type"`
}

// manifestEnvelope wraps the payload with a checksum of its raw bytes
// so a bit flip inside an intact-looking JSON file is still detected.
type manifestEnvelope struct {
	Payload json.RawMessage `json:"payload"`
	CRC32C  uint32          `json:"crc32c"`
}

func manifestFor(name string, schema engine.Schema, segBits uint, base int) manifest {
	m := manifest{Format: formatVersion, Name: name, SegBits: segBits, Base: base}
	for _, c := range schema {
		m.Schema = append(m.Schema, manifestCol{Name: c.Name, Type: int(c.Type)})
	}
	return m
}

func (m manifest) engineSchema() engine.Schema {
	s := make(engine.Schema, 0, len(m.Schema))
	for _, c := range m.Schema {
		s = append(s, engine.Column{Name: c.Name, Type: engine.Type(c.Type)})
	}
	return s
}

func encodeManifest(m manifest) ([]byte, error) {
	payload, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	return json.Marshal(manifestEnvelope{Payload: payload, CRC32C: crc(payload)})
}

func decodeManifest(data []byte) (manifest, error) {
	var env manifestEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return manifest{}, fmt.Errorf("manifest envelope: %w", err)
	}
	if crc(env.Payload) != env.CRC32C {
		return manifest{}, fmt.Errorf("manifest checksum mismatch")
	}
	var m manifest
	if err := json.Unmarshal(env.Payload, &m); err != nil {
		return manifest{}, fmt.Errorf("manifest payload: %w", err)
	}
	if m.Format != formatVersion {
		return manifest{}, fmt.Errorf("manifest: unsupported format version %d", m.Format)
	}
	if err := m.engineSchema().Validate(); err != nil {
		return manifest{}, fmt.Errorf("manifest schema: %w", err)
	}
	if m.SegBits < engine.MinSegmentBits || m.SegBits > 30 {
		return manifest{}, fmt.Errorf("manifest segment bits %d out of range", m.SegBits)
	}
	if m.Base < 0 || m.Base&(1<<m.SegBits-1) != 0 {
		return manifest{}, fmt.Errorf("manifest base %d not segment-aligned", m.Base)
	}
	return m, nil
}

// writeFileAtomic writes data to name via the temp → fsync → rename →
// dir-fsync protocol: after it returns nil the file is durably whole
// under name; after a crash at any interior point the old file (or
// absence) survives intact.
func writeFileAtomic(fs FS, name string, data []byte) error {
	tmp := name + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fs.Rename(tmp, name); err != nil {
		return err
	}
	return fs.SyncDir(dirOf(name))
}

func dirOf(name string) string {
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '/' || name[i] == '\\' {
			return name[:i]
		}
	}
	return "."
}

// readFileAll slurps a file through the FS.
func readFileAll(fs FS, name string) ([]byte, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}
