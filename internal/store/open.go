package store

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/engine"
)

// Open mounts (or initializes) a store directory, recovering every
// table in it into a fresh engine catalog. Recovery is designed to
// degrade gracefully rather than refuse to start:
//
//   - Stray *.tmp files (interrupted atomic writes) are removed.
//   - A torn WAL tail is truncated at the last whole record.
//   - A segment file that fails any of its checksums is QUARANTINED —
//     renamed to <name>.quarantined, logged, and counted in Stats —
//     never silently served and never deleted.
//   - The table is served from the longest recoverable SUFFIX of the
//     stream: the newest contiguous run of segments (from files, or
//     from the WAL when the crash hit between segment write and WAL
//     rewrite) plus the WAL tail. Older valid segments cut off by a
//     quarantined gap are left on disk untouched; the gap is reported
//     via Stats.GapSegments.
//   - A corrupt manifest is rebuilt from the schema echo in the newest
//     valid segment header. Only when neither manifest nor any segment
//     header survives is the table skipped (reason in Stats.Skipped).
//
// After rebuilding the in-memory table, Open completes any interrupted
// seal (re-spilling segment files the crash lost) and rewrites the WAL
// to exactly the current tail, so a second crash-free Open is a no-op.
func Open(dir string, opts Options) (*DB, error) {
	opts.fill()
	s := &DB{
		fs:      opts.FS,
		dir:     dir,
		opts:    opts,
		eng:     engine.NewDB(),
		tables:  make(map[string]*tableStore),
		skipped: make(map[string]string),
	}
	if opts.MaxResidentBytes > 0 {
		s.pool = newBufferPool(opts.MaxResidentBytes)
	}
	if err := s.fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	ents, err := s.fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, e := range ents {
		if !e.Dir {
			continue
		}
		ts, t, err := s.recoverTable(e.Name)
		if err != nil {
			s.opts.Logf("store: skipping table %s: %v", e.Name, err)
			s.skipped[e.Name] = err.Error()
			continue
		}
		s.eng.Register(t)
		s.tables[ts.name] = ts
	}
	return s, nil
}

// recoverTable rebuilds one table directory. It returns the durable
// state and the recovered engine table, or an error when nothing
// trustworthy survives.
func (s *DB) recoverTable(name string) (*tableStore, *engine.Table, error) {
	dir := join(s.dir, name)
	ents, err := s.fs.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}

	// Clear interrupted atomic writes and index the segment files.
	segFiles := map[int]bool{}
	for _, e := range ents {
		if e.Dir {
			continue
		}
		if strings.HasSuffix(e.Name, ".tmp") {
			s.opts.Logf("store: %s: removing interrupted write %s", name, e.Name)
			_ = s.fs.Remove(join(dir, e.Name))
			continue
		}
		if idx := parseSegFileName(e.Name); idx >= 0 {
			segFiles[idx] = true
		}
	}

	// Manifest, or its reconstruction from a segment header.
	var (
		m         manifest
		rebuilt   bool
		manErr    error
		quarantin []string
	)
	if raw, err := readFileAll(s.fs, join(dir, manifestName)); err != nil {
		manErr = err
	} else {
		m, manErr = decodeManifest(raw)
	}
	if manErr != nil {
		m, err = s.rebuildManifest(name, dir, segFiles, manErr)
		if err != nil {
			return nil, nil, err
		}
		rebuilt = true
	}
	schema := m.engineSchema()
	segBits := m.SegBits
	segRows := 1 << segBits
	baseSeg := m.Base >> segBits

	// Drop segment files a crashed retention pass left below the
	// manifested base: the manifest committed their deletion.
	for idx := range segFiles {
		if idx < baseSeg {
			s.opts.Logf("store: %s: removing retained-out segment %d", name, idx)
			_ = s.fs.Remove(join(dir, segFileName(idx)))
			delete(segFiles, idx)
		}
	}

	// Dictionary.
	dict, dictLen := s.recoverDict(name, dir, &quarantin)

	// Validate segment files; quarantine failures. Every file's envelope
	// (header, zone block, footer) is checked via openSegMeta. A resident
	// open then decodes the file end to end into the chunks its segment
	// will hold, verifying every checksum before the table is served;
	// out of core the sections wait for their first fault — this is what
	// makes that Open O(segment count), not O(data).
	outOfCore := s.opts.MaxResidentBytes > 0
	metas := map[int]*segMeta{}
	chunks := map[int][]engine.Chunk{} // resident open only; empty out of core
	idxs := make([]int, 0, len(segFiles))
	for idx := range segFiles {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	for _, idx := range idxs {
		fname := segFileName(idx)
		meta, err := openSegMeta(s.fs, join(dir, fname), schema, segBits, idx, dict, s.opts.Logf)
		if err == nil && !outOfCore {
			chunks[idx], err = loadChunks(s.fs, meta, schema, segBits)
		}
		if err != nil {
			s.opts.Logf("store: %s: quarantining segment %d: %v", name, idx, err)
			_ = s.fs.Rename(join(dir, fname), join(dir, fname+".quarantined"))
			_ = s.fs.SyncDir(dir)
			quarantin = append(quarantin, fname)
			continue
		}
		metas[idx] = meta
	}

	// WAL: valid record prefix, torn tail truncated.
	wal := s.recoverWAL(name, dir, schema)
	ws, we := wal.start, wal.start+wal.n

	// Assemble the served suffix. Coverage per stream segment index:
	// a valid file, or full containment in the WAL's row range. The
	// WAL's partial last segment is the tail — unless a segment file
	// at or above it exists, in which case the WAL is a stale leftover
	// (DisableWAL runs) and the files win.
	covered := func(idx int) bool {
		return metas[idx] != nil || (ws <= idx<<segBits && (idx+1)<<segBits <= we)
	}
	maxCov := -1
	for idx := range metas {
		if idx > maxCov {
			maxCov = idx
		}
	}
	// The WAL's start is always segment-aligned (creation and every
	// rewrite begin at a seal boundary), so it fully covers segments
	// ws>>segBits .. we>>segBits-1.
	if lastFull := we>>segBits - 1; we > ws && lastFull >= ws>>segBits && lastFull > maxCov {
		maxCov = lastFull
	}
	tailLo, tailHi := 0, 0
	e := maxCov
	if we&(segRows-1) != 0 && we>>segBits > maxCov {
		// The WAL's partial last segment extends past every sealed
		// segment: serve it as the tail, with the sealed run required
		// to reach it contiguously. (When a segment file at or above
		// it exists instead, the WAL is a stale leftover of a
		// DisableWAL run and the files win.)
		e = we>>segBits - 1
		tailLo, tailHi = wal.window(we>>segBits<<segBits, we)
	}
	serveBase := m.Base
	if e >= baseSeg || tailHi > tailLo {
		// Walk down from the newest recoverable point while coverage
		// stays contiguous; the served suffix starts where it breaks.
		st := e + 1
		for st > baseSeg && covered(st-1) {
			st--
		}
		serveBase = st << segBits
	}
	gap := serveBase>>segBits - baseSeg
	if gap > 0 {
		s.opts.Logf("store: %s: %d segment(s) after base %d unrecoverable; serving stream suffix from row %d",
			name, gap, m.Base, serveBase)
	}

	// Rebuild the engine table: sealed segments in order, then tail. The
	// engine dictionaries are preloaded from the store dictionary so the
	// on-disk code sections serve directly as engine codes.
	t, err := engine.NewTableSegBase(m.Name, schema, segBits, serveBase)
	if err != nil {
		return nil, nil, err
	}
	for c, col := range schema {
		if col.Type != engine.TString {
			continue
		}
		if err := t.PreloadDict(c, dict.snapshot(c, dict.count(c))); err != nil {
			return nil, nil, fmt.Errorf("preloading dictionary: %w", err)
		}
	}
	var loader *tableLoader
	if outOfCore {
		loader = &tableLoader{
			pool:    s.pool,
			fs:      s.fs,
			name:    strings.ToLower(name),
			schema:  schema,
			segBits: segBits,
			metas:   metas,
			logf:    s.opts.Logf,
		}
	}
	nextSeg := serveBase >> segBits
	filePrefix := true
	for idx := serveBase >> segBits; idx <= e; idx++ {
		if meta := metas[idx]; meta != nil {
			// One attach for both modes: the segment holds the chunks a
			// resident open decoded (loader is nil then, and ignored), or
			// pins them through the loader.
			if t, err = t.AttachSegment(chunks[idx], loader, meta.zones); err != nil {
				return nil, nil, fmt.Errorf("attaching segment %d: %w", idx, err)
			}
			if filePrefix {
				nextSeg = idx + 1
			}
			continue
		}
		filePrefix = false
		lo, hi := wal.window(idx<<segBits, (idx+1)<<segBits)
		if t, err = t.AppendCols(wal.rows, lo, hi); err != nil {
			return nil, nil, fmt.Errorf("replaying segment %d: %w", idx, err)
		}
	}
	if tailHi > tailLo {
		if t, err = t.AppendCols(wal.rows, tailLo, tailHi); err != nil {
			return nil, nil, fmt.Errorf("replaying wal tail: %w", err)
		}
	}

	ts := &tableStore{
		name:          strings.ToLower(name),
		dir:           dir,
		schema:        schema,
		segBits:       segBits,
		dict:          dict,
		dictPersisted: dictLen,
		nextSeg:       nextSeg,
		base:          serveBase,
		quarantined:   quarantin,
		gapSegments:   gap,
		loader:        loader,
	}
	if rebuilt {
		// Persist the reconstruction so the next Open doesn't redo it.
		if enc, err := encodeManifest(manifestFor(m.Name, schema, segBits, serveBase)); err == nil {
			if err := writeFileAtomic(s.fs, join(dir, manifestName), enc); err != nil {
				return nil, nil, fmt.Errorf("rewriting manifest: %w", err)
			}
			ts.base = serveBase
		}
	}

	// Reopen the append handles and finish any interrupted work:
	// re-spill segments whose files the crash lost (their rows came
	// back via the WAL) and rewrite the WAL to exactly the tail.
	if ts.dictF, err = s.fs.OpenAppend(join(dir, dictFileName)); err != nil {
		return nil, nil, err
	}
	if dictLen == nil || allZero(dictLen) {
		// Brand-new or quarantined dict file: (re)write the magic.
		if err := s.ensureDictMagic(ts); err != nil {
			_ = ts.dictF.Close()
			return nil, nil, err
		}
	}
	if err := s.spillLocked(ts, t); err != nil {
		_ = ts.dictF.Close()
		return nil, nil, fmt.Errorf("completing interrupted seal: %w", err)
	}
	if !s.opts.DisableWAL {
		ns, tr := t.NumSegments()
		if err := s.rewriteWALLocked(ts, t, ns, tr); err != nil {
			_ = ts.dictF.Close()
			return nil, nil, fmt.Errorf("resetting wal: %w", err)
		}
	}
	return ts, t, nil
}

// rebuildManifest reconstructs a lost manifest from the newest segment
// file whose header still checks out.
func (s *DB) rebuildManifest(name, dir string, segFiles map[int]bool, cause error) (manifest, error) {
	idxs := make([]int, 0, len(segFiles))
	for idx := range segFiles {
		idxs = append(idxs, idx)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(idxs)))
	for _, idx := range idxs {
		data, err := readFileAll(s.fs, join(dir, segFileName(idx)))
		if err != nil {
			continue
		}
		schema, segBits, err := readSegHeader(data)
		if err != nil {
			continue
		}
		min := idx
		for i := range segFiles {
			if i < min {
				min = i
			}
		}
		s.opts.Logf("store: %s: manifest unreadable (%v); rebuilt from segment %d header", name, cause, idx)
		return manifestFor(name, schema, segBits, min<<segBits), nil
	}
	return manifest{}, fmt.Errorf("manifest unreadable (%v) and no segment header survives", cause)
}

// recoverDict loads dict.log, truncating a torn tail; an unreadable
// file is quarantined and the dictionary starts empty (segments that
// need the lost entries will quarantine themselves during validation).
func (s *DB) recoverDict(name, dir string, quarantin *[]string) (*storeDict, map[int]int) {
	path := join(dir, dictFileName)
	data, err := readFileAll(s.fs, path)
	if err != nil {
		return newStoreDict(), nil // absent: fresh dict, magic written later
	}
	dict, goodOff, magicOK := decodeDict(data)
	if !magicOK {
		if len(data) < len(dictMagic) && strings.HasPrefix(dictMagic, string(data)) {
			// Torn creation, not corruption: the crash hit before the
			// magic was durable. Start fresh.
			_ = s.fs.Truncate(path, 0)
			return newStoreDict(), nil
		}
		s.opts.Logf("store: %s: quarantining unreadable dictionary", name)
		_ = s.fs.Rename(path, path+".quarantined")
		_ = s.fs.SyncDir(dir)
		*quarantin = append(*quarantin, dictFileName)
		return newStoreDict(), nil
	}
	if goodOff < len(data) {
		s.opts.Logf("store: %s: truncating torn dictionary tail (%d of %d bytes valid)", name, goodOff, len(data))
		_ = s.fs.Truncate(path, int64(goodOff))
	}
	counts := make(map[int]int, len(dict.cols))
	for c, cd := range dict.cols {
		counts[c] = len(cd.values)
	}
	return dict, counts
}

// recoverWAL loads the valid record prefix of wal.log, truncating a
// torn tail in place. Any unreadable state simply yields no rows.
func (s *DB) recoverWAL(name, dir string, schema engine.Schema) walLog {
	path := join(dir, walFileName)
	data, err := readFileAll(s.fs, path)
	if err != nil {
		return walLog{}
	}
	wal, goodOff := decodeWAL(data, schema)
	if goodOff < len(data) {
		s.opts.Logf("store: %s: truncating torn wal tail (%d of %d bytes valid)", name, goodOff, len(data))
		if goodOff < len(walMagic) {
			goodOff = 0 // magic itself is damaged; rewrite handles it
		}
		_ = s.fs.Truncate(path, int64(goodOff))
	}
	return wal
}

// ensureDictMagic makes a fresh dict.log carry its magic; called when
// recovery found no persisted entries (new table dir or quarantined
// dict). dictF is open for append.
func (s *DB) ensureDictMagic(ts *tableStore) error {
	// The handle appends; only write the magic when the file is empty.
	ents, err := s.fs.ReadDir(ts.dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.Name == dictFileName {
			if data, err := readFileAll(s.fs, join(ts.dir, dictFileName)); err == nil && len(data) >= len(dictMagic) {
				return nil
			}
		}
	}
	if _, err := ts.dictF.Write([]byte(dictMagic)); err != nil {
		return err
	}
	return ts.dictF.Sync()
}

func allZero(m map[int]int) bool {
	for _, v := range m {
		if v != 0 {
			return false
		}
	}
	return true
}
