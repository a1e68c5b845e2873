package store

import (
	"context"
	"errors"
	"fmt"
	"log"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/engine"
	"repro/internal/obs"
)

// Package store makes the engine's segmented tables crash-safe. Layout
// under the store directory, one subdirectory per table (lower-cased
// name):
//
//	<dir>/<table>/manifest.json   identity: schema, segBits, base (CRC'd JSON)
//	<dir>/<table>/seg-%08d.seg    one file per sealed stream segment
//	<dir>/<table>/dict.log        append-only string dictionary
//	<dir>/<table>/wal.log         WAL covering rows past the last durable segment
//
// The durability contract: with SyncEvery=1 (the default) a batch is
// durable before Append acknowledges it; with SyncEvery=N an
// acknowledged batch may be lost in a crash only if it is among the
// most recent < N batches, and recovery always restores a clean batch
// PREFIX of the acknowledged sequence — never a torn or reordered one.
// See doc.go for the full recovery contract.

// ErrUnknownTable reports an operation on a table this store does not
// manage (e.g. one registered directly with the engine catalog).
var ErrUnknownTable = errors.New("store: table not managed by this store")

// ErrFailStopped marks errors caused by a table being (or becoming)
// fail-stopped. Callers distinguish "this table refuses writes until
// restart" (retryable against a recovered process, worth a 503) from
// bad input with errors.Is(err, ErrFailStopped).
var ErrFailStopped = errors.New("fail-stopped")

// ErrClosed reports an operation on a closed store.
var ErrClosed = errors.New("store: closed")

// ErrQuarantined marks a chunk fault that found a segment file damaged
// and quarantined it: the rows it held are unreadable until an operator
// intervenes, and retrying will not help. Any other fault error is a
// plain I/O failure on an undamaged file.
var ErrQuarantined = errors.New("segment quarantined")

// Options configures a store.
type Options struct {
	// SyncEvery is the number of appended batches between WAL fsyncs.
	// 0 or 1 syncs every batch (acknowledged ⇒ durable); larger values
	// trade the durability window for ingest throughput.
	SyncEvery int
	// MaxResidentBytes caps the store-wide buffer pool that serves every
	// recovered segment's chunk reads: about this many bytes of decoded
	// chunks stay cached, least recently used evicted first. 0 (the
	// default) means no cap — a chunk once read stays cached. Segments
	// sealed in this process hold their own chunks and are not counted.
	MaxResidentBytes int64
	// Logf receives recovery and quarantine notices; defaults to
	// log.Printf.
	Logf func(format string, args ...any)
	// FS overrides the filesystem (fault-injection tests); defaults to
	// the real disk.
	FS FS
}

func (o *Options) fill() {
	if o.SyncEvery < 1 {
		o.SyncEvery = 1
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	if o.FS == nil {
		o.FS = OSFS{}
	}
}

// DB is a durable view over an engine.DB: appends WAL-then-publish,
// seals spill to checksummed segment files, retention is manifested
// before files are unlinked, and Open replays it all back. Query
// execution keeps reading the engine catalog directly — the store is
// an ingest-side wrapper, not a query path.
type DB struct {
	fs   FS
	dir  string
	opts Options
	eng  *engine.DB
	pool *bufferPool // caches every recovered segment's chunks, capped by MaxResidentBytes

	mu      sync.Mutex
	tables  map[string]*tableStore
	skipped map[string]string // table dir -> reason it could not be recovered
	closed  bool
}

// tableStore is the durable state of one table. Its mutex serializes
// all mutating I/O for the table (append, seal spill, retention,
// close); engine reads stay lock-free on published versions.
type tableStore struct {
	mu      sync.Mutex
	name    string // lower-cased directory name
	dir     string
	schema  engine.Schema
	segBits uint

	dict          *storeDict
	dictPersisted map[int]int // per column: entries already in dict.log
	dictF         File
	walF          File // nil only during recovery and after Close
	walBatches    int  // batches appended since the last WAL fsync

	nextSeg     int // stream segment index of the next segment to spill
	base        int // manifested retention base (rows)
	failed      error
	quarantined []string
	gapSegments int // segments lost to quarantine at the last Open

	// loader serves the chunk faults of every segment recovered at Open
	// (none for a table created after Open: segments sealed in this
	// process hold their chunks). It is read WITHOUT ts.mu on the fault
	// path (see tableLoader's doc).
	loader *tableLoader
}

// Eng returns the underlying engine catalog, the handle query
// execution (internal/exec, internal/core) runs against.
func (s *DB) Eng() *engine.DB { return s.eng }

// Dir returns the store's root directory.
func (s *DB) Dir() string { return s.dir }

func (s *DB) table(name string) (*tableStore, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	ts, ok := s.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTable, name)
	}
	return ts, nil
}

// CreateTable creates a durable table: engine registration plus the
// on-disk directory, manifest, and empty dictionary/WAL files. segBits
// as in engine.NewTableSeg.
func (s *DB) CreateTable(name string, schema engine.Schema, segBits uint) error {
	t, err := engine.NewTableSeg(name, schema, segBits)
	if err != nil {
		return err
	}
	key := strings.ToLower(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, ok := s.tables[key]; ok {
		return fmt.Errorf("store: table %q already exists", name)
	}
	dir := join(s.dir, key)
	if err := s.fs.MkdirAll(dir); err != nil {
		return err
	}
	m, err := encodeManifest(manifestFor(name, schema, segBits, 0))
	if err != nil {
		return err
	}
	if err := writeFileAtomic(s.fs, join(dir, manifestName), m); err != nil {
		return err
	}
	ts := &tableStore{
		name:          key,
		dir:           dir,
		schema:        schema.Clone(),
		segBits:       segBits,
		dict:          newStoreDict(),
		dictPersisted: make(map[int]int),
		loader:        s.newLoader(key, schema, segBits),
	}
	if ts.dictF, err = createLogFile(s.fs, join(dir, dictFileName), dictMagic); err != nil {
		return err
	}
	if ts.walF, err = createLogFile(s.fs, join(dir, walFileName), walMagic); err != nil {
		_ = ts.dictF.Close()
		return err
	}
	if err := s.fs.SyncDir(dir); err != nil {
		return err
	}
	s.eng.Register(t)
	s.tables[key] = ts
	return nil
}

// createLogFile creates an append-only log with its magic durably on
// disk, returning the still-open handle for subsequent appends.
func createLogFile(fs FS, name, magic string) (File, error) {
	f, err := fs.Create(name)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write([]byte(magic)); err != nil {
		_ = f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return nil, err
	}
	return f, nil
}

// Append is AppendCtx without a cancellation point, kept for bench/.
func (s *DB) Append(name string, rows [][]engine.Value) (*engine.Table, error) {
	return s.AppendCtx(context.Background(), name, rows)
}

// AppendCtx is AppendColsCtx over boxed rows (engine.BatchOf), kept for
// bench/; everything else appends a Batch.
func (s *DB) AppendCtx(ctx context.Context, name string, rows [][]engine.Value) (*engine.Table, error) {
	ts, err := s.table(name)
	if err != nil {
		return nil, err
	}
	b, err := engine.BatchOf(ts.schema, rows)
	if err != nil {
		return nil, fmt.Errorf("store: append %s: %w", ts.name, err) // bad input, not an I/O fault
	}
	return s.AppendColsCtx(ctx, name, b)
}

// AppendColsCtx durably appends a batch: WAL first (fsync per
// SyncEvery), then publish through the engine, then spill any segment
// the batch sealed. The returned table is the published post-append
// version.
//
// On any I/O error the table goes FAIL-STOP: the error is returned,
// recorded, and every later append or retention on the table fails
// until the process restarts and recovers — acknowledging writes the
// disk may not hold would break the recovery contract. Reads keep
// serving the last published version.
//
// ctx is polled strictly BEFORE the WAL write. Once the record is handed
// to the WAL the append runs to completion regardless of ctx: abandoning
// between the WAL write and the engine publish would leave the WAL ahead
// of the published table, and replay after restart would re-apply a
// batch the client was told failed — breaking the acked-batch-prefix
// recovery contract. A cancelled append therefore either happened
// entirely or not at all.
func (s *DB) AppendColsCtx(ctx context.Context, name string, b *engine.Batch) (*engine.Table, error) {
	ts, err := s.table(name)
	if err != nil {
		return nil, err
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.failed != nil {
		return nil, fmt.Errorf("store: table %s is %w: %w", ts.name, ErrFailStopped, ts.failed)
	}
	cur, err := s.eng.Table(name)
	if err != nil {
		return nil, err
	}
	if err := b.Fits(ts.schema, b.Len()); err != nil {
		return nil, fmt.Errorf("store: append %s: %w", ts.name, err) // bad input, not an I/O fault
	}
	// Last cancellation point: nothing has been written yet, so bailing
	// here leaves the table exactly as it was.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("store: append %s: %w", ts.name, err)
	}
	if ts.walF != nil {
		span := obs.Start(ctx, obs.Wal)
		_, err = ts.walF.Write(encodeWALRecord(cur.Version(), b))
		span.End()
		if err != nil {
			return nil, ts.fail(fmt.Errorf("wal append: %w", err))
		}
		ts.walBatches++
		if ts.walBatches >= s.opts.SyncEvery {
			span = obs.Start(ctx, obs.Fsync)
			if err := ts.walF.Sync(); err != nil {
				return nil, ts.fail(fmt.Errorf("wal fsync: %w", err))
			}
			span.End()
			ts.walBatches = 0
		}
	}
	nt, err := s.eng.AppendCols(name, b)
	if err != nil {
		// The WAL record is ahead of the published table; replay after
		// restart would re-apply it, so fail-stop here too.
		return nil, ts.fail(fmt.Errorf("engine append: %w", err))
	}
	defer obs.Start(ctx, obs.Seal).End()
	if err := s.spillLocked(ts, nt); err != nil {
		return nil, ts.fail(err)
	}
	return nt, nil
}

func (ts *tableStore) fail(err error) error {
	ts.failed = err
	return fmt.Errorf("store: table %s %w: %w", ts.name, ErrFailStopped, err)
}

// spillLocked writes segment files for every sealed segment not yet on
// disk, then rewrites the WAL down to the current tail. Caller holds
// ts.mu. nt is the current published version.
func (s *DB) spillLocked(ts *tableStore, nt *engine.Table) error {
	first := nt.Base() >> ts.segBits
	nsealed, tailRows := nt.NumSegments()
	end := first + nsealed
	spilled := false
	for idx := ts.nextSeg; idx < end; idx++ {
		if nt.SegmentFaultable(idx - first) {
			// Recovery attached this segment from its (valid,
			// durable) file behind a WAL-covered gap; nothing to rewrite.
			ts.nextSeg = idx + 1
			continue
		}
		chunks, dicts := nt.SegmentChunks(idx - first)
		image := encodeSegment(ts.schema, ts.segBits, idx, chunks, dicts, ts.dict)
		// New dictionary entries must be durable BEFORE the segment
		// file that references them exists under its final name.
		if err := s.persistDictLocked(ts); err != nil {
			return fmt.Errorf("dict append: %w", err)
		}
		if err := writeFileAtomic(s.fs, join(ts.dir, segFileName(idx)), image); err != nil {
			return fmt.Errorf("segment %d: %w", idx, err)
		}
		ts.nextSeg = idx + 1
		spilled = true
	}
	if spilled && ts.walF != nil {
		if err := s.rewriteWALLocked(ts, nt, nsealed, tailRows); err != nil {
			return fmt.Errorf("wal rewrite: %w", err)
		}
	}
	return nil
}

// persistDictLocked appends and fsyncs dictionary entries interned
// since the last persist.
func (s *DB) persistDictLocked(ts *tableStore) error {
	var buf []byte
	cols := ts.dict.columns()
	counts := make(map[int]int, len(cols))
	for _, c := range cols {
		vals := ts.dict.snapshot(c, ts.dict.count(c))
		counts[c] = len(vals)
		for i := ts.dictPersisted[c]; i < len(vals); i++ {
			buf = append(buf, encodeDictRecord(c, vals[i])...)
		}
	}
	if len(buf) == 0 {
		return nil
	}
	if _, err := ts.dictF.Write(buf); err != nil {
		return err
	}
	if err := ts.dictF.Sync(); err != nil {
		return err
	}
	for _, c := range cols {
		ts.dictPersisted[c] = counts[c]
	}
	return nil
}

// rewriteWALLocked replaces wal.log with one covering only the current
// tail (the rows past the last durable segment). Runs strictly after
// the segment files' rename+dir-fsync: a crash in between leaves rows
// covered by both the old WAL and the new segment file, and recovery
// prefers the segment file.
func (s *DB) rewriteWALLocked(ts *tableStore, nt *engine.Table, nsealed, tailRows int) error {
	tailStart := nt.Base() + nsealed<<ts.segBits
	image := []byte(walMagic)
	if tailRows > 0 {
		image = append(image, encodeWALRecord(tailStart, nt.Batch(nt.NumRows()-tailRows, nt.NumRows()))...)
	}
	path := join(ts.dir, walFileName)
	tmp := path + ".tmp"
	f, err := s.fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(image); err != nil {
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
	// Close the old handle BEFORE the rename: a handle kept open across
	// a rename-over keeps appending to the orphaned inode. (During
	// recovery there is no handle yet.)
	if ts.walF != nil {
		err := ts.walF.Close()
		ts.walF = nil
		if err != nil {
			return err
		}
	}
	if err := s.fs.Rename(tmp, path); err != nil {
		return err
	}
	if err := s.fs.SyncDir(ts.dir); err != nil {
		return err
	}
	nf, err := s.fs.OpenAppend(path)
	if err != nil {
		return err
	}
	ts.walF = nf
	ts.walBatches = 0
	return nil
}

// Retain applies a retention policy durably: the engine drops head
// segments, the manifest records the new base (the commit point), and
// only then are the dropped segment files unlinked. A crash between
// manifest and unlink leaves stale files below base, which the next
// Open removes.
func (s *DB) Retain(name string, pol engine.RetentionPolicy) (*engine.Table, engine.RetainStats, error) {
	return s.RetainCtx(context.Background(), name, pol)
}

// RetainCtx is Retain with a cancellation point strictly before the
// engine drop: once segments are dropped from the published version
// the manifest write and unlinks run to completion regardless of ctx,
// so the on-disk base can never lag a published drop.
func (s *DB) RetainCtx(ctx context.Context, name string, pol engine.RetentionPolicy) (*engine.Table, engine.RetainStats, error) {
	ts, err := s.table(name)
	if err != nil {
		return nil, engine.RetainStats{}, err
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.failed != nil {
		return nil, engine.RetainStats{}, fmt.Errorf("store: table %s is %w: %w", ts.name, ErrFailStopped, ts.failed)
	}
	if err := ctx.Err(); err != nil {
		return nil, engine.RetainStats{}, fmt.Errorf("store: retain %s: %w", ts.name, err)
	}
	old, err := s.eng.Table(name) // keeps the dropped segments reachable until retired
	if err != nil {
		return nil, engine.RetainStats{}, err
	}
	defer runtime.KeepAlive(old)
	nt, stats, err := s.eng.Retain(name, pol)
	if err != nil {
		return nil, stats, err
	}
	if stats.DroppedSegments == 0 {
		return nt, stats, nil
	}
	oldFirst := ts.base >> ts.segBits
	newFirst := nt.Base() >> ts.segBits
	m, err := encodeManifest(manifestFor(nt.Name(), ts.schema, ts.segBits, nt.Base()))
	if err != nil {
		return nil, stats, ts.fail(err)
	}
	if err := writeFileAtomic(s.fs, join(ts.dir, manifestName), m); err != nil {
		return nil, stats, ts.fail(fmt.Errorf("manifest: %w", err))
	}
	ts.base = nt.Base()
	// Versions from before this pass may still read the dropped
	// segments: each recovered one gets a read handle before its file goes.
	ts.loader.retireBelow(newFirst)
	for idx := oldFirst; idx < newFirst; idx++ {
		// The files may legitimately be absent (segment was never
		// spilled before being retained, or a previous crash already
		// lost the unlink); removal is advisory space reclamation.
		_ = s.fs.Remove(join(ts.dir, segFileName(idx)))
	}
	if ts.nextSeg < newFirst {
		ts.nextSeg = newFirst
	}
	if err := s.fs.SyncDir(ts.dir); err != nil {
		return nil, stats, ts.fail(fmt.Errorf("retention dir fsync: %w", err))
	}
	// Drop the retained segments' cached chunks. Pinned entries are
	// doomed, not freed — scans running on a pre-retention version keep
	// their slices until they release, and fault anything else through
	// the retired handles, uncached.
	s.pool.invalidateBelow(ts.name, newFirst)
	return nt, stats, nil
}

// Close fsyncs and closes every table's open log handles. The store
// rejects further mutations; the first error is returned (and every
// error reported means an acknowledged-but-unsynced batch may not be
// durable — callers must surface it).
func (s *DB) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ts := s.tables[n]
		ts.mu.Lock()
		if ts.walF != nil {
			if ts.walBatches > 0 {
				keep(ts.walF.Sync())
			}
			keep(ts.walF.Close())
			ts.walF = nil
		}
		if ts.dictF != nil {
			keep(ts.dictF.Close())
			ts.dictF = nil
		}
		ts.mu.Unlock()
	}
	return first
}

// TableStats is the per-table durability report for /api/stats.
type TableStats struct {
	SealedOnDisk int      `json:"sealed_on_disk"` // segment files currently durable
	Base         int      `json:"base"`           // manifested retention base (rows)
	SyncPending  int      `json:"sync_pending"`   // acked batches not yet WAL-fsynced
	Quarantined  []string `json:"quarantined,omitempty"`
	GapSegments  int      `json:"gap_segments,omitempty"` // segments lost to quarantine at Open
	Failed       string   `json:"failed,omitempty"`       // non-empty: table is fail-stopped
}

// Stats reports the store's durability state: per-table file counts,
// quarantine lists and fail-stop status, plus table directories that
// could not be recovered at all.
type Stats struct {
	Dir     string                `json:"dir"`
	Tables  map[string]TableStats `json:"tables"`
	Skipped map[string]string     `json:"skipped,omitempty"`
	// Pool is the buffer pool snapshot: the chunks of recovered
	// segments, capped by Options.MaxResidentBytes (0: no cap).
	Pool *PoolStats `json:"pool,omitempty"`
}

// Stats snapshots the store's durability state.
func (s *DB) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := Stats{Dir: s.dir, Tables: make(map[string]TableStats, len(s.tables))}
	if len(s.skipped) > 0 {
		out.Skipped = make(map[string]string, len(s.skipped))
		for k, v := range s.skipped {
			out.Skipped[k] = v
		}
	}
	for n, ts := range s.tables {
		ts.mu.Lock()
		st := TableStats{
			SealedOnDisk: ts.nextSeg - ts.base>>ts.segBits,
			Base:         ts.base,
			SyncPending:  ts.walBatches,
			Quarantined:  append([]string(nil), ts.quarantined...),
			GapSegments:  ts.gapSegments,
		}
		if ts.failed != nil {
			st.Failed = ts.failed.Error()
		}
		ts.mu.Unlock()
		// Fault-time quarantines live on the loader (it must not take
		// ts.mu from the read path); merge them into the report.
		st.Quarantined = append(st.Quarantined, ts.loader.quarantineRecords()...)
		out.Tables[n] = st
	}
	ps := s.pool.stats()
	out.Pool = &ps
	return out
}

// PoolPinned returns the number of currently pinned buffer-pool
// entries — the chaos harness's quiesce invariant: after every scan has
// finished, nothing may still be pinned.
func (s *DB) PoolPinned() int {
	return s.pool.pinnedCount()
}
