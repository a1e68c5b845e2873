// Package store is the crash-safe durability layer under the engine's
// segmented tables: checksummed on-disk segment files for sealed
// segments, a write-ahead log for the growable tail, and a recovery
// path that rebuilds the exact acknowledged state after a crash.
//
// # Layout
//
// One directory per table (lower-cased name) under the store root:
//
//	manifest.json  CRC32C-wrapped JSON: name, schema, segment size, base
//	seg-%08d.seg   one immutable file per sealed stream segment
//	dict.log       append-only string dictionary (interning order)
//	wal.log        length-prefixed, CRC'd records for the tail rows
//
// Sealed segment files are written with the atomic protocol
// (write-temp → fsync → rename → dir-fsync) so each is either whole or
// absent; every section carries a CRC32C and the file ends with a
// whole-file checksum and footer magic. The manifest is replaced
// atomically and changes only at creation and retention.
//
// # Durability contract
//
// DB.AppendColsCtx logs the engine.Batch to the WAL BEFORE publishing it
// to the engine (Append and AppendCtx convert boxed rows into one). With
// Options.SyncEvery = 1 (default) the WAL is fsync'd per batch: an
// acknowledged append is durable. With SyncEvery = N > 1 a crash may
// lose up to the most recent N-1 acknowledged batches, but recovery
// always restores a clean batch PREFIX of the acknowledged sequence —
// never a torn, reordered, or partially applied batch.
// With Options.DisableWAL only sealed segments are durable and a crash
// loses the in-memory tail (bounded by one segment of rows).
//
// Any I/O error during Append or Retain fail-stops the table: the
// error is recorded, subsequent mutations are refused, and reads keep
// serving the last published version until a restart re-runs recovery.
// Acknowledging a write the disk may not hold would silently break the
// contract above, so the store refuses instead.
//
// # Recovery
//
// Open re-lists every table directory, removes interrupted temp files,
// verifies every checksum (header, zone block, every column section,
// the whole file) before a resident table is served, and rebuilds each
// table from the longest
// recoverable SUFFIX of its stream: sealed segment files where they
// survive, WAL records where the crash hit between segment write and
// WAL rewrite, plus the WAL tail. A torn final WAL record is the crash
// point, not corruption — the file is truncated there. A segment file
// that fails validation (bit rot, truncation) is QUARANTINED: renamed
// to <name>.quarantined, logged, reported in Stats, never silently
// served and never deleted. Valid segments stranded below a
// quarantined gap stay on disk untouched and the served range starts
// above the gap (Stats.GapSegments reports the loss) — graceful
// degradation in preference to refusing to start. A corrupt manifest
// is rebuilt from the schema echo carried in every segment header;
// only a table with neither a manifest nor one valid segment header is
// skipped (Stats.Skipped).
//
// There is one reader of segment files and one recovery path. Every
// file's envelope is validated by openSegMeta; every column section,
// whenever it is read, passes the same check and the same decoder
// (decodeSection) into a typed chunk — float values + NULL words,
// dictionary codes, or exact int64 cells, at most 8 bytes a row. A
// resident Open (MaxResidentBytes == 0) runs that decoder over every
// section up front and attaches segments that HOLD their chunks; an
// out-of-core Open attaches segments that PIN them on demand. The
// engine's string dictionary is preloaded from dict.log either way, so
// on-disk codes are engine codes. No path materializes a boxed
// engine.Value per stored cell: the WAL replays into one engine.Batch,
// whose segment-sized windows are appended in stream order.
//
// After the in-memory rebuild, Open finishes whatever the crash
// interrupted — re-spilling sealed segments whose files were lost and
// rewriting the WAL to exactly the current tail — so a second Open of
// the same directory performs no repair at all.
//
// # Out-of-core serving
//
// With Options.MaxResidentBytes > 0, Open stops at the envelope: it
// validates each file's header and zone maps with a handful of small
// reads, attaches the segment to the engine table as FAULTABLE, and
// serves chunk reads on demand through a store-wide buffer pool
// bounded to (about) MaxResidentBytes of decoded chunks. The contract,
// bottom to top:
//
//   - Pin/unpin. A reader obtains a chunk via the engine's one column
//     reader (engine.ColReader: Floats / Codes per segment, Float / Code
//     per row), or per cell through engine.RowReader / Table.Value,
//     which pin the same chunk through the same reader and box the one
//     cell. A pinned chunk cannot be evicted; its release is called
//     exactly once, on every path, when the reader moves on or closes —
//     scans hold at most one pin per reader and Close via defer, so errors
//     and cancellation cannot leak pins. At quiesce the pool's pinned
//     count is zero (asserted by the chaos soak and the cancellation
//     matrix).
//   - Faults verify. A chunk load re-reads the column section from
//     the segment file and verifies its CRC then; a mismatch
//     quarantines the file (same rename + log + Stats path as at
//     Open) and surfaces as a query error — never as wrong data.
//   - Zone maps prune. Seal time writes per-column min/max, NULL/NaN
//     counts and a dictionary-code presence bitmap; scans consult
//     them to skip provably empty segments without touching disk. A
//     damaged zone block is ignored with a logged reason (the segment
//     just scans) — zone maps are an optimization and may never
//     change results.
//   - Eviction is LRU over unpinned chunks; the pool is the ONLY
//     chunk cache, so resident bytes stay bounded regardless of table
//     size (the memcap CI job runs the suite under GOMEMLIMIT).
//
// Results are bit-identical to a fully resident open; the randomized
// differential tests compare both with the acknowledged rows, the
// faultable one through eviction thrash, to pin that.
//
// # Format versions
//
// Segment files and manifests carry formatVersion 2: a checksummed
// zone-map block sits between the header and the column sections. The
// rule: the file MAGIC names the kind and never changes; the header's
// formatVersion names the LAYOUT. This reader knows one layout; a file
// or manifest of any other version — the retired zone-less version 1
// included — is rejected with "unsupported format version N" and
// handled like any undecodable one (segment file quarantined, manifest
// rebuilt from a segment header). A version bump is required whenever
// the byte layout changes; reusing a version number for a different
// layout is forbidden — checksums detect corruption, not format
// confusion.
//
// # Fault injection
//
// All I/O goes through the FS interface. fault.go provides MemFS (an
// in-memory filesystem with an explicit crash-durability model: file
// contents survive only up to the last Sync plus an arbitrary torn
// prefix of later writes; namespace operations survive only after the
// parent directory's SyncDir, each with probability ½ on crash) and
// FaultFS (injects a short write, fsync error, or full crash at the
// n'th mutating operation). The recovery tests crash a workload at
// EVERY failpoint, reopen, and require the recovered table to match an
// oracle that holds exactly the acknowledged batches.
package store
