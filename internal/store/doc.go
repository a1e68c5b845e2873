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
// whole-file checksum (written, not read) and footer magic. The manifest is replaced
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
//
// Any I/O error during Append or Retain fail-stops the table: the
// error is recorded, subsequent mutations are refused, and reads keep
// serving the last published version until a restart re-runs recovery.
// Acknowledging a write the disk may not hold would silently break the
// contract above, so the store refuses instead.
//
// # Recovery and serving
//
// Open re-lists every table directory, removes interrupted temp files,
// and rebuilds each table from the longest recoverable SUFFIX of its
// stream: sealed segment files where they survive, WAL records where
// the crash hit between segment write and WAL rewrite, plus the WAL
// tail. A torn final WAL record is the crash point, not corruption —
// the file is truncated there. A corrupt manifest is rebuilt from the
// schema echo carried in every segment header; only a table with
// neither a manifest nor one valid segment header is skipped
// (Stats.Skipped).
//
// There is one reader of segment files and one attach path. Open
// checks each file's envelope with a handful of small reads
// (openSegMeta) and attaches every recovered segment to the engine
// table as FAULTABLE, with its zone maps: the segment holds nothing,
// and each chunk read pins the column section through one store-wide
// buffer pool, which reads it, checks it and decodes it (decodeSection)
// into a typed chunk — float values + NULL words, dictionary codes, or
// exact int64 cells, at most 8 bytes a row. Open therefore costs
// O(segments), not O(data). Options.MaxResidentBytes caps the pool
// (0: no cap). Segments sealed in this process hold their chunks. The
// engine's string dictionary is preloaded from dict.log, so on-disk
// codes are engine codes. No path materializes a boxed engine.Value per
// stored cell: the WAL replays into one engine.Batch, whose
// segment-sized windows are appended in stream order.
//
// When corruption is caught, and what it costs:
//
//   - The envelope is checked at Open: magic, header CRC, schema echo,
//     computed layout, footer. A file that fails is QUARANTINED —
//     renamed to <name>.quarantined, logged, reported in Stats, never
//     deleted — and the table is served from the suffix above it.
//     Valid segments stranded below a quarantined gap stay on disk
//     untouched (Stats.GapSegments reports the loss) — graceful
//     degradation in preference to refusing to start.
//   - A column section is checked when it is first read: its length
//     prefix and CRC. Damage quarantines the file then (renamed,
//     recorded in Stats) and the query gets a *engine.SegmentLoadError
//     wrapping ErrQuarantined, never wrong rows. The next Open serves
//     the suffix above the gap, as an Open that had caught it would
//     have. Any other load failure is an I/O error on an undamaged file:
//     it quarantines nothing and a retry may succeed.
//   - A damaged zone block degrades to no pruning, logged: zone maps
//     are an optimization and may never change results or lose the
//     table.
//   - The whole-file CRC stays in the format, but nothing reads it:
//     every other byte of a segment file is under a header, zone,
//     section-length or section CRC check
//     (TestEveryFlippedByteCaughtOrHarmless flips each one).
//
// After the in-memory rebuild, Open finishes whatever the crash
// interrupted — re-spilling sealed segments whose files were lost and
// rewriting the WAL to exactly the current tail — so a second Open of
// the same directory performs no repair at all.
//
// The serving contract, bottom to top:
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
//   - Faults verify: a chunk load that misses the pool re-reads the
//     column section into a recycled read buffer, checks it, as above,
//     and decodes it into the chunk — the one allocation a fault makes.
//   - Zone maps prune. Seal time writes per-column min/max, NULL/NaN
//     counts and a dictionary-code presence bitmap; scans consult
//     them to skip provably empty segments without touching disk.
//   - Eviction is LRU over unpinned chunks; the pool is the ONLY
//     chunk cache of recovered segments, so under a cap resident bytes
//     stay bounded regardless of table size (the memcap CI job runs the
//     suite under GOMEMLIMIT).
//   - Retention never strands a reader. Before it unlinks a recovered
//     segment's file it opens a read handle on it, so a table version
//     from before the pass — a session's cached result, a query still
//     running — reads the rows it read before, uncached, through that
//     handle. Each recovered segment is attached with its own loader,
//     reachable only through the table versions that hold the segment;
//     when the last of them is collected, the handle closes and the
//     disk space goes.
//
// Results are bit-identical whatever the cap; the randomized
// differential tests compare a capped and an uncapped reopen with the
// acknowledged rows, the capped one through eviction thrash, and the
// executor's tests compare the faultable table with an in-memory copy.
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
