package store

import (
	"sync"

	"repro/internal/engine"
)

// bufferPool is the out-of-core chunk cache: a byte-budgeted,
// single-flight, pin-counted LRU over decoded segment-column chunks.
// It is the ONLY place faulted chunks are cached — segments never hold
// them — so MaxResidentBytes genuinely bounds what the store keeps
// resident (pinned chunks excepted: a pin is a promise to the scanner
// that the slices stay accounted until released, so the pool may
// transiently exceed its budget while pins are out).
//
// Lock order: the pool's mutex is a leaf — acquire/release never call
// out while holding it (loads run outside the lock under the entry's
// single-flight gate), so it can be taken from under the engine's view
// lock or a table lock without ordering concerns.
type bufferPool struct {
	mu      sync.Mutex
	max     int64 // byte budget; 0 = unlimited
	used    int64 // accounted bytes of all entries (pinned + LRU)
	entries map[chunkKey]*poolEntry
	// LRU list of UNPINNED entries only; head = least recently used.
	lruHead, lruTail *poolEntry
	npinned          int
	hits, misses     int64
	evictions        int64
}

// chunkKind distinguishes the decoded representations cached per
// segment-column: float vals+nulls, dictionary codes, exact int64
// cells — every one at most 8 bytes a row.
type chunkKind uint8

const (
	chunkFloat chunkKind = iota
	chunkCodes
	chunkInt
)

// chunkKey identifies one cached chunk. seg is the STREAM segment
// index (stable across retention rebases).
type chunkKey struct {
	table string
	seg   int
	col   int
	kind  chunkKind
}

type poolEntry struct {
	key    chunkKey
	size   int64
	refs   int  // pins outstanding; 0 = on the LRU list
	doomed bool // invalidated while pinned/loading: free on last release

	// Single-flight load gate: the first acquirer sets loading and
	// loads outside the pool lock; waiters block on done.
	loading bool
	done    chan struct{}
	err     error

	// chunk holds the one representation key.kind names.
	chunk engine.Chunk

	prev, next *poolEntry // LRU links, valid only while refs == 0
}

func newBufferPool(max int64) *bufferPool {
	return &bufferPool{max: max, entries: make(map[chunkKey]*poolEntry)}
}

// acquire returns the entry for key, pinned (refs incremented), loading
// it via load if absent. load runs outside the pool lock; concurrent
// acquirers of the same key wait for the single in-flight load. The
// returned release MUST be called exactly once (wrap in sync.Once if
// the call site can't guarantee it). missed reports whether this call
// performed the load (a pool miss).
func (p *bufferPool) acquire(key chunkKey, load func(e *poolEntry) (size int64, err error)) (e *poolEntry, release func(), missed bool, err error) {
	p.mu.Lock()
	for {
		e = p.entries[key]
		if e == nil {
			break // become the loader
		}
		if e.loading {
			done := e.done
			p.mu.Unlock()
			<-done
			p.mu.Lock()
			// The load may have failed and removed the entry, or the
			// entry may have been doomed and replaced; re-look-up.
			continue
		}
		// Resident hit.
		if e.refs == 0 {
			p.lruUnlink(e)
			p.npinned++
		}
		e.refs++
		p.hits++
		p.mu.Unlock()
		return e, p.releaseFunc(e), false, nil
	}

	e = &poolEntry{key: key, refs: 1, loading: true, done: make(chan struct{})}
	p.entries[key] = e
	p.npinned++
	p.misses++
	p.mu.Unlock()

	size, lerr := load(e)

	p.mu.Lock()
	e.loading = false
	if lerr != nil {
		// Failed load: nobody else may use this entry. Remove it (if
		// still registered) and wake waiters to retry or fail.
		if p.entries[key] == e {
			delete(p.entries, key)
		}
		p.npinned--
		e.err = lerr
		close(e.done)
		p.mu.Unlock()
		return nil, nil, true, lerr
	}
	e.size = size
	p.used += size
	p.evictLocked()
	close(e.done)
	p.mu.Unlock()
	return e, p.releaseFunc(e), true, nil
}

// releaseFunc builds the idempotent unpin closure for e.
func (p *bufferPool) releaseFunc(e *poolEntry) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			p.mu.Lock()
			e.refs--
			if e.refs == 0 {
				p.npinned--
				if e.doomed {
					if p.entries[e.key] == e {
						delete(p.entries, e.key)
					}
					p.used -= e.size
				} else {
					p.lruPushMRU(e)
					p.evictLocked()
				}
			}
			p.mu.Unlock()
		})
	}
}

// evictLocked drops least-recently-used unpinned entries until the
// budget is met. Caller holds p.mu.
func (p *bufferPool) evictLocked() {
	for p.max > 0 && p.used > p.max && p.lruHead != nil {
		e := p.lruHead
		p.lruUnlink(e)
		delete(p.entries, e.key)
		p.used -= e.size
		p.evictions++
	}
}

// invalidateBelow discards every cached chunk of table with stream
// segment index < firstKept — the retention hook, called after the
// segment files are unlinked. Pinned or in-flight entries are doomed
// instead (freed on last release), so racing scans on a stale version
// keep their slices.
func (p *bufferPool) invalidateBelow(table string, firstKept int) {
	p.mu.Lock()
	for key, e := range p.entries {
		if key.table != table || key.seg >= firstKept {
			continue
		}
		if e.refs > 0 || e.loading {
			e.doomed = true
			continue
		}
		p.lruUnlink(e)
		delete(p.entries, key)
		p.used -= e.size
	}
	p.mu.Unlock()
}

func (p *bufferPool) lruPushMRU(e *poolEntry) {
	e.prev = p.lruTail
	e.next = nil
	if p.lruTail != nil {
		p.lruTail.next = e
	} else {
		p.lruHead = e
	}
	p.lruTail = e
}

func (p *bufferPool) lruUnlink(e *poolEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		p.lruHead = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		p.lruTail = e.prev
	}
	e.prev, e.next = nil, nil
}

// PoolStats is a snapshot of the buffer pool's occupancy and traffic
// counters, surfaced through DB.Stats (and from there /api/stats).
type PoolStats struct {
	MaxBytes  int64 `json:"max_bytes"`
	UsedBytes int64 `json:"used_bytes"`
	Entries   int   `json:"entries"`
	Pinned    int   `json:"pinned"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

func (p *bufferPool) stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{
		MaxBytes:  p.max,
		UsedBytes: p.used,
		Entries:   len(p.entries),
		Pinned:    p.npinned,
		Hits:      p.hits,
		Misses:    p.misses,
		Evictions: p.evictions,
	}
}

// pinnedCount returns the number of currently pinned entries — the
// chaos harness's quiesce invariant ("no scan leaked a pin").
func (p *bufferPool) pinnedCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.npinned
}
