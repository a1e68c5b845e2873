package engine

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// DB is a tiny catalog of named tables. It is safe for concurrent
// readers and writers; queries executed by internal/exec only read.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{tables: make(map[string]*Table)}
}

// Register adds or replaces a table under its own name.
func (db *DB) Register(t *Table) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.tables[strings.ToLower(t.Name())] = t
}

// Table returns the named table (case-insensitive).
func (db *DB) Table(name string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("engine: no table %q (have: %s)", name, strings.Join(db.names(), ", "))
	}
	return t, nil
}

// AppendCols appends a batch to the named table through the
// copy-on-write path (Table.AppendCols) and atomically republishes the
// grown version under the same name: queries that already fetched the
// table keep their snapshot, queries started after AppendCols returns
// see the whole batch. The grown version is returned.
func (db *DB) AppendCols(name string, b *Batch) (*Table, error) {
	return db.republish(name, func(t *Table) (*Table, error) { return t.AppendCols(b, 0, b.Len()) })
}

// republish applies mut to the named table's newest version outside the
// catalog lock — a large ingest never blocks query starts — and swaps
// the result in. Mutations of one family serialize on its lock; one
// that lost to a concurrent republish (errStaleAppend) or landed on a
// family Register/Drop replaced meanwhile retries against the table
// registered now. If the stale version is still the registered one, the
// family was mutated outside the catalog and retrying would never
// converge: the error is returned for the caller to retry.
func (db *DB) republish(name string, mut func(*Table) (*Table, error)) (*Table, error) {
	key := strings.ToLower(name)
	for {
		t, err := db.Table(name)
		if err != nil {
			return nil, err
		}
		nt, err := mut(t)
		if errors.Is(err, errStaleAppend) {
			db.mu.RLock()
			cur := db.tables[key]
			db.mu.RUnlock()
			if cur == t {
				return nil, err
			}
			continue
		}
		if err != nil || nt == t {
			return nt, err
		}
		db.mu.Lock()
		if db.tables[key] == t {
			db.tables[key] = nt
			db.mu.Unlock()
			return nt, nil
		}
		db.mu.Unlock()
	}
}

// Append is AppendCols over boxed rows (BatchOf), kept for bench/;
// everything else appends a Batch.
func (db *DB) Append(name string, rows [][]Value) (*Table, error) {
	t, err := db.Table(name)
	if err != nil {
		return nil, err
	}
	b, err := BatchOf(t.schema, rows)
	if err != nil {
		return nil, fmt.Errorf("engine: table %s: %w", t.name, err)
	}
	return db.AppendCols(name, b)
}

// Names returns the registered table names, sorted.
func (db *DB) Names() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.names()
}

func (db *DB) names() []string {
	out := make([]string, 0, len(db.tables))
	for n := range db.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
