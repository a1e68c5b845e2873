package engine

import (
	"strings"
	"sync"
)

// family is the state every version of one table shares: the linear
// history check, the string dictionaries and the auxiliary cache.
// Mutations (AppendCols, RetainTail, AttachSegment) write it under mu;
// a column reader never touches it. It lives behind a pointer so
// Rename's, AppendCols' and RetainTail's shallow copies share it and the
// Table struct stays copyable without copying a lock.
type family struct {
	mu sync.Mutex
	// pub is the family's publication counter: each AppendCols or
	// RetainTail bumps it, and mutations require the acting version to
	// carry the current stamp — the linear-history check.
	pub uint64
	// hw is the family's stream high-water mark (rows ever appended).
	hw int
	// dict[c] is string column c's family dictionary (nil for the rest).
	dict []*dictState
	aux  map[any]any
}

// newFamily returns the family state of an empty table.
func newFamily(schema Schema) *family {
	fam := &family{dict: make([]*dictState, len(schema))}
	for c, col := range schema {
		if col.Type == TString {
			fam.dict[c] = &dictState{byStr: make(map[string]int32)}
		}
	}
	return fam
}

// dictState is one string column's family-level dictionary. Codes are
// family-global and assigned at append, in first-appearance (stream row)
// order; the dictionary never shrinks — strings whose rows were all
// dropped by retention keep their codes — and each version bounds it at
// the strings its own rows had seen (Dict).
type dictState struct {
	values []string
	byStr  map[string]int32
	// shared is true once byStr has been handed to a Dict; the next
	// insertion then clones the map first (copy-on-grow), so published
	// handles never observe a map write.
	shared bool
}

// code interns s and returns its dictionary code. A new string is
// cloned, so the dictionary never pins the buffer a caller sliced s from.
func (ds *dictState) code(s string) int32 {
	c, ok := ds.byStr[s]
	if !ok {
		if ds.shared {
			clone := make(map[string]int32, len(ds.byStr)+1)
			for k, cv := range ds.byStr {
				clone[k] = cv
			}
			ds.byStr = clone
			ds.shared = false
		}
		s = strings.Clone(s)
		c = int32(len(ds.values))
		ds.byStr[s] = c
		ds.values = append(ds.values, s)
	}
	return c
}

// Dict is string column c's dictionary as one table version sees it:
// the distinct strings of its rows in first-appearance order, which is
// code order. Codes are append-stable — a string's code never changes as
// rows are appended — so every version of a family agrees on every code
// they share; a string that first appears after this version's last row
// has no code here. The zero Dict (a non-string column's) is empty.
type Dict struct {
	values []string
	byStr  map[string]int32
}

// Dict returns the dictionary of string column c at this version.
func (t *Table) Dict(c int) Dict {
	ds := t.fam.dict[c]
	if ds == nil {
		return Dict{}
	}
	t.fam.mu.Lock()
	defer t.fam.mu.Unlock()
	ds.shared = true
	return Dict{values: t.tail.dicts[c], byStr: ds.byStr}
}

// Values returns the distinct strings in code order. Read-only.
func (d Dict) Values() []string { return d.values }

// NumValues returns the number of distinct strings.
func (d Dict) NumValues() int { return len(d.values) }

// Value returns the string of a code a reader of this version returned.
func (d Dict) Value(code int32) string { return d.values[code] }

// Code returns the dictionary code of s, or -1 when s does not occur in
// the column within this version's rows.
func (d Dict) Code(s string) int32 {
	if c, ok := d.byStr[s]; ok && int(c) < len(d.values) {
		return c
	}
	return -1
}

// AuxLoadOrStore returns the per-table auxiliary cache entry for key,
// building it with build on first request. Entries share the table
// family's lifetime (and its Rename/AppendCols/RetainTail copies),
// which lets higher layers — the family's clause-mask index, for
// instance — cache derived structures per table without a
// process-global map that outlives the table. build may run more than
// once under a race; exactly one result wins.
func (t *Table) AuxLoadOrStore(key any, build func() any) any {
	fam := t.fam
	fam.mu.Lock()
	if v, ok := fam.aux[key]; ok {
		fam.mu.Unlock()
		return v
	}
	fam.mu.Unlock()
	v := build()
	fam.mu.Lock()
	defer fam.mu.Unlock()
	if fam.aux == nil {
		fam.aux = make(map[any]any)
	}
	if prev, ok := fam.aux[key]; ok {
		return prev
	}
	fam.aux[key] = v
	return v
}
