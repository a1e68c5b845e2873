package engine

import (
	"fmt"
	"strings"
)

// Column describes one attribute of a relation.
type Column struct {
	Name string
	Type Type
}

// Schema is an ordered list of columns.
type Schema []Column

// NewSchema builds a schema from alternating name/type pairs, e.g.
// NewSchema("id", TInt, "name", TString). It panics on malformed input;
// it is intended for static schema declarations in code and tests.
func NewSchema(pairs ...any) Schema {
	if len(pairs)%2 != 0 {
		panic("engine: NewSchema requires name/type pairs")
	}
	s := make(Schema, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		name, ok := pairs[i].(string)
		if !ok {
			panic(fmt.Sprintf("engine: NewSchema name at %d is %T", i, pairs[i]))
		}
		typ, ok := pairs[i+1].(Type)
		if !ok {
			panic(fmt.Sprintf("engine: NewSchema type at %d is %T", i+1, pairs[i+1]))
		}
		s = append(s, Column{Name: name, Type: typ})
	}
	return s
}

// ColIndex returns the position of the named column (case-insensitive),
// or -1 when absent.
func (s Schema) ColIndex(name string) int {
	for i, c := range s {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Names returns the column names in order.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for i, c := range s {
		out[i] = c.Name
	}
	return out
}

// Clone returns a deep copy of the schema.
func (s Schema) Clone() Schema {
	out := make(Schema, len(s))
	copy(out, s)
	return out
}

// String renders the schema as "(name type, ...)".
func (s Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		b.WriteByte(' ')
		b.WriteString(c.Type.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Validate checks that column names are non-empty and unique
// (case-insensitively) and that no column is declared TNull.
func (s Schema) Validate() error {
	seen := make(map[string]bool, len(s))
	for i, c := range s {
		if c.Name == "" {
			return fmt.Errorf("engine: column %d has empty name", i)
		}
		lower := strings.ToLower(c.Name)
		if seen[lower] {
			return fmt.Errorf("engine: duplicate column %q", c.Name)
		}
		seen[lower] = true
		if c.Type == TNull {
			return fmt.Errorf("engine: column %q declared null type", c.Name)
		}
	}
	return nil
}
