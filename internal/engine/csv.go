package engine

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
)

// readCSV loads a table from CSV. The first record must be a header of
// column names. When schema is nil, column types are inferred from (up
// to) the first 200 data rows; otherwise the given schema is used and
// must match the header's column count and names positionally.
func readCSV(r io.Reader, name string, schema Schema) (*Table, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = false
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("engine: read csv header: %w", err)
	}
	var records [][]string
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("engine: read csv: %w", err)
		}
		records = append(records, rec)
	}
	if schema == nil {
		schema = make(Schema, len(header))
		sampleN := len(records)
		if sampleN > 200 {
			sampleN = 200
		}
		for c, h := range header {
			samples := make([]string, 0, sampleN)
			for i := 0; i < sampleN; i++ {
				if c < len(records[i]) {
					samples = append(samples, records[i][c])
				}
			}
			schema[c] = Column{Name: h, Type: inferType(samples)}
		}
	} else if len(schema) != len(header) {
		return nil, fmt.Errorf("engine: csv has %d columns, schema has %d", len(header), len(schema))
	}
	t, err := NewTable(name, schema)
	if err != nil {
		return nil, err
	}
	b := NewBatch(schema, len(records))
	for i, rec := range records {
		if len(rec) != len(schema) {
			return nil, fmt.Errorf("engine: csv row %d has %d fields, want %d", i+1, len(rec), len(schema))
		}
		for c, field := range rec {
			v, err := ParseValue(field, schema[c].Type)
			if err == nil {
				err = b.AppendValue(c, v)
			}
			if err != nil {
				return nil, fmt.Errorf("engine: csv row %d col %s: %w", i+1, schema[c].Name, err)
			}
		}
	}
	return t.AppendCols(b, 0, b.Len())
}

// writeCSV writes the table as CSV with a header row. NULLs render as
// empty fields.
func writeCSV(w io.Writer, t *Table) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Schema().Names()); err != nil {
		return err
	}
	rec := make([]string, t.NumCols())
	for i := 0; i < t.NumRows(); i++ {
		for c := 0; c < t.NumCols(); c++ {
			v := t.Value(i, c)
			if v.IsNull() {
				rec[c] = ""
			} else {
				rec[c] = v.String()
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// LoadCSVFile loads a table from a CSV file on disk with inferred types.
func LoadCSVFile(path, name string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readCSV(f, name, nil)
}

// SaveCSVFile writes the table to a CSV file on disk.
func SaveCSVFile(path string, t *Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeCSV(f, t); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
