package series

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
)

// WriteCSV writes the series as two columns (index, value) with a
// header row.
func WriteCSV(w io.Writer, s *Series) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"t", s.Name}); err != nil {
		return err
	}
	for i, v := range s.Values {
		if err := cw.Write([]string{strconv.Itoa(i), strconv.FormatFloat(v, 'g', -1, 64)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV reads a series written by WriteCSV (or any CSV whose last
// column is the value and whose first row is a header). A value that
// does not parse, or parses to NaN or ±Inf, is an error naming its
// row.
func ReadCSV(r io.Reader) (*Series, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) < 2 {
		return nil, fmt.Errorf("series: CSV has no data rows")
	}
	name := "series"
	if len(rows[0]) > 0 {
		name = rows[0][len(rows[0])-1]
	}
	values := make([]float64, 0, len(rows)-1)
	for i, row := range rows[1:] {
		if len(row) == 0 {
			continue
		}
		v, err := strconv.ParseFloat(row[len(row)-1], 64)
		if err != nil {
			return nil, fmt.Errorf("series: CSV row %d: %w", i+2, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("series: CSV row %d: non-finite value %q", i+2, row[len(row)-1])
		}
		values = append(values, v)
	}
	return New(name, values), nil
}

// SaveCSV writes the series to a file path.
func SaveCSV(path string, s *Series) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := WriteCSV(f, s); err != nil {
		return err
	}
	return f.Close()
}

// LoadCSV reads a series from a file path.
func LoadCSV(path string) (*Series, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCSV(f)
}
