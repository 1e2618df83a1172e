package series

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCSVRoundTrip(t *testing.T) {
	s := New("level", []float64{1.5, -2, 3.25})
	var buf bytes.Buffer
	if err := WriteCSV(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "level" {
		t.Fatalf("name = %q", got.Name)
	}
	if got.Len() != 3 || got.Values[0] != 1.5 || got.Values[1] != -2 || got.Values[2] != 3.25 {
		t.Fatalf("values = %v", got.Values)
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("header-only\n")); err == nil {
		t.Fatal("header-only CSV accepted")
	}
	if _, err := ReadCSV(strings.NewReader("t,v\n0,not-a-number\n")); err == nil {
		t.Fatal("non-numeric CSV accepted")
	}
}

func TestSaveLoadCSV(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.csv")
	s := New("x", []float64{9, 8, 7})
	if err := SaveCSV(path, s); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 || got.Values[2] != 7 {
		t.Fatalf("loaded = %v", got.Values)
	}
	if _, err := LoadCSV(filepath.Join(dir, "missing.csv")); !os.IsNotExist(err) {
		t.Fatalf("expected not-exist error, got %v", err)
	}
}

// TestReadCSVRejectsNonFinite: NaN and ±Inf parse as floats but are
// not data; each is refused with the row it sits on.
func TestReadCSVRejectsNonFinite(t *testing.T) {
	for in, row := range map[string]string{
		"t,v\n0,NaN\n1,+Inf\n2,1\n": "row 2",
		"t,v\n0,1\n1,+Inf\n":        "row 3",
		"t,v\n0,1\n1,2\n2,-inf\n":   "row 4",
	} {
		s, err := ReadCSV(strings.NewReader(in))
		if err == nil {
			t.Errorf("ReadCSV(%q) = %v, want an error", in, s.Values)
			continue
		}
		if !strings.Contains(err.Error(), row) {
			t.Errorf("ReadCSV(%q) error %q does not name %s", in, err, row)
		}
	}
}

// FuzzReadCSV: ReadCSV never panics, and every series it accepts
// survives a WriteCSV→ReadCSV round trip unchanged, name and value
// bits alike.
func FuzzReadCSV(f *testing.F) {
	for _, s := range []*Series{
		New("level", []float64{1.5, -2, 3.25}),
		New("x", []float64{0, math.Copysign(0, -1), 1e-300, -1.7976931348623157e308}),
		New("name, with \"quotes\"", []float64{42}),
	} {
		var buf bytes.Buffer
		if err := WriteCSV(&buf, s); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("t,v\n0,NaN\n1,+Inf\n2,1\n"))
	f.Add([]byte("v\n1\n2\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		s, err := ReadCSV(bytes.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, s); err != nil {
			t.Fatalf("WriteCSV of an accepted series: %v", err)
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("re-reading WriteCSV output: %v", err)
		}
		if back.Name != s.Name || len(back.Values) != len(s.Values) {
			t.Fatalf("round trip changed the series: %q/%d values -> %q/%d", s.Name, len(s.Values), back.Name, len(back.Values))
		}
		for i, v := range s.Values {
			if math.Float64bits(back.Values[i]) != math.Float64bits(v) {
				t.Fatalf("value %d: %v -> %v", i, v, back.Values[i])
			}
		}
	})
}
