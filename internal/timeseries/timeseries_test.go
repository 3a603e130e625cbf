package timeseries

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewRejectsUnordered(t *testing.T) {
	_, err := New("x", []Point{{T: 2, V: 1}, {T: 1, V: 2}})
	if err == nil {
		t.Fatal("expected error for unordered points")
	}
	if !strings.Contains(err.Error(), "not in timestamp order") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestNewAcceptsDuplicatesAndOrdered(t *testing.T) {
	s, err := New("x", []Point{{T: 1}, {T: 1}, {T: 2}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
}

func TestFromValues(t *testing.T) {
	s := FromValues("a", 100, 15, []float64{1, 2, 3})
	want := []Point{{100, 1}, {115, 2}, {130, 3}}
	if !reflect.DeepEqual(s.Points, want) {
		t.Fatalf("Points = %v, want %v", s.Points, want)
	}
}

func TestResampleAverages(t *testing.T) {
	s := FromValues("a", 0, 1, []float64{1, 2, 3, 4, 5, 6})
	r := s.Resample(3)
	want := []Point{{T: 3, V: 2}, {T: 6, V: 5}}
	if !reflect.DeepEqual(r.Points, want) {
		t.Fatalf("Resample = %v, want %v", r.Points, want)
	}
}

func TestResampleSkipsEmptyWindows(t *testing.T) {
	s := MustNew("a", []Point{{T: 0, V: 1}, {T: 1, V: 3}, {T: 10, V: 5}})
	r := s.Resample(2)
	want := []Point{{T: 2, V: 2}, {T: 12, V: 5}}
	if !reflect.DeepEqual(r.Points, want) {
		t.Fatalf("Resample = %v, want %v", r.Points, want)
	}
}

func TestResamplePartialLastWindow(t *testing.T) {
	s := FromValues("a", 0, 1, []float64{1, 2, 3, 4, 5})
	r := s.Resample(3)
	// Last window has only 2 samples: mean = 4.5.
	want := []Point{{T: 3, V: 2}, {T: 6, V: 4.5}}
	if !reflect.DeepEqual(r.Points, want) {
		t.Fatalf("Resample = %v, want %v", r.Points, want)
	}
}

func TestResampleDegenerate(t *testing.T) {
	if got := (&Series{}).Resample(10); !got.Empty() {
		t.Fatal("empty in, empty out")
	}
	s := FromValues("a", 0, 1, []float64{1})
	if got := s.Resample(0); !got.Empty() {
		t.Fatal("window 0 should produce empty series")
	}
}

func TestSumMatchedTimestamps(t *testing.T) {
	a := FromValues("a", 0, 1, []float64{1, 2, 3})
	b := FromValues("b", 0, 1, []float64{10, 20, 30})
	sum := Sum("total", a, b)
	if got := sum.Values(); !reflect.DeepEqual(got, []float64{11, 22, 33}) {
		t.Fatalf("Sum = %v", got)
	}
}

func TestSumUnevenChannels(t *testing.T) {
	a := MustNew("a", []Point{{T: 0, V: 1}, {T: 2, V: 3}})
	b := MustNew("b", []Point{{T: 1, V: 10}, {T: 2, V: 20}})
	sum := Sum("total", a, b)
	want := []Point{{T: 0, V: 1}, {T: 1, V: 10}, {T: 2, V: 23}}
	if !reflect.DeepEqual(sum.Points, want) {
		t.Fatalf("Sum = %v, want %v", sum.Points, want)
	}
}

func TestSumEmptyAndNil(t *testing.T) {
	a := FromValues("a", 0, 1, []float64{1})
	sum := Sum("total", a, nil, &Series{})
	if !reflect.DeepEqual(sum.Values(), []float64{1}) {
		t.Fatalf("Sum = %v", sum.Values())
	}
	if got := Sum("none"); !got.Empty() {
		t.Fatal("Sum of nothing should be empty")
	}
}

func TestSummary(t *testing.T) {
	s := FromValues("a", 0, 1, []float64{2, 4, 6})
	st := s.Summary()
	if st.Count != 3 || st.Min != 2 || st.Max != 6 || st.Mean != 4 {
		t.Fatalf("Summary = %+v", st)
	}
	if z := (&Series{}).Summary(); z.Count != 0 {
		t.Fatalf("empty Summary = %+v", z)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s := MustNew("rt", []Point{{T: 1, V: 0.5}, {T: 2, V: 1234.25}, {T: 3, V: -7}})
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := ReadCSV("rt", &buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if !reflect.DeepEqual(got.Points, s.Points) {
		t.Fatalf("round trip = %v, want %v", got.Points, s.Points)
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"missing comma", "timestamp,value\n123\n"},
		{"bad timestamp", "timestamp,value\nxx,1\nyy,2\n"},
		{"bad value", "timestamp,value\n1,zz\n"},
	}
	for _, c := range cases {
		if _, err := ReadCSV("x", strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	// Header-only and empty inputs are fine.
	if s, err := ReadCSV("x", strings.NewReader("timestamp,value\n")); err != nil || !s.Empty() {
		t.Fatalf("header only: %v %v", s, err)
	}
}

// Property: Resample output is ordered and its count never exceeds input count.
func TestResamplePropertyOrdered(t *testing.T) {
	f := func(seed int64, n uint8, window uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%200) + 1
		w := int64(window%30) + 1
		vals := make([]float64, count)
		for i := range vals {
			vals[i] = rng.Float64() * 1000
		}
		s := FromValues("p", rng.Int63n(1000), 1, vals)
		r := s.Resample(w)
		if r.Len() > s.Len() {
			return false
		}
		for i := 1; i < r.Len(); i++ {
			if r.Points[i].T <= r.Points[i-1].T {
				return false
			}
		}
		// Mass preservation: total weighted mean equals overall mean when the
		// window divides the count evenly.
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: for any series, mean of Resample(1) equals mean of the original.
func TestResampleIdentityWindow(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%100) + 1
		vals := make([]float64, count)
		for i := range vals {
			vals[i] = rng.NormFloat64() * 100
		}
		s := FromValues("p", 0, 1, vals)
		r := s.Resample(1)
		if r.Len() != s.Len() {
			return false
		}
		for i := range vals {
			if math.Abs(r.Points[i].V-vals[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Sum with a single argument is the identity on values.
func TestSumIdentityProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n % 100)
		vals := make([]float64, count)
		for i := range vals {
			vals[i] = rng.Float64()
		}
		s := FromValues("p", 0, 7, vals)
		return reflect.DeepEqual(Sum("s", s).Values(), s.Values())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
