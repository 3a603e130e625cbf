package ml

import (
	"math"
	"testing"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema([]Attribute{
		NominalAttr("color", []string{"red", "green", "blue"}),
		NumericAttr("weight"),
	}, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSchemaValidation(t *testing.T) {
	if _, err := NewSchema(nil, []string{"a", "b"}); err == nil {
		t.Fatal("no attributes should error")
	}
	if _, err := NewSchema([]Attribute{NumericAttr("x")}, []string{"only"}); err == nil {
		t.Fatal("one class should error")
	}
	if _, err := NewSchema([]Attribute{NominalAttr("x", nil)}, []string{"a", "b"}); err == nil {
		t.Fatal("empty nominal values should error")
	}
}

func TestSchemaAccessors(t *testing.T) {
	s := testSchema(t)
	if s.NumAttrs() != 2 || s.NumClasses() != 2 {
		t.Fatalf("schema = %+v", s)
	}
	if s.Attrs[0].NumValues() != 3 {
		t.Fatal("NumValues")
	}
	if Numeric.String() != "numeric" || Nominal.String() != "nominal" || Kind(9).String() == "" {
		t.Fatal("Kind.String coverage")
	}
}

func TestDatasetAddValidation(t *testing.T) {
	d := NewDataset(testSchema(t))
	if err := d.Add([]float64{0, 1.5}, 0); err != nil {
		t.Fatalf("valid add: %v", err)
	}
	if err := d.Add([]float64{1}, 0); err == nil {
		t.Fatal("wrong width should error")
	}
	if err := d.Add([]float64{0, 1}, 5); err == nil {
		t.Fatal("class out of range should error")
	}
	if err := d.Add([]float64{3, 1}, 0); err == nil {
		t.Fatal("nominal index out of range should error")
	}
	if err := d.Add([]float64{0.5, 1}, 0); err == nil {
		t.Fatal("fractional nominal index should error")
	}
	if err := d.Add([]float64{math.NaN(), math.NaN()}, 1); err != nil {
		t.Fatalf("missing values should be allowed: %v", err)
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d", d.Len())
	}
}

func TestClassCountsAndMajority(t *testing.T) {
	d := NewDataset(testSchema(t))
	mustAdd(d, []float64{0, 1}, 0)
	mustAdd(d, []float64{1, 2}, 1)
	mustAdd(d, []float64{2, 3}, 1)
	counts := d.ClassCounts()
	if counts[0] != 1 || counts[1] != 2 {
		t.Fatalf("ClassCounts = %v", counts)
	}
}

func TestSubsetSharesInstances(t *testing.T) {
	d := NewDataset(testSchema(t))
	mustAdd(d, []float64{0, 1}, 0)
	mustAdd(d, []float64{1, 2}, 1)
	mustAdd(d, []float64{2, 3}, 0)
	sub := d.Subset([]int{2, 0})
	if sub.Len() != 2 {
		t.Fatalf("Len = %d", sub.Len())
	}
	if sub.Instances[0].X[0] != 2 || sub.Instances[1].X[0] != 0 {
		t.Fatalf("Subset order wrong: %+v", sub.Instances)
	}
}

// mustAdd adds an instance the test builds valid by construction.
func mustAdd(d *Dataset, x []float64, class int) {
	if err := d.Add(x, class); err != nil {
		panic(err)
	}
}
